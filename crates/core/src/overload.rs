//! Automatic overload control (template option O9).
//!
//! The paper describes two mechanisms. The trivial one caps the number of
//! simultaneous connections. The second — which Fig. 6 evaluates — watches
//! the lengths of multiple event queues: "If there is a queue whose length
//! exceeds its specified high watermark, then new connection requests are
//! postponed until the length drops below a specified low watermark." The
//! hysteresis band between the watermarks prevents accept/pause flapping,
//! and watching *multiple* queues handles multi-bottleneck overload (CPU
//! and disk at once).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Watermark state machine over a single observed queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watermark {
    high: usize,
    low: usize,
    paused: bool,
}

impl Watermark {
    /// Create with `low < high` (validated by the options layer).
    pub fn new(high: usize, low: usize) -> Self {
        assert!(low < high, "low watermark must be below high");
        Self {
            high,
            low,
            paused: false,
        }
    }

    /// Feed the current queue length; returns `true` while accepting
    /// should pause.
    pub fn observe(&mut self, len: usize) -> bool {
        if self.paused {
            if len <= self.low {
                self.paused = false;
            }
        } else if len >= self.high {
            self.paused = true;
        }
        self.paused
    }

    /// Whether accepting is currently paused.
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    /// High watermark.
    pub fn high(&self) -> usize {
        self.high
    }

    /// Low watermark.
    pub fn low(&self) -> usize {
        self.low
    }
}

/// A queue-length probe: a shared gauge owned by some event queue.
pub type LenProbe = Arc<AtomicUsize>;

/// The overload controller the dispatcher consults before accepting.
pub struct OverloadController {
    max_connections: Option<usize>,
    watched: Vec<(LenProbe, Watermark)>,
    pauses: u64,
    resumes: u64,
    /// The last [`may_accept`](Self::may_accept) answered no.
    gating: bool,
}

impl OverloadController {
    /// A controller that never pauses (O9 = No).
    pub fn disabled() -> Self {
        Self {
            max_connections: None,
            watched: Vec::new(),
            pauses: 0,
            resumes: 0,
            gating: false,
        }
    }

    /// The trivial mechanism: a simultaneous-connection cap.
    pub fn with_max_connections(limit: usize) -> Self {
        Self {
            max_connections: Some(limit),
            watched: Vec::new(),
            pauses: 0,
            resumes: 0,
            gating: false,
        }
    }

    /// The watermark mechanism over an initial probe; more queues can be
    /// watched via [`OverloadController::watch`].
    pub fn with_watermark(probe: LenProbe, high: usize, low: usize) -> Self {
        let mut c = Self::disabled();
        c.watch(probe, high, low);
        c
    }

    /// Watch an additional queue (multi-bottleneck control).
    pub fn watch(&mut self, probe: LenProbe, high: usize, low: usize) {
        self.watched.push((probe, Watermark::new(high, low)));
    }

    /// Should the server accept a new connection right now, given the
    /// current connection count?
    pub fn may_accept(&mut self, current_connections: usize) -> bool {
        let admitted = self.admits(current_connections);
        self.gating = !admitted;
        admitted
    }

    fn admits(&mut self, current_connections: usize) -> bool {
        if let Some(limit) = self.max_connections {
            if current_connections >= limit {
                return false;
            }
        }
        let mut pause = false;
        for (probe, wm) in &mut self.watched {
            let len = probe.load(Ordering::Relaxed);
            let was = wm.is_paused();
            let now = wm.observe(len);
            if now && !was {
                self.pauses += 1;
            }
            if was && !now {
                self.resumes += 1;
            }
            pause |= now;
        }
        !pause
    }

    /// Times any watermark transitioned into the paused state.
    pub fn pause_transitions(&self) -> u64 {
        self.pauses
    }

    /// Times any watermark transitioned back to accepting.
    pub fn resume_transitions(&self) -> u64 {
        self.resumes
    }

    /// Whether the acceptor is held back: the last
    /// [`may_accept`](Self::may_accept) refused, for either mechanism.
    /// While this is false no event — a closed connection, a drained
    /// queue — can unblock an accept, so none needs to wake the acceptor.
    pub fn is_gating(&self) -> bool {
        self.gating
    }

    /// Whether any watched watermark is currently paused. Does not
    /// re-observe the probes: reflects the state as of the last
    /// [`may_accept`](Self::may_accept) call.
    pub fn is_paused(&self) -> bool {
        self.watched.iter().any(|(_, wm)| wm.is_paused())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermark_hysteresis() {
        let mut wm = Watermark::new(20, 5);
        assert!(!wm.observe(10));
        assert!(wm.observe(20)); // hits high -> pause
        assert!(wm.observe(10)); // still above low -> stay paused
        assert!(wm.observe(6));
        assert!(!wm.observe(5)); // at low -> resume
        assert!(!wm.observe(19)); // below high -> keep accepting
        assert!(wm.observe(25));
        assert_eq!((wm.high(), wm.low()), (20, 5));
    }

    #[test]
    #[should_panic(expected = "low watermark")]
    fn inverted_watermarks_panic() {
        Watermark::new(5, 20);
    }

    #[test]
    fn disabled_controller_always_accepts() {
        let mut c = OverloadController::disabled();
        assert!(c.may_accept(1_000_000));
        assert_eq!(c.pause_transitions(), 0);
    }

    #[test]
    fn max_connections_cap() {
        let mut c = OverloadController::with_max_connections(150);
        assert!(c.may_accept(149));
        assert!(!c.may_accept(150));
        assert!(!c.may_accept(151));
    }

    #[test]
    fn watermark_controller_gates_on_probe() {
        let probe: LenProbe = Arc::new(AtomicUsize::new(0));
        let mut c = OverloadController::with_watermark(Arc::clone(&probe), 20, 5);
        assert!(c.may_accept(0));
        probe.store(20, Ordering::Relaxed);
        assert!(!c.may_accept(0));
        probe.store(10, Ordering::Relaxed);
        assert!(!c.may_accept(0), "hysteresis keeps it paused");
        probe.store(5, Ordering::Relaxed);
        assert!(c.may_accept(0));
        assert_eq!(c.pause_transitions(), 1);
        assert_eq!(c.resume_transitions(), 1);
        assert!(!c.is_paused());
    }

    #[test]
    fn resume_counter_tracks_pause_counter() {
        let probe: LenProbe = Arc::new(AtomicUsize::new(0));
        let mut c = OverloadController::with_watermark(Arc::clone(&probe), 20, 5);
        for _ in 0..3 {
            probe.store(25, Ordering::Relaxed);
            assert!(!c.may_accept(0));
            assert!(c.is_paused());
            probe.store(0, Ordering::Relaxed);
            assert!(c.may_accept(0));
        }
        assert_eq!(c.pause_transitions(), 3);
        assert_eq!(c.resume_transitions(), 3);
    }

    #[test]
    fn any_watched_queue_can_pause() {
        let cpu: LenProbe = Arc::new(AtomicUsize::new(0));
        let disk: LenProbe = Arc::new(AtomicUsize::new(0));
        let mut c = OverloadController::with_watermark(Arc::clone(&cpu), 20, 5);
        c.watch(Arc::clone(&disk), 10, 2);
        assert!(c.may_accept(0));
        disk.store(10, Ordering::Relaxed);
        assert!(!c.may_accept(0), "disk bottleneck pauses accepting");
        disk.store(2, Ordering::Relaxed);
        cpu.store(30, Ordering::Relaxed);
        assert!(!c.may_accept(0), "cpu bottleneck pauses accepting");
        cpu.store(1, Ordering::Relaxed);
        assert!(c.may_accept(0));
        assert_eq!(c.pause_transitions(), 2);
    }
}
