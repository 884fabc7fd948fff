//! Time in an event loop, as one queue of wake-ups. The paper's Reactor
//! treats a timer as one more Event Source beside the I/O ports; here the
//! dispatcher loop (`reactor.rs`) and the cluster relay (`cluster.rs`)
//! each keep one `Deadlines`. A pass of either loop reads the clock it is
//! given at its first need (`lazily`), acts on every wake-up due
//! (`Deadlines::sweep`), and returns how long the loop may sleep. The
//! threaded loops pass `WALL`; a test passes a virtual clock.
//! What a wake-up is for belongs to the loop: a connection's earliest
//! deadline (idle, header read, write drain, linger), a relay session's
//! reap, a parked backend dial.
//!
//! The queue never cancels. An owner keeps one wake-up queued and
//! remembers its instant; a wake-up whose instant no owner holds any more
//! is stale, and the loop drops it unread at the head or in a `prune`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// How long a lingering close — FIN sent, read side open — waits for the
/// peer's own FIN before the hard close, in the dispatcher and the relay
/// alike: long enough for response bytes in flight to be consumed, short
/// enough that a peer that never answers cannot pin the socket.
pub(crate) const LINGER: Duration = Duration::from_secs(1);

/// The clock the threaded loops pass to each pass: wall time.
pub(crate) const WALL: fn() -> Instant = Instant::now;

/// One pass's reading of `clock`, taken at its first use and shared by
/// the rest of the pass: a pass that needs no time reads no clock.
pub(crate) fn lazily(mut clock: impl FnMut() -> Instant) -> impl FnMut() -> Instant {
    let mut reading = None;
    move || *reading.get_or_insert_with(&mut clock)
}

/// A min-queue of `(Instant, K)` wake-ups: one loop's timers.
#[derive(Debug)]
pub(crate) struct Deadlines<K>(BinaryHeap<Reverse<(Instant, K)>>);

impl<K: Ord> Default for Deadlines<K> {
    fn default() -> Self {
        Self(BinaryHeap::new())
    }
}

impl<K: Ord + Copy> Deadlines<K> {
    /// Queue a wake-up for `key` at `at`.
    pub fn arm(&mut self, at: Instant, key: K) {
        self.0.push(Reverse((at, key)));
    }

    /// The earliest wake-up, left queued.
    pub fn next(&self) -> Option<(Instant, K)> {
        self.0.peek().map(|Reverse(head)| *head)
    }

    /// Take the earliest wake-up if it is due at `now` (its instant is
    /// not later).
    pub fn pop_due(&mut self, now: Instant) -> Option<(Instant, K)> {
        if self.next()?.0 > now {
            return None;
        }
        self.0.pop().map(|Reverse(head)| head)
    }

    /// One pass's sweep of the queue `queue` picks out of loop `cx` (so
    /// that `due` may re-arm it): each wake-up due at `now()` leaves the
    /// queue in deadline order and goes to `due` if its owner still
    /// `held` it; a stale one is dropped unread at the head. Returns the
    /// time until the first held wake-up left.
    pub fn sweep<X>(
        cx: &mut X,
        queue: fn(&mut X) -> &mut Self,
        mut now: impl FnMut() -> Instant,
        held: impl Fn(&X, (Instant, K)) -> bool,
        mut due: impl FnMut(&mut X, K, Instant),
    ) -> Option<Duration> {
        while let Some(wake) = queue(cx).next() {
            let (held, now) = (held(cx, wake), now());
            if held && wake.0 > now {
                return Some(wake.0 - now);
            }
            // Due, or stale: either way it leaves the queue.
            queue(cx).pop_due(wake.0);
            if held {
                due(cx, wake.1, now);
            }
        }
        None
    }

    /// Keep only the wake-ups `held` accepts, once the queue outnumbers
    /// its `live` owners two to one (plus 64): stale wake-ups are bounded
    /// by the owners alive, not by those closed within the longest deadline.
    pub fn prune(&mut self, live: usize, held: impl Fn(&(Instant, K)) -> bool) {
        if self.0.len() > 2 * live + 64 {
            self.0.retain(|Reverse(wake)| held(wake));
        }
    }
}

#[cfg(test)]
mod tests {
    //! Each test keeps the name of the idle or stage tracker test whose
    //! behaviour it carries over: to the one queue, and to a connection's
    //! side of it, `reactor::ConnTimes`, as the dispatcher drives them.

    use super::*;
    use crate::options::StageDeadlines;
    use crate::reactor::ConnTimes;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// Header-read 100 ms, write-drain 50 ms.
    const STAGES: StageDeadlines = StageDeadlines {
        header_read_ms: Some(100),
        write_drain_ms: Some(50),
    };

    #[test]
    fn idle_tracker_sweeps_only_expired() {
        let t0 = Instant::now();
        let mut q = Deadlines::default();
        let mut c1 = ConnTimes {
            idle_at: Some(t0 + ms(100)),
            ..ConnTimes::default()
        };
        let mut c2 = ConnTimes {
            idle_at: Some(t0 + ms(180)),
            ..ConnTimes::default()
        };
        c1.rearm(1, &mut q);
        c2.rearm(2, &mut q);
        let (at, _) = q.pop_due(t0 + ms(150)).unwrap();
        assert_eq!(c1.wake_at, Some(at), "held");
        assert_eq!(c1.take_passed(t0 + ms(150)), (false, true, false));
        assert_eq!(q.pop_due(t0 + ms(150)), None, "2 is not due yet");
        // A read touches 2 at 160: a field store, no new wake-up.
        c2.idle_at = Some(t0 + ms(260));
        c2.rearm(2, &mut q);
        assert_eq!(q.next(), Some((t0 + ms(180), 2)));
        // Its old wake-up pops, finds it idle only at 260, and re-arms.
        let (at, _) = q.pop_due(t0 + ms(200)).unwrap();
        assert_eq!(c2.wake_at, Some(at), "held");
        assert_eq!(c2.take_passed(t0 + ms(200)), (false, false, false));
        c2.rearm(2, &mut q);
        assert_eq!(q.pop_due(t0 + ms(200)), None);
        assert_eq!(q.next(), Some((t0 + ms(260), 2)));
    }

    #[test]
    fn idle_tracker_next_deadline_is_earliest_expiry() {
        let t0 = Instant::now();
        let mut q = Deadlines::default();
        assert!(q.next().is_none());
        q.arm(t0 + ms(150), 1);
        q.arm(t0 + ms(100), 2);
        q.arm(t0 + ms(120), 3);
        assert_eq!(q.next(), Some((t0 + ms(100), 2)));
        // Due exactly at its instant.
        assert_eq!(q.pop_due(t0 + ms(100)), Some((t0 + ms(100), 2)));
        assert_eq!(q.next(), Some((t0 + ms(120), 3)));
    }

    #[test]
    fn idle_tracker_forget() {
        // Nothing is removed from the queue when a connection closes:
        // its wake-up is stale, and a prune drops it once the stale
        // outnumber the live.
        let t0 = Instant::now();
        let mut q = Deadlines::default();
        for id in 0..100u64 {
            q.arm(t0 + ms(300_000 + id), id);
        }
        let live = |&(_, id): &(Instant, u64)| id == 7;
        q.prune(40, live);
        assert_eq!(q.0.len(), 100, "within twice the live owners plus 64");
        q.prune(1, live);
        assert_eq!(q.next(), Some((t0 + ms(300_007), 7)));
        assert_eq!(q.0.len(), 1, "only the live owner's wake-up is left");
    }

    /// A loop whose owners hold the wake-ups of `held`.
    #[derive(Default)]
    struct Looping {
        q: Deadlines<u64>,
        held: Vec<(Instant, u64)>,
        acted: Vec<(u64, Instant)>,
    }

    fn sweep(l: &mut Looping, now: impl FnMut() -> Instant) -> Option<Duration> {
        let held = |l: &Looping, wake| l.held.contains(&wake);
        Deadlines::sweep(l, |l| &mut l.q, now, held, |l, k, at| l.acted.push((k, at)))
    }

    #[test]
    fn sweep_acts_on_the_held_drops_the_stale_and_returns_the_time_left() {
        let t0 = Instant::now();
        let mut l = Looping::default();
        for (at, k) in [(10, 1), (20, 2), (30, 3)] {
            l.q.arm(t0 + ms(at), k);
        }
        // 2's owner let its wake-up go: it is stale.
        l.held = vec![(t0 + ms(10), 1), (t0 + ms(30), 3)];
        let now = t0 + ms(25);
        assert_eq!(sweep(&mut l, lazily(|| now)), Some(ms(5)));
        assert_eq!(l.acted, vec![(1, now)]);
        assert_eq!(l.q.0.len(), 1, "the stale one left unread");
        // Due at its instant, not a nanosecond before.
        assert_eq!(
            sweep(&mut l, || t0 + ms(30) - Duration::from_nanos(1)),
            Some(Duration::from_nanos(1))
        );
        assert_eq!(sweep(&mut l, || t0 + ms(30)), None);
        assert_eq!(l.acted[1], (3, t0 + ms(30)));
        // An empty queue reads no clock.
        assert_eq!(sweep(&mut l, || panic!("a clock read")), None);
    }

    #[test]
    fn stage_tracker_header_window_is_not_refreshed_by_partial_activity() {
        let t0 = Instant::now();
        let mut q = Deadlines::default();
        let mut c = ConnTimes::opened(t0, None, STAGES);
        c.rearm(1, &mut q);
        // Partial reads: each close test finds the outbox empty and no
        // reply drained, and leaves the header deadline where it is.
        for at in [10, 50, 99] {
            c.stages(STAGES, true, false, t0 + ms(at));
            c.rearm(1, &mut q);
        }
        assert_eq!(c.header_by, Some(t0 + ms(100)));
        assert_eq!(q.pop_due(t0 + ms(99)), None);
        let (at, _) = q.pop_due(t0 + ms(100)).unwrap();
        assert_eq!(c.wake_at, Some(at), "held");
        assert_eq!(c.take_passed(t0 + ms(100)), (false, false, true));
        c.rearm(1, &mut q);
        assert!(q.next().is_none(), "the window held one wake-up");
    }

    #[test]
    fn stage_tracker_rearm_header_extends_the_window() {
        let t0 = Instant::now();
        let mut q = Deadlines::default();
        let mut c = ConnTimes::opened(t0, None, STAGES);
        c.rearm(1, &mut q);
        // A reply drained at 80 re-opens the window for the next request.
        c.stages(STAGES, true, true, t0 + ms(80));
        c.rearm(1, &mut q);
        assert_eq!(c.header_by, Some(t0 + ms(180)));
        let (at, _) = q.pop_due(t0 + ms(120)).unwrap();
        assert_eq!(c.wake_at, Some(at), "held");
        assert_eq!(c.take_passed(t0 + ms(120)), (false, false, false));
        c.rearm(1, &mut q);
        assert_eq!(q.pop_due(t0 + ms(179)), None);
        assert_eq!(q.pop_due(t0 + ms(180)), Some((t0 + ms(180), 1)));
    }

    #[test]
    fn stage_tracker_drain_window_arms_once_and_clears() {
        let t0 = Instant::now();
        let mut q = Deadlines::default();
        let mut stalled = ConnTimes::opened(t0, None, STAGES);
        let mut drained = ConnTimes::opened(t0, None, STAGES);
        // Both queue a reply the peer does not read at 0: the drain
        // window opens, earlier than the header's.
        for (id, c) in [(1, &mut stalled), (2, &mut drained)] {
            c.stages(STAGES, false, false, t0);
            c.rearm(id, &mut q);
            assert_eq!(c.drain_by, Some(t0 + ms(50)));
        }
        // A reader that takes one byte at 30 buys no time: the bytes
        // still queued keep the window where it opened.
        stalled.stages(STAGES, false, false, t0 + ms(30));
        stalled.rearm(1, &mut q);
        assert_eq!(stalled.drain_by, Some(t0 + ms(50)));
        // The other reply drains at 40: the window clears and a header
        // window opens for the next request.
        drained.stages(STAGES, true, true, t0 + ms(40));
        drained.rearm(2, &mut q);
        assert_eq!(
            (drained.drain_by, drained.header_by),
            (None, Some(t0 + ms(140)))
        );
        let (at, _) = q.pop_due(t0 + ms(50)).unwrap();
        assert_eq!(stalled.wake_at, Some(at), "held");
        assert_eq!(stalled.take_passed(t0 + ms(50)), (false, false, true));
        let (at, _) = q.pop_due(t0 + ms(50)).unwrap();
        assert_eq!(drained.wake_at, Some(at), "held");
        assert_eq!(drained.take_passed(t0 + ms(50)), (false, false, false));
        drained.rearm(2, &mut q);
        assert_eq!(q.next(), Some((t0 + ms(140), 2)));
    }

    #[test]
    fn stage_tracker_next_deadline_spans_both_stages() {
        let t0 = Instant::now();
        let mut q = Deadlines::default();
        let mut c1 = ConnTimes::opened(t0, None, STAGES);
        let mut c2 = ConnTimes::opened(t0, None, STAGES);
        c2.stages(STAGES, false, false, t0);
        c1.rearm(1, &mut q);
        c2.rearm(2, &mut q);
        assert_eq!(q.next(), Some((t0 + ms(50), 2)));
        // 2 closes: nothing holds its wake-up, which is dropped unread
        // at the head, and 1's is next.
        let (at, _) = q.pop_due(t0 + ms(50)).unwrap();
        assert_ne!(c1.wake_at, Some(at));
        assert_eq!(q.next(), Some((t0 + ms(100), 1)));
    }

    #[test]
    fn stage_tracker_sweep_reports_a_connection_once() {
        let t0 = Instant::now();
        let mut q = Deadlines::default();
        // Header and drain windows both end at 100: one wake-up for both.
        let mut c = ConnTimes::opened(t0, None, STAGES);
        c.stages(STAGES, false, false, t0 + ms(50));
        c.rearm(3, &mut q);
        c.rearm(3, &mut q);
        let (at, _) = q.pop_due(t0 + ms(120)).unwrap();
        assert_eq!(c.wake_at, Some(at), "held");
        assert_eq!(c.take_passed(t0 + ms(120)), (false, false, true));
        c.rearm(3, &mut q);
        assert_eq!(q.pop_due(t0 + ms(120)), None);
        assert_ne!(c.wake_at, Some(at), "spent");
    }

    #[test]
    fn stage_tracker_from_options() {
        // A connection with no deadline configured queues nothing.
        let t0 = Instant::now();
        let mut q = Deadlines::default();
        let mut c = ConnTimes::opened(t0, None, StageDeadlines::NONE);
        c.stages(StageDeadlines::NONE, false, false, t0);
        c.rearm(1, &mut q);
        assert_eq!((c.header_by, c.drain_by, c.wake_at), (None, None, None));
        assert_eq!(q.pop_due(t0 + ms(1_000_000)), None);
        // An idle limit alone opens the idle window only.
        let mut c = ConnTimes::opened(t0, Some(ms(5)), StageDeadlines::NONE);
        c.rearm(1, &mut q);
        assert_eq!(q.next(), Some((t0 + ms(5), 1)));
    }
}
