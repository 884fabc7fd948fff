//! The one clock: nanoseconds since one process-wide epoch. Every stage
//! boundary, queue-wait stamp, watchdog row and trace span reads it, so a
//! boundary's recorders share one reading and every tier's spans merge
//! with no translation. On x86_64 it calibrates against the TSC over its
//! first ~20 ms, then converts one `rdtsc`, which costs less than a vDSO
//! `clock_gettime`; a process-wide clamp keeps readings non-decreasing.
//! Elsewhere it is `Instant`. Deadlines stay `Instant`s, from the clock
//! an event loop's pass is given (`timer.rs`); this one only records.

use std::cell::Cell;
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static READS: Cell<u64> = const { Cell::new(0) };
}

/// The instant every reading counts from: the first use of the clock.
pub(crate) fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since [`epoch`]. Non-decreasing across threads.
pub(crate) fn now() -> u64 {
    READS.with(|r| r.set(r.get() + 1));
    fast::now_ns()
}

/// Microseconds since [`epoch`]: one reading, truncated.
pub(crate) fn now_us() -> u64 {
    now() / 1_000
}

/// Whole microseconds from reading `from` to reading `to`.
pub(crate) fn us_between(from: u64, to: u64) -> u64 {
    to.saturating_sub(from) / 1_000
}

/// Readings the calling thread has taken so far: what the hit path's
/// pins count.
pub fn reads() -> u64 {
    READS.with(Cell::get)
}

#[cfg(target_arch = "x86_64")]
mod fast {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;

    /// `(ns0, tsc0, q32)`: a reading is `ns0 + ((tsc - tsc0) * q32 >> 32)`.
    static CALIB: OnceLock<(u64, u64, u64)> = OnceLock::new();
    /// The first `(ns, tsc)` pair, which the rate is fitted from.
    static START: OnceLock<(u64, u64)> = OnceLock::new();
    static LAST_NS: AtomicU64 = AtomicU64::new(0);

    fn rdtsc() -> u64 {
        // SAFETY: `_rdtsc` is always available on x86_64 and has no
        // preconditions.
        unsafe { core::arch::x86_64::_rdtsc() }
    }

    pub(super) fn now_ns() -> u64 {
        let raw = match CALIB.get() {
            Some(&(ns0, tsc0, q32)) => {
                ns0 + ((rdtsc().wrapping_sub(tsc0) as u128 * q32 as u128) >> 32) as u64
            }
            None => calibrating(),
        };
        LAST_NS.fetch_max(raw, Ordering::Relaxed).max(raw)
    }

    /// An `Instant` reading; the first once 20 ms of them lie behind fixes
    /// the TSC rate.
    fn calibrating() -> u64 {
        let ns = super::epoch().elapsed().as_nanos() as u64;
        let (ns0, tsc0) = *START.get_or_init(|| (ns, rdtsc()));
        let (window, tsc) = (ns.saturating_sub(ns0), rdtsc());
        if window >= 20_000_000 && tsc > tsc0 {
            let q32 = ((window as u128) << 32) / (tsc - tsc0) as u128;
            let _ = CALIB.set((ns, tsc, q32 as u64));
        }
        ns
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod fast {
    pub(super) fn now_ns() -> u64 {
        super::epoch().elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_do_not_go_back_and_are_counted_per_thread() {
        let before = reads();
        let mut last = now();
        for _ in 0..10_000 {
            let t = now();
            assert!(t >= last, "{t} after {last}");
            last = t;
        }
        assert_eq!(reads() - before, 10_001);
        let other = std::thread::spawn(|| (reads(), now(), reads()))
            .join()
            .unwrap();
        assert_eq!((other.0, other.2), (0, 1), "each thread counts its own");
        assert!(other.1 >= last, "one clock across threads");
    }

    #[test]
    fn a_reading_tracks_the_os_clock() {
        // A reading 25 ms after the first fixes the rate, the later ones
        // convert the TSC; a wrong rate shows as a multiple of the window.
        // Sleeping, not spinning, leaves the CPU to the tests beside it.
        let (t0, i0) = (now(), Instant::now());
        for _ in 0..3 {
            std::thread::sleep(std::time::Duration::from_millis(25));
            now();
        }
        let (dt, di) = (now() - t0, i0.elapsed().as_nanos() as u64);
        assert!(
            dt.abs_diff(di) < 15_000_000,
            "clock {dt} ns, Instant {di} ns"
        );
        assert_eq!(us_between(t0, t0 + 1_999), 1);
        assert_eq!(us_between(t0 + 1, t0), 0, "never negative");
    }
}
