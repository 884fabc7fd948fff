//! Property tests for the O9 watermark hysteresis state machine.
//!
//! The paper's overload control postpones accepts "if there is a queue
//! whose length exceeds its specified high watermark … until the length
//! drops below a specified low watermark". The properties here pin the
//! hysteresis invariants under arbitrary queue-length walks: state
//! changes happen only at the marks, the band between them never flaps,
//! and a multi-queue controller pauses while *any* watched queue is hot.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use nserver_core::overload::{LenProbe, OverloadController, Watermark};
use propcheck::{check, Gen};

/// A random walk of queue lengths around the watermark band.
fn walk(g: &mut Gen, max_len: usize) -> Vec<usize> {
    g.vec(1..200, |g| g.range(0..=max_len))
}

/// Transitions only happen at the marks: pausing requires the length
/// to be at or above `high`, resuming requires it at or below `low`.
#[test]
fn transitions_only_at_the_marks() {
    check(256, |g| {
        let low = g.range(0usize..20);
        let band = g.range(1usize..20);
        let lens = walk(g, 60);
        let high = low + band;
        let mut wm = Watermark::new(high, low);
        let mut was = wm.is_paused();
        for len in lens {
            let now = wm.observe(len);
            if now && !was {
                assert!(len >= high, "paused at {len} < high {high}");
            }
            if !now && was {
                assert!(len <= low, "resumed at {len} > low {low}");
            }
            assert_eq!(now, wm.is_paused());
            was = now;
        }
    });
}

/// Inside the open band (low, high) the state never changes — the
/// hysteresis band absorbs oscillation instead of flapping.
#[test]
fn no_flapping_inside_the_band() {
    check(256, |g| {
        let low = g.range(0usize..20);
        let band = g.range(2usize..20);
        let lens = walk(g, 60);
        let start_paused = g.bool();
        let high = low + band;
        let mut wm = Watermark::new(high, low);
        if start_paused {
            wm.observe(high); // force the paused state
        }
        let before = wm.is_paused();
        let mut state = before;
        for len in lens {
            if len > low && len < high {
                let now = wm.observe(len);
                assert_eq!(now, state, "state changed inside the band at len {}", len);
            } else {
                state = wm.observe(len);
            }
        }
    });
}

/// The state is a pure function of the observation history: feeding
/// the same walk twice gives identical pause traces (determinism —
/// the property the seeded chaos plans rely on).
#[test]
fn observation_history_determines_state() {
    check(256, |g| {
        let low = g.range(0usize..20);
        let band = g.range(1usize..20);
        let lens = walk(g, 60);
        let high = low + band;
        let trace =
            |mut wm: Watermark| -> Vec<bool> { lens.iter().map(|&l| wm.observe(l)).collect() };
        assert_eq!(
            trace(Watermark::new(high, low)),
            trace(Watermark::new(high, low))
        );
    });
}

/// A multi-queue controller pauses exactly while at least one watched
/// queue's own watermark would pause — one hot bottleneck (CPU *or*
/// disk) is enough to shed load.
#[test]
fn controller_pauses_while_any_queue_is_hot() {
    check(256, |g| {
        let walk = g.vec(1..120, |g| (g.range(0usize..40), g.range(0usize..40)));
        let cpu: LenProbe = Arc::new(AtomicUsize::new(0));
        let disk: LenProbe = Arc::new(AtomicUsize::new(0));
        let mut ctl = OverloadController::with_watermark(Arc::clone(&cpu), 20, 5);
        ctl.watch(Arc::clone(&disk), 10, 2);
        // Shadow watermarks tracking what each queue alone would do.
        let mut cpu_wm = Watermark::new(20, 5);
        let mut disk_wm = Watermark::new(10, 2);
        for (cpu_len, disk_len) in walk {
            cpu.store(cpu_len, Ordering::Relaxed);
            disk.store(disk_len, Ordering::Relaxed);
            let accept = ctl.may_accept(0);
            let cpu_hot = cpu_wm.observe(cpu_len);
            let disk_hot = disk_wm.observe(disk_len);
            assert_eq!(
                accept,
                !(cpu_hot || disk_hot),
                "cpu {} disk {}",
                cpu_len,
                disk_len
            );
        }
    });
}

/// `pause_transitions` counts rising edges only: it increases by at
/// most one per observation and never decreases.
#[test]
fn pause_transitions_count_rising_edges() {
    check(256, |g| {
        let lens = walk(g, 60);
        let probe: LenProbe = Arc::new(AtomicUsize::new(0));
        let mut ctl = OverloadController::with_watermark(Arc::clone(&probe), 20, 5);
        let mut prev = ctl.pause_transitions();
        for len in lens {
            probe.store(len, Ordering::Relaxed);
            ctl.may_accept(0);
            let now = ctl.pause_transitions();
            assert!(now >= prev && now - prev <= 1);
            prev = now;
        }
    });
}
