//! Property-based tests over the simulation substrate: event ordering,
//! link FIFO/monotonicity, statistics correctness.

use nserver_netsim::{jain_index, Link, Model, OnlineStats, Scheduler, SimTime};
use propcheck::check;

struct Collector {
    seen: Vec<(u64, u32)>,
}

impl Model for Collector {
    type Ev = u32;
    fn handle(&mut self, now: SimTime, ev: u32, _s: &mut Scheduler<u32>) {
        self.seen.push((now.as_micros(), ev));
    }
}

/// Events always arrive in non-decreasing time order, and ties honour
/// insertion order.
#[test]
fn engine_delivers_in_time_order() {
    check(64, |g| {
        let times = g.vec(1..300, |g| g.range(0u64..10_000));
        let mut m = Collector { seen: Vec::new() };
        let mut s = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            s.at(SimTime::from_micros(t), i as u32);
        }
        s.run_to_completion(&mut m);
        assert_eq!(m.seen.len(), times.len());
        for w in m.seen.windows(2) {
            assert!(w[0].0 <= w[1].0, "time went backwards");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "tie broke insertion order");
            }
        }
    });
}

/// Splitting a run at an arbitrary horizon changes nothing: run_until
/// then run_to_completion sees the same sequence as one shot.
#[test]
fn engine_split_runs_are_equivalent() {
    check(64, |g| {
        let times = g.vec(1..200, |g| g.range(0u64..10_000));
        let split = g.range(0u64..10_000);
        let build = |times: &[u64]| {
            let mut s = Scheduler::new();
            for (i, &t) in times.iter().enumerate() {
                s.at(SimTime::from_micros(t), i as u32);
            }
            s
        };
        let mut whole = Collector { seen: Vec::new() };
        let mut s1 = build(&times);
        s1.run_to_completion(&mut whole);

        let mut parts = Collector { seen: Vec::new() };
        let mut s2 = build(&times);
        s2.run_until(&mut parts, SimTime::from_micros(split));
        s2.run_to_completion(&mut parts);
        assert_eq!(whole.seen, parts.seen);
    });
}

/// Link FIFO: completion times are non-decreasing in send order, and
/// every message takes at least its serialization time.
#[test]
fn link_is_fifo_and_causal() {
    check(64, |g| {
        let msgs = g.vec(1..100, |g| (g.range(0u64..1000), g.range(1u64..100_000)));
        let mut link = Link::new(100_000_000);
        let mut sorted = msgs.clone();
        sorted.sort_by_key(|&(t, _)| t);
        let mut last_done = SimTime::ZERO;
        for &(t, bytes) in &sorted {
            let now = SimTime::from_micros(t);
            let done = link.send(now, bytes);
            assert!(done >= last_done, "FIFO violated");
            assert!(done >= now + link.tx_time(bytes), "faster than line rate");
            last_done = done;
        }
        // Conservation: bytes carried equals sum of payloads.
        let total: u64 = sorted.iter().map(|&(_, b)| b).sum();
        assert_eq!(link.bytes_carried(), total);
    });
}

/// Jain index is scale-invariant, bounded by (0, 1], and maximal only
/// for equal allocations.
#[test]
fn jain_properties() {
    check(64, |g| {
        let xs = g.vec(1..100, |g| g.f64(0.0..1e6));
        let k = g.f64(1.0..100.0);
        let j = jain_index(&xs);
        assert!(j > 0.0 && j <= 1.0 + 1e-12, "out of range: {j}");
        let scaled: Vec<f64> = xs.iter().map(|x| x * k).collect();
        let js = jain_index(&scaled);
        assert!((j - js).abs() < 1e-9, "not scale-invariant: {j} vs {js}");
        // Equal allocations are perfectly fair.
        let equal = vec![xs[0].max(1.0); xs.len()];
        assert!((jain_index(&equal) - 1.0).abs() < 1e-12);
    });
}

/// OnlineStats matches a naive reference implementation.
#[test]
fn online_stats_matches_reference() {
    check(64, |g| {
        let xs = g.vec(2..200, |g| g.f64(-1e5..1e5));
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.add(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        assert!((s.variance() - var).abs() < 1e-5 * (1.0 + var.abs()));
        assert_eq!(s.count(), xs.len() as u64);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(s.min(), min);
        assert_eq!(s.max(), max);
    });
}
