//! Property tests for the O11 logarithmic latency histogram.
//!
//! The histogram is the paper's profiling instrument promoted into the
//! core: power-of-two buckets, lock-free recording, snapshot merges
//! across per-thread shards, and an interpolation-free quantile
//! estimator. The properties pin the contracts the exposition layer
//! leans on: every sample lands in the bucket whose bounds contain it,
//! the extremes (0 and `u64::MAX`) saturate into the first and last
//! bucket rather than wrapping, quantiles are monotone in `q`, and
//! shard merging is associative and commutative so per-thread shards
//! can be folded in any order.

use nserver_core::metrics::{bucket_of, bucket_upper_us, Histogram, HistogramSnapshot};
use propcheck::{check, Gen};

/// An arbitrary snapshot, including saturation-edge bucket counts.
fn arb_snapshot(g: &mut Gen) -> HistogramSnapshot {
    let mut buckets = [0u64; 64];
    for bucket in &mut buckets {
        *bucket = match g.range(0..12u8) {
            0..=8 => g.range(0u64..1_000),
            9 => u64::MAX,
            10 => u64::MAX - 1,
            _ => g.any(),
        };
    }
    HistogramSnapshot {
        buckets,
        count: g.any(),
        sum_us: g.any(),
    }
}

/// Microsecond values weighted toward the interesting edges.
fn arb_us(g: &mut Gen) -> u64 {
    match g.range(0..6u8) {
        0 | 1 => g.range(0u64..10_000_000),
        2 => g.any(),
        3 => 0,
        4 => 1,
        _ => u64::MAX,
    }
}

/// Every value lands inside its bucket's bounds: at most the upper
/// bound, and strictly above the previous bucket's upper bound.
#[test]
fn bucket_bounds_contain_their_samples() {
    check(256, |g| {
        let us = arb_us(g);
        let i = bucket_of(us);
        assert!(i < 64);
        assert!(us <= bucket_upper_us(i), "{us} above bucket {i} upper");
        if i > 0 {
            assert!(
                us > bucket_upper_us(i - 1),
                "{us} not above bucket {} upper {}",
                i - 1,
                bucket_upper_us(i - 1)
            );
        }
    });
}

/// Bucket assignment is monotone: a larger value never lands in an
/// earlier bucket, and bucket upper bounds strictly increase.
#[test]
fn bucketing_is_monotone() {
    check(256, |g| {
        let (a, b) = (arb_us(g), arb_us(g));
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(bucket_of(lo) <= bucket_of(hi));
        assert!(bucket_upper_us(bucket_of(lo)) <= bucket_upper_us(bucket_of(hi)));
    });
}

/// The extremes saturate: 0 and 1 share the first bucket, `u64::MAX`
/// pins the last, and a histogram holding only saturated samples
/// reports `u64::MAX` at every quantile instead of wrapping.
#[test]
fn extremes_saturate() {
    check(256, |g| {
        let n = g.range(1usize..50);
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(bucket_upper_us(63), u64::MAX);
        let h = Histogram::new();
        for _ in 0..n {
            h.record_us(u64::MAX);
        }
        let s = h.snapshot();
        assert_eq!(s.count, n as u64);
        assert_eq!(s.buckets[63], n as u64);
        assert_eq!(s.quantile_us(0.0), u64::MAX);
        assert_eq!(s.quantile_us(0.5), u64::MAX);
        assert_eq!(s.quantile_us(1.0), u64::MAX);
    });
}

/// Quantiles are monotone in `q`, bracketed by the recorded extremes'
/// bucket bounds, and every reported quantile is the upper bound of a
/// bucket that actually holds samples.
#[test]
fn quantiles_are_monotone() {
    check(256, |g| {
        let samples = g.vec(1..200, arb_us);
        let qs_raw = g.vec(2..8, |g| f64::from(g.range(0u32..=1000)) / 1000.0);
        let h = Histogram::new();
        for &s in &samples {
            h.record_us(s);
        }
        let snap = h.snapshot();
        let mut qs = qs_raw;
        qs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0u64;
        for &q in &qs {
            let v = snap.quantile_us(q);
            assert!(v >= prev, "quantile({q}) = {v} < previous {prev}");
            assert!(
                snap.buckets[bucket_of(v)] > 0,
                "quantile({q}) = {v} points at an empty bucket"
            );
            prev = v;
        }
        let hi = *samples.iter().max().unwrap();
        assert!(snap.quantile_us(1.0) <= bucket_upper_us(bucket_of(hi)));
        let lo = *samples.iter().min().unwrap();
        assert!(snap.quantile_us(0.0) >= lo.min(bucket_upper_us(bucket_of(lo))));
    });
}

/// Shard merging is commutative and associative — even with counts
/// at the saturation edge, so fold order over per-thread shards is
/// irrelevant.
#[test]
fn merge_is_associative_and_commutative() {
    check(256, |g| {
        let (a, b, c) = (arb_snapshot(g), arb_snapshot(g), arb_snapshot(g));
        assert_eq!(a.merge(b), b.merge(a));
        assert_eq!(a.merge(b).merge(c), a.merge(b.merge(c)));
    });
}

/// The empty snapshot is the merge identity, and merging accumulates
/// counts (saturating) — a merged pair answers quantiles like one
/// histogram that saw both sample streams.
#[test]
fn merge_identity_and_accumulation() {
    check(256, |g| {
        let xs = g.vec(1..100, |g| g.range(0u64..1_000_000));
        let ys = g.vec(1..100, |g| g.range(0u64..1_000_000));
        let (ha, hb, hall) = (Histogram::new(), Histogram::new(), Histogram::new());
        for &x in &xs {
            ha.record_us(x);
            hall.record_us(x);
        }
        for &y in &ys {
            hb.record_us(y);
            hall.record_us(y);
        }
        let (a, b) = (ha.snapshot(), hb.snapshot());
        assert_eq!(a.merge(HistogramSnapshot::default()), a);
        let merged = a.merge(b);
        assert_eq!(merged, hall.snapshot());
        assert_eq!(merged.count, (xs.len() + ys.len()) as u64);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(merged.quantile_us(q), hall.snapshot().quantile_us(q));
        }
    });
}
