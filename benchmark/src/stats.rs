//! Percentiles, medians, the figure a run reports for its windows, and the
//! run-to-run spread the driver computes.

/// Nearest-rank percentile of ascending `sorted` (`q` in `[0, 1]`);
/// 0 when there are no samples.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles a report may quote, lowest first, as exact fractions.
const LADDER: [(u64, u64); 6] = [
    (1, 2),
    (9, 10),
    (99, 100),
    (999, 1_000),
    (9_999, 10_000),
    (99_999, 100_000),
];

/// The highest quotable percentile with at least ten samples beyond it
/// (choosing-metrics, section 1), or `None` under 20 samples, where not
/// even the median qualifies.
pub fn highest_supported_percentile(samples: u64) -> Option<f64> {
    LADDER
        .iter()
        .filter(|(num, den)| samples - (samples * num).div_ceil(*den) >= 10)
        .map(|(num, den)| *num as f64 / *den as f64)
        .next_back()
}

/// Latencies in constant memory: 64 buckets to each power of two, so a
/// bucket is at most 1.6% wide, and quantiles are interpolated inside
/// the bucket. (The run's peak memory must not grow with how many
/// requests it happened to complete.)
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Values of 2^42 ns (over an hour) and more share the last bucket.
const MAX_EXP: u32 = 42;

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: vec![0; ((MAX_EXP - SUB_BITS + 1) as u64 * SUB) as usize],
            total: 0,
        }
    }
}

impl Histogram {
    fn index(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let ns = ns.min((1 << MAX_EXP) - 1);
        let exp = 63 - ns.leading_zeros();
        let sub = (ns >> (exp - SUB_BITS)) & (SUB - 1);
        ((exp - SUB_BITS + 1) as u64 * SUB + sub) as usize
    }

    /// The bucket's lowest value and its width.
    fn bounds(index: usize) -> (u64, u64) {
        let (row, sub) = (index as u64 / SUB, index as u64 % SUB);
        if row == 0 {
            (sub, 1)
        } else {
            ((SUB + sub) << (row - 1), 1 << (row - 1))
        }
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile in nanoseconds (nearest rank, placed inside its
    /// bucket by its rank there); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut below = 0;
        for (i, &n) in self.counts.iter().enumerate() {
            if below + n >= rank {
                let (lo, width) = Self::bounds(i);
                let inside = (rank - below) as f64 - 0.5;
                return lo as f64 + width as f64 * inside / n as f64;
            }
            below += n;
        }
        unreachable!("ranks stop at the total")
    }
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Which way a metric gets better.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

/// The share of a run's windows that may read better than the figure
/// reported for the run.
const BETTER_SHARE: f64 = 0.1;

/// What a metric reads in the windows the host left alone: the value
/// that a tenth of the windows beat. A busy neighbour only ever makes a
/// window worse, for anything from a fraction of a second to minutes, so
/// the median of the windows follows the neighbour, and the single best
/// window is one sample's luck; the best decile moves only when nine
/// windows in ten are hit. Interpolated between the two windows either
/// side of the cut.
pub fn undisturbed(values: &[f64], better: Better) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if better == Better::Higher {
        v.reverse();
    }
    let at = BETTER_SHARE * (v.len() - 1) as f64;
    let below = at.floor() as usize;
    let next = v.get(below + 1).copied().unwrap_or(v[below]);
    v[below] + (next - v[below]) * at.fract()
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` gives them (the exclusive method), which is what the driver
/// uses. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median: the driver's
/// steadiness figure.
pub fn spread_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn histogram_quantiles_track_the_exact_ones() {
        // A long-tailed spread of latencies from 40 ns to about 60 ms.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut exact = Vec::new();
        let mut h = Histogram::default();
        for _ in 0..50_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let ns = 40 + (x % 1_000_000) * (1 + (x >> 60) * (x >> 60) / 4);
            exact.push(ns);
            h.record(ns);
        }
        exact.sort_unstable();
        assert_eq!(h.len(), 50_000);
        for q in [0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let (want, got) = (percentile(&exact, q) as f64, h.quantile(q));
            assert!((got - want).abs() <= want * 0.016, "q{q}: {got} vs {want}");
        }
        let mut twice = h.clone();
        twice.merge(&h);
        assert_eq!(twice.len(), 100_000);
        assert!((twice.quantile(0.5) - h.quantile(0.5)).abs() <= h.quantile(0.5) * 0.016);
    }

    #[test]
    fn histogram_buckets_tile_the_range() {
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
        let mut next = 0;
        for i in 0..Histogram::default().counts.len() {
            let (lo, width) = Histogram::bounds(i);
            assert_eq!(lo, next, "bucket {i} starts where the last one ended");
            assert_eq!(Histogram::index(lo), i);
            assert_eq!(Histogram::index(lo + width - 1), i);
            next = lo + width;
        }
        assert_eq!(
            Histogram::index(u64::MAX),
            Histogram::default().counts.len() - 1
        );
        let mut h = Histogram::default();
        h.record(7);
        assert_eq!(h.quantile(0.5), 7.5, "small values keep their own bucket");
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(99), Some(0.5));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(999), Some(0.9));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(9_999), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        assert_eq!(highest_supported_percentile(50_000_000), Some(0.99999));
    }

    #[test]
    fn undisturbed_is_the_best_decile_either_way() {
        // Forty-one windows 0..=40: a tenth of the way in from the best.
        let v: Vec<f64> = (0..=40).map(f64::from).collect();
        assert_eq!(undisturbed(&v, Better::Lower), 4.0);
        assert_eq!(undisturbed(&v, Better::Higher), 36.0);
        // Interpolated: eleven windows' cut is the second best, ten
        // windows' nine tenths of the way from the best to it.
        let v: Vec<f64> = (0..=10).map(|i| f64::from(i) * 10.0).collect();
        assert_eq!(undisturbed(&v, Better::Lower), 10.0);
        assert!((undisturbed(&v[..10], Better::Lower) - 9.0).abs() < 1e-9);
        assert_eq!(undisturbed(&[7.0], Better::Higher), 7.0);
        assert!(undisturbed(&[], Better::Lower).is_nan());
    }

    #[test]
    fn undisturbed_ignores_what_hits_most_windows() {
        // Thirty-four of forty windows slowed by up to half: no change.
        let quiet: Vec<f64> = (0..40).map(|i| 100.0 + f64::from(i % 3)).collect();
        let mut hit = quiet.clone();
        hit.iter_mut().skip(6).for_each(|x| *x *= 1.5);
        let (a, b) = (
            undisturbed(&quiet, Better::Lower),
            undisturbed(&hit, Better::Lower),
        );
        assert!((a - b).abs() <= 2.0, "{a} vs {b}");
        assert!(median(&hit) > 1.4 * median(&quiet));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        assert!((spread_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), (2.0, 8.0));
    }
}
