//! Per-stage latency histograms, queue-depth gauges and metrics
//! exposition (template option O11).
//!
//! The paper's performance profiling option stops at lifetime counters
//! ([`crate::profiling`]). This module adds the latency dimension: a
//! logarithmic power-of-two histogram (promoted from
//! `nserver-netsim::stats`, which now delegates its bucket math here) is
//! kept per pipeline stage — accept→header-read, decode, handle, encode
//! and write-drain — plus a queue-depth gauge with a decaying high-water
//! mark for the Event Processor queue.
//!
//! Everything hangs off a [`MetricsRegistry`]. With O11 = No the registry
//! is *disabled*: every record call returns before touching an atomic or
//! reading a clock, so the profiling-off fast path costs nothing
//! measurable. The internal `samples` counter pins that property in
//! tests: a disabled registry must report zero samples after any run.
//!
//! Exposition works on a [`Sample`]: everything the server counts, read
//! once by [`crate::diag::DiagHub::sample`]. [`Sample::scalars`] is the
//! one ordered list of its numbers; the Prometheus text
//! ([`crate::diag::DiagHub::prometheus`]), the snapshot JSON, FTP `STAT`
//! and the profiling report are projections of those rows.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::diag::{WorkerActivity, WorkerSample};
use crate::profiling::{sample, Kind, Scalar, StatsSnapshot};
use crate::transport::SyscallSnapshot;

/// Bucket index of a microsecond value: bucket `i` covers
/// `[2^i, 2^(i+1))` with the first bucket absorbing 0 and 1.
pub fn bucket_of(us: u64) -> usize {
    if us < 2 {
        0
    } else {
        63 - us.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i` in microseconds (the value a
/// quantile query reports for samples landing in that bucket).
pub fn bucket_upper_us(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (2u64 << i) - 1
    }
}

/// The five framework pipeline stages a request passes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Accept to first request bytes readable (header read).
    AcceptToHeader,
    /// Decode Request hook.
    Decode,
    /// Handle Request hook.
    Handle,
    /// Encode Reply hook.
    Encode,
    /// Send Reply: outbox first non-empty until fully drained.
    WriteDrain,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::AcceptToHeader,
        Stage::Decode,
        Stage::Handle,
        Stage::Encode,
        Stage::WriteDrain,
    ];

    /// Stable exposition name (Prometheus label value).
    pub fn name(&self) -> &'static str {
        match self {
            Stage::AcceptToHeader => "accept_to_header",
            Stage::Decode => "decode",
            Stage::Handle => "handle",
            Stage::Encode => "encode",
            Stage::WriteDrain => "write_drain",
        }
    }

    /// Position in [`Stage::ALL`], which lists the variants as declared.
    pub(crate) fn index(&self) -> usize {
        *self as usize
    }
}

/// A thread-safe logarithmic histogram of microsecond durations: 64
/// power-of-two buckets, relaxed atomics (observability, not
/// synchronization).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; 64],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one duration in microseconds.
    pub fn record_us(&self, us: u64) {
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Point-in-time plain copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; 64];
        for (dst, src) in buckets.iter_mut().zip(&self.buckets) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
        }
    }
}

/// A plain, mergeable copy of a [`Histogram`] — what snapshots, shard
/// merges and exposition work on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts.
    pub buckets: [u64; 64],
    /// Total samples.
    pub count: u64,
    /// Sum of all recorded values (saturating).
    pub sum_us: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; 64],
            count: 0,
            sum_us: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Merge two shards. Saturating adds keep the operation associative
    /// and commutative even at the extremes, so per-thread shards can be
    /// folded in any order.
    pub fn merge(mut self, other: HistogramSnapshot) -> HistogramSnapshot {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self
    }

    /// Mean recorded value in microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }

    /// Per-bucket saturating difference `self - earlier`: the samples
    /// recorded *between* two cumulative snapshots. The watchdog's
    /// sliding-window p99 burn-rate check is built on this — it diffs the
    /// stage histogram against the previous tick and asks the window for
    /// its quantile.
    pub fn saturating_sub(mut self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        for (a, b) in self.buckets.iter_mut().zip(&earlier.buckets) {
            *a = a.saturating_sub(*b);
        }
        self.count = self.count.saturating_sub(earlier.count);
        self.sum_us = self.sum_us.saturating_sub(earlier.sum_us);
        self
    }

    /// Quantile estimate: the upper bound of the bucket holding the
    /// `q`-quantile sample (0 when empty). Same interpolation-free
    /// estimator as the netsim twin, so the two agree bucket-for-bucket.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_upper_us(i);
            }
        }
        u64::MAX
    }
}

/// A gauge with a decaying high-water mark: `observe` tracks the current
/// value and raises the mark; each snapshot reports the mark, then decays
/// it a quarter of the way back toward the current value — old bursts
/// fade instead of pinning the mark forever.
#[derive(Debug, Default)]
pub struct Gauge {
    current: AtomicU64,
    high_water: AtomicU64,
}

impl Gauge {
    /// Record the current value.
    pub fn observe(&self, v: u64) {
        self.current.store(v, Ordering::Relaxed);
        self.high_water.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn current(&self) -> u64 {
        self.current.load(Ordering::Relaxed)
    }

    /// The high-water mark, left as it is: for a reader that does not
    /// show it.
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Report the high-water mark and decay it toward the current value:
    /// for a surface that shows it.
    pub fn high_water_decaying(&self) -> u64 {
        let cur = self.current.load(Ordering::Relaxed);
        let high = self.high_water.load(Ordering::Relaxed);
        let decayed = cur.max(high - high / 4);
        self.high_water.store(decayed, Ordering::Relaxed);
        high
    }
}

/// The O11 registry: per-stage latency histograms plus the Event
/// Processor queue-depth gauge. Disabled (`O11 = No`), every record path
/// returns before touching a clock or an atomic.
#[derive(Debug)]
pub struct MetricsRegistry {
    enabled: bool,
    stages: [Histogram; 5],
    samples: AtomicU64,
    queue_depth: Gauge,
    queue_wait: Histogram,
}

impl MetricsRegistry {
    fn new(enabled: bool) -> Arc<Self> {
        Arc::new(Self {
            enabled,
            stages: Default::default(),
            samples: AtomicU64::new(0),
            queue_depth: Gauge::default(),
            queue_wait: Histogram::new(),
        })
    }

    /// An enabled registry (O11 = Yes).
    pub fn enabled() -> Arc<Self> {
        Self::new(true)
    }

    /// A disabled registry: the profiling-off fast path (O11 = No).
    pub fn disabled() -> Arc<Self> {
        Self::new(false)
    }

    /// Whether recording is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record a stage duration in microseconds. No-op when disabled.
    pub fn record_stage(&self, stage: Stage, us: u64) {
        if !self.enabled {
            return;
        }
        self.stages[stage.index()].record_us(us);
        self.samples.fetch_add(1, Ordering::Relaxed);
    }

    /// Record the Event Processor queue depth. No-op when disabled.
    pub fn observe_queue_depth(&self, depth: u64) {
        if !self.enabled {
            return;
        }
        self.queue_depth.observe(depth);
    }

    /// Record one enqueue→dequeue delay of the Event Processor queue in
    /// microseconds. No-op when disabled (the queue does not even read
    /// the clock then — see [`crate::queue::BlockingQueue`]).
    pub fn record_queue_wait(&self, us: u64) {
        if !self.enabled {
            return;
        }
        self.queue_wait.record_us(us);
        self.samples.fetch_add(1, Ordering::Relaxed);
    }

    /// Total histogram samples recorded — the counter-registry pin for
    /// the no-op fast path: a disabled registry must stay at zero.
    pub fn samples_recorded(&self) -> u64 {
        self.samples.load(Ordering::Relaxed)
    }

    /// Snapshot one stage's histogram.
    pub fn stage(&self, stage: Stage) -> HistogramSnapshot {
        self.stages[stage.index()].snapshot()
    }

    /// Snapshot every stage plus the queue gauge, decaying the high-water
    /// mark as a side effect — for a surface that shows the mark.
    pub fn latency_snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            queue_depth_high_water: self.queue_depth.high_water_decaying(),
            ..self.latency_peek()
        }
    }

    /// [`latency_snapshot`](Self::latency_snapshot) with no side effect:
    /// a reader that does not show the mark must not erode it.
    pub fn latency_peek(&self) -> LatencySnapshot {
        LatencySnapshot {
            stages: std::array::from_fn(|i| self.stages[i].snapshot()),
            queue_depth: self.queue_depth.current(),
            queue_depth_high_water: self.queue_depth.high_water(),
            queue_wait: self.queue_wait.snapshot(),
        }
    }
}

/// Point-in-time copy of every per-stage histogram and the queue gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySnapshot {
    /// Per-stage histograms, indexed as [`Stage::ALL`].
    pub stages: [HistogramSnapshot; 5],
    /// Event Processor queue depth at snapshot time.
    pub queue_depth: u64,
    /// Decaying high-water mark of the queue depth.
    pub queue_depth_high_water: u64,
    /// Enqueue→dequeue delay histogram of the Event Processor queue.
    pub queue_wait: HistogramSnapshot,
}

impl LatencySnapshot {
    /// One stage's histogram.
    pub fn stage(&self, stage: Stage) -> &HistogramSnapshot {
        &self.stages[stage.index()]
    }

    /// Samples across every stage.
    pub fn total_samples(&self) -> u64 {
        self.stages.iter().map(|h| h.count).sum()
    }
}

sample! {
    /// File-cache statistics (O6) as the exposition layer sees them. The
    /// cache is the application's, so it feeds a sampled copy in
    /// ([`crate::diag::DiagHub::register`]) rather than the cache handle.
    #[allow(missing_docs)]
    CacheSample in "cache" as "nserver_cache_";
    hits: u64 = "hits", Counter, "File-cache hits.";
    misses: u64 = "misses", Counter, "File-cache misses.";
    evictions: u64 = "evictions", Counter, "File-cache evictions.";
    rejected: u64 = "rejected", Counter, "Oversized inserts the file cache refused.";
    coalesced_waits: u64 = "coalesced_waits", Counter,
        "Cache misses served by waiting on another loader (single-flight).";
    used_bytes: u64 = "used_bytes", Gauge, "Bytes currently cached.";
    capacity_bytes: u64 = "capacity_bytes", Gauge, "Configured cache capacity in bytes.";
}

sample! {
    /// Overload-controller state (O9): the paused flag plus the
    /// pause/resume transition counters.
    #[allow(missing_docs)]
    OverloadSample in "overload" as "nserver_overload_";
    paused: bool = "paused", Flag, "1 while the overload controller is shedding accepts.";
    pauses: u64 = "pauses", Counter,
        "Transitions into the shedding state (high watermark crossed).";
    resumes: u64 = "resumes", Counter, "Transitions back to accepting (low watermark crossed).";
}

/// Everything the server counts, at one instant: the one sample every
/// operator surface projects. [`crate::diag::DiagHub::sample`] takes it;
/// the optional groups are `None` until the subsystem that owns them is
/// wired or registered.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Core counters (escaped handler panics included, when fed).
    pub stats: StatsSnapshot,
    /// Latency histograms + queue-depth gauges.
    pub latency: LatencySnapshot,
    /// Event queue length.
    pub queue_len: u64,
    /// Workers parked waiting for events.
    pub queue_waiters: u64,
    /// Trace-ring records lost to overflow (O10).
    pub trace_dropped: u64,
    /// File-cache stats, when a cache feeds them.
    pub cache: Option<CacheSample>,
    /// Overload controller state, when one feeds it.
    pub overload: Option<OverloadSample>,
    /// Worker table rows, when a table is wired.
    pub workers: Option<Vec<WorkerSample>>,
    /// Watchdog invariant violations so far.
    pub watchdog_triggers: u64,
    /// Diagnostic snapshots captured so far.
    pub snapshots: u64,
    /// Transport-boundary syscall counters, when fed.
    pub syscalls: Option<SyscallSnapshot>,
}

impl Sample {
    /// Every counter, gauge and flag of the sample as one list, in
    /// exposition order. The numbers the hub itself owns are declared
    /// here, one row each; the rest come from their tables.
    pub fn scalars(&self) -> Vec<Scalar> {
        use Kind::{Counter, Gauge};
        let own = |group, key, family, kind, help, value| Scalar {
            group,
            key,
            family,
            kind,
            help,
            value,
        };
        let lat = &self.latency;
        let mut rows: Vec<Scalar> = self.stats.scalars().collect();
        #[rustfmt::skip]
        rows.extend([
            own("queue", "len", "", Gauge, "", self.queue_len),
            own("queue", "waiters", "", Gauge, "", self.queue_waiters),
            own("queue", "depth_gauge", "nserver_queue_depth", Gauge,
                "Event Processor queue depth.", lat.queue_depth),
            own("queue", "high_water", "nserver_queue_depth_high_water", Gauge,
                "Decaying high-water mark of the queue depth.", lat.queue_depth_high_water),
            own("trace", "dropped", "nserver_trace_dropped_spans", Counter,
                "Trace-ring records evicted by overflow (lossy trace windows).",
                self.trace_dropped),
        ]);
        rows.extend(self.cache.iter().flat_map(CacheSample::scalars));
        rows.extend(self.overload.iter().flat_map(OverloadSample::scalars));
        if let Some(workers) = &self.workers {
            let idle = |w: &&WorkerSample| w.activity == WorkerActivity::Idle;
            let idle = workers.iter().filter(idle).count() as u64;
            #[rustfmt::skip]
            rows.extend([
                own("workers", "", "nserver_workers_running", Gauge,
                    "Worker-table slots currently executing a stage.", workers.len() as u64 - idle),
                own("workers", "", "nserver_workers_idle", Gauge,
                    "Worker-table slots currently idle.", idle),
            ]);
        }
        #[rustfmt::skip]
        rows.extend([
            own("watchdog", "triggers", "nserver_watchdog_triggers", Counter,
                "Watchdog invariant violations detected.", self.watchdog_triggers),
            own("watchdog", "", "nserver_diag_snapshots", Counter,
                "Diagnostic snapshots captured (watchdog-triggered and on-demand).",
                self.snapshots),
        ]);
        rows.extend(self.syscalls.iter().flat_map(SyscallSnapshot::scalars));
        rows
    }

    /// The sample in the Prometheus text exposition format — what
    /// [`DiagHub::prometheus`](crate::diag::DiagHub::prometheus) and so
    /// `/server-status` serve: the core counters, the per-stage and
    /// queue-wait histograms with their quantile estimates, then every
    /// other number. Every family carries `# HELP` and `# TYPE` headers
    /// and appears exactly once, so the output survives a strict parser.
    pub(crate) fn prometheus(&self) -> String {
        let mut out = String::with_capacity(8192);
        let rows = self.scalars();
        let (core, rest) = rows.split_at(rows.partition_point(|r| r.group == "counters"));
        let expose = |out: &mut String, rows: &[Scalar]| {
            for r in rows.iter().filter(|r| !r.family.is_empty()) {
                family(out, r.family, r.kind.prometheus(), r.help);
                out.push_str(&format!("{} {}\n", r.family, r.value));
            }
        };
        expose(&mut out, core);
        let stages = Stage::ALL.map(|stage| (Some(stage.name()), self.latency.stage(stage)));
        histograms(
            &mut out,
            "nserver_stage_latency",
            ["Per-stage pipeline latency", "Per-stage latency"],
            &stages,
        );
        histograms(
            &mut out,
            "nserver_queue_wait",
            ["Event Processor enqueue-to-dequeue delay", "Queue-wait"],
            &[(None, &self.latency.queue_wait)],
        );
        expose(&mut out, rest);
        out
    }
}

/// Render one `# HELP` + `# TYPE` family header.
fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

/// Render the `{base}_us` histogram family and its `{base}_quantile_us`
/// gauge family over `series` — one sub-series per `stage` label, or the
/// single unlabelled one.
fn histograms(
    out: &mut String,
    base: &str,
    [what, quantiles]: [&str; 2],
    series: &[(Option<&str>, &HistogramSnapshot)],
) {
    // A sub-series' label set, as a prefix of more labels and on its own.
    let labels = |stage: &Option<&str>| match stage {
        Some(s) => (format!("stage=\"{s}\","), format!("{{stage=\"{s}\"}}")),
        None => (String::new(), String::new()),
    };
    let header = |out: &mut String, suffix: &str, kind: &str, what: &str| {
        let help = format!("{what} in microseconds.");
        family(out, &format!("{base}{suffix}"), kind, &help);
    };
    header(out, "_us", "histogram", what);
    for (stage, h) in series {
        let (stage, only) = labels(stage);
        let last = h.buckets.iter().rposition(|&n| n > 0).map_or(0, |i| i + 1);
        let mut cum = 0u64;
        for (i, &n) in h.buckets.iter().take(last).enumerate() {
            cum += n;
            let le = bucket_upper_us(i);
            out.push_str(&format!("{base}_us_bucket{{{stage}le=\"{le}\"}} {cum}\n"));
        }
        let count = h.count;
        out.push_str(&format!("{base}_us_bucket{{{stage}le=\"+Inf\"}} {count}\n"));
        out.push_str(&format!("{base}_us_sum{only} {}\n", h.sum_us));
        out.push_str(&format!("{base}_us_count{only} {count}\n"));
    }
    let quantiles = format!("{quantiles} quantile estimates");
    header(out, "_quantile_us", "gauge", &quantiles);
    for (stage, h) in series {
        let stage = labels(stage).0;
        for (q, value) in [("0.5", h.quantile_us(0.5)), ("0.99", h.quantile_us(0.99))] {
            out.push_str(&format!(
                "{base}_quantile_us{{{stage}quantile=\"{q}\"}} {value}\n"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_math_matches_the_netsim_twin() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(bucket_upper_us(0), 1);
        assert_eq!(bucket_upper_us(1), 3);
        assert_eq!(bucket_upper_us(62), (2u64 << 62) - 1);
        assert_eq!(bucket_upper_us(63), u64::MAX);
    }

    #[test]
    fn a_stage_indexes_its_place_in_all() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
    }

    #[test]
    fn histogram_counts_and_means() {
        let h = Histogram::new();
        for us in [1, 2, 4, 8] {
            h.record_us(us);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum_us, 15);
        assert_eq!(s.mean_us(), 3);
        assert_eq!(s.quantile_us(1.0), 15); // bucket of 8 spans 8..=15
    }

    #[test]
    fn quantiles_are_monotone() {
        let h = Histogram::new();
        for us in 1..=1000 {
            h.record_us(us);
        }
        let s = h.snapshot();
        let q50 = s.quantile_us(0.5);
        let q99 = s.quantile_us(0.99);
        assert!(q50 <= q99);
        assert!((500..=1023).contains(&q50), "q50 {q50}");
    }

    #[test]
    fn merge_adds_shards() {
        let a = {
            let h = Histogram::new();
            h.record_us(3);
            h.snapshot()
        };
        let b = {
            let h = Histogram::new();
            h.record_us(100);
            h.record_us(200);
            h.snapshot()
        };
        let m = a.merge(b);
        assert_eq!(m.count, 3);
        assert_eq!(m.sum_us, 303);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let m = MetricsRegistry::disabled();
        m.record_stage(Stage::Decode, 42);
        m.observe_queue_depth(7);
        assert_eq!(m.samples_recorded(), 0);
        assert_eq!(m.latency_snapshot().total_samples(), 0);
        assert_eq!(m.latency_snapshot().queue_depth_high_water, 0);
    }

    #[test]
    fn enabled_registry_records_per_stage() {
        let m = MetricsRegistry::enabled();
        m.record_stage(Stage::Decode, 10);
        m.record_stage(Stage::Handle, 20);
        m.record_stage(Stage::Handle, 30);
        assert_eq!(m.samples_recorded(), 3);
        let lat = m.latency_snapshot();
        assert_eq!(lat.stage(Stage::Decode).count, 1);
        assert_eq!(lat.stage(Stage::Handle).count, 2);
        assert_eq!(lat.total_samples(), 3);
    }

    #[test]
    fn gauge_high_water_decays_toward_current() {
        let g = Gauge::default();
        g.observe(100);
        g.observe(4);
        assert_eq!(g.current(), 4);
        assert_eq!(g.high_water_decaying(), 100); // reports, then decays
        assert_eq!(g.high_water_decaying(), 75);
        for _ in 0..40 {
            g.high_water_decaying();
        }
        assert_eq!(g.high_water_decaying(), 4); // floored at current
    }

    #[test]
    fn prometheus_text_has_counters_and_quantiles() {
        let m = MetricsRegistry::enabled();
        m.record_stage(Stage::Decode, 5);
        let sample = Sample {
            stats: StatsSnapshot {
                requests_decoded: 1,
                ..Default::default()
            },
            latency: m.latency_snapshot(),
            ..Default::default()
        };
        let text = sample.prometheus();
        assert!(text.contains("nserver_requests_decoded 1"));
        assert!(text.contains("nserver_stage_latency_us_count{stage=\"decode\"} 1"));
        assert!(text.contains("stage=\"decode\",quantile=\"0.99\""));
        assert!(text.contains("nserver_queue_depth 0"));
        // every stage appears even when empty
        for stage in Stage::ALL {
            assert!(text.contains(&format!("stage=\"{}\"", stage.name())));
        }
        // a group nobody feeds is absent, not zero
        assert!(!text.contains("nserver_cache_") && !text.contains("nserver_syscalls_"));
    }

    /// Only a surface that shows the high-water mark may decay it.
    #[test]
    fn peeking_leaves_the_high_water_mark_alone() {
        let m = MetricsRegistry::enabled();
        m.observe_queue_depth(100);
        m.observe_queue_depth(0);
        for _ in 0..10 {
            assert_eq!(m.latency_peek().queue_depth_high_water, 100);
        }
        assert_eq!(m.latency_snapshot().queue_depth_high_water, 100);
        assert_eq!(m.latency_peek().queue_depth_high_water, 75);
    }
}
