//! Flight-recorder diagnostics: worker health, anomaly detection, and
//! triggered snapshots.
//!
//! The paper's O10 debug crosscut keeps a bounded event trace "to get a
//! snapshot of what happened during the time an error condition occurred"
//! — but it cannot answer *what is each worker doing right now*, nor
//! notice on its own that something is wrong. This module adds the three
//! missing pieces:
//!
//! 1. A [`WorkerStateTable`]: every pool worker (and dispatcher) publishes
//!    its current activity — idle, or running `{stage, conn, since}` —
//!    through seqlock-style atomics. Writers never take a lock and never
//!    allocate; a reader retries the handful of times a torn read is even
//!    possible.
//! 2. A [`Watchdog`] thread that evaluates cheap invariants every tick:
//!    dispatcher liveness, a worker stuck-time ceiling, queue-depth
//!    saturation, and a sliding-window p99 SLO burn-rate.
//! 3. A [`DiagHub`]: the one handle an operator surface takes. Every
//!    subsystem feeds its one sampling function ([`DiagHub::sample`]:
//!    counters, histograms, worker table, queue gauges, and whatever is
//!    registered — cache stats, overload state, syscall counters), and
//!    each surface is a projection of that [`Sample`]: Prometheus text,
//!    FTP `STAT`, and the JSON [`DiagSnapshot`] captured — into an
//!    in-memory ring of the last K snapshots plus an optional append-only
//!    file sink — whenever the watchdog fires or an operator asks.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::clock;
use crate::event::ConnId;
use crate::json::Json;
use crate::metrics::{HistogramSnapshot, LatencySnapshot, MetricsRegistry, Sample, Stage};
use crate::profiling::{Kind, ServerStats};
use crate::trace::{perfetto_from, DebugTracer, StageSelfTime, TraceRecord};

// ---------------------------------------------------------------------------
// Worker state table
// ---------------------------------------------------------------------------

const STATE_VACANT: u8 = 0;
const STATE_IDLE: u8 = 1;
const STATE_RUNNING: u8 = 2;

/// What kind of framework thread owns a table slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerRole {
    /// An Event Processor pool worker.
    Worker,
    /// A dispatcher thread (also handles events inline when O2 = No).
    Dispatcher,
}

impl WorkerRole {
    /// Stable exposition name.
    pub fn name(&self) -> &'static str {
        match self {
            WorkerRole::Worker => "worker",
            WorkerRole::Dispatcher => "dispatcher",
        }
    }
}

/// What a slot's owner was doing at sample time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerActivity {
    /// Between events.
    Idle,
    /// Executing a pipeline stage for a connection.
    Running {
        /// The stage being executed.
        stage: Stage,
        /// The connection being served.
        conn: ConnId,
        /// Microseconds since the thread's work item began or last came
        /// back from a blocking call — at least as long as the stage has
        /// been running (see [`WorkerStateTable`]).
        busy_us: u64,
    },
}

/// One consistent row read out of the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSample {
    /// Slot index (stable for the thread's lifetime).
    pub slot: usize,
    /// Thread kind.
    pub role: WorkerRole,
    /// Activity at sample time.
    pub activity: WorkerActivity,
}

/// One seqlock-protected slot. The owning thread is the only writer, so
/// publication needs no compare-and-swap: bump the sequence odd, store
/// the fields, bump it even. A reader that observes an odd or changed
/// sequence retries.
struct Slot {
    seq: AtomicU64,
    state: AtomicU8,
    role: AtomicU8,
    stage: AtomicU8,
    conn: AtomicU64,
    since_us: AtomicU64,
}

impl Slot {
    fn vacant() -> Self {
        Self {
            seq: AtomicU64::new(0),
            state: AtomicU8::new(STATE_VACANT),
            role: AtomicU8::new(0),
            stage: AtomicU8::new(0),
            conn: AtomicU64::new(0),
            since_us: AtomicU64::new(0),
        }
    }
}

/// Fixed-capacity table of per-thread activity slots. Framework threads
/// register once, then stamp their activity through thread-local free
/// functions ([`stamp_stage`], [`stamp_idle`]) that cost a few relaxed
/// atomic stores — no locks, no allocation and, per request, no clock
/// read, so they are safe to leave on the hot path in every mode.
///
/// A running row's `since` (and the `busy_us` sampled from it) is the
/// time since the thread's current work item began or last came back
/// from a blocking call, not since the named stage began: the stage
/// stamps of one work item share the clock reading its first stamp took.
/// It is therefore an upper bound on the stage's own age, too high by at
/// most the work item's length so far — which is what a stuck-worker
/// ceiling of seconds wants to compare against anyway.
pub struct WorkerStateTable {
    slots: Vec<Slot>,
}

impl WorkerStateTable {
    /// A table with room for `capacity` concurrent threads. Registration
    /// beyond capacity degrades gracefully: the extra threads simply do
    /// not appear in samples.
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            slots: (0..capacity.max(1)).map(|_| Slot::vacant()).collect(),
        })
    }

    /// The time rows are stamped in: microseconds on the one clock.
    pub fn now_us(&self) -> u64 {
        clock::now_us()
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Claim a vacant slot for the calling thread. `None` when full.
    fn register(&self, role: WorkerRole) -> Option<usize> {
        for (i, slot) in self.slots.iter().enumerate() {
            if slot
                .state
                .compare_exchange(
                    STATE_VACANT,
                    STATE_IDLE,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                slot.role.store(
                    match role {
                        WorkerRole::Worker => 0,
                        WorkerRole::Dispatcher => 1,
                    },
                    Ordering::Relaxed,
                );
                return Some(i);
            }
        }
        None
    }

    /// Single-writer seqlock publication for slot `idx`.
    fn publish(&self, idx: usize, state: u8, stage: u8, conn: ConnId, since_us: u64) {
        let s = &self.slots[idx];
        let seq = s.seq.load(Ordering::Relaxed);
        s.seq.store(seq.wrapping_add(1), Ordering::Release); // odd: write in progress
        s.state.store(state, Ordering::Relaxed);
        s.stage.store(stage, Ordering::Relaxed);
        s.conn.store(conn, Ordering::Relaxed);
        s.since_us.store(since_us, Ordering::Relaxed);
        s.seq.store(seq.wrapping_add(2), Ordering::Release); // even: consistent
    }

    fn release(&self, idx: usize) {
        self.publish(idx, STATE_VACANT, 0, 0, 0);
    }

    /// Read every occupied slot consistently. Retries a torn row a few
    /// times, then takes it anyway — this is diagnostics, and a row torn
    /// four times in a microsecond-scale window is still approximately
    /// right.
    pub fn sample(&self) -> Vec<WorkerSample> {
        let now = self.now_us();
        let mut out = Vec::with_capacity(self.slots.len());
        for (i, s) in self.slots.iter().enumerate() {
            let mut row = (0u8, 0u8, 0u8, 0u64, 0u64);
            for _attempt in 0..4 {
                let s1 = s.seq.load(Ordering::Acquire);
                row = (
                    s.state.load(Ordering::Relaxed),
                    s.role.load(Ordering::Relaxed),
                    s.stage.load(Ordering::Relaxed),
                    s.conn.load(Ordering::Relaxed),
                    s.since_us.load(Ordering::Relaxed),
                );
                let s2 = s.seq.load(Ordering::Acquire);
                if s1 == s2 && s1 % 2 == 0 {
                    break;
                }
            }
            let (state, role, stage, conn, since_us) = row;
            if state == STATE_VACANT {
                continue;
            }
            let role = if role == 1 {
                WorkerRole::Dispatcher
            } else {
                WorkerRole::Worker
            };
            let activity = if state == STATE_RUNNING {
                WorkerActivity::Running {
                    stage: Stage::ALL[(stage as usize).min(Stage::ALL.len() - 1)],
                    conn,
                    busy_us: now.saturating_sub(since_us),
                }
            } else {
                WorkerActivity::Idle
            };
            out.push(WorkerSample {
                slot: i,
                role,
                activity,
            });
        }
        out
    }
}

/// The calling thread's table attachment.
struct Attachment {
    table: Arc<WorkerStateTable>,
    index: usize,
    /// The clock reading (µs) the current work item's stage stamps share;
    /// `None` between items, so the next item's first stamp takes one.
    item_clock: Cell<Option<u64>>,
}

thread_local! {
    static ATTACHED: RefCell<Option<Attachment>> = const { RefCell::new(None) };
}

/// Attach the calling thread to `table` in the given role. Subsequent
/// [`stamp_stage`] / [`stamp_idle`] calls on this thread publish into its
/// slot. Returns `false` (and leaves stamping a no-op) when the table is
/// full or the thread is already attached.
pub fn attach_worker(table: &Arc<WorkerStateTable>, role: WorkerRole) -> bool {
    ATTACHED.with(|a| {
        let mut a = a.borrow_mut();
        if a.is_some() {
            return false;
        }
        match table.register(role) {
            Some(index) => {
                *a = Some(Attachment {
                    table: Arc::clone(table),
                    index,
                    item_clock: Cell::new(None),
                });
                true
            }
            None => false,
        }
    })
}

/// Release the calling thread's slot (exiting workers; harmless when
/// unattached).
pub fn detach_worker() {
    ATTACHED.with(|a| {
        if let Some(at) = a.borrow_mut().take() {
            at.table.release(at.index);
        }
    });
}

/// Run `f` on the calling thread's attachment, if it has one.
fn with_attachment(f: impl FnOnce(&Attachment)) {
    ATTACHED.with(|a| {
        if let Some(at) = a.borrow().as_ref() {
            f(at);
        }
    });
}

/// Publish "running `stage` for `conn`" for the calling thread. The
/// stage stamps of one work item share one clock reading — the first
/// stamp after [`stamp_idle`] takes it — so a request costs no clock
/// read, and `since` means "since this work item began" (see
/// [`WorkerStateTable`]). A no-op on unattached threads (application
/// threads, tests, table-full overflow), which is what lets the pipeline
/// call it unconditionally.
pub fn stamp_stage(stage: Stage, conn: ConnId) {
    stamp_stage_at(stage, conn, None, false);
}

/// [`stamp_stage`] with a clock reading of its own, which the work item's
/// later stamps then share: for the stamp before a call that may block
/// (Send Reply's write) and the first one after a blocking call returns.
pub fn stamp_stage_fresh(stage: Stage, conn: ConnId) {
    stamp_stage_at(stage, conn, None, true);
}

/// [`stamp_stage`] (or, `fresh`, [`stamp_stage_fresh`]) at a stage
/// boundary: where the row needs a reading, it takes the boundary's, `at`
/// (ns since [`clock::epoch`]), if the boundary took one.
pub(crate) fn stamp_stage_at(stage: Stage, conn: ConnId, at: Option<u64>, fresh: bool) {
    with_attachment(|a| {
        let since = match a.item_clock.get() {
            Some(since) if !fresh => since,
            _ => at.map_or_else(clock::now_us, |ns| ns / 1_000),
        };
        a.item_clock.set(Some(since));
        let stage = stage.index() as u8;
        a.table.publish(a.index, STATE_RUNNING, stage, conn, since);
    });
}

/// Publish "idle" for the calling thread and end the work item's shared
/// clock reading. Reads no clock itself: an idle row has no `since`.
/// No-op when unattached.
pub fn stamp_idle() {
    with_attachment(|at| {
        at.item_clock.set(None);
        at.table.publish(at.index, STATE_IDLE, 0, 0, 0);
    });
}

// ---------------------------------------------------------------------------
// Diagnostic snapshots
// ---------------------------------------------------------------------------

/// Everything the server knows about itself at one instant, captured when
/// the watchdog fires or an operator asks: the [`Sample`] every surface
/// projects, plus the trace tail. Serializes to JSON via
/// [`DiagSnapshot::to_json`].
#[derive(Debug, Clone)]
pub struct DiagSnapshot {
    /// Monotonic capture sequence number (1-based).
    pub seq: u64,
    /// Why the capture happened (`"on_demand"`, `"worker_stuck …"`, …).
    pub reason: String,
    /// Microseconds since the one clock's epoch ([`crate::clock`]).
    pub at_us: u64,
    /// Every number, histogram and worker row at capture.
    pub sample: Sample,
    /// Tail of the trace ring (newest last).
    pub recent_trace: Vec<TraceRecord>,
    /// Per-stage exclusive wall time aggregated from the retained stage
    /// windows (all zero when the tracer is disabled or unwired).
    pub stage_self: [StageSelfTime; 5],
}

impl DiagSnapshot {
    /// Serialize as a single JSON object on one line. The document names
    /// groups, never numbers: each group's members are the sample's rows.
    pub fn to_json(&self) -> String {
        let rows = self.sample.scalars();
        let group = |name: &str, extra: Option<(&'static str, Json)>| {
            let members = rows.iter().filter(|r| r.group == name && !r.key.is_empty());
            let members = members.map(|r| match r.kind {
                Kind::Flag => (r.key, Json::Bool(r.value != 0)),
                _ => (r.key, Json::U64(r.value)),
            });
            let members: Vec<_> = members.chain(extra).collect();
            if members.is_empty() {
                Json::Null
            } else {
                Json::obj(members)
            }
        };
        let hist = |h: &HistogramSnapshot| {
            Json::obj([
                ("count", h.count.into()),
                ("p50_us", h.quantile_us(0.5).into()),
                ("p99_us", h.quantile_us(0.99).into()),
            ])
        };
        let lat = &self.sample.latency;
        let worker = |w: &WorkerSample| {
            let mut row = vec![
                ("slot", Json::U64(w.slot as u64)),
                ("role", w.role.name().into()),
            ];
            match w.activity {
                WorkerActivity::Idle => row.push(("state", "idle".into())),
                WorkerActivity::Running {
                    stage,
                    conn,
                    busy_us,
                } => row.extend([
                    ("state", "running".into()),
                    ("stage", stage.name().into()),
                    ("conn", conn.into()),
                    ("busy_us", busy_us.into()),
                ]),
            }
            Json::obj(row)
        };
        let record = |r: &TraceRecord| {
            Json::obj([
                ("at_us", r.at_us.into()),
                ("conn", r.conn.map_or(Json::Null, Json::U64)),
                ("event", r.span.map_or("record", |s| s.name()).into()),
                ("detail", r.detail_text().into()),
            ])
        };
        let recent = Json::Arr(self.recent_trace.iter().map(record).collect());
        let self_time = Stage::ALL.iter().zip(&self.stage_self).map(|(stage, st)| {
            let st = [
                ("windows", st.windows.into()),
                ("self_us", st.self_us.into()),
            ];
            (stage.name(), Json::obj(st))
        });
        let workers = self.sample.workers.iter().flatten().map(worker);
        Json::obj([
            ("seq", self.seq.into()),
            ("reason", self.reason.as_str().into()),
            ("at_us", self.at_us.into()),
            ("counters", group("counters", None)),
            (
                "stages",
                Json::obj(Stage::ALL.map(|s| (s.name(), hist(lat.stage(s))))),
            ),
            (
                "queue",
                group("queue", Some(("wait", hist(&lat.queue_wait)))),
            ),
            ("workers", Json::Arr(workers.collect())),
            ("cache", group("cache", None)),
            ("overload", group("overload", None)),
            ("trace", group("trace", Some(("recent", recent)))),
            ("self_time", Json::obj(self_time)),
            ("syscalls", group("syscalls", None)),
            ("watchdog", group("watchdog", None)),
        ])
        .to_string()
    }
}

// ---------------------------------------------------------------------------
// Diagnostics hub
// ---------------------------------------------------------------------------

/// How many trace records a snapshot carries.
const SNAPSHOT_TRACE_TAIL: usize = 64;

/// A subsystem's part of every [`Sample`] (see [`DiagHub::register`]).
type Feeder = Box<dyn Fn(&mut Sample) + Send + Sync>;

struct HubInner {
    stats: Arc<ServerStats>,
    metrics: Mutex<Arc<MetricsRegistry>>,
    /// What subsystems registered to fill in their part of a sample.
    feeders: Mutex<Vec<Feeder>>,
    tracer: Mutex<Option<DebugTracer>>,
    /// Additional labeled trace rings from other tiers of the same
    /// process (a cluster relay, extra backends) whose timelines should
    /// appear — correlated — in this hub's Perfetto export.
    aux_tracers: Mutex<Vec<(String, DebugTracer)>>,
    workers: Mutex<Option<Arc<WorkerStateTable>>>,
    queue_len: Mutex<Option<Arc<AtomicUsize>>>,
    ring: Mutex<VecDeque<DiagSnapshot>>,
    ring_cap: AtomicUsize,
    file: Mutex<Option<PathBuf>>,
    snap_seq: AtomicU64,
    triggers: AtomicU64,
}

/// The one handle an operator surface takes, and the one place the
/// server's numbers are sampled. Create one before `serve` (so HTTP
/// routes / FTP services can hold it) and hand it to the builder: the
/// server counts into the hub's registries and wires or registers its
/// internals during assembly, so what a surface of this hub shows is
/// what that server does. A hub serves one server.
#[derive(Clone)]
pub struct DiagHub {
    inner: Arc<HubInner>,
}

impl DiagHub {
    /// A hub over the given counter + latency registries. Everything else
    /// is wired in later (by `serve`, or by tests).
    pub fn new(stats: Arc<ServerStats>, metrics: Arc<MetricsRegistry>) -> Self {
        Self {
            inner: Arc::new(HubInner {
                stats,
                metrics: Mutex::new(metrics),
                feeders: Mutex::new(Vec::new()),
                tracer: Mutex::new(None),
                aux_tracers: Mutex::new(Vec::new()),
                workers: Mutex::new(None),
                queue_len: Mutex::new(None),
                ring: Mutex::new(VecDeque::new()),
                ring_cap: AtomicUsize::new(8),
                file: Mutex::new(None),
                snap_seq: AtomicU64::new(0),
                triggers: AtomicU64::new(0),
            }),
        }
    }

    /// The counter registry the hub reads and its server counts into.
    pub fn stats(&self) -> &Arc<ServerStats> {
        &self.inner.stats
    }

    /// The latency registry the hub reads and its server records into.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.inner.metrics.lock())
    }

    /// Read (and have the server record into) `metrics` from now on —
    /// what `ServerBuilder::metrics` does with an injected registry.
    pub fn wire_metrics(&self, metrics: Arc<MetricsRegistry>) {
        *self.inner.metrics.lock() = metrics;
    }

    /// Register a feeder: a subsystem's part of every [`Sample`] taken
    /// from now on (the file cache's stats, the overload controller's
    /// state, the syscall counters, escaped panics). Feeders run in
    /// registration order, at exposition time only.
    pub fn register(&self, feeder: impl Fn(&mut Sample) + Send + Sync + 'static) {
        self.inner.feeders.lock().push(Box::new(feeder));
    }

    /// Wire the trace ring.
    pub fn wire_tracer(&self, tracer: DebugTracer) {
        *self.inner.tracer.lock() = Some(tracer);
    }

    /// The wired trace ring, if any.
    pub fn tracer(&self) -> Option<DebugTracer> {
        self.inner.tracer.lock().clone()
    }

    /// Add another tier's labeled trace ring to the Perfetto export (a
    /// cluster relay in front of this server, a peer backend). Cross-tier
    /// spans correlate through the links stamped at connect time.
    pub fn add_tracer(&self, label: impl Into<String>, tracer: DebugTracer) {
        self.inner.aux_tracers.lock().push((label.into(), tracer));
    }

    /// Export every wired trace ring — the server's own plus any tiers
    /// added with [`add_tracer`](Self::add_tracer) — as one correlated
    /// Chrome/Perfetto trace-event JSON document (what `GET
    /// /debug/trace.json` and FTP `SITE TRACE` serve). Connections whose
    /// tiers were linked at connect time share a Perfetto process.
    pub fn perfetto_json(&self) -> String {
        let mut nodes = Vec::new();
        if let Some(t) = self.inner.tracer.lock().as_ref() {
            nodes.push(t.snapshot_node("server"));
        }
        for (label, t) in self.inner.aux_tracers.lock().iter() {
            nodes.push(t.snapshot_node(label));
        }
        perfetto_from(&nodes)
    }

    /// Wire the worker state table.
    pub fn wire_workers(&self, table: Arc<WorkerStateTable>) {
        *self.inner.workers.lock() = Some(table);
    }

    /// The wired worker table, if any.
    pub fn workers(&self) -> Option<Arc<WorkerStateTable>> {
        self.inner.workers.lock().clone()
    }

    /// Wire the event queue's shared length gauge (the watchdog's
    /// saturation check reads it every tick).
    pub fn wire_queue(&self, len: Arc<AtomicUsize>) {
        *self.inner.queue_len.lock() = Some(len);
    }

    fn queue_len(&self) -> usize {
        let gauge = self.inner.queue_len.lock();
        gauge.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }

    /// Keep the last `k` snapshots in memory (default 8).
    pub fn set_ring_capacity(&self, k: usize) {
        self.inner.ring_cap.store(k.max(1), Ordering::Relaxed);
    }

    /// Also append every captured snapshot (one JSON object per line) to
    /// `path`.
    pub fn set_snapshot_file(&self, path: PathBuf) {
        *self.inner.file.lock() = Some(path);
    }

    /// Total watchdog invariant violations so far.
    pub fn watchdog_triggers(&self) -> u64 {
        self.inner.triggers.load(Ordering::Relaxed)
    }

    /// Snapshots captured so far (watchdog-triggered and on-demand).
    pub fn snapshots_captured(&self) -> u64 {
        self.inner.snap_seq.load(Ordering::Relaxed)
    }

    /// Sample every number the server has, once: the hub's own registries
    /// and typed handles first, then each registered feeder. No side
    /// effect — the queue's high-water mark is read, not decayed.
    pub fn sample(&self) -> Sample {
        self.sample_with(self.metrics().latency_peek())
    }

    /// [`sample`](Self::sample) for a surface that shows the queue's
    /// high-water mark: reporting the mark decays it.
    fn sample_shown(&self) -> Sample {
        self.sample_with(self.metrics().latency_snapshot())
    }

    fn sample_with(&self, latency: LatencySnapshot) -> Sample {
        let inner = &self.inner;
        let mut sample = Sample {
            stats: inner.stats.snapshot(),
            latency,
            queue_len: self.queue_len() as u64,
            trace_dropped: inner.tracer.lock().as_ref().map_or(0, |t| t.dropped()),
            workers: inner.workers.lock().as_ref().map(|t| t.sample()),
            watchdog_triggers: self.watchdog_triggers(),
            snapshots: self.snapshots_captured(),
            ..Sample::default()
        };
        for feed in inner.feeders.lock().iter() {
            feed(&mut sample);
        }
        sample
    }

    /// Full Prometheus exposition (what `/server-status` serves).
    pub fn prometheus(&self) -> String {
        self.sample_shown().prometheus()
    }

    /// Record a watchdog trigger and capture a snapshot for it.
    pub fn note_trigger(&self, reason: &str) -> DiagSnapshot {
        self.inner.triggers.fetch_add(1, Ordering::Relaxed);
        self.capture(reason)
    }

    /// Capture a snapshot now, store it in the ring (and file sink, when
    /// set), and return it.
    pub fn capture(&self, reason: &str) -> DiagSnapshot {
        let seq = self.inner.snap_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let (recent_trace, stage_self) = match self.inner.tracer.lock().as_ref() {
            Some(t) => (t.dump_tail(SNAPSHOT_TRACE_TAIL), t.self_time()),
            None => Default::default(),
        };
        let snap = DiagSnapshot {
            seq,
            reason: reason.to_string(),
            at_us: clock::now_us(),
            sample: self.sample_shown(),
            recent_trace,
            stage_self,
        };
        let mut ring = self.inner.ring.lock();
        let cap = self.inner.ring_cap.load(Ordering::Relaxed);
        while ring.len() >= cap {
            ring.pop_front();
        }
        ring.push_back(snap.clone());
        drop(ring);
        if let Some(path) = self.inner.file.lock().as_ref() {
            use std::io::Write as _;
            if let Ok(mut f) = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
            {
                let _ = writeln!(f, "{}", snap.to_json());
            }
        }
        snap
    }

    /// The most recent snapshot, if any was captured.
    pub fn latest(&self) -> Option<DiagSnapshot> {
        self.inner.ring.lock().back().cloned()
    }

    /// All retained snapshots, oldest first.
    pub fn ring(&self) -> Vec<DiagSnapshot> {
        self.inner.ring.lock().iter().cloned().collect()
    }
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

/// Watchdog tuning. The defaults are deliberately conservative: no SLO
/// (so no burn-rate triggers unless asked for), a multi-second stuck
/// ceiling, saturation only when a threshold is configured.
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// Invariant evaluation period.
    pub tick: Duration,
    /// A worker running one stage longer than this is stuck.
    pub stuck_ceiling: Duration,
    /// Consecutive ticks the dispatcher-wakeup counter may sit still
    /// (after an explicit ping) before the dispatcher counts as stalled.
    pub liveness_grace_ticks: u32,
    /// Queue length at or above which the queue counts as saturated.
    /// `None` disables the invariant (the server wires the O12 high
    /// watermark in when watermark overload control is on).
    pub queue_saturation: Option<usize>,
    /// Consecutive saturated ticks before firing.
    pub saturation_ticks: u32,
    /// Sliding-window p99 ceiling (µs) for `slo_stage`. `None` disables.
    pub p99_slo_us: Option<u64>,
    /// The stage the SLO applies to.
    pub slo_stage: Stage,
    /// Window length for the burn-rate diff, in ticks.
    pub slo_window_ticks: u32,
    /// Minimum new samples in the window before the SLO is judged.
    pub slo_min_samples: u64,
    /// Refractory period per invariant, in ticks: once fired, that
    /// invariant stays quiet this long (the condition usually persists
    /// across many ticks; one snapshot per episode is the useful rate).
    pub debounce_ticks: u64,
    /// In-memory snapshots to retain.
    pub snapshot_ring: usize,
    /// Optional JSON-lines snapshot sink.
    pub snapshot_file: Option<PathBuf>,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self {
            tick: Duration::from_millis(100),
            stuck_ceiling: Duration::from_secs(5),
            liveness_grace_ticks: 10,
            queue_saturation: None,
            saturation_ticks: 5,
            p99_slo_us: None,
            slo_stage: Stage::Handle,
            slo_window_ticks: 20,
            slo_min_samples: 16,
            debounce_ticks: 100,
            snapshot_ring: 8,
            snapshot_file: None,
        }
    }
}

/// Index of each invariant in the debounce table.
const INV_LIVENESS: usize = 0;
const INV_STUCK: usize = 1;
const INV_SATURATION: usize = 2;
const INV_SLO: usize = 3;
const INV_COUNT: usize = 4;

/// The running watchdog thread. Owned by the `ServerHandle`; stopped and
/// joined on shutdown.
pub struct Watchdog {
    stop: Arc<(Mutex<bool>, Condvar)>,
    thread: Option<JoinHandle<()>>,
    fired: Arc<AtomicBool>,
}

impl Watchdog {
    /// Start the watchdog over `hub`. `ping` (when given) is invoked to
    /// wake a dispatcher whenever the wakeup counter has not advanced —
    /// an idle server's counter legitimately sits still, so liveness is
    /// judged only on the response to an explicit ping.
    pub fn spawn(
        cfg: WatchdogConfig,
        hub: DiagHub,
        ping: Option<Arc<dyn Fn() + Send + Sync>>,
    ) -> Self {
        hub.set_ring_capacity(cfg.snapshot_ring);
        if let Some(path) = cfg.snapshot_file.clone() {
            hub.set_snapshot_file(path);
        }
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let fired = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            let fired = Arc::clone(&fired);
            std::thread::Builder::new()
                .name("nserver-watchdog".into())
                .spawn(move || watchdog_loop(cfg, hub, ping, stop, fired))
                .expect("spawn watchdog")
        };
        Self {
            stop,
            thread: Some(thread),
            fired,
        }
    }

    /// Whether any invariant has ever fired.
    pub fn has_fired(&self) -> bool {
        self.fired.load(Ordering::Acquire)
    }

    /// Stop and join the watchdog thread.
    pub fn stop(&mut self) {
        let (lock, cvar) = &*self.stop;
        *lock.lock() = true;
        cvar.notify_all();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop();
    }
}

fn watchdog_loop(
    cfg: WatchdogConfig,
    hub: DiagHub,
    ping: Option<Arc<dyn Fn() + Send + Sync>>,
    stop: Arc<(Mutex<bool>, Condvar)>,
    fired: Arc<AtomicBool>,
) {
    let mut tick_no: u64 = 0;
    let mut last_fired = [u64::MAX; INV_COUNT]; // MAX = never fired
    let read_wakeups = || hub.stats().dispatcher_wakeups.load(Ordering::Relaxed);
    let mut last_wakeups = read_wakeups();
    let mut pinged = false;
    let mut liveness_misses: u32 = 0;
    let mut saturated_ticks: u32 = 0;
    let mut slo_window: VecDeque<HistogramSnapshot> = VecDeque::new();
    loop {
        {
            let (lock, cvar) = &*stop;
            let mut stopped = lock.lock();
            if *stopped {
                return;
            }
            cvar.wait_for(&mut stopped, cfg.tick);
            if *stopped {
                return;
            }
        }
        tick_no += 1;
        let fire = |inv: usize, reason: String, tick_no: u64, last_fired: &mut [u64; INV_COUNT]| {
            let since = last_fired[inv];
            if since != u64::MAX && tick_no.saturating_sub(since) < cfg.debounce_ticks {
                return;
            }
            last_fired[inv] = tick_no;
            hub.note_trigger(&reason);
            // Raised after the snapshot is stored (pairs with the Acquire
            // in `has_fired`): whoever sees the flag finds the snapshot.
            fired.store(true, Ordering::Release);
        };

        // 1. Dispatcher liveness: judge only the response to our ping.
        if let Some(ping) = &ping {
            let wakeups = read_wakeups();
            if wakeups != last_wakeups {
                last_wakeups = wakeups;
                liveness_misses = 0;
                pinged = false;
            } else if pinged {
                liveness_misses += 1;
                if liveness_misses >= cfg.liveness_grace_ticks {
                    fire(
                        INV_LIVENESS,
                        format!(
                            "dispatcher_stalled wakeups={wakeups} ticks_without_response={liveness_misses}"
                        ),
                        tick_no,
                        &mut last_fired,
                    );
                    liveness_misses = 0;
                }
                ping();
            } else {
                ping();
                pinged = true;
            }
        }

        // 2. Worker stuck-time ceiling.
        if let Some(table) = hub.workers() {
            let ceiling_us = cfg.stuck_ceiling.as_micros() as u64;
            for w in table.sample() {
                if let WorkerActivity::Running {
                    stage,
                    conn,
                    busy_us,
                } = w.activity
                {
                    if busy_us > ceiling_us {
                        fire(
                            INV_STUCK,
                            format!(
                                "worker_stuck slot={} role={} stage={} conn={} busy_ms={}",
                                w.slot,
                                w.role.name(),
                                stage.name(),
                                conn,
                                busy_us / 1000
                            ),
                            tick_no,
                            &mut last_fired,
                        );
                        break;
                    }
                }
            }
        }

        // 3. Queue-depth saturation vs the configured watermark.
        if let Some(threshold) = cfg.queue_saturation {
            let len = hub.queue_len();
            if len >= threshold {
                saturated_ticks += 1;
                if saturated_ticks >= cfg.saturation_ticks {
                    fire(
                        INV_SATURATION,
                        format!(
                            "queue_saturated len={len} threshold={threshold} ticks={saturated_ticks}"
                        ),
                        tick_no,
                        &mut last_fired,
                    );
                    saturated_ticks = 0;
                }
            } else {
                saturated_ticks = 0;
            }
        }

        // 4. Sliding-window p99 SLO burn-rate, over the one stage it
        // judges (a whole latency snapshot would decay the queue's
        // high-water mark, which the watchdog does not report).
        if let Some(slo_us) = cfg.p99_slo_us {
            let now = hub.metrics().stage(cfg.slo_stage);
            slo_window.push_back(now);
            while slo_window.len() > cfg.slo_window_ticks.max(2) as usize {
                slo_window.pop_front();
            }
            if slo_window.len() >= 2 {
                let oldest = slo_window.front().expect("non-empty window");
                let diff = now.saturating_sub(oldest);
                if diff.count >= cfg.slo_min_samples {
                    let p99 = diff.quantile_us(0.99);
                    if p99 > slo_us {
                        fire(
                            INV_SLO,
                            format!(
                                "slo_burn stage={} window_p99_us={p99} slo_us={slo_us} samples={}",
                                cfg.slo_stage.name(),
                                diff.count
                            ),
                            tick_no,
                            &mut last_fired,
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn test_hub() -> DiagHub {
        DiagHub::new(ServerStats::new_shared(), MetricsRegistry::enabled())
    }

    #[test]
    fn table_register_stamp_sample_roundtrip() {
        let table = WorkerStateTable::new(4);
        assert!(attach_worker(&table, WorkerRole::Worker));
        stamp_stage(Stage::Handle, 42);
        let rows = table.sample();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].role, WorkerRole::Worker);
        match rows[0].activity {
            WorkerActivity::Running { stage, conn, .. } => {
                assert_eq!(stage, Stage::Handle);
                assert_eq!(conn, 42);
            }
            WorkerActivity::Idle => panic!("expected running"),
        }
        stamp_idle();
        let rows = table.sample();
        assert_eq!(rows[0].activity, WorkerActivity::Idle);
        detach_worker();
        assert!(table.sample().is_empty(), "detach releases the slot");
    }

    /// The stage stamps of one work item share one clock reading; the
    /// next item, and a stamp around a blocking call, take their own.
    #[test]
    fn stage_stamps_share_the_work_items_clock_reading() {
        let table = WorkerStateTable::new(1);
        assert!(attach_worker(&table, WorkerRole::Worker));
        let since = || table.slots[0].since_us.load(Ordering::Relaxed);
        let wait_a_tick = || {
            let t0 = table.now_us();
            while table.now_us() < t0 + 2 {
                std::hint::spin_loop();
            }
        };
        stamp_stage(Stage::Decode, 1);
        let began = since();
        wait_a_tick();
        stamp_stage(Stage::Handle, 1);
        stamp_stage(Stage::Encode, 1);
        assert_eq!(since(), began, "one work item, one clock reading");
        wait_a_tick();
        stamp_stage_fresh(Stage::WriteDrain, 1);
        let sending = since();
        assert!(sending > began, "a fresh stamp reads the clock");
        stamp_stage(Stage::Decode, 1);
        assert_eq!(since(), sending, "and later stamps share its reading");
        stamp_idle();
        assert_eq!(table.sample()[0].activity, WorkerActivity::Idle);
        wait_a_tick();
        stamp_stage(Stage::Decode, 2);
        assert!(since() > sending, "the next work item reads the clock anew");
        detach_worker();
    }

    #[test]
    fn unattached_stamping_is_a_noop() {
        // No attach on this thread: must not panic, must publish nothing.
        stamp_stage(Stage::Decode, 7);
        stamp_idle();
        detach_worker();
    }

    #[test]
    fn full_table_rejects_registration() {
        let table = WorkerStateTable::new(1);
        let t2 = Arc::clone(&table);
        let h = std::thread::spawn(move || {
            assert!(attach_worker(&t2, WorkerRole::Worker));
            // Hold the slot until told to release.
            std::thread::sleep(Duration::from_millis(50));
            detach_worker();
        });
        // Give the thread time to claim the only slot.
        while table.sample().is_empty() {
            std::thread::yield_now();
        }
        assert!(!attach_worker(&table, WorkerRole::Worker), "table is full");
        h.join().unwrap();
    }

    #[test]
    fn gauges_count_running_and_idle() {
        let table = WorkerStateTable::new(4);
        assert!(attach_worker(&table, WorkerRole::Dispatcher));
        let gauges = || {
            let sample = Sample {
                workers: Some(table.sample()),
                ..Sample::default()
            };
            let rows = sample.scalars();
            let of = |family| rows.iter().find(|r| r.family == family).unwrap().value;
            (of("nserver_workers_running"), of("nserver_workers_idle"))
        };
        stamp_stage(Stage::Encode, 1);
        assert_eq!(gauges(), (1, 0));
        stamp_idle();
        assert_eq!(gauges(), (0, 1));
        detach_worker();
    }

    #[test]
    fn concurrent_stampers_never_produce_torn_reads() {
        let table = WorkerStateTable::new(8);
        let stop = Arc::new(AtomicBool::new(false));
        let mut writers = Vec::new();
        for t in 0..4u64 {
            let table = Arc::clone(&table);
            let stop = Arc::clone(&stop);
            writers.push(std::thread::spawn(move || {
                assert!(attach_worker(&table, WorkerRole::Worker));
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    stamp_stage(Stage::ALL[(i % 5) as usize], t * 1000 + i);
                    stamp_idle();
                    i += 1;
                }
                detach_worker();
            }));
        }
        for _ in 0..2000 {
            for row in table.sample() {
                if let WorkerActivity::Running { conn, .. } = row.activity {
                    // conn encodes the writer id in its thousands digit;
                    // any value outside a writer's range would be a torn
                    // cross-thread mix (each slot has exactly one writer).
                    assert!(conn < 4000 + 2_000_000, "corrupt conn {conn}");
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
    }

    #[test]
    fn hub_capture_builds_parseable_snapshot() {
        let hub = test_hub();
        let table = WorkerStateTable::new(2);
        hub.wire_workers(Arc::clone(&table));
        hub.wire_tracer(DebugTracer::enabled(16));
        let snap = hub.capture("on_demand");
        assert_eq!(snap.seq, 1);
        assert_eq!(snap.reason, "on_demand");
        let json = Json::parse(&snap.to_json()).expect("well-formed");
        for key in ["counters", "stages", "queue", "trace", "watchdog"] {
            assert!(matches!(json[key], Json::Obj(_)), "missing {key} in {json}");
        }
        assert_eq!(json["workers"], Json::Arr(vec![]));
        assert_eq!(json["cache"], Json::Null);
        assert_eq!(json["overload"], Json::Null);
        assert_eq!(hub.latest().expect("stored").seq, 1);
    }

    #[test]
    fn hub_ring_keeps_last_k() {
        let hub = test_hub();
        hub.set_ring_capacity(3);
        for i in 0..5 {
            hub.capture(&format!("r{i}"));
        }
        let ring = hub.ring();
        assert_eq!(ring.len(), 3);
        assert_eq!(ring[0].reason, "r2");
        assert_eq!(ring[2].reason, "r4");
        assert_eq!(hub.snapshots_captured(), 5);
    }

    #[test]
    fn watchdog_fires_on_stuck_worker_and_names_it() {
        let hub = test_hub();
        let table = WorkerStateTable::new(2);
        hub.wire_workers(Arc::clone(&table));
        let t2 = Arc::clone(&table);
        let done = Arc::new(AtomicBool::new(false));
        let d2 = Arc::clone(&done);
        let h = std::thread::spawn(move || {
            assert!(attach_worker(&t2, WorkerRole::Worker));
            stamp_stage(Stage::Handle, 99);
            while !d2.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1));
            }
            detach_worker();
        });
        let cfg = WatchdogConfig {
            tick: Duration::from_millis(2),
            stuck_ceiling: Duration::from_millis(5),
            ..WatchdogConfig::default()
        };
        let mut wd = Watchdog::spawn(cfg, hub.clone(), None);
        let deadline = Instant::now() + Duration::from_secs(5);
        while !wd.has_fired() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(wd.has_fired(), "watchdog never fired on a stuck worker");
        let snap = hub.latest().expect("trigger captured a snapshot");
        assert!(snap.reason.contains("worker_stuck"), "{}", snap.reason);
        assert!(snap.reason.contains("stage=handle"), "{}", snap.reason);
        assert!(snap.reason.contains("conn=99"), "{}", snap.reason);
        done.store(true, Ordering::Relaxed);
        wd.stop();
        h.join().unwrap();
    }

    #[test]
    fn watchdog_stays_quiet_on_healthy_idle_table() {
        let hub = test_hub();
        let table = WorkerStateTable::new(2);
        hub.wire_workers(Arc::clone(&table));
        let cfg = WatchdogConfig {
            tick: Duration::from_millis(1),
            stuck_ceiling: Duration::from_millis(5),
            ..WatchdogConfig::default()
        };
        let mut wd = Watchdog::spawn(cfg, hub.clone(), None);
        std::thread::sleep(Duration::from_millis(50));
        wd.stop();
        assert!(!wd.has_fired());
        assert_eq!(hub.watchdog_triggers(), 0);
    }

    #[test]
    fn watchdog_saturation_fires_after_sustained_backlog() {
        let hub = test_hub();
        let gauge = Arc::new(AtomicUsize::new(100));
        hub.wire_queue(Arc::clone(&gauge));
        let cfg = WatchdogConfig {
            tick: Duration::from_millis(1),
            queue_saturation: Some(10),
            saturation_ticks: 3,
            ..WatchdogConfig::default()
        };
        let mut wd = Watchdog::spawn(cfg, hub.clone(), None);
        let deadline = Instant::now() + Duration::from_secs(5);
        while !wd.has_fired() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        wd.stop();
        assert!(wd.has_fired());
        let snap = hub.latest().expect("snapshot");
        assert!(snap.reason.contains("queue_saturated"), "{}", snap.reason);
    }

    #[test]
    fn watchdog_slo_burn_fires_on_windowed_p99() {
        let hub = test_hub();
        let cfg = WatchdogConfig {
            tick: Duration::from_millis(1),
            p99_slo_us: Some(1_000),
            slo_stage: Stage::Handle,
            slo_min_samples: 8,
            ..WatchdogConfig::default()
        };
        let mut wd = Watchdog::spawn(cfg, hub.clone(), None);
        // Pour slow samples in while the watchdog windows them.
        let deadline = Instant::now() + Duration::from_secs(5);
        while !wd.has_fired() && Instant::now() < deadline {
            for _ in 0..8 {
                hub.metrics().record_stage(Stage::Handle, 50_000);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        wd.stop();
        assert!(wd.has_fired(), "SLO burn never fired");
        let snap = hub.latest().expect("snapshot");
        assert!(snap.reason.contains("slo_burn"), "{}", snap.reason);
    }

    #[test]
    fn hub_prometheus_includes_wired_families() {
        let hub = test_hub();
        let table = WorkerStateTable::new(2);
        hub.wire_workers(table);
        hub.register(|s| {
            s.cache = Some(crate::metrics::CacheSample {
                hits: 5,
                misses: 2,
                ..Default::default()
            })
        });
        let text = hub.prometheus();
        assert!(text.contains("nserver_cache_hits 5"));
        assert!(text.contains("nserver_workers_idle"));
        assert!(text.contains("nserver_watchdog_triggers 0"));
        assert!(text.contains("nserver_trace_dropped_spans 0"));
    }
    /// The watchdog's SLO check reads the one stage it judges: sixty
    /// ticks of it leave the queue's high-water mark — which it does not
    /// report — for the first surface that does.
    #[test]
    fn watchdog_slo_check_does_not_erode_the_high_water_mark() {
        let hub = test_hub();
        hub.metrics().observe_queue_depth(100);
        hub.metrics().observe_queue_depth(0);
        let cfg = WatchdogConfig {
            tick: Duration::from_millis(1),
            p99_slo_us: Some(1_000),
            ..WatchdogConfig::default()
        };
        let mut wd = Watchdog::spawn(cfg, hub.clone(), None);
        std::thread::sleep(Duration::from_millis(60));
        wd.stop();
        assert_eq!(hub.sample().latency.queue_depth_high_water, 100);
        let shown = hub.capture("first surface to show the mark");
        assert_eq!(shown.sample.latency.queue_depth_high_water, 100);
        assert_eq!(hub.sample().latency.queue_depth_high_water, 75);
    }
}
