//! Debug tracing (option O10) and access logging (option O12).
//!
//! In debug mode "all internal events that are triggered in the server are
//! written into a file. The user can trace this file to get a snapshot of
//! what happened during the time an error condition occurred." We keep the
//! trace in a bounded ring buffer and let the application dump it on
//! demand — same diagnostic value, no unbounded disk growth.
//!
//! On top of the ring this module builds *request timelines*: every
//! accepted connection gets a process-unique trace id, stage windows are
//! recorded as begin/end pairs on [`crate::clock`], connections carry
//! correlation metadata (peer labels and outbound links) so spans
//! from different tiers — cluster relay, backend server, FTP data
//! connections — assemble into one Chrome/Perfetto trace-event timeline.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::clock;
use crate::event::{ConnId, EventKind};
use crate::json::Json;
use crate::metrics::Stage;

/// Sentinel "no ACT sequence number yet" for stage-boundary spans that
/// open before the request has been assigned one (decode attempts) or
/// close windows that never produced a request.
pub const SEQ_NONE: u64 = u64::MAX;

/// Connections retained in the correlation metadata map. Old entries are
/// evicted oldest-first, mirroring the bounded span ring.
const META_CAPACITY: usize = 4096;

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

fn next_trace_id() -> u64 {
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

/// A typed causal span event, keyed by the connection (and, for request
/// stages, the request's Asynchronous Completion Token sequence number).
/// A request's full path — dispatcher → queue → processor thread →
/// proactor write — is reconstructable by filtering a trace dump for one
/// connection and following these events in ring order.
///
/// Span events carry no heap data: emitting one allocates nothing, which
/// is what lets the hot path keep its trace calls unguarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanEvent {
    /// Connection accepted — the root of the connection's span tree, and
    /// the opening edge of its `AcceptToHeader` stage window.
    Accept,
    /// First request bytes became readable on the connection. Closes the
    /// `AcceptToHeader` window opened by [`Accept`](SpanEvent::Accept).
    HeaderRead,
    /// A request was decoded; opens the request span `seq` and closes the
    /// pending `Decode` stage window.
    Decode {
        /// ACT sequence number of the request.
        seq: u64,
    },
    /// The Handle Request hook ran for request `seq`; closes the pending
    /// `Handle` stage window.
    Handle {
        /// ACT sequence number of the request.
        seq: u64,
    },
    /// A blocking operation for `seq` was submitted to the Proactor.
    Defer {
        /// ACT sequence number of the request.
        seq: u64,
    },
    /// The Proactor completion for `seq` re-entered the framework.
    Complete {
        /// ACT sequence number of the request.
        seq: u64,
    },
    /// The reply for `seq` was encoded; closes the request span and the
    /// pending `Encode` stage window.
    Encode {
        /// ACT sequence number of the request.
        seq: u64,
    },
    /// The connection's outbox fully drained to the transport. Closes the
    /// pending `WriteDrain` stage window.
    WriteDrain,
    /// Connection closed — closes the connection's span tree.
    Close,
    /// A pipeline stage window opened on the connection. Closed by the
    /// stage's completion event or an explicit
    /// [`StageEnd`](SpanEvent::StageEnd) on abnormal paths.
    StageBegin {
        /// The stage whose window opened.
        stage: Stage,
        /// ACT sequence number when already assigned, else [`SEQ_NONE`].
        seq: u64,
    },
    /// Explicit close for a stage window whose normal completion event
    /// will never fire: decode found no full request, the handler
    /// panicked, or the connection died mid-stage.
    StageEnd {
        /// The stage whose window closed.
        stage: Stage,
        /// ACT sequence number when known, else [`SEQ_NONE`].
        seq: u64,
    },
    /// Transport syscalls performed on this connection since its last
    /// report (counted at the `StreamIo` boundary).
    Syscalls {
        /// Read syscalls since the last report.
        reads: u64,
        /// Write syscalls since the last report.
        writes: u64,
    },
    /// A data connection (FTP transfer number `ordinal` of the control
    /// session) opened under this control connection.
    DataOpen {
        /// 1-based transfer ordinal within the control session.
        ordinal: u64,
    },
    /// Data connection `ordinal` closed.
    DataClose {
        /// 1-based transfer ordinal within the control session.
        ordinal: u64,
    },
}

impl SpanEvent {
    /// Stable event name (JSONL exposition, assertions).
    pub fn name(&self) -> &'static str {
        match self {
            SpanEvent::Accept => "accept",
            SpanEvent::HeaderRead => "header_read",
            SpanEvent::Decode { .. } => "decode",
            SpanEvent::Handle { .. } => "handle",
            SpanEvent::Defer { .. } => "defer",
            SpanEvent::Complete { .. } => "complete",
            SpanEvent::Encode { .. } => "encode",
            SpanEvent::WriteDrain => "write_drain",
            SpanEvent::Close => "close",
            SpanEvent::StageBegin { .. } => "stage_begin",
            SpanEvent::StageEnd { .. } => "stage_end",
            SpanEvent::Syscalls { .. } => "syscalls",
            SpanEvent::DataOpen { .. } => "data_open",
            SpanEvent::DataClose { .. } => "data_close",
        }
    }

    /// The ACT sequence number, for request-scoped events.
    pub fn seq(&self) -> Option<u64> {
        match self {
            SpanEvent::Decode { seq }
            | SpanEvent::Handle { seq }
            | SpanEvent::Defer { seq }
            | SpanEvent::Complete { seq }
            | SpanEvent::Encode { seq } => Some(*seq),
            SpanEvent::StageBegin { seq, .. } | SpanEvent::StageEnd { seq, .. } => {
                (*seq != SEQ_NONE).then_some(*seq)
            }
            _ => None,
        }
    }

    /// The stage-window edge this event is: `(opens, stage, seq)`, `seq`
    /// being [`SEQ_NONE`] where the event carries none.
    /// [`Accept`](SpanEvent::Accept) doubles as the `AcceptToHeader` open;
    /// each stage's completion event closes its window.
    pub(crate) fn edge(&self) -> Option<(bool, Stage, u64)> {
        Some(match *self {
            SpanEvent::Accept => (true, Stage::AcceptToHeader, SEQ_NONE),
            SpanEvent::StageBegin { stage, seq } => (true, stage, seq),
            SpanEvent::HeaderRead => (false, Stage::AcceptToHeader, SEQ_NONE),
            SpanEvent::Decode { seq } => (false, Stage::Decode, seq),
            SpanEvent::Handle { seq } => (false, Stage::Handle, seq),
            SpanEvent::Encode { seq } => (false, Stage::Encode, seq),
            SpanEvent::WriteDrain => (false, Stage::WriteDrain, SEQ_NONE),
            SpanEvent::StageEnd { stage, seq } => (false, stage, seq),
            _ => return None,
        })
    }

    /// The [`EventKind`] a span renders under (keeps the O10 render
    /// format identical to the free-form records it replaced).
    pub fn kind(&self) -> EventKind {
        match self {
            SpanEvent::Accept => EventKind::Accepted,
            SpanEvent::Defer { .. }
            | SpanEvent::Complete { .. }
            | SpanEvent::DataOpen { .. }
            | SpanEvent::DataClose { .. } => EventKind::Completion,
            SpanEvent::Close => EventKind::Shutdown,
            _ => EventKind::Readable,
        }
    }
}

/// One traced internal event.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Microseconds since the one clock's epoch ([`crate::clock`]).
    pub at_us: u64,
    /// Event kind.
    pub kind: EventKind,
    /// Connection involved, if any.
    pub conn: Option<ConnId>,
    /// Typed span event (None for free-form records).
    pub span: Option<SpanEvent>,
    /// Free-form detail (empty for span records).
    pub detail: String,
}

impl TraceRecord {
    /// The detail column rendered for this record: the free-form string,
    /// or the span event formatted in the legacy detail style (`request
    /// seq=3`, `defer act(conn=1, seq=3)`, …).
    pub fn detail_text(&self) -> String {
        let Some(span) = self.span else {
            return self.detail.clone();
        };
        let conn = self.conn.unwrap_or(0);
        match span {
            SpanEvent::Accept => "accepted".to_string(),
            SpanEvent::HeaderRead => "header read".to_string(),
            SpanEvent::Decode { seq } => format!("request seq={seq}"),
            SpanEvent::Handle { seq } => format!("handled seq={seq}"),
            SpanEvent::Defer { seq } => format!("defer act(conn={conn}, seq={seq})"),
            SpanEvent::Complete { seq } => format!("complete act(conn={conn}, seq={seq})"),
            SpanEvent::Encode { seq } => format!("encoded seq={seq}"),
            SpanEvent::WriteDrain => "write drained".to_string(),
            SpanEvent::Close => "connection closed".to_string(),
            SpanEvent::StageBegin { stage, seq } if seq == SEQ_NONE => {
                format!("begin {}", stage.name())
            }
            SpanEvent::StageBegin { stage, seq } => format!("begin {} seq={seq}", stage.name()),
            SpanEvent::StageEnd { stage, seq } if seq == SEQ_NONE => {
                format!("end {}", stage.name())
            }
            SpanEvent::StageEnd { stage, seq } => format!("end {} seq={seq}", stage.name()),
            SpanEvent::Syscalls { reads, writes } => {
                format!("syscalls reads={reads} writes={writes}")
            }
            SpanEvent::DataOpen { ordinal } => format!("data transfer {ordinal} opened"),
            SpanEvent::DataClose { ordinal } => format!("data transfer {ordinal} closed"),
        }
    }
}

/// Per-connection correlation metadata kept alongside the span ring.
#[derive(Debug, Clone)]
pub struct ConnMeta {
    /// Process-unique trace id allocated when the connection opened.
    pub trace_id: u64,
    /// Peer address label (`StreamIo::peer_label`).
    pub peer: String,
    /// Outbound correlation labels: the *local* addresses of sockets this
    /// connection opened toward another tier (a relay session's backend
    /// dial). Timeline assembly matches each link against the other
    /// tier's connection whose `peer` equals the label.
    pub links: Vec<String>,
    /// Total transport read syscalls attributed to the connection.
    pub io_reads: u64,
    /// Total transport write syscalls attributed to the connection.
    pub io_writes: u64,
}

#[derive(Default)]
struct MetaInner {
    map: HashMap<ConnId, ConnMeta>,
    order: VecDeque<ConnId>,
}

/// Bounded in-memory event trace (debug mode, O10).
#[derive(Clone)]
pub struct DebugTracer {
    inner: Arc<Mutex<TraceInner>>,
    enabled: bool,
    /// Free-form detail strings stored so far — the counter the overhead
    /// regression test pins: a production-mode run must keep this at zero
    /// (every hot-path call site uses allocation-free [`SpanEvent`]s).
    detail_strings: Arc<AtomicU64>,
    /// Records evicted by ring overflow. Kept outside the ring mutex so
    /// the exposition layer can read it lock-free; the diagnostics
    /// snapshot and Prometheus output both surface it, making lossy
    /// trace windows detectable instead of silent.
    dropped: Arc<AtomicU64>,
    meta: Arc<Mutex<MetaInner>>,
}

struct TraceInner {
    ring: VecDeque<TraceRecord>,
    capacity: usize,
}

impl DebugTracer {
    fn new(enabled: bool, capacity: usize) -> Self {
        Self {
            inner: Arc::new(Mutex::new(TraceInner {
                ring: VecDeque::with_capacity(capacity.min(4096)),
                capacity: capacity.max(1),
            })),
            enabled,
            detail_strings: Arc::new(AtomicU64::new(0)),
            dropped: Arc::new(AtomicU64::new(0)),
            meta: Arc::new(Mutex::new(MetaInner::default())),
        }
    }

    /// An enabled tracer holding the most recent `capacity` records.
    pub fn enabled(capacity: usize) -> Self {
        Self::new(true, capacity)
    }

    /// A disabled tracer: every call is a cheap no-op (production mode).
    pub fn disabled() -> Self {
        Self::new(false, 0)
    }

    /// Whether tracing is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Register a connection and allocate its process-unique trace id.
    /// Idempotent per connection id; returns 0 when tracing is disabled.
    pub fn conn_open(&self, conn: ConnId, peer: &str) -> u64 {
        if !self.enabled {
            return 0;
        }
        let mut m = self.meta.lock();
        if let Some(existing) = m.map.get(&conn) {
            return existing.trace_id;
        }
        while m.order.len() >= META_CAPACITY {
            if let Some(old) = m.order.pop_front() {
                m.map.remove(&old);
            }
        }
        let trace_id = next_trace_id();
        m.order.push_back(conn);
        m.map.insert(
            conn,
            ConnMeta {
                trace_id,
                peer: peer.to_string(),
                links: Vec::new(),
                io_reads: 0,
                io_writes: 0,
            },
        );
        trace_id
    }

    /// Stamp an outbound correlation link on a connection: the local
    /// address label of a socket it opened toward another tier.
    pub fn link(&self, conn: ConnId, target: impl Into<String>) {
        if !self.enabled {
            return;
        }
        if let Some(meta) = self.meta.lock().map.get_mut(&conn) {
            meta.links.push(target.into());
        }
    }

    /// Attribute transport syscalls to a connection: bumps its running
    /// totals and records an allocation-free [`SpanEvent::Syscalls`]
    /// delta span. No-op when disabled or when both deltas are zero.
    pub fn syscalls(&self, conn: ConnId, reads: u64, writes: u64) {
        if self.enabled && (reads != 0 || writes != 0) {
            self.syscalls_quiet(conn, reads, writes);
            self.span(SpanEvent::Syscalls { reads, writes }, conn);
        }
    }

    /// Attribute transport syscalls to a connection's running totals
    /// *without* recording a span. For work that completes after the
    /// connection's `Close` span (lingering-close reads): the totals stay
    /// honest while the span tree keeps its Accept…Close envelope.
    pub fn syscalls_quiet(&self, conn: ConnId, reads: u64, writes: u64) {
        if !self.enabled || (reads == 0 && writes == 0) {
            return;
        }
        if let Some(meta) = self.meta.lock().map.get_mut(&conn) {
            meta.io_reads += reads;
            meta.io_writes += writes;
        }
    }

    /// The trace id allocated to a connection, if it is still retained.
    pub fn trace_id(&self, conn: ConnId) -> Option<u64> {
        self.meta.lock().map.get(&conn).map(|m| m.trace_id)
    }

    /// Correlation metadata for one connection.
    pub fn conn_meta(&self, conn: ConnId) -> Option<ConnMeta> {
        self.meta.lock().map.get(&conn).cloned()
    }

    /// All retained connection metadata, oldest connection first.
    pub fn metas(&self) -> Vec<(ConnId, ConnMeta)> {
        let m = self.meta.lock();
        m.order
            .iter()
            .filter_map(|c| m.map.get(c).map(|meta| (*c, meta.clone())))
            .collect()
    }

    /// Record a free-form internal event. Slow-path diagnostics only
    /// (errors, sweeps): the detail string is stored on the ring. Hot-path
    /// call sites use [`span`](Self::span) instead, which allocates
    /// nothing.
    pub fn record(&self, kind: EventKind, conn: Option<ConnId>, detail: impl Into<String>) {
        if !self.enabled {
            return;
        }
        self.detail_strings.fetch_add(1, Ordering::Relaxed);
        self.push(TraceRecord {
            at_us: clock::now_us(),
            kind,
            conn,
            span: None,
            detail: detail.into(),
        });
    }

    /// Record a typed span event for a connection. Allocation-free: safe
    /// to leave unguarded on the hot path (disabled tracers return before
    /// reading the clock).
    pub fn span(&self, event: SpanEvent, conn: ConnId) {
        if self.enabled {
            self.span_at(event, conn, clock::now());
        }
    }

    /// [`span`](Self::span) at a reading of [`clock`] the caller took: a
    /// stage boundary's, which its other recorders share.
    pub(crate) fn span_at(&self, event: SpanEvent, conn: ConnId, at: u64) {
        if !self.enabled {
            return;
        }
        self.push(TraceRecord {
            at_us: at / 1_000,
            kind: event.kind(),
            conn: Some(conn),
            span: Some(event),
            detail: String::new(),
        });
    }

    fn push(&self, rec: TraceRecord) {
        let mut inner = self.inner.lock();
        if inner.ring.len() == inner.capacity {
            inner.ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        inner.ring.push_back(rec);
    }

    /// Free-form detail strings stored so far (see the field docs — the
    /// overhead regression pin).
    pub fn detail_strings(&self) -> u64 {
        self.detail_strings.load(Ordering::Relaxed)
    }

    /// The typed span events recorded for one connection, in ring order.
    pub fn spans_for(&self, conn: ConnId) -> Vec<SpanEvent> {
        self.inner
            .lock()
            .ring
            .iter()
            .filter(|r| r.conn == Some(conn))
            .filter_map(|r| r.span)
            .collect()
    }

    /// Copy out the retained records, oldest first.
    pub fn dump(&self) -> Vec<TraceRecord> {
        self.inner.lock().ring.iter().cloned().collect()
    }

    /// Copy out the newest `n` retained records, oldest-of-the-tail
    /// first. Diagnostic snapshots use this to bound their span section
    /// without copying the whole ring under the lock.
    pub fn dump_tail(&self, n: usize) -> Vec<TraceRecord> {
        let inner = self.inner.lock();
        let skip = inner.ring.len().saturating_sub(n);
        inner.ring.iter().skip(skip).cloned().collect()
    }

    /// Records evicted from the ring so far (lock-free read).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Per-stage exclusive wall time aggregated over the retained ring.
    pub fn self_time(&self) -> [StageSelfTime; 5] {
        self_time_of(&self.dump())
    }

    /// Snapshot this tracer into an assembly input.
    pub fn snapshot_node(&self, label: &str) -> TraceNode {
        TraceNode {
            label: label.to_string(),
            records: self.dump(),
            metas: self.metas(),
        }
    }

    /// Render the trace as text lines (what debug mode writes to its file).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in self.dump() {
            let conn = r.conn.map(|c| format!(" conn={c}")).unwrap_or_default();
            out.push_str(&format!(
                "[{:>10}µs] {}{} {}\n",
                r.at_us,
                r.kind,
                conn,
                r.detail_text()
            ));
        }
        out
    }
}

/// One closed stage window reconstructed from a record stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagePair {
    /// Connection the window belongs to.
    pub conn: ConnId,
    /// The pipeline stage.
    pub stage: Stage,
    /// ACT sequence number when known, else [`SEQ_NONE`].
    pub seq: u64,
    /// Window open, µs since the clock's epoch.
    pub begin_us: u64,
    /// Window close, clamped to `>= begin_us`.
    pub end_us: u64,
}

/// Aggregated exclusive wall time for one pipeline stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageSelfTime {
    /// Stage windows observed in the retained ring.
    pub windows: u64,
    /// Exclusive time: window wall time minus windows of other stages
    /// nested inside it on the same connection.
    pub self_us: u64,
}

/// Reconstruct closed stage windows from a record stream, oldest first.
///
/// A window opens at [`SpanEvent::StageBegin`] (or [`SpanEvent::Accept`],
/// which doubles as the `AcceptToHeader` open) and closes at the stage's
/// completion event (`HeaderRead`, `Decode`, `Handle`, `Encode`,
/// `WriteDrain`) or an explicit [`SpanEvent::StageEnd`]. One window per
/// (connection, stage) may be pending at a time; a re-open replaces a
/// dangling one.
pub fn stage_pairs(records: &[TraceRecord]) -> Vec<StagePair> {
    assemble_windows(records).0
}

/// A closed data-connection window (FTP transfer) on a control session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataPair {
    /// Control connection the transfer belongs to.
    pub conn: ConnId,
    /// Transfer ordinal within the control session.
    pub ordinal: u64,
    /// Open, µs since the clock's epoch.
    pub begin_us: u64,
    /// Close, clamped to `>= begin_us`.
    pub end_us: u64,
}

/// Pair stage and data windows; also report which record indices were
/// consumed as a window edge (the rest render as instants on export).
fn assemble_windows(records: &[TraceRecord]) -> (Vec<StagePair>, Vec<DataPair>, Vec<bool>) {
    // (conn, stage) -> (opened at, seq, record index)
    let mut pending: HashMap<(ConnId, usize), (u64, u64, usize)> = HashMap::new();
    let mut pending_data: HashMap<(ConnId, u64), (u64, usize)> = HashMap::new();
    let mut pairs = Vec::new();
    let mut data = Vec::new();
    let mut consumed = vec![false; records.len()];
    for (i, r) in records.iter().enumerate() {
        let (Some(conn), Some(span)) = (r.conn, r.span) else {
            continue;
        };
        match (span.edge(), span) {
            (Some((true, stage, seq)), _) => {
                pending.insert((conn, stage.index()), (r.at_us, seq, i));
            }
            (Some((false, stage, seq)), _) => {
                if let Some((begin_us, begin_seq, bi)) = pending.remove(&(conn, stage.index())) {
                    consumed[bi] = true;
                    consumed[i] = true;
                    pairs.push(StagePair {
                        conn,
                        stage,
                        seq: if seq == SEQ_NONE { begin_seq } else { seq },
                        begin_us,
                        end_us: r.at_us.max(begin_us),
                    });
                }
            }
            (None, SpanEvent::DataOpen { ordinal }) => {
                pending_data.insert((conn, ordinal), (r.at_us, i));
            }
            (None, SpanEvent::DataClose { ordinal }) => {
                if let Some((begin_us, bi)) = pending_data.remove(&(conn, ordinal)) {
                    consumed[bi] = true;
                    consumed[i] = true;
                    data.push(DataPair {
                        conn,
                        ordinal,
                        begin_us,
                        end_us: r.at_us.max(begin_us),
                    });
                }
            }
            _ => {}
        }
    }
    (pairs, data, consumed)
}

/// Per-stage exclusive wall time over a record stream: each window's wall
/// time minus the wall time of other-stage windows nested inside it on
/// the same connection (a decode running while the outbox drains counts
/// toward decode, not write-drain).
pub fn self_time_of(records: &[TraceRecord]) -> [StageSelfTime; 5] {
    let mut agg = [StageSelfTime::default(); 5];
    let pairs = stage_pairs(records);
    let mut by_conn: HashMap<ConnId, Vec<&StagePair>> = HashMap::new();
    for p in &pairs {
        by_conn.entry(p.conn).or_default().push(p);
    }
    for (_, mut conn_pairs) in by_conn {
        conn_pairs.sort_by_key(|p| (p.begin_us, std::cmp::Reverse(p.end_us)));
        // Open-window stack: (end_us, stage index, begin_us, child_us).
        let mut stack: Vec<(u64, usize, u64, u64)> = Vec::new();
        let finalize = |frame: (u64, usize, u64, u64), agg: &mut [StageSelfTime; 5]| {
            let (end, si, begin, child) = frame;
            let total = end - begin;
            agg[si].windows += 1;
            agg[si].self_us += total.saturating_sub(child);
        };
        for p in conn_pairs {
            while let Some(&top) = stack.last() {
                if top.0 <= p.begin_us {
                    let frame = stack.pop().unwrap();
                    finalize(frame, &mut agg);
                } else {
                    break;
                }
            }
            if let Some(top) = stack.last_mut() {
                top.3 += p.end_us.min(top.0).saturating_sub(p.begin_us);
            }
            stack.push((p.end_us, p.stage.index(), p.begin_us, 0));
        }
        while let Some(frame) = stack.pop() {
            finalize(frame, &mut agg);
        }
    }
    agg
}

/// One tier's contribution to a timeline assembly: a node label, its
/// span records, and its connection metadata.
#[derive(Debug, Clone)]
pub struct TraceNode {
    /// Display label for the tier ("server", "relay", …).
    pub label: String,
    /// Retained span records, oldest first.
    pub records: Vec<TraceRecord>,
    /// Connection correlation metadata.
    pub metas: Vec<(ConnId, ConnMeta)>,
}

/// Assemble snapshotted trace nodes into Chrome/Perfetto trace-event
/// JSON (the `{"traceEvents":[...]}` object form, one event per line).
///
/// Connections become Perfetto threads; cross-tier correlation — a
/// connection whose [`ConnMeta::links`] label matches another
/// connection's peer label — merges connections into one Perfetto
/// process, so a relayed request renders as a single timeline. Stage
/// windows become `B`/`E` duration pairs laid out on per-connection
/// sub-lanes so overlapping windows never produce malformed nesting;
/// point events render as instants.
pub fn perfetto_from(nodes: &[TraceNode]) -> String {
    // Lanes: one per (node, connection) seen in metadata or records.
    let mut lanes: Vec<ConnMeta> = Vec::new();
    let mut lane_of: HashMap<(usize, ConnId), usize> = HashMap::new();
    for (ni, node) in nodes.iter().enumerate() {
        // No metadata (tracer used below the server layer): synthesize a
        // stable id outside the allocator's range.
        let unknown = |conn| ConnMeta {
            trace_id: 1_000_000_000 + ni as u64 * 1_000_000 + conn,
            peer: String::new(),
            links: Vec::new(),
            io_reads: 0,
            io_writes: 0,
        };
        let known = node.metas.iter().cloned();
        let seen = node.records.iter().filter_map(|r| r.conn);
        for (conn, meta) in known.chain(seen.map(|conn| (conn, unknown(conn)))) {
            lane_of.entry((ni, conn)).or_insert_with(|| {
                lanes.push(meta);
                lanes.len() - 1
            });
        }
    }

    // Union-find over lanes: link label == another lane's peer label.
    let mut parent: Vec<usize> = (0..lanes.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut by_peer: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, lane) in lanes.iter().enumerate() {
        if !lane.peer.is_empty() {
            by_peer.entry(lane.peer.as_str()).or_default().push(i);
        }
    }
    for (i, lane) in lanes.iter().enumerate() {
        for link in &lane.links {
            if let Some(targets) = by_peer.get(link.as_str()) {
                for &j in targets {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        parent[ri] = rj;
                    }
                }
            }
        }
    }
    // Group pid = smallest trace id in the group (the front-most tier).
    let mut group_pid: HashMap<usize, u64> = HashMap::new();
    for (i, lane) in lanes.iter().enumerate() {
        let root = find(&mut parent, i);
        let e = group_pid.entry(root).or_insert(lane.trace_id);
        *e = (*e).min(lane.trace_id);
    }

    // The leading members every non-metadata event shares.
    let event = |name: &str, cat: &str, ph: &str, ts: u64, pid: u64, tid: u64| {
        vec![
            ("name", Json::from(name)),
            ("cat", cat.into()),
            ("ph", ph.into()),
            ("ts", ts.into()),
            ("pid", pid.into()),
            ("tid", tid.into()),
        ]
    };
    let named = |what: &str, pid: u64, tid: u64, name: String| {
        Json::obj([
            ("name", Json::from(what)),
            ("ph", "M".into()),
            ("pid", pid.into()),
            ("tid", tid.into()),
            ("args", Json::obj([("name", name.into())])),
        ])
    };
    let seq_args = |seq: Option<u64>| Json::obj(seq.map(|seq| ("seq", seq.into())));
    let io_args =
        |reads: u64, writes: u64| Json::obj([("reads", reads.into()), ("writes", writes.into())]);
    let mut events: Vec<Json> = Vec::new();
    let mut emitted_pid_meta: HashMap<u64, ()> = HashMap::new();
    let mut next_tid: u64 = 1;
    for (ni, node) in nodes.iter().enumerate() {
        let (pairs, data_pairs, consumed) = assemble_windows(&node.records);
        // Window tuples: (begin, end, name, cat, args).
        type WindowTuple = (u64, u64, &'static str, &'static str, Json);
        let mut by_conn: HashMap<ConnId, Vec<WindowTuple>> = HashMap::new();
        for p in &pairs {
            let args = seq_args((p.seq != SEQ_NONE).then_some(p.seq));
            let window = (p.begin_us, p.end_us, p.stage.name(), "stage", args);
            by_conn.entry(p.conn).or_default().push(window);
        }
        for d in &data_pairs {
            let args = Json::obj([("ordinal", d.ordinal.into())]);
            let window = (d.begin_us, d.end_us, "data_transfer", "data", args);
            by_conn.entry(d.conn).or_default().push(window);
        }
        // Instants: records not consumed as a window edge.
        let mut instants: HashMap<ConnId, Vec<(u64, String, Json)>> = HashMap::new();
        for (i, r) in node.records.iter().enumerate() {
            let Some(conn) = r.conn else { continue };
            if consumed[i] {
                continue;
            }
            let (name, args) = match r.span {
                Some(SpanEvent::Syscalls { reads, writes }) => {
                    ("syscalls".to_string(), io_args(reads, writes))
                }
                Some(span) => (span.name().to_string(), seq_args(span.seq())),
                None => (
                    r.kind.to_string(),
                    Json::obj([("detail", r.detail.as_str().into())]),
                ),
            };
            instants
                .entry(conn)
                .or_default()
                .push((r.at_us, name, args));
        }

        let here = lane_of.keys().filter(|(n, _)| *n == ni);
        let mut conns: Vec<ConnId> = here.map(|(_, c)| *c).collect();
        conns.sort_unstable();
        for conn in conns {
            let li = lane_of[&(ni, conn)];
            let root = find(&mut parent, li);
            let pid = group_pid[&root];
            if emitted_pid_meta.insert(pid, ()).is_none() {
                events.push(named("process_name", pid, 0, format!("trace {pid}")));
            }
            // Lay windows onto sub-lanes: first sub-lane whose last window
            // ended before this one begins; overlap opens a new sub-lane.
            let mut windows = by_conn.remove(&conn).unwrap_or_default();
            windows.sort_by_key(|w| (w.0, std::cmp::Reverse(w.1)));
            let mut sub_last_end: Vec<u64> = Vec::new();
            let mut sub_tid: Vec<u64> = Vec::new();
            let lane_name = {
                let peer = &lanes[li].peer;
                if peer.is_empty() {
                    format!("{} conn {}", node.label, conn)
                } else {
                    format!("{} conn {} ({})", node.label, conn, peer)
                }
            };
            let lane_tid =
                |k: usize, sub_tid: &mut Vec<u64>, next_tid: &mut u64, events: &mut Vec<Json>| {
                    while sub_tid.len() <= k {
                        let tid = *next_tid;
                        *next_tid += 1;
                        let name = if sub_tid.is_empty() {
                            lane_name.clone()
                        } else {
                            format!("{} lane{}", lane_name, sub_tid.len())
                        };
                        events.push(named("thread_name", pid, tid, name));
                        sub_tid.push(tid);
                    }
                    sub_tid[k]
                };
            let base_tid = lane_tid(0, &mut sub_tid, &mut next_tid, &mut events);
            for (begin, end, name, cat, args) in windows {
                let k = match sub_last_end.iter().position(|&e| e <= begin) {
                    Some(k) => k,
                    None => {
                        sub_last_end.push(0);
                        sub_last_end.len() - 1
                    }
                };
                sub_last_end[k] = end;
                let tid = lane_tid(k, &mut sub_tid, &mut next_tid, &mut events);
                let mut opens = event(name, cat, "B", begin, pid, tid);
                opens.push(("args", args));
                events.push(Json::obj(opens));
                events.push(Json::obj(event(name, cat, "E", end, pid, tid)));
            }
            let mut instant = |name: &str, cat: &str, ts: u64, args: Json| {
                let mut e = event(name, cat, "i", ts, pid, base_tid);
                e.extend([("s", "t".into()), ("args", args)]);
                events.push(Json::obj(e));
            };
            let mut last_ts = 0u64;
            for (ts, name, args) in instants.remove(&conn).unwrap_or_default() {
                last_ts = last_ts.max(ts);
                instant(&name, "event", ts, args);
            }
            let (reads, writes) = (lanes[li].io_reads, lanes[li].io_writes);
            if reads != 0 || writes != 0 {
                instant("syscalls_total", "io", last_ts, io_args(reads, writes));
            }
        }
    }
    let doc = Json::obj([
        ("displayTimeUnit", "ms".into()),
        ("traceEvents", Json::Arr(events)),
    ]);
    format!("{doc:#}")
}

/// What [`check_trace_events`] saw in a well-formed export.
#[derive(Debug, Default)]
pub struct TraceShape {
    /// The pid of every event, in document order.
    pub pids: Vec<u64>,
    /// `(pid, lane name)` of every `thread_name` metadata event.
    pub lanes: Vec<(u64, String)>,
    /// The name of every `B`/`E` window, in order of its `B`.
    pub windows: Vec<String>,
}

/// Check a parsed export against the Chrome trace-event schema as
/// [`perfetto_from`] promises it: `displayTimeUnit` and a `traceEvents`
/// array whose events each carry `ph` and a numeric `pid`; every `B` is
/// paired with a same-name `E` on its `(pid, tid)` lane at a non-earlier
/// timestamp, `B` timestamps never regress on a lane, and no window is
/// left open. The one validator the exporter's own tests, the timeline
/// suite and the CI export check share.
pub fn check_trace_events(doc: &Json) -> Result<TraceShape, String> {
    if doc["displayTimeUnit"].as_str().is_none() {
        return Err("missing displayTimeUnit".into());
    }
    let Json::Arr(events) = &doc["traceEvents"] else {
        return Err("missing traceEvents array".into());
    };
    let mut shape = TraceShape::default();
    // (pid, tid) -> (timestamp of the lane's last B, its open windows)
    type Lanes<'a> = HashMap<(u64, u64), (u64, Vec<(&'a str, u64)>)>;
    let mut lanes: Lanes = HashMap::new();
    for e in events {
        let lacks = |what: &str| format!("event without {what}: {e}");
        let num = |key: &str| e[key].as_u64().ok_or_else(|| lacks(key));
        let text = |key: &str| e[key].as_str().ok_or_else(|| lacks(key));
        let (ph, pid) = (text("ph")?, num("pid")?);
        shape.pids.push(pid);
        if ph == "M" && text("name")? == "thread_name" {
            let lane = e["args"]["name"]
                .as_str()
                .ok_or_else(|| lacks("a lane name"))?;
            shape.lanes.push((pid, lane.to_string()));
        }
        if ph != "B" && ph != "E" {
            continue;
        }
        let (tid, ts, name) = (num("tid")?, num("ts")?, text("name")?);
        let (last_begin, open) = lanes.entry((pid, tid)).or_default();
        if ph == "B" {
            if ts < *last_begin {
                return Err(format!("lane timestamps regressed: {e}"));
            }
            *last_begin = ts;
            shape.windows.push(name.to_string());
            open.push((name, ts));
        } else {
            match open.pop() {
                Some((began, at)) if began == name && at <= ts => {}
                Some(_) => return Err(format!("mismatched or negative B/E pair: {e}")),
                None => return Err(format!("E without a matching B: {e}")),
            }
        }
    }
    match lanes.iter().find(|(_, (_, open))| !open.is_empty()) {
        Some(((pid, tid), _)) => Err(format!("unclosed B events on pid {pid} tid {tid}")),
        None => Ok(shape),
    }
}

/// Access-log hook (option O12): the generated framework calls this once
/// per completed request with a preformatted line; applications supply the
/// sink (file, stdout, collector…).
pub type AccessLogger = Arc<dyn Fn(&str) + Send + Sync>;

/// An in-memory access logger, handy for tests and examples.
#[derive(Clone, Default)]
pub struct MemoryLogger {
    lines: Arc<Mutex<Vec<String>>>,
}

impl MemoryLogger {
    /// New empty logger.
    pub fn new() -> Self {
        Self::default()
    }

    /// The logging hook to hand to the framework.
    pub fn as_hook(&self) -> AccessLogger {
        let lines = Arc::clone(&self.lines);
        Arc::new(move |line: &str| lines.lock().push(line.to_string()))
    }

    /// Copy of all logged lines.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = DebugTracer::disabled();
        t.record(EventKind::Readable, Some(1), "x");
        assert!(t.dump().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn enabled_tracer_keeps_records_in_order() {
        let t = DebugTracer::enabled(10);
        t.record(EventKind::Accepted, Some(1), "new conn");
        t.record(EventKind::Readable, Some(1), "64 bytes");
        let recs = t.dump();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].kind, EventKind::Accepted);
        assert_eq!(recs[1].kind, EventKind::Readable);
        assert!(recs[0].at_us <= recs[1].at_us);
    }

    #[test]
    fn ring_drops_oldest_beyond_capacity() {
        let t = DebugTracer::enabled(3);
        for i in 0..5 {
            t.record(EventKind::Timer, None, format!("t{i}"));
        }
        let recs = t.dump();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].detail, "t2");
        assert_eq!(t.dropped(), 2);
    }

    #[test]
    fn dump_tail_returns_newest_records_in_order() {
        let t = DebugTracer::enabled(8);
        for i in 0..6 {
            t.record(EventKind::Timer, None, format!("t{i}"));
        }
        let tail = t.dump_tail(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].detail, "t4");
        assert_eq!(tail[1].detail, "t5");
        assert_eq!(t.dump_tail(100).len(), 6);
    }

    #[test]
    fn render_formats_lines() {
        let t = DebugTracer::enabled(4);
        t.record(EventKind::Shutdown, Some(9), "bye");
        let text = t.render();
        assert!(text.contains("shutdown"));
        assert!(text.contains("conn=9"));
        assert!(text.contains("bye"));
    }

    #[test]
    fn spans_allocate_no_detail_strings() {
        let t = DebugTracer::enabled(16);
        t.span(SpanEvent::Accept, 4);
        t.span(SpanEvent::Decode { seq: 0 }, 4);
        t.span(SpanEvent::Close, 4);
        assert_eq!(t.detail_strings(), 0);
        t.record(EventKind::Timer, None, "a real string");
        assert_eq!(t.detail_strings(), 1);
    }

    #[test]
    fn disabled_tracer_counts_no_strings() {
        let t = DebugTracer::disabled();
        t.record(EventKind::Timer, None, "dropped before storage");
        t.span(SpanEvent::Accept, 1);
        assert_eq!(t.detail_strings(), 0);
        assert!(t.dump().is_empty());
    }

    #[test]
    fn spans_for_reconstructs_one_connection_in_order() {
        let t = DebugTracer::enabled(32);
        t.span(SpanEvent::Accept, 1);
        t.span(SpanEvent::Accept, 2);
        t.span(SpanEvent::Decode { seq: 0 }, 1);
        t.span(SpanEvent::Encode { seq: 0 }, 1);
        t.span(SpanEvent::Close, 1);
        assert_eq!(
            t.spans_for(1),
            vec![
                SpanEvent::Accept,
                SpanEvent::Decode { seq: 0 },
                SpanEvent::Encode { seq: 0 },
                SpanEvent::Close,
            ]
        );
        assert_eq!(t.spans_for(2), vec![SpanEvent::Accept]);
    }

    #[test]
    fn span_records_render_in_the_legacy_detail_style() {
        let t = DebugTracer::enabled(8);
        t.span(SpanEvent::Decode { seq: 3 }, 9);
        t.span(SpanEvent::Defer { seq: 3 }, 9);
        let text = t.render();
        assert!(text.contains("request seq=3"), "{text}");
        assert!(text.contains("defer act(conn=9, seq=3)"), "{text}");
        assert!(text.contains("conn=9"));
    }

    #[test]
    fn memory_logger_captures_lines() {
        let log = MemoryLogger::new();
        let hook = log.as_hook();
        hook("GET /index.html 200");
        hook("GET /missing 404");
        assert_eq!(log.lines().len(), 2);
        assert!(log.lines()[1].contains("404"));
    }

    // ---- timeline subsystem ----

    fn span_rec(at_us: u64, conn: ConnId, span: SpanEvent) -> TraceRecord {
        TraceRecord {
            at_us,
            kind: span.kind(),
            conn: Some(conn),
            span: Some(span),
            detail: String::new(),
        }
    }

    #[test]
    fn trace_ids_are_process_unique_across_tracers() {
        let a = DebugTracer::enabled(8);
        let b = DebugTracer::enabled(8);
        let ia = a.conn_open(1, "p1");
        let ib = b.conn_open(1, "p2");
        assert_ne!(ia, 0);
        assert_ne!(ia, ib);
        // Idempotent per connection.
        assert_eq!(a.conn_open(1, "p1"), ia);
        assert_eq!(a.trace_id(1), Some(ia));
        assert_eq!(b.conn_meta(1).unwrap().peer, "p2");
    }

    #[test]
    fn disabled_tracer_keeps_no_meta() {
        let t = DebugTracer::disabled();
        assert_eq!(t.conn_open(1, "p"), 0);
        t.link(1, "x");
        t.syscalls(1, 3, 4);
        assert!(t.conn_meta(1).is_none());
        assert!(t.dump().is_empty());
    }

    #[test]
    fn syscall_deltas_accumulate_into_meta_totals() {
        let t = DebugTracer::enabled(16);
        t.conn_open(7, "peer");
        t.syscalls(7, 2, 1);
        t.syscalls(7, 0, 0); // no-op
        t.syscalls(7, 1, 3);
        let meta = t.conn_meta(7).unwrap();
        assert_eq!((meta.io_reads, meta.io_writes), (3, 4));
        let spans = t.spans_for(7);
        assert_eq!(
            spans,
            vec![
                SpanEvent::Syscalls {
                    reads: 2,
                    writes: 1
                },
                SpanEvent::Syscalls {
                    reads: 1,
                    writes: 3
                },
            ]
        );
        assert_eq!(t.detail_strings(), 0, "syscall spans must not allocate");
    }

    #[test]
    fn stage_pairs_close_on_completion_events() {
        let recs = vec![
            span_rec(10, 1, SpanEvent::Accept),
            span_rec(25, 1, SpanEvent::HeaderRead),
            span_rec(
                30,
                1,
                SpanEvent::StageBegin {
                    stage: Stage::Decode,
                    seq: SEQ_NONE,
                },
            ),
            span_rec(42, 1, SpanEvent::Decode { seq: 0 }),
            span_rec(
                43,
                1,
                SpanEvent::StageBegin {
                    stage: Stage::Handle,
                    seq: 0,
                },
            ),
            span_rec(60, 1, SpanEvent::Handle { seq: 0 }),
        ];
        let pairs = stage_pairs(&recs);
        assert_eq!(pairs.len(), 3);
        assert_eq!(
            pairs[0],
            StagePair {
                conn: 1,
                stage: Stage::AcceptToHeader,
                seq: SEQ_NONE,
                begin_us: 10,
                end_us: 25
            }
        );
        assert_eq!(
            pairs[1],
            StagePair {
                conn: 1,
                stage: Stage::Decode,
                seq: 0,
                begin_us: 30,
                end_us: 42
            }
        );
        assert_eq!(
            pairs[2],
            StagePair {
                conn: 1,
                stage: Stage::Handle,
                seq: 0,
                begin_us: 43,
                end_us: 60
            }
        );
    }

    #[test]
    fn stage_end_closes_abnormal_windows() {
        let recs = vec![
            span_rec(
                5,
                2,
                SpanEvent::StageBegin {
                    stage: Stage::Decode,
                    seq: SEQ_NONE,
                },
            ),
            span_rec(
                9,
                2,
                SpanEvent::StageEnd {
                    stage: Stage::Decode,
                    seq: SEQ_NONE,
                },
            ),
        ];
        let pairs = stage_pairs(&recs);
        assert_eq!(pairs.len(), 1);
        assert_eq!(
            (pairs[0].begin_us, pairs[0].end_us, pairs[0].seq),
            (5, 9, SEQ_NONE)
        );
    }

    #[test]
    fn self_time_subtracts_nested_windows() {
        // WriteDrain window [0, 100] with a Decode window [20, 50] nested
        // inside it: drain self-time is 70, decode self-time 30.
        let recs = vec![
            span_rec(
                0,
                1,
                SpanEvent::StageBegin {
                    stage: Stage::WriteDrain,
                    seq: SEQ_NONE,
                },
            ),
            span_rec(
                20,
                1,
                SpanEvent::StageBegin {
                    stage: Stage::Decode,
                    seq: SEQ_NONE,
                },
            ),
            span_rec(50, 1, SpanEvent::Decode { seq: 0 }),
            span_rec(100, 1, SpanEvent::WriteDrain),
        ];
        let agg = self_time_of(&recs);
        assert_eq!(agg[1].windows, 1);
        assert_eq!(agg[1].self_us, 30);
        assert_eq!(agg[4].windows, 1);
        assert_eq!(agg[4].self_us, 70);
    }

    #[test]
    fn perfetto_merges_linked_tiers_into_one_process() {
        // Relay conn 1 (peer = client) dialed a backend socket whose local
        // label is 127.0.0.1:50000; backend conn 3's peer is that label.
        let relay = TraceNode {
            label: "relay".to_string(),
            records: vec![
                span_rec(10, 1, SpanEvent::Accept),
                span_rec(90, 1, SpanEvent::Close),
            ],
            metas: vec![(
                1,
                ConnMeta {
                    trace_id: 1,
                    peer: "client:1".to_string(),
                    links: vec!["127.0.0.1:50000".to_string()],
                    io_reads: 2,
                    io_writes: 2,
                },
            )],
        };
        let backend = TraceNode {
            label: "server".to_string(),
            records: vec![
                span_rec(20, 3, SpanEvent::Accept),
                span_rec(30, 3, SpanEvent::HeaderRead),
                span_rec(
                    31,
                    3,
                    SpanEvent::StageBegin {
                        stage: Stage::Decode,
                        seq: SEQ_NONE,
                    },
                ),
                span_rec(40, 3, SpanEvent::Decode { seq: 0 }),
                span_rec(80, 3, SpanEvent::Close),
            ],
            metas: vec![(
                3,
                ConnMeta {
                    trace_id: 2,
                    peer: "127.0.0.1:50000".to_string(),
                    links: vec![],
                    io_reads: 5,
                    io_writes: 4,
                },
            )],
        };
        let json = perfetto_from(&[relay, backend]);
        let doc = Json::parse(&json).expect("well-formed");
        let shape = check_trace_events(&doc).unwrap_or_else(|e| panic!("{e}\n{json}"));
        // Both tiers share pid 1 (the min trace id of the merged group).
        assert!(shape.pids.iter().all(|pid| *pid == 1), "unmerged: {json}");
        assert_eq!(shape.windows, ["accept_to_header", "decode"]);
        assert!(json.contains("syscalls_total"), "{json}");
    }

    #[test]
    fn the_validator_rejects_what_the_exporter_promises_not_to_emit() {
        let check = |events: &str| {
            let doc = format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{events}]}}");
            check_trace_events(&Json::parse(&doc).unwrap())
        };
        let ev = |ph: &str, name: &str, ts: u64| {
            format!("{{\"name\":\"{name}\",\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":1,\"tid\":1}}")
        };
        assert!(check(&[ev("B", "a", 5), ev("E", "a", 9)].join(",")).is_ok());
        for (bad, why) in [
            (vec![ev("B", "a", 5)], "unclosed"),
            (vec![ev("E", "a", 5)], "without a matching B"),
            (vec![ev("B", "a", 5), ev("E", "b", 9)], "mismatched"),
            (vec![ev("B", "a", 5), ev("E", "a", 4)], "negative"),
            (
                vec![ev("B", "a", 5), ev("E", "a", 6), ev("B", "b", 4)],
                "regressed",
            ),
            (vec!["{\"ph\":\"i\"}".to_string()], "without pid"),
        ] {
            let err = check(&bad.join(",")).unwrap_err();
            assert!(err.contains(why), "{err}");
        }
        assert!(check_trace_events(&Json::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn perfetto_overlapping_windows_split_into_sublanes() {
        // Two overlapping Encode windows on one connection (concurrent
        // completions) must land on different tids.
        let node = TraceNode {
            label: "server".to_string(),
            records: vec![
                span_rec(
                    0,
                    1,
                    SpanEvent::StageBegin {
                        stage: Stage::WriteDrain,
                        seq: SEQ_NONE,
                    },
                ),
                span_rec(
                    10,
                    1,
                    SpanEvent::StageBegin {
                        stage: Stage::Encode,
                        seq: 1,
                    },
                ),
                span_rec(20, 1, SpanEvent::Encode { seq: 1 }),
                span_rec(100, 1, SpanEvent::WriteDrain),
            ],
            metas: vec![],
        };
        let json = perfetto_from(&[node]);
        let doc = Json::parse(&json).expect("well-formed");
        let begins = doc["traceEvents"].items().iter();
        let tids: std::collections::HashSet<u64> = begins
            .filter(|e| e["ph"].as_str() == Some("B"))
            .map(|e| e["tid"].as_u64().unwrap())
            .collect();
        assert_eq!(tids.len(), 2, "{json}");
    }
}
