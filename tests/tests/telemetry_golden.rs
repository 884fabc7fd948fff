//! Same bytes: every operator surface, built from a synthetic, clock-free
//! input, reproduces the fixture the parent commit's own functions wrote
//! from that input (`tests/fixtures/telemetry/`, whose README carries the
//! program that wrote them and how to re-run it at that commit).
//!
//! The input: fixed counters, a five-stage registry fed fixed samples
//! (one in the 64th bucket), two worker rows, three trace records — one
//! free-form with a quote, a newline, a tab and a control character —
//! and every optional group once absent (`*_bare`) and once present
//! (`*_full`); for the trace export, two hand-built linked trace nodes.

use std::path::Path;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use nserver_core::diag::{DiagHub, DiagSnapshot, WorkerActivity, WorkerRole, WorkerSample};
use nserver_core::event::{EventKind, Priority};
use nserver_core::metrics::{CacheSample, MetricsRegistry, OverloadSample, Sample, Stage};
use nserver_core::pipeline::{Action, ConnCtx, Service};
use nserver_core::profiling::ServerStats;
use nserver_core::trace::{
    perfetto_from, ConnMeta, SpanEvent, StageSelfTime, TraceNode, TraceRecord, SEQ_NONE,
};
use nserver_core::transport::SyscallSnapshot;
use nserver_ftp::{Command, FtpRequest, FtpService, UserRegistry, Vfs};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/telemetry");
    let path = path.join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn fixed_stats() -> Arc<ServerStats> {
    let s = ServerStats::new_shared();
    for (counter, v) in [
        (&s.connections_accepted, 7),
        (&s.connections_closed, 5),
        (&s.connections_idle_closed, 1),
        (&s.bytes_read, 4096),
        (&s.bytes_sent, 65536),
        (&s.requests_decoded, 42),
        (&s.responses_sent, 41),
        (&s.events_dispatched, 99),
        (&s.dispatcher_wakeups, 120),
        (&s.blocking_ops, 3),
        (&s.accepts_deferred, 2),
        (&s.protocol_errors, 1),
        (&s.connections_reset, 1),
        (&s.connections_timed_out, 1),
        (&s.accept_errors, 0),
        (&s.handler_panics, 2),
        (&s.connections_lingered, 4),
        (&s.linger_reaped, 1),
    ] {
        counter.store(v, Relaxed);
    }
    s
}

fn fixed_metrics() -> Arc<MetricsRegistry> {
    let m = MetricsRegistry::enabled();
    for (i, stage) in Stage::ALL.into_iter().enumerate() {
        for us in [0, 1, 5, 40, 300 * (i as u64 + 1)] {
            m.record_stage(stage, us);
        }
    }
    m.record_stage(Stage::Handle, 1 << 63); // the 64th bucket
    for us in [3, 70, 900] {
        m.record_queue_wait(us);
    }
    m.observe_queue_depth(100);
    m.observe_queue_depth(4);
    m
}

fn span_rec(at_us: u64, conn: u64, span: SpanEvent) -> TraceRecord {
    TraceRecord {
        at_us,
        kind: span.kind(),
        conn: Some(conn),
        span: Some(span),
        detail: String::new(),
    }
}

fn free_rec(at_us: u64, conn: Option<u64>, detail: &str) -> TraceRecord {
    TraceRecord {
        at_us,
        kind: EventKind::Timer,
        conn,
        span: None,
        detail: detail.to_string(),
    }
}

/// Every optional group absent: what a hub with nothing wired samples.
fn bare_snapshot() -> DiagSnapshot {
    DiagSnapshot {
        seq: 1,
        reason: "on_demand".into(),
        at_us: 17,
        sample: Sample::default(),
        recent_trace: Vec::new(),
        stage_self: Default::default(),
    }
}

/// Every optional group present.
fn full_snapshot() -> DiagSnapshot {
    let workers = vec![
        WorkerSample {
            slot: 0,
            role: WorkerRole::Dispatcher,
            activity: WorkerActivity::Idle,
        },
        WorkerSample {
            slot: 2,
            role: WorkerRole::Worker,
            activity: WorkerActivity::Running {
                stage: Stage::Handle,
                conn: 7,
                busy_us: 1234,
            },
        },
    ];
    let sample = Sample {
        stats: fixed_stats().snapshot(),
        latency: fixed_metrics().latency_snapshot(),
        queue_len: 6,
        queue_waiters: 2,
        trace_dropped: 11,
        cache: Some(CacheSample {
            hits: 5,
            misses: 2,
            evictions: 1,
            rejected: 0,
            coalesced_waits: 3,
            used_bytes: 1024,
            capacity_bytes: 1 << 20,
        }),
        overload: Some(OverloadSample {
            paused: true,
            pauses: 2,
            resumes: 1,
        }),
        workers: Some(workers),
        watchdog_triggers: 3,
        snapshots: 4,
        syscalls: Some(SyscallSnapshot {
            reads: 10,
            writes: 9,
            accepts: 8,
            polls: 7,
            wakes: 6,
        }),
    };
    let self_time = |windows, self_us| StageSelfTime { windows, self_us };
    let syscalls = SpanEvent::Syscalls {
        reads: 2,
        writes: 1,
    };
    DiagSnapshot {
        seq: 4,
        reason: "worker_stuck slot=2 \"quoted\" back\\slash".into(),
        at_us: 123_456,
        sample,
        recent_trace: vec![
            span_rec(10, 7, SpanEvent::Decode { seq: 3 }),
            span_rec(20, 7, syscalls),
            free_rec(30, None, "say \"hi\"\nbye\ttab\u{1}"),
        ],
        stage_self: [
            self_time(1, 15),
            self_time(2, 30),
            self_time(2, 400),
            self_time(2, 25),
            self_time(1, 70),
        ],
    }
}

/// A relay connection linked to a backend connection that serves one
/// request with a data transfer inside its handle stage, plus a
/// connection the backend knows only from its records.
fn trace_nodes() -> Vec<TraceNode> {
    let begin = |stage, seq| SpanEvent::StageBegin { stage, seq };
    let meta = |trace_id, peer: &str, links: &[&str], (io_reads, io_writes)| ConnMeta {
        trace_id,
        peer: peer.into(),
        links: links.iter().map(|l| l.to_string()).collect(),
        io_reads,
        io_writes,
    };
    let relay = TraceNode {
        label: "relay".into(),
        records: vec![
            span_rec(10, 1, SpanEvent::Accept),
            free_rec(15, Some(1), "dial \"backend\"\nretry 1"),
            span_rec(90, 1, SpanEvent::Close),
        ],
        metas: vec![(1, meta(1, "client:1", &["127.0.0.1:50000"], (2, 2)))],
    };
    let syscalls = SpanEvent::Syscalls {
        reads: 5,
        writes: 4,
    };
    let backend = TraceNode {
        label: "server".into(),
        records: vec![
            span_rec(20, 3, SpanEvent::Accept),
            span_rec(30, 3, SpanEvent::HeaderRead),
            span_rec(31, 3, begin(Stage::Decode, SEQ_NONE)),
            span_rec(40, 3, SpanEvent::Decode { seq: 0 }),
            span_rec(41, 3, begin(Stage::Handle, 0)),
            span_rec(45, 3, SpanEvent::DataOpen { ordinal: 1 }),
            span_rec(55, 3, SpanEvent::DataClose { ordinal: 1 }),
            span_rec(60, 3, SpanEvent::Handle { seq: 0 }),
            span_rec(61, 3, begin(Stage::WriteDrain, SEQ_NONE)),
            span_rec(62, 3, begin(Stage::Encode, 0)),
            span_rec(64, 3, SpanEvent::Encode { seq: 0 }),
            span_rec(70, 3, syscalls),
            span_rec(75, 3, SpanEvent::WriteDrain),
            span_rec(80, 3, SpanEvent::Close),
            span_rec(85, 9, SpanEvent::Complete { seq: 2 }), // no metadata
        ],
        metas: vec![(3, meta(2, "127.0.0.1:50000", &[], (5, 4)))],
    };
    vec![relay, backend]
}

/// The body of an argument-less `STAT` on a service attached to `hub`.
fn ftp_stat(hub: DiagHub) -> String {
    let users = Arc::new(UserRegistry::new().with_anonymous());
    let svc = FtpService::new(Arc::new(Vfs::new()), users);
    svc.attach_diag(hub);
    let ctx = ConnCtx {
        id: 1,
        peer: "fixture".into(),
        priority: Priority::HIGHEST,
    };
    svc.on_open(&ctx);
    let mut last = String::new();
    for line in ["USER anonymous", "PASS guest", "STAT"] {
        let cmd = Command::parse(line).unwrap();
        last = match svc.handle(&ctx, FtpRequest::Command(cmd)) {
            Action::Reply(r) => r,
            other => panic!("{other:?}"),
        };
    }
    last
}

#[track_caller]
fn assert_same_bytes(name: &str, ours: &str) {
    let theirs = fixture(name);
    assert!(
        ours == theirs,
        "{name} differs from the parent's bytes\n--- ours ---\n{ours}\n--- fixture ---\n{theirs}"
    );
}

#[test]
fn every_surface_reproduces_the_parents_bytes() {
    // `/server-status`: a hub with nothing wired, and a full sample.
    let bare_hub = DiagHub::new(ServerStats::new_shared(), MetricsRegistry::enabled());
    assert_same_bytes("server_status_bare.txt", &bare_hub.prometheus());
    let full = full_snapshot();
    let fed_hub = DiagHub::new(ServerStats::new_shared(), MetricsRegistry::enabled());
    let sample = full.sample.clone();
    fed_hub.register(move |s| *s = sample.clone());
    assert_same_bytes("server_status_full.txt", &fed_hub.prometheus());

    // `/debug/snapshot`, `SITE DUMP`, the snapshot file.
    assert_same_bytes("snapshot_bare.json", &bare_snapshot().to_json());
    assert_same_bytes("snapshot_full.json", &full.to_json());

    // The profiling report and FTP `STAT`.
    assert_same_bytes("render.txt", &full.sample.stats.render());
    let hub = DiagHub::new(fixed_stats(), fixed_metrics());
    assert_same_bytes("stat.txt", &ftp_stat(hub));

    // `/debug/trace.json`, `SITE TRACE`.
    assert_same_bytes("trace.json", &perfetto_from(&trace_nodes()));
}
