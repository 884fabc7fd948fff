//! Observability harness: per-connection span trees, per-stage latency
//! exposition, and the no-op fast path.
//!
//! The span tests are the executable specification of the O10 trace
//! model: a single COPS-HTTP exchange must produce an exactly-ordered
//! span sequence, a COPS-FTP session a structurally complete one, and a
//! seeded fault plan must never leave an orphaned span tree (every
//! accepted connection's spans start at `Accept` and end at `Close`,
//! reset mid-write included). The exposition tests reconcile the
//! `/server-status` route and the FTP `STAT` report against the exact
//! number of requests driven. The final test pins the O11=No contract:
//! a thousand requests leave zero histogram samples and zero trace
//! detail strings behind.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use nserver_core::diag::DiagHub;
use nserver_core::fault::{self, FaultPlan};
use nserver_core::metrics::MetricsRegistry;
use nserver_core::metrics::Stage;
use nserver_core::options::{Mode, ServerOptions};
use nserver_core::pipeline::{Action, Codec, ConnCtx, ProtocolError, Service};
use nserver_core::profiling::ServerStats;
use nserver_core::server::ServerBuilder;
use nserver_core::trace::{SpanEvent, SEQ_NONE};
use nserver_core::transport::{mem, ReadOutcome, StreamIo};
use nserver_ftp::{cops_ftp_options, FtpCodec, FtpService, UserRegistry, Vfs};
use nserver_http::{
    cops_http_options, text_page, HttpCodec, MemStore, RoutedService, StaticFileService, Status,
};

fn http_request(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: o11y\r\nConnection: close\r\n\r\n").into_bytes()
}

fn write_all(conn: &mut mem::MemStream, data: &[u8], deadline: Instant) -> bool {
    let mut sent = 0;
    while sent < data.len() {
        if Instant::now() > deadline {
            return false;
        }
        match conn.try_write(&data[sent..]) {
            Ok(0) => std::thread::sleep(Duration::from_micros(200)),
            Ok(n) => sent += n,
            Err(_) => return false,
        }
    }
    true
}

/// Read until the connection closes (all exchanges here send
/// `Connection: close`); `None` if the server dropped us mid-stream
/// before any bytes (fault tests tolerate that).
fn read_to_close(conn: &mut mem::MemStream, deadline: Instant) -> Option<Vec<u8>> {
    let mut acc = Vec::new();
    let mut buf = [0u8; 8192];
    loop {
        if Instant::now() > deadline {
            return None;
        }
        match conn.try_read(&mut buf) {
            Err(_) | Ok(ReadOutcome::Closed) => return Some(acc),
            Ok(ReadOutcome::WouldBlock) => std::thread::sleep(Duration::from_micros(200)),
            Ok(ReadOutcome::Data(n)) => acc.extend_from_slice(&buf[..n]),
        }
    }
}

fn wait_for_drain(open: impl Fn() -> usize, patience: Duration) -> bool {
    let deadline = Instant::now() + patience;
    while Instant::now() < deadline {
        if open() == 0 {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

/// One full HTTP exchange (request out, response read to close).
fn closed_exchange(conn: &mut mem::MemStream, path: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(5);
    assert!(write_all(conn, &http_request(path), deadline), "write");
    let bytes = read_to_close(conn, deadline).expect("response before deadline");
    String::from_utf8_lossy(&bytes).into_owned()
}

// ---------------------------------------------------------------------
// Span trees
// ---------------------------------------------------------------------

/// One COPS-HTTP request over the mem transport produces the exact,
/// fully ordered span sequence of the request path. With no file cache
/// the static service defers every read through the Proactor, so the
/// asynchronous completion spans appear too.
#[test]
fn http_exchange_produces_exact_span_sequence() {
    let mut store = MemStore::new();
    store.insert("/a.txt", b"hello observability".to_vec());
    let opts = ServerOptions {
        mode: Mode::Debug,
        profiling: true,
        ..cops_http_options()
    };
    let (listener, connector) = mem::listener("o11y-http-spans");
    let server = ServerBuilder::new(opts, HttpCodec::new(), StaticFileService::new(store, None))
        .unwrap()
        .serve(listener);

    let mut conn = connector.connect();
    let response = closed_exchange(&mut conn, "/a.txt");
    assert!(response.starts_with("HTTP/1.1 200"), "got: {response}");
    assert!(
        wait_for_drain(|| server.open_connections(), Duration::from_secs(5)),
        "connection leaked"
    );

    let all = server.tracer().spans_for(1);
    // The syscall-attribution deltas ride the same ring but their counts
    // depend on transport batching; pin their structure separately.
    let spans: Vec<_> = all
        .iter()
        .copied()
        .filter(|s| !matches!(s, SpanEvent::Syscalls { .. }))
        .collect();
    assert_eq!(
        spans,
        vec![
            SpanEvent::Accept,
            SpanEvent::HeaderRead,
            SpanEvent::StageBegin {
                stage: Stage::Decode,
                seq: SEQ_NONE
            },
            SpanEvent::Decode { seq: 0 },
            SpanEvent::StageBegin {
                stage: Stage::Handle,
                seq: 0
            },
            SpanEvent::Handle { seq: 0 },
            SpanEvent::Defer { seq: 0 },
            SpanEvent::Complete { seq: 0 },
            SpanEvent::StageBegin {
                stage: Stage::Encode,
                seq: 0
            },
            SpanEvent::Encode { seq: 0 },
            SpanEvent::StageBegin {
                stage: Stage::WriteDrain,
                seq: SEQ_NONE
            },
            SpanEvent::WriteDrain,
            SpanEvent::Close,
        ]
    );
    // Exactly one syscall delta for the single request, flushed when the
    // reply drained (before Close), covering at least one read and one
    // write; the connection meta carries the same running totals.
    let sys: Vec<_> = all
        .iter()
        .enumerate()
        .filter_map(|(i, s)| match s {
            SpanEvent::Syscalls { reads, writes } => Some((i, *reads, *writes)),
            _ => None,
        })
        .collect();
    assert_eq!(sys.len(), 1, "{all:?}");
    let (at, reads, writes) = sys[0];
    assert!(reads >= 1 && writes >= 1, "{all:?}");
    assert!(
        all[at + 1..].contains(&SpanEvent::Close),
        "syscall delta must precede Close: {all:?}"
    );
    let meta = server.tracer().conn_meta(1).expect("conn meta retained");
    assert!(meta.trace_id > 0, "process-unique trace id allocated");
    assert_eq!((meta.io_reads, meta.io_writes), (reads, writes));
}

/// A COPS-FTP session's span tree is structurally complete. The exact
/// interleaving is not deterministic — the greeting is written before
/// any read, so a `WriteDrain` may precede `HeaderRead`, and replies
/// can drain in the same reactor pass as the next command's read — but
/// the causal structure must hold: the tree is rooted at `Accept`,
/// terminated by `Close`, and every request seq's Decode → Handle →
/// Encode spans appear in order.
#[test]
fn ftp_session_span_tree_is_structurally_complete() {
    let opts = ServerOptions {
        mode: Mode::Debug,
        profiling: true,
        ..cops_ftp_options()
    };
    let vfs = Arc::new(Vfs::new());
    let users = Arc::new(UserRegistry::new().with_anonymous());
    let (listener, connector) = mem::listener("o11y-ftp-spans");
    let server = ServerBuilder::new(opts, FtpCodec, FtpService::new(vfs, users))
        .unwrap()
        .serve(listener);

    let mut conn = connector.connect();
    let deadline = Instant::now() + Duration::from_secs(5);
    read_line(&mut conn, deadline); // greeting
    for cmd in ["USER anonymous", "PASS guest", "PWD", "QUIT"] {
        assert!(write_all(
            &mut conn,
            format!("{cmd}\r\n").as_bytes(),
            deadline
        ));
        read_line(&mut conn, deadline);
    }
    assert!(
        wait_for_drain(|| server.open_connections(), Duration::from_secs(5)),
        "connection leaked"
    );

    let spans = server.tracer().spans_for(1);
    assert_eq!(spans.first(), Some(&SpanEvent::Accept), "{spans:?}");
    assert_eq!(spans.last(), Some(&SpanEvent::Close), "{spans:?}");
    let count = |e: &SpanEvent| spans.iter().filter(|s| *s == e).count();
    assert_eq!(count(&SpanEvent::HeaderRead), 1, "{spans:?}");
    assert!(count(&SpanEvent::WriteDrain) >= 1, "{spans:?}");
    // Four commands → request seqs 0..=3, each with an in-order
    // Decode < Handle < Encode triple, and seqs opening in order.
    let pos = |e: SpanEvent| {
        spans
            .iter()
            .position(|s| *s == e)
            .unwrap_or_else(|| panic!("missing {e:?} in {spans:?}"))
    };
    let mut last_decode = 0;
    for seq in 0..4u64 {
        let d = pos(SpanEvent::Decode { seq });
        let h = pos(SpanEvent::Handle { seq });
        let e = pos(SpanEvent::Encode { seq });
        assert!(d < h && h < e, "seq {seq} out of order: {spans:?}");
        assert!(d >= last_decode, "seqs opened out of order: {spans:?}");
        last_decode = d;
    }
}

/// Degraded orderings: under a fault plan that resets every connection
/// mid-stream, no span tree is left orphaned — every accepted
/// connection's spans still begin with `Accept` and end with `Close`,
/// whether the exchange completed or was torn down mid-write.
#[test]
fn faulted_connections_never_orphan_their_span_trees() {
    let mut store = MemStore::new();
    store.insert("/a.txt", vec![b'x'; 300]);
    let opts = ServerOptions {
        mode: Mode::Debug,
        profiling: true,
        ..cops_http_options()
    };
    let plan = FaultPlan {
        reset_per_mille: 1000, // every connection draws Reset{after 1..=256 bytes}
        ..FaultPlan::new(7)
    };
    let (listener, connector) = mem::listener("o11y-fault-spans");
    let server = ServerBuilder::new(opts, HttpCodec::new(), StaticFileService::new(store, None))
        .unwrap()
        .serve(fault::layer(listener, plan));

    const CONNS: u64 = 6;
    for _ in 0..CONNS {
        let mut conn = connector.connect();
        let deadline = Instant::now() + Duration::from_secs(3);
        // Tolerant drive: resets drop the connection at an arbitrary
        // point; all we need is for the server to have seen it.
        if write_all(&mut conn, &http_request("/a.txt"), deadline) {
            let _ = read_to_close(&mut conn, deadline);
        }
    }
    assert!(
        wait_for_drain(|| server.open_connections(), Duration::from_secs(5)),
        "faulted connections leaked"
    );

    for conn_id in 1..=CONNS {
        let spans = server.tracer().spans_for(conn_id);
        assert!(!spans.is_empty(), "conn {conn_id}: no spans at all");
        assert_eq!(
            spans.first(),
            Some(&SpanEvent::Accept),
            "conn {conn_id}: {spans:?}"
        );
        assert_eq!(
            spans.last(),
            Some(&SpanEvent::Close),
            "conn {conn_id}: tree not closed: {spans:?}"
        );
        let accepts = spans.iter().filter(|s| **s == SpanEvent::Accept).count();
        let closes = spans.iter().filter(|s| **s == SpanEvent::Close).count();
        assert_eq!((accepts, closes), (1, 1), "conn {conn_id}: {spans:?}");
    }
}

// ---------------------------------------------------------------------
// Exposition
// ---------------------------------------------------------------------

/// `/server-status` reconciles with the requests actually driven: after
/// five page requests, the scrape itself is the sixth decoded request,
/// whose handle stage is still open while the page renders.
#[test]
fn server_status_scrape_reconciles_with_request_counts() {
    let mut store = MemStore::new();
    store.insert("/index.html", b"<html>home</html>".to_vec());
    let hub = DiagHub::new(ServerStats::new_shared(), MetricsRegistry::enabled());
    let service = RoutedService::new(StaticFileService::new(store, None))
        .route("/page", text_page(Status::Ok, |_| "dynamic page".into()))
        .server_status(hub.clone());
    let opts = ServerOptions {
        mode: Mode::Debug,
        profiling: true,
        ..cops_http_options()
    };
    let (listener, connector) = mem::listener("o11y-http-status");
    let server = ServerBuilder::new(opts, HttpCodec::new(), service)
        .unwrap()
        .diag(hub)
        .serve(listener);

    for _ in 0..5 {
        let mut conn = connector.connect();
        let response = closed_exchange(&mut conn, "/page");
        assert!(response.starts_with("HTTP/1.1 200"), "got: {response}");
    }
    let mut conn = connector.connect();
    let scrape = closed_exchange(&mut conn, "/server-status");
    assert!(scrape.starts_with("HTTP/1.1 200"), "got: {scrape}");

    // Counter reconciliation at render time: six connections accepted
    // (five pages + the scrape), six requests past accept→header and
    // decode, but only five past handle — the scrape's own handle stage
    // closes after the page body is produced.
    for needle in [
        "nserver_connections_accepted 6",
        "nserver_stage_latency_us_count{stage=\"accept_to_header\"} 6",
        "nserver_stage_latency_us_count{stage=\"decode\"} 6",
        "nserver_stage_latency_us_count{stage=\"handle\"} 5",
        "nserver_stage_latency_us_count{stage=\"encode\"} 5",
        "nserver_stage_latency_quantile_us{stage=\"handle\",quantile=\"0.5\"}",
        "nserver_stage_latency_quantile_us{stage=\"handle\",quantile=\"0.99\"}",
        "nserver_queue_depth",
    ] {
        assert!(scrape.contains(needle), "missing {needle:?} in:\n{scrape}");
    }
    assert!(
        wait_for_drain(|| server.open_connections(), Duration::from_secs(5)),
        "connections leaked"
    );
}

fn read_line(conn: &mut mem::MemStream, deadline: Instant) -> String {
    let mut acc = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        if acc.windows(2).any(|w| w == b"\r\n") {
            return String::from_utf8_lossy(&acc).into_owned();
        }
        assert!(Instant::now() <= deadline, "ftp read timed out");
        match conn.try_read(&mut buf) {
            Err(e) => panic!("ftp read failed: {e}"),
            Ok(ReadOutcome::Closed) => panic!("ftp connection dropped"),
            Ok(ReadOutcome::WouldBlock) => std::thread::sleep(Duration::from_micros(200)),
            Ok(ReadOutcome::Data(n)) => acc.extend_from_slice(&buf[..n]),
        }
    }
}

fn read_until(conn: &mut mem::MemStream, needle: &str, deadline: Instant) -> String {
    let mut acc = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        if String::from_utf8_lossy(&acc).contains(needle) {
            return String::from_utf8_lossy(&acc).into_owned();
        }
        assert!(
            Instant::now() <= deadline,
            "ftp read timed out waiting for {needle:?}"
        );
        match conn.try_read(&mut buf) {
            Err(e) => panic!("ftp read failed: {e}"),
            Ok(ReadOutcome::Closed) => panic!("ftp connection dropped"),
            Ok(ReadOutcome::WouldBlock) => std::thread::sleep(Duration::from_micros(200)),
            Ok(ReadOutcome::Data(n)) => acc.extend_from_slice(&buf[..n]),
        }
    }
}

/// The FTP `STAT` report carries the same live counters and per-stage
/// quantiles over the control connection, and reconciles with the
/// session's own command count: at render time USER, PASS, PWD and
/// STAT itself have been decoded (4) but only the first three handled.
#[test]
fn ftp_stat_reconciles_with_decoded_commands() {
    let hub = DiagHub::new(ServerStats::new_shared(), MetricsRegistry::enabled());
    let vfs = Arc::new(Vfs::new());
    let users = Arc::new(UserRegistry::new().with_anonymous());
    let service = FtpService::new(vfs, users);
    service.attach_diag(hub.clone());
    let opts = ServerOptions {
        mode: Mode::Debug,
        profiling: true,
        ..cops_ftp_options()
    };
    let (listener, connector) = mem::listener("o11y-ftp-stat");
    let server = ServerBuilder::new(opts, FtpCodec, service)
        .unwrap()
        .diag(hub)
        .serve(listener);

    let mut conn = connector.connect();
    let deadline = Instant::now() + Duration::from_secs(5);
    read_line(&mut conn, deadline); // greeting
    for cmd in ["USER anonymous", "PASS guest", "PWD"] {
        assert!(write_all(
            &mut conn,
            format!("{cmd}\r\n").as_bytes(),
            deadline
        ));
        read_line(&mut conn, deadline);
    }
    assert!(write_all(&mut conn, b"STAT\r\n", deadline));
    let report = read_until(&mut conn, "211 End", deadline);

    assert!(report.starts_with("211-"), "got: {report}");
    for needle in [
        "Live sessions: 1",
        "connections accepted: 1",
        "decode: count=4 p50=",
        "handle: count=3 p50=",
        "p99=",
    ] {
        assert!(report.contains(needle), "missing {needle:?} in:\n{report}");
    }

    assert!(write_all(&mut conn, b"QUIT\r\n", deadline));
    read_line(&mut conn, deadline);
    assert!(
        wait_for_drain(|| server.open_connections(), Duration::from_secs(5)),
        "connection leaked"
    );
}

// ---------------------------------------------------------------------
// No-op fast path (O10 = Production, O11 = No)
// ---------------------------------------------------------------------

struct LineCodec;

impl Codec for LineCodec {
    type Request = String;
    type Response = String;

    fn decode(&self, buf: &mut BytesMut) -> Result<Option<String>, ProtocolError> {
        match buf.iter().position(|&b| b == b'\n') {
            Some(i) => {
                let line = buf.split_to(i + 1);
                Ok(Some(String::from_utf8_lossy(&line[..i]).into_owned()))
            }
            None => Ok(None),
        }
    }

    fn encode(&self, r: &String, out: &mut BytesMut) -> Result<(), ProtocolError> {
        out.extend_from_slice(r.as_bytes());
        out.extend_from_slice(b"\n");
        Ok(())
    }
}

struct Echo;

impl Service<LineCodec> for Echo {
    fn handle(&self, _ctx: &ConnCtx, req: String) -> Action<String> {
        Action::Reply(format!("echo {req}"))
    }
}

/// With observability off (O10 = Production, O11 = No), a thousand
/// requests leave no trace behind: zero histogram samples recorded and
/// zero trace detail strings allocated. This is the regression guard
/// for the no-op fast path — instrumentation must cost nothing when
/// both options are off.
#[test]
fn disabled_observability_records_nothing_across_a_thousand_requests() {
    let opts = ServerOptions {
        mode: Mode::Production,
        profiling: false,
        ..ServerOptions::default()
    };
    let (listener, connector) = mem::listener("o11y-noop");
    let server = ServerBuilder::new(opts, LineCodec, Echo)
        .unwrap()
        .serve(listener);

    let mut conn = connector.connect();
    let deadline = Instant::now() + Duration::from_secs(30);
    const TOTAL: usize = 1_000;
    const BATCH: usize = 100;
    let mut received = 0usize;
    for batch in 0..TOTAL / BATCH {
        let mut out = String::new();
        for i in 0..BATCH {
            out.push_str(&format!("ping {}\n", batch * BATCH + i));
        }
        assert!(write_all(&mut conn, out.as_bytes(), deadline), "write");
        // Drain the batch's echoes before pipelining the next one.
        let mut acc = Vec::new();
        let mut buf = [0u8; 8192];
        while acc.iter().filter(|&&b| b == b'\n').count() < BATCH {
            assert!(Instant::now() <= deadline, "echo batch timed out");
            match conn.try_read(&mut buf) {
                Err(e) => panic!("read failed: {e}"),
                Ok(ReadOutcome::Closed) => panic!("server closed mid-run"),
                Ok(ReadOutcome::WouldBlock) => std::thread::sleep(Duration::from_micros(100)),
                Ok(ReadOutcome::Data(n)) => acc.extend_from_slice(&buf[..n]),
            }
        }
        received += acc.iter().filter(|&&b| b == b'\n').count();
    }
    assert_eq!(received, TOTAL, "every request echoed");
    drop(conn);

    assert_eq!(
        server.metrics().samples_recorded(),
        0,
        "O11=No must record zero histogram samples"
    );
    assert_eq!(server.latency().total_samples(), 0);
    assert_eq!(
        server.tracer().detail_strings(),
        0,
        "O10=Production must allocate zero trace detail strings"
    );
}
