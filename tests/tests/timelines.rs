//! End-to-end request timelines: the Perfetto assembly exported by a
//! live server must render a *connected* cross-tier story — relay front
//! end, backend pipeline stages and FTP data connections in one merged
//! process — and every trace surface must agree with every other about
//! what was kept and what the ring dropped.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nserver_core::cluster::{Balancing, ClusterFrontEnd, RetryPolicy};
use nserver_core::diag::DiagHub;
use nserver_core::json::Json;
use nserver_core::metrics::MetricsRegistry;
use nserver_core::options::{Mode, ServerOptions};
use nserver_core::profiling::ServerStats;
use nserver_core::server::ServerBuilder;
use nserver_core::trace::{check_trace_events, DebugTracer, SpanEvent};
use nserver_core::transport::TcpListenerNb;
use nserver_ftp::{cops_ftp_options, FtpCodec, FtpService, UserRegistry, Vfs};
use nserver_http::{cops_http_options, HttpCodec, MemStore, StaticFileService};

/// Structural Chrome-trace checks shared by the timeline tests, through
/// the one reader and the exporter's own validator: the export parses,
/// every `B` has a matching same-name `E` at a non-earlier timestamp on
/// its lane, and `B` events on one lane are monotonically timestamped.
/// Returns (pids seen, duration-pair names seen).
fn check_trace_shape(json: &str) -> (Vec<u64>, Vec<String>) {
    let doc = Json::parse(json).unwrap_or_else(|e| panic!("{e}: {json}"));
    let shape = check_trace_events(&doc).unwrap_or_else(|e| panic!("{e}: {json}"));
    (shape.pids, shape.windows)
}

fn wait_for_close(tracer: &DebugTracer, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        let closed = tracer
            .dump()
            .iter()
            .any(|r| r.span == Some(SpanEvent::Close));
        if closed {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("{what} never recorded a Close span");
}

/// Three pipelined requests through a traced relay, the second carrying
/// `Connection: close`: the hub's Perfetto export must merge the relay
/// session and the backend connection into one process (one timeline),
/// with paired stage windows — and tracing must not perturb a single
/// response byte relative to a direct, untraced connection.
#[test]
fn relayed_pipelined_http_assembles_one_connected_timeline() {
    let mut store = MemStore::new();
    store.insert("/a.txt".to_string(), b"alpha-contents".to_vec());
    store.insert("/b.txt".to_string(), b"beta".to_vec());
    let opts = ServerOptions {
        mode: Mode::Debug,
        ..cops_http_options()
    };
    let server = ServerBuilder::new(opts, HttpCodec::new(), StaticFileService::new(store, None))
        .unwrap()
        .serve(TcpListenerNb::bind("127.0.0.1:0").unwrap());
    let backend = server.local_label().to_string();
    let front = ClusterFrontEnd::start_traced(
        TcpListenerNb::bind("127.0.0.1:0").unwrap(),
        vec![backend.clone()],
        Balancing::RoundRobin,
        RetryPolicy {
            attempts: 3,
            backoff: Duration::from_millis(10),
        },
        DebugTracer::enabled(1024),
    )
    .unwrap();

    let pipeline = b"GET /a.txt HTTP/1.1\r\nHost: t\r\n\r\n\
                     GET /b.txt HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n\
                     GET /a.txt HTTP/1.1\r\nHost: t\r\n\r\n";
    let drive = |addr: &str| -> Vec<u8> {
        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        c.write_all(pipeline).unwrap();
        let mut out = Vec::new();
        c.read_to_end(&mut out).unwrap();
        out
    };
    let relayed = drive(front.local_label());
    assert!(
        relayed.windows(4).filter(|w| w == b"HTTP").count() >= 2,
        "both pre-close responses must arrive"
    );

    wait_for_close(front.tracer(), "relay session");
    wait_for_close(server.tracer(), "backend connection");
    server.diag().add_tracer("relay", front.tracer().clone());
    let json = server.diag().perfetto_json();
    let (pids, names) = check_trace_shape(&json);
    // Correlation: the relay lane's dial link matches the backend lane's
    // peer label, so the whole request rides under ONE Perfetto process.
    let mut distinct = pids.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(
        distinct.len(),
        1,
        "relay and backend lanes failed to merge: pids {distinct:?}\n{json}"
    );
    // Both tiers contributed lanes to that process.
    assert!(json.contains("relay conn"), "{json}");
    assert!(json.contains("server conn"), "{json}");
    // The backend pipeline rendered real stage windows: two requests
    // decoded, handled, encoded; the accept and drain envelopes around
    // them.
    for want in ["accept_to_header", "handle", "encode", "write_drain"] {
        assert!(
            names.iter().any(|n| n == want),
            "missing {want} window in {names:?}"
        );
    }
    assert!(
        names.iter().filter(|n| *n == "decode").count() >= 2,
        "both pipelined requests must decode: {names:?}"
    );
    assert!(json.contains("syscalls_total"), "{json}");

    // Differential arm: the same pipeline against the backend directly
    // (after the timeline capture, so its connection stays out of the
    // assembly) must yield byte-identical responses — tracing observes,
    // never interferes.
    let direct = drive(&backend);
    assert_eq!(
        relayed, direct,
        "tracing the relay changed client-observable bytes"
    );

    front.shutdown();
    server.shutdown();
}

/// An FTP RETR over PASV: the data connection's transfer window must land
/// on the control session's timeline (the `DataParent` join), carrying
/// its transfer ordinal.
#[test]
fn ftp_retr_over_pasv_joins_data_conn_to_control_timeline() {
    let vfs = Arc::new(Vfs::new());
    vfs.mkdir("/pub");
    vfs.write("/pub/a.txt", b"timeline payload".to_vec());
    let users = Arc::new(UserRegistry::new().with_anonymous());
    users.add_user("alice", "secret");
    let svc = FtpService::new(vfs, users);
    let hub = DiagHub::new(ServerStats::new_shared(), MetricsRegistry::enabled());
    svc.attach_diag(hub.clone());
    let opts = ServerOptions {
        mode: Mode::Debug,
        ..cops_ftp_options()
    };
    let server = ServerBuilder::new(opts, FtpCodec, svc)
        .unwrap()
        .diag(hub.clone())
        .serve(TcpListenerNb::bind("127.0.0.1:0").unwrap());
    let addr = server.local_label().to_string();

    let stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut reply = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    };
    assert!(reply().starts_with("220"));
    writer.write_all(b"USER alice\r\n").unwrap();
    assert!(reply().starts_with("331"));
    writer.write_all(b"PASS secret\r\n").unwrap();
    assert!(reply().starts_with("230"));
    writer.write_all(b"CWD /pub\r\n").unwrap();
    assert!(reply().starts_with("250"));
    writer.write_all(b"PASV\r\n").unwrap();
    let pasv = reply();
    assert!(pasv.starts_with("227"), "{pasv}");
    let inner = pasv.split('(').nth(1).unwrap().split(')').next().unwrap();
    let nums: Vec<u16> = inner
        .split(',')
        .map(|n| n.trim().parse().unwrap())
        .collect();
    let port = (nums[4] << 8) | nums[5];
    let mut data = TcpStream::connect(("127.0.0.1", port)).unwrap();
    writer.write_all(b"RETR a.txt\r\n").unwrap();
    assert!(reply().starts_with("150"));
    let mut payload = Vec::new();
    data.read_to_end(&mut payload).unwrap();
    assert_eq!(payload, b"timeline payload");
    assert!(reply().starts_with("226"));
    writer.write_all(b"QUIT\r\n").unwrap();
    assert!(reply().starts_with("221"));
    drop(writer);
    drop(reader);

    wait_for_close(server.tracer(), "control connection");
    let json = hub.perfetto_json();
    let (pids, names) = check_trace_shape(&json);
    let mut distinct = pids;
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), 1, "one session, one process: {json}");
    // The transfer window rides the control lane, joined by ordinal.
    assert!(
        names.iter().any(|n| n == "data_transfer"),
        "RETR produced no data_transfer window: {names:?}"
    );
    let events = Json::parse(&json).unwrap();
    let mut events = events["traceEvents"].items().iter();
    assert!(
        events.any(|e| e["args"]["ordinal"].as_u64() == Some(1)),
        "{json}"
    );
    // The control pipeline's own stages are on the same timeline.
    assert!(names.iter().any(|n| n == "decode"), "{names:?}");
    server.shutdown();
}

/// Ring overflow must reconcile across every exposition surface: the
/// tracer's own counter, the flight-recorder snapshot JSON, and the
/// Prometheus dropped-spans family all report the same number.
#[test]
fn trace_ring_overflow_reconciles_across_all_surfaces() {
    let hub = DiagHub::new(ServerStats::new_shared(), MetricsRegistry::enabled());
    let tracer = DebugTracer::enabled(8);
    hub.wire_tracer(tracer.clone());
    tracer.conn_open(1, "client:1");
    for seq in 0..100 {
        tracer.span(SpanEvent::Complete { seq }, 1);
    }
    let dropped = tracer.dropped();
    assert!(dropped > 0, "100 spans through an 8-slot ring must drop");

    let snapshot = hub.capture("overflow-reconciliation").to_json();
    let tree = Json::parse(&snapshot).expect("well-formed snapshot");
    assert_eq!(
        tree["trace"]["dropped"].as_u64(),
        Some(dropped),
        "snapshot disagrees with tracer ({dropped} dropped): {snapshot}"
    );
    let prom = hub.prometheus();
    assert!(
        prom.lines()
            .any(|l| l == format!("nserver_trace_dropped_spans {dropped}")),
        "prometheus disagrees with tracer ({dropped} dropped):\n{prom}"
    );
}
