//! CI gate for the timeline export: stand up a traced relay + backend
//! pair, push a pipelined request burst through the relay, then fetch
//! `GET /debug/trace.json` over plain HTTP — exactly as Perfetto's
//! "open trace" dialog would — and validate the payload against the
//! Chrome trace-event schema ([`check_trace_events`], over the tree the
//! one JSON reader parses): well-formed JSON, every `B` paired with a
//! same-name `E` on its lane at a non-earlier timestamp, begin events
//! monotonically timestamped per lane — and, here, the relay and backend
//! lanes correlated into one process.
//!
//! Exits non-zero (panics) on any violation; prints a one-line summary
//! on success.

use std::io::{Read, Write};
use std::net::TcpStream;
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
use nserver_http::{cops_http_options, HttpCodec, MemStore, RoutedService, StaticFileService};

fn wait_for_close(tracer: &DebugTracer, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if tracer
            .dump()
            .iter()
            .any(|r| r.span == Some(SpanEvent::Close))
        {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("{what} never recorded a Close span");
}

fn http_get(addr: &str, path: &str) -> String {
    let mut c = TcpStream::connect(addr).expect("connect failed");
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(
        c,
        "GET {path} HTTP/1.1\r\nHost: ci\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = Vec::new();
    c.read_to_end(&mut raw).expect("read failed");
    let text = String::from_utf8(raw).expect("non-UTF-8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("no header terminator");
    assert!(head.starts_with("HTTP/1.1 200"), "bad status: {head}");
    body.to_string()
}

fn main() {
    let mut store = MemStore::new();
    store.insert("/a.txt".to_string(), b"trace-export alpha".to_vec());
    store.insert("/b.txt".to_string(), b"beta".to_vec());
    let hub = DiagHub::new(ServerStats::new_shared(), MetricsRegistry::enabled());
    let service = RoutedService::new(StaticFileService::new(store, None)).debug_trace(hub.clone());
    let opts = ServerOptions {
        mode: Mode::Debug,
        ..cops_http_options()
    };
    let server = ServerBuilder::new(opts, HttpCodec::new(), service)
        .unwrap()
        .diag(hub.clone())
        .serve(TcpListenerNb::bind("127.0.0.1:0").unwrap());
    let front = ClusterFrontEnd::start_traced(
        TcpListenerNb::bind("127.0.0.1:0").unwrap(),
        vec![server.local_label().to_string()],
        Balancing::RoundRobin,
        RetryPolicy {
            attempts: 3,
            backoff: Duration::from_millis(10),
        },
        DebugTracer::enabled(4096),
    )
    .unwrap();
    hub.add_tracer("relay", front.tracer().clone());

    // The satellite's workload shape: three pipelined requests, the
    // second closing the connection.
    let mut c = TcpStream::connect(front.local_label()).expect("relay connect failed");
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    c.write_all(
        b"GET /a.txt HTTP/1.1\r\nHost: ci\r\n\r\n\
          GET /b.txt HTTP/1.1\r\nHost: ci\r\nConnection: close\r\n\r\n\
          GET /a.txt HTTP/1.1\r\nHost: ci\r\n\r\n",
    )
    .unwrap();
    let mut burst = Vec::new();
    c.read_to_end(&mut burst).unwrap();
    assert!(
        burst.windows(4).filter(|w| w == b"HTTP").count() >= 2,
        "relay served fewer than two responses"
    );
    drop(c);
    wait_for_close(front.tracer(), "relay session");
    wait_for_close(server.tracer(), "backend connection");

    let json = http_get(server.local_label(), "/debug/trace.json");
    let doc = Json::parse(&json).unwrap_or_else(|e| panic!("trace.json is not valid JSON: {e}"));
    let shape = check_trace_events(&doc).unwrap_or_else(|e| panic!("{e}"));
    let pairs = shape.windows.len();
    assert!(pairs > 0, "no duration pairs in the export");
    // Cross-tier correlation: some process carries both a relay lane and
    // a backend server lane.
    let on = |pid: &u64, tier: &str| {
        let mut lanes = shape.lanes.iter();
        lanes.any(|(p, name)| p == pid && name.starts_with(tier))
    };
    let mut pids = shape.pids.iter();
    assert!(
        pids.any(|pid| on(pid, "relay conn") && on(pid, "server conn")),
        "no process carries both relay and server lanes: {:?}",
        shape.lanes
    );

    front.shutdown();
    server.shutdown();
    println!(
        "trace export ok: {} bytes of valid trace-event JSON, {pairs} paired B/E windows, relay+backend correlated",
        json.len()
    );
}
