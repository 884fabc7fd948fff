//! COPS-HTTP — the paper's flagship generated application: a static web
//! server with the full Table 1 configuration (asynchronous completions
//! through the Proactor helper pool, a 20 MB LRU file cache, a static
//! worker pool).
//!
//! The demo builds a small SpecWeb99-style site in memory, serves it over
//! loopback TCP, fetches a handful of pages twice (so the second pass
//! hits the cache), scrapes the `/server-status` and `/debug/snapshot`
//! observability routes, and prints the profiling counters and cache
//! hit rate.
//!
//! Run: `cargo run -p nserver-examples --bin web_server` for the
//! self-driving demo, or with `--serve` to keep serving until killed
//! (then `curl http://ADDR/server-status` to watch the live counters,
//! or point `nserver_top` at the address for the dashboard view).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use nserver_cache::{FileCache, PolicyKind, SharedFileCache};
use nserver_core::diag::{DiagHub, WatchdogConfig};
use nserver_core::json::Json;
use nserver_core::metrics::MetricsRegistry;
use nserver_core::prelude::*;
use nserver_core::profiling::ServerStats;
use nserver_core::server::ServerBuilder;
use nserver_http::preset::COPS_HTTP_CACHE_BYTES;
use nserver_http::service::cache_stats_provider;
use nserver_http::{cops_http_options, HttpCodec, MemStore, RoutedService, StaticFileService};
use nserver_specweb::FileSet;

fn fetch(client: &mut TcpStream, path: &str) -> (u16, usize) {
    let req = format!("GET {path} HTTP/1.1\r\nHost: demo\r\n\r\n");
    client.write_all(req.as_bytes()).unwrap();
    let mut head = Vec::new();
    let mut buf = [0u8; 4096];
    // Read until we have the full head, then the declared body length.
    let (status, body_len, mut body_got);
    loop {
        let n = client.read(&mut buf).unwrap();
        assert!(n > 0, "server closed early");
        head.extend_from_slice(&buf[..n]);
        if let Some(pos) = head.windows(4).position(|w| w == b"\r\n\r\n") {
            let text = String::from_utf8_lossy(&head[..pos]).to_string();
            let code: u16 = text.split(' ').nth(1).unwrap().parse().unwrap();
            let len: usize = text
                .lines()
                .find(|l| l.to_ascii_lowercase().starts_with("content-length"))
                .and_then(|l| l.split(':').nth(1))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0);
            body_got = head.len() - (pos + 4);
            status = code;
            body_len = len;
            break;
        }
    }
    while body_got < body_len {
        let n = client.read(&mut buf).unwrap();
        assert!(n > 0, "server closed mid-body");
        body_got += n;
    }
    (status, body_len)
}

/// Fetch `path` on a fresh connection and return the response body.
fn scrape(addr: &str, path: &str) -> String {
    let mut client = TcpStream::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let req = format!("GET {path} HTTP/1.1\r\nHost: demo\r\nConnection: close\r\n\r\n");
    client.write_all(req.as_bytes()).unwrap();
    let mut raw = Vec::new();
    client.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
    body.to_string()
}

fn main() {
    // A one-directory SpecWeb99 site (36 files, ~5 MB), held in memory.
    let fileset = FileSet::with_dirs(1);
    let mut store = MemStore::new();
    for spec in fileset.files() {
        store.insert(spec.path(), fileset.synth_content(spec));
    }
    println!(
        "site: {} files, {} bytes",
        fileset.files().len(),
        fileset.total_bytes()
    );

    // The template options of Table 1's COPS-HTTP column with O11 on;
    // the file cache object is the O6 machinery with LRU enforced.
    let options = ServerOptions {
        profiling: true,
        ..cops_http_options()
    };
    let cache = SharedFileCache::new(FileCache::new(COPS_HTTP_CACHE_BYTES, PolicyKind::Lru));
    // One diagnostics hub shared between the server (which counts into
    // it and feeds it the worker table, queue gauges and tracer), the
    // file cache and the two observability routes, so both pages reflect
    // the live server.
    let hub = DiagHub::new(ServerStats::new_shared(), MetricsRegistry::enabled());
    hub.register(cache_stats_provider(cache.clone()));
    let service = RoutedService::new(StaticFileService::new(store, Some(cache.clone())))
        .server_status(hub.clone())
        .debug_snapshot(hub.clone());
    let server = ServerBuilder::new(options, HttpCodec::new(), service)
        .expect("valid options")
        .helper_threads(4)
        .diag(hub)
        .watchdog(WatchdogConfig::default())
        .serve(TcpListenerNb::bind("127.0.0.1:0").expect("bind"));
    let addr = server.local_label().to_string();
    println!("COPS-HTTP listening on {addr}");

    if std::env::args().any(|a| a == "--serve") {
        println!("serving until killed (--serve mode)");
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }

    let mut client = TcpStream::connect(&addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    let paths: Vec<String> = fileset.files().iter().take(8).map(|f| f.path()).collect();
    for round in 0..2 {
        for path in &paths {
            let (status, len) = fetch(&mut client, path);
            assert_eq!(status, 200);
            if round == 0 {
                println!("GET {path} -> {status} ({len} bytes)");
            }
        }
    }
    let (status, _) = fetch(&mut client, "/no/such/file");
    println!("GET /no/such/file -> {status}");
    assert_eq!(status, 404);

    // Scrape the observability routes: Prometheus-text counters plus the
    // O11 latency histograms, then a flight-recorder snapshot, straight
    // off the live server.
    let page = scrape(&addr, "/server-status");
    let quantiles: Vec<&str> = page
        .lines()
        .filter(|l| l.contains("quantile") && !l.starts_with('#'))
        .collect();
    println!("\n/server-status latency quantiles:");
    for line in &quantiles {
        println!("  {line}");
    }
    assert!(page.contains("nserver_connections_accepted"));
    assert!(page.contains("nserver_stage_latency_us_count{stage=\"handle\"}"));
    assert!(page.contains("nserver_cache_hits"));
    assert_eq!(
        quantiles.len(),
        12,
        "p50+p99 for each of the five stages plus queue wait"
    );

    let snap = scrape(&addr, "/debug/snapshot");
    let tree = Json::parse(&snap).expect("well-formed snapshot");
    assert_eq!(tree["reason"].as_str(), Some("http_on_demand"));
    assert!(!tree["workers"].items().is_empty());
    println!("/debug/snapshot: {} bytes of JSON", snap.len());

    let stats = server.stats();
    println!(
        "\nprofiling: {} requests, {} responses, {} bytes sent, {} blocking ops",
        stats.requests_decoded, stats.responses_sent, stats.bytes_sent, stats.blocking_ops
    );
    let cs = cache.stats();
    println!(
        "file cache: {} hits / {} misses (hit rate {:.0}%)",
        cs.hits,
        cs.misses,
        cs.hit_rate() * 100.0
    );
    assert!(cs.hits >= paths.len() as u64, "second pass must hit");
    server.shutdown();
    println!("web server OK");
}
