//! Flight-recorder diagnostics: watchdog quiescence under healthy load,
//! snapshot/exposition reconciliation over both protocols, and a strict
//! grammar check of the full Prometheus text exposition.
//!
//! The steady-state test is the watchdog's false-positive contract: a
//! thousand served requests under an armed watchdog must produce zero
//! triggers and zero snapshots. Every surface is a projection of one
//! sample, so one reconciliation test walks the sample's rows across all
//! of them — Prometheus text, snapshot JSON, FTP `STAT`, the profiling
//! report; the two end-to-end tests keep the operator's view —
//! `/debug/snapshot` against `/server-status`, FTP `SITE DUMP` against
//! `STAT` — read through the one JSON reader. The grammar test parses
//! every line of a traffic-serving server's exposition under the
//! Prometheus text-format rules.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use nserver_cache::{PolicyKind, SharedFileCache};
use nserver_core::diag::{DiagHub, WatchdogConfig};
use nserver_core::event::Priority;
use nserver_core::json::Json;
use nserver_core::metrics::MetricsRegistry;
use nserver_core::options::{Mode, OverloadControl, ServerOptions};
use nserver_core::pipeline::{Action, Codec, ConnCtx, ProtocolError, Service};
use nserver_core::profiling::{Kind, ServerStats};
use nserver_core::server::{ServerBuilder, ServerHandle};
use nserver_core::transport::{mem, ReadOutcome, StreamIo};
use nserver_ftp::{cops_ftp_options, Command, FtpCodec, FtpRequest, FtpService, UserRegistry, Vfs};
use nserver_http::service::cache_stats_provider;
use nserver_http::{
    cops_http_options, text_page, HttpCodec, MemStore, RoutedService, StaticFileService, Status,
};

fn http_request(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: diag\r\nConnection: close\r\n\r\n").into_bytes()
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

fn read_to_close(conn: &mut mem::MemStream, deadline: Instant) -> Vec<u8> {
    let mut acc = Vec::new();
    let mut buf = [0u8; 8192];
    loop {
        assert!(Instant::now() <= deadline, "read timed out");
        match conn.try_read(&mut buf) {
            Err(_) | Ok(ReadOutcome::Closed) => return acc,
            Ok(ReadOutcome::WouldBlock) => std::thread::sleep(Duration::from_micros(200)),
            Ok(ReadOutcome::Data(n)) => acc.extend_from_slice(&buf[..n]),
        }
    }
}

/// One full HTTP exchange; returns the response body (after the blank
/// line), asserting a 200 status.
fn get_body(connector: &mem::MemConnector, path: &str) -> String {
    let mut conn = connector.connect();
    let deadline = Instant::now() + Duration::from_secs(5);
    assert!(write_all(&mut conn, &http_request(path), deadline));
    let raw = read_to_close(&mut conn, deadline);
    let text = String::from_utf8_lossy(&raw).into_owned();
    assert!(text.starts_with("HTTP/1.1 200"), "got: {text}");
    let at = text.find("\r\n\r\n").expect("header terminator");
    text[at + 4..].to_string()
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
            "read timed out waiting for {needle:?}"
        );
        match conn.try_read(&mut buf) {
            Err(e) => panic!("read failed: {e}"),
            Ok(ReadOutcome::Closed) => panic!("connection dropped"),
            Ok(ReadOutcome::WouldBlock) => std::thread::sleep(Duration::from_micros(200)),
            Ok(ReadOutcome::Data(n)) => acc.extend_from_slice(&buf[..n]),
        }
    }
}

// ---------------------------------------------------------------------
// Steady state: no spurious triggers
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

/// A thousand healthy requests under an armed watchdog (fast ticks, all
/// four invariants live) must produce zero triggers and zero snapshots —
/// the false-positive contract. An idle tail lets the liveness ping
/// cycle run many times against a healthy dispatcher.
#[test]
fn steady_state_traffic_never_triggers_the_watchdog() {
    let opts = ServerOptions {
        mode: Mode::Debug,
        profiling: true,
        overload_control: OverloadControl::Watermark { high: 512, low: 8 },
        ..ServerOptions::default()
    };
    let (listener, connector) = mem::listener("diag-steady");
    let server = ServerBuilder::new(opts, LineCodec, Echo)
        .unwrap()
        .watchdog(WatchdogConfig {
            tick: Duration::from_millis(2),
            stuck_ceiling: Duration::from_secs(1),
            p99_slo_us: Some(5_000_000),
            ..Default::default()
        })
        .serve(listener);

    let mut conn = connector.connect();
    let deadline = Instant::now() + Duration::from_secs(30);
    const TOTAL: usize = 1_000;
    const BATCH: usize = 100;
    for batch in 0..TOTAL / BATCH {
        let mut out = String::new();
        for i in 0..BATCH {
            out.push_str(&format!("ping {}\n", batch * BATCH + i));
        }
        assert!(write_all(&mut conn, out.as_bytes(), deadline));
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
    }
    drop(conn);
    // Idle tail: dozens of watchdog ticks with nothing happening, so the
    // liveness invariant judges a quiet-but-healthy dispatcher.
    std::thread::sleep(Duration::from_millis(100));

    assert!(!server.watchdog_fired(), "spurious watchdog trigger");
    assert_eq!(server.diag().watchdog_triggers(), 0);
    assert_eq!(
        server.diag().snapshots_captured(),
        0,
        "healthy load must capture no snapshots"
    );
    server.shutdown();
}

// ---------------------------------------------------------------------
// Reconciliation: JSON snapshot vs text expositions
// ---------------------------------------------------------------------

fn snapshot_tree(json: &str) -> Json {
    Json::parse(json).unwrap_or_else(|e| panic!("snapshot is not JSON ({e}):\n{json}"))
}

/// Whether the snapshot's worker table shows a thread running the handle
/// stage for connection `conn`.
fn names_handling_worker(snapshot: &Json, conn: u64) -> bool {
    snapshot["workers"].items().iter().any(|w| {
        w["state"].as_str() == Some("running")
            && w["stage"].as_str() == Some("handle")
            && w["conn"].as_u64() == Some(conn)
    })
}

/// `/debug/snapshot` must reconcile with `/server-status`: the same
/// counters, one connection apart (each scrape is itself a connection).
/// The snapshot's worker table must show the worker capturing it,
/// running the handle stage on the scrape's own connection.
#[test]
fn http_snapshot_reconciles_with_server_status() {
    let mut store = MemStore::new();
    store.insert("/index.html", b"<html>home</html>".to_vec());
    let hub = DiagHub::new(ServerStats::new_shared(), MetricsRegistry::enabled());
    let service = RoutedService::new(StaticFileService::new(store, None))
        .route("/page", text_page(Status::Ok, |_| "dynamic page".into()))
        .server_status(hub.clone())
        .debug_snapshot(hub.clone());
    let opts = ServerOptions {
        mode: Mode::Debug,
        profiling: true,
        ..cops_http_options()
    };
    let (listener, connector) = mem::listener("diag-http-reconcile");
    let server = ServerBuilder::new(opts, HttpCodec::new(), service)
        .unwrap()
        .diag(hub)
        .serve(listener);

    for _ in 0..5 {
        assert_eq!(get_body(&connector, "/page"), "dynamic page");
    }
    // Scrape six: the Prometheus text surface.
    let status = get_body(&connector, "/server-status");
    for needle in [
        "nserver_connections_accepted 6",
        "nserver_requests_decoded 6",
        "nserver_stage_latency_us_count{stage=\"handle\"} 5",
    ] {
        assert!(status.contains(needle), "missing {needle:?} in:\n{status}");
    }
    // Scrape seven: the JSON snapshot, captured while its own handle
    // stage is open — so counters run one connection ahead of scrape six
    // and the worker table names the capturing worker.
    let snapshot = snapshot_tree(&get_body(&connector, "/debug/snapshot"));
    assert_eq!(snapshot["reason"].as_str(), Some("http_on_demand"));
    assert_eq!(
        snapshot["counters"]["connections_accepted"].as_u64(),
        Some(7)
    );
    assert_eq!(snapshot["counters"]["requests_decoded"].as_u64(), Some(7));
    assert!(names_handling_worker(&snapshot, 7), "{snapshot}");
    assert_eq!(snapshot["watchdog"]["triggers"].as_u64(), Some(0));
    // `?latest` replays the stored capture instead of taking a new one.
    let replay = snapshot_tree(&get_body(&connector, "/debug/snapshot?latest"));
    assert_eq!(replay, snapshot, "replay drifted");
    assert_eq!(server.diag().snapshots_captured(), 1);
    server.shutdown();
}

/// FTP `SITE DUMP` must reconcile with `STAT` over the same session:
/// STAT renders at four decoded commands, the dump (command five) shows
/// five, and both report the single control connection.
#[test]
fn ftp_site_dump_reconciles_with_stat() {
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
    let (listener, connector) = mem::listener("diag-ftp-reconcile");
    let server = ServerBuilder::new(opts, FtpCodec, service)
        .unwrap()
        .diag(hub)
        .serve(listener);

    let mut conn = connector.connect();
    let deadline = Instant::now() + Duration::from_secs(5);
    read_until(&mut conn, "220", deadline); // greeting
    for (cmd, code) in [
        ("USER anonymous", "331"),
        ("PASS guest", "230"),
        ("PWD", "257"),
    ] {
        assert!(write_all(
            &mut conn,
            format!("{cmd}\r\n").as_bytes(),
            deadline
        ));
        read_until(&mut conn, code, deadline);
    }
    assert!(write_all(&mut conn, b"STAT\r\n", deadline));
    let stat = read_until(&mut conn, "211 End", deadline);
    assert!(stat.contains("connections accepted: 1"), "STAT:\n{stat}");
    assert!(stat.contains("decode: count=4"), "STAT:\n{stat}");

    assert!(write_all(&mut conn, b"SITE DUMP\r\n", deadline));
    let dump = read_until(&mut conn, "211 End", deadline);
    // The snapshot rides as the one body line of the 211 reply.
    let dump = snapshot_tree(dump.lines().nth(1).expect("a body line").trim_start());
    assert_eq!(dump["reason"].as_str(), Some("ftp_site_dump"));
    assert_eq!(dump["counters"]["connections_accepted"].as_u64(), Some(1));
    assert_eq!(dump["counters"]["requests_decoded"].as_u64(), Some(5));
    assert!(names_handling_worker(&dump, 1), "{dump}");
    assert_eq!(server.diag().snapshots_captured(), 1);

    assert!(write_all(&mut conn, b"QUIT\r\n", deadline));
    read_until(&mut conn, "221", deadline);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Strict Prometheus text-format grammar
// ---------------------------------------------------------------------

fn valid_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().unwrap().is_ascii_alphabetic()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_key(s: &str) -> bool {
    !s.is_empty()
        && (s.chars().next().unwrap().is_ascii_alphabetic() || s.starts_with('_'))
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Split `k="v",k2="v2"` into pairs, validating quoting and key syntax.
fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut pairs = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=': {rest}"))?;
        let key = &rest[..eq];
        if !valid_label_key(key) {
            return Err(format!("bad label key {key:?}"));
        }
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err(format!("unquoted label value after {key}"));
        }
        // Our expositions never emit escaped quotes inside label values,
        // so the close quote is the next one.
        let close = after[1..]
            .find('"')
            .ok_or_else(|| format!("unterminated label value for {key}"))?;
        let value = &after[1..1 + close];
        pairs.push((key.to_string(), value.to_string()));
        rest = &after[2 + close..];
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped;
            if rest.is_empty() {
                return Err("trailing comma in label set".into());
            }
        } else if !rest.is_empty() {
            return Err(format!("junk after label value: {rest:?}"));
        }
    }
    Ok(pairs)
}

#[derive(Default)]
struct Family {
    help: bool,
    typ: Option<String>,
    samples: usize,
    closed: bool,
}

/// Parse a full exposition under the strict rules our writers promise:
/// every family declares `# HELP` then `# TYPE` exactly once before its
/// samples, families are contiguous, every declared family has samples,
/// sample names and labels are grammatical, values are finite numbers,
/// no series repeats, histogram families emit only `_bucket`/`_sum`/
/// `_count` with a `+Inf` bucket whose count equals `_count` and
/// cumulative bucket counts that never decrease.
fn strict_parse(text: &str) -> BTreeMap<String, Family> {
    let mut families: BTreeMap<String, Family> = BTreeMap::new();
    let mut seen_series: BTreeMap<String, ()> = BTreeMap::new();
    let mut current: Option<String> = None;
    // family -> (labels-without-le rendered, le, cumulative count)
    let mut buckets: Vec<(String, String, f64, f64)> = Vec::new();
    let mut counts: BTreeMap<(String, String), f64> = BTreeMap::new();

    for (no, line) in text.lines().enumerate() {
        let n = no + 1;
        if line.is_empty() {
            continue;
        }
        assert_eq!(line.trim(), line, "line {n}: stray whitespace: {line:?}");
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest
                .split_once(' ')
                .unwrap_or_else(|| panic!("line {n}: HELP without text"));
            assert!(
                valid_metric_name(name),
                "line {n}: bad family name {name:?}"
            );
            assert!(!help.is_empty(), "line {n}: empty HELP text");
            let fam = families.entry(name.to_string()).or_default();
            assert!(!fam.help, "line {n}: duplicate HELP for {name}");
            assert_eq!(fam.samples, 0, "line {n}: HELP after samples for {name}");
            fam.help = true;
            // A new header closes the previous family block.
            if let Some(prev) = current.replace(name.to_string()) {
                if prev != name {
                    families.get_mut(&prev).unwrap().closed = true;
                }
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, typ) = rest
                .split_once(' ')
                .unwrap_or_else(|| panic!("line {n}: TYPE without kind"));
            assert!(
                matches!(typ, "counter" | "gauge" | "histogram"),
                "line {n}: unknown type {typ:?}"
            );
            let fam = families
                .get_mut(name)
                .unwrap_or_else(|| panic!("line {n}: TYPE before HELP for {name}"));
            assert!(fam.help, "line {n}: TYPE before HELP for {name}");
            assert!(fam.typ.is_none(), "line {n}: duplicate TYPE for {name}");
            assert_eq!(fam.samples, 0, "line {n}: TYPE after samples for {name}");
            fam.typ = Some(typ.to_string());
            continue;
        }
        assert!(
            !line.starts_with('#'),
            "line {n}: malformed comment {line:?}"
        );

        // A sample line: name[{labels}] value
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("line {n}: no value: {line:?}"));
        let v: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("line {n}: bad value {value:?}"));
        assert!(v.is_finite(), "line {n}: non-finite value");
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => {
                let body = rest
                    .strip_suffix('}')
                    .unwrap_or_else(|| panic!("line {n}: unterminated labels"));
                (
                    name,
                    parse_labels(body).unwrap_or_else(|e| panic!("line {n}: {e}")),
                )
            }
            None => (series, Vec::new()),
        };
        assert!(
            valid_metric_name(name),
            "line {n}: bad sample name {name:?}"
        );
        assert!(
            seen_series.insert(series.to_string(), ()).is_none(),
            "line {n}: duplicate series {series}"
        );

        // Resolve the declaring family: histograms own their suffixed
        // samples; everything else must match a declared name exactly.
        let fam_name = ["_bucket", "_sum", "_count"]
            .iter()
            .filter_map(|suf| series.split('{').next().unwrap().strip_suffix(suf))
            .find(|base| {
                families
                    .get(*base)
                    .is_some_and(|f| f.typ.as_deref() == Some("histogram"))
            })
            .unwrap_or(name)
            .to_string();
        let fam = families
            .get_mut(&fam_name)
            .unwrap_or_else(|| panic!("line {n}: sample {series} has no declared family"));
        assert!(
            fam.help && fam.typ.is_some(),
            "line {n}: {fam_name} samples before declaration"
        );
        assert!(
            !fam.closed,
            "line {n}: family {fam_name} not contiguous (resumed after closing)"
        );
        fam.samples += 1;
        if current.as_deref() != Some(fam_name.as_str()) {
            if let Some(prev) = current.replace(fam_name.clone()) {
                families.get_mut(&prev).unwrap().closed = true;
            }
        }
        assert!(v >= 0.0, "line {n}: negative sample in our exposition");

        if families[&fam_name].typ.as_deref() == Some("histogram") {
            let others: Vec<String> = labels
                .iter()
                .filter(|(k, _)| k != "le")
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            let key = others.join(",");
            if name.ends_with("_bucket") {
                let le = labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .unwrap_or_else(|| panic!("line {n}: bucket without le"))
                    .1
                    .clone();
                let le_v = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse()
                        .unwrap_or_else(|_| panic!("line {n}: bad le {le:?}"))
                };
                buckets.push((fam_name.clone(), key, le_v, v));
            } else if name.ends_with("_count") {
                counts.insert((fam_name.clone(), key), v);
            } else {
                assert!(
                    name.ends_with("_sum"),
                    "line {n}: stray histogram sample {name}"
                );
            }
        } else {
            assert!(
                !labels.iter().any(|(k, _)| k == "le"),
                "line {n}: le label outside a histogram"
            );
        }
    }

    // Histogram invariants: cumulative buckets never decrease and the
    // +Inf bucket equals _count, per labelled sub-series.
    let mut by_series: BTreeMap<(String, String), Vec<(f64, f64)>> = BTreeMap::new();
    for (fam, key, le, v) in buckets {
        by_series.entry((fam, key)).or_default().push((le, v));
    }
    for ((fam, key), mut bs) in by_series {
        bs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut prev = 0.0;
        for (le, v) in &bs {
            assert!(*v >= prev, "{fam}{{{key}}}: bucket le={le} decreased");
            prev = *v;
        }
        let (last_le, last_v) = bs.last().unwrap();
        assert!(last_le.is_infinite(), "{fam}{{{key}}}: no +Inf bucket");
        let count = counts
            .get(&(fam.clone(), key.clone()))
            .unwrap_or_else(|| panic!("{fam}{{{key}}}: buckets without _count"));
        assert_eq!(*last_v, *count, "{fam}{{{key}}}: +Inf bucket != _count");
    }

    for (name, fam) in &families {
        assert!(fam.typ.is_some(), "family {name} declared HELP but no TYPE");
        assert!(
            fam.samples > 0,
            "family {name} declared but emitted no samples"
        );
    }
    families
}

/// A fully wired COPS-HTTP server — file cache, watermark overload
/// control, watchdog, trace ring — that has served cache misses then
/// hits, and enough requests for non-trivial histograms.
fn wired_server_after_traffic(
    name: &str,
) -> (
    ServerHandle<HttpCodec, RoutedService<MemStore>>,
    mem::MemConnector,
    DiagHub,
) {
    let mut store = MemStore::new();
    store.insert("/a.txt", vec![b'a'; 600]);
    store.insert("/b.txt", vec![b'b'; 300]);
    let cache = SharedFileCache::sharded(1 << 20, PolicyKind::Lru, nserver_cache::DEFAULT_SHARDS);
    let hub = DiagHub::new(ServerStats::new_shared(), MetricsRegistry::enabled());
    hub.register(cache_stats_provider(cache.clone()));
    let service = RoutedService::new(StaticFileService::new(store, Some(cache)))
        .server_status(hub.clone())
        .debug_snapshot(hub.clone());
    let opts = ServerOptions {
        mode: Mode::Debug,
        profiling: true,
        overload_control: OverloadControl::Watermark { high: 256, low: 8 },
        ..cops_http_options()
    };
    let (listener, connector) = mem::listener(name);
    let server = ServerBuilder::new(opts, HttpCodec::new(), service)
        .unwrap()
        .diag(hub.clone())
        .watchdog(WatchdogConfig::default())
        .serve(listener);
    for _ in 0..3 {
        for path in ["/a.txt", "/b.txt"] {
            let _ = get_body(&connector, path);
        }
    }
    (server, connector, hub)
}

/// The full exposition of a traffic-serving, fully wired server (cache,
/// overload, watchdog, trace ring all live) parses under the strict
/// Prometheus text-format grammar, and carries every family the
/// diagnostics layer promises.
#[test]
fn full_exposition_is_strictly_well_formed_prometheus_text() {
    let (server, connector, _hub) = wired_server_after_traffic("diag-prom-grammar");
    let text = get_body(&connector, "/server-status");
    let families = strict_parse(&text);

    for required in [
        "nserver_connections_accepted",
        "nserver_requests_decoded",
        "nserver_stage_latency_us",
        "nserver_stage_latency_quantile_us",
        "nserver_queue_wait_us",
        "nserver_queue_wait_quantile_us",
        "nserver_queue_depth",
        "nserver_queue_depth_high_water",
        "nserver_trace_dropped_spans",
        "nserver_cache_hits",
        "nserver_cache_misses",
        "nserver_cache_evictions",
        "nserver_cache_coalesced_waits",
        "nserver_cache_used_bytes",
        "nserver_overload_paused",
        "nserver_overload_pauses",
        "nserver_overload_resumes",
        "nserver_workers_running",
        "nserver_workers_idle",
        "nserver_watchdog_triggers",
        "nserver_diag_snapshots",
    ] {
        assert!(
            families.contains_key(required),
            "family {required} missing from exposition"
        );
    }
    assert_eq!(
        families["nserver_stage_latency_us"].typ.as_deref(),
        Some("histogram")
    );
    assert_eq!(
        families["nserver_connections_accepted"].typ.as_deref(),
        Some("counter")
    );
    assert_eq!(
        families["nserver_queue_depth"].typ.as_deref(),
        Some("gauge")
    );
    server.shutdown();
}

/// The FTP `STAT` body a service attached to `hub` answers with.
fn ftp_stat(hub: DiagHub) -> String {
    let users = Arc::new(UserRegistry::new().with_anonymous());
    let service = FtpService::new(Arc::new(Vfs::new()), users);
    service.attach_diag(hub);
    let ctx = ConnCtx {
        id: 1,
        peer: "reconcile".into(),
        priority: Priority::HIGHEST,
    };
    let mut reply = String::new();
    for line in ["USER anonymous", "PASS guest", "STAT"] {
        let command = FtpRequest::Command(Command::parse(line).unwrap());
        reply = match service.handle(&ctx, command) {
            Action::Reply(r) => r,
            other => panic!("{other:?}"),
        };
    }
    reply
}

/// One reconciliation instead of one per surface: every number of a
/// fully wired server's sample — core counters, queue, trace, cache,
/// overload, worker, watchdog and syscall rows — is one family of the
/// Prometheus text (under the strict grammar) with its value, and one
/// member of the snapshot tree with its value; each core counter is also
/// one line of FTP `STAT` and one of the profiling report. The server is
/// shut down first, so every surface reads the same still numbers.
#[test]
fn every_number_of_a_wired_sample_is_on_every_surface() {
    let (server, _connector, hub) = wired_server_after_traffic("diag-one-reconciliation");
    server.shutdown();
    let sample = hub.sample();
    assert!(sample.stats.requests_decoded >= 6, "{sample:?}");
    let groups_fed = [
        sample.cache.is_some(),
        sample.overload.is_some(),
        sample.workers.is_some(),
        sample.syscalls.is_some(),
    ];
    assert_eq!(groups_fed, [true; 4], "a group is not wired: {sample:?}");

    let text = hub.prometheus();
    let families = strict_parse(&text);
    let stat = ftp_stat(hub.clone());
    let report = sample.stats.render();
    let tree = snapshot_tree(&hub.capture("reconcile").to_json());
    let rows = sample.scalars();
    assert!(rows.len() >= 18 + 5 + 7 + 3 + 2 + 2 + 5, "{}", rows.len());
    for row in &rows {
        if !row.family.is_empty() {
            let family = families.get(row.family);
            let family = family.unwrap_or_else(|| panic!("{} not exposed", row.family));
            assert_eq!(family.samples, 1, "{}", row.family);
            assert_eq!(family.typ.as_deref(), Some(row.kind.prometheus()));
            let line = format!("{} {}", row.family, row.value);
            assert!(text.lines().any(|l| l == line), "no line {line:?}");
        }
        if !row.key.is_empty() {
            let member = &tree[row.group][row.key];
            let expected = match row.kind {
                Kind::Flag => Json::Bool(row.value != 0),
                _ => Json::U64(row.value),
            };
            assert_eq!(*member, expected, "{}.{}", row.group, row.key);
        }
        if row.group == "counters" {
            let line = format!(" {}: {}", row.label(), row.value);
            assert!(stat.lines().any(|l| l == line), "STAT lacks {line:?}");
            let line = format!("{:<26} {}", row.label(), row.value);
            assert!(report.lines().any(|l| l == line), "render() lacks {line:?}");
        }
    }
    // And nothing is on a surface that is not a row: the families of the
    // text are the rows' plus the four histogram families.
    let exposed = rows.iter().filter(|r| !r.family.is_empty()).count();
    assert_eq!(families.len(), exposed + 4, "{:?}", families.keys());
}

/// A hub cannot report a registry its server does not write: given a
/// metrics registry *and* a hub built over another one, the server
/// records into the injected registry and every surface of the hub
/// shows it — `/server-status`, `/debug/snapshot` and the handle alike.
#[test]
fn a_hub_shows_the_registries_its_server_writes() {
    let hub = DiagHub::new(ServerStats::new_shared(), MetricsRegistry::disabled());
    let metrics = MetricsRegistry::enabled();
    let service = RoutedService::new(StaticFileService::new(MemStore::new(), None))
        .route("/page", text_page(Status::Ok, |_| "dynamic page".into()))
        .server_status(hub.clone())
        .debug_snapshot(hub.clone());
    let (listener, connector) = mem::listener("diag-one-registry");
    let server = ServerBuilder::new(cops_http_options(), HttpCodec::new(), service)
        .unwrap()
        .metrics(Arc::clone(&metrics))
        .diag(hub)
        .serve(listener);
    for _ in 0..10 {
        assert_eq!(get_body(&connector, "/page"), "dynamic page");
    }
    let status = get_body(&connector, "/server-status");
    for needle in [
        "nserver_connections_accepted 11",
        "nserver_stage_latency_us_count{stage=\"handle\"} 10",
    ] {
        assert!(status.contains(needle), "missing {needle:?} in:\n{status}");
    }
    let snapshot = snapshot_tree(&get_body(&connector, "/debug/snapshot"));
    assert_eq!(
        snapshot["counters"]["connections_accepted"].as_u64(),
        Some(12)
    );
    assert_eq!(snapshot["stages"]["handle"]["count"].as_u64(), Some(11));
    assert!(server.stats().connections_accepted >= 12);
    assert!(
        server
            .latency()
            .stage(nserver_core::metrics::Stage::Handle)
            .count
            >= 11
    );
    assert!(
        metrics.samples_recorded() > 0,
        "the injected registry is the one written"
    );
    server.shutdown();
}
