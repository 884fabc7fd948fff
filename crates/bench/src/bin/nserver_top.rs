//! `nserver-top`: a terminal dashboard over a running server's
//! observability surface.
//!
//! Scrapes the HTTP exposition endpoints — `/server-status` (Prometheus
//! text) and `/debug/snapshot?latest` (flight-recorder JSON) — and
//! renders a one-screen summary: request counters, per-stage latency
//! quantiles, queue depth and wait, worker gauges, cache hit ratio,
//! overload state, and watchdog trigger counts.
//!
//! Usage:
//!
//! ```text
//! nserver_top <host:port> [--once] [--interval-ms N]
//! ```
//!
//! `--once` prints a single frame and exits (scripts, CI smoke tests);
//! otherwise the screen refreshes every `--interval-ms` (default 1000).

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use nserver_core::json::Json;

/// One HTTP/1.1 GET over a fresh connection; returns the body.
fn http_get(addr: &str, path: &str) -> Option<String> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .ok()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).ok()?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text.split_once("\r\n\r\n")?;
    if !head.starts_with("HTTP/1.1 200") && !head.starts_with("HTTP/1.0 200") {
        return None;
    }
    Some(body.to_string())
}

/// Parse Prometheus text format into `name{labels} -> value`. Comment
/// lines are skipped; the full sample name (with label set) is the key.
fn parse_prometheus(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((name, value)) = line.rsplit_once(' ') {
            if let Ok(v) = value.parse::<f64>() {
                out.insert(name.to_string(), v);
            }
        }
    }
    out
}

fn metric(samples: &BTreeMap<String, f64>, key: &str) -> f64 {
    samples.get(key).copied().unwrap_or(0.0)
}

fn render(addr: &str, status: &str, snapshot: Option<&str>) -> String {
    let s = parse_prometheus(status);
    let mut out = String::new();
    let q = |stage: &str, quantile: &str| {
        metric(
            &s,
            &format!(
                "nserver_stage_latency_quantile_us{{stage=\"{stage}\",quantile=\"{quantile}\"}}"
            ),
        )
    };
    out.push_str(&format!("nserver-top — {addr}\n\n"));
    out.push_str(&format!(
        "conns  accepted {:>10}  closed {:>10}  proto-errors {:>6}\n",
        metric(&s, "nserver_connections_accepted"),
        metric(&s, "nserver_connections_closed"),
        metric(&s, "nserver_protocol_errors"),
    ));
    out.push_str(&format!(
        "linger lingered {:>10}  reaped {:>10}\n",
        metric(&s, "nserver_connections_lingered"),
        metric(&s, "nserver_linger_reaped"),
    ));
    out.push_str(&format!(
        "events dispatched {:>8}  blocking-ops {:>6}  handler-panics {:>4}\n",
        metric(&s, "nserver_events_dispatched"),
        metric(&s, "nserver_blocking_operations"),
        metric(&s, "nserver_handler_panics"),
    ));
    out.push_str(&format!(
        "sysios reads {:>12}  writes {:>10}  polls {:>10}  wakes {:>8}\n",
        metric(&s, "nserver_syscalls_reads"),
        metric(&s, "nserver_syscalls_writes"),
        metric(&s, "nserver_syscalls_polls"),
        metric(&s, "nserver_syscalls_wakes"),
    ));
    out.push_str("\nstage      p50_us    p99_us\n");
    for stage in ["decode", "handle", "encode"] {
        out.push_str(&format!(
            "{stage:<8} {:>8} {:>9}\n",
            q(stage, "0.5"),
            q(stage, "0.99")
        ));
    }
    out.push_str(&format!(
        "\nqueue  depth {:>6}  high-water {:>6}  wait-p99 {:>8}us\n",
        metric(&s, "nserver_queue_depth"),
        metric(&s, "nserver_queue_depth_high_water"),
        metric(&s, "nserver_queue_wait_quantile_us{quantile=\"0.99\"}"),
    ));
    out.push_str(&format!(
        "workers running {:>4}  idle {:>4}\n",
        metric(&s, "nserver_workers_running"),
        metric(&s, "nserver_workers_idle"),
    ));
    let hits = metric(&s, "nserver_cache_hits");
    let misses = metric(&s, "nserver_cache_misses");
    if hits + misses > 0.0 {
        out.push_str(&format!(
            "cache  hit-ratio {:>5.1}%  used {:>10}B  coalesced {:>6}\n",
            100.0 * hits / (hits + misses),
            metric(&s, "nserver_cache_used_bytes"),
            metric(&s, "nserver_cache_coalesced_waits"),
        ));
    }
    out.push_str(&format!(
        "overload paused {}  pauses {}  resumes {}\n",
        metric(&s, "nserver_overload_paused"),
        metric(&s, "nserver_overload_pauses"),
        metric(&s, "nserver_overload_resumes"),
    ));
    out.push_str(&format!(
        "watchdog triggers {}  snapshots {}  trace-drops {}\n",
        metric(&s, "nserver_watchdog_triggers"),
        metric(&s, "nserver_diag_snapshots"),
        metric(&s, "nserver_trace_dropped_spans"),
    ));
    match snapshot.and_then(|json| Json::parse(json).ok()) {
        Some(snap @ Json::Obj(_)) => out.push_str(&format!(
            "\nlast snapshot: seq={} at_us={} reason={}\n",
            snap["seq"].as_u64().unwrap_or(0),
            snap["at_us"].as_u64().unwrap_or(0),
            snap["reason"].as_str().unwrap_or(""),
        )),
        _ => out.push_str("\nlast snapshot: none\n"),
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let addr = match args.iter().find(|a| !a.starts_with("--")) {
        Some(a) => a.clone(),
        None => {
            eprintln!("usage: nserver_top <host:port> [--once] [--interval-ms N]");
            std::process::exit(2);
        }
    };
    let once = args.iter().any(|a| a == "--once");
    let interval = args
        .iter()
        .position(|a| a == "--interval-ms")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(1000);

    loop {
        let status = match http_get(&addr, "/server-status") {
            Some(body) => body,
            None => {
                eprintln!("nserver_top: cannot scrape {addr}/server-status");
                std::process::exit(1);
            }
        };
        let snapshot = http_get(&addr, "/debug/snapshot?latest");
        let frame = render(&addr, &status, snapshot.as_deref());
        if once {
            print!("{frame}");
            return;
        }
        // Clear screen + home, then draw the frame.
        print!("\x1b[2J\x1b[H{frame}");
        let _ = std::io::stdout().flush();
        std::thread::sleep(Duration::from_millis(interval));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_lines_parse_with_labels() {
        let text = "# HELP x y\n# TYPE x counter\nx 3\n\
                    nserver_stage_latency_quantile_us{stage=\"handle\",quantile=\"0.99\"} 250\n";
        let s = parse_prometheus(text);
        assert_eq!(metric(&s, "x"), 3.0);
        assert_eq!(
            metric(
                &s,
                "nserver_stage_latency_quantile_us{stage=\"handle\",quantile=\"0.99\"}"
            ),
            250.0
        );
    }

    /// The snapshot line is read through the JSON reader: an escaped
    /// quote in the reason does not cut it short.
    #[test]
    fn json_numbers_extract() {
        let json = "{\"seq\":4,\"reason\":\"worker_stuck \\\"slot\\\"=2\",\"at_us\":123456}";
        let frame = render("127.0.0.1:0", "", Some(json));
        let last = frame.lines().last().unwrap();
        assert_eq!(
            last,
            "last snapshot: seq=4 at_us=123456 reason=worker_stuck \"slot\"=2"
        );
        for none in ["null", "{\"seq\":4", ""] {
            let frame = render("127.0.0.1:0", "", Some(none));
            assert!(frame.contains("last snapshot: none"), "{none}");
        }
    }

    #[test]
    fn render_survives_empty_exposition() {
        let frame = render("127.0.0.1:0", "", None);
        assert!(frame.contains("nserver-top"));
        assert!(frame.contains("last snapshot: none"));
    }

    #[test]
    fn render_surfaces_lingering_and_syscall_counters() {
        let status = "nserver_connections_lingered 7\n\
                      nserver_linger_reaped 3\n\
                      nserver_syscalls_reads 120\n\
                      nserver_syscalls_writes 80\n\
                      nserver_syscalls_polls 40\n\
                      nserver_syscalls_wakes 15\n";
        let frame = render("127.0.0.1:0", status, None);
        let linger = frame.lines().find(|l| l.starts_with("linger")).unwrap();
        assert!(linger.contains('7') && linger.contains('3'), "{frame}");
        let sys = frame.lines().find(|l| l.starts_with("sysios")).unwrap();
        assert!(
            ["120", "80", "40", "15"].iter().all(|n| sys.contains(n)),
            "{frame}"
        );
    }
}
