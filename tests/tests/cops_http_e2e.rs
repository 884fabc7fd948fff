//! End-to-end COPS-HTTP: the real framework (reactor + event processor +
//! Proactor helpers) serving a SpecWeb99-style file set over loopback
//! TCP to concurrent clients issuing persistent-connection request
//! bursts — the paper's workload, miniaturised.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use nserver_cache::{FileCache, PolicyKind, SharedFileCache};
use nserver_core::options::{OverloadControl, ServerOptions};
use nserver_core::server::ServerBuilder;
use nserver_core::transport::{mem, ReadOutcome, StreamIo, TcpListenerNb};
use nserver_http::{cops_http_options, HttpCodec, MemStore, StaticFileService};
use nserver_specweb::FileSet;

fn build_site(dirs: u32) -> (FileSet, MemStore) {
    let fileset = FileSet::with_dirs(dirs);
    let mut store = MemStore::new();
    for spec in fileset.files() {
        store.insert(spec.path(), fileset.synth_content(spec));
    }
    (fileset, store)
}

/// Where a response's head ends and how long a body it announces, once
/// the whole head is in `acc`.
fn head_and_length(acc: &[u8]) -> Option<(usize, usize)> {
    let pos = acc.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = String::from_utf8_lossy(&acc[..pos]).to_ascii_lowercase();
    let len = head
        .lines()
        .find(|l| l.starts_with("content-length"))
        .and_then(|l| l.split(':').nth(1))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    Some((pos + 4, len))
}

/// One HTTP exchange on an open connection; returns (status, body).
fn fetch(client: &mut TcpStream, path: &str, close: bool) -> (u16, Vec<u8>) {
    let conn = if close { "Connection: close\r\n" } else { "" };
    let req = format!("GET {path} HTTP/1.1\r\nHost: t\r\n{conn}\r\n");
    client.write_all(req.as_bytes()).unwrap();
    let mut acc: Vec<u8> = Vec::new();
    let mut buf = [0u8; 8192];
    let body_start = loop {
        match head_and_length(&acc) {
            Some((start, len)) if acc.len() >= start + len => break start,
            _ => {}
        }
        let n = client.read(&mut buf).unwrap();
        if n == 0 {
            break head_and_length(&acc).map_or(acc.len(), |(start, _)| start);
        }
        acc.extend_from_slice(&buf[..n]);
    };
    let head = String::from_utf8_lossy(&acc[..body_start]);
    let status = head.split(' ').nth(1).map_or(0, |s| s.parse().unwrap());
    (status, acc[body_start..].to_vec())
}

#[test]
fn serves_specweb_fileset_with_correct_bytes() {
    let (fileset, store) = build_site(1);
    let cache = SharedFileCache::new(FileCache::new(1 << 20, PolicyKind::Lru));
    let server = ServerBuilder::new(
        cops_http_options(),
        HttpCodec::new(),
        StaticFileService::new(store, Some(cache.clone())),
    )
    .unwrap()
    .serve(TcpListenerNb::bind("127.0.0.1:0").unwrap());
    let addr = server.local_label().to_string();

    let mut client = TcpStream::connect(&addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // Class 0/1 files: check exact content round-trips.
    for spec in fileset.files().iter().filter(|f| f.class.0 <= 1).take(12) {
        let (status, body) = fetch(&mut client, &spec.path(), false);
        assert_eq!(status, 200, "{}", spec.path());
        assert_eq!(body, fileset.synth_content(spec), "{}", spec.path());
    }
    // Repeat visits hit the cache.
    let warm = fileset.files()[1].path();
    let _ = fetch(&mut client, &warm, false);
    let hits_before = cache.stats().hits;
    let _ = fetch(&mut client, &warm, false);
    assert!(cache.stats().hits > hits_before);
    server.shutdown();
}

#[test]
fn persistent_connections_run_five_request_bursts() {
    let (fileset, store) = build_site(1);
    let server = ServerBuilder::new(
        cops_http_options(),
        HttpCodec::new(),
        StaticFileService::new(store, None),
    )
    .unwrap()
    .serve(TcpListenerNb::bind("127.0.0.1:0").unwrap());
    let addr = server.local_label().to_string();

    // Paper client model: connect, 5 requests, terminate — 4 clients in
    // parallel, 3 connections each.
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let addr = addr.clone();
        let paths: Vec<String> = fileset
            .files()
            .iter()
            .filter(|f| f.class.0 <= 1)
            .map(|f| f.path())
            .collect();
        handles.push(std::thread::spawn(move || {
            for _conn in 0..3 {
                let mut client = TcpStream::connect(&addr).unwrap();
                client
                    .set_read_timeout(Some(Duration::from_secs(5)))
                    .unwrap();
                for r in 0..5usize {
                    let path = &paths[(t as usize * 5 + r) % paths.len()];
                    let close = r == 4;
                    let (status, _) = fetch(&mut client, path, close);
                    assert_eq!(status, 200);
                    std::thread::sleep(Duration::from_millis(2)); // think
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let stats = server.stats();
    assert_eq!(stats.connections_accepted, 12);
    assert_eq!(stats.requests_decoded, 60);
    assert_eq!(stats.responses_sent, 60);
    server.shutdown();
}

#[test]
fn head_and_missing_and_forbidden() {
    let (_fileset, store) = build_site(1);
    let server = ServerBuilder::new(
        cops_http_options(),
        HttpCodec::new(),
        StaticFileService::new(store, None),
    )
    .unwrap()
    .serve(TcpListenerNb::bind("127.0.0.1:0").unwrap());
    let addr = server.local_label().to_string();
    let mut client = TcpStream::connect(&addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    let (status, body) = fetch(&mut client, "/missing.html", false);
    assert_eq!(status, 404);
    assert!(!body.is_empty());
    let (status, _) = fetch(&mut client, "/../secret", false);
    assert_eq!(status, 403);

    // HEAD: headers only.
    client
        .write_all(b"HEAD /dir0000/class1_1 HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut buf = [0u8; 4096];
    let mut acc = Vec::new();
    while !acc.windows(4).any(|w| w == b"\r\n\r\n") {
        let n = client.read(&mut buf).unwrap();
        assert!(n > 0);
        acc.extend_from_slice(&buf[..n]);
    }
    let text = String::from_utf8_lossy(&acc);
    assert!(text.starts_with("HTTP/1.1 200"));
    assert!(text.contains("Content-Length: 1024"));
    // No body follows: a subsequent request still works correctly.
    let (status, body) = fetch(&mut client, "/dir0000/class0_1", false);
    assert_eq!(status, 200);
    assert_eq!(body.len(), 102);
    server.shutdown();
}

#[test]
fn connection_limit_applies_to_http_server() {
    let (_fs, store) = build_site(1);
    let opts = ServerOptions {
        overload_control: OverloadControl::MaxConnections { limit: 1 },
        ..cops_http_options()
    };
    let server = ServerBuilder::new(opts, HttpCodec::new(), StaticFileService::new(store, None))
        .unwrap()
        .serve(TcpListenerNb::bind("127.0.0.1:0").unwrap());
    let addr = server.local_label().to_string();

    let mut first = TcpStream::connect(&addr).unwrap();
    first
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let (status, _) = fetch(&mut first, "/dir0000/class0_1", false);
    assert_eq!(status, 200);

    // Second client connects at TCP level (kernel backlog) but the server
    // defers accepting it while the first is open.
    let mut second = TcpStream::connect(&addr).unwrap();
    second
        .set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    second
        .write_all(b"GET /dir0000/class0_1 HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut buf = [0u8; 64];
    assert!(
        second.read(&mut buf).is_err(),
        "second connection must not be served while the first is open"
    );
    drop(first);
    // After the first disconnects, the pending connection gets served.
    let mut got = false;
    for _ in 0..100 {
        match second.read(&mut buf) {
            Ok(n) if n > 0 => {
                got = true;
                break;
            }
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    assert!(got, "deferred connection eventually served");
    assert!(server.stats().accepts_deferred > 0);
    server.shutdown();
}

/// One exchange over the in-memory transport: the response head and as
/// many body bytes as it announces, or — `to_end` — everything up to the
/// server's close.
fn fetch_mem(client: &mut mem::MemStream, path: &str, to_end: bool) -> Vec<u8> {
    let conn = if to_end { "Connection: close\r\n" } else { "" };
    let req = format!("GET {path} HTTP/1.1\r\nHost: t\r\n{conn}\r\n");
    assert_eq!(client.try_write(req.as_bytes()).unwrap(), req.len());
    let mut acc: Vec<u8> = Vec::new();
    let mut buf = [0u8; 8192];
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match client.try_read(&mut buf).unwrap() {
            ReadOutcome::Data(n) => acc.extend_from_slice(&buf[..n]),
            ReadOutcome::Closed => return acc,
            ReadOutcome::WouldBlock => std::thread::yield_now(),
        }
        match head_and_length(&acc) {
            Some((start, len)) if !to_end && acc.len() >= start + len => return acc,
            _ => {}
        }
        assert!(Instant::now() < deadline, "no response to {path}");
    }
}

/// No self-wake: a work item the dispatcher ran itself — every item under
/// O2 = No, a request that arrives alone under Table 1's options — ends
/// with that same pass looking at the connection, so neither the reply
/// nor the close it asks for fires the dispatcher's own waker. Fifty
/// connections of [GET, GET with `Connection: close`], one client at a
/// time, cost no wake-up at all.
#[test]
fn requests_the_dispatcher_handles_itself_wake_nobody() {
    let inline = ServerOptions {
        separate_handler_pool: false,
        ..cops_http_options()
    };
    for (name, opts) in [
        ("quiet-pool", cops_http_options()),
        ("quiet-inline", inline),
    ] {
        let (fileset, store) = build_site(1);
        let cache = SharedFileCache::new(FileCache::new(1 << 20, PolicyKind::Lru));
        let (listener, connector) = mem::listener(name);
        let server = ServerBuilder::new(
            opts,
            HttpCodec::new(),
            StaticFileService::new(store, Some(cache)),
        )
        .unwrap()
        .serve(listener);
        let path = fileset.files()[0].path();
        let closed = |n: u64| {
            let deadline = Instant::now() + Duration::from_secs(5);
            while server.stats().connections_closed < n {
                assert!(Instant::now() < deadline, "{name}: {n} closes");
                std::thread::yield_now();
            }
        };
        // The first request misses, and a miss's completion comes back
        // from the helper pool through the waker, as it must: warm up.
        let mut warm = connector.connect();
        assert!(fetch_mem(&mut warm, &path, true).starts_with(b"HTTP/1.1 200"));
        warm.shutdown();
        closed(1);

        let before = server.syscalls();
        for _ in 0..50 {
            let mut c = connector.connect();
            let kept_alive = fetch_mem(&mut c, &path, false);
            assert!(kept_alive.starts_with(b"HTTP/1.1 200"), "{name}");
            let last = fetch_mem(&mut c, &path, true);
            assert!(last.starts_with(b"HTTP/1.1 200"), "{name}");
            c.shutdown();
        }
        closed(51);
        let spent = server.syscalls().since(&before);
        assert_eq!(spent.wakes, 0, "{name}: {spent:?}");
        assert_eq!(server.stats().responses_sent, 101, "{name}");
        server.shutdown();
    }
}
