//! Chaos suite: COPS-HTTP and COPS-FTP under seeded fault plans.
//!
//! Each server runs behind the fault layer ([`fault::layer`]) injecting
//! connection resets, `WouldBlock` storms, short reads/writes, inbound
//! byte corruption, accept-time failures and slow-loris stalls from a
//! deterministic per-seed schedule. The assertions are the robustness
//! contract: the server survives every plan without deadlocking or
//! leaking connections, stage deadlines reap the stalled clients, the
//! per-family error counters account for the injected faults, and once
//! the fault window closes service returns to byte-exact steady state.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use nserver_core::fault::{self, FaultPlan, FaultProfile};
use nserver_core::options::{OverloadControl, ServerOptions, StageDeadlines, ThreadAllocation};
use nserver_core::pipeline::{Action, Codec, ConnCtx, ProtocolError, Service};
use nserver_core::server::ServerBuilder;
use nserver_core::transport::{mem, ReadOutcome, StreamIo};
use nserver_ftp::{cops_ftp_options, FtpCodec, FtpService, UserRegistry, Vfs};
use nserver_http::{cops_http_options, HttpCodec, MemStore, StaticFileService};
use nserver_netsim::{Disk, Link, SimTime};

/// How one faulted exchange ended, as seen from the client.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    /// A complete response arrived: (status, body).
    Response(u16, Vec<u8>),
    /// The server closed the connection before a complete response —
    /// the expected fate of reset, corrupted and stalled connections.
    Dropped,
    /// Nothing happened within the client deadline: a wedged connection,
    /// exactly what the suite exists to rule out.
    Hung,
}

/// The HTTP request this suite sends (kept in one place because the
/// fault-trip expectations below depend on its length).
fn http_request(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: chaos\r\nConnection: close\r\n\r\n").into_bytes()
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

/// One tolerant HTTP exchange over the in-memory transport.
fn http_exchange(conn: &mut mem::MemStream, path: &str, patience: Duration) -> Outcome {
    let deadline = Instant::now() + patience;
    if !write_all(conn, &http_request(path), deadline) {
        return Outcome::Dropped;
    }
    let mut acc: Vec<u8> = Vec::new();
    let mut buf = [0u8; 8192];
    let (mut status, mut body_start, mut body_len) = (0u16, 0usize, usize::MAX);
    loop {
        if body_len != usize::MAX && acc.len() >= body_start + body_len {
            return Outcome::Response(status, acc[body_start..body_start + body_len].to_vec());
        }
        if Instant::now() > deadline {
            return Outcome::Hung;
        }
        match conn.try_read(&mut buf) {
            Err(_) => return Outcome::Dropped,
            Ok(ReadOutcome::Closed) => return Outcome::Dropped,
            Ok(ReadOutcome::WouldBlock) => {
                std::thread::sleep(Duration::from_micros(200));
                continue;
            }
            Ok(ReadOutcome::Data(n)) => acc.extend_from_slice(&buf[..n]),
        }
        if body_len == usize::MAX {
            if let Some(pos) = acc.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&acc[..pos]).to_string();
                status = head
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0);
                body_len = head
                    .lines()
                    .find(|l| l.to_ascii_lowercase().starts_with("content-length"))
                    .and_then(|l| l.split(':').nth(1))
                    .and_then(|v| v.trim().parse().ok())
                    .unwrap_or(0);
                body_start = pos + 4;
            }
        }
    }
}

/// Expected per-family draws for one plan over its fault window, with
/// accept-failed slots excluded (those connections never get a profile).
#[derive(Debug, Default)]
struct ExpectedDraws {
    accept_fails: u64,
    resets: u64,
    /// Resets whose threshold is at or below the request size — these are
    /// guaranteed to trip during the exchange regardless of flush
    /// batching, so `connections_reset` must count at least this many.
    hard_resets: u64,
    storms: u64,
    short_ios: u64,
    corrupts: u64,
    stalls: u64,
    cleans: u64,
}

fn expected_draws(plan: &FaultPlan, request_len: usize) -> ExpectedDraws {
    let mut e = ExpectedDraws::default();
    for i in 1..=plan.faulty_first as u64 {
        if plan.accept_fails(i) {
            e.accept_fails += 1;
            continue;
        }
        match plan.profile_for(i) {
            FaultProfile::Reset { after_bytes } => {
                e.resets += 1;
                if after_bytes <= request_len {
                    e.hard_resets += 1;
                }
            }
            FaultProfile::Storm { .. } => e.storms += 1,
            FaultProfile::ShortIo { .. } => e.short_ios += 1,
            FaultProfile::Corrupt { .. } => e.corrupts += 1,
            FaultProfile::Stall { .. } => e.stalls += 1,
            FaultProfile::Clean => e.cleans += 1,
        }
    }
    e
}

fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        reset_per_mille: 200,
        storm_per_mille: 150,
        short_io_per_mille: 200,
        corrupt_per_mille: 150,
        stall_per_mille: 200,
        accept_fail_every: 9,
        faulty_first: 36,
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

const SEEDS: [u64; 3] = [1, 2, 6];

/// The seeds a survival test sweeps. `NSERVER_REPLAY_SEED=n` narrows the
/// sweep to exactly seed `n` — the replay path printed by chaos and
/// conformance failures — so a CI counterexample reproduces in isolation.
fn seeds() -> Vec<u64> {
    match std::env::var("NSERVER_REPLAY_SEED") {
        Ok(s) => vec![s
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("NSERVER_REPLAY_SEED={s:?} is not a u64: {e}"))],
        Err(_) => SEEDS.to_vec(),
    }
}

/// Replay instructions embedded in every seeded-failure panic.
fn replay_hint(seed: u64) -> String {
    format!(
        "replay with: NSERVER_REPLAY_SEED={seed} cargo test -p nserver-integration-tests --test chaos"
    )
}

#[test]
fn cops_http_survives_seeded_fault_plans_and_returns_to_steady_state() {
    let body: Vec<u8> = (0..102u8).map(|i| b'a' + i % 23).collect();
    for seed in seeds() {
        let plan = chaos_plan(seed);
        let expect = expected_draws(&plan, http_request("/a.txt").len());
        // The seeds are chosen so every family actually occurs; a plan
        // that draws nothing would make the counter assertions vacuous.
        assert!(
            expect.resets >= 1
                && expect.hard_resets >= 1
                && expect.storms >= 1
                && expect.short_ios >= 1
                && expect.corrupts >= 1
                && expect.stalls >= 1
                && expect.accept_fails >= 1,
            "seed {seed} must draw every fault family: {expect:?}"
        );

        let mut store = MemStore::new();
        store.insert("/a.txt", body.clone());
        let opts = ServerOptions {
            stage_deadlines: StageDeadlines {
                header_read_ms: Some(150),
                write_drain_ms: Some(2_000),
            },
            ..cops_http_options()
        };
        let (listener, connector) = mem::listener(&format!("chaos-http-{seed}"));
        let server =
            ServerBuilder::new(opts, HttpCodec::new(), StaticFileService::new(store, None))
                .unwrap()
                .serve(fault::layer(listener, plan));

        // Drive the whole fault window plus a post-window tail, serially,
        // so connection i gets accept index i.
        let total = plan.faulty_first as u64 + 8;
        let mut outcomes = Vec::new();
        for _ in 0..total {
            let mut conn = connector.connect();
            outcomes.push(http_exchange(&mut conn, "/a.txt", Duration::from_secs(3)));
        }

        // Survival: no exchange may hang — every fault path must resolve
        // to either a response or a server-side close.
        assert!(
            !outcomes.contains(&Outcome::Hung),
            "seed {seed}: wedged connection: {outcomes:?}\n{}",
            replay_hint(seed)
        );
        // Fault-window connections that draw benign profiles must still be
        // served with byte-exact content (storms and short I/O only slow
        // an exchange down; they never change its bytes).
        let ok = outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::Response(200, b) if *b == body))
            .count() as u64;
        assert!(
            ok >= expect.cleans + expect.storms + expect.short_ios,
            "seed {seed}: {ok} byte-exact responses < benign draws in {expect:?}"
        );
        // Return to steady state: past the fault window every connection
        // is clean and must round-trip exactly.
        for (i, o) in outcomes.iter().enumerate().skip(plan.faulty_first as usize) {
            assert!(
                matches!(o, Outcome::Response(200, b) if *b == body),
                "seed {seed}: post-window conn {i} got {o:?}\n{}",
                replay_hint(seed)
            );
        }

        // No leaks: stalled connections are reaped by the header deadline
        // and everything else closes on its own.
        assert!(
            wait_for_drain(|| server.open_connections(), Duration::from_secs(5)),
            "seed {seed}: {} connections leaked",
            server.open_connections()
        );

        // Error accounting matches the plan.
        let stats = server.stats();
        assert_eq!(
            stats.accept_errors, expect.accept_fails,
            "seed {seed}: accept errors"
        );
        assert!(
            stats.connections_reset >= expect.hard_resets,
            "seed {seed}: {} resets recorded, expected at least {}",
            stats.connections_reset,
            expect.hard_resets
        );
        // Every stall is reaped by the header-read deadline; corrupted
        // requests whose terminator got flipped may also time out.
        assert!(
            stats.connections_timed_out >= expect.stalls,
            "seed {seed}: {} timeouts < {} stalls",
            stats.connections_timed_out,
            expect.stalls
        );
        assert!(
            stats.connections_timed_out <= expect.stalls + expect.corrupts,
            "seed {seed}: {} timeouts exceed stalls {} + corrupts {}",
            stats.connections_timed_out,
            expect.stalls,
            expect.corrupts
        );

        // And the server still works.
        let mut fresh = connector.connect();
        let o = http_exchange(&mut fresh, "/a.txt", Duration::from_secs(3));
        assert!(
            matches!(&o, Outcome::Response(200, b) if *b == body),
            "seed {seed}: post-chaos exchange got {o:?}"
        );
        server.shutdown();
    }
}

/// A tolerant FTP control-channel session: greeting, login, PWD, QUIT.
/// Returns the replies received, or the failure mode.
enum FtpOutcome {
    Completed(Vec<String>),
    Dropped,
    Hung,
}

fn ftp_read_line(conn: &mut mem::MemStream, deadline: Instant) -> Result<String, FtpOutcome> {
    let mut acc = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        if acc.windows(2).any(|w| w == b"\r\n") {
            return Ok(String::from_utf8_lossy(&acc).into_owned());
        }
        if Instant::now() > deadline {
            return Err(FtpOutcome::Hung);
        }
        match conn.try_read(&mut buf) {
            Err(_) | Ok(ReadOutcome::Closed) => return Err(FtpOutcome::Dropped),
            Ok(ReadOutcome::WouldBlock) => std::thread::sleep(Duration::from_micros(200)),
            Ok(ReadOutcome::Data(n)) => acc.extend_from_slice(&buf[..n]),
        }
    }
}

fn ftp_session(conn: &mut mem::MemStream, patience: Duration) -> FtpOutcome {
    let deadline = Instant::now() + patience;
    let mut replies = Vec::new();
    match ftp_read_line(conn, deadline) {
        Ok(greeting) => replies.push(greeting),
        Err(e) => return e,
    }
    for cmd in ["USER anonymous", "PASS guest", "PWD", "QUIT"] {
        if !write_all(conn, format!("{cmd}\r\n").as_bytes(), deadline) {
            return FtpOutcome::Dropped;
        }
        match ftp_read_line(conn, deadline) {
            Ok(reply) => replies.push(reply),
            Err(e) => return e,
        }
    }
    FtpOutcome::Completed(replies)
}

#[test]
fn cops_ftp_survives_seeded_fault_plans_on_the_control_channel() {
    for seed in seeds() {
        let plan = chaos_plan(seed);
        // The FTP fault window uses the greeting+USER traffic as the
        // hard-reset bound: a threshold at or below it always trips.
        let expect = expected_draws(&plan, "220 nserver-ftp ready\r\nUSER anonymous\r\n".len());
        let vfs = Arc::new(Vfs::new());
        vfs.mkdir("/pub");
        let users = Arc::new(UserRegistry::new().with_anonymous());
        let opts = ServerOptions {
            stage_deadlines: StageDeadlines {
                header_read_ms: Some(150),
                write_drain_ms: Some(2_000),
            },
            ..cops_ftp_options()
        };
        let (listener, connector) = mem::listener(&format!("chaos-ftp-{seed}"));
        let server = ServerBuilder::new(opts, FtpCodec, FtpService::new(vfs, users))
            .unwrap()
            .serve(fault::layer(listener, plan));

        let total = plan.faulty_first as u64 + 6;
        let mut outcomes = Vec::new();
        for _ in 0..total {
            let mut conn = connector.connect();
            outcomes.push(ftp_session(&mut conn, Duration::from_secs(3)));
        }

        assert!(
            !outcomes.iter().any(|o| matches!(o, FtpOutcome::Hung)),
            "seed {seed}: wedged FTP session\n{}",
            replay_hint(seed)
        );
        // Post-window sessions are clean: full login flow with the right
        // reply codes.
        for (i, o) in outcomes.iter().enumerate().skip(plan.faulty_first as usize) {
            let FtpOutcome::Completed(replies) = o else {
                panic!(
                    "seed {seed}: post-window session {i} did not complete\n{}",
                    replay_hint(seed)
                );
            };
            assert!(replies[0].starts_with("220"), "greeting: {replies:?}");
            assert!(replies[1].starts_with("331"), "USER: {replies:?}");
            assert!(replies[2].starts_with("230"), "PASS: {replies:?}");
            assert!(replies[3].starts_with("257"), "PWD: {replies:?}");
            assert!(replies[4].starts_with("221"), "QUIT: {replies:?}");
        }

        assert!(
            wait_for_drain(|| server.open_connections(), Duration::from_secs(5)),
            "seed {seed}: {} FTP connections leaked",
            server.open_connections()
        );
        let stats = server.stats();
        assert_eq!(stats.accept_errors, expect.accept_fails, "seed {seed}");
        assert!(
            stats.connections_timed_out >= expect.stalls,
            "seed {seed}: {} timeouts < {} stalls",
            stats.connections_timed_out,
            expect.stalls
        );
        assert!(
            stats.connections_reset >= 1,
            "seed {seed}: no resets recorded"
        );
        server.shutdown();
    }
}

/// A line-oriented codec for the load-shaping tests below.
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

/// A service that takes a fixed wall-clock time per request, so the
/// handler queue backs up under a burst.
struct SlowService(Duration);

impl Service<LineCodec> for SlowService {
    fn handle(&self, _ctx: &ConnCtx, req: String) -> Action<String> {
        std::thread::sleep(self.0);
        Action::Reply(format!("ok {req}"))
    }
}

fn read_reply(conn: &mut mem::MemStream, needle: &str, patience: Duration) -> bool {
    let deadline = Instant::now() + patience;
    let mut acc = Vec::new();
    let mut buf = [0u8; 1024];
    while Instant::now() < deadline {
        match conn.try_read(&mut buf) {
            Err(_) | Ok(ReadOutcome::Closed) => break,
            Ok(ReadOutcome::WouldBlock) => std::thread::sleep(Duration::from_micros(500)),
            Ok(ReadOutcome::Data(n)) => acc.extend_from_slice(&buf[..n]),
        }
        if String::from_utf8_lossy(&acc).contains(needle) {
            return true;
        }
    }
    false
}

#[test]
fn watermark_sheds_load_under_burst_and_releases_after_drain() {
    // One worker at 20 ms per request: a burst of 24 jobs piles the event
    // queue far past the high watermark, so late connections must see
    // deferred accepts (O9 shedding) — and still get served once the
    // queue drains below the low watermark.
    let opts = ServerOptions {
        thread_allocation: ThreadAllocation::Static { threads: 1 },
        overload_control: OverloadControl::Watermark { high: 8, low: 2 },
        ..ServerOptions::default()
    };
    let (listener, connector) = mem::listener("chaos-watermark");
    let server = ServerBuilder::new(opts, LineCodec, SlowService(Duration::from_millis(20)))
        .unwrap()
        .serve(listener);

    let mut conns = Vec::new();
    for wave in 0..2 {
        for i in 0..12 {
            let mut c = connector.connect();
            assert!(write_all(
                &mut c,
                format!("job-{wave}-{i}\n").as_bytes(),
                Instant::now() + Duration::from_secs(2),
            ));
            conns.push((wave, i, c));
        }
        // Let the first wave fill the queue before the second arrives
        // (the single worker retires at most one or two jobs meanwhile,
        // so the queue is still far above the high watermark).
        std::thread::sleep(Duration::from_millis(30));
    }
    for (wave, i, conn) in &mut conns {
        assert!(
            read_reply(conn, &format!("ok job-{wave}-{i}"), Duration::from_secs(10)),
            "job-{wave}-{i} never answered"
        );
    }
    let stats = server.stats();
    assert!(
        stats.accepts_deferred > 0,
        "burst never tripped the watermark: {stats:?}"
    );
    assert_eq!(stats.responses_sent, 24);

    // Release: with the queue drained, a fresh connection is accepted and
    // served immediately.
    let mut fresh = connector.connect();
    assert!(write_all(
        &mut fresh,
        b"after\n",
        Instant::now() + Duration::from_secs(2),
    ));
    assert!(read_reply(&mut fresh, "ok after", Duration::from_secs(5)));
    server.shutdown();
}

#[test]
fn graceful_drain_finishes_in_flight_requests_before_closing() {
    let opts = ServerOptions {
        thread_allocation: ThreadAllocation::Static { threads: 1 },
        ..ServerOptions::default()
    };
    let (listener, connector) = mem::listener("chaos-drain");
    let server = ServerBuilder::new(opts, LineCodec, SlowService(Duration::from_millis(150)))
        .unwrap()
        .serve(listener);

    let client = std::thread::spawn({
        let connector = connector.clone();
        move || {
            let mut c = connector.connect();
            assert!(write_all(
                &mut c,
                b"inflight\n",
                Instant::now() + Duration::from_secs(2),
            ));
            // The drain must deliver the reply before closing.
            let got = read_reply(&mut c, "ok inflight", Duration::from_secs(5));
            // ...and then actually close the connection.
            let mut buf = [0u8; 64];
            let deadline = Instant::now() + Duration::from_secs(3);
            let closed = loop {
                match c.try_read(&mut buf) {
                    Err(_) | Ok(ReadOutcome::Closed) => break true,
                    _ if Instant::now() > deadline => break false,
                    _ => std::thread::sleep(Duration::from_millis(1)),
                }
            };
            (got, closed)
        }
    });
    // Give the request time to reach the worker, then drain.
    std::thread::sleep(Duration::from_millis(50));
    let drained = server.shutdown_graceful(Duration::from_secs(3));
    let (got_reply, closed) = client.join().unwrap();
    assert!(got_reply, "in-flight request lost during graceful drain");
    assert!(closed, "connection left open after drain");
    assert!(
        drained,
        "drain deadline expired with connections still open"
    );
}

#[test]
fn graceful_drain_waits_for_lingering_closes_before_closing() {
    // The reply sent while draining leaves its connection lingering: FIN
    // out, the read side open for what a pipelining peer sends past it.
    // The drain must hold that socket until the peer's FIN (or the linger
    // deadline), not return at linger entry and let shutdown hard-close
    // it: the peer's late write would then meet a closed socket, and the
    // reset would discard the reply it has not read yet.
    let (listener, connector) = mem::listener("chaos-drain-linger");
    let service = SlowService(Duration::from_millis(100));
    let server = ServerBuilder::new(ServerOptions::default(), LineCodec, service)
        .unwrap()
        .serve(listener);
    let mut c = connector.connect();
    assert!(write_all(
        &mut c,
        b"a\n",
        Instant::now() + Duration::from_secs(2)
    ));
    let client = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        let _ = write_all(&mut c, b"late\n", Instant::now() + Duration::from_secs(2));
        let got = read_reply(&mut c, "ok a\n", Duration::from_secs(5));
        c.shutdown_write();
        got
    });
    std::thread::sleep(Duration::from_millis(20));
    let drained = server.shutdown_graceful(Duration::from_secs(3));
    assert!(
        client.join().unwrap(),
        "the drain's hard close lost the reply"
    );
    assert!(
        drained,
        "the peer's FIN ended the linger inside the deadline"
    );
}

#[test]
fn pure_short_io_plan_round_trips_large_bodies_byte_exactly() {
    // Every connection draws ShortIo: reads and writes are capped at a
    // few bytes and every other write would-blocks, so an 8 KiB body
    // crosses the dispatcher's flush offset bookkeeping thousands of
    // times. Any off-by-one corrupts the digest immediately.
    let body: Vec<u8> = (0..8192u32).map(|i| (i * 31 % 251) as u8).collect();
    let mut store = MemStore::new();
    store.insert("/big.bin", body.clone());
    let plan = FaultPlan {
        seed: 99,
        short_io_per_mille: 1000,
        ..FaultPlan::new(99)
    };
    let (listener, connector) = mem::listener("chaos-short-io");
    let server = ServerBuilder::new(
        cops_http_options(),
        HttpCodec::new(),
        StaticFileService::new(store, None),
    )
    .unwrap()
    .serve(fault::layer(listener, plan));

    for _ in 0..3 {
        let mut conn = connector.connect();
        match http_exchange(&mut conn, "/big.bin", Duration::from_secs(10)) {
            Outcome::Response(200, got) => assert_eq!(got, body, "short-write corruption"),
            other => panic!("short-io exchange failed: {other:?}"),
        }
    }
    server.shutdown();
}

/// A service with a deliberate wedge: the request `"wedge"` blocks its
/// worker on a gate until the test releases it. Everything else echoes.
struct WedgeService {
    gate: Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>,
}

impl Service<LineCodec> for WedgeService {
    fn handle(&self, _ctx: &ConnCtx, req: String) -> Action<String> {
        if req == "wedge" {
            let (lock, cvar) = &*self.gate;
            let mut released = lock.lock().unwrap();
            while !*released {
                released = cvar.wait(released).unwrap();
            }
        }
        Action::Reply(format!("ok {req}"))
    }
}

/// The watchdog fires under a stall: a seeded slow-loris fault plan
/// degrades the first connections while a wedged handler pins one worker
/// past the stuck ceiling. The watchdog must fire the `worker_stuck`
/// invariant, and the captured snapshot must name the stuck worker's
/// stage and connection id — the flight-recorder contract that makes a
/// production wedge diagnosable after the fact.
#[test]
fn watchdog_fires_and_names_the_stuck_worker_under_stall() {
    // Every fault-window connection draws Stall{...}: slow-loris clients
    // that the header-read deadline reaps.
    let plan = FaultPlan {
        stall_per_mille: 1000,
        faulty_first: 4,
        ..FaultPlan::new(11)
    };
    let opts = ServerOptions {
        thread_allocation: ThreadAllocation::Static { threads: 2 },
        stage_deadlines: StageDeadlines {
            header_read_ms: Some(100),
            write_drain_ms: Some(2_000),
        },
        mode: nserver_core::options::Mode::Debug,
        profiling: true,
        ..ServerOptions::default()
    };
    let gate = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
    let (listener, connector) = mem::listener("chaos-watchdog");
    let server = ServerBuilder::new(
        opts,
        LineCodec,
        WedgeService {
            gate: Arc::clone(&gate),
        },
    )
    .unwrap()
    .watchdog(nserver_core::diag::WatchdogConfig {
        tick: Duration::from_millis(5),
        stuck_ceiling: Duration::from_millis(80),
        debounce_ticks: 10_000,
        ..Default::default()
    })
    .serve(fault::layer(listener, plan));

    // Drive the fault window: stalled connections never complete; their
    // clients give up quickly and the server reaps them.
    for _ in 0..4 {
        let mut conn = connector.connect();
        let _ = write_all(
            &mut conn,
            b"hello\n",
            Instant::now() + Duration::from_millis(100),
        );
    }
    // The fifth accept is past the fault window: a clean connection whose
    // request wedges its worker in the handle stage.
    let mut wedged = connector.connect();
    assert!(write_all(
        &mut wedged,
        b"wedge\n",
        Instant::now() + Duration::from_secs(2),
    ));

    // The watchdog (80 ms ceiling, 5 ms tick) must notice.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !server.watchdog_fired() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        server.watchdog_fired(),
        "watchdog never fired on a wedged worker"
    );
    assert!(server.diag().watchdog_triggers() >= 1);

    // The snapshot names the culprit: worker role, the handle stage, and
    // the wedged connection's id (the fifth accept).
    let snap = server.diag().latest().expect("trigger captured a snapshot");
    assert!(
        snap.reason.contains("worker_stuck"),
        "unexpected reason: {}",
        snap.reason
    );
    assert!(
        snap.reason.contains("stage=handle") && snap.reason.contains("conn=5"),
        "reason must name the stage and conn: {}",
        snap.reason
    );
    let json = snap.to_json();
    assert!(
        json.contains("\"state\":\"running\",\"stage\":\"handle\",\"conn\":5"),
        "worker table row missing from snapshot: {json}"
    );

    // Release the wedge: the pinned request completes and the server is
    // still healthy end to end.
    {
        let (lock, cvar) = &*gate;
        *lock.lock().unwrap() = true;
        cvar.notify_all();
    }
    assert!(read_reply(&mut wedged, "ok wedge", Duration::from_secs(5)));
    let mut fresh = connector.connect();
    assert!(write_all(
        &mut fresh,
        b"after\n",
        Instant::now() + Duration::from_secs(2),
    ));
    assert!(read_reply(&mut fresh, "ok after", Duration::from_secs(5)));
    server.shutdown();
}

/// Request completion model used by the netsim recovery test: a request
/// issued at `now` reads `bytes` from disk then ships them down the link.
fn complete(disk: &mut Disk, link: &mut Link, now: SimTime, bytes: u64) -> SimTime {
    let ready = disk.read(now, bytes);
    link.send(ready, bytes)
}

#[test]
fn netsim_throughput_recovers_after_disk_stall_burst() {
    // 1 request/ms for 3.5 simulated seconds, 8 KiB each, against the
    // paper-style bottleneck pair (100 Mbit link, buffered disk). The
    // fault run injects a 400 ms disk stall at t=1 s and mild link delay
    // faults throughout. On-time = completed within 20 ms of issue.
    let on_time_counts = |faulty: bool| -> (u64, u64, u64) {
        let mut link = Link::new(100_000_000);
        if faulty {
            link = link.with_faults(7, 0, 50, SimTime::from_millis(5), SimTime::ZERO);
        }
        let mut disk = Disk::new(SimTime::from_micros(200), 50_000_000);
        let (mut before, mut during, mut after) = (0u64, 0u64, 0u64);
        let mut stall_injected = false;
        for ms in 0..3_500u64 {
            let now = SimTime::from_millis(ms);
            if faulty && !stall_injected && ms >= 1_000 {
                disk.inject_stall(now, SimTime::from_millis(400));
                stall_injected = true;
            }
            let done = complete(&mut disk, &mut link, now, 8_192);
            let on_time = done <= now + SimTime::from_millis(20);
            match ms {
                0..=999 if on_time => before += 1,
                1_000..=1_999 if on_time => during += 1,
                2_500..=3_499 if on_time => after += 1,
                _ => {}
            }
        }
        if faulty {
            assert_eq!(disk.stalls(), 1);
            assert!(link.messages_delayed() > 0, "link faults never fired");
        }
        (before, during, after)
    };

    let (clean_before, _, clean_after) = on_time_counts(false);
    let (faulty_before, faulty_during, faulty_after) = on_time_counts(true);

    // Pre-fault behaviour matches the clean run (mild link delays stay
    // under the on-time bound).
    assert_eq!(faulty_before, clean_before);
    // The stall visibly degrades the fault window...
    assert!(
        faulty_during < clean_after / 2,
        "stall window barely degraded: {faulty_during} on-time"
    );
    // ...and the post-fault window recovers to within 10% of fault-free
    // throughput — the backlog drains instead of snowballing.
    assert!(
        faulty_after as f64 >= clean_after as f64 * 0.9,
        "post-fault on-time {faulty_after} vs clean {clean_after}"
    );
}
