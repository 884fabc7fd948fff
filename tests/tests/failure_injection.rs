//! Failure injection: the framework must survive hostile clients and
//! faulty application hooks without losing its worker pool or wedging
//! other connections.

use std::time::{Duration, Instant};

use bytes::BytesMut;
use nserver_core::options::{CompletionMode, Mode, ServerOptions, ThreadAllocation};
use nserver_core::pipeline::{Action, Codec, ConnCtx, ProtocolError, Service};
use nserver_core::server::ServerBuilder;
use nserver_core::transport::{mem, ReadOutcome, StreamIo};

struct LineCodec;

impl Codec for LineCodec {
    type Request = String;
    type Response = String;

    fn decode(&self, buf: &mut BytesMut) -> Result<Option<String>, ProtocolError> {
        match buf.iter().position(|&b| b == b'\n') {
            Some(i) => {
                let line = buf.split_to(i + 1);
                let s = String::from_utf8_lossy(&line[..i]).into_owned();
                if s.contains('\u{0}') {
                    return Err(ProtocolError("NUL in command".into()));
                }
                Ok(Some(s))
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

/// A service whose hook panics on demand — a buggy application.
struct FaultyService;

impl Service<LineCodec> for FaultyService {
    fn handle(&self, _ctx: &ConnCtx, req: String) -> Action<String> {
        if req == "panic" {
            panic!("application bug");
        }
        Action::Reply(format!("ok {req}"))
    }
}

fn read_until(stream: &mut mem::MemStream, needle: &str) -> String {
    let mut acc = Vec::new();
    let mut buf = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        match stream.try_read(&mut buf).unwrap() {
            ReadOutcome::Data(n) => acc.extend_from_slice(&buf[..n]),
            ReadOutcome::WouldBlock => std::thread::sleep(Duration::from_micros(200)),
            ReadOutcome::Closed => break,
        }
        if String::from_utf8_lossy(&acc).contains(needle) {
            break;
        }
    }
    String::from_utf8_lossy(&acc).into_owned()
}

#[test]
fn panicking_hook_does_not_kill_the_worker_pool() {
    let opts = ServerOptions {
        thread_allocation: ThreadAllocation::Static { threads: 2 },
        mode: Mode::Debug,
        ..ServerOptions::default()
    };
    let (listener, connector) = mem::listener("faulty");
    let server = ServerBuilder::new(opts, LineCodec, FaultyService)
        .unwrap()
        .serve(listener);

    // Trip the panic more times than there are workers, on separate
    // connections; the pool must survive every one of them.
    for _ in 0..6 {
        let mut c = connector.connect();
        c.try_write(b"panic\n").unwrap();
        // The framework fails the request and closes the offending
        // connection (like a protocol error), isolating the fault.
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut buf = [0u8; 64];
        loop {
            match c.try_read(&mut buf).unwrap() {
                ReadOutcome::Closed => break,
                _ if Instant::now() > deadline => panic!("conn not closed"),
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }
    assert_eq!(server.live_workers(), 2, "workers died on hook panic");
    assert_eq!(server.stats().protocol_errors, 6);
    // The caught panics are also accounted separately from generic
    // protocol errors in the stats snapshot.
    assert_eq!(server.stats().handler_panics, 6);

    // And the server still answers normal requests afterwards.
    let mut fresh = connector.connect();
    fresh.try_write(b"fresh\n").unwrap();
    let text = read_until(&mut fresh, "ok fresh");
    assert!(text.contains("ok fresh"));
    server.shutdown();
}

/// A service whose every request blocks, as an `Action::Defer` job, and
/// whose job panics on demand.
struct FaultyJobs;

impl Service<LineCodec> for FaultyJobs {
    fn handle(&self, _ctx: &ConnCtx, req: String) -> Action<String> {
        Action::Defer(Box::new(move || {
            if req == "boom" {
                panic!("deferred job bug");
            }
            format!("ok {req}")
        }))
    }
}

#[test]
fn panicking_deferred_job_does_not_kill_the_helper_pool() {
    const HELPERS: usize = 2;
    let opts = ServerOptions {
        completion_mode: CompletionMode::Asynchronous,
        thread_allocation: ThreadAllocation::Static { threads: 2 },
        ..ServerOptions::default()
    };
    let (listener, connector) = mem::listener("faulty-jobs");
    let server = ServerBuilder::new(opts, LineCodec, FaultyJobs)
        .unwrap()
        .helper_threads(HELPERS)
        .serve(listener);

    // More panicking jobs than helpers, each on its own connection: each
    // fails its connection (end of stream, as when the same job panics
    // in place under O4 = Synchronous) and no helper.
    let booms = 2 * HELPERS + 1;
    let mut conns: Vec<_> = (0..booms).map(|_| connector.connect()).collect();
    for c in &mut conns {
        c.try_write(b"boom\n").unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut buf = [0u8; 64];
    for (i, c) in conns.iter_mut().enumerate() {
        loop {
            match c.try_read(&mut buf).unwrap() {
                ReadOutcome::Closed => break,
                ReadOutcome::Data(n) => panic!("conn {i} read {:?}", &buf[..n]),
                _ if Instant::now() > deadline => panic!("conn {i} of {booms} not closed"),
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }
    assert_eq!(server.stats().handler_panics, booms as u64);

    // The helpers still run deferred jobs afterwards.
    let mut fresh = connector.connect();
    fresh.try_write(b"fresh\n").unwrap();
    let text = read_until(&mut fresh, "ok fresh");
    assert!(text.contains("ok fresh"), "{text:?}");
    server.shutdown();
}

#[test]
fn garbage_on_one_connection_does_not_affect_others() {
    let (listener, connector) = mem::listener("garbage");
    let server = ServerBuilder::new(
        ServerOptions {
            mode: Mode::Debug,
            ..ServerOptions::default()
        },
        LineCodec,
        FaultyService,
    )
    .unwrap()
    .serve(listener);

    let mut evil = connector.connect();
    let mut good = connector.connect();

    // Protocol poison on the evil connection.
    evil.try_write(b"bad\x00command\n").unwrap();
    // Interleave with a healthy exchange.
    good.try_write(b"hello\n").unwrap();
    let text = read_until(&mut good, "ok hello");
    assert!(text.contains("ok hello"));

    // The poisoned connection gets closed...
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut closed = false;
    let mut buf = [0u8; 64];
    while Instant::now() < deadline {
        if matches!(evil.try_read(&mut buf).unwrap(), ReadOutcome::Closed) {
            closed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(closed);
    assert_eq!(server.stats().protocol_errors, 1);
    // ...and the good one keeps working.
    good.try_write(b"again\n").unwrap();
    let text = read_until(&mut good, "ok again");
    assert!(text.contains("ok again"));
    server.shutdown();
}

#[test]
fn half_open_flood_is_bounded_by_trickle_of_partial_requests() {
    // Clients that send partial requests and stall must not consume
    // worker time or block completions for healthy clients.
    let (listener, connector) = mem::listener("slowloris");
    let server = ServerBuilder::new(ServerOptions::default(), LineCodec, FaultyService)
        .unwrap()
        .serve(listener);

    let mut stalled: Vec<_> = (0..16)
        .map(|i| {
            let mut c = connector.connect();
            c.try_write(format!("never-finished-{i}").as_bytes())
                .unwrap();
            c
        })
        .collect();
    let mut good = connector.connect();
    let t0 = Instant::now();
    good.try_write(b"urgent\n").unwrap();
    let text = read_until(&mut good, "ok urgent");
    assert!(text.contains("ok urgent"));
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "healthy client starved behind stalled ones"
    );
    // Stalled connections can still complete later.
    stalled[0].try_write(b"\n").unwrap();
    let text = read_until(&mut stalled[0], "ok never-finished-0");
    assert!(text.contains("ok never-finished-0"));
    server.shutdown();
}
