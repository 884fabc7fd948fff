//! An idle dynamic pool does not wake. The paper's Processor Controller
//! is two rules of the Event Processor, not a thread: the pool grows where
//! work is submitted, and only a worker above the minimum parks on a
//! timer. This pins both from outside, over one second of idle, for a
//! COPS-FTP-shaped pool (O5 = Dynamic: min 2, max 16, keepalive 5 s): no
//! controller thread exists, and the workers are not woken.
//!
//! It reads `/proc/self/task/*/{comm,status}`, so it is the one test of
//! its process: no other test's threads share the counts.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use nserver_core::options::{CompletionMode, ServerOptions, ThreadAllocation};
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

struct EchoService;

impl Service<LineCodec> for EchoService {
    fn handle(&self, _ctx: &ConnCtx, req: String) -> Action<String> {
        Action::Reply(format!("echo:{req}"))
    }
}

fn read_line(stream: &mut mem::MemStream) -> String {
    let mut acc = Vec::new();
    let mut buf = [0u8; 256];
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline && !acc.contains(&b'\n') {
        match stream.try_read(&mut buf).unwrap() {
            ReadOutcome::Data(n) => acc.extend_from_slice(&buf[..n]),
            ReadOutcome::WouldBlock => std::thread::sleep(Duration::from_micros(200)),
            ReadOutcome::Closed => break,
        }
    }
    String::from_utf8(acc).unwrap().trim_end().to_string()
}

/// Every thread of this process: tid → (name, voluntary context switches).
fn threads() -> HashMap<String, (String, u64)> {
    let mut out = HashMap::new();
    for task in std::fs::read_dir("/proc/self/task").expect("/proc/self/task") {
        let dir = task.expect("task entry").path();
        // A thread that exits between the listing and the read is skipped.
        let (Ok(comm), Ok(status)) = (
            std::fs::read_to_string(dir.join("comm")),
            std::fs::read_to_string(dir.join("status")),
        ) else {
            continue;
        };
        let voluntary = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|n| n.trim().parse().ok())
            .expect("voluntary_ctxt_switches");
        let tid = dir.file_name().unwrap().to_string_lossy().into_owned();
        out.insert(tid, (comm.trim_end().to_string(), voluntary));
    }
    out
}

#[test]
fn an_idle_dynamic_pool_does_not_wake() {
    let opts = ServerOptions {
        completion_mode: CompletionMode::Synchronous,
        thread_allocation: ThreadAllocation::Dynamic {
            min: 2,
            max: 16,
            idle_keepalive_ms: 5_000,
        },
        idle_shutdown_ms: Some(300_000),
        ..ServerOptions::default()
    };
    let (listener, connector) = mem::listener("idle-pool");
    let server = ServerBuilder::new(opts, LineCodec, EchoService)
        .unwrap()
        .serve(listener);

    // Warm: one request through a worker (O4 = Synchronous keeps every
    // event on the queue).
    let mut c = connector.connect();
    c.try_write(b"ping\n").unwrap();
    assert_eq!(read_line(&mut c), "echo:ping");

    let before = threads();
    std::thread::sleep(Duration::from_secs(1));
    let after = threads();

    let names: Vec<&str> = after.values().map(|(name, _)| name.as_str()).collect();
    // `comm` keeps 15 bytes of a thread's name.
    assert!(
        !names.iter().any(|n| n.starts_with("nserver-proc-co")),
        "a Processor Controller thread runs: {names:?}"
    );
    let workers: Vec<(&String, u64)> = after
        .iter()
        .filter(|(_, (name, _))| name == "nserver-worker")
        .map(|(tid, (_, n))| (tid, n - before.get(tid).map_or(0, |(_, b)| *b)))
        .collect();
    assert_eq!(workers.len(), 2, "the pool's minimum: {names:?}");
    let woke: u64 = workers.iter().map(|(_, n)| n).sum();
    assert!(
        woke <= 2,
        "idle workers were woken {woke} times in 1 s: {workers:?}"
    );
    assert_eq!(server.live_workers(), 2);

    // Still serving after the idle second.
    c.try_write(b"again\n").unwrap();
    assert_eq!(read_line(&mut c), "echo:again");
    server.shutdown();
}
