//! End-to-end tests of the assembled framework: a real server instance
//! (dispatcher threads + event processor + proactor helpers) exercised
//! over the in-memory transport and over real loopback TCP, across the
//! template-option combinations that change the framework's structure.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use nserver_core::diag::{WorkerActivity, WorkerRole};
use nserver_core::layer::{AcceptHook, ConnHook, Layered, PollHook};
use nserver_core::metrics::Stage;
use nserver_core::options::{
    CompletionMode, DispatcherThreads, EventScheduling, Mode, OverloadControl, ServerOptions,
    StageDeadlines, ThreadAllocation,
};
use nserver_core::pipeline::{Action, Codec, ConnCtx, ProtocolError, Service};
use nserver_core::server::ServerBuilder;
use nserver_core::transport::mem;
use nserver_core::transport::{
    Interest, Listener, PollEvent, Poller, ReadOutcome, StreamIo, TcpListenerNb, TcpStreamNb, Waker,
};
use nserver_core::Priority;
use propcheck::{check, Gen};

/// Newline-delimited text codec.
struct LineCodec;

impl Codec for LineCodec {
    type Request = String;
    type Response = String;

    fn decode(&self, buf: &mut BytesMut) -> Result<Option<String>, ProtocolError> {
        match buf.iter().position(|&b| b == b'\n') {
            Some(i) => {
                let line = buf.split_to(i + 1);
                let s = std::str::from_utf8(&line[..i])
                    .map_err(|_| ProtocolError("not utf8".into()))?
                    .to_string();
                if s == "POISON" {
                    return Err(ProtocolError("poison".into()));
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

/// Echo service with a greeting and blocking-work command.
struct EchoService;

impl Service<LineCodec> for EchoService {
    fn handle(&self, ctx: &ConnCtx, req: String) -> Action<String> {
        match req.as_str() {
            "quit" => Action::ReplyClose("bye".into()),
            "prio" => Action::Reply(format!("{}", ctx.priority)),
            "work" => Action::Defer(Box::new(|| {
                std::thread::sleep(Duration::from_millis(5));
                "worked".to_string()
            })),
            other => Action::Reply(format!("echo:{other}")),
        }
    }

    fn on_open(&self, _ctx: &ConnCtx) -> Option<String> {
        Some("hello".to_string())
    }
}

/// Drive a MemStream client: send `input`, read until `expected_lines`
/// complete lines arrive or the deadline passes.
fn talk(stream: &mut mem::MemStream, input: &[u8], expected_lines: usize) -> Vec<String> {
    stream.try_write(input).unwrap();
    read_lines(stream, expected_lines)
}

fn read_lines(stream: &mut mem::MemStream, expected_lines: usize) -> Vec<String> {
    let mut acc = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut buf = [0u8; 4096];
    while Instant::now() < deadline {
        match stream.try_read(&mut buf).unwrap() {
            ReadOutcome::Data(n) => acc.extend_from_slice(&buf[..n]),
            ReadOutcome::WouldBlock => std::thread::sleep(Duration::from_micros(200)),
            ReadOutcome::Closed => break,
        }
        if acc.iter().filter(|&&b| b == b'\n').count() >= expected_lines {
            break;
        }
    }
    String::from_utf8(acc)
        .unwrap()
        .lines()
        .map(|s| s.to_string())
        .collect()
}

fn base_options() -> ServerOptions {
    ServerOptions {
        mode: Mode::Debug,
        profiling: true,
        ..ServerOptions::default()
    }
}

#[test]
fn mem_transport_greeting_echo_and_quit() {
    let (listener, connector) = mem::listener("test");
    let server = ServerBuilder::new(base_options(), LineCodec, EchoService)
        .unwrap()
        .serve(listener);

    let mut c = connector.connect();
    let lines = talk(&mut c, b"one\ntwo\nquit\n", 4);
    assert_eq!(lines, vec!["hello", "echo:one", "echo:two", "bye"]);

    // Server closes after "quit".
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut closed = false;
    let mut buf = [0u8; 64];
    while Instant::now() < deadline {
        if matches!(c.try_read(&mut buf).unwrap(), ReadOutcome::Closed) {
            closed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(closed, "server did not close after quit");

    let stats = server.stats();
    assert_eq!(stats.connections_accepted, 1);
    assert_eq!(stats.requests_decoded, 3);
    assert!(stats.bytes_read >= 13);
    assert!(
        !server.tracer().dump().is_empty(),
        "debug mode traces events"
    );
    server.shutdown();
}

#[test]
fn inline_reactor_mode_works_without_pool() {
    // O2 = No: the classic Reactor, handlers on the dispatcher thread.
    let opts = ServerOptions {
        separate_handler_pool: false,
        thread_allocation: ThreadAllocation::Static { threads: 1 },
        ..base_options()
    };
    let (listener, connector) = mem::listener("inline");
    let server = ServerBuilder::new(opts, LineCodec, EchoService)
        .unwrap()
        .serve(listener);
    assert_eq!(server.live_workers(), 0, "no event-processor workers");
    let mut c = connector.connect();
    let lines = talk(&mut c, b"x\n", 2);
    assert_eq!(lines, vec!["hello", "echo:x"]);
    server.shutdown();
}

#[test]
fn async_completion_mode_defers_to_helper_pool() {
    let opts = ServerOptions {
        completion_mode: CompletionMode::Asynchronous,
        ..base_options()
    };
    let (listener, connector) = mem::listener("async");
    let server = ServerBuilder::new(opts, LineCodec, EchoService)
        .unwrap()
        .serve(listener);
    let mut c = connector.connect();
    // Interleave blocking and fast requests; replies must stay in order.
    let lines = talk(&mut c, b"work\nfast\nwork\n", 4);
    assert_eq!(lines, vec!["hello", "worked", "echo:fast", "worked"]);
    assert_eq!(server.stats().blocking_ops, 2);
    server.shutdown();
}

#[test]
fn two_dispatchers_partition_connections() {
    let opts = ServerOptions {
        dispatcher_threads: DispatcherThreads::Multi(2),
        ..base_options()
    };
    let (listener, connector) = mem::listener("multi");
    let server = ServerBuilder::new(opts, LineCodec, EchoService)
        .unwrap()
        .serve(listener);
    let mut clients: Vec<_> = (0..6).map(|_| connector.connect()).collect();
    for (i, c) in clients.iter_mut().enumerate() {
        let lines = talk(c, format!("m{i}\n").as_bytes(), 2);
        assert_eq!(lines, vec!["hello".to_string(), format!("echo:m{i}")]);
    }
    assert_eq!(server.stats().connections_accepted, 6);
    server.shutdown();
}

#[test]
fn priority_policy_assigns_levels() {
    let opts = ServerOptions {
        event_scheduling: EventScheduling::Yes { quotas: vec![8, 1] },
        ..base_options()
    };
    let (listener, connector) = mem::listener("prio");
    let server = ServerBuilder::new(opts, LineCodec, EchoService)
        .unwrap()
        // Odd-numbered peers are low priority.
        .priority_policy(|peer| {
            if peer.ends_with('1') || peer.ends_with('3') {
                Priority(1)
            } else {
                Priority(0)
            }
        })
        .serve(listener);
    let mut c1 = connector.connect(); // peer-1 -> low
    let mut c2 = connector.connect(); // peer-2 -> high
    assert_eq!(talk(&mut c1, b"prio\n", 2), vec!["hello", "P1"]);
    assert_eq!(talk(&mut c2, b"prio\n", 2), vec!["hello", "P0"]);
    server.shutdown();
}

#[test]
fn protocol_error_closes_connection_and_counts() {
    let (listener, connector) = mem::listener("err");
    let server = ServerBuilder::new(base_options(), LineCodec, EchoService)
        .unwrap()
        .serve(listener);
    let mut c = connector.connect();
    c.try_write(b"POISON\n").unwrap();
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut buf = [0u8; 64];
    let mut closed = false;
    while Instant::now() < deadline {
        if matches!(c.try_read(&mut buf).unwrap(), ReadOutcome::Closed) {
            closed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(closed);
    assert_eq!(server.stats().protocol_errors, 1);
    server.shutdown();
}

#[test]
fn idle_connections_are_shut_down() {
    let opts = ServerOptions {
        idle_shutdown_ms: Some(150),
        ..base_options()
    };
    let (listener, connector) = mem::listener("idle");
    let server = ServerBuilder::new(opts, LineCodec, EchoService)
        .unwrap()
        .serve(listener);
    let mut c = connector.connect();
    assert_eq!(read_lines(&mut c, 1), vec!["hello"]);
    // Stay silent; the idle sweep must close us.
    let deadline = Instant::now() + Duration::from_secs(3);
    let mut buf = [0u8; 16];
    let mut closed = false;
    while Instant::now() < deadline {
        if matches!(c.try_read(&mut buf).unwrap(), ReadOutcome::Closed) {
            closed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(closed, "idle connection was not shut down");
    assert_eq!(server.stats().connections_idle_closed, 1);
    server.shutdown();
}

#[test]
fn max_connection_limit_defers_accepts() {
    let opts = ServerOptions {
        overload_control: OverloadControl::MaxConnections { limit: 2 },
        ..base_options()
    };
    let (listener, connector) = mem::listener("cap");
    let server = ServerBuilder::new(opts, LineCodec, EchoService)
        .unwrap()
        .serve(listener);
    let mut a = connector.connect();
    let mut b = connector.connect();
    assert_eq!(read_lines(&mut a, 1), vec!["hello"]);
    assert_eq!(read_lines(&mut b, 1), vec!["hello"]);
    // Third connection stays unaccepted while the first two are open.
    let mut c3 = connector.connect();
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(read_lines(&mut c3, 1), Vec::<String>::new());
    assert!(server.stats().accepts_deferred > 0);
    assert_eq!(server.stats().connections_accepted, 2);
    // Closing one admits the waiter.
    let _ = talk(&mut a, b"quit\n", 1);
    assert_eq!(read_lines(&mut c3, 1), vec!["hello"]);
    server.shutdown();
}

#[test]
fn dynamic_thread_allocation_serves_load() {
    let opts = ServerOptions {
        thread_allocation: ThreadAllocation::Dynamic {
            min: 1,
            max: 4,
            idle_keepalive_ms: 50,
        },
        ..base_options()
    };
    let (listener, connector) = mem::listener("dyn");
    let server = ServerBuilder::new(opts, LineCodec, EchoService)
        .unwrap()
        .serve(listener);
    let mut clients: Vec<_> = (0..8).map(|_| connector.connect()).collect();
    for c in clients.iter_mut() {
        c.try_write(b"work\n").unwrap();
    }
    for c in clients.iter_mut() {
        let lines = read_lines(c, 2);
        assert_eq!(lines, vec!["hello", "worked"]);
    }
    server.shutdown();
}

#[test]
fn tcp_loopback_end_to_end() {
    let listener = TcpListenerNb::bind("127.0.0.1:0").unwrap();
    let server = ServerBuilder::new(base_options(), LineCodec, EchoService)
        .unwrap()
        .serve(listener);
    let addr = server.local_label().to_string();

    let mut handles = Vec::new();
    for t in 0..4 {
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || {
            let mut c = TcpStreamNb::connect(&addr).unwrap();
            c.try_write(format!("t{t}\nquit\n").as_bytes()).unwrap();
            let mut acc = Vec::new();
            let mut buf = [0u8; 1024];
            let deadline = Instant::now() + Duration::from_secs(5);
            while Instant::now() < deadline {
                match c.try_read(&mut buf).unwrap() {
                    ReadOutcome::Data(n) => acc.extend_from_slice(&buf[..n]),
                    ReadOutcome::WouldBlock => std::thread::sleep(Duration::from_micros(500)),
                    ReadOutcome::Closed => break,
                }
            }
            String::from_utf8(acc).unwrap()
        }));
    }
    for (t, h) in handles.into_iter().enumerate() {
        let text = h.join().unwrap();
        assert_eq!(text, format!("hello\necho:t{t}\nbye\n"));
    }
    let stats = server.stats();
    assert_eq!(stats.connections_accepted, 4);
    assert_eq!(stats.requests_decoded, 8);
    server.shutdown();
}

/// The gathered Send Reply over a real socket: 64 requests pipelined on
/// one connection come back byte-exact and in order, in far fewer write
/// syscalls than responses. The inline reactor (O2 = No) makes the count
/// deterministic: every reply of a read batch is queued before the next
/// flush runs.
#[test]
fn tcp_pipelined_batch_leaves_in_gathered_writes() {
    const REQUESTS: usize = 64;
    let opts = ServerOptions {
        separate_handler_pool: false,
        thread_allocation: ThreadAllocation::Static { threads: 1 },
        ..base_options()
    };
    let listener = TcpListenerNb::bind("127.0.0.1:0").unwrap();
    let server = ServerBuilder::new(opts, LineCodec, EchoService)
        .unwrap()
        .serve(listener);
    let mut c = TcpStreamNb::connect(server.local_label()).unwrap();

    let mut input = String::new();
    let mut expected = String::from("hello\n");
    for i in 0..REQUESTS {
        input.push_str(&format!("req-{i}\n"));
        expected.push_str(&format!("echo:req-{i}\n"));
    }
    let before = server.syscalls();
    assert_eq!(c.try_write(input.as_bytes()).unwrap(), input.len());

    let mut acc = Vec::new();
    let mut buf = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(5);
    while acc.len() < expected.len() && Instant::now() < deadline {
        match c.try_read(&mut buf).unwrap() {
            ReadOutcome::Data(n) => acc.extend_from_slice(&buf[..n]),
            ReadOutcome::WouldBlock => std::thread::sleep(Duration::from_micros(500)),
            ReadOutcome::Closed => break,
        }
    }
    assert_eq!(String::from_utf8(acc).unwrap(), expected);
    let writes = server.syscalls().since(&before).writes;
    assert!(
        writes < REQUESTS as u64,
        "{writes} write syscalls for {REQUESTS} pipelined responses: the gather is not taking effect"
    );
    server.shutdown();
}

/// Read from a TCP client until `want` bytes have arrived (or five
/// seconds passed).
fn tcp_read(c: &mut TcpStreamNb, want: usize) -> Vec<u8> {
    let mut acc = Vec::new();
    let mut buf = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(5);
    while acc.len() < want && Instant::now() < deadline {
        match c.try_read(&mut buf).unwrap() {
            ReadOutcome::Data(n) => acc.extend_from_slice(&buf[..n]),
            ReadOutcome::WouldBlock => std::thread::yield_now(),
            ReadOutcome::Closed => break,
        }
    }
    acc
}

/// Send Reply runs on the worker that queued the reply: over a real
/// socket, in pool mode, a keep-alive exchange at depth 1 costs the
/// dispatcher one poller return per request and nobody a wake-up. O4 =
/// Synchronous (the default option set) keeps every event on the queue,
/// so it is a worker that sends here even though each request arrives
/// alone.
#[test]
fn worker_sends_keep_alive_replies_without_waking_the_dispatcher() {
    const HITS: u64 = 200;
    let listener = TcpListenerNb::bind("127.0.0.1:0").unwrap();
    let server = ServerBuilder::new(ServerOptions::default(), LineCodec, EchoService)
        .unwrap()
        .serve(listener);
    assert!(server.options().separate_handler_pool);
    assert_eq!(
        server.options().completion_mode,
        CompletionMode::Synchronous
    );
    let mut c = TcpStreamNb::connect(server.local_label()).unwrap();
    assert_eq!(tcp_read(&mut c, 6), b"hello\n");

    let before = server.syscalls();
    for i in 0..HITS {
        let request = format!("hit-{i}\n");
        assert_eq!(c.try_write(request.as_bytes()).unwrap(), request.len());
        let expected = format!("echo:hit-{i}\n");
        assert_eq!(tcp_read(&mut c, expected.len()), expected.as_bytes());
    }
    let spent = server.syscalls().since(&before);
    assert_eq!(spent.wakes, 0, "{spent:?}");
    assert_eq!(
        spent.writes, HITS,
        "one gathered write per reply: {spent:?}"
    );
    assert!(spent.polls <= HITS + 2, "{spent:?}");
    assert_eq!(server.stats().responses_sent, HITS);
    server.shutdown();
}

/// With no overload control nothing can gate the acceptor, so a closing
/// connection has nobody to wake: fifty connect–request–close cycles,
/// the peer closing each time, fire no waker at all. (The inline reactor
/// keeps the count exact: its work items end before the peer can close.)
#[test]
fn worker_sends_and_peer_closes_wake_nobody() {
    let opts = ServerOptions {
        separate_handler_pool: false,
        thread_allocation: ThreadAllocation::Static { threads: 1 },
        ..ServerOptions::default()
    };
    assert_eq!(opts.overload_control, OverloadControl::No);
    let (listener, connector) = mem::listener("quiet-closes");
    let server = ServerBuilder::new(opts, LineCodec, EchoService)
        .unwrap()
        .serve(listener);
    for i in 0..50 {
        let mut c = connector.connect();
        let lines = talk(&mut c, format!("cycle-{i}\n").as_bytes(), 2);
        assert_eq!(lines, vec!["hello".to_string(), format!("echo:cycle-{i}")]);
        c.shutdown();
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().connections_closed < 50 && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(server.stats().connections_closed, 50);
    assert_eq!(server.syscalls().wakes, 0, "{:?}", server.syscalls());
    server.shutdown();
}

/// `cops_http_options()` as far as this crate reads it — Table 1's
/// column: O2 = Yes with four static workers, O4 = Asynchronous, O8 =
/// No. Under it the dispatcher handles the last ready event of a pass.
fn table1_options() -> ServerOptions {
    ServerOptions {
        completion_mode: CompletionMode::Asynchronous,
        ..ServerOptions::default()
    }
}

/// Echoes, and notes which thread ran each `handle`.
#[derive(Clone, Default)]
struct WhoHandles {
    seen: Arc<Mutex<Vec<(String, String)>>>,
    /// A worker has entered `handle`.
    worker_entered: Arc<AtomicBool>,
    /// A `meet` request handled off the pool gave up waiting for that.
    met_nobody: Arc<AtomicBool>,
    /// A `pause` request is inside `handle`, until `resume`.
    paused: Arc<AtomicBool>,
    resume: Arc<AtomicBool>,
}

impl WhoHandles {
    fn threads(&self) -> Vec<String> {
        let seen = self.seen.lock().unwrap();
        seen.iter().map(|(_, thread)| thread.clone()).collect()
    }
}

impl<C: Codec<Request = String, Response = String>> Service<C> for WhoHandles {
    fn handle(&self, _ctx: &ConnCtx, req: String) -> Action<String> {
        let thread = std::thread::current().name().unwrap_or("?").to_string();
        if thread == "nserver-worker" {
            self.worker_entered.store(true, Ordering::SeqCst);
        } else if req.starts_with("meet") {
            // The other ready event must already be with the pool: a
            // dispatcher that queued it only after its own would wait
            // here for a worker that has nothing to pop.
            let deadline = Instant::now() + Duration::from_secs(5);
            while !self.worker_entered.load(Ordering::SeqCst) {
                if Instant::now() > deadline {
                    self.met_nobody.store(true, Ordering::SeqCst);
                    break;
                }
                std::thread::yield_now();
            }
        }
        if req == "pause" {
            self.paused.store(true, Ordering::SeqCst);
            while !self.resume.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        }
        self.seen.lock().unwrap().push((req.clone(), thread));
        Action::Reply(format!("echo:{req}"))
    }
}

/// A request that arrives alone is handled by the thread that read it:
/// 200 depth-1 keep-alive hits on one socket under Table 1's options
/// never reach the Event Processor's queue, wake nobody, and cost one
/// poller return and one write each.
#[test]
fn dispatcher_handles_a_request_that_arrives_alone() {
    const HITS: u64 = 200;
    let who = WhoHandles::default();
    let opts = ServerOptions {
        profiling: true,
        ..table1_options()
    };
    let server = ServerBuilder::new(opts, LineCodec, who.clone())
        .unwrap()
        .serve(TcpListenerNb::bind("127.0.0.1:0").unwrap());
    assert_eq!(server.live_workers(), 4);
    let mut c = TcpStreamNb::connect(server.local_label()).unwrap();

    let before = server.syscalls();
    for i in 0..HITS {
        let request = format!("hit-{i}\n");
        assert_eq!(c.try_write(request.as_bytes()).unwrap(), request.len());
        let expected = format!("echo:hit-{i}\n");
        assert_eq!(tcp_read(&mut c, expected.len()), expected.as_bytes());
    }
    let spent = server.syscalls().since(&before);
    let threads = who.threads();
    assert_eq!(threads.len() as u64, HITS);
    assert!(
        threads.iter().all(|t| t == "nserver-dispatcher-0"),
        "{threads:?}"
    );
    assert_eq!(
        server.latency().queue_wait.count,
        0,
        "nothing was pushed to the queue"
    );
    assert_eq!(spent.wakes, 0, "{spent:?}");
    assert_eq!(spent.writes, HITS, "{spent:?}");
    assert!(spent.polls <= HITS + 2, "{spent:?}");

    // The worker-state table shows the dispatcher's stage while it
    // handles, and idle once the item is done — as it does a worker's.
    let dispatcher_row = || {
        let snapshot = server.snapshot("who handles");
        let mut rows = snapshot.sample.workers.into_iter().flatten();
        let row = rows.find(|w| w.role == WorkerRole::Dispatcher);
        row.expect("the dispatcher holds a row").activity
    };
    c.try_write(b"pause\n").unwrap();
    while !who.paused.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    assert!(
        matches!(
            dispatcher_row(),
            WorkerActivity::Running {
                stage: Stage::Handle,
                ..
            }
        ),
        "{:?}",
        dispatcher_row()
    );
    who.resume.store(true, Ordering::SeqCst);
    assert_eq!(tcp_read(&mut c, 11), b"echo:pause\n");
    let deadline = Instant::now() + Duration::from_secs(5);
    while dispatcher_row() != WorkerActivity::Idle {
        assert!(Instant::now() < deadline, "{:?}", dispatcher_row());
        std::thread::yield_now();
    }
    server.shutdown();
}

/// While `HOLD[K]` is set, [`HeldPoll<K>`] keeps a dispatcher that has
/// just been handed events from returning them, and says so in `HELD[K]`:
/// one pair for each test that holds a dispatcher, since tests run at once.
static HOLD: [AtomicBool; 2] = [AtomicBool::new(false), AtomicBool::new(false)];
static HELD: [AtomicBool; 2] = [AtomicBool::new(false), AtomicBool::new(false)];

#[derive(Default)]
struct HeldPoll<const K: usize>;

impl<const K: usize> PollHook for HeldPoll<K> {
    type Conn = Plain;

    fn around_wait<P: Poller>(
        &mut self,
        inner: &mut P,
        events: &mut Vec<PollEvent>,
        timeout: Option<Duration>,
    ) -> std::io::Result<()> {
        inner.wait(events, timeout)?;
        if HOLD[K].load(Ordering::SeqCst) {
            HELD[K].store(true, Ordering::SeqCst);
            while HOLD[K].load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            // What became ready meanwhile joins the same pass.
            let mut more = Vec::new();
            inner.wait(&mut more, Some(Duration::ZERO))?;
            events.append(&mut more);
        }
        Ok(())
    }
}

struct Plain;

impl ConnHook for Plain {}

#[derive(Clone)]
struct HeldAccepts<const K: usize>;

impl<const K: usize> AcceptHook for HeldAccepts<K> {
    type Conn = Plain;
    type Poll = HeldPoll<K>;

    fn accepted<S: StreamIo>(
        &mut self,
        _: u64,
        stream: std::io::Result<&mut S>,
    ) -> std::io::Result<Plain> {
        stream.map(|_| Plain)
    }
}

/// Two connections readable in one pass: the first event found goes to
/// the pool — before the dispatcher starts on the one it keeps — and
/// the dispatcher handles the other. Never fewer busy threads than when
/// both were queued.
#[test]
fn of_two_ready_events_one_is_queued_first_and_one_is_kept() {
    let cpus = std::thread::available_parallelism().map_or(usize::MAX, usize::from);
    assert!(
        cpus >= 2,
        "this test needs a second CPU: on one CPU every ready event is the \
         dispatcher's and no worker ever runs `meet` (see \
         `on_one_cpu_the_dispatcher_handles_both_ready_events`)"
    );
    let who = WhoHandles::default();
    let (listener, connector) = mem::listener("pair");
    let server = ServerBuilder::new(table1_options(), LineCodec, who.clone())
        .unwrap()
        .serve(Layered::new(listener, HeldAccepts::<0>));
    let (mut a, mut b) = (connector.connect(), connector.connect());
    assert_eq!(talk(&mut a, b"warm-a\n", 1), vec!["echo:warm-a"]);
    assert_eq!(talk(&mut b, b"warm-b\n", 1), vec!["echo:warm-b"]);
    assert_eq!(who.threads(), vec!["nserver-dispatcher-0"; 2]);
    who.worker_entered.store(false, Ordering::SeqCst);

    // The dispatcher is handed `a`'s event and held; `b`'s write lands;
    // released, it finds both in one pass.
    HOLD[0].store(true, Ordering::SeqCst);
    a.try_write(b"meet-a\n").unwrap();
    while !HELD[0].load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    b.try_write(b"meet-b\n").unwrap();
    HOLD[0].store(false, Ordering::SeqCst);
    assert_eq!(read_lines(&mut a, 1), vec!["echo:meet-a"]);
    assert_eq!(read_lines(&mut b, 1), vec!["echo:meet-b"]);

    let mut threads = who.threads().split_off(2);
    threads.sort();
    assert_eq!(threads, vec!["nserver-dispatcher-0", "nserver-worker"]);
    assert!(
        !who.met_nobody.load(Ordering::SeqCst),
        "the dispatcher ran its own event before queueing the other"
    );
    server.shutdown();
}

/// Linux's `cpu_set_t`: one bit for each of 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, set: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, set: *const CpuSet) -> i32;
}

/// Keep the calling thread, and every thread it starts from now on, on
/// the highest-numbered CPU it may run on.
fn pin_to_one_cpu() -> std::io::Result<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, aligned 128-byte buffer and the size passed
    // is its size; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpu = set
        .iter()
        .enumerate()
        .rev()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + 63 - word.leading_zeros() as usize)
        .ok_or_else(|| std::io::Error::other("no CPU to run on"))?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the set is only read.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

/// `build` run on a thread of its own that is kept on one CPU, so that a
/// server it builds reads one CPU and its threads run there.
fn on_one_cpu<T: Send + 'static>(build: impl FnOnce() -> T + Send + 'static) -> T {
    let pinned = std::thread::spawn(move || {
        pin_to_one_cpu().expect("keep a thread on one CPU");
        assert_eq!(std::thread::available_parallelism().unwrap().get(), 1);
        build()
    });
    pinned.join().expect("the pinned thread")
}

/// The one-CPU mirror of the test above: on a server built where one CPU
/// is all there is, both events of a pass are handled by the dispatcher
/// that read them, nothing passes the queue and nobody is woken, while
/// the pool stands as O5 built it. A watermark (O9) reads the queue, so
/// under it the same pass still queues one event for a worker.
#[test]
fn on_one_cpu_the_dispatcher_handles_both_ready_events() {
    let watermark = ServerOptions {
        overload_control: OverloadControl::Watermark { high: 16, low: 4 },
        ..table1_options()
    };
    let arms = [
        ("one-cpu", table1_options(), 0, ["nserver-dispatcher-0"; 2]),
        (
            "one-cpu-watermark",
            watermark,
            1,
            ["nserver-dispatcher-0", "nserver-worker"],
        ),
    ];
    for (name, opts, queued, handlers) in arms {
        let who = WhoHandles::default();
        let (listener, connector) = mem::listener(name);
        let opts = ServerOptions {
            profiling: true,
            ..opts
        };
        let service = who.clone();
        let server = on_one_cpu(move || {
            let builder = ServerBuilder::new(opts, LineCodec, service).unwrap();
            builder.serve(Layered::new(listener, HeldAccepts::<1>))
        });
        assert_eq!(server.live_workers(), 4, "{name}");
        let (mut a, mut b) = (connector.connect(), connector.connect());
        assert_eq!(talk(&mut a, b"warm-a\n", 1), vec!["echo:warm-a"]);
        assert_eq!(talk(&mut b, b"warm-b\n", 1), vec!["echo:warm-b"]);

        let before = server.syscalls();
        HELD[1].store(false, Ordering::SeqCst);
        HOLD[1].store(true, Ordering::SeqCst);
        a.try_write(b"both-a\n").unwrap();
        while !HELD[1].load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        b.try_write(b"both-b\n").unwrap();
        HOLD[1].store(false, Ordering::SeqCst);
        assert_eq!(read_lines(&mut a, 1), vec!["echo:both-a"]);
        assert_eq!(read_lines(&mut b, 1), vec!["echo:both-b"]);

        let mut threads = who.threads().split_off(2);
        threads.sort();
        assert_eq!(threads, handlers, "{name}");
        assert_eq!(server.latency().queue_wait.count, queued, "{name}");
        if queued == 0 {
            let spent = server.syscalls().since(&before);
            assert_eq!(spent.wakes, 0, "{name}: {spent:?}");
        }
        server.shutdown();
    }
}

/// A test listener over a mem listener whose `accept` fails with
/// `EMFILE` while `failing` is set, leaving the connection queued.
struct OutOfFiles {
    inner: mem::MemListener,
    failing: Arc<AtomicBool>,
}

impl Listener for OutOfFiles {
    type Stream = mem::MemStream;
    type Poller = mem::MemPoller;

    fn try_accept(&mut self) -> std::io::Result<Option<mem::MemStream>> {
        if self.failing.load(Ordering::SeqCst) {
            const EMFILE: i32 = 24;
            return Err(std::io::Error::from_raw_os_error(EMFILE));
        }
        self.inner.try_accept()
    }

    fn local_label(&self) -> String {
        self.inner.local_label()
    }

    fn new_poller() -> std::io::Result<mem::MemPoller> {
        mem::MemListener::new_poller()
    }

    fn register_listener(&self, poller: &mut mem::MemPoller) -> std::io::Result<()> {
        self.inner.register_listener(poller)
    }

    fn deregister_listener(&self, poller: &mut mem::MemPoller) -> std::io::Result<()> {
        self.inner.deregister_listener(poller)
    }
}

/// An `accept` that fails for want of a descriptor leaves the connection
/// queued, so retrying it at once would spin: the acceptor is gated as an
/// O9 refusal gates it, and re-checks every 10 ms. Over 100 ms of failures
/// the dispatcher wakes a few times, not thousands, and the connection is
/// served once the failures stop.
#[test]
fn accept_out_of_descriptors_backs_off_instead_of_spinning() {
    let failing = Arc::new(AtomicBool::new(true));
    let (inner, connector) = mem::listener("emfile");
    let listener = OutOfFiles {
        inner,
        failing: Arc::clone(&failing),
    };
    let server = ServerBuilder::new(base_options(), LineCodec, EchoService)
        .unwrap()
        .serve(listener);
    let mut c = connector.connect();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().accept_errors == 0 {
        assert!(
            Instant::now() < deadline,
            "the queued connection was never tried"
        );
        std::thread::yield_now();
    }

    let before = server.stats().dispatcher_wakeups;
    std::thread::sleep(Duration::from_millis(100));
    let woke = server.stats().dispatcher_wakeups - before;
    assert!(woke <= 20, "{woke} wake-ups in 100 ms of failing accepts");

    failing.store(false, Ordering::SeqCst);
    assert_eq!(read_lines(&mut c, 1), vec!["hello"]);
    assert_eq!(server.stats().connections_accepted, 1);
    server.shutdown();
}

/// A mem poller that refuses its first `register`, as epoll refuses one
/// with `ENOSPC` past `max_user_watches`.
struct RefusesFirst {
    inner: mem::MemPoller,
    refused: bool,
}

impl Poller for RefusesFirst {
    type Stream = mem::MemStream;

    fn register(
        &mut self,
        token: u64,
        stream: &mem::MemStream,
        interest: Interest,
    ) -> std::io::Result<()> {
        if !std::mem::replace(&mut self.refused, true) {
            const ENOSPC: i32 = 28;
            return Err(std::io::Error::from_raw_os_error(ENOSPC));
        }
        self.inner.register(token, stream, interest)
    }

    fn reregister(
        &mut self,
        token: u64,
        stream: &mem::MemStream,
        interest: Interest,
    ) -> std::io::Result<()> {
        self.inner.reregister(token, stream, interest)
    }

    fn deregister(&mut self, token: u64, stream: &mem::MemStream) -> std::io::Result<()> {
        self.inner.deregister(token, stream)
    }

    fn wait(
        &mut self,
        events: &mut Vec<PollEvent>,
        timeout: Option<Duration>,
    ) -> std::io::Result<()> {
        self.inner.wait(events, timeout)
    }

    fn waker(&self) -> Waker {
        self.inner.waker()
    }
}

/// A mem listener whose dispatcher's poller refuses the first connection.
struct RefusedOnce(mem::MemListener);

impl Listener for RefusedOnce {
    type Stream = mem::MemStream;
    type Poller = RefusesFirst;

    fn try_accept(&mut self) -> std::io::Result<Option<mem::MemStream>> {
        self.0.try_accept()
    }

    fn local_label(&self) -> String {
        self.0.local_label()
    }

    fn new_poller() -> std::io::Result<RefusesFirst> {
        let inner = mem::MemListener::new_poller()?;
        Ok(RefusesFirst {
            inner,
            refused: false,
        })
    }

    fn register_listener(&self, poller: &mut RefusesFirst) -> std::io::Result<()> {
        self.0.register_listener(&mut poller.inner)
    }

    fn deregister_listener(&self, poller: &mut RefusesFirst) -> std::io::Result<()> {
        self.0.deregister_listener(&mut poller.inner)
    }
}

/// A connection the poller refuses to watch is closed and counted at
/// once, not served one pass and then left unwatched — with no idle
/// reaping, open for ever: its client reads end of stream, the registry
/// empties, and the next connection is served as usual.
#[test]
fn a_connection_the_poller_refuses_is_closed_at_once() {
    let (inner, connector) = mem::listener("refused");
    let server = ServerBuilder::new(base_options(), LineCodec, EchoService)
        .unwrap()
        .serve(RefusedOnce(inner));
    let mut refused = connector.connect();
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut buf = [0u8; 64];
    while !matches!(refused.try_read(&mut buf).unwrap(), ReadOutcome::Closed) {
        assert!(
            Instant::now() < deadline,
            "the refused connection stayed open"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    while server.open_connections() > 0 {
        assert!(
            Instant::now() < deadline,
            "the refused connection stayed registered"
        );
        std::thread::yield_now();
    }
    let stats = server.stats();
    assert_eq!(stats.connections_accepted, 1);
    assert_eq!(stats.connections_closed, 1);
    assert_eq!(stats.accept_errors, 1);

    let mut next = connector.connect();
    assert_eq!(talk(&mut next, b"after\n", 2), vec!["hello", "echo:after"]);
    server.shutdown();
}

/// Where a hook may block in place (O4 = Synchronous) or the queue's
/// discipline has to see every event (O8 = Yes), every event still goes
/// through the queue: no `handle` ever runs on the dispatcher.
#[test]
fn sync_completions_and_event_scheduling_keep_every_event_on_the_queue() {
    let scheduled = ServerOptions {
        event_scheduling: EventScheduling::Yes { quotas: vec![4, 1] },
        ..table1_options()
    };
    for (name, opts) in [("o4-sync", ServerOptions::default()), ("o8", scheduled)] {
        let who = WhoHandles::default();
        let (listener, connector) = mem::listener(name);
        let opts = ServerOptions {
            profiling: true,
            ..opts
        };
        let server = ServerBuilder::new(opts, LineCodec, who.clone())
            .unwrap()
            .serve(listener);
        let mut c = connector.connect();
        for i in 0..20 {
            let lines = talk(&mut c, format!("alone-{i}\n").as_bytes(), 1);
            assert_eq!(lines, vec![format!("echo:alone-{i}")]);
        }
        assert_eq!(who.threads(), vec!["nserver-worker"; 20], "{name}");
        assert_eq!(server.latency().queue_wait.count, 20, "{name}");
        server.shutdown();
    }
}

/// Panics in `decode` on the line `BOOM`.
struct BoomCodec;

impl Codec for BoomCodec {
    type Request = String;
    type Response = String;

    fn decode(&self, buf: &mut BytesMut) -> Result<Option<String>, ProtocolError> {
        let line = LineCodec.decode(buf)?;
        assert!(line.as_deref() != Some("BOOM"), "decode hook blew up");
        Ok(line)
    }

    fn encode(&self, r: &String, out: &mut BytesMut) -> Result<(), ProtocolError> {
        LineCodec.encode(r, out)
    }
}

/// A hook that panics on the dispatcher — where every work item runs
/// under O2 = No, and a request that arrives alone under Table 1's
/// options — costs that connection and nothing else: it is closed, one
/// `handler_panics` is counted, and the same thread serves the next.
#[test]
fn a_hook_panic_on_the_dispatcher_closes_only_that_connection() {
    let inline = ServerOptions {
        separate_handler_pool: false,
        ..table1_options()
    };
    for (name, opts) in [("boom-pool", table1_options()), ("boom-inline", inline)] {
        let who = WhoHandles::default();
        let (listener, connector) = mem::listener(name);
        let server = ServerBuilder::new(opts, BoomCodec, who.clone())
            .unwrap()
            .serve(listener);
        let mut doomed = connector.connect();
        assert_eq!(talk(&mut doomed, b"fine\n", 1), vec!["echo:fine"]);
        doomed.try_write(b"BOOM\n").unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut buf = [0u8; 64];
        loop {
            match doomed.try_read(&mut buf).unwrap() {
                ReadOutcome::Closed => break,
                ReadOutcome::Data(n) => panic!("{name}: {:?}", &buf[..n]),
                ReadOutcome::WouldBlock => std::thread::yield_now(),
            }
            assert!(Instant::now() < deadline, "{name}: never closed");
        }
        let mut next = connector.connect();
        assert_eq!(talk(&mut next, b"after\n", 1), vec!["echo:after"]);
        assert_eq!(who.threads(), vec!["nserver-dispatcher-0"; 2], "{name}");
        let stats = server.stats();
        assert_eq!(stats.handler_panics, 1, "{name}");
        assert_eq!(stats.connections_closed, 1, "{name}");
        server.shutdown();
    }
}

/// A hook panic closes the stage window it died in: every Decode window
/// the trace opened is a closed pair — in `stage_pairs` and as a `B`/`E`
/// window of the Perfetto export — the one `decode` panicked in
/// included, whether a pool worker ran it (O4 = Synchronous) or the
/// dispatcher did (a request that arrives alone under Table 1's options).
#[test]
fn a_hook_panic_closes_the_stage_window_it_died_in() {
    use nserver_core::json::Json;
    use nserver_core::trace::{check_trace_events, stage_pairs, SpanEvent};
    for (name, opts, thread) in [
        (
            "boom-window-worker",
            ServerOptions::default(),
            "nserver-worker",
        ),
        (
            "boom-window-dispatcher",
            table1_options(),
            "nserver-dispatcher-0",
        ),
    ] {
        let who = WhoHandles::default();
        let (listener, connector) = mem::listener(name);
        let opts = ServerOptions {
            mode: Mode::Debug,
            ..opts
        };
        let server = ServerBuilder::new(opts, BoomCodec, who.clone())
            .unwrap()
            .serve(listener);
        let mut doomed = connector.connect();
        assert_eq!(talk(&mut doomed, b"fine\n", 1), vec!["echo:fine"]);
        assert_eq!(who.threads(), vec![thread], "{name}");
        doomed.try_write(b"BOOM\n").unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while doomed.try_read(&mut [0u8; 64]).unwrap() != ReadOutcome::Closed {
            assert!(Instant::now() < deadline, "{name}: never closed");
            std::thread::yield_now();
        }
        let records = server.tracer().dump();
        let opened = |r: &&nserver_core::trace::TraceRecord| {
            let decode = Stage::Decode;
            matches!(r.span, Some(SpanEvent::StageBegin { stage, .. }) if stage == decode)
        };
        let opened = records.iter().filter(opened).count();
        let pairs = stage_pairs(&records);
        let closed = pairs.iter().filter(|p| p.stage == Stage::Decode).count();
        assert!(opened >= 2, "{name}: {opened}");
        assert_eq!(closed, opened, "{name}: a Decode window was dropped");
        let doc = Json::parse(&server.perfetto_json()).expect("well-formed");
        let shape = check_trace_events(&doc).unwrap_or_else(|e| panic!("{name}: {e}"));
        let exported = shape.windows.iter().filter(|w| *w == "decode").count();
        assert_eq!(exported, opened, "{name}");
        assert_eq!(server.stats().handler_panics, 1, "{name}");
        server.shutdown();
    }
}

#[test]
fn shutdown_closes_open_connections() {
    let (listener, connector) = mem::listener("down");
    let server = ServerBuilder::new(base_options(), LineCodec, EchoService)
        .unwrap()
        .serve(listener);
    let mut c = connector.connect();
    assert_eq!(read_lines(&mut c, 1), vec!["hello"]);
    server.shutdown();
    let mut buf = [0u8; 16];
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut closed = false;
    while Instant::now() < deadline {
        if matches!(c.try_read(&mut buf).unwrap(), ReadOutcome::Closed) {
            closed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(closed);
}

#[test]
fn logging_option_emits_access_lines() {
    use nserver_core::trace::MemoryLogger;
    let opts = ServerOptions {
        logging: true,
        ..base_options()
    };
    let log = MemoryLogger::new();
    let (listener, connector) = mem::listener("log");
    let server = ServerBuilder::new(opts, LineCodec, EchoService)
        .unwrap()
        .logger(log.as_hook())
        .serve(listener);
    let mut c = connector.connect();
    let _ = talk(&mut c, b"a\nb\n", 3);
    // Greeting doesn't log; two request replies do.
    let deadline = Instant::now() + Duration::from_secs(2);
    while Instant::now() < deadline && log.lines().len() < 2 {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(log.lines().len(), 2);
    server.shutdown();
}

/// Lingering close: a request pipelined past the close-triggering one
/// must not cost the client the final response. The server half-closes
/// (FIN) after draining "bye", keeps reading, and discards the late
/// line instead of hard-closing into unread bytes (which would reset
/// the connection and flush the client's receive queue).
#[test]
fn lingering_close_preserves_the_final_response() {
    let (listener, connector) = mem::listener("linger");
    let server = ServerBuilder::new(base_options(), LineCodec, EchoService)
        .unwrap()
        .serve(listener);

    let mut c = connector.connect();
    c.try_write(b"a\nquit\n").unwrap();
    // Let "quit" close the connection server-side, then pipeline a late
    // line into the linger window.
    std::thread::sleep(Duration::from_millis(100));
    c.try_write(b"late\n").unwrap();

    // Every response up to and including the close-triggering one
    // arrives intact, then FIN.
    let lines = read_lines(&mut c, 3);
    assert_eq!(lines, vec!["hello", "echo:a", "bye"]);
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut buf = [0u8; 64];
    let mut closed = false;
    while Instant::now() < deadline {
        match c.try_read(&mut buf).unwrap() {
            ReadOutcome::Closed => {
                closed = true;
                break;
            }
            ReadOutcome::Data(_) => panic!("unexpected bytes after 'bye'"),
            ReadOutcome::WouldBlock => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    assert!(closed, "server never sent FIN after quit");
    // The client answers the FIN with its own: the linger ends on peer
    // EOF, not the deadline.
    c.shutdown_write();
    let deadline = Instant::now() + Duration::from_secs(2);
    while Instant::now() < deadline && server.stats().connections_closed < 1 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = server.stats();
    assert_eq!(stats.connections_lingered, 1);
    assert_eq!(stats.connections_closed, 1);
    assert_eq!(stats.linger_reaped, 0, "peer FIN should end the linger");
    server.shutdown();
}

/// A peer that never acknowledges the server's FIN is reaped when the
/// linger deadline (1s) passes instead of pinning the slot forever.
#[test]
fn silent_peer_is_linger_reaped_at_the_deadline() {
    let (listener, connector) = mem::listener("linger-reap");
    let server = ServerBuilder::new(base_options(), LineCodec, EchoService)
        .unwrap()
        .serve(listener);
    let mut c = connector.connect();
    let lines = talk(&mut c, b"quit\n", 2);
    assert_eq!(lines, vec!["hello", "bye"]);
    // Never FIN; the server must give up on its own.
    let deadline = Instant::now() + Duration::from_secs(4);
    while Instant::now() < deadline && server.stats().linger_reaped < 1 {
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = server.stats();
    assert_eq!(stats.connections_lingered, 1);
    assert_eq!(stats.linger_reaped, 1, "linger deadline never fired");
    server.shutdown();
}

/// Answers `big` with more bytes than loopback socket buffers hold, and
/// echoes anything else.
struct BigReplies;

impl Service<LineCodec> for BigReplies {
    fn handle(&self, _ctx: &ConnCtx, req: String) -> Action<String> {
        match req.as_str() {
            "big" => Action::Reply("x".repeat(16 << 20)),
            other => Action::Reply(format!("echo:{other}")),
        }
    }
}

/// One server, every per-connection deadline armed, three peers each
/// reaped by a different one: write drain (250 ms) < idle (500 ms) <
/// header read (1 s). A peer that falls silent after its reply is idle
/// before its re-armed header window ends; a peer dribbling one byte
/// every 25 ms stays busy but never completes a request; a peer that
/// never reads its reply stalls the drain before it idles. Over loopback
/// TCP, because in-memory pipes never push back.
#[test]
fn deadlines_reap_an_idle_a_dribbling_and_a_non_reading_peer() {
    let opts = ServerOptions {
        idle_shutdown_ms: Some(500),
        stage_deadlines: StageDeadlines {
            header_read_ms: Some(1_000),
            write_drain_ms: Some(250),
        },
        ..base_options()
    };
    let server = ServerBuilder::new(opts, LineCodec, BigReplies)
        .unwrap()
        .serve(TcpListenerNb::bind("127.0.0.1:0").unwrap());
    let addr = server.local_label().to_string();

    let mut silent = TcpStreamNb::connect(&addr).unwrap();
    silent.try_write(b"ping\n").unwrap();
    assert_eq!(tcp_read(&mut silent, 10), b"echo:ping\n");
    let mut stalled = TcpStreamNb::connect(&addr).unwrap();
    assert_eq!(stalled.try_write(b"big\n").unwrap(), 4);
    let mut dribbler = TcpStreamNb::connect(&addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().connections_closed < 3 && Instant::now() < deadline {
        let _ = dribbler.try_write(b"x");
        std::thread::sleep(Duration::from_millis(25));
    }

    // Every reaped connection closed (a lingering close releases it at
    // once), so no deadline is left to fire.
    let stats = server.stats();
    assert_eq!(stats.connections_closed, 3, "{stats:?}");
    assert_eq!(stats.connections_idle_closed, 1, "{stats:?}");
    assert_eq!(stats.connections_timed_out, 2, "{stats:?}");
    let peers: std::collections::HashMap<u64, String> = server
        .tracer()
        .metas()
        .into_iter()
        .map(|(id, meta)| (id, meta.peer))
        .collect();
    let reaped = |why: &str| {
        let records = server.tracer().dump();
        let hits = records.iter().filter(|r| r.detail == why);
        let mut who: Vec<String> = hits.map(|r| peers[&r.conn.unwrap()].clone()).collect();
        who.sort();
        who
    };
    assert_eq!(reaped("idle shutdown"), vec![silent.local_label()]);
    let mut stage = vec![dribbler.local_label(), stalled.local_label()];
    stage.sort();
    assert_eq!(reaped("stage deadline exceeded"), stage);
    server.shutdown();
}

/// A closed connection's wake-up is dropped, not slept on: fifty
/// connections each end in a lingering close the peer answers with its
/// FIN, and over the 1.5 s in which their 1 s linger deadlines would have
/// fallen the dispatcher stays asleep.
#[test]
fn deadlines_leave_no_stale_wake_up_after_lingering_closes() {
    let (listener, connector) = mem::listener("linger-answered");
    let server = ServerBuilder::new(base_options(), LineCodec, EchoService)
        .unwrap()
        .serve(listener);
    for _ in 0..50 {
        let mut c = connector.connect();
        assert_eq!(talk(&mut c, b"quit\n", 2), vec!["hello", "bye"]);
        let mut buf = [0u8; 16];
        let deadline = Instant::now() + Duration::from_secs(2);
        while c.try_read(&mut buf).unwrap() != ReadOutcome::Closed && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(200));
        }
        // The server's FIN came: answer it.
        c.shutdown_write();
    }
    assert_eq!(server.stats().connections_lingered, 50);
    std::thread::sleep(Duration::from_millis(100));

    let before = server.stats().dispatcher_wakeups;
    std::thread::sleep(Duration::from_millis(1_500));
    let woke = server.stats().dispatcher_wakeups - before;
    assert!(woke <= 10, "{woke} wake-ups after every linger ended");
    assert_eq!(server.stats().linger_reaped, 0, "every peer answered");
    server.shutdown();
}

/// A peer that half-closes mid-request leaves a fragment that can never
/// complete. The decode loop must reap it promptly — no `idle_shutdown_ms`
/// is configured here, so before the fix this connection hung until
/// server shutdown.
#[test]
fn half_close_mid_request_is_reaped_promptly() {
    let (listener, connector) = mem::listener("half");
    let server = ServerBuilder::new(base_options(), LineCodec, EchoService)
        .unwrap()
        .serve(listener);
    let mut c = connector.connect();
    assert_eq!(read_lines(&mut c, 1), vec!["hello"]);
    // A partial line (no terminator), then FIN.
    c.try_write(b"incompl").unwrap();
    c.shutdown_write();
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut buf = [0u8; 64];
    let mut closed = false;
    while Instant::now() < deadline {
        if matches!(c.try_read(&mut buf).unwrap(), ReadOutcome::Closed) {
            closed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(closed, "mid-request half-close was not reaped");
    let stats = server.stats();
    assert_eq!(stats.connections_closed, 1);
    // FIN was already seen: a hard close, no linger needed.
    assert_eq!(stats.connections_lingered, 0);
    server.shutdown();
}

#[test]
fn heavy_pipelined_load_is_lossless() {
    let opts = ServerOptions {
        completion_mode: CompletionMode::Asynchronous,
        thread_allocation: ThreadAllocation::Static { threads: 4 },
        ..base_options()
    };
    let (listener, connector) = mem::listener("load");
    let server = ServerBuilder::new(opts, LineCodec, EchoService)
        .unwrap()
        .serve(listener);
    let mut c = connector.connect();
    let mut input = String::new();
    for i in 0..200 {
        if i % 10 == 0 {
            input.push_str("work\n");
        } else {
            input.push_str(&format!("r{i}\n"));
        }
    }
    let lines = talk(&mut c, input.as_bytes(), 201);
    assert_eq!(lines.len(), 201);
    assert_eq!(lines[0], "hello");
    // Replies are in request order despite async completions.
    let mut expect = Vec::new();
    for i in 0..200 {
        if i % 10 == 0 {
            expect.push("worked".to_string());
        } else {
            expect.push(format!("echo:r{i}"));
        }
    }
    assert_eq!(&lines[1..], &expect[..]);
    server.shutdown();
}

/// Delivery property behind the lingering close: for any pipeline of
/// requests where one triggers the close, the client receives every
/// response up to and including the final one, byte-exact — no
/// matter how many requests ride behind the close trigger or when
/// they land relative to the server's FIN.
#[test]
fn pipelined_close_delivers_every_response_byte_exact() {
    // Each case boots a real server, so the case count stays small.
    check(24, |g| {
        let word = |g: &mut Gen| g.string("abcdefghijklmnopqrstuvwxyz", 1..=8);
        let words = g.vec(1..6, word);
        let tail = g.vec(0..4, word);
        let tail_pause_ms = g.range(0u64..120);
        let (listener, connector) = mem::listener("prop-linger");
        let server = ServerBuilder::new(base_options(), LineCodec, EchoService)
            .unwrap()
            .serve(listener);
        let mut c = connector.connect();

        let mut head = String::new();
        for w in &words {
            head.push_str(w);
            head.push('\n');
        }
        head.push_str("quit\n");
        c.try_write(head.as_bytes()).unwrap();
        if !tail.is_empty() {
            // Land the pipelined tail anywhere from before the close
            // decision to deep inside the linger window.
            std::thread::sleep(Duration::from_millis(tail_pause_ms));
            let mut late = String::new();
            for w in &tail {
                late.push_str(w);
                late.push('\n');
            }
            if c.try_write(late.as_bytes()).is_err() {
                // Linger already reaped (or shutdown raced): the close
                // trigger's responses were flushed before FIN either way.
            }
        }

        let mut expected = String::from("hello\n");
        for w in &words {
            expected.push_str(&format!("echo:{w}\n"));
        }
        expected.push_str("bye\n");

        let mut acc = Vec::new();
        let mut buf = [0u8; 4096];
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut closed = false;
        while Instant::now() < deadline {
            match c.try_read(&mut buf).unwrap() {
                ReadOutcome::Data(n) => acc.extend_from_slice(&buf[..n]),
                ReadOutcome::WouldBlock => std::thread::sleep(Duration::from_micros(300)),
                ReadOutcome::Closed => {
                    closed = true;
                    break;
                }
            }
        }
        assert!(closed, "server never closed after quit");
        assert_eq!(String::from_utf8(acc).unwrap(), expected);
        server.shutdown();
    });
}
