//! Distributed N-Server support — the paper's conclusion names this as
//! "the most interesting extension of this work … to support the
//! generation of distributed N-servers that will serve from a network of
//! workstations."
//!
//! The [`ClusterFrontEnd`] is an event-driven connection relay built from
//! the same non-blocking transport — and the same readiness demultiplexer
//! — the Reactor uses: it accepts client connections, dials a backend
//! N-Server per connection (round-robin or least-connections), and
//! shuttles bytes both ways, blocking in its poller whenever no socket is
//! ready. Backend N-Servers run unchanged — exactly the paper's promise
//! that "the programmer \[writes\] identical hook methods … whether the
//! application was generated for a shared memory machine or a network of
//! workstations."

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::BytesMut;

use crate::timer::{pass_clock, Deadlines, LINGER};
use crate::trace::{DebugTracer, SpanEvent};
use crate::transport::{
    Interest, Listener, PollEvent, Poller, ReadOutcome, StreamIo, TcpListenerNb, TcpPoller,
    TcpStreamNb, Waker, LISTENER_TOKEN,
};

/// Backend selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Balancing {
    /// Rotate through the backends in order.
    RoundRobin,
    /// Dial the backend with the fewest live relayed connections.
    LeastConnections,
}

/// Bounded retry-with-backoff for backend dials: a refused or reset dial
/// parks the client and retries against the *next* backend candidate
/// instead of failing the client on the first refusal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total dial attempts per client connection (≥ 1).
    pub attempts: u32,
    /// Delay before the first retry; doubles on each further retry.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 3,
            backoff: Duration::from_millis(50),
        }
    }
}

/// Relay statistics.
#[derive(Debug, Default)]
pub struct RelayStats {
    /// Client connections accepted by the front end.
    pub connections: AtomicU64,
    /// Connections refused because no backend was dialable.
    pub backend_failures: AtomicU64,
    /// Backend dials retried after a failure.
    pub dial_retries: AtomicU64,
    /// Bytes moved client → backend.
    pub bytes_upstream: AtomicU64,
    /// Bytes moved backend → client.
    pub bytes_downstream: AtomicU64,
}

/// A client whose backend dial failed, waiting for its next attempt.
struct PendingDial {
    client: TcpStreamNb,
    attempts_left: u32,
    backoff: Duration,
    last_index: usize,
}

struct Session {
    client: TcpStreamNb,
    backend: TcpStreamNb,
    backend_index: usize,
    up_buf: BytesMut,
    down_buf: BytesMut,
    client_eof: bool,
    backend_eof: bool,
    /// Whether the finished direction's FIN was propagated (half-close).
    fin_to_client: bool,
    fin_to_backend: bool,
    /// When the session is reaped: once one direction finished, the
    /// other side gets [`LINGER`] to send its own FIN before this.
    reap_at: Option<Instant>,
    /// Interest currently registered for the client / backend stream.
    client_armed: Interest,
    backend_armed: Interest,
    /// Syscall attempts on this session's sockets not yet reported to
    /// the tracer.
    io_reads: u64,
    io_writes: u64,
}

impl Session {
    fn new(client: TcpStreamNb, backend: TcpStreamNb, backend_index: usize) -> Session {
        Session {
            client,
            backend,
            backend_index,
            up_buf: BytesMut::new(),
            down_buf: BytesMut::new(),
            client_eof: false,
            backend_eof: false,
            fin_to_client: false,
            fin_to_backend: false,
            reap_at: None,
            client_armed: Interest::READABLE,
            backend_armed: Interest::READABLE,
            io_reads: 0,
            io_writes: 0,
        }
    }
}

/// What a relay wake-up is for, by session key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Wake {
    /// A parked client's next backend dial.
    Dial(u64),
    /// A half-closed session's lingering window ends.
    Reap(u64),
}

/// A running cluster front end.
pub struct ClusterFrontEnd {
    stop: Arc<AtomicBool>,
    waker: Waker,
    thread: Option<JoinHandle<()>>,
    local_label: String,
    stats: Arc<RelayStats>,
    tracer: DebugTracer,
}

impl ClusterFrontEnd {
    /// Start relaying connections arriving on `listener` to `backends`
    /// (socket addresses of running N-Servers), with the default
    /// [`RetryPolicy`] for backend dials.
    pub fn start(
        listener: TcpListenerNb,
        backends: Vec<String>,
        balancing: Balancing,
    ) -> io::Result<ClusterFrontEnd> {
        Self::start_with_retry(listener, backends, balancing, RetryPolicy::default())
    }

    /// [`ClusterFrontEnd::start`] with an explicit backend-dial retry
    /// policy.
    pub fn start_with_retry(
        listener: TcpListenerNb,
        backends: Vec<String>,
        balancing: Balancing,
        retry: RetryPolicy,
    ) -> io::Result<ClusterFrontEnd> {
        Self::start_traced(
            listener,
            backends,
            balancing,
            retry,
            DebugTracer::disabled(),
        )
    }

    /// [`ClusterFrontEnd::start_with_retry`] with a request-timeline
    /// tracer. Each relayed session gets a process-unique trace id keyed
    /// by the client's peer label, plus a correlation link carrying the
    /// relay's local address on the backend dial — the label the backend
    /// N-Server sees as that connection's peer, which is how timeline
    /// assembly joins the two tiers. Tracing is purely internal: the
    /// relayed byte stream is unchanged in either direction.
    pub fn start_traced(
        listener: TcpListenerNb,
        backends: Vec<String>,
        balancing: Balancing,
        retry: RetryPolicy,
        tracer: DebugTracer,
    ) -> io::Result<ClusterFrontEnd> {
        if backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cluster front end needs at least one backend",
            ));
        }
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(RelayStats::default());
        let local_label = listener.local_label();
        let mut poller = TcpPoller::new()?;
        listener.register_listener(&mut poller)?;
        // Held by the handle so shutdown can pull the relay thread out of
        // its blocking wait.
        let waker = poller.waker();
        let thread = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            let tracer = tracer.clone();
            std::thread::Builder::new()
                .name("nserver-cluster-frontend".into())
                .spawn(move || {
                    relay_loop(
                        listener, poller, backends, balancing, retry, stop, stats, tracer,
                    )
                })
                .expect("spawn relay thread")
        };
        Ok(ClusterFrontEnd {
            stop,
            waker,
            thread: Some(thread),
            local_label,
            stats,
            tracer,
        })
    }

    /// The front end's listen address.
    pub fn local_label(&self) -> &str {
        &self.local_label
    }

    /// Statistics snapshot source.
    pub fn stats(&self) -> &RelayStats {
        &self.stats
    }

    /// The relay's trace ring (disabled unless started via
    /// [`ClusterFrontEnd::start_traced`]).
    pub fn tracer(&self) -> &DebugTracer {
        &self.tracer
    }

    /// Stop relaying and join the relay thread; live connections close.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.waker.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ClusterFrontEnd {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.waker.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Poller tokens: session `k` registers its client stream under `2k` and
/// its backend stream under `2k + 1`. Keys start at 1 so no session token
/// collides with [`LISTENER_TOKEN`].
fn session_key(token: u64) -> u64 {
    token >> 1
}

fn choose_index(balancing: Balancing, per_backend: &[usize], next_rr: &mut usize) -> usize {
    match balancing {
        Balancing::RoundRobin => {
            let i = *next_rr % per_backend.len();
            *next_rr += 1;
            i
        }
        Balancing::LeastConnections => per_backend
            .iter()
            .enumerate()
            .min_by_key(|(_, &n)| n)
            .map(|(i, _)| i)
            .unwrap_or(0),
    }
}

/// Stamp a freshly dialed session into the trace ring: open the conn
/// with the client's peer label, link it to the backend socket's local
/// address (the backend tier's peer label for this connection), and mark
/// the accept instant.
fn trace_session_open(tracer: &DebugTracer, k: u64, client: &TcpStreamNb, backend: &TcpStreamNb) {
    if !tracer.is_enabled() {
        return;
    }
    tracer.conn_open(k, &client.peer_label());
    tracer.link(k, backend.local_label());
    tracer.span(SpanEvent::Accept, k);
}

#[allow(clippy::too_many_arguments)]
fn relay_loop(
    mut listener: TcpListenerNb,
    mut poller: TcpPoller,
    backends: Vec<String>,
    balancing: Balancing,
    retry: RetryPolicy,
    stop: Arc<AtomicBool>,
    stats: Arc<RelayStats>,
    tracer: DebugTracer,
) {
    let mut sessions: HashMap<u64, Session> = HashMap::new();
    // Clients whose backend dial failed, under the key their session
    // will have; each holds one `Wake::Dial` until it is retried.
    let mut parked: HashMap<u64, PendingDial> = HashMap::new();
    let mut deadlines: Deadlines<Wake> = Deadlines::default();
    let mut per_backend = vec![0usize; backends.len()];
    let mut next_rr = 0usize;
    let mut next_key: u64 = 1;
    let mut buf = vec![0u8; 16 * 1024];
    let mut events: Vec<PollEvent> = Vec::new();

    loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        // The pass's one clock reading, taken when first needed.
        let mut clock: Option<Instant> = None;

        let mut accept_ready = false;
        let mut touched: Vec<u64> = Vec::new();
        for ev in events.drain(..) {
            if ev.token == LISTENER_TOKEN {
                accept_ready = true;
            } else {
                touched.push(session_key(ev.token));
            }
        }
        touched.sort_unstable();
        touched.dedup();

        // Accept and dial. A failed dial parks the client for a bounded
        // retry against the next backend candidate instead of dropping it.
        if accept_ready {
            while let Ok(Some(client)) = listener.try_accept() {
                let k = next_key;
                next_key += 1;
                let index = choose_index(balancing, &per_backend, &mut next_rr);
                match TcpStreamNb::connect(&backends[index]) {
                    Ok(backend) => {
                        per_backend[index] += 1;
                        stats.connections.fetch_add(1, Ordering::Relaxed);
                        trace_session_open(&tracer, k, &client, &backend);
                        let _ = poller.register(2 * k, &client, Interest::READABLE);
                        let _ = poller.register(2 * k + 1, &backend, Interest::READABLE);
                        sessions.insert(k, Session::new(client, backend, index));
                        // Service once now: data may already be in flight.
                        touched.push(k);
                    }
                    Err(_) if retry.attempts > 1 => {
                        deadlines.arm(pass_clock(&mut clock) + retry.backoff, Wake::Dial(k));
                        let dial = PendingDial {
                            client,
                            attempts_left: retry.attempts - 1,
                            backoff: retry.backoff,
                            last_index: index,
                        };
                        parked.insert(k, dial);
                    }
                    Err(_) => {
                        stats.backend_failures.fetch_add(1, Ordering::Relaxed);
                        let mut client = client;
                        client.shutdown();
                    }
                }
            }
        }

        // Shuttle bytes on the sessions the poller flagged.
        for k in touched {
            let s = match sessions.get_mut(&k) {
                Some(s) => s,
                None => continue, // stale event for a finished session
            };
            pump(
                &mut s.client,
                &mut s.backend,
                &mut s.up_buf,
                &mut s.client_eof,
                &mut buf,
                &stats.bytes_upstream,
                &mut s.io_reads,
                &mut s.io_writes,
            );
            pump(
                &mut s.backend,
                &mut s.client,
                &mut s.down_buf,
                &mut s.backend_eof,
                &mut buf,
                &stats.bytes_downstream,
                &mut s.io_reads,
                &mut s.io_writes,
            );
            if tracer.is_enabled() && (s.io_reads | s.io_writes) != 0 {
                tracer.syscalls(k, s.io_reads, s.io_writes);
                s.io_reads = 0;
                s.io_writes = 0;
            }
            // A finished direction propagates as a half-close (FIN after
            // the drained relay bytes), never as an immediate full close:
            // closing a socket with unread peer bytes in its receive
            // queue answers with RST, and an RST discards reply bytes the
            // peer has not consumed yet. The session lingers — still
            // pumping the open direction — until both sides finish or its
            // reap wake-up comes due.
            // The `is_empty` guards uphold the `shutdown_write` contract:
            // FIN only ever follows a fully drained relay buffer.
            if s.client_eof && s.up_buf.is_empty() && !s.fin_to_backend {
                s.backend.shutdown_write();
                s.fin_to_backend = true;
            }
            if s.backend_eof && s.down_buf.is_empty() && !s.fin_to_client {
                s.client.shutdown_write();
                s.fin_to_client = true;
            }
            if s.client_eof && s.up_buf.is_empty() && s.backend_eof && s.down_buf.is_empty() {
                let s = sessions.remove(&k).expect("present");
                teardown(&mut poller, &mut per_backend, &tracer, k, s);
                continue;
            }
            if (s.fin_to_client || s.fin_to_backend) && s.reap_at.is_none() {
                let reap = pass_clock(&mut clock) + LINGER;
                s.reap_at = Some(reap);
                deadlines.arm(reap, Wake::Reap(k));
            }
            // Re-arm interest: stop read-polling a half-closed side, poll
            // writability only while relay bytes are actually queued.
            let want_client = Interest {
                readable: !s.client_eof,
                writable: !s.down_buf.is_empty(),
            };
            if want_client != s.client_armed {
                let _ = poller.reregister(2 * k, &s.client, want_client);
                s.client_armed = want_client;
            }
            let want_backend = Interest {
                readable: !s.backend_eof,
                writable: !s.up_buf.is_empty(),
            };
            if want_backend != s.backend_armed {
                let _ = poller.reregister(2 * k + 1, &s.backend, want_backend);
                s.backend_armed = want_backend;
            }
        }

        // Time: retry parked dials whose backoff elapsed, rotating to the
        // next backend so a single dead peer cannot absorb every attempt,
        // and reap half-closed sessions whose still-open side never sent
        // its own FIN inside the lingering window. A session arms its one
        // reap once and keys are never reused, so a reap whose session
        // finished is stale and dropped unread. Only these need a timed
        // wake-up; otherwise the relay performs no periodic work at all.
        let mut sleep = None;
        while let Some((at, wake)) = deadlines.next() {
            let stale = matches!(wake, Wake::Reap(k) if !sessions.contains_key(&k));
            let now = pass_clock(&mut clock);
            if !stale && at > now {
                sleep = Some(at - now);
                break;
            }
            // Due, or stale: either way it leaves the queue.
            deadlines.pop_due(at);
            match wake {
                Wake::Reap(k) => {
                    if let Some(s) = sessions.remove(&k) {
                        teardown(&mut poller, &mut per_backend, &tracer, k, s);
                    }
                }
                Wake::Dial(k) => {
                    let mut pd = parked.remove(&k).expect("a parked dial");
                    stats.dial_retries.fetch_add(1, Ordering::Relaxed);
                    let index = (pd.last_index + 1) % backends.len();
                    match TcpStreamNb::connect(&backends[index]) {
                        Ok(backend) => {
                            per_backend[index] += 1;
                            stats.connections.fetch_add(1, Ordering::Relaxed);
                            trace_session_open(&tracer, k, &pd.client, &backend);
                            let _ = poller.register(2 * k, &pd.client, Interest::READABLE);
                            let _ = poller.register(2 * k + 1, &backend, Interest::READABLE);
                            sessions.insert(k, Session::new(pd.client, backend, index));
                        }
                        Err(_) => {
                            pd.attempts_left -= 1;
                            if pd.attempts_left == 0 {
                                stats.backend_failures.fetch_add(1, Ordering::Relaxed);
                                pd.client.shutdown();
                            } else {
                                pd.backoff *= 2;
                                pd.last_index = index;
                                deadlines.arm(now + pd.backoff, Wake::Dial(k));
                                parked.insert(k, pd);
                            }
                        }
                    }
                }
            }
        }

        // Block until a socket is ready, the queue's head, or the
        // shutdown waker.
        if poller.wait(&mut events, sleep).is_err() {
            events.clear();
        }
    }
    for (_, mut s) in sessions.drain() {
        s.client.shutdown();
        s.backend.shutdown();
    }
    for (_, mut p) in parked.drain() {
        p.client.shutdown();
    }
}

/// Deregister and fully close a finished (or reaped) session.
fn teardown(
    poller: &mut TcpPoller,
    per_backend: &mut [usize],
    tracer: &DebugTracer,
    k: u64,
    mut s: Session,
) {
    if tracer.is_enabled() {
        if (s.io_reads | s.io_writes) != 0 {
            tracer.syscalls(k, s.io_reads, s.io_writes);
        }
        tracer.span(SpanEvent::Close, k);
    }
    let _ = poller.deregister(2 * k, &s.client);
    let _ = poller.deregister(2 * k + 1, &s.backend);
    s.client.shutdown();
    s.backend.shutdown();
    per_backend[s.backend_index] -= 1;
}

/// Move bytes from `from` towards `to` through `pending`. Returns whether
/// anything moved. `reads`/`writes` tally syscall attempts for timeline
/// attribution.
#[allow(clippy::too_many_arguments)]
fn pump(
    from: &mut TcpStreamNb,
    to: &mut TcpStreamNb,
    pending: &mut BytesMut,
    from_eof: &mut bool,
    scratch: &mut [u8],
    counter: &AtomicU64,
    reads: &mut u64,
    writes: &mut u64,
) -> bool {
    let mut moved = false;
    // Read as much as is available right now.
    if !*from_eof {
        for _ in 0..4 {
            *reads += 1;
            match from.try_read(scratch) {
                Ok(ReadOutcome::Data(n)) => {
                    pending.extend_from_slice(&scratch[..n]);
                    moved = true;
                }
                Ok(ReadOutcome::WouldBlock) => break,
                Ok(ReadOutcome::Closed) | Err(_) => {
                    *from_eof = true;
                    break;
                }
            }
        }
    }
    // Flush what we can.
    while !pending.is_empty() {
        *writes += 1;
        match to.try_write(pending) {
            Ok(0) => break,
            Ok(n) => {
                let _ = pending.split_to(n);
                counter.fetch_add(n as u64, Ordering::Relaxed);
                moved = true;
            }
            Err(_) => {
                pending.clear();
                *from_eof = true;
                break;
            }
        }
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::ServerOptions;
    use crate::pipeline::{Action, Codec, ConnCtx, ProtocolError, Service};
    use crate::server::{ServerBuilder, ServerHandle};
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    struct TagCodec;

    impl Codec for TagCodec {
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

    struct TagService(&'static str);

    impl Service<TagCodec> for TagService {
        fn handle(&self, _ctx: &ConnCtx, req: String) -> Action<String> {
            Action::Reply(format!("{}:{}", self.0, req))
        }
    }

    fn backend(tag: &'static str) -> ServerHandle<TagCodec, TagService> {
        ServerBuilder::new(ServerOptions::default(), TagCodec, TagService(tag))
            .unwrap()
            .serve(TcpListenerNb::bind("127.0.0.1:0").unwrap())
    }

    fn ask(addr: &str, msg: &str) -> String {
        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        c.write_all(msg.as_bytes()).unwrap();
        c.write_all(b"\n").unwrap();
        let mut acc = Vec::new();
        let mut buf = [0u8; 256];
        while !acc.contains(&b'\n') {
            let n = c.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            acc.extend_from_slice(&buf[..n]);
        }
        String::from_utf8_lossy(&acc).trim_end().to_string()
    }

    #[test]
    fn round_robin_distributes_across_backends() {
        let b1 = backend("alpha");
        let b2 = backend("beta");
        let front = ClusterFrontEnd::start(
            TcpListenerNb::bind("127.0.0.1:0").unwrap(),
            vec![b1.local_label().to_string(), b2.local_label().to_string()],
            Balancing::RoundRobin,
        )
        .unwrap();
        let addr = front.local_label().to_string();

        let mut tags = Vec::new();
        for i in 0..6 {
            let reply = ask(&addr, &format!("m{i}"));
            let tag = reply.split(':').next().unwrap().to_string();
            assert!(reply.ends_with(&format!("m{i}")), "{reply}");
            tags.push(tag);
        }
        let alphas = tags.iter().filter(|t| *t == "alpha").count();
        let betas = tags.iter().filter(|t| *t == "beta").count();
        assert_eq!(alphas, 3, "{tags:?}");
        assert_eq!(betas, 3, "{tags:?}");
        assert_eq!(front.stats().connections.load(Ordering::Relaxed), 6);
        assert!(front.stats().bytes_upstream.load(Ordering::Relaxed) > 0);
        assert!(front.stats().bytes_downstream.load(Ordering::Relaxed) > 0);

        front.shutdown();
        b1.shutdown();
        b2.shutdown();
    }

    #[test]
    fn least_connections_prefers_idle_backend() {
        let b1 = backend("one");
        let b2 = backend("two");
        let front = ClusterFrontEnd::start(
            TcpListenerNb::bind("127.0.0.1:0").unwrap(),
            vec![b1.local_label().to_string(), b2.local_label().to_string()],
            Balancing::LeastConnections,
        )
        .unwrap();
        let addr = front.local_label().to_string();

        // Hold one connection open (goes to backend 0), then open more:
        // they should alternate to keep loads level.
        let mut held = TcpStream::connect(&addr).unwrap();
        held.write_all(b"held\n").unwrap();
        // Deterministic sync: the relay counts the connection only after
        // dialing its backend, so the next accept sees the load imbalance.
        for _ in 0..5000 {
            if front.stats().connections.load(Ordering::Relaxed) >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(front.stats().connections.load(Ordering::Relaxed), 1);
        let r1 = ask(&addr, "x");
        assert!(
            r1.starts_with("two:"),
            "least-loaded backend expected: {r1}"
        );
        drop(held);
        front.shutdown();
        b1.shutdown();
        b2.shutdown();
    }

    #[test]
    fn unreachable_backend_counts_failure_and_closes_client() {
        let front = ClusterFrontEnd::start(
            TcpListenerNb::bind("127.0.0.1:0").unwrap(),
            vec!["127.0.0.1:1".to_string()], // nothing listens there
            Balancing::RoundRobin,
        )
        .unwrap();
        let addr = front.local_label().to_string();
        let mut c = TcpStream::connect(&addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut buf = [0u8; 16];
        // Expect prompt close (read returns 0) rather than a hang.
        let mut saw_close = false;
        for _ in 0..100 {
            match c.read(&mut buf) {
                Ok(0) => {
                    saw_close = true;
                    break;
                }
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => {
                    saw_close = true;
                    break;
                }
            }
        }
        assert!(saw_close);
        assert!(front.stats().backend_failures.load(Ordering::Relaxed) >= 1);
        front.shutdown();
    }

    #[test]
    fn failed_dial_retries_against_the_next_backend() {
        let live = backend("live");
        let front = ClusterFrontEnd::start_with_retry(
            TcpListenerNb::bind("127.0.0.1:0").unwrap(),
            vec![
                "127.0.0.1:1".to_string(), // dead: round-robin dials it first
                live.local_label().to_string(),
            ],
            Balancing::RoundRobin,
            RetryPolicy {
                attempts: 3,
                backoff: Duration::from_millis(10),
            },
        )
        .unwrap();
        let addr = front.local_label().to_string();

        // The first dial fails; the retry rotates to the live backend and
        // the client is served rather than dropped.
        let reply = ask(&addr, "ping");
        assert_eq!(reply, "live:ping");
        assert!(front.stats().dial_retries.load(Ordering::Relaxed) >= 1);
        assert_eq!(front.stats().backend_failures.load(Ordering::Relaxed), 0);
        front.shutdown();
        live.shutdown();
    }

    #[test]
    fn exhausted_retries_fail_the_client() {
        let front = ClusterFrontEnd::start_with_retry(
            TcpListenerNb::bind("127.0.0.1:0").unwrap(),
            vec!["127.0.0.1:1".to_string()],
            Balancing::RoundRobin,
            RetryPolicy {
                attempts: 2,
                backoff: Duration::from_millis(5),
            },
        )
        .unwrap();
        let addr = front.local_label().to_string();
        let mut c = TcpStream::connect(&addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 8];
        let closed = matches!(c.read(&mut buf), Ok(0) | Err(_));
        assert!(closed, "client must be closed after retries exhaust");
        assert_eq!(front.stats().dial_retries.load(Ordering::Relaxed), 1);
        assert!(front.stats().backend_failures.load(Ordering::Relaxed) >= 1);
        front.shutdown();
    }

    /// The backend answers and half-closes; the client takes the reply
    /// and the relayed FIN but never sends its own. The session lingers,
    /// pumping nothing, until its 1 s deadline reaps it — which the
    /// backend sees as the relay's FIN, at the earliest a second after
    /// its own.
    #[test]
    fn half_closed_session_is_reaped_at_the_linger_deadline() {
        let backend = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let backend_addr = backend.local_addr().unwrap().to_string();
        let backend = std::thread::spawn(move || {
            let (mut s, _) = backend.accept().unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut buf = [0u8; 64];
            let n = s.read(&mut buf).unwrap();
            s.write_all(&buf[..n]).unwrap();
            // Marked before the FIN goes out: the relay woken by it may
            // arm its reap before this thread runs again.
            let fin = Instant::now();
            s.shutdown(std::net::Shutdown::Write).unwrap();
            // The client never FINs: the reap is the next thing to arrive.
            let n = s.read(&mut buf).unwrap_or(0);
            (n, fin.elapsed())
        });
        let front = ClusterFrontEnd::start(
            TcpListenerNb::bind("127.0.0.1:0").unwrap(),
            vec![backend_addr],
            Balancing::RoundRobin,
        )
        .unwrap();
        let mut c = TcpStream::connect(front.local_label()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        c.write_all(b"hold\n").unwrap();
        let mut reply = Vec::new();
        c.read_to_end(&mut reply).unwrap();
        assert_eq!(reply, b"hold\n", "the reply, then the backend's FIN");

        let (n, held) = backend.join().unwrap();
        assert_eq!(n, 0, "the relay sent nothing but its FIN");
        assert!(held >= Duration::from_secs(1), "reaped early: {held:?}");
        assert!(held < Duration::from_secs(3), "reaped late: {held:?}");
        drop(c);
        front.shutdown();
    }

    #[test]
    fn empty_backend_list_is_rejected() {
        let err = ClusterFrontEnd::start(
            TcpListenerNb::bind("127.0.0.1:0").unwrap(),
            vec![],
            Balancing::RoundRobin,
        )
        .err()
        .expect("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
