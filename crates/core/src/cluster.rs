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

use crate::timer::{lazily, Deadlines, LINGER, WALL};
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

    /// Move bytes one way — client to backend if `upstream` — through
    /// that direction's buffer, tallying syscall attempts for timeline
    /// attribution.
    fn pump(&mut self, upstream: bool, scratch: &mut [u8], counter: &AtomicU64) {
        let (from, to, pending, from_eof) = if upstream {
            (
                &mut self.client,
                &mut self.backend,
                &mut self.up_buf,
                &mut self.client_eof,
            )
        } else {
            (
                &mut self.backend,
                &mut self.client,
                &mut self.down_buf,
                &mut self.backend_eof,
            )
        };
        // Read as much as is available right now.
        if !*from_eof {
            for _ in 0..4 {
                self.io_reads += 1;
                match from.try_read(scratch) {
                    Ok(ReadOutcome::Data(n)) => pending.extend_from_slice(&scratch[..n]),
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
            self.io_writes += 1;
            match to.try_write(pending) {
                Ok(0) => break,
                Ok(n) => {
                    let _ = pending.split_to(n);
                    counter.fetch_add(n as u64, Ordering::Relaxed);
                }
                Err(_) => {
                    pending.clear();
                    *from_eof = true;
                    break;
                }
            }
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
        let relay = Relay {
            listener,
            poller,
            per_backend: vec![0; backends.len()],
            backends,
            balancing,
            retry,
            stats: Arc::clone(&stats),
            tracer: tracer.clone(),
            sessions: HashMap::new(),
            parked: HashMap::new(),
            deadlines: Deadlines::default(),
            next_rr: 0,
            next_key: 1,
            buf: vec![0u8; 16 * 1024],
            events: Vec::new(),
        };
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("nserver-cluster-frontend".into())
                .spawn(move || relay.run(&stop))
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

/// The relay's event loop: its sockets, its timers, and what one pass
/// leaves for the next.
struct Relay {
    listener: TcpListenerNb,
    poller: TcpPoller,
    backends: Vec<String>,
    balancing: Balancing,
    retry: RetryPolicy,
    stats: Arc<RelayStats>,
    tracer: DebugTracer,
    sessions: HashMap<u64, Session>,
    /// Clients whose backend dial failed, under the key their session
    /// will have; each holds one `Wake::Dial` until it is retried.
    parked: HashMap<u64, PendingDial>,
    deadlines: Deadlines<Wake>,
    per_backend: Vec<usize>,
    next_rr: usize,
    next_key: u64,
    buf: Vec<u8>,
    /// What the last wait reported ready.
    events: Vec<PollEvent>,
}

impl Relay {
    /// Passes and waits until `stop` is raised; then every socket closes.
    fn run(mut self, stop: &AtomicBool) {
        while !stop.load(Ordering::Relaxed) {
            let sleep = self.pass(WALL);
            self.wait(sleep);
        }
        for (_, mut s) in self.sessions.drain() {
            s.client.shutdown();
            s.backend.shutdown();
        }
        for (_, mut p) in self.parked.drain() {
            p.client.shutdown();
        }
    }

    /// Block until a socket is ready, `timeout` runs out, or the
    /// shutdown waker fires.
    fn wait(&mut self, timeout: Option<Duration>) {
        if self.poller.wait(&mut self.events, timeout).is_err() {
            self.events.clear();
        }
    }

    /// One pass over what the last wait reported: accept and dial, shuttle
    /// bytes, act on the timers that came due. It never blocks, and it
    /// reads time only from `clock`, at most once. Returns how long the
    /// loop may sleep until the queue's head.
    fn pass(&mut self, mut clock: impl FnMut() -> Instant) -> Option<Duration> {
        let mut now = lazily(&mut clock);
        let mut accept_ready = false;
        let mut touched: Vec<u64> = Vec::new();
        for ev in self.events.drain(..) {
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
            while let Ok(Some(client)) = self.listener.try_accept() {
                let k = self.next_key;
                self.next_key += 1;
                let index = choose_index(self.balancing, &self.per_backend, &mut self.next_rr);
                let dial = PendingDial {
                    client,
                    attempts_left: self.retry.attempts,
                    backoff: self.retry.backoff,
                    last_index: index,
                };
                if self.dial(k, dial, &mut now) {
                    // Service once now: data may already be in flight.
                    touched.push(k);
                }
            }
        }

        // Shuttle bytes on the sessions the poller flagged.
        for k in touched {
            self.shuttle(k, &mut now);
        }

        // Time: retry parked dials whose backoff elapsed, and reap
        // half-closed sessions whose still-open side never sent its own
        // FIN inside the lingering window. A session arms its one reap
        // once and keys are never reused, so a reap whose session
        // finished is stale and dropped unread. Only these need a timed
        // wake-up; otherwise the relay performs no periodic work at all.
        Deadlines::sweep(
            self,
            |r| &mut r.deadlines,
            now,
            |r, (_, wake)| !matches!(wake, Wake::Reap(k) if !r.sessions.contains_key(&k)),
            |r, wake, now| match wake {
                Wake::Reap(k) => {
                    if let Some(s) = r.sessions.remove(&k) {
                        r.teardown(k, s);
                    }
                }
                // Rotate to the next backend, so a single dead peer
                // cannot absorb every attempt.
                Wake::Dial(k) => {
                    let mut dial = r.parked.remove(&k).expect("a parked dial");
                    r.stats.dial_retries.fetch_add(1, Ordering::Relaxed);
                    dial.last_index = (dial.last_index + 1) % r.backends.len();
                    dial.backoff *= 2;
                    r.dial(k, dial, &mut || now);
                }
            },
        )
    }

    /// Dial backend `last_index` for client `k`. Returns whether its
    /// session opened; if not, the client is parked for its next attempt
    /// `backoff` from now, or fails when it has none left.
    fn dial(&mut self, k: u64, mut dial: PendingDial, now: &mut impl FnMut() -> Instant) -> bool {
        let index = dial.last_index;
        let Ok(backend) = TcpStreamNb::connect(&self.backends[index]) else {
            dial.attempts_left = dial.attempts_left.saturating_sub(1);
            if dial.attempts_left == 0 {
                self.stats.backend_failures.fetch_add(1, Ordering::Relaxed);
                dial.client.shutdown();
            } else {
                self.deadlines.arm(now() + dial.backoff, Wake::Dial(k));
                self.parked.insert(k, dial);
            }
            return false;
        };
        self.per_backend[index] += 1;
        self.stats.connections.fetch_add(1, Ordering::Relaxed);
        // Into the trace ring: the conn under the client's peer label,
        // linked to the backend socket's local address (the backend
        // tier's peer label for it), and the accept instant.
        if self.tracer.is_enabled() {
            self.tracer.conn_open(k, &dial.client.peer_label());
            self.tracer.link(k, backend.local_label());
            self.tracer.span(SpanEvent::Accept, k);
        }
        let _ = self
            .poller
            .register(2 * k, &dial.client, Interest::READABLE);
        let _ = self
            .poller
            .register(2 * k + 1, &backend, Interest::READABLE);
        self.sessions
            .insert(k, Session::new(dial.client, backend, index));
        true
    }

    /// Move session `k`'s bytes both ways, propagate a finished
    /// direction, and re-arm its interest.
    fn shuttle(&mut self, k: u64, now: &mut impl FnMut() -> Instant) {
        let Some(s) = self.sessions.get_mut(&k) else {
            return; // a stale event for a finished session
        };
        s.pump(true, &mut self.buf, &self.stats.bytes_upstream);
        s.pump(false, &mut self.buf, &self.stats.bytes_downstream);
        if self.tracer.is_enabled() && (s.io_reads | s.io_writes) != 0 {
            self.tracer.syscalls(k, s.io_reads, s.io_writes);
            s.io_reads = 0;
            s.io_writes = 0;
        }
        // A finished direction propagates as a half-close (FIN after the
        // drained relay bytes), never as an immediate full close: closing
        // a socket with unread peer bytes in its receive queue answers
        // with RST, and an RST discards reply bytes the peer has not
        // consumed yet. The session lingers — still pumping the open
        // direction — until both sides finish or its reap wake-up comes
        // due.
        // The `is_empty` guards uphold the `shutdown_write` contract: FIN
        // only ever follows a fully drained relay buffer.
        if s.client_eof && s.up_buf.is_empty() && !s.fin_to_backend {
            s.backend.shutdown_write();
            s.fin_to_backend = true;
        }
        if s.backend_eof && s.down_buf.is_empty() && !s.fin_to_client {
            s.client.shutdown_write();
            s.fin_to_client = true;
        }
        if s.client_eof && s.up_buf.is_empty() && s.backend_eof && s.down_buf.is_empty() {
            let s = self.sessions.remove(&k).expect("present");
            return self.teardown(k, s);
        }
        if (s.fin_to_client || s.fin_to_backend) && s.reap_at.is_none() {
            let reap = now() + LINGER;
            s.reap_at = Some(reap);
            self.deadlines.arm(reap, Wake::Reap(k));
        }
        // Re-arm interest: stop read-polling a half-closed side, poll
        // writability only while relay bytes are actually queued.
        let want_client = Interest {
            readable: !s.client_eof,
            writable: !s.down_buf.is_empty(),
        };
        if want_client != s.client_armed {
            let _ = self.poller.reregister(2 * k, &s.client, want_client);
            s.client_armed = want_client;
        }
        let want_backend = Interest {
            readable: !s.backend_eof,
            writable: !s.up_buf.is_empty(),
        };
        if want_backend != s.backend_armed {
            let _ = self.poller.reregister(2 * k + 1, &s.backend, want_backend);
            s.backend_armed = want_backend;
        }
    }

    /// Deregister and fully close a finished (or reaped) session.
    fn teardown(&mut self, k: u64, mut s: Session) {
        if self.tracer.is_enabled() {
            if (s.io_reads | s.io_writes) != 0 {
                self.tracer.syscalls(k, s.io_reads, s.io_writes);
            }
            self.tracer.span(SpanEvent::Close, k);
        }
        let _ = self.poller.deregister(2 * k, &s.client);
        let _ = self.poller.deregister(2 * k + 1, &s.backend);
        s.client.shutdown();
        s.backend.shutdown();
        self.per_backend[s.backend_index] -= 1;
    }
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

    /// A relay over `backends`, round-robin, stepped by the test thread.
    fn stepped_relay(backends: Vec<String>, retry: RetryPolicy) -> Relay {
        let listener = TcpListenerNb::bind("127.0.0.1:0").unwrap();
        let mut poller = TcpPoller::new().unwrap();
        listener.register_listener(&mut poller).unwrap();
        Relay {
            listener,
            poller,
            per_backend: vec![0; backends.len()],
            backends,
            balancing: Balancing::RoundRobin,
            retry,
            stats: Arc::default(),
            tracer: DebugTracer::disabled(),
            sessions: HashMap::new(),
            parked: HashMap::new(),
            deadlines: Deadlines::default(),
            next_rr: 0,
            next_key: 1,
            buf: vec![0u8; 16 * 1024],
            events: Vec::new(),
        }
    }

    /// Step `relay` on a virtual clock that reads `at` — a wait that does
    /// not block, then a pass — until `done` holds after a pass, and
    /// return that pass's sleep. Loopback delivery is not synchronous
    /// with the test thread, so a step may find nothing ready yet.
    fn step_until(
        relay: &mut Relay,
        at: Instant,
        done: impl Fn(&Relay) -> bool,
    ) -> Option<Duration> {
        for _ in 0..1_000_000 {
            relay.wait(Some(Duration::ZERO));
            let sleep = relay.pass(|| at);
            if done(relay) {
                return sleep;
            }
        }
        panic!("the relay never got there");
    }

    /// One step at `at`.
    fn step(relay: &mut Relay, at: Instant) -> Option<Duration> {
        step_until(relay, at, |_| true)
    }

    const NS: Duration = Duration::from_nanos(1);

    /// `half_closed_session_is_reaped_at_the_linger_deadline` on a
    /// virtual clock: the reap comes at the pass whose clock reads the
    /// FIN's pass plus `LINGER`, and not 1 ns earlier.
    #[test]
    fn stepped_half_closed_session_is_reaped_exactly_at_linger() {
        let backend = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let backend_addr = backend.local_addr().unwrap().to_string();
        let mut relay = stepped_relay(vec![backend_addr], RetryPolicy::default());
        let t0 = Instant::now();
        let mut c = TcpStream::connect(relay.listener.local_label()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        c.write_all(b"hold\n").unwrap();
        let upstream = |r: &Relay| r.stats.bytes_upstream.load(Ordering::Relaxed) == 5;
        assert_eq!(step_until(&mut relay, t0, upstream), None);
        let (mut b, _) = backend.accept().unwrap();
        b.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 5];
        b.read_exact(&mut buf).unwrap();
        b.write_all(&buf).unwrap();
        b.shutdown(std::net::Shutdown::Write).unwrap();

        // The reply and the backend's FIN reach the client at t1.
        let t1 = t0 + Duration::from_millis(3);
        let fin = |r: &Relay| r.sessions.get(&1).is_some_and(|s| s.fin_to_client);
        assert_eq!(step_until(&mut relay, t1, fin), Some(LINGER));
        let mut reply = Vec::new();
        c.read_to_end(&mut reply).unwrap();
        assert_eq!(reply, b"hold\n");

        assert_eq!(step(&mut relay, t1 + LINGER - NS), Some(NS));
        assert!(relay.sessions.contains_key(&1), "reaped early");
        assert_eq!(step(&mut relay, t1 + LINGER), None);
        assert!(relay.sessions.is_empty(), "reaped late");
        assert_eq!(b.read(&mut buf).unwrap(), 0, "the relay's FIN");
    }

    #[test]
    fn stepped_parked_dial_retries_at_backoff_then_twice_it_on_the_next_backend() {
        let live = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let dead = "127.0.0.1:1".to_string();
        let backends = vec![dead.clone(), dead, live.local_addr().unwrap().to_string()];
        let backoff = Duration::from_millis(10);
        let retry = RetryPolicy {
            attempts: 3,
            backoff,
        };
        let mut relay = stepped_relay(backends, retry);
        let retries = |r: &Relay| r.stats.dial_retries.load(Ordering::Relaxed);
        let t0 = Instant::now();
        let _c = TcpStream::connect(relay.listener.local_label()).unwrap();
        // Backend 0 refuses the dial at t0: parked until t0 + backoff.
        let parked = |r: &Relay| !r.parked.is_empty();
        assert_eq!(step_until(&mut relay, t0, parked), Some(backoff));
        assert_eq!(step(&mut relay, t0 + backoff - NS), Some(NS));
        assert_eq!(retries(&relay), 0, "retried early");
        // Backend 1 refuses the retry: parked for twice the backoff.
        assert_eq!(step(&mut relay, t0 + backoff), Some(2 * backoff));
        assert_eq!((retries(&relay), relay.parked[&1].last_index), (1, 1));
        assert_eq!(step(&mut relay, t0 + 3 * backoff - NS), Some(NS));
        assert_eq!(retries(&relay), 1, "retried early");
        // Backend 2 answers: the session opens, and no timer is left.
        assert_eq!(step(&mut relay, t0 + 3 * backoff), None);
        assert_eq!(retries(&relay), 2);
        assert_eq!(relay.sessions[&1].backend_index, 2);
        assert_eq!(relay.stats.backend_failures.load(Ordering::Relaxed), 0);
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
