//! Distributed N-Server support — the paper's conclusion names this as
//! "the most interesting extension of this work … to support the
//! generation of distributed N-servers that will serve from a network of
//! workstations."
//!
//! The [`ClusterFrontEnd`] is an event-driven connection relay built from
//! the same non-blocking transport — and the same readiness demultiplexer
//! — the Reactor uses: it accepts client connections, dials a backend
//! N-Server per connection (round-robin or least-connections) through
//! that transport ([`Listener::dial`]), never blocking: a session opens
//! when its dial polls writable. It shuttles bytes both ways, blocking in
//! its poller whenever no socket is ready, on a thread of its own or
//! stepped on the caller's ([`ClusterFrontEnd::stepped`]). Backend
//! N-Servers run unchanged — exactly the paper's promise that "the
//! programmer \[writes\] identical hook methods … whether the application
//! was generated for a shared memory machine or a network of
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
    Interest, Listener, PollEvent, Poller, ReadOutcome, StreamIo, Waker, LISTENER_TOKEN,
};

/// Backend selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Balancing {
    /// Rotate through the backends in order.
    RoundRobin,
    /// Dial the backend with the fewest live relayed connections.
    LeastConnections,
}

/// Bounded retry-with-backoff for backend dials: a dial that is refused,
/// fails, or still connects when its backoff runs out parks the client
/// and retries against the *next* backend candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total dial attempts per client connection (≥ 1).
    pub attempts: u32,
    /// Delay before the first retry; doubles on each further retry. It
    /// is also how long a dial may stay connecting.
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

/// A client without a session yet: its dial connects, or waits to retry.
struct PendingDial<S> {
    client: S,
    backend: Option<S>,
    attempts_left: u32,
    backoff: Duration,
    last_index: usize,
}

struct Session<S> {
    client: S,
    backend: S,
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

impl<S: StreamIo> Session<S> {
    fn new(client: S, backend: S, backend_index: usize) -> Self {
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
    /// attribution. Returns whether it stopped reading before the source
    /// ran dry, so bytes may be left there.
    fn pump(&mut self, upstream: bool, scratch: &mut [u8], counter: &AtomicU64) -> bool {
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
        // Read a bounded amount of what is available right now.
        let mut more = !*from_eof;
        for _ in 0..4 {
            if !more {
                break;
            }
            self.io_reads += 1;
            match from.try_read(scratch) {
                Ok(ReadOutcome::Data(n)) => pending.extend_from_slice(&scratch[..n]),
                Ok(ReadOutcome::WouldBlock) => more = false,
                Ok(ReadOutcome::Closed) | Err(_) => (*from_eof, more) = (true, false),
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
        more
    }
}

/// What a relay wake-up is for, by session key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Wake {
    /// A parked client's next dial, or its connecting one's deadline.
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
    /// (labels the listener's transport dials: socket addresses of
    /// running N-Servers over TCP), with the default [`RetryPolicy`] for
    /// backend dials.
    pub fn start<L: Listener>(
        listener: L,
        backends: Vec<String>,
        balancing: Balancing,
    ) -> io::Result<ClusterFrontEnd> {
        Self::start_with_retry(listener, backends, balancing, RetryPolicy::default())
    }

    /// [`ClusterFrontEnd::start`] with an explicit backend-dial retry
    /// policy.
    pub fn start_with_retry<L: Listener>(
        listener: L,
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
    /// backend leg's label — the label the backend N-Server sees as that
    /// connection's peer ([`Listener::dial`]), which is how timeline
    /// assembly joins the two tiers. Tracing is purely internal: the
    /// relayed byte stream is unchanged in either direction.
    pub fn start_traced<L: Listener>(
        listener: L,
        backends: Vec<String>,
        balancing: Balancing,
        retry: RetryPolicy,
        tracer: DebugTracer,
    ) -> io::Result<ClusterFrontEnd> {
        let relay = Relay::new(listener, backends, balancing, retry, tracer.clone())?;
        let stop = Arc::new(AtomicBool::new(false));
        let (local_label, stats) = (relay.listener.local_label(), Arc::clone(&relay.stats));
        // Held by the handle so shutdown can pull the relay thread out of
        // its blocking wait.
        let waker = relay.poller.waker();
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

    /// The relay [`ClusterFrontEnd::start_traced`] starts, to be stepped
    /// on the calling thread instead ([`Relay::settle`]).
    pub fn stepped<L: Listener>(
        listener: L,
        backends: Vec<String>,
        balancing: Balancing,
        retry: RetryPolicy,
        tracer: DebugTracer,
    ) -> io::Result<Relay<L>> {
        Relay::new(listener, backends, balancing, retry, tracer)
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
    pub fn shutdown(self) {
        // The drop does both.
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
/// leaves for the next. A [`ClusterFrontEnd`] runs one on its own thread;
/// [`ClusterFrontEnd::stepped`] hands one to the caller, to be stepped on
/// its thread at the instants it is given — a world steps it beside
/// stepped backends, on their clock. Dropping it closes every socket it
/// holds.
pub struct Relay<L: Listener> {
    listener: L,
    poller: L::Poller,
    backends: Vec<String>,
    balancing: Balancing,
    retry: RetryPolicy,
    stats: Arc<RelayStats>,
    tracer: DebugTracer,
    sessions: HashMap<u64, Session<L::Stream>>,
    /// Clients without a session, under the key their session will have;
    /// each holds one `Wake::Dial` until it is retried.
    parked: HashMap<u64, PendingDial<L::Stream>>,
    deadlines: Deadlines<Wake>,
    per_backend: Vec<usize>,
    next_rr: usize,
    next_key: u64,
    buf: Vec<u8>,
    /// What the last wait reported ready.
    events: Vec<PollEvent>,
    /// Sessions whose last pump left bytes unread: served by the next
    /// pass whether or not the poller reports them again (the in-memory
    /// poller reports a source once per arrival, not while it is full).
    backlog: Vec<u64>,
    /// What the last stepped pass returned: the time left to the next
    /// timer.
    sleep: Option<Duration>,
}

impl<L: Listener> Relay<L> {
    fn new(
        listener: L,
        backends: Vec<String>,
        balancing: Balancing,
        retry: RetryPolicy,
        tracer: DebugTracer,
    ) -> io::Result<Self> {
        if backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cluster front end needs at least one backend",
            ));
        }
        let mut poller = L::new_poller()?;
        listener.register_listener(&mut poller)?;
        Ok(Relay {
            listener,
            poller,
            per_backend: vec![0; backends.len()],
            backends,
            balancing,
            retry,
            stats: Arc::default(),
            tracer,
            sessions: HashMap::new(),
            parked: HashMap::new(),
            deadlines: Deadlines::default(),
            next_rr: 0,
            next_key: 1,
            buf: vec![0u8; 16 * 1024],
            events: Vec::new(),
            backlog: Vec::new(),
            sleep: None,
        })
    }

    /// Run the relay at `now` until it is still: rounds of a wait that
    /// does not block and a pass, until one in which no socket was ready,
    /// no timer was due and no session was left with bytes unread.
    /// Returns whether any round did work.
    pub fn settle(&mut self, now: Instant) -> bool {
        let mut worked = false;
        loop {
            self.wait(Some(Duration::ZERO));
            let due = self.deadlines.next().is_some_and(|(at, _)| at <= now);
            let ready = !self.events.is_empty();
            self.sleep = self.pass(|| now);
            if !ready && !due && self.sleep != Some(Duration::ZERO) {
                return worked;
            }
            worked = true;
        }
    }

    /// The time left, as of the last settle, to the relay's next timer:
    /// a parked dial's retry or a lingering session's reap.
    pub fn next_timer(&self) -> Option<Duration> {
        self.sleep
    }

    /// Statistics snapshot source.
    pub fn stats(&self) -> &RelayStats {
        &self.stats
    }

    /// Passes and waits until `stop` is raised; the drop then closes
    /// every socket.
    fn run(mut self, stop: &AtomicBool) {
        while !stop.load(Ordering::Relaxed) {
            let sleep = self.pass(WALL);
            self.wait(sleep);
        }
    }

    /// Block until a socket is ready, `timeout` runs out, or the
    /// shutdown waker fires.
    fn wait(&mut self, timeout: Option<Duration>) {
        if self.poller.wait(&mut self.events, timeout).is_err() {
            self.events.clear();
        }
    }

    /// One pass over what the last wait reported and what the last pass
    /// left unread: accept and dial, open the sessions whose dial
    /// finished, shuttle bytes, act on the timers that came due. It never
    /// blocks, and it reads time only from `clock`, at most once. Returns
    /// how long the loop may sleep until the queue's head; zero while a
    /// session has bytes left unread.
    fn pass(&mut self, mut clock: impl FnMut() -> Instant) -> Option<Duration> {
        let mut now = lazily(&mut clock);
        let mut accept_ready = false;
        let mut touched = std::mem::take(&mut self.backlog);
        for ev in self.events.drain(..) {
            if ev.token == LISTENER_TOKEN {
                accept_ready = true;
            } else {
                touched.push(session_key(ev.token));
            }
        }
        touched.sort_unstable();
        touched.dedup();

        // Accept and dial: each client waits parked until its dial
        // finishes, or fails and is retried against the next backend.
        if accept_ready {
            while let Ok(Some(client)) = self.listener.try_accept() {
                let k = self.next_key;
                self.next_key += 1;
                let index = choose_index(self.balancing, &self.per_backend, &mut self.next_rr);
                let dial = PendingDial {
                    client,
                    backend: None,
                    attempts_left: self.retry.attempts,
                    backoff: self.retry.backoff,
                    last_index: index,
                };
                self.dial(k, dial, &mut now);
            }
        }

        // A parked client's flagged socket is its connecting backend;
        // a session's are its two legs.
        for k in touched {
            if self.parked.contains_key(&k) {
                self.connected(k, &mut now);
            } else {
                self.shuttle(k, &mut now);
            }
        }

        // Time: end parked dials' waits, and reap half-closed sessions
        // whose still-open side never sent its own FIN inside the
        // lingering window. A client holds its one dial wake-up while
        // parked, and a session arms its one reap once; keys are never
        // reused, so a wake-up whose owner moved on is stale and dropped
        // unread. Only these need a timed wake-up; otherwise the relay
        // performs no periodic work at all.
        let sleep = Deadlines::sweep(
            self,
            |r| &mut r.deadlines,
            now,
            |r, (_, wake)| match wake {
                Wake::Dial(k) => r.parked.contains_key(&k),
                Wake::Reap(k) => r.sessions.contains_key(&k),
            },
            |r, wake, now| match wake {
                Wake::Reap(k) => {
                    if let Some(s) = r.sessions.remove(&k) {
                        r.teardown(k, s);
                    }
                }
                // Give up on a dial still connecting, then rotate to the
                // next backend, so a single dead peer cannot absorb
                // every attempt.
                Wake::Dial(k) => {
                    let mut dial = r.parked.remove(&k).expect("a parked dial");
                    if dial.backend.is_some() && !r.failed(k, &mut dial) {
                        return;
                    }
                    r.stats.dial_retries.fetch_add(1, Ordering::Relaxed);
                    dial.last_index = (dial.last_index + 1) % r.backends.len();
                    dial.backoff *= 2;
                    r.dial(k, dial, || now);
                }
            },
        );
        match self.backlog.is_empty() {
            true => sleep,
            false => Some(Duration::ZERO),
        }
    }

    /// Dial backend `last_index` for client `k` and park the client until
    /// the dial finishes ([`Relay::connected`]) or `backoff` from now,
    /// when a dial still connecting is given up and the next backend is
    /// tried. A refused dial waits out the backoff the same way.
    fn dial(&mut self, k: u64, mut dial: PendingDial<L::Stream>, now: impl FnOnce() -> Instant) {
        match self.listener.dial(&self.backends[dial.last_index]) {
            Ok(backend) => {
                let _ = self
                    .poller
                    .register(2 * k + 1, &backend, Interest::WRITABLE);
                dial.backend = Some(backend);
            }
            Err(_) => {
                if !self.failed(k, &mut dial) {
                    return;
                }
            }
        }
        self.deadlines.arm(now() + dial.backoff, Wake::Dial(k));
        self.parked.insert(k, dial);
    }

    /// Count client `k`'s dial as failed and close its backend socket.
    /// Returns whether the client has an attempt left; if not, it is
    /// closed.
    fn failed(&mut self, k: u64, dial: &mut PendingDial<L::Stream>) -> bool {
        if let Some(backend) = dial.backend.take() {
            let _ = self.poller.deregister(2 * k + 1, &backend);
        }
        dial.attempts_left = dial.attempts_left.saturating_sub(1);
        if dial.attempts_left == 0 {
            self.stats.backend_failures.fetch_add(1, Ordering::Relaxed);
            dial.client.shutdown();
        }
        dial.attempts_left > 0
    }

    /// Parked client `k`'s connecting backend polled writable: its
    /// connect finished. An empty write tells how: the session opens, or
    /// the failed dial waits out its backoff like a refused one.
    fn connected(&mut self, k: u64, now: &mut impl FnMut() -> Instant) {
        let mut dial = self.parked.remove(&k).expect("parked");
        let Some(backend) = dial.backend.take_if(|b| b.try_write(&[]).is_ok()) else {
            // A stale event (the dial failed already), or a failed dial.
            if dial.backend.is_none() || self.failed(k, &mut dial) {
                self.parked.insert(k, dial);
            }
            return;
        };
        let (client, index) = (dial.client, dial.last_index);
        self.per_backend[index] += 1;
        self.stats.connections.fetch_add(1, Ordering::Relaxed);
        // Into the trace ring: the conn under the client's peer label,
        // linked to the backend leg's (the backend tier's peer label for
        // it), and the accept instant.
        if self.tracer.is_enabled() {
            self.tracer.conn_open(k, &client.peer_label());
            self.tracer.link(k, backend.peer_label());
            self.tracer.span(SpanEvent::Accept, k);
        }
        let _ = self.poller.register(2 * k, &client, Interest::READABLE);
        let _ = self
            .poller
            .reregister(2 * k + 1, &backend, Interest::READABLE);
        self.sessions
            .insert(k, Session::new(client, backend, index));
        // Service once now: data may already be in flight.
        self.shuttle(k, now);
    }

    /// Move session `k`'s bytes both ways, propagate a finished
    /// direction, and re-arm its interest.
    fn shuttle(&mut self, k: u64, now: &mut impl FnMut() -> Instant) {
        let Some(s) = self.sessions.get_mut(&k) else {
            return; // a stale event for a finished session
        };
        let up = s.pump(true, &mut self.buf, &self.stats.bytes_upstream);
        let down = s.pump(false, &mut self.buf, &self.stats.bytes_downstream);
        if self.tracer.is_enabled() && (s.io_reads | s.io_writes) != 0 {
            self.tracer.syscalls(k, s.io_reads, s.io_writes);
            s.io_reads = 0;
            s.io_writes = 0;
        }
        if up || down {
            self.backlog.push(k);
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
    fn teardown(&mut self, k: u64, mut s: Session<L::Stream>) {
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
    use crate::pipeline::{Action, Codec, ConnCtx, ProtocolError, RawCodec, Service};
    use crate::server::{ServerBuilder, ServerHandle};
    use crate::transport::{mem, TcpListenerNb};
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

    type TcpRelay = Relay<TcpListenerNb>;

    /// A relay over `backends`, round-robin, stepped by the test thread.
    fn stepped_relay(backends: Vec<String>, retry: RetryPolicy) -> TcpRelay {
        let listener = TcpListenerNb::bind("127.0.0.1:0").unwrap();
        let tracer = DebugTracer::disabled();
        Relay::new(listener, backends, Balancing::RoundRobin, retry, tracer).unwrap()
    }

    /// Step `relay` on a virtual clock that reads `at` — a wait that does
    /// not block, then a pass — until `done` holds after a pass, and
    /// return that pass's sleep. Loopback delivery is not synchronous
    /// with the test thread, so a step may find nothing ready yet.
    fn step_until(
        relay: &mut TcpRelay,
        at: Instant,
        done: impl Fn(&TcpRelay) -> bool,
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
    fn step(relay: &mut TcpRelay, at: Instant) -> Option<Duration> {
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
        let upstream = |r: &TcpRelay| r.stats.bytes_upstream.load(Ordering::Relaxed) == 5;
        assert_eq!(step_until(&mut relay, t0, upstream), None);
        let (mut b, _) = backend.accept().unwrap();
        b.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 5];
        b.read_exact(&mut buf).unwrap();
        b.write_all(&buf).unwrap();
        b.shutdown(std::net::Shutdown::Write).unwrap();

        // The reply and the backend's FIN reach the client at t1.
        let t1 = t0 + Duration::from_millis(3);
        let fin = |r: &TcpRelay| r.sessions.get(&1).is_some_and(|s| s.fin_to_client);
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
        let retries = |r: &TcpRelay| r.stats.dial_retries.load(Ordering::Relaxed);
        let t0 = Instant::now();
        let _c = TcpStream::connect(relay.listener.local_label()).unwrap();
        // Backend 0 refuses the dial at t0: parked until t0 + backoff.
        let parked = |r: &TcpRelay| !r.parked.is_empty();
        assert_eq!(step_until(&mut relay, t0, parked), Some(backoff));
        assert_eq!(step(&mut relay, t0 + backoff - NS), Some(NS));
        assert_eq!(retries(&relay), 0, "retried early");
        // Backend 1 refuses the retry: parked for twice the backoff.
        assert_eq!(step(&mut relay, t0 + backoff), Some(2 * backoff));
        assert_eq!((retries(&relay), relay.parked[&1].last_index), (1, 1));
        assert_eq!(step(&mut relay, t0 + 3 * backoff - NS), Some(NS));
        assert_eq!(retries(&relay), 1, "retried early");
        // Backend 2 answers: the session opens at the next pass that sees
        // the dial writable, and no timer is left.
        let open = |r: &TcpRelay| r.sessions.contains_key(&1);
        assert_eq!(step_until(&mut relay, t0 + 3 * backoff, open), None);
        assert_eq!(retries(&relay), 2);
        assert_eq!(relay.sessions[&1].backend_index, 2);
        assert_eq!(relay.stats.backend_failures.load(Ordering::Relaxed), 0);
    }

    /// A backend whose accept queue is full drops the relay's SYN, so
    /// its dial stays connecting. The relay keeps serving the sessions it
    /// has, and when the dial's backoff runs out it rotates to the next
    /// backend.
    #[test]
    fn a_dial_to_a_full_accept_queue_stops_no_session() {
        let live = backend("live");
        let full = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let full_addr = full.local_addr().unwrap();
        // Fill its queue: the connect that times out found it full.
        let mut queued = Vec::new();
        while let Ok(c) = TcpStream::connect_timeout(&full_addr, Duration::from_millis(20)) {
            queued.push(c);
            assert!(queued.len() <= 8192, "the accept queue never filled");
        }
        let began = Instant::now();
        let front = ClusterFrontEnd::start_with_retry(
            TcpListenerNb::bind("127.0.0.1:0").unwrap(),
            vec![live.local_label().to_string(), full_addr.to_string()],
            Balancing::RoundRobin,
            RetryPolicy {
                attempts: 3,
                backoff: Duration::from_millis(200),
            },
        )
        .unwrap();
        let connect = || {
            let c = TcpStream::connect(front.local_label()).unwrap();
            c.set_read_timeout(Some(Duration::from_millis(500)))
                .unwrap();
            c
        };
        let echo = |c: &mut TcpStream, msg: &str| {
            c.write_all(format!("{msg}\n").as_bytes()).unwrap();
            let mut got = Vec::new();
            let mut buf = [0u8; 64];
            while !got.ends_with(b"\n") {
                match c.read(&mut buf) {
                    Ok(n) if n > 0 => got.extend_from_slice(&buf[..n]),
                    other => panic!("{msg}: no echo: {other:?}"),
                }
            }
            String::from_utf8(got).unwrap()
        };
        let mut a = connect();
        assert_eq!(echo(&mut a, "a1"), "live:a1\n");
        // B is dialed to the full backend, and stays connecting.
        let mut b = connect();
        b.write_all(b"b\n").unwrap();
        assert_eq!(echo(&mut a, "a2"), "live:a2\n");
        assert_eq!(front.stats().dial_retries.load(Ordering::Relaxed), 0);
        b.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut reply = [0u8; 7];
        b.read_exact(&mut reply).unwrap();
        assert_eq!(&reply, b"live:b\n", "served by the live backend");
        assert_eq!(front.stats().dial_retries.load(Ordering::Relaxed), 1);
        assert_eq!(front.stats().backend_failures.load(Ordering::Relaxed), 0);
        assert!(
            began.elapsed() < Duration::from_secs(1),
            "{:?}",
            began.elapsed()
        );
        drop((a, b, queued));
        front.shutdown();
        live.shutdown();
    }

    /// Answers any request with its message.
    struct Bulk(Vec<u8>);

    impl Service<RawCodec> for Bulk {
        fn handle(&self, _: &ConnCtx, _: Vec<u8>) -> Action<Vec<u8>> {
            Action::Reply(self.0.clone())
        }
    }

    /// A 200 KiB reply, larger than one pass reads (4 × 16 KiB), through
    /// a stepped relay over the in-memory transport, whose poller reports
    /// a pipe once per arrival: the relay serves what it left unread at
    /// its next pass, and the message arrives whole.
    #[test]
    fn stepped_relay_over_mem_relays_what_one_pass_leaves_unread() {
        let (front, front_connector) = mem::listener("front");
        let (backend, backend_connector) = mem::listener("backend");
        front_connector.route("backend", &backend_connector);
        let message: Vec<u8> = (0..200 * 1024).map(|i| (i % 251) as u8).collect();
        let mut server =
            ServerBuilder::new(ServerOptions::default(), RawCodec, Bulk(message.clone()))
                .unwrap()
                .stepped(backend);
        let mut relay = ClusterFrontEnd::stepped(
            front,
            vec!["backend".to_string()],
            Balancing::RoundRobin,
            RetryPolicy::default(),
            DebugTracer::disabled(),
        )
        .unwrap();
        let mut client = front_connector.connect();
        client.try_write(b"go").unwrap();
        let now = Instant::now();
        while server.settle() | relay.settle(now) {}
        let (mut got, mut buf) = (Vec::new(), vec![0u8; 64 * 1024]);
        while let ReadOutcome::Data(n) = client.try_read(&mut buf).unwrap() {
            got.extend_from_slice(&buf[..n]);
        }
        assert_eq!(got.len(), message.len());
        assert!(got == message, "the reply differs");
        assert_eq!(relay.next_timer(), None, "a session opened, no dial waits");
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
