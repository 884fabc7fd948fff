//! Transport abstraction: non-blocking listeners and streams, plus the
//! readiness demultiplexer ([`Poller`]) that drives the dispatch loop.
//!
//! The paper's framework relies on Java NIO for non-blocking socket I/O:
//! the Event Dispatcher blocks in a `Selector` until some registered
//! channel is ready, instead of scanning sockets in a loop. The Rust
//! analogue here is the [`Poller`] trait — implemented over raw `epoll`
//! for TCP ([`EpollPoller`]) and over a condvar wake-list for the
//! in-memory [`mem`] transport ([`mem::MemPoller`]) — so the entire
//! framework, including its blocking-wait behaviour, can be exercised
//! deterministically without touching the network stack.
//!
//! A [`Waker`] is the cross-thread half of the demultiplexer: worker
//! threads, the Proactor helper pool and the shutdown path use it to pull
//! a dispatcher out of [`Poller::wait`] when an event originates off the
//! wire (a reply became ready, a completion arrived, the server stops).

use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use crate::event::ConnId;

/// Result of a non-blocking read attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// `n` bytes were read into the buffer.
    Data(usize),
    /// No data available right now.
    WouldBlock,
    /// The peer closed its end.
    Closed,
}

/// A non-blocking byte stream.
pub trait StreamIo: Send + 'static {
    /// Attempt to read into `buf` without blocking.
    fn try_read(&mut self, buf: &mut [u8]) -> io::Result<ReadOutcome>;
    /// Attempt to write from `data` without blocking; returns bytes
    /// written (0 means "would block").
    fn try_write(&mut self, data: &[u8]) -> io::Result<usize>;
    /// Gathered write: attempt to write the concatenation of `bufs`
    /// without blocking, in one call where the transport can (`writev`).
    /// Returns the bytes written counted across the slices in order — a
    /// short count may end inside any slice — with 0 meaning "would
    /// block", as for [`try_write`](Self::try_write). The provided
    /// implementation writes the first non-empty slice only, which is
    /// always a legal short count.
    fn try_write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match bufs.iter().find(|b| !b.is_empty()) {
            Some(first) => self.try_write(first),
            None => Ok(0),
        }
    }
    /// Human-readable peer identity (IP:port for TCP).
    fn peer_label(&self) -> String;
    /// Close the stream (idempotent). Closing while unread peer bytes
    /// sit in the receive queue makes a kernel transport answer with RST
    /// — discarding reply data the peer has not yet consumed. Server
    /// close paths that owe the peer bytes must use
    /// [`shutdown_write`](Self::shutdown_write) plus a lingering drain
    /// instead.
    fn shutdown(&mut self);
    /// Half-close: send FIN (end the write side) but keep reading. This
    /// does **not** flush: the caller must have fully drained its
    /// outgoing queue first — any bytes still queued above this call are
    /// lost. After the FIN the caller keeps reading and discarding until
    /// peer EOF or a linger deadline (lingering close), then calls
    /// [`shutdown`](Self::shutdown).
    fn shutdown_write(&mut self);
}

// ---------------------------------------------------------------------------
// Readiness demultiplexing
// ---------------------------------------------------------------------------

/// The token under which a dispatcher registers its listening endpoint.
/// Connection ids start at 1, so 0 is free.
pub const LISTENER_TOKEN: u64 = 0;

/// What a registration wants to be woken for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the source has bytes (or EOF) to read.
    pub readable: bool,
    /// Wake when the sink can accept bytes.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write-only interest.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
}

/// One readiness event returned by [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token the source was registered under.
    pub token: u64,
    /// The source is readable (data, EOF, or error — reading will not
    /// block either way).
    pub readable: bool,
    /// The sink is writable.
    pub writable: bool,
}

/// A cheap, cloneable handle that pulls a [`Poller`] out of `wait` from
/// any thread. Outlives its poller: waking a dropped poller is a no-op.
#[derive(Clone)]
pub struct Waker {
    inner: Arc<dyn Fn() + Send + Sync>,
}

impl Waker {
    /// Wrap a wake closure.
    pub fn new(f: impl Fn() + Send + Sync + 'static) -> Self {
        Self { inner: Arc::new(f) }
    }

    /// Interrupt the poller's wait. Spurious wakes are allowed; callers
    /// of `wait` must tolerate returning with zero events.
    pub fn wake(&self) {
        (self.inner)();
    }
}

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Waker")
    }
}

/// A readiness demultiplexer: the Rust analogue of Java NIO's `Selector`.
///
/// Sources are registered under a caller-chosen token; `wait` blocks until
/// at least one registered source is ready, the timeout elapses, or a
/// [`Waker`] fires. Implementations are level-triggered where the OS is
/// (epoll); the in-memory backend is notification-based, so callers that
/// stop consuming before draining a source must re-poll it themselves.
pub trait Poller: Send + 'static {
    /// The stream type this poller understands.
    type Stream: StreamIo;

    /// Start watching a stream under `token`.
    fn register(&mut self, token: u64, stream: &Self::Stream, interest: Interest)
        -> io::Result<()>;

    /// Change the interest set of an already-registered stream.
    fn reregister(
        &mut self,
        token: u64,
        stream: &Self::Stream,
        interest: Interest,
    ) -> io::Result<()>;

    /// Stop watching a stream.
    fn deregister(&mut self, token: u64, stream: &Self::Stream) -> io::Result<()>;

    /// Block until a registered source is ready, the timeout elapses, or a
    /// waker fires. Ready events are appended to `events` (cleared first).
    /// `None` blocks indefinitely. May return with zero events (timeout or
    /// spurious wake).
    fn wait(&mut self, events: &mut Vec<PollEvent>, timeout: Option<Duration>) -> io::Result<()>;

    /// A handle that interrupts `wait` from another thread.
    fn waker(&self) -> Waker;
}

/// A non-blocking connection acceptor.
pub trait Listener: Send + 'static {
    /// The stream type produced.
    type Stream: StreamIo;
    /// The demultiplexer that watches this listener's streams.
    type Poller: Poller<Stream = Self::Stream>;
    /// Accept one pending connection if available.
    fn try_accept(&mut self) -> io::Result<Option<Self::Stream>>;
    /// Human-readable local address.
    fn local_label(&self) -> String;
    /// Create a poller compatible with this transport. Every dispatcher
    /// gets one, whether or not it owns the listener.
    fn new_poller() -> io::Result<Self::Poller>;
    /// Register the listening endpoint itself with a poller under
    /// [`LISTENER_TOKEN`]; accept-readiness then surfaces through `wait`.
    fn register_listener(&self, poller: &mut Self::Poller) -> io::Result<()>;
    /// Stop watching the listening endpoint (the dispatcher disarms the
    /// acceptor while the overload controller pauses accepting).
    fn deregister_listener(&self, poller: &mut Self::Poller) -> io::Result<()>;
    /// Open a listener for the `ordinal`-th (from 1) data connection of
    /// control connection `control`: FTP's passive mode. TCP binds an
    /// ephemeral port on this listener's address; the in-memory transport
    /// makes a child listener ([`mem::MemConnector::on_data`]). A
    /// transport without data connections refuses.
    fn data_listener(&self, control: ConnId, ordinal: u32) -> io::Result<Self>
    where
        Self: Sized,
    {
        let _ = (control, ordinal);
        Err(io::ErrorKind::Unsupported.into())
    }
}

// ---------------------------------------------------------------------------
// Syscall accounting
// ---------------------------------------------------------------------------

crate::profiling::counters! {
    /// Server-wide syscall accounting at the [`StreamIo`]/[`Poller`]
    /// boundary. Every `try_read`, gathered write, `try_accept` and
    /// `Poller::wait` issued by the dispatch loop, and every waker fire the
    /// `DispatchNotifier` makes, is counted here (attempts,
    /// not successes: a read that returns `WouldBlock` still crossed the
    /// kernel boundary and still cost a syscall). Plain relaxed counters —
    /// the same always-on cost class as `ServerStats` — so the
    /// syscalls-per-request number is available in production mode too.
    SyscallCounters =>
    /// Point-in-time copy of [`SyscallCounters`].
    SyscallSnapshot in "syscalls" as "nserver_syscalls_";
    /// `try_read` calls (request bytes plus lingering-close drains).
    reads: "reads", "read-class syscall attempts on connection sockets.";
    /// `try_write_vectored` calls (reply flushes).
    writes: "writes", "write-class syscall attempts on connection sockets.";
    /// `try_accept` calls.
    accepts: "accepts", "accept attempts on the listener socket.";
    /// `Poller::wait` calls.
    polls: "polls", "Readiness waits entered by dispatcher threads.";
    /// Waker fires: reply batches, completions, accept hand-offs, gate
    /// re-checks, shutdown.
    wakes: "wakes", "Cross-thread waker fires re-entering a dispatcher wait.";
}

impl SyscallSnapshot {
    /// Total syscalls across all classes.
    pub fn total(&self) -> u64 {
        self.scalars().map(|row| row.value).sum()
    }
}

// ---------------------------------------------------------------------------
// TCP implementation
// ---------------------------------------------------------------------------

mod accept;

/// Non-blocking TCP listener.
pub struct TcpListenerNb {
    inner: TcpListener,
    label: String,
}

impl TcpListenerNb {
    /// Bind and switch to non-blocking mode. Binding port 0 picks a free
    /// port; see [`TcpListenerNb::local_label`] for the result.
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let inner = TcpListener::bind(addr)?;
        inner.set_nonblocking(true)?;
        accept::prepare(&inner)?;
        let label = inner
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".into());
        Ok(Self { inner, label })
    }
}

impl Listener for TcpListenerNb {
    type Stream = TcpStreamNb;
    type Poller = TcpPoller;

    fn try_accept(&mut self) -> io::Result<Option<TcpStreamNb>> {
        // One syscall (`accept4`).
        match accept::accept(&self.inner) {
            Ok((stream, peer)) => Ok(Some(TcpStreamNb {
                inner: stream,
                peer: peer.to_string(),
                open: true,
            })),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn local_label(&self) -> String {
        self.label.clone()
    }

    fn new_poller() -> io::Result<TcpPoller> {
        TcpPoller::new()
    }

    fn register_listener(&self, poller: &mut TcpPoller) -> io::Result<()> {
        poller.add_fd(LISTENER_TOKEN, raw_fd(&self.inner), Interest::READABLE)
    }

    fn deregister_listener(&self, poller: &mut TcpPoller) -> io::Result<()> {
        poller.del_fd(LISTENER_TOKEN, raw_fd(&self.inner))
    }

    fn data_listener(&self, _: ConnId, _: u32) -> io::Result<Self> {
        Self::bind((self.inner.local_addr()?.ip(), 0))
    }
}

/// Non-blocking TCP stream.
pub struct TcpStreamNb {
    inner: TcpStream,
    peer: String,
    open: bool,
}

impl TcpStreamNb {
    /// Client-side connect (used by the Connector half of the
    /// Acceptor-Connector pattern and by tests).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let inner = TcpStream::connect(addr)?;
        inner.set_nonblocking(true)?;
        let _ = inner.set_nodelay(true);
        let peer = inner
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".into());
        Ok(Self {
            inner,
            peer,
            open: true,
        })
    }

    fn fd(&self) -> i32 {
        raw_fd(&self.inner)
    }

    /// One write syscall (`write` or `writev`) under the [`StreamIo`]
    /// result mapping: would-block and interrupted attempts read as 0.
    fn write_with(
        &mut self,
        op: impl FnOnce(&mut TcpStream) -> io::Result<usize>,
    ) -> io::Result<usize> {
        if !self.open {
            // Surfacing an error (rather than 0 = "would block") lets the
            // dispatcher reap a connection whose peer vanished while
            // response bytes were still queued.
            return Err(io::Error::new(io::ErrorKind::NotConnected, "closed"));
        }
        match op(&mut self.inner) {
            Ok(n) => Ok(n),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(0),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {
                self.open = false;
                Err(e)
            }
            Err(e) => Err(e),
        }
    }

    /// The socket's local address label. For an outbound connection this
    /// is what the accepting side sees as its peer label — the cluster
    /// relay stamps it as a trace correlation link so front-end and
    /// backend timelines join without any wire bytes.
    pub fn local_label(&self) -> String {
        self.inner
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".into())
    }
}

fn raw_fd<T: std::os::unix::io::AsRawFd>(t: &T) -> i32 {
    t.as_raw_fd()
}

impl StreamIo for TcpStreamNb {
    fn try_read(&mut self, buf: &mut [u8]) -> io::Result<ReadOutcome> {
        if !self.open {
            return Ok(ReadOutcome::Closed);
        }
        match self.inner.read(buf) {
            Ok(0) => Ok(ReadOutcome::Closed),
            Ok(n) => Ok(ReadOutcome::Data(n)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(ReadOutcome::WouldBlock),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(ReadOutcome::WouldBlock),
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => Ok(ReadOutcome::Closed),
            Err(e) => Err(e),
        }
    }

    fn try_write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.write_with(|s| s.write(data))
    }

    fn try_write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        self.write_with(|s| s.write_vectored(bufs))
    }

    fn peer_label(&self) -> String {
        self.peer.clone()
    }

    fn shutdown(&mut self) {
        if self.open {
            let _ = self.inner.shutdown(std::net::Shutdown::Both);
            self.open = false;
        }
    }

    /// FIN-only: no flush — the caller guarantees its outgoing queue is
    /// empty (see the [`StreamIo`] contract). Closing a socket with
    /// unread peer bytes in its receive queue makes the kernel answer
    /// with RST, which discards reply data the peer has not yet
    /// consumed; a server or relay tearing a session down must FIN first
    /// and drain the peer rather than call `shutdown` directly.
    fn shutdown_write(&mut self) {
        if self.open {
            let _ = self.inner.shutdown(std::net::Shutdown::Write);
        }
    }
}

// ---------------------------------------------------------------------------
// epoll-backed poller
// ---------------------------------------------------------------------------

#[cfg(not(target_os = "linux"))]
compile_error!("the TCP transport needs epoll: nserver-core builds on Linux only");

/// The poller used for TCP transports.
pub type TcpPoller = EpollPoller;

pub use self::epoll::EpollPoller;

mod epoll {
    //! Level-triggered epoll plus an eventfd waker, called straight
    //! through the C library (no external crates).

    use super::{Interest, PollEvent, Poller, TcpStreamNb, Waker};
    use std::io;
    use std::sync::Arc;
    use std::time::Duration;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;

    /// Reserved token for the internal eventfd; never surfaces to callers.
    const WAKER_TOKEN: u64 = u64::MAX;

    const MAX_EVENTS: usize = 64;

    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
    }

    /// An owned eventfd; shared between the poller and its wakers so the
    /// fd stays valid for whichever side outlives the other.
    struct EventFd(i32);

    impl EventFd {
        fn new() -> io::Result<Self> {
            let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self(fd))
        }

        fn signal(&self) {
            let one: u64 = 1;
            unsafe {
                let _ = write(self.0, one.to_ne_bytes().as_ptr(), 8);
            }
        }

        fn drain(&self) {
            let mut buf = [0u8; 8];
            unsafe {
                let _ = read(self.0, buf.as_mut_ptr(), 8);
            }
        }
    }

    impl Drop for EventFd {
        fn drop(&mut self) {
            unsafe {
                let _ = close(self.0);
            }
        }
    }

    // The fd is used only via signal/drain, both thread-safe syscalls.
    unsafe impl Send for EventFd {}
    unsafe impl Sync for EventFd {}

    fn interest_bits(interest: Interest) -> u32 {
        let mut bits = EPOLLRDHUP;
        if interest.readable {
            bits |= EPOLLIN;
        }
        if interest.writable {
            bits |= EPOLLOUT;
        }
        bits
    }

    /// Level-triggered epoll demultiplexer for TCP streams.
    pub struct EpollPoller {
        epfd: i32,
        wake_fd: Arc<EventFd>,
    }

    impl EpollPoller {
        /// Create the epoll instance and its eventfd waker.
        pub fn new() -> io::Result<Self> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            let wake_fd = Arc::new(EventFd::new()?);
            let poller = Self { epfd, wake_fd };
            poller.ctl(EPOLL_CTL_ADD, poller.wake_fd.0, EPOLLIN, WAKER_TOKEN)?;
            Ok(poller)
        }

        fn ctl(&self, op: i32, fd: i32, events: u32, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                // errno, so `ENOSPC` or `ENOMEM` can be told from `EEXIST`.
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Register a raw fd (used for listeners, relay sockets and tests).
        pub fn add_fd(&mut self, token: u64, fd: i32, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, interest_bits(interest), token)
        }

        /// Change a raw fd's interest set.
        pub fn mod_fd(&mut self, token: u64, fd: i32, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, interest_bits(interest), token)
        }

        /// Remove a raw fd.
        pub fn del_fd(&mut self, _token: u64, fd: i32) -> io::Result<()> {
            // The event argument is ignored for DEL but must be non-null
            // on pre-2.6.9 kernels; pass a dummy.
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }
    }

    impl Drop for EpollPoller {
        fn drop(&mut self) {
            unsafe {
                let _ = close(self.epfd);
            }
        }
    }

    impl Poller for EpollPoller {
        type Stream = TcpStreamNb;

        fn register(
            &mut self,
            token: u64,
            stream: &TcpStreamNb,
            interest: Interest,
        ) -> io::Result<()> {
            self.add_fd(token, stream.fd(), interest)
        }

        fn reregister(
            &mut self,
            token: u64,
            stream: &TcpStreamNb,
            interest: Interest,
        ) -> io::Result<()> {
            self.mod_fd(token, stream.fd(), interest)
        }

        fn deregister(&mut self, token: u64, stream: &TcpStreamNb) -> io::Result<()> {
            self.del_fd(token, stream.fd())
        }

        fn wait(
            &mut self,
            events: &mut Vec<PollEvent>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            events.clear();
            let timeout_ms = match timeout {
                None => -1,
                Some(d) if d.is_zero() => 0,
                // Round up, or a deadline 1.5 ms away wakes at 1 ms and again.
                Some(d) => d.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32,
            };
            let mut raw = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
            let n =
                unsafe { epoll_wait(self.epfd, raw.as_mut_ptr(), MAX_EVENTS as i32, timeout_ms) };
            if n < 0 {
                // EINTR or transient failure: report a spurious wake and
                // let the dispatcher loop re-enter the wait.
                return Ok(());
            }
            for ev in raw.iter().take(n as usize) {
                let (bits, token) = (ev.events, ev.data);
                if token == WAKER_TOKEN {
                    self.wake_fd.drain();
                    continue;
                }
                events.push(PollEvent {
                    token,
                    readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0,
                    writable: bits & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0,
                });
            }
            Ok(())
        }

        fn waker(&self) -> Waker {
            let fd = Arc::clone(&self.wake_fd);
            Waker::new(move || fd.signal())
        }
    }
}

// ---------------------------------------------------------------------------
// In-memory implementation
// ---------------------------------------------------------------------------

/// In-memory loopback transport for deterministic tests.
pub mod mem {
    use super::*;
    use parking_lot::{Condvar, Mutex};
    use std::collections::{HashSet, VecDeque};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    use std::sync::{Arc, Weak};
    use std::time::Instant;

    /// A registration watching a pipe or listener inbox: when the source
    /// gains data (or closes), the watcher's poller marks `token` ready.
    type WatchEntry = (Weak<PollShared>, u64);

    #[derive(Default)]
    struct Pipe {
        buf: VecDeque<u8>,
        closed: bool,
        watchers: Vec<WatchEntry>,
    }

    impl Pipe {
        /// Notify every live watcher that this pipe became readable;
        /// prunes watchers whose poller is gone.
        fn notify(&mut self) {
            self.watchers
                .retain(|(shared, token)| match shared.upgrade() {
                    Some(shared) => {
                        shared.mark_ready(*token);
                        true
                    }
                    None => false,
                });
        }
    }

    struct PollState {
        ready: HashSet<u64>,
        woken: bool,
    }

    struct PollShared {
        state: Mutex<PollState>,
        cv: Condvar,
    }

    impl PollShared {
        fn mark_ready(&self, token: u64) {
            let mut st = self.state.lock();
            st.ready.insert(token);
            self.cv.notify_one();
        }
    }

    /// One end of an in-memory full-duplex connection.
    pub struct MemStream {
        read: Arc<Mutex<Pipe>>,
        write: Arc<Mutex<Pipe>>,
        label: String,
    }

    /// Create a connected pair: `(a, b)` where bytes written to `a` are
    /// read from `b` and vice versa.
    pub fn pair(label_a: &str, label_b: &str) -> (MemStream, MemStream) {
        let ab = Arc::new(Mutex::new(Pipe::default()));
        let ba = Arc::new(Mutex::new(Pipe::default()));
        (
            MemStream {
                read: Arc::clone(&ba),
                write: Arc::clone(&ab),
                label: label_a.to_string(),
            },
            MemStream {
                read: ab,
                write: ba,
                label: label_b.to_string(),
            },
        )
    }

    impl StreamIo for MemStream {
        fn try_read(&mut self, buf: &mut [u8]) -> io::Result<ReadOutcome> {
            let mut pipe = self.read.lock();
            if pipe.buf.is_empty() {
                return if pipe.closed {
                    Ok(ReadOutcome::Closed)
                } else {
                    Ok(ReadOutcome::WouldBlock)
                };
            }
            let n = buf.len().min(pipe.buf.len());
            let (head, tail) = pipe.buf.as_slices();
            let from_head = n.min(head.len());
            buf[..from_head].copy_from_slice(&head[..from_head]);
            buf[from_head..n].copy_from_slice(&tail[..n - from_head]);
            pipe.buf.drain(..n);
            Ok(ReadOutcome::Data(n))
        }

        fn try_write(&mut self, data: &[u8]) -> io::Result<usize> {
            self.try_write_vectored(&[IoSlice::new(data)])
        }

        /// The whole gather lands under one lock and raises one
        /// readiness notification, like one `writev` on a socket.
        fn try_write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut pipe = self.write.lock();
            if pipe.closed {
                drop(pipe);
                // Writing into a fully-closed peer answers with RST, and
                // an arriving RST flushes the receive queue: bytes the
                // peer sent that we never read are discarded along with
                // the connection. A half-closed peer (`shutdown_write`)
                // never closes this pipe, so a lingering server keeps
                // accepting late pipelined writes without resetting.
                let mut read = self.read.lock();
                read.buf.clear();
                read.closed = true;
                read.notify();
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer closed"));
            }
            let before = pipe.buf.len();
            for b in bufs {
                pipe.buf.extend(b.iter());
            }
            let n = pipe.buf.len() - before;
            if n > 0 {
                pipe.notify();
            }
            Ok(n)
        }

        fn peer_label(&self) -> String {
            self.label.clone()
        }

        fn shutdown(&mut self) {
            // RST semantics, mirroring a kernel socket: a full close with
            // unread peer bytes still in our receive queue resets the
            // connection, discarding whatever we wrote that the peer has
            // not yet read. This is exactly the data loss a lingering
            // close exists to avoid, and modelling it here is what lets
            // the in-memory conformance explorer observe it.
            let mut read = self.read.lock();
            let rst = !read.buf.is_empty();
            read.closed = true;
            read.notify();
            drop(read);
            let mut write = self.write.lock();
            if rst && !write.closed {
                write.buf.clear();
            }
            write.closed = true;
            write.notify();
        }

        fn shutdown_write(&mut self) {
            // Half-close: end our write side only. The peer observes EOF
            // after draining buffered bytes; our read side stays open so
            // a lingering close can keep discarding late arrivals.
            let mut write = self.write.lock();
            write.closed = true;
            write.notify();
        }
    }

    /// Dropping an end is a [`shutdown`](StreamIo::shutdown), as closing
    /// a socket is; after an explicit one it changes nothing.
    impl Drop for MemStream {
        fn drop(&mut self) {
            self.shutdown();
        }
    }

    /// A [`MemConnector::on_data`] callback.
    type OnData = Arc<dyn Fn(ConnId, u32, MemConnector) + Send + Sync>;

    /// The queue a [`MemListener`] accepts from, shared with its
    /// [`MemConnector`]; watched the same way pipes are.
    struct Inbox {
        queue: VecDeque<MemStream>,
        watchers: Vec<WatchEntry>,
        on_data: Option<OnData>,
    }

    impl Inbox {
        fn notify(&mut self) {
            self.watchers
                .retain(|(shared, token)| match shared.upgrade() {
                    Some(shared) => {
                        shared.mark_ready(*token);
                        true
                    }
                    None => false,
                });
        }
    }

    /// An in-memory listener fed by a [`MemConnector`]. A clone accepts
    /// from the same queue.
    #[derive(Clone)]
    pub struct MemListener {
        incoming: Arc<Mutex<Inbox>>,
        label: String,
    }

    /// The client-side handle that creates connections to a
    /// [`MemListener`].
    #[derive(Clone)]
    pub struct MemConnector {
        incoming: Arc<Mutex<Inbox>>,
        counter: Arc<AtomicU64>,
    }

    /// Create a listener and its connector.
    pub fn listener(label: &str) -> (MemListener, MemConnector) {
        let incoming = Arc::new(Mutex::new(Inbox {
            queue: VecDeque::new(),
            watchers: Vec::new(),
            on_data: None,
        }));
        (
            MemListener {
                incoming: Arc::clone(&incoming),
                label: label.to_string(),
            },
            MemConnector {
                incoming,
                counter: Arc::default(),
            },
        )
    }

    impl MemConnector {
        /// Establish a connection; returns the client-side stream.
        pub fn connect(&self) -> MemStream {
            let id = self.counter.fetch_add(1, Relaxed) + 1;
            let (client, server) = pair(&format!("client-{id}"), &format!("peer-{id}"));
            let mut inbox = self.incoming.lock();
            inbox.queue.push_back(server);
            inbox.notify();
            client
        }

        /// Hand `f` the control connection, ordinal and connector of each
        /// data listener the listener opens ([`Listener::data_listener`]),
        /// as it opens: without it nothing can reach a data listener.
        pub fn on_data(&self, f: impl Fn(ConnId, u32, MemConnector) + Send + Sync + 'static) {
            self.incoming.lock().on_data = Some(Arc::new(f));
        }
    }

    impl Listener for MemListener {
        type Stream = MemStream;
        type Poller = MemPoller;

        fn try_accept(&mut self) -> io::Result<Option<MemStream>> {
            Ok(self.incoming.lock().queue.pop_front())
        }

        fn local_label(&self) -> String {
            self.label.clone()
        }

        fn new_poller() -> io::Result<MemPoller> {
            Ok(MemPoller::new())
        }

        fn register_listener(&self, poller: &mut MemPoller) -> io::Result<()> {
            let mut inbox = self.incoming.lock();
            inbox
                .watchers
                .retain(|(shared, token)| *token != LISTENER_TOKEN && shared.strong_count() > 0);
            inbox
                .watchers
                .push((Arc::downgrade(&poller.shared), LISTENER_TOKEN));
            if !inbox.queue.is_empty() {
                poller.shared.mark_ready(LISTENER_TOKEN);
            }
            Ok(())
        }

        fn deregister_listener(&self, poller: &mut MemPoller) -> io::Result<()> {
            self.incoming
                .lock()
                .watchers
                .retain(|(_, token)| *token != LISTENER_TOKEN);
            poller.shared.state.lock().ready.remove(&LISTENER_TOKEN);
            Ok(())
        }

        fn data_listener(&self, control: ConnId, ordinal: u32) -> io::Result<Self> {
            let (child, connector) = listener(&format!("{}/data-{control}-{ordinal}", self.label));
            let on_data = self.incoming.lock().on_data.clone();
            if let Some(f) = on_data {
                f(control, ordinal, connector);
            }
            Ok(child)
        }
    }

    /// Condvar/wake-list demultiplexer for the in-memory transport.
    ///
    /// Readable readiness is notification-based: writers and closers mark
    /// the watching token ready. Writable readiness is unconditional (mem
    /// pipes are unbounded), reported for every token whose interest
    /// includes `writable`.
    pub struct MemPoller {
        shared: Arc<PollShared>,
        write_armed: HashSet<u64>,
    }

    impl MemPoller {
        /// Fresh poller with no registrations.
        pub fn new() -> Self {
            Self {
                shared: Arc::new(PollShared {
                    state: Mutex::new(PollState {
                        ready: HashSet::new(),
                        woken: false,
                    }),
                    cv: Condvar::new(),
                }),
                write_armed: HashSet::new(),
            }
        }
    }

    impl Default for MemPoller {
        fn default() -> Self {
            Self::new()
        }
    }

    impl Poller for MemPoller {
        type Stream = MemStream;

        fn register(
            &mut self,
            token: u64,
            stream: &MemStream,
            interest: Interest,
        ) -> io::Result<()> {
            let mut pipe = stream.read.lock();
            pipe.watchers
                .retain(|(shared, t)| *t != token && shared.strong_count() > 0);
            if interest.readable {
                pipe.watchers.push((Arc::downgrade(&self.shared), token));
                // Data (or EOF) that arrived before registration would
                // otherwise never notify.
                if !pipe.buf.is_empty() || pipe.closed {
                    self.shared.mark_ready(token);
                }
            }
            drop(pipe);
            if interest.writable {
                self.write_armed.insert(token);
            } else {
                self.write_armed.remove(&token);
            }
            Ok(())
        }

        fn reregister(
            &mut self,
            token: u64,
            stream: &MemStream,
            interest: Interest,
        ) -> io::Result<()> {
            self.register(token, stream, interest)
        }

        fn deregister(&mut self, token: u64, stream: &MemStream) -> io::Result<()> {
            stream.read.lock().watchers.retain(|(_, t)| *t != token);
            self.write_armed.remove(&token);
            self.shared.state.lock().ready.remove(&token);
            Ok(())
        }

        fn wait(
            &mut self,
            events: &mut Vec<PollEvent>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            events.clear();
            let deadline = timeout.map(|d| Instant::now() + d);
            let mut st = self.shared.state.lock();
            loop {
                if !st.ready.is_empty() || st.woken || !self.write_armed.is_empty() {
                    st.woken = false;
                    let ready: HashSet<u64> = st.ready.drain().collect();
                    drop(st);
                    for &token in &ready {
                        events.push(PollEvent {
                            token,
                            readable: true,
                            writable: self.write_armed.contains(&token),
                        });
                    }
                    for &token in self.write_armed.iter() {
                        if !ready.contains(&token) {
                            events.push(PollEvent {
                                token,
                                readable: false,
                                writable: true,
                            });
                        }
                    }
                    // Token order, not hash order: one history, one sequence.
                    events.sort_unstable_by_key(|ev| ev.token);
                    return Ok(());
                }
                match deadline {
                    None => self.shared.cv.wait(&mut st),
                    Some(d) => {
                        if self.shared.cv.wait_until(&mut st, d).timed_out() {
                            return Ok(());
                        }
                    }
                }
            }
        }

        fn waker(&self) -> Waker {
            let shared = Arc::clone(&self.shared);
            Waker::new(move || {
                let mut st = shared.state.lock();
                st.woken = true;
                shared.cv.notify_one();
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_pair_round_trips() {
        let (mut a, mut b) = mem::pair("a", "b");
        assert_eq!(a.try_write(b"hello").unwrap(), 5);
        let mut buf = [0u8; 16];
        assert_eq!(b.try_read(&mut buf).unwrap(), ReadOutcome::Data(5));
        assert_eq!(&buf[..5], b"hello");
        assert_eq!(b.try_read(&mut buf).unwrap(), ReadOutcome::WouldBlock);
        // Reverse direction.
        b.try_write(b"yo").unwrap();
        assert_eq!(a.try_read(&mut buf).unwrap(), ReadOutcome::Data(2));
    }

    #[test]
    fn mem_close_is_observed_after_drain() {
        let (mut a, mut b) = mem::pair("a", "b");
        a.try_write(b"x").unwrap();
        a.shutdown();
        let mut buf = [0u8; 4];
        assert_eq!(b.try_read(&mut buf).unwrap(), ReadOutcome::Data(1));
        assert_eq!(b.try_read(&mut buf).unwrap(), ReadOutcome::Closed);
        // Writing to a closed pipe reports an error so the reactor can
        // reap the connection.
        assert!(b.try_write(b"y").is_err());
    }

    #[test]
    fn mem_gathered_write_is_one_arrival_and_reads_copy_by_slice() {
        let (mut a, mut b) = mem::pair("a", "b");
        let mut poller = MemPoller::new();
        poller.register(1, &b, Interest::READABLE).unwrap();
        let gather = [
            IoSlice::new(b"head "),
            IoSlice::new(b""),
            IoSlice::new(b"body"),
        ];
        assert_eq!(a.try_write_vectored(&gather).unwrap(), 9);
        assert_eq!(wait_events(&mut poller, Some(Duration::ZERO)).len(), 1);
        // Drain part, write again so the ring buffer wraps, and check a
        // read that spans both halves of it.
        let mut buf = [0u8; 7];
        assert_eq!(b.try_read(&mut buf).unwrap(), ReadOutcome::Data(7));
        assert_eq!(&buf, b"head bo");
        a.try_write(b"-and-more").unwrap();
        let mut rest = [0u8; 32];
        assert_eq!(b.try_read(&mut rest).unwrap(), ReadOutcome::Data(11));
        assert_eq!(&rest[..11], b"dy-and-more");
        assert_eq!(b.try_read(&mut rest).unwrap(), ReadOutcome::WouldBlock);
    }

    #[test]
    fn default_gathered_write_is_the_first_non_empty_slice() {
        /// Implements only the required methods.
        struct Plain(Vec<u8>);
        impl StreamIo for Plain {
            fn try_read(&mut self, _buf: &mut [u8]) -> io::Result<ReadOutcome> {
                Ok(ReadOutcome::WouldBlock)
            }
            fn try_write(&mut self, data: &[u8]) -> io::Result<usize> {
                self.0.extend_from_slice(data);
                Ok(data.len())
            }
            fn peer_label(&self) -> String {
                "plain".into()
            }
            fn shutdown(&mut self) {}
            fn shutdown_write(&mut self) {}
        }
        let mut s = Plain(Vec::new());
        let gather = [
            IoSlice::new(b""),
            IoSlice::new(b"first"),
            IoSlice::new(b"second"),
        ];
        assert_eq!(s.try_write_vectored(&gather).unwrap(), 5);
        assert_eq!(s.0, b"first");
        assert_eq!(s.try_write_vectored(&[]).unwrap(), 0);
    }

    #[test]
    fn mem_listener_delivers_connections_fifo() {
        let (mut l, c) = mem::listener("srv");
        assert!(l.try_accept().unwrap().is_none());
        let _c1 = c.connect();
        let _c2 = c.connect();
        let s1 = l.try_accept().unwrap().unwrap();
        let s2 = l.try_accept().unwrap().unwrap();
        assert_eq!(s1.peer_label(), "peer-1");
        assert_eq!(s2.peer_label(), "peer-2");
        assert_eq!(l.local_label(), "srv");
    }

    #[test]
    fn mem_connected_pair_talks_through_listener() {
        let (mut l, c) = mem::listener("srv");
        let mut client = c.connect();
        let mut server = l.try_accept().unwrap().unwrap();
        client.try_write(b"ping").unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(server.try_read(&mut buf).unwrap(), ReadOutcome::Data(4));
        server.try_write(b"pong").unwrap();
        assert_eq!(client.try_read(&mut buf).unwrap(), ReadOutcome::Data(4));
        assert_eq!(&buf[..4], b"pong");
    }

    #[test]
    fn tcp_listener_binds_and_accepts_nonblocking() {
        let mut l = TcpListenerNb::bind("127.0.0.1:0").unwrap();
        assert!(l.try_accept().unwrap().is_none(), "no pending connection");
        let addr = l.local_label();
        let mut client = TcpStreamNb::connect(&addr).unwrap();
        // Accept may need a beat for the kernel to hand over the socket.
        let mut server = None;
        for _ in 0..100 {
            if let Some(s) = l.try_accept().unwrap() {
                server = Some(s);
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let mut server = server.expect("accepted");
        let gather = [IoSlice::new(b"a"), IoSlice::new(b"bc")];
        assert_eq!(client.try_write_vectored(&gather).unwrap(), 3);
        let mut buf = [0u8; 8];
        let mut got = 0;
        for _ in 0..100 {
            match server.try_read(&mut buf[got..]).unwrap() {
                ReadOutcome::Data(n) => {
                    got += n;
                    if got >= 3 {
                        break;
                    }
                }
                ReadOutcome::WouldBlock => std::thread::sleep(std::time::Duration::from_millis(1)),
                ReadOutcome::Closed => panic!("unexpected close"),
            }
        }
        assert_eq!(&buf[..3], b"abc");
        client.shutdown();
        // Eventually observe the close.
        let mut closed = false;
        for _ in 0..100 {
            match server.try_read(&mut buf).unwrap() {
                ReadOutcome::Closed => {
                    closed = true;
                    break;
                }
                _ => std::thread::sleep(std::time::Duration::from_millis(1)),
            }
        }
        assert!(closed);
    }

    // --- Demultiplexer tests ---------------------------------------------

    use super::mem::MemPoller;

    fn wait_events(poller: &mut MemPoller, timeout: Option<Duration>) -> Vec<PollEvent> {
        let mut events = Vec::new();
        poller.wait(&mut events, timeout).unwrap();
        events
    }

    #[test]
    fn mem_poller_blocks_until_data_arrives() {
        let (a, b) = mem::pair("a", "b");
        let mut poller = MemPoller::new();
        poller.register(7, &b, Interest::READABLE).unwrap();

        let writer = std::thread::spawn(move || {
            let mut a = a;
            a.try_write(b"hi").unwrap();
            a // keep the pipe alive
        });
        // Blocks (no timeout) until the writer thread's bytes land.
        let events = wait_events(&mut poller, None);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        let _a = writer.join().unwrap();
        let mut b = b;
        let mut buf = [0u8; 4];
        assert_eq!(b.try_read(&mut buf).unwrap(), ReadOutcome::Data(2));
    }

    #[test]
    fn mem_poller_wakes_on_peer_close() {
        let (a, b) = mem::pair("a", "b");
        let mut poller = MemPoller::new();
        poller.register(3, &b, Interest::READABLE).unwrap();
        let closer = std::thread::spawn(move || {
            let mut a = a;
            a.shutdown();
        });
        let events = wait_events(&mut poller, None);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 3);
        assert!(events[0].readable);
        closer.join().unwrap();
        let mut b = b;
        let mut buf = [0u8; 4];
        assert_eq!(b.try_read(&mut buf).unwrap(), ReadOutcome::Closed);
    }

    #[test]
    fn mem_poller_sees_data_written_before_registration() {
        let (mut a, b) = mem::pair("a", "b");
        a.try_write(b"early").unwrap();
        let mut poller = MemPoller::new();
        poller.register(1, &b, Interest::READABLE).unwrap();
        let events = wait_events(&mut poller, Some(Duration::ZERO));
        assert_eq!(events.len(), 1);
        assert!(events[0].readable);
    }

    #[test]
    fn mem_poller_tolerates_spurious_wakes() {
        let (_a, b) = mem::pair("a", "b");
        let mut poller = MemPoller::new();
        poller.register(1, &b, Interest::READABLE).unwrap();
        let waker = poller.waker();
        waker.wake();
        // Wake with no readiness: empty event set, no hang.
        let events = wait_events(&mut poller, None);
        assert!(events.is_empty());
        // The wake flag is consumed: the next zero-timeout wait is empty.
        let events = wait_events(&mut poller, Some(Duration::ZERO));
        assert!(events.is_empty());
    }

    #[test]
    fn mem_poller_waker_outlives_poller() {
        let (_a, b) = mem::pair("a", "b");
        let waker = {
            let mut poller = MemPoller::new();
            poller.register(1, &b, Interest::READABLE).unwrap();
            poller.waker()
        };
        // Poller dropped; waking must be a harmless no-op.
        waker.wake();
        // Writing into a pipe whose watcher's poller died must not panic
        // either (the dead watcher is pruned).
        let mut a = _a;
        a.try_write(b"x").unwrap();
    }

    #[test]
    fn mem_poller_write_interest_reports_writable() {
        let (_a, b) = mem::pair("a", "b");
        let mut poller = MemPoller::new();
        poller
            .register(
                5,
                &b,
                Interest {
                    readable: true,
                    writable: true,
                },
            )
            .unwrap();
        let events = wait_events(&mut poller, Some(Duration::ZERO));
        assert_eq!(events.len(), 1);
        assert!(events[0].writable, "mem pipes are always writable");
        // Dropping write interest silences the poller again.
        poller.reregister(5, &b, Interest::READABLE).unwrap();
        let events = wait_events(&mut poller, Some(Duration::ZERO));
        assert!(events.is_empty());
    }

    #[test]
    fn mem_poller_deregister_stops_events() {
        let (mut a, b) = mem::pair("a", "b");
        let mut poller = MemPoller::new();
        poller.register(9, &b, Interest::READABLE).unwrap();
        poller.deregister(9, &b).unwrap();
        a.try_write(b"ignored").unwrap();
        let events = wait_events(&mut poller, Some(Duration::ZERO));
        assert!(events.is_empty());
    }

    #[test]
    fn mem_listener_registration_reports_pending_accepts() {
        let (l, c) = mem::listener("srv");
        let mut poller = MemPoller::new();
        l.register_listener(&mut poller).unwrap();
        let events = wait_events(&mut poller, Some(Duration::ZERO));
        assert!(events.is_empty(), "no pending connection yet");
        let _client = c.connect();
        let events = wait_events(&mut poller, Some(Duration::ZERO));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, LISTENER_TOKEN);
        l.deregister_listener(&mut poller).unwrap();
        let _client2 = c.connect();
        let events = wait_events(&mut poller, Some(Duration::ZERO));
        assert!(events.is_empty(), "deregistered listener stays silent");
    }

    /// An accepted stream needs no call of its own to be non-blocking and
    /// `TCP_NODELAY` (on Linux `accept4` and the listener's option give
    /// both), and is labelled with the address its peer connected from.
    #[test]
    fn tcp_accepted_stream_is_nonblocking_and_nodelay() {
        for bind in ["127.0.0.1:0", "[::1]:0"] {
            let Ok(mut l) = TcpListenerNb::bind(bind) else {
                assert_ne!(bind, "127.0.0.1:0", "IPv4 loopback must bind");
                continue; // no IPv6 loopback on this host
            };
            let client = TcpStream::connect(l.local_label()).unwrap();
            let mut server = None;
            for _ in 0..1000 {
                server = l.try_accept().unwrap();
                if server.is_some() {
                    break;
                }
                std::thread::yield_now();
            }
            let mut server = server.expect("accepted");
            assert!(server.inner.nodelay().unwrap(), "{bind}");
            // A blocking socket would hang here; this one has nothing yet.
            let mut buf = [0u8; 8];
            assert_eq!(server.try_read(&mut buf).unwrap(), ReadOutcome::WouldBlock);
            assert_eq!(
                server.peer_label(),
                client.local_addr().unwrap().to_string()
            );
        }
    }

    #[test]
    fn epoll_poller_reports_tcp_readiness_and_wakes() {
        let mut l = TcpListenerNb::bind("127.0.0.1:0").unwrap();
        let mut poller = TcpPoller::new().unwrap();
        l.register_listener(&mut poller).unwrap();
        let mut client = TcpStreamNb::connect(l.local_label()).unwrap();

        // The pending connection must surface as LISTENER_TOKEN readable.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events
            .iter()
            .any(|e| e.token == LISTENER_TOKEN && e.readable));
        let server = l.try_accept().unwrap().expect("accepted");
        poller.register(42, &server, Interest::READABLE).unwrap();

        // Data readiness.
        client.try_write(b"abc").unwrap();
        let mut saw_data = false;
        for _ in 0..100 {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if events.iter().any(|e| e.token == 42 && e.readable) {
                saw_data = true;
                break;
            }
        }
        assert!(saw_data, "epoll never reported the payload");

        // Waker interrupts a blocking wait from another thread.
        let waker = poller.waker();
        let t = std::thread::spawn(move || waker.wake());
        let mut server = server;
        let mut buf = [0u8; 8];
        let _ = server.try_read(&mut buf); // drain so readable goes quiet
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        t.join().unwrap();
        poller.deregister(42, &server).unwrap();
        l.deregister_listener(&mut poller).unwrap();
    }

    /// A wait of 1.5 ms with nothing ready lasts at least 1.5 ms: the
    /// timeout is rounded up to whole milliseconds, so a deadline costs
    /// its loop one wake-up, not an early one and another.
    #[test]
    fn epoll_wait_rounds_its_timeout_up() {
        let mut poller = TcpPoller::new().unwrap();
        let mut events = Vec::new();
        let timeout = Duration::from_micros(1_500);
        for _ in 0..3 {
            let began = std::time::Instant::now();
            poller.wait(&mut events, Some(timeout)).unwrap();
            let waited = began.elapsed();
            assert!(events.is_empty(), "{events:?}");
            assert!(waited >= timeout, "woke after {waited:?}");
        }
    }
}
