//! The Reactor: event demultiplexing and dispatching.
//!
//! "The Event Dispatcher repeatedly polls for ready events and dispatches
//! a registered Event Handler to process each one." Here each dispatcher
//! thread owns a partition of the connections (option O1: one dispatcher,
//! or several with connections partitioned between them), blocks in a
//! [`Poller`] until one of them is ready, performs the framework-owned
//! Read Request step, and hands the application-dependent steps to the
//! Event Processor (O2 = Yes) or runs them in place (O2 = No — the
//! classic single-threaded Reactor). Under O2 = Yes it is one more
//! handler when it would otherwise go to sleep: where no hook can block
//! it, it queues every ready event of a pass but the last and handles
//! that one itself, and on one CPU, where nothing else needs the queue,
//! it handles them all ([`SubmitMode::choose`]). Send Reply is the
//! framework's too, but not this thread's alone: [`flush`] is the one
//! send routine, run by the work item that queued the replies and by the
//! dispatcher for whatever a work item left behind.
//!
//! Readiness is demultiplexed, never scanned: the loop sleeps in
//! `Poller::wait` (epoll for TCP, a condvar wake-list for the in-memory
//! transport) and only touches connections the poller reported. Events
//! that originate off the wire — a work item left output or a close for
//! the dispatcher, a Proactor completion arrived, the overload controller
//! unblocked the acceptor, shutdown — reach the loop through a
//! [`DispatchNotifier`], which pairs each dispatcher's injection channel
//! with its poller's [`Waker`].
//!
//! The Acceptor half of the Acceptor-Connector pattern lives here too:
//! dispatcher 0 owns the listening endpoint, consults the overload
//! controller (O9) before accepting, assigns the connection its priority
//! (O8) via the application's priority policy, and distributes accepted
//! connections across dispatchers. While the controller pauses accepting,
//! the listener is deregistered from the poller so a backlog of pending
//! connections cannot spin the loop.

use std::cell::Cell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::io::IoSlice;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::event::{CompletionToken, ConnId, EventKind, Priority};
use crate::metrics::Stage;
use crate::options::{CompletionMode, EventScheduling, ServerOptions, StageDeadlines};
use crate::overload::OverloadController;
use crate::pipeline::{Codec, ConnShared, End, Engine, Open, Outbox, Recorders, Service, Work};
use crate::processor::EventProcessor;
use crate::profiling::ServerStats;
use crate::timer::{lazily, Deadlines, LINGER, WALL};
use crate::trace::{DebugTracer, SpanEvent, SEQ_NONE};
use crate::transport::{
    Interest, Listener, PollEvent, Poller, ReadOutcome, StreamIo, SyscallCounters, Waker,
    LISTENER_TOKEN,
};

/// Where ready events go: the Event Processor pool (O2 = Yes) or inline on
/// the dispatcher (O2 = No, and O2 = Yes on one CPU where nothing needs
/// the queue — [`choose`](Self::choose)).
pub enum SubmitMode<R: Send + 'static> {
    /// Run handlers on the dispatcher thread.
    Inline,
    /// Queue work for the Event Processor.
    Pool {
        /// The pool and its queue.
        processor: Arc<EventProcessor<Work<R>>>,
        /// The dispatcher is one more handler when it would otherwise go
        /// to sleep: every ready event of a pass but the last is queued,
        /// the last one the dispatcher handles itself. Set where that
        /// cannot hurt — no hook blocks in place (O4 = Asynchronous) and
        /// no queue discipline has to see every event (O8 = No).
        dispatcher_handles_last: bool,
    },
}

impl<R: Send + 'static> SubmitMode<R> {
    /// The routing the dispatchers of a server built from `opts` get on a
    /// process that may run on `cpus` CPUs; `processor` is the pool O2 =
    /// Yes built.
    ///
    /// On one CPU no worker runs while the dispatcher does, so a queued
    /// event buys a futex wake and two context switches and no
    /// parallelism. There, where no hook blocks in place (O4 =
    /// Asynchronous) and nothing else needs the queue — the options would
    /// pass `validate` with O2 = No: O8 = No, O9 ≠ Watermark, O5 = Static
    /// — every ready event is the dispatcher's: `Inline`, the O2 = No
    /// path, while the pool stays parked as O5 built it. Anywhere else a
    /// pool is `Pool`, and the dispatcher handles the last event of a
    /// pass where O4 = Asynchronous and O8 = No.
    pub fn choose(
        opts: &ServerOptions,
        cpus: usize,
        processor: Option<&Arc<EventProcessor<Work<R>>>>,
    ) -> Self {
        let asynchronous = opts.completion_mode == CompletionMode::Asynchronous;
        let without_pool = ServerOptions {
            separate_handler_pool: false,
            ..opts.clone()
        };
        let every_event_here = cpus == 1 && asynchronous && without_pool.validate().is_ok();
        match processor {
            Some(processor) if !every_event_here => SubmitMode::Pool {
                processor: Arc::clone(processor),
                dispatcher_handles_last: asynchronous
                    && opts.event_scheduling == EventScheduling::No,
            },
            _ => SubmitMode::Inline,
        }
    }
}

impl<R: Send + 'static> Clone for SubmitMode<R> {
    fn clone(&self) -> Self {
        match self {
            SubmitMode::Inline => SubmitMode::Inline,
            SubmitMode::Pool {
                processor,
                dispatcher_handles_last,
            } => SubmitMode::Pool {
                processor: Arc::clone(processor),
                dispatcher_handles_last: *dispatcher_handles_last,
            },
        }
    }
}

/// How a peer label maps to a scheduling priority (option O8). The paper's
/// Fig. 5 experiment uses the client IP address for exactly this.
pub type PriorityPolicy = Arc<dyn Fn(&str) -> Priority + Send + Sync>;

/// A newly accepted connection being handed to its owning dispatcher.
pub struct NewConn<St> {
    id: ConnId,
    stream: Arc<Mutex<St>>,
    shared: Arc<ConnShared>,
    /// The accept instant: where the idle and header-read deadlines
    /// start.
    accepted_at: Instant,
    /// The O10/O11 accept→header window, opened at accept and carried
    /// across the handoff so it includes the cross-thread latency.
    header: Option<Open>,
}

/// One dispatcher's entry in the [`DispatchNotifier`].
struct NotifyTarget {
    flush_tx: Sender<ConnId>,
    waker: Waker,
    /// True from the [`notify_conn`](DispatchNotifier::notify_conn) that
    /// fired the waker until the dispatcher's next
    /// [`begin_drain`](DispatchNotifier::begin_drain): notifies in between
    /// ride on that one wake-up.
    wake_pending: AtomicBool,
}

/// Routes off-wire events to the dispatcher that owns a connection.
///
/// A work item sends its own replies, but only the owning dispatcher
/// registers interest, reads and closes. So when an item leaves reply
/// bytes unsent — or the connection starts closing — the engine notifies
/// the owning dispatcher here: the connection id goes down that
/// dispatcher's flush channel and its poller is woken. Ownership follows
/// the same partition the acceptor uses: connection `id` belongs to
/// dispatcher `id % n`.
///
/// Reply wake-ups are coalesced: a batch of notifies between two drains
/// of the flush channel costs one waker fire (one eventfd write on the
/// epoll transport), not one per reply. The producer *sends, then swaps
/// the pending flag to true* and fires only on the false→true edge; the
/// dispatcher *swaps the flag to false, then drains*. A notify whose swap
/// reads true was ordered before the clear that precedes some drain, and
/// its send before that, so the drain sees the id; a notify that lands
/// after a drain finds the flag clear and fires. Wakers are sticky (a
/// fire before `Poller::wait` makes that wait return), so no id strands.
///
/// A dispatcher never notifies itself. A work item it ran on its own
/// thread (O2 = No, or the one it keeps of each pass under O2 = Yes) ends
/// with the pass that ran it looking at the connection — what is left in
/// the outbox, the close conditions, the stage windows — so a
/// [`notify_conn`](DispatchNotifier::notify_conn) about a connection the
/// calling thread's own dispatcher owns is dropped: no id on its flush
/// channel, no waker fire.
#[derive(Clone)]
pub struct DispatchNotifier {
    targets: Arc<Vec<NotifyTarget>>,
    /// Where waker fires are counted as `wakes` (unset for bare engines).
    syscalls: Option<Arc<SyscallCounters>>,
}

thread_local! {
    /// The address of the [`NotifyTarget`] whose dispatcher runs on this
    /// thread (compared, never dereferenced); 0 on every other thread.
    static OWN_TARGET: Cell<usize> = const { Cell::new(0) };
}

impl DispatchNotifier {
    /// A notifier wired to every dispatcher's flush channel and waker,
    /// in dispatcher-index order.
    pub fn new(targets: Vec<(Sender<ConnId>, Waker)>) -> Self {
        let targets = targets
            .into_iter()
            .map(|(flush_tx, waker)| NotifyTarget {
                flush_tx,
                waker,
                wake_pending: AtomicBool::new(false),
            })
            .collect();
        Self {
            targets: Arc::new(targets),
            syscalls: None,
        }
    }

    /// A no-op notifier for engines that run without dispatcher loops
    /// (unit tests, direct `Engine` use).
    pub fn disabled() -> Self {
        Self::new(Vec::new())
    }

    /// Count every waker fire in `counters.wakes`: each one reaches the
    /// kernel on the epoll transport, so it belongs in the per-request
    /// syscall budget.
    pub fn count_wakes_in(mut self, counters: Arc<SyscallCounters>) -> Self {
        self.syscalls = Some(counters);
        self
    }

    fn fire(&self, target: &NotifyTarget) {
        if let Some(sys) = &self.syscalls {
            sys.wakes.fetch_add(1, Ordering::Relaxed);
        }
        target.waker.wake();
    }

    /// Tell the dispatcher owning `id` that the connection needs service
    /// (outbox gained bytes, or its close conditions may now hold).
    pub fn notify_conn(&self, id: ConnId) {
        if self.targets.is_empty() {
            return;
        }
        let target = &self.targets[(id as usize) % self.targets.len()];
        if OWN_TARGET.get() == std::ptr::from_ref(target) as usize {
            return;
        }
        let _ = target.flush_tx.send(id);
        if !target.wake_pending.swap(true, Ordering::SeqCst) {
            self.fire(target);
        }
    }

    /// The calling thread runs dispatcher `index`'s passes from here on
    /// (see the type-level note on self-notifies); an index with no
    /// dispatcher makes it no dispatcher's. A stepped server's
    /// dispatchers share one thread, so it adopts before every pass.
    pub(crate) fn adopt_thread(&self, index: usize) {
        let own = self.targets.get(index);
        OWN_TARGET.set(own.map_or(0, |target| std::ptr::from_ref(target) as usize));
    }

    /// Dispatcher `index` is about to drain its flush channel: from here
    /// on a notify must wake it again. Must be called *before* the drain
    /// (see the type-level protocol note).
    pub fn begin_drain(&self, index: usize) {
        if let Some(target) = self.targets.get(index) {
            // A swap, not a store: reading a producer's `true` is what
            // orders that producer's `send` before the drain that follows.
            target.wake_pending.swap(false, Ordering::SeqCst);
        }
    }

    /// Wake one dispatcher without queueing a connection (re-check state:
    /// injected connections, accept gate, stop flag).
    pub fn wake(&self, index: usize) {
        if let Some(target) = self.targets.get(index) {
            self.fire(target);
        }
    }

    /// Wake dispatcher 0, the completion sink: it drains the Proactor
    /// completion channel and owns the (possibly gated) acceptor.
    pub fn wake_completion_sink(&self) {
        self.wake(0);
    }

    /// Wake every dispatcher (shutdown).
    pub fn wake_all(&self) {
        for target in self.targets.iter() {
            self.fire(target);
        }
    }
}

impl std::fmt::Debug for DispatchNotifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DispatchNotifier")
            .field("targets", &self.targets.len())
            .finish()
    }
}

/// One dispatcher thread's configuration and state.
pub struct Dispatcher<C: Codec, S: Service<C>, L: Listener> {
    /// Dispatcher index (0 owns the listener).
    pub index: usize,
    /// Shared engine.
    pub engine: Arc<Engine<C, S>>,
    /// The listening endpoint (dispatcher 0 only).
    pub listener: Option<L>,
    /// This dispatcher's readiness demultiplexer.
    pub poller: L::Poller,
    /// Incoming connections assigned to this dispatcher.
    pub inj_rx: Receiver<NewConn<L::Stream>>,
    /// Handles to every dispatcher's injection queue (used by dispatcher 0).
    pub inj_txs: Vec<Sender<NewConn<L::Stream>>>,
    /// Connections flagged by workers as needing service (reply ready,
    /// close requested). Paired with this dispatcher's waker in the
    /// [`DispatchNotifier`].
    pub flush_rx: Receiver<ConnId>,
    /// Cross-dispatcher notification fabric.
    pub notifier: DispatchNotifier,
    /// Work submission mode.
    pub submit: SubmitMode<C::Response>,
    /// Overload controller (consulted by dispatcher 0 before accepting).
    pub overload: Arc<Mutex<OverloadController>>,
    /// Completion events from the Proactor helper pool (dispatcher 0 only).
    pub completion_rx: Option<Receiver<(CompletionToken, C::Response)>>,
    /// Priority assignment at accept time.
    pub priority_policy: PriorityPolicy,
    /// O7 idle limit.
    pub idle_limit: Option<Duration>,
    /// Per-stage deadlines (header read, write drain).
    pub stage_deadlines: StageDeadlines,
    /// Cooperative shutdown flag.
    pub stop: Arc<AtomicBool>,
    /// Graceful-drain flag: stop accepting, finish in-flight work, close
    /// each connection as it quiesces.
    pub drain: Arc<AtomicBool>,
    /// Connection id allocator shared by all dispatchers.
    pub next_conn_id: Arc<AtomicU64>,
    /// Diagnostics worker table (None when diagnostics are not wired).
    pub worker_table: Option<Arc<crate::diag::WorkerStateTable>>,
    /// Sockets accepted and not yet closed, lingering ones included, on
    /// every dispatcher: what a graceful drain waits for.
    pub(crate) held: Arc<AtomicUsize>,
    /// What one pass leaves for the next.
    pub(crate) st: LoopState<L::Stream, C::Response>,
}

/// A dispatcher's loop state: its connections and their timers, and what
/// one pass leaves for the next.
pub(crate) struct LoopState<St, R> {
    conns: HashMap<ConnId, ConnLocal<St>>,
    /// Every timer of this loop: one wake-up per connection.
    deadlines: Deadlines<ConnId>,
    read_buf: Vec<u8>,
    /// What the last wait reported ready.
    events: Vec<PollEvent>,
    /// Connections (or LISTENER_TOKEN) that hit a fairness cap with work
    /// left: re-serviced next pass without waiting. The mem transport
    /// notifies once per write, so capped intake must be carried forward
    /// explicitly.
    ready_backlog: VecDeque<u64>,
    /// The connections a pass services, in an order its history fixes
    /// (no per-process random hash key): a stepped server serves them in
    /// the same order on every run.
    pend: HashSet<ConnId, BuildHasherDefault<DefaultHasher>>,
    /// The newest ready event of the pass, where the dispatcher handles
    /// the last one itself (`SubmitMode::Pool`).
    kept: Option<(Work<R>, Priority)>,
    /// Connections this thread handled an item for outside the
    /// per-connection loop: they join `pend` for the close tests.
    handled_late: Vec<ConnId>,
    accept_gated: bool,
    listener_armed: bool,
}

impl<St, R> Default for LoopState<St, R> {
    fn default() -> Self {
        Self {
            conns: HashMap::new(),
            deadlines: Deadlines::default(),
            read_buf: vec![0u8; 16 * 1024],
            events: Vec::new(),
            ready_backlog: VecDeque::new(),
            pend: HashSet::default(),
            kept: None,
            handled_late: Vec::new(),
            accept_gated: false,
            listener_armed: false,
        }
    }
}

/// Whether a connection of `conns` still holds the wake-up `(at, id)`.
fn holds<St>(conns: &HashMap<ConnId, ConnLocal<St>>, (at, id): (Instant, ConnId)) -> bool {
    conns.get(&id).is_some_and(|c| c.times.wake_at == Some(at))
}

struct ConnLocal<St> {
    /// The connection's stream under its concrete type, as the poller
    /// wants it; `shared`'s sink is the same `Arc`, type-erased.
    stream: Arc<Mutex<St>>,
    shared: Arc<ConnShared>,
    peer_eof: bool,
    /// Interest currently registered with the poller.
    armed: Interest,
    /// The accept→header window, until the first request bytes close it.
    header: Option<Open>,
    times: ConnTimes,
    /// This pass ran one of the connection's work items on this thread.
    /// Nobody was notified of what the item left behind (see
    /// [`DispatchNotifier`]), so the pass sends it before its close test.
    handled_here: bool,
}

impl<St: StreamIo> ConnLocal<St> {
    /// Read Request: pull available bytes into the inbox. Returns
    /// `(read_any, saturated)` — `saturated` means the fairness cap was
    /// hit without draining the stream, so the caller must re-service
    /// this connection without waiting for another readiness event.
    fn read_into_inbox<C: Codec, S: Service<C>>(
        &mut self,
        engine: &Engine<C, S>,
        buf: &mut [u8],
    ) -> (bool, bool) {
        if self.peer_eof || self.shared.closing.load(Ordering::Relaxed) {
            return (false, false);
        }
        let mut got = false;
        let mut stream = self.stream.lock();
        // Cap per-iteration intake so one chatty peer cannot monopolise the
        // dispatcher.
        for _ in 0..8 {
            engine.syscalls.reads.fetch_add(1, Ordering::Relaxed);
            self.shared.io_reads.fetch_add(1, Ordering::Relaxed);
            match stream.try_read(buf) {
                Ok(ReadOutcome::Data(n)) => {
                    self.shared.inbox.lock().extend_from_slice(&buf[..n]);
                    ServerStats::add(&engine.stats.bytes_read, n as u64);
                    got = true;
                }
                Ok(ReadOutcome::WouldBlock) => return (got, false),
                end => {
                    self.peer_eof = true;
                    self.shared.peer_eof.store(true, Ordering::Relaxed);
                    // A hard read error is a reset: both directions of the
                    // stream are gone, so the sink is dead too.
                    if end.is_err() {
                        self.shared.sink_dead.store(true, Ordering::Relaxed);
                        if !self.shared.closing.swap(true, Ordering::Relaxed) {
                            ServerStats::bump(&engine.stats.connections_reset);
                        }
                    }
                    return (got, false);
                }
            }
        }
        (got, true)
    }
}

/// A connection's deadlines, and the one wake-up it keeps queued for the
/// earliest of them: a deadline that moves later is a field store.
#[derive(Debug, Default)]
pub(crate) struct ConnTimes {
    /// O7: idle from this instant on, unless a read moves it later.
    pub(crate) idle_at: Option<Instant>,
    /// The header-read window: a complete request is due by this instant.
    /// Partial reads leave it alone, so a slow-loris peer exhausts it.
    pub(crate) header_by: Option<Instant>,
    /// The write-drain window: opened when reply bytes are first queued,
    /// not extended by partial writes, closed when the outbox drains.
    pub(crate) drain_by: Option<Instant>,
    /// Set in the lingering-close state: FIN is out, and the read side is
    /// held open, discarding what the peer pipelined past the close,
    /// until its own FIN or this deadline. The application-level close
    /// already happened at linger entry; only the socket teardown waits.
    pub(crate) linger_until: Option<Instant>,
    /// The instant of its one live wake-up; a wake-up popped at any other
    /// instant is stale.
    pub(crate) wake_at: Option<Instant>,
}

impl ConnTimes {
    /// The idle (O7) and header-read windows of a connection accepted `at`.
    pub(crate) fn opened(at: Instant, idle: Option<Duration>, st: StageDeadlines) -> Self {
        ConnTimes {
            idle_at: idle.map(|limit| at + limit),
            header_by: after(at, st.header_read_ms),
            ..ConnTimes::default()
        }
    }

    /// Queue a wake-up for the earliest deadline, unless one no later is
    /// queued: a deadline that moved later is found by the queued wake-up
    /// when it pops, which calls this again (lazy re-arming).
    pub(crate) fn rearm(&mut self, id: ConnId, deadlines: &mut Deadlines<ConnId>) {
        let windows = [self.idle_at, self.header_by, self.drain_by];
        let due = windows.into_iter().flatten().chain(self.linger_until).min();
        if let Some(due) = due.filter(|&due| self.wake_at.is_none_or(|at| due < at)) {
            deadlines.arm(due, id);
            self.wake_at = Some(due);
        }
    }

    /// The stage windows after a close test at `now` found the outbox
    /// `empty` or not: the write-drain window opens while reply bytes are
    /// queued and does not move while they stay queued, so a reader that
    /// takes a byte at a time buys no time; once a reply has `drained`, a
    /// header-read window opens for the next request.
    pub(crate) fn stages(&mut self, st: StageDeadlines, empty: bool, drained: bool, now: Instant) {
        if !empty {
            self.drain_by = self.drain_by.or(after(now, st.write_drain_ms));
        } else if drained {
            (self.header_by, self.drain_by) = (after(now, st.header_read_ms), None);
        } else {
            self.drain_by = None;
        }
    }

    /// The held wake-up came due at `now`: it is spent, and the deadlines
    /// that passed are taken, as `(linger, idle, stage)`. A lingering
    /// connection stays lingering: its teardown reads the state.
    pub(crate) fn take_passed(&mut self, now: Instant) -> (bool, bool, bool) {
        self.wake_at = None;
        let linger = self.linger_until.is_some_and(|d| d <= now);
        let take = |d: &mut Option<Instant>| d.take_if(|d| *d <= now).is_some();
        let idle = take(&mut self.idle_at);
        let stage = take(&mut self.header_by) | take(&mut self.drain_by);
        if stage {
            (self.header_by, self.drain_by) = (None, None);
        }
        (linger, idle, stage)
    }
}

/// `at` plus a stage limit in milliseconds (`None`: the stage has none).
fn after(at: Instant, limit_ms: Option<u64>) -> Option<Instant> {
    limit_ms.map(|ms| at + Duration::from_millis(ms))
}

/// Take a connection's unreported `(reads, writes)` syscall tallies.
fn take_syscall_tallies(conn: &ConnShared, out: &mut Outbox) -> (u64, u64) {
    (
        conn.io_reads.swap(0, Ordering::Relaxed),
        std::mem::take(&mut out.sending.io_writes),
    )
}

/// Report a connection's unreported syscall tallies to the tracer as a
/// delta span (also bumps the connection's running totals).
fn report_syscalls(tracer: &DebugTracer, conn: &ConnShared, out: &mut Outbox) {
    if tracer.is_enabled() {
        let (reads, writes) = take_syscall_tallies(conn, out);
        tracer.syscalls(conn.id, reads, writes);
    }
}

/// How long a gated acceptor or a draining dispatcher sleeps before
/// re-checking when no other event wakes it.
const RECHECK: Duration = Duration::from_millis(10);

/// `accept` failed for want of what only a close frees — descriptors
/// (`EMFILE`, `ENFILE`), socket buffers (`ENOBUFS`) or memory (`ENOMEM`)
/// — and left the connection queued.
fn out_of_resources(e: &std::io::Error) -> bool {
    const ENOMEM: i32 = 12;
    const ENFILE: i32 = 23;
    const EMFILE: i32 = 24;
    const ENOBUFS: i32 = 105;
    matches!(e.raw_os_error(), Some(ENOMEM | ENFILE | EMFILE | ENOBUFS))
}

/// Most outbox segments one gathered write carries. A pipelined batch of
/// sixteen cached replies is 32 segments; the kernel's own limit
/// (`IOV_MAX`) is 1024.
const MAX_GATHER: usize = 64;

/// Where Send Reply accounts for what it does: the engine's counters and
/// the recorders of its write-drain window, borrowed so that [`flush`] is
/// one routine for every engine type and every sending thread.
pub(crate) struct SendAccounts<'a> {
    pub(crate) stats: &'a ServerStats,
    pub(crate) syscalls: &'a SyscallCounters,
    pub(crate) rec: Recorders<'a>,
}

/// Send Reply: move `out` — `conn`'s outbox, locked by the caller — to
/// the connection's sink as gathered writes, up to [`MAX_GATHER`]
/// segments per `try_write_vectored`, so a batch of pipelined replies
/// (heads and bodies alike) leaves in one syscall. The slices borrow the
/// outbox: shared body segments are written straight from their cache
/// `Arc`, never copied. A short count may end inside a segment;
/// `Outbox::advance` resumes from there. Loops until the outbox is empty
/// or the transport pushes back. Returns true if any bytes were written.
///
/// This is the only code that writes replies, and any thread may run it:
/// the work item that queued them (`Engine::send_reply`) or the owning
/// dispatcher. The outbox lock is what makes that safe — it is held (by
/// the caller) across each write and the `advance` that retires it, and
/// the stream is locked inside it (`ConnShared` documents the order). It
/// also keeps the O10/O11 write-drain window — opened when queued bytes
/// are first seen, closed when the outbox is found empty, with the
/// connection's syscall delta reported at the close — so the span tree
/// and histograms do not depend on who sent.
///
/// Without a sink (a connection no dispatcher owns) it does nothing and
/// the replies stay queued.
pub(crate) fn flush(acct: &SendAccounts<'_>, conn: &ConnShared, out: &mut Outbox) -> bool {
    let Some(sink) = conn.sink() else {
        return false;
    };
    let rec = acct.rec;
    // A reply completed after the peer reset may have raced into the
    // outbox; a dead sink never gets another write attempt.
    if conn.sink_dead.load(Ordering::Relaxed) {
        out.clear();
    }
    // The window opens before the first write, so a reply that drains
    // within one call still gets its span.
    if !out.is_empty() && out.sending.drain.is_none() {
        let begin = SpanEvent::StageBegin {
            stage: Stage::WriteDrain,
            seq: SEQ_NONE,
        };
        out.sending.drain = rec.open(conn.id, begin, &mut None);
    }
    let mut wrote_any = false;
    if !out.is_empty() {
        let mut stream = sink.stream.lock();
        while !out.is_empty() {
            let mut slices = [IoSlice::new(&[]); MAX_GATHER];
            let filled = out.fill_slices(&mut slices);
            // Attempts, not successes: a short or would-block write
            // still crossed the syscall boundary.
            acct.syscalls.writes.fetch_add(1, Ordering::Relaxed);
            let attempt = stream.try_write_vectored(&slices[..filled]);
            out.sending.io_writes += 1;
            match attempt {
                Ok(0) => break,
                Ok(n) => {
                    out.advance(n);
                    ServerStats::add(&acct.stats.bytes_sent, n as u64);
                    wrote_any = true;
                }
                Err(_) => {
                    // swap() so a connection that errors on both the
                    // read and write side still counts as one reset.
                    conn.sink_dead.store(true, Ordering::Relaxed);
                    if !conn.closing.swap(true, Ordering::Relaxed) {
                        ServerStats::bump(&acct.stats.connections_reset);
                    }
                    out.clear();
                    break;
                }
            }
        }
    }
    if out.is_empty() {
        out.sending.drained |= wrote_any;
        if let Some(window) = out.sending.drain.take() {
            let drained = End::Done(SpanEvent::WriteDrain);
            rec.close(conn.id, Some(window), drained, &mut None);
            // A drained reply bounds one request's transport work:
            // report the syscall delta here so timelines attribute
            // reads/writes per request, not only per connection.
            report_syscalls(rec.tracer, conn, out);
        }
    }
    wrote_any
}

impl<C: Codec, S: Service<C>, L: Listener> Dispatcher<C, S, L> {
    /// The dispatch loop: a [`pass`](Self::pass) over what is ready, then
    /// a block in the poller until some owned connection (or the
    /// listener, or a waker) is ready or the pass's timeout runs out.
    /// Runs until the stop flag is raised, then closes every connection
    /// it owns.
    pub fn run(mut self) {
        self.attach();
        while !self.stop.load(Ordering::Relaxed) {
            let sleep = self.pass(WALL);
            self.wait(sleep);
        }
        self.finish();
    }

    /// Close every connection this dispatcher holds and leave the worker
    /// state table: the end of a dispatcher, threaded or stepped.
    pub(crate) fn finish(&mut self) {
        for (_, mut c) in std::mem::take(&mut self.st.conns) {
            self.finalize(&mut c);
        }
        crate::diag::detach_worker();
    }

    /// Make the calling thread this dispatcher's: publish it in the
    /// worker state table (it handles events itself, and its liveness
    /// matters in every mode; a no-op when no table is wired), claim its
    /// notifier target, and watch the listener.
    pub(crate) fn attach(&mut self) {
        if let Some(table) = &self.worker_table {
            crate::diag::attach_worker(table, crate::diag::WorkerRole::Dispatcher);
        }
        self.notifier.adopt_thread(self.index);
        if let Some(listener) = &self.listener {
            self.st.listener_armed = listener.register_listener(&mut self.poller).is_ok();
        }
    }

    /// Block until readiness, a waker or `timeout`: one poll, one wake-up.
    /// Returns whether the poller reported a ready source.
    pub(crate) fn wait(&mut self, timeout: Option<Duration>) -> bool {
        self.engine.syscalls.polls.fetch_add(1, Ordering::Relaxed);
        if self.poller.wait(&mut self.st.events, timeout).is_err() {
            self.st.events.clear();
        }
        ServerStats::bump(&self.engine.stats.dispatcher_wakeups);
        !self.st.events.is_empty()
    }

    /// One pass over what the last [`wait`](Self::wait) reported and what
    /// the last pass left. It never blocks, and it reads time only from
    /// `clock`: at most once before the handlers it runs itself (5b) and
    /// once after them. Returns how long the loop may block in the
    /// poller: zero with a backlog, else until the first deadline, at
    /// most a [`RECHECK`] while the acceptor is gated or the dispatcher
    /// drains.
    pub(crate) fn pass(&mut self, mut clock: impl FnMut() -> Instant) -> Option<Duration> {
        let draining = self.drain.load(Ordering::Relaxed);
        if draining && self.st.listener_armed {
            if let Some(listener) = &self.listener {
                let _ = listener.deregister_listener(&mut self.poller);
            }
            self.st.listener_armed = false;
        }
        let mut now = lazily(&mut clock);

        // 1. Gather this pass's work set: carried-over backlog, poller
        //    events, and worker notifications.
        let st = &mut self.st;
        st.pend.clear();
        let mut accept_signal = false;
        let polled = st.events.drain(..).map(|ev| ev.token);
        for token in st.ready_backlog.drain(..).chain(polled) {
            if token == LISTENER_TOKEN {
                accept_signal = true;
            } else {
                st.pend.insert(token);
            }
        }
        self.notifier.begin_drain(self.index);
        self.st.pend.extend(self.flush_rx.try_iter());

        // 2. Adopt connections assigned to this dispatcher.
        while let Ok(nc) = self.inj_rx.try_recv() {
            self.adopt(nc);
        }

        // 3. Accept new connections (dispatcher 0) when the listener
        //    reported readiness or a pause is being re-checked; a
        //    draining dispatcher stops accepting entirely. At the
        //    fairness cap, with connections possibly still queued, the
        //    listener is revisited without blocking.
        let accepting = !draining && (accept_signal || self.st.accept_gated);
        if accepting && self.listener.is_some() && self.accept_pending(&mut now) {
            self.st.ready_backlog.push_back(LISTENER_TOKEN);
        }

        // 4. Route Proactor completions (dispatcher 0).
        let completion = |d: &Self| d.completion_rx.as_ref()?.try_recv().ok();
        while let Some((token, resp)) = completion(self) {
            let conn = self.engine.conn(token.conn);
            let prio = conn.map(|c| c.priority).unwrap_or_default();
            if let Some(work) = self.route(Work::Completion(token, resp), prio) {
                self.handle_here(work);
            }
        }

        // 5. Per-connection I/O on ready connections. While draining
        //    every connection is revisited so close conditions are
        //    evaluated as in-flight work completes.
        if draining {
            self.st.pend.extend(self.st.conns.keys().copied());
        }
        let mut pend = std::mem::take(&mut self.st.pend);
        let mut to_remove = Vec::new();
        for &id in &pend {
            if self.service(id, &mut now) {
                to_remove.push(id);
            }
        }

        // 5b. The event this pass kept is the dispatcher's own to handle:
        //     everything else ready is queued and the workers woken, and
        //     there is nothing left to do here but sleep.
        if let Some((work, _)) = self.st.kept.take() {
            self.handle_here(work);
        }
        // A completion handled on this thread leaves its connection to
        // this pass, like any other item (no Read Request though).
        pend.extend(self.st.handled_late.drain(..));
        // Handlers may have run inline above: time is read afresh.
        drop(now);
        let mut now = lazily(&mut clock);

        // 5c. Close tests and poller interest for the same connections,
        //     now that their work items are queued or done.
        for &id in &pend {
            if self.settle(id, draining, &mut now) {
                to_remove.push(id);
            }
        }
        self.st.pend = pend;
        for id in to_remove {
            if let Some(mut c) = self.st.conns.remove(&id) {
                self.finalize(&mut c);
            }
        }

        // 6. Time: one sweep over every wake-up due, in deadline order.
        //    A wake-up its owner no longer holds (the connection closed,
        //    or queued an earlier one since) is dropped unread, so it
        //    costs no wake-up.
        let sleep = Deadlines::sweep(
            self,
            |d| &mut d.st.deadlines,
            &mut now,
            |d, wake| holds(&d.st.conns, wake),
            |d, id, now| d.expire(id, now),
        );
        let st = &mut self.st;
        st.deadlines
            .prune(st.conns.len(), |&wake| holds(&st.conns, wake));

        // 7. The poll timeout: none needed with a backlog; else the
        //    queue's head, and a RECHECK bounds it while gated or
        //    draining.
        if !st.ready_backlog.is_empty() {
            return Some(Duration::ZERO);
        }
        let recheck = st.accept_gated || (draining && !st.conns.is_empty());
        sleep.into_iter().chain(recheck.then_some(RECHECK)).min()
    }

    /// Step 5 for one ready connection: Send Reply then Read Request, and
    /// what was read becomes a work item. Returns true when the
    /// connection is done and is to be closed.
    fn service(&mut self, id: ConnId, now: &mut impl FnMut() -> Instant) -> bool {
        let Some(c) = self.st.conns.get_mut(&id) else {
            return false; // a stale event for a connection already closed
        };
        let engine = &self.engine;
        // A lingering close only drains: every response byte is on the
        // wire and FIN is sent; keep reading and discarding until the
        // peer answers with its own FIN (or errors), then tear the
        // socket down.
        if c.times.linger_until.is_some() {
            let mut stream = c.stream.lock();
            for _ in 0..8 {
                engine.syscalls.reads.fetch_add(1, Ordering::Relaxed);
                c.shared.io_reads.fetch_add(1, Ordering::Relaxed);
                match stream.try_read(&mut self.st.read_buf) {
                    Ok(ReadOutcome::Data(n)) => {
                        // Discarded, but read off the transport — keep
                        // the byte accounting aligned with the trace.
                        ServerStats::add(&engine.stats.bytes_read, n as u64);
                    }
                    Ok(ReadOutcome::WouldBlock) => return false,
                    Ok(ReadOutcome::Closed) | Err(_) => return true,
                }
            }
            // Fairness cap: revisit without waiting.
            self.st.ready_backlog.push_back(id);
            return false;
        }
        // Send Reply for whatever no work item sent: output past the
        // worker's bound, bytes the transport refused earlier (writable
        // interest brought us back), a greeting.
        flush(
            &engine.send_accounts(),
            &c.shared,
            &mut c.shared.outbox.lock(),
        );
        let was_eof = c.peer_eof;
        let (read, saturated) = c.read_into_inbox(engine, &mut self.st.read_buf);
        if saturated {
            self.st.ready_backlog.push_back(id);
        }
        if read {
            // First request bytes close the accept→header window.
            let rec = engine.recorders();
            rec.close(
                id,
                c.header.take(),
                End::Done(SpanEvent::HeaderRead),
                &mut None,
            );
            // A touch moves the idle deadline later: its queued wake-up
            // finds the new one when it pops.
            if let Some(limit) = self.idle_limit {
                c.times.idle_at = Some(now() + limit);
            }
        }
        // Peer half-closed with a partial request buffered and no fresh
        // bytes to trigger a decode pass: one final pass lets the decode
        // loop observe `peer_eof` and reap the fragment that can never
        // complete.
        let stranded = !read && c.peer_eof && !was_eof && !c.shared.inbox.lock().is_empty();
        if read || stranded {
            let prio = c.shared.priority;
            if let Some(work) = self.route(Work::Process(id), prio) {
                self.handle_here(work);
            }
        }
        false
    }

    /// Step 5c for one serviced connection: its close test, then its
    /// stage windows and poller interest. Returns true when the close
    /// test found it done and is to be closed hard.
    fn settle(&mut self, id: ConnId, draining: bool, now: &mut impl FnMut() -> Instant) -> bool {
        let c = match self.st.conns.get_mut(&id) {
            Some(c) if c.times.linger_until.is_none() => c,
            _ => return false,
        };
        let closing = c.shared.closing.load(Ordering::Relaxed);
        // Sampling order matters: `responses_pending` (the send lock)
        // before the outbox. `complete` moves ready replies into the
        // outbox while holding the send lock, so a completion racing this
        // close test is either still pending (sampled first → close
        // deferred one pass) or its bytes are already visible to the
        // outbox sample below. Outbox-first sampling lost that race: both
        // looked clear while the final response landed between the two
        // samples, and the close discarded it.
        let pending = c.shared.responses_pending();
        // `drained`: some send emptied the outbox since the last pass — a
        // flush of this pass or a work item's own.
        let (outbox_empty, drained) = {
            let mut out = c.shared.outbox.lock();
            // What an item handled here left unsent (output past the work
            // item's bound) is this thread's to send, and no notify will
            // bring it back for it.
            if std::mem::take(&mut c.handled_here) && !out.is_empty() {
                flush(&self.engine.send_accounts(), &c.shared, &mut out);
            }
            (out.is_empty(), std::mem::take(&mut out.sending.drained))
        };
        // After peer EOF, a non-empty inbox may still hold a complete
        // request a worker has not decoded yet, so the connection is kept
        // until the inbox drains (the decode loop reaps fragments that
        // can never complete — see `peer_eof` in `ConnShared`). A
        // draining dispatcher applies the same quiesce test to every
        // connection, EOF or not.
        if (closing && outbox_empty && !pending)
            || ((c.peer_eof || draining)
                && outbox_empty
                && !pending
                && c.shared.inbox.lock().is_empty())
        {
            if c.peer_eof || c.shared.sink_dead.load(Ordering::Relaxed) {
                // Hard close: the peer's byte stream is fully consumed
                // (FIN seen) or the transport already failed — no unread
                // bytes are left for a close to RST-discard.
                return true;
            } else if !c.shared.outbox.lock().is_empty() {
                // A reply slipped into the outbox since the sample above:
                // it flushes first, and the FIN waits a pass
                // (`shutdown_write` does not flush).
                self.st.ready_backlog.push_back(id);
            } else {
                self.linger(id, now());
            }
            return false;
        }
        // Stage deadlines. A reply drained — sent by this pass or by a
        // work item, which then woke us for exactly this.
        if self.stage_deadlines.any() {
            c.times
                .stages(self.stage_deadlines, outbox_empty, drained, now());
            c.times.rearm(id, &mut self.st.deadlines);
        }
        // Re-arm interest: stop read-polling a half-closed or closing
        // peer (level-triggered EOF would re-report forever), poll for
        // writability only while reply bytes are actually queued.
        let want = Interest {
            readable: !(c.peer_eof || closing),
            writable: !outbox_empty,
        };
        if want != c.armed {
            let _ = self.poller.reregister(id, &c.stream.lock(), want);
            c.armed = want;
        }
        false
    }

    /// A server-initiated close with a live peer, at `now`: the lingering
    /// close. The outbox is drained (`shutdown_write` does not flush);
    /// FIN goes out now, and the read side stays open so bytes the peer
    /// pipelined past the close-triggering request are consumed instead
    /// of provoking an RST that can discard the final response still in
    /// flight.
    fn linger(&mut self, id: ConnId, now: Instant) {
        let mut c = self.st.conns.remove(&id).expect("a settled connection");
        c.stream.lock().shutdown_write();
        // The linger deadline replaces every other one.
        let t = &mut c.times;
        (t.idle_at, t.header_by, t.drain_by) = (None, None, None);
        t.linger_until = Some(now + LINGER);
        t.rearm(id, &mut self.st.deadlines);
        ServerStats::bump(&self.engine.stats.connections_lingered);
        // The application-level close happens now — the slot stops
        // counting against overload admission and the service sees
        // `on_close`; only the socket teardown is deferred.
        self.release(&mut c);
        // Keep reading (discard-only) and drain anything already buffered
        // on the next pass.
        if c.armed != Interest::READABLE {
            let _ = self
                .poller
                .reregister(id, &c.stream.lock(), Interest::READABLE);
            c.armed = Interest::READABLE;
        }
        self.st.ready_backlog.push_back(id);
        self.st.conns.insert(id, c);
    }

    /// Accept up to a fairness cap of pending connections, each at the
    /// pass's reading of `now`. Returns true when the cap was reached
    /// with connections possibly still queued. While the overload
    /// controller refuses (O9), or `accept` fails for want of a resource
    /// ([`out_of_resources`]), the acceptor is gated: the listening
    /// endpoint is deregistered from the poller — a level-triggered
    /// backlog would otherwise wake the loop continuously — and re-armed
    /// at a re-check that finds the controller willing.
    fn accept_pending(&mut self, now: &mut impl FnMut() -> Instant) -> bool {
        for _ in 0..64 {
            // The open count is sampled under the controller's lock: a
            // close that frees a slot either precedes the sample or finds
            // the gate already shut and wakes us (`release`).
            let admitted = {
                let mut overload = self.overload.lock();
                let open = self.engine.registry.read().len();
                overload.may_accept(open)
            };
            if !admitted {
                ServerStats::bump(&self.engine.stats.accepts_deferred);
                return self.gate_acceptor();
            }
            if !self.st.listener_armed {
                if let Some(listener) = &self.listener {
                    let _ = listener.register_listener(&mut self.poller);
                }
                self.st.listener_armed = true;
            }
            self.st.accept_gated = false;
            let listener = self.listener.as_mut().expect("only dispatcher 0 accepts");
            self.engine.syscalls.accepts.fetch_add(1, Ordering::Relaxed);
            match listener.try_accept() {
                Ok(Some(stream)) => self.register(stream, now()),
                Ok(None) => return false,
                Err(e) => {
                    // One failed accept must not wedge the acceptor: count
                    // it and keep draining the backlog (the fairness cap
                    // bounds how many errors one pass absorbs) — unless
                    // the connection is still queued behind a resource
                    // only a close frees, which a retry now would spin on.
                    ServerStats::bump(&self.engine.stats.accept_errors);
                    if self.engine.tracer.is_enabled() {
                        self.engine.tracer.record(
                            EventKind::Accepted,
                            None,
                            format!("accept error: {e}"),
                        );
                    }
                    if out_of_resources(&e) {
                        return self.gate_acceptor();
                    }
                }
            }
        }
        true
    }

    /// Stop watching the listener until the next re-check (at most
    /// [`RECHECK`] away). Returns false: nothing is left for this pass.
    fn gate_acceptor(&mut self) -> bool {
        if self.st.listener_armed {
            if let Some(listener) = &self.listener {
                let _ = listener.deregister_listener(&mut self.poller);
            }
            self.st.listener_armed = false;
        }
        self.st.accept_gated = true;
        false
    }

    /// Set up a connection accepted at `accepted_at` and hand it to the
    /// dispatcher that owns it.
    fn register(&mut self, stream: L::Stream, accepted_at: Instant) {
        self.held.fetch_add(1, Ordering::Relaxed);
        let id = self.next_conn_id.fetch_add(1, Ordering::Relaxed);
        let peer = stream.peer_label();
        let priority = (self.priority_policy)(&peer);
        let shared = ConnShared::new(id, peer, priority);
        // Send Reply's end of the stream, attached before any request can
        // be read: the work item that answers it may be the sender.
        let stream = Arc::new(Mutex::new(stream));
        shared.attach_sink(
            Arc::clone(&stream) as Arc<Mutex<dyn StreamIo>>,
            self.stage_deadlines.any(),
        );
        self.engine.registry.write().insert(id, Arc::clone(&shared));
        ServerStats::bump(&self.engine.stats.connections_accepted);
        // Allocate the connection's process-unique trace id and record
        // its peer label for cross-tier correlation; the Accept span
        // is the accept→header window's opening edge.
        self.engine.tracer.conn_open(id, &shared.peer);
        let rec = self.engine.recorders();
        let header = rec.open(id, SpanEvent::Accept, &mut None);

        // Server-speaks-first greeting (e.g. FTP 220).
        if let Some(greeting) = self.engine.service.on_open(shared.ctx()) {
            let mut out = crate::pipeline::EncodedReply::new();
            if self.engine.codec.encode_reply(&greeting, &mut out).is_ok() {
                shared.outbox.lock().push_reply(out);
            }
        }

        let nc = NewConn {
            id,
            stream,
            shared,
            accepted_at,
            header,
        };
        let target = (id as usize) % self.inj_txs.len();
        if target == self.index {
            self.adopt(nc);
        } else {
            let _ = self.inj_txs[target].send(nc);
            self.notifier.wake(target);
        }
    }

    /// Take over an accepted connection: register it with the poller,
    /// open its idle (O7) and header-read windows from its accept
    /// instant, and service it this pass (flush a greeting, read early
    /// data). One the poller refuses (`ENOSPC`, `ENOMEM`) would be served
    /// this pass and never polled again: it is counted as an accept error
    /// and closed at once.
    fn adopt(&mut self, nc: NewConn<L::Stream>) {
        let armed = Interest {
            readable: true,
            writable: !nc.shared.outbox.lock().is_empty(),
        };
        let registered = self.poller.register(nc.id, &nc.stream.lock(), armed);
        let mut c = ConnLocal {
            stream: nc.stream,
            shared: nc.shared,
            peer_eof: false,
            armed,
            header: nc.header,
            times: ConnTimes::opened(nc.accepted_at, self.idle_limit, self.stage_deadlines),
            handled_here: false,
        };
        if let Err(e) = registered {
            ServerStats::bump(&self.engine.stats.accept_errors);
            if self.engine.tracer.is_enabled() {
                let why = format!("poller refused the connection: {e}");
                self.engine
                    .tracer
                    .record(EventKind::Accepted, Some(nc.id), why);
            }
            self.finalize(&mut c);
            return;
        }
        c.times.rearm(nc.id, &mut self.st.deadlines);
        self.st.conns.insert(nc.id, c);
        self.st.pend.insert(nc.id);
    }

    /// A connection's wake-up came due at `now`. Each deadline that has
    /// passed is acted on — an idle (O7) or stage expiry marks the
    /// connection closing and reaps it on the next (immediate) pass, an
    /// expired linger hard-closes it — and the wake-up is queued again
    /// for whatever deadline is left.
    fn expire(&mut self, id: ConnId, now: Instant) {
        let c = self.st.conns.get_mut(&id).expect("held");
        let (linger, idle, stage) = c.times.take_passed(now);
        let tracer = &self.engine.tracer;
        if linger {
            // The peer had a full linger window to consume the final
            // response; its unread bytes (if any) are forfeit now.
            let mut c = self.st.conns.remove(&id).expect("present");
            ServerStats::bump(&self.engine.stats.linger_reaped);
            tracer.record(EventKind::Timer, Some(id), "linger deadline");
            return self.finalize(&mut c);
        }
        if idle {
            c.shared.closing.store(true, Ordering::Relaxed);
            ServerStats::bump(&self.engine.stats.connections_idle_closed);
            tracer.record(EventKind::Timer, Some(id), "idle shutdown");
            self.st.ready_backlog.push_back(id);
        }
        // A slow-loris peer or a stalled reader: its outbox is dropped —
        // the peer has demonstrably stopped consuming.
        if stage {
            c.shared.closing.store(true, Ordering::Relaxed);
            c.shared.outbox.lock().clear();
            ServerStats::bump(&self.engine.stats.connections_timed_out);
            tracer.record(EventKind::Timer, Some(id), "stage deadline exceeded");
            self.st.ready_backlog.push_back(id);
        }
        c.times.rearm(id, &mut self.st.deadlines);
    }

    /// Decide who handles a ready event. Gives it back when that is this
    /// thread, now (O2 = No). Otherwise it is the Event Processor's —
    /// except that where the dispatcher handles the last event of a pass
    /// the newest one waits in `kept`, and the one it displaces is queued:
    /// every event but the last reaches the workers before the dispatcher
    /// starts on its own.
    fn route(&mut self, work: Work<C::Response>, prio: Priority) -> Option<Work<C::Response>> {
        match &self.submit {
            SubmitMode::Inline => Some(work),
            SubmitMode::Pool {
                processor,
                dispatcher_handles_last,
            } => {
                let queued = if *dispatcher_handles_last {
                    self.st.kept.replace((work, prio))
                } else {
                    Some((work, prio))
                };
                if let Some((work, prio)) = queued {
                    processor.submit(work, prio);
                }
                None
            }
        }
    }

    /// Handle `work` on this thread: the same `Engine::handle_work` a
    /// worker calls. The connection, if it is this dispatcher's, is
    /// marked for the pass's close tests to look at.
    fn handle_here(&mut self, work: Work<C::Response>) {
        let id = work.conn();
        if let Some(c) = self.st.conns.get_mut(&id) {
            c.handled_here = true;
            self.st.handled_late.push(id);
        }
        self.engine.handle_work(work);
    }

    fn finalize(&mut self, c: &mut ConnLocal<L::Stream>) {
        let id = c.shared.id;
        {
            // A work item still holding `shared` keeps the stream alive
            // past this point, so the registration goes now, explicitly.
            let mut stream = c.stream.lock();
            let _ = self.poller.deregister(id, &stream);
            stream.shutdown();
        }
        self.held.fetch_sub(1, Ordering::Relaxed);
        // A lingering close already released the application-level state
        // at linger entry; only the socket teardown remained. Lingering
        // reads accumulated since then still get attributed.
        if c.times.linger_until.is_none() {
            self.release(c);
        } else {
            // The Close span already went out at linger entry: fold the
            // lingered reads into the connection's totals without a
            // post-Close span record.
            let (reads, writes) = take_syscall_tallies(&c.shared, &mut c.shared.outbox.lock());
            self.engine.tracer.syscalls_quiet(id, reads, writes);
        }
    }

    /// The application-visible half of closing a connection: free the
    /// registry slot (overload admission), run the close hook, count and
    /// stamp the close. Runs at linger entry for a lingering close, at
    /// `finalize` otherwise — exactly once either way.
    fn release(&mut self, c: &mut ConnLocal<L::Stream>) {
        let id = c.shared.id;
        self.engine.registry.write().remove(&id);
        ServerStats::bump(&self.engine.stats.connections_closed);
        self.engine.service.on_close(c.shared.ctx());
        if self.engine.tracer.is_enabled() {
            // Close any stage window the connection dies inside of, so
            // timelines stay balanced B/E pairs on every path.
            let (rec, mut at) = (self.engine.recorders(), None);
            let mut out = c.shared.outbox.lock();
            rec.close(id, c.header.take(), End::Cut, &mut at);
            rec.close(id, out.sending.drain.take(), End::Cut, &mut at);
            report_syscalls(&self.engine.tracer, &c.shared, &mut out);
        }
        self.engine.tracer.span(SpanEvent::Close, id);
        // The freed slot matters to the acceptor only while it is gated
        // (O9 refused the last accept): then dispatcher 0 re-checks the
        // controller now instead of on its next re-check tick. When this
        // *is* dispatcher 0 it revisits the listener on its next pass,
        // with no trip through its own waker.
        if self.overload.lock().is_gating() {
            if self.index == 0 {
                self.st.ready_backlog.push_back(LISTENER_TOKEN);
            } else {
                self.notifier.wake_completion_sink();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::pipeline::{Action, ConnCtx, EncodedReply, RawCodec, WORKER_SEND_MAX};
    use crate::transport::mem::{MemListener, MemStream};
    use bytes::BytesMut;
    use propcheck::{check, Gen};
    use std::sync::Barrier;

    /// A sink that follows a script: each gathered write consumes the
    /// next entry — `0` is a would-block, `k` accepts at most `k` bytes —
    /// and everything is accepted once the script runs out.
    struct ScriptedSink {
        script: VecDeque<usize>,
        wire: Vec<u8>,
        calls: u64,
        widest_gather: usize,
    }

    impl ScriptedSink {
        fn following(script: Vec<usize>) -> Self {
            Self {
                script: script.into(),
                wire: Vec::new(),
                calls: 0,
                widest_gather: 0,
            }
        }
    }

    impl StreamIo for ScriptedSink {
        fn try_read(&mut self, _buf: &mut [u8]) -> std::io::Result<ReadOutcome> {
            Ok(ReadOutcome::WouldBlock)
        }

        fn try_write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.try_write_vectored(&[IoSlice::new(data)])
        }

        fn try_write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            self.widest_gather = self.widest_gather.max(bufs.len());
            let mut room = self.script.pop_front().unwrap_or(usize::MAX);
            let before = self.wire.len();
            for b in bufs {
                let take = b.len().min(room);
                self.wire.extend_from_slice(&b[..take]);
                room -= take;
            }
            Ok(self.wire.len() - before)
        }

        fn peer_label(&self) -> String {
            "scripted".into()
        }

        fn shutdown(&mut self) {}

        fn shutdown_write(&mut self) {}
    }

    /// A connection over `sink` as the dispatcher sets one up at accept,
    /// and the sink under its own type for the test to inspect.
    fn conn_over(sink: ScriptedSink) -> (Arc<ConnShared>, Arc<Mutex<ScriptedSink>>) {
        let stream = Arc::new(Mutex::new(sink));
        let shared = ConnShared::new(1, "scripted".into(), Priority::HIGHEST);
        shared.attach_sink(Arc::clone(&stream) as Arc<Mutex<dyn StreamIo>>, false);
        (shared, stream)
    }

    /// Everything [`flush`] accounts into, owned.
    struct Books {
        stats: ServerStats,
        sys: SyscallCounters,
        metrics: Arc<MetricsRegistry>,
        tracer: DebugTracer,
    }

    impl Books {
        fn new() -> Self {
            Self {
                stats: ServerStats::default(),
                sys: SyscallCounters::default(),
                metrics: MetricsRegistry::disabled(),
                tracer: DebugTracer::disabled(),
            }
        }

        /// One Send Reply over `conn`, as any sender makes it.
        fn flush(&self, conn: &ConnShared) -> bool {
            let rec = Recorders {
                metrics: &self.metrics,
                tracer: &self.tracer,
            };
            let acct = SendAccounts {
                stats: &self.stats,
                syscalls: &self.sys,
                rec,
            };
            flush(&acct, conn, &mut conn.outbox.lock())
        }
    }

    /// Whatever the reply segmentation (owned heads, shared bodies,
    /// more segments than one gather carries) and however the sink
    /// cuts or refuses writes, the gathered flush puts exactly the
    /// outbox's bytes on the wire, in order, and accounts for them.
    #[test]
    fn gathered_flush_wire_image_is_the_outbox() {
        check(96, |g| {
            let replies = g.vec(0..60, |g| {
                g.vec(1..4, |g| (g.bool(), g.vec(0..48, Gen::any::<u8>)))
            });
            // A refusal, or a write cut at up to 199 bytes.
            let script = g.vec(0..40, |g| if g.bool() { 0 } else { g.range(1usize..200) });
            let refusals = script.iter().filter(|&&k| k == 0).count();
            let (shared, stream) = conn_over(ScriptedSink::following(script));
            for reply in replies {
                let mut encoded = EncodedReply::new();
                for (shared, bytes) in reply {
                    if shared {
                        encoded.push_shared(Arc::new(bytes));
                    } else {
                        encoded.push_bytes(BytesMut::from(&bytes[..]));
                    }
                }
                shared.outbox.lock().push_reply(encoded);
            }
            let expected = shared.outbox.lock().to_vec();
            let books = Books::new();

            // One flush per service pass; a pass ends early only on a
            // scripted refusal, so the passes are bounded by them.
            let mut passes = 0;
            while !shared.outbox.lock().is_empty() {
                let wrote = books.flush(&shared);
                passes += 1;
                assert!(passes <= refusals + 1, "flush stalled without a refusal");
                assert!(wrote || passes <= refusals);
            }
            assert!(!books.flush(&shared), "an empty outbox writes nothing");

            let stream = stream.lock();
            assert_eq!(&stream.wire, &expected);
            assert_eq!(books.stats.snapshot().bytes_sent, expected.len() as u64);
            assert_eq!(books.sys.snapshot().writes, stream.calls);
            assert_eq!(shared.outbox.lock().sending.io_writes, stream.calls);
            assert!(stream.widest_gather <= MAX_GATHER);
        });
    }

    #[test]
    fn flush_gathers_a_pipelined_batch_into_one_write() {
        let (shared, stream) = conn_over(ScriptedSink::following(Vec::new()));
        let body = Arc::new(vec![7u8; 100]);
        for _ in 0..16 {
            let mut reply = EncodedReply::new();
            reply.push_bytes(BytesMut::from(&b"head"[..]));
            reply.push_shared(Arc::clone(&body));
            shared.outbox.lock().push_reply(reply);
        }
        assert!(Books::new().flush(&shared));
        let stream = stream.lock();
        assert_eq!(stream.calls, 1, "32 segments fit one gather");
        assert_eq!(stream.widest_gather, 32);
        assert_eq!(stream.wire.len(), 16 * 104);
        // Queued by reference and sent by reference: only this test and
        // nobody's copy holds the body now.
        assert_eq!(Arc::strong_count(&body), 1);
    }

    /// Two kinds of sender on one connection — four "workers" completing
    /// sequence numbers out of order and sending after each, and a
    /// "dispatcher" sending whatever it finds — over a sink that cuts
    /// and refuses writes: the wire is the replies in request order,
    /// each byte once.
    #[test]
    fn concurrent_senders_keep_request_order() {
        const WORKERS: u64 = 4;
        const SEQS: u64 = 1_200;
        // Short counts and refusals for the first few hundred writes.
        let script = (0..600).map(|i| [7, 0, 300, 1, 0, 64][i % 6]).collect();
        let (shared, stream) = conn_over(ScriptedSink::following(script));
        let reply = |seq: u64| {
            let mut r = EncodedReply::new();
            r.push_bytes(BytesMut::from(format!("<{seq}:").as_bytes()));
            r.push_shared(Arc::new(vec![b'a' + (seq % 26) as u8; (seq % 90) as usize]));
            r.push_bytes(BytesMut::from(&b">"[..]));
            r
        };
        let mut expected = Outbox::new();
        for seq in 0..SEQS {
            assert_eq!(shared.assign_seq(), seq);
            expected.push_reply(reply(seq));
        }
        let expected = expected.to_vec();

        let books = Books::new();
        let start = Barrier::new(WORKERS as usize + 1);
        let working = AtomicUsize::new(WORKERS as usize);
        std::thread::scope(|s| {
            for w in 0..WORKERS {
                let (shared, books, start, working) = (&shared, &books, &start, &working);
                s.spawn(move || {
                    start.wait();
                    // Each worker owns every fourth seq and completes its
                    // share in descending blocks of ten: completions reach
                    // `ready` out of order within and across workers.
                    let mine: Vec<u64> = (0..SEQS).filter(|seq| seq % WORKERS == w).collect();
                    for block in mine.chunks(10) {
                        for &seq in block.iter().rev() {
                            shared.complete([(seq, Some(reply(seq)))]);
                            books.flush(shared);
                        }
                    }
                    working.fetch_sub(1, Ordering::SeqCst);
                });
            }
            start.wait();
            // The dispatcher: keeps sending until the workers are done and
            // nothing is left (it also retries what the sink refused).
            while working.load(Ordering::SeqCst) > 0 || !shared.outbox.lock().is_empty() {
                books.flush(&shared);
                std::thread::yield_now();
            }
        });

        assert!(!shared.responses_pending());
        let stream = stream.lock();
        assert!(
            stream.wire == expected,
            "wire image diverged from request order"
        );
        assert_eq!(books.stats.snapshot().bytes_sent, expected.len() as u64);
        assert_eq!(books.sys.snapshot().writes, stream.calls);
    }

    /// Answers each request with as many `x` bytes as the request names.
    struct Sized;

    impl Service<RawCodec> for Sized {
        fn handle(&self, _ctx: &ConnCtx, req: Vec<u8>) -> Action<Vec<u8>> {
            let n: usize = String::from_utf8(req).unwrap().parse().unwrap();
            Action::Reply(vec![b'x'; n])
        }
    }

    /// An engine serving one connection over `sink`, as `serve` and an
    /// accept would have set them up, with a counting notifier.
    #[allow(clippy::type_complexity)]
    fn engine_over(
        sink: ScriptedSink,
    ) -> (
        Engine<RawCodec, Sized>,
        Arc<ConnShared>,
        Arc<Mutex<ScriptedSink>>,
        Receiver<ConnId>,
        Arc<AtomicUsize>,
    ) {
        let (notifier, flush_rx, fires) = counting_notifier();
        let (shared, stream) = conn_over(sink);
        let engine = Engine {
            codec: Arc::new(RawCodec),
            service: Arc::new(Sized),
            registry: Arc::new(parking_lot::RwLock::new(HashMap::new())),
            stats: ServerStats::new_shared(),
            metrics: MetricsRegistry::disabled(),
            tracer: DebugTracer::disabled(),
            logger: None,
            helper: None,
            completion_tx: None,
            notifier,
            syscalls: SyscallCounters::new_shared(),
        };
        engine
            .registry
            .write()
            .insert(shared.id, Arc::clone(&shared));
        (engine, shared, stream, flush_rx, fires)
    }

    fn ask(engine: &Engine<RawCodec, Sized>, conn: &ConnShared, reply_len: usize) {
        conn.inbox
            .lock()
            .extend_from_slice(reply_len.to_string().as_bytes());
        engine.handle_work(Work::Process(conn.id));
    }

    #[test]
    fn a_work_item_sends_its_reply_and_wakes_nobody() {
        let (engine, shared, stream, flush_rx, fires) =
            engine_over(ScriptedSink::following(Vec::new()));
        ask(&engine, &shared, WORKER_SEND_MAX);
        assert_eq!(stream.lock().wire.len(), WORKER_SEND_MAX);
        assert!(shared.outbox.lock().is_empty());
        assert_eq!(fires.load(Ordering::SeqCst), 0);
        assert!(flush_rx.try_recv().is_err());
        assert_eq!(engine.syscalls.snapshot().writes, 1);
    }

    #[test]
    fn a_refused_tail_is_handed_to_the_dispatcher_at_the_right_offset() {
        // The sink takes 40 bytes, then pushes back.
        let (engine, shared, stream, flush_rx, fires) =
            engine_over(ScriptedSink::following(vec![40, 0]));
        ask(&engine, &shared, 100);
        assert_eq!(stream.lock().wire.len(), 40);
        assert_eq!(shared.outbox.lock().len(), 60);
        assert_eq!(
            fires.load(Ordering::SeqCst),
            1,
            "the left-over wakes the owner"
        );
        assert_eq!(flush_rx.try_iter().collect::<Vec<_>>(), vec![shared.id]);

        // The dispatcher, back under writable interest, finishes it.
        let sent = flush(&engine.send_accounts(), &shared, &mut shared.outbox.lock());
        assert!(sent);
        assert_eq!(stream.lock().wire, vec![b'x'; 100]);
        assert_eq!(engine.stats.snapshot().bytes_sent, 100);
        assert!(std::mem::take(&mut shared.outbox.lock().sending.drained));
    }

    #[test]
    fn output_past_the_bound_is_left_to_the_dispatcher() {
        let (engine, shared, stream, flush_rx, fires) =
            engine_over(ScriptedSink::following(Vec::new()));
        ask(&engine, &shared, WORKER_SEND_MAX + 1);
        assert_eq!(stream.lock().calls, 0, "the worker never touched the sink");
        assert_eq!(shared.outbox.lock().len(), WORKER_SEND_MAX + 1);
        // Woken when the reply was queued and again at the item's end:
        // one fire, the second notify rode on it.
        assert_eq!(fires.load(Ordering::SeqCst), 1);
        assert_eq!(flush_rx.try_iter().count(), 2);

        assert!(flush(
            &engine.send_accounts(),
            &shared,
            &mut shared.outbox.lock()
        ));
        assert_eq!(stream.lock().wire.len(), WORKER_SEND_MAX + 1);
    }

    /// A dispatcher over `listener` whose whole loop runs on the calling
    /// thread (`SubmitMode::Inline`), attached and ready to be stepped.
    fn stepped<L: Listener>(
        listener: L,
        idle_ms: Option<u64>,
        stages: StageDeadlines,
    ) -> Dispatcher<RawCodec, Sized, L> {
        let poller = L::new_poller().unwrap();
        let (flush_tx, flush_rx) = std::sync::mpsc::channel();
        let (inj_tx, inj_rx) = std::sync::mpsc::channel();
        let notifier = DispatchNotifier::new(vec![(flush_tx, poller.waker())]);
        let engine = Engine {
            codec: Arc::new(RawCodec),
            service: Arc::new(Sized),
            registry: Arc::default(),
            stats: ServerStats::new_shared(),
            metrics: MetricsRegistry::disabled(),
            tracer: DebugTracer::disabled(),
            logger: None,
            helper: None,
            completion_tx: None,
            notifier: notifier.clone(),
            syscalls: SyscallCounters::new_shared(),
        };
        let mut d = Dispatcher {
            index: 0,
            engine: Arc::new(engine),
            listener: Some(listener),
            poller,
            inj_rx,
            inj_txs: vec![inj_tx],
            flush_rx,
            notifier,
            submit: SubmitMode::Inline,
            overload: Arc::new(Mutex::new(OverloadController::disabled())),
            completion_rx: None,
            priority_policy: Arc::new(|_| Priority::HIGHEST),
            idle_limit: idle_ms.map(Duration::from_millis),
            stage_deadlines: stages,
            stop: Arc::default(),
            drain: Arc::default(),
            next_conn_id: Arc::new(AtomicU64::new(1)),
            worker_table: None,
            held: Arc::default(),
            st: LoopState::default(),
        };
        d.attach();
        d
    }

    /// One turn of the loop on a virtual clock that reads `at`: a wait
    /// that does not block, then a pass.
    fn step<L: Listener>(d: &mut Dispatcher<RawCodec, Sized, L>, at: Instant) -> Option<Duration> {
        d.wait(Some(Duration::ZERO));
        d.pass(|| at)
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    const NS: Duration = Duration::from_nanos(1);

    /// Whatever the server sent, up to its FIN: `(bytes, fin)`.
    fn received(c: &mut impl StreamIo) -> (Vec<u8>, bool) {
        let (mut got, mut buf) = (Vec::new(), [0u8; 256]);
        loop {
            match c.try_read(&mut buf).unwrap() {
                ReadOutcome::Data(n) => got.extend_from_slice(&buf[..n]),
                ReadOutcome::WouldBlock => return (got, false),
                ReadOutcome::Closed => return (got, true),
            }
        }
    }

    /// The deadline a connection's `expired` counter reports fires at the
    /// first pass whose clock reads `due`: at `due - 1 ns` the pass finds
    /// 1 ns left, at `due` it closes the connection, and its next pass
    /// sends the FIN of a lingering close.
    fn fires_at<L: Listener>(
        d: &mut Dispatcher<RawCodec, Sized, L>,
        c: &mut impl StreamIo,
        due: Instant,
        expired: fn(&crate::profiling::StatsSnapshot) -> u64,
    ) {
        assert_eq!(step(d, due - NS), Some(NS), "the time left");
        assert_eq!(expired(&d.engine.stats.snapshot()), 0, "fired early");
        assert_eq!(step(d, due), Some(Duration::ZERO), "closing: next pass");
        assert_eq!(expired(&d.engine.stats.snapshot()), 1, "fired late");
        assert!(!received(c).1, "no FIN before the close's own pass");
        step(d, due);
        assert!(received(c).1, "the lingering close's FIN");
    }

    #[test]
    fn stepped_idle_deadline_fires_at_its_instant_not_a_nanosecond_before() {
        let (listener, connector) = crate::transport::mem::listener("stepped-idle");
        let mut d = stepped(listener, Some(50), StageDeadlines::NONE);
        let t0 = Instant::now();
        let mut c = connector.connect();
        c.try_write(b"3").unwrap();
        // Accepted, read and answered at t0: idle from t0 + 50 ms on.
        assert_eq!(step(&mut d, t0), Some(ms(50)));
        assert_eq!(received(&mut c), (b"xxx".to_vec(), false));
        assert_eq!(step(&mut d, t0 + ms(20)), Some(ms(30)), "the time left");
        fires_at(&mut d, &mut c, t0 + ms(50), |s| s.connections_idle_closed);
    }

    #[test]
    fn stepped_header_read_deadline_fires_at_its_instant_not_a_nanosecond_before() {
        let (listener, connector) = crate::transport::mem::listener("stepped-header");
        let stages = StageDeadlines {
            header_read_ms: Some(100),
            write_drain_ms: None,
        };
        let mut d = stepped(listener, None, stages);
        let t0 = Instant::now();
        // A peer that connects and sends nothing.
        let mut c = connector.connect();
        assert_eq!(step(&mut d, t0), Some(ms(100)));
        fires_at(&mut d, &mut c, t0 + ms(100), |s| s.connections_timed_out);
    }

    #[test]
    fn stepped_write_drain_deadline_fires_at_its_instant_not_a_nanosecond_before() {
        // Every write of the connection is cut to a few bytes, and every
        // other one refused: a 200-byte reply stays queued for many
        // passes.
        let (listener, connector) = crate::transport::mem::listener("stepped-drain");
        let plan = crate::fault::FaultPlan {
            short_io_per_mille: 1000,
            ..crate::fault::FaultPlan::new(7)
        };
        let stages = StageDeadlines {
            header_read_ms: None,
            write_drain_ms: Some(50),
        };
        let mut d = stepped(crate::fault::layer(listener, plan), None, stages);
        let t0 = Instant::now();
        let mut c = connector.connect();
        c.try_write(b"200").unwrap();
        // The reply is queued at t0: the drain window ends at t0 + 50 ms.
        assert_eq!(step(&mut d, t0), Some(ms(50)));
        assert_eq!(step(&mut d, t0 + ms(30)), Some(ms(20)), "the time left");
        let (sent, _) = received(&mut c);
        assert!(!sent.is_empty() && sent.len() < 200, "{} bytes", sent.len());
        fires_at(&mut d, &mut c, t0 + ms(50), |s| s.connections_timed_out);
    }

    /// A connection closed idle at the instant returned, and lingering
    /// from then on.
    fn lingering() -> (Dispatcher<RawCodec, Sized, MemListener>, MemStream, Instant) {
        let (listener, connector) = crate::transport::mem::listener("stepped-linger");
        let mut d = stepped(listener, Some(50), StageDeadlines::NONE);
        let t0 = Instant::now();
        let mut c = connector.connect();
        step(&mut d, t0);
        let closed = t0 + ms(50);
        assert_eq!(step(&mut d, closed), Some(Duration::ZERO));
        assert_eq!(step(&mut d, closed), Some(Duration::ZERO), "FIN out");
        assert!(received(&mut c).1);
        assert_eq!(d.engine.stats.snapshot().connections_lingered, 1);
        (d, c, closed)
    }

    #[test]
    fn stepped_linger_is_reaped_at_exactly_linger() {
        let (mut d, _c, t0) = lingering();
        assert_eq!(step(&mut d, t0), Some(LINGER));
        assert_eq!(step(&mut d, t0 + LINGER - NS), Some(NS));
        assert_eq!(d.held.load(Ordering::Relaxed), 1, "the socket is held");
        // The last deadline goes with the socket: none is left.
        assert_eq!(step(&mut d, t0 + LINGER), None);
        assert_eq!(d.engine.stats.snapshot().linger_reaped, 1);
        assert_eq!(d.held.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn stepped_peer_fin_inside_the_linger_window_ends_it_first() {
        let (mut d, mut c, t0) = lingering();
        c.try_write(b"late").unwrap();
        c.shutdown_write();
        assert_eq!(step(&mut d, t0 + ms(10)), None, "no socket, no deadline");
        assert_eq!(d.held.load(Ordering::Relaxed), 0);
        let stats = d.engine.stats.snapshot();
        assert_eq!((stats.linger_reaped, stats.bytes_read), (0, 4));
    }

    #[test]
    fn stepped_peer_drop_ends_a_linger_at_the_next_pass() {
        let (mut d, c, t0) = lingering();
        drop(c);
        assert_eq!(step(&mut d, t0), None, "no socket, no deadline");
        assert_eq!(d.held.load(Ordering::Relaxed), 0);
        assert_eq!(d.engine.stats.snapshot().linger_reaped, 0);
    }

    #[test]
    fn stepped_pass_without_a_deadline_returns_none() {
        let (listener, connector) = crate::transport::mem::listener("stepped-none");
        let mut d = stepped(listener, None, StageDeadlines::NONE);
        let t0 = Instant::now();
        let mut c = connector.connect();
        c.try_write(b"2").unwrap();
        assert_eq!(step(&mut d, t0), None);
        assert_eq!(received(&mut c), (b"xx".to_vec(), false));
        assert_eq!(step(&mut d, t0 + ms(1_000_000)), None);
    }

    /// A notifier over one dispatcher whose waker counts its fires.
    fn counting_notifier() -> (DispatchNotifier, Receiver<ConnId>, Arc<AtomicUsize>) {
        let fires = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = std::sync::mpsc::channel();
        let waker = {
            let fires = Arc::clone(&fires);
            Waker::new(move || {
                fires.fetch_add(1, Ordering::SeqCst);
            })
        };
        (DispatchNotifier::new(vec![(tx, waker)]), rx, fires)
    }

    #[test]
    fn notifies_between_two_drains_fire_the_waker_once() {
        let (notifier, rx, fires) = counting_notifier();
        let sys = SyscallCounters::new_shared();
        let notifier = notifier.count_wakes_in(Arc::clone(&sys));
        for id in 1..=20 {
            notifier.notify_conn(id);
        }
        assert_eq!(fires.load(Ordering::SeqCst), 1);
        notifier.begin_drain(0);
        assert_eq!(rx.try_iter().count(), 20, "every id still queued");
        for id in 21..=25 {
            notifier.notify_conn(id);
        }
        assert_eq!(
            fires.load(Ordering::SeqCst),
            2,
            "one more batch, one more fire"
        );
        // Unconditional wakes are not coalesced; all fires are counted.
        notifier.wake(0);
        notifier.wake_completion_sink();
        notifier.wake_all();
        assert_eq!(fires.load(Ordering::SeqCst), 5);
        assert_eq!(sys.snapshot().wakes, 5);
    }

    #[test]
    fn a_notify_after_begin_drain_always_fires() {
        let (notifier, rx, fires) = counting_notifier();
        notifier.notify_conn(1);
        notifier.begin_drain(0);
        // Lands after the flag was cleared but before the channel is
        // drained: the drain picks the id up *and* the waker fires, so a
        // drain that had already passed it would still be woken.
        notifier.notify_conn(2);
        assert_eq!(fires.load(Ordering::SeqCst), 2);
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    /// Producer and consumer race for real: the consumer parks on the
    /// waker exactly as a dispatcher parks in its poller (sticky wake
    /// flag, clear → drain → park), and must still see every id.
    #[test]
    fn coalesced_wakes_never_strand_an_id() {
        const IDS: u64 = 100_000;
        let parked = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
        let fires = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = std::sync::mpsc::channel();
        let waker = {
            let (parked, fires) = (Arc::clone(&parked), Arc::clone(&fires));
            Waker::new(move || {
                fires.fetch_add(1, Ordering::SeqCst);
                *parked.0.lock().expect("waker lock") = true;
                parked.1.notify_one();
            })
        };
        let notifier = DispatchNotifier::new(vec![(tx, waker)]);
        let start = Arc::new(Barrier::new(2));

        let producer = {
            let (notifier, start) = (notifier.clone(), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                for id in 1..=IDS {
                    notifier.notify_conn(id);
                }
            })
        };
        start.wait();
        let mut next = 1;
        while next <= IDS {
            notifier.begin_drain(0);
            for id in rx.try_iter() {
                assert_eq!(id, next, "ids arrive in order, none skipped");
                next += 1;
            }
            if next > IDS {
                break;
            }
            let mut woken = parked.0.lock().expect("park lock");
            while !*woken {
                let (guard, timeout) = parked
                    .1
                    .wait_timeout(woken, Duration::from_secs(10))
                    .expect("park wait");
                woken = guard;
                assert!(
                    !timeout.timed_out() || *woken,
                    "stranded: id {next} queued with no wake-up"
                );
            }
            *woken = false;
        }
        producer.join().expect("producer");
        assert!(fires.load(Ordering::SeqCst) as u64 <= IDS);
    }

    /// Over O2 × O4 × O5 × O8 × O9 × {1, 2} CPUs, every valid option set
    /// gets `Inline` exactly where one CPU, O4 = Asynchronous, O5 =
    /// Static, O8 = No and O9 ≠ Watermark meet, and otherwise the routing
    /// options alone chose before the CPU count was read.
    #[test]
    fn one_cpu_routes_every_event_to_the_dispatcher_exactly_where_nothing_needs_the_queue() {
        use crate::options::{OverloadControl, ThreadAllocation};
        use crate::queue::{BlockingQueue, FifoQueue};
        let queue = BlockingQueue::new(Box::new(FifoQueue::new()));
        let static_pool = ThreadAllocation::Static { threads: 1 };
        let pool = EventProcessor::start(static_pool, queue, Arc::new(|_: Work<Vec<u8>>| {}));
        let dynamic_pool = ThreadAllocation::Dynamic {
            min: 1,
            max: 2,
            idle_keepalive_ms: 10,
        };
        let o4 = [CompletionMode::Asynchronous, CompletionMode::Synchronous];
        let o5 = [static_pool, dynamic_pool];
        let o8 = [
            EventScheduling::No,
            EventScheduling::Yes { quotas: vec![2, 1] },
        ];
        let watermark = OverloadControl::Watermark { high: 8, low: 2 };
        let o9 = [
            OverloadControl::No,
            OverloadControl::MaxConnections { limit: 8 },
            watermark,
        ];
        let mut walked = 0;
        for i in 0..2 * 2 * 2 * 2 * 3 {
            let opts = ServerOptions {
                separate_handler_pool: i % 2 == 1,
                completion_mode: o4[i / 2 % 2],
                thread_allocation: o5[i / 4 % 2],
                event_scheduling: o8[i / 8 % 2].clone(),
                overload_control: o9[i / 16],
                ..ServerOptions::default()
            };
            if opts.validate().is_err() {
                continue;
            }
            let pooled = opts.separate_handler_pool;
            let asynchronous = opts.completion_mode == CompletionMode::Asynchronous;
            let no_scheduling = opts.event_scheduling == EventScheduling::No;
            for cpus in [1, 2] {
                let every_event_here = cpus == 1
                    && asynchronous
                    && opts.thread_allocation == static_pool
                    && no_scheduling
                    && opts.overload_control != watermark;
                let at = format!("{opts:?} on {cpus} CPU(s)");
                match SubmitMode::choose(&opts, cpus, pooled.then_some(&pool)) {
                    SubmitMode::Inline => assert!(!pooled || every_event_here, "{at}"),
                    SubmitMode::Pool {
                        processor,
                        dispatcher_handles_last,
                    } => {
                        assert!(pooled && !every_event_here, "{at}");
                        assert!(Arc::ptr_eq(&processor, &pool), "{at}");
                        let last = asynchronous && no_scheduling;
                        assert_eq!(dispatcher_handles_last, last, "{at}");
                    }
                }
                walked += 1;
            }
        }
        // 24 sets with a pool and 4 without (O2 = No rules out O5 =
        // Dynamic, O8 = Yes and O9 = Watermark), each on one CPU and two.
        assert_eq!(walked, 2 * (24 + 4));
        pool.shutdown();
    }
}
