//! The request-handling pipeline (Fig. 1 and Fig. 2 of the paper) and the
//! engine that executes it.
//!
//! Every network server iterates five steps per request: **Read Request →
//! Decode Request → Handle Request → Encode Reply → Send Reply**. Read and
//! Send are "almost the same across different network server applications"
//! and belong to the framework; Decode/Handle/Encode are the application-
//! dependent hook methods a programmer supplies:
//!
//! * [`Codec`] — the Decode Request and Encode Reply hooks (omitted
//!   entirely in the O3 = No structural variation, Fig. 2, via
//!   [`RawCodec`]),
//! * [`Service`] — the Handle Request hook, returning an [`Action`].
//!
//! The [`Engine`] is the generated framework's concurrency heart: it runs
//! hooks on Event Processor workers, emulates non-blocking operations via
//! the Proactor helper pool (O4 = Asynchronous) or blocks in place (O4 =
//! Synchronous), and guarantees replies leave each connection **in request
//! order** even when blocking operations complete out of order — that is
//! what the Asynchronous Completion Token sequence numbers are for.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::io::IoSlice;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use bytes::BytesMut;
use parking_lot::{Mutex, RwLock};

use crate::diag;
use crate::event::{CompletionToken, ConnId, EventKind, Priority};
use crate::metrics::{MetricsRegistry, Stage};
use crate::proactor::HelperPool;
use crate::profiling::ServerStats;
use crate::reactor::{flush, DispatchNotifier, SendAccounts};
use crate::trace::{AccessLogger, DebugTracer, SpanEvent, SEQ_NONE};
use crate::transport::{StreamIo, SyscallCounters};

/// A protocol error raised by a codec; the framework closes the offending
/// connection and counts the error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtocolError {}

/// Per-connection decoder scratch, guarded by the same lock that
/// serializes the decode loop. Codecs that scan the inbox for a frame
/// delimiter record how far they have scanned so each newly arrived byte
/// is examined once instead of rescanning the whole buffer (the O(n²)
/// slow-loris pathology).
#[derive(Debug, Default)]
pub struct DecodeState {
    /// Prefix of the inbox already scanned without finding a frame
    /// boundary; the next scan resumes near here instead of at offset 0.
    /// Codecs must reset this when they consume bytes or fail.
    pub scanned: usize,
}

/// One contiguous piece of an encoded reply.
///
/// `Bytes` segments own their data (response heads, control replies);
/// `Shared` segments reference a cached payload through its `Arc`, so
/// queueing a response body never copies it — the dispatcher writes to
/// the socket straight from the cache's allocation.
pub enum OutSegment {
    /// Owned bytes.
    Bytes(BytesMut),
    /// Zero-copy window into shared bytes; `offset` is how much has
    /// already been written to the socket.
    Shared {
        /// The shared bytes (a cached file body, or the encoded head
        /// every reply serving that cache entry starts with).
        data: Arc<Vec<u8>>,
        /// Bytes of `data` already transmitted.
        offset: usize,
    },
}

impl OutSegment {
    fn remaining(&self) -> usize {
        match self {
            OutSegment::Bytes(b) => b.len(),
            OutSegment::Shared { data, offset } => data.len() - offset,
        }
    }

    fn chunk(&self) -> &[u8] {
        match self {
            OutSegment::Bytes(b) => &b[..],
            OutSegment::Shared { data, offset } => &data[*offset..],
        }
    }

    fn advance(&mut self, n: usize) {
        match self {
            OutSegment::Bytes(b) => {
                let _ = b.split_to(n);
            }
            OutSegment::Shared { offset, .. } => *offset += n,
        }
    }
}

/// An encoded response, produced by [`Codec::encode_reply`] and queued
/// whole into the [`Outbox`] once its sequence number becomes contiguous:
/// a head shared by reference (one encoded once for every reply that
/// serves the same cache entry) or owned bytes (any other response head, a
/// control reply), then at most one shared payload, then whatever was
/// pushed after it — four inline slots, so building a reply allocates
/// nothing beyond its bytes, and nothing at all when both are shared.
#[derive(Default)]
pub struct EncodedReply {
    shared_head: Option<Arc<Vec<u8>>>,
    head: BytesMut,
    body: Option<Arc<Vec<u8>>>,
    tail: BytesMut,
}

impl EncodedReply {
    /// Empty reply.
    pub fn new() -> Self {
        Self::default()
    }

    /// The owned slot pushes land in now: `head` until a shared payload
    /// has been pushed, `tail` after it.
    fn owned_slot(&mut self) -> &mut BytesMut {
        if self.body.is_none() {
            &mut self.head
        } else {
            &mut self.tail
        }
    }

    /// Append owned bytes (empty buffers are dropped).
    pub fn push_bytes(&mut self, bytes: BytesMut) {
        let slot = self.owned_slot();
        if slot.is_empty() {
            *slot = bytes;
        } else {
            slot.extend_from_slice(&bytes);
        }
    }

    /// Open the reply with a head shared by reference. A reply that
    /// already holds bytes takes a copy instead, in push order.
    pub fn push_shared_head(&mut self, head: Arc<Vec<u8>>) {
        if !self.is_empty() {
            self.owned_slot().extend_from_slice(&head);
        } else if !head.is_empty() {
            self.shared_head = Some(head);
        }
    }

    /// Append a shared payload without copying it (empty payloads are
    /// dropped). A reply carries one payload by reference; a further one
    /// is copied behind it.
    pub fn push_shared(&mut self, data: Arc<Vec<u8>>) {
        if data.is_empty() {
            return;
        }
        if self.body.is_none() {
            self.body = Some(data);
        } else {
            self.tail.extend_from_slice(&data);
        }
    }

    /// Total bytes across all segments.
    pub fn len(&self) -> usize {
        let shared = |slot: &Option<Arc<Vec<u8>>>| slot.as_ref().map_or(0, |s| s.len());
        shared(&self.shared_head) + self.head.len() + shared(&self.body) + self.tail.len()
    }

    /// Whether the reply carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The per-connection transmit queue: a sequence of segments rather than
/// one flat buffer, so cached bodies are written to the socket straight
/// from their `Arc` allocation. Send Reply sends it as gathered writes:
/// [`fill_slices`](Outbox::fill_slices) lends the front segments to one
/// `writev`, [`advance`](Outbox::advance) retires what was sent.
#[derive(Default)]
pub struct Outbox {
    segments: VecDeque<OutSegment>,
    /// Total unsent bytes, maintained incrementally so `len` is O(1).
    len: usize,
    /// Send Reply's per-connection accounting. It lives under the outbox
    /// lock because any thread holding that lock may be the sender.
    pub(crate) sending: SendTally,
}

/// What Send Reply keeps per connection between calls, whichever thread
/// makes them (see `reactor::flush`).
#[derive(Default)]
pub(crate) struct SendTally {
    /// When the outbox was first observed non-empty (the O10/O11
    /// write-drain window); cleared when it drains.
    pub(crate) drain_from: Option<Instant>,
    /// Write syscalls not yet reported to the tracer (flushed with the
    /// connection's unreported reads as a `Syscalls` delta span when the
    /// window closes and at teardown).
    pub(crate) io_writes: u64,
    /// A send emptied the outbox since the dispatcher last looked: it
    /// takes the flag to re-arm the header-read stage deadline.
    pub(crate) drained: bool,
}

impl Outbox {
    /// Empty outbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total unsent bytes queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop everything queued (connection teardown paths).
    pub fn clear(&mut self) {
        self.segments.clear();
        self.len = 0;
    }

    /// Append raw bytes, coalescing into a trailing owned segment.
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        self.len += bytes.len();
        if let Some(OutSegment::Bytes(tail)) = self.segments.back_mut() {
            tail.extend_from_slice(bytes);
        } else {
            self.segments
                .push_back(OutSegment::Bytes(BytesMut::from(bytes)));
        }
    }

    /// Queue an encoded reply's segments in order.
    pub fn push_reply(&mut self, reply: EncodedReply) {
        self.len += reply.len();
        let EncodedReply {
            shared_head,
            head,
            body,
            tail,
        } = reply;
        if let Some(data) = shared_head {
            self.segments
                .push_back(OutSegment::Shared { data, offset: 0 });
        }
        if !head.is_empty() {
            self.segments.push_back(OutSegment::Bytes(head));
        }
        if let Some(data) = body {
            self.segments
                .push_back(OutSegment::Shared { data, offset: 0 });
        }
        if !tail.is_empty() {
            self.segments.push_back(OutSegment::Bytes(tail));
        }
    }

    /// The first unsent contiguous chunk, if any. Exhausted segments are
    /// popped by [`Outbox::advance`], so the front is always non-empty.
    pub fn front_chunk(&self) -> Option<&[u8]> {
        self.segments.front().map(OutSegment::chunk)
    }

    /// Point `dst` at the unsent segments from the front, in wire order,
    /// one slice per segment, and return how many slices were filled
    /// (`min(dst.len(), segments)`). Borrow-only: nothing is flattened or
    /// copied, so a cached body is still sent from its `Arc` allocation.
    pub fn fill_slices<'a>(&'a self, dst: &mut [IoSlice<'a>]) -> usize {
        for (slot, seg) in dst.iter_mut().zip(&self.segments) {
            *slot = IoSlice::new(seg.chunk());
        }
        dst.len().min(self.segments.len())
    }

    /// Record that `n` bytes from the front were written, popping
    /// segments as they complete.
    pub fn advance(&mut self, mut n: usize) {
        debug_assert!(n <= self.len, "advance past end of outbox");
        self.len -= n.min(self.len);
        while n > 0 {
            let Some(front) = self.segments.front_mut() else {
                return;
            };
            // A wholly sent segment is dropped as it is; only a partly
            // sent one is cut.
            if n < front.remaining() {
                front.advance(n);
                return;
            }
            n -= front.remaining();
            self.segments.pop_front();
        }
    }

    /// Copy out all unsent bytes (test and diagnostic helper — the hot
    /// path never flattens the queue).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.len);
        for seg in &self.segments {
            v.extend_from_slice(seg.chunk());
        }
        v
    }
}

/// The Decode Request / Encode Reply hook pair (template option O3).
pub trait Codec: Send + Sync + 'static {
    /// Decoded request type.
    type Request: Send + 'static;
    /// Response type produced by the service.
    type Response: Send + 'static;

    /// Try to decode one request from the front of `buf`, consuming its
    /// bytes. `Ok(None)` means "need more data".
    fn decode(&self, buf: &mut BytesMut) -> Result<Option<Self::Request>, ProtocolError>;

    /// Encode one response onto `out`.
    fn encode(&self, resp: &Self::Response, out: &mut BytesMut) -> Result<(), ProtocolError>;

    /// Like [`Codec::decode`], but with per-connection [`DecodeState`]
    /// scratch so delimiter scans can resume where the previous call
    /// stopped. The framework always decodes through this method; the
    /// default ignores the state and delegates to [`Codec::decode`].
    fn decode_with(
        &self,
        buf: &mut BytesMut,
        _state: &mut DecodeState,
    ) -> Result<Option<Self::Request>, ProtocolError> {
        self.decode(buf)
    }

    /// Encode one response as a segmented [`EncodedReply`]. The default
    /// funnels through [`Codec::encode`] into one owned segment; codecs
    /// whose responses carry a large shared payload (HTTP file bodies)
    /// override this to push the payload `Arc` as a zero-copy segment.
    fn encode_reply(
        &self,
        resp: &Self::Response,
        out: &mut EncodedReply,
    ) -> Result<(), ProtocolError> {
        let mut buf = BytesMut::new();
        self.encode(resp, &mut buf)?;
        out.push_bytes(buf);
        Ok(())
    }
}

/// The Fig. 2 structural variation (O3 = No): no decoding or encoding —
/// requests are raw byte chunks and responses are raw bytes. Used by
/// trivial servers (echo, time-of-day) where framing is the application's
/// business.
#[derive(Debug, Default, Clone, Copy)]
pub struct RawCodec;

impl Codec for RawCodec {
    type Request = Vec<u8>;
    type Response = Vec<u8>;

    fn decode(&self, buf: &mut BytesMut) -> Result<Option<Vec<u8>>, ProtocolError> {
        if buf.is_empty() {
            Ok(None)
        } else {
            let bytes = buf.split().to_vec();
            Ok(Some(bytes))
        }
    }

    fn encode(&self, resp: &Vec<u8>, out: &mut BytesMut) -> Result<(), ProtocolError> {
        out.extend_from_slice(resp);
        Ok(())
    }
}

/// What the Handle Request hook tells the framework to do.
pub enum Action<R> {
    /// Encode and send this reply.
    Reply(R),
    /// Send this reply, then close the connection.
    ReplyClose(R),
    /// The request produced no reply (e.g. a pipelined command folded into
    /// a later response).
    NoReply,
    /// Close the connection without replying.
    Close,
    /// A blocking operation (file read, database access…): the framework
    /// runs the closure off the event loop — on the Proactor helper pool
    /// under O4 = Asynchronous, or in place under O4 = Synchronous — and
    /// sends the returned reply when it completes.
    Defer(Box<dyn FnOnce() -> R + Send + 'static>),
    /// Like [`Action::Defer`], but the connection closes after the reply.
    DeferClose(Box<dyn FnOnce() -> R + Send + 'static>),
}

impl<R> fmt::Debug for Action<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Action::Reply(_) => "Reply",
            Action::ReplyClose(_) => "ReplyClose",
            Action::NoReply => "NoReply",
            Action::Close => "Close",
            Action::Defer(_) => "Defer",
            Action::DeferClose(_) => "DeferClose",
        };
        f.write_str(name)
    }
}

/// Connection context passed to every hook invocation.
#[derive(Debug, Clone)]
pub struct ConnCtx {
    /// Connection id.
    pub id: ConnId,
    /// Peer label (IP:port for TCP).
    pub peer: String,
    /// Scheduling priority assigned at accept time (option O8).
    pub priority: Priority,
}

/// The Handle Request hook (plus the optional connection-open hook for
/// protocols where the server speaks first, like FTP's `220` greeting).
pub trait Service<C: Codec>: Send + Sync + 'static {
    /// Handle one decoded request.
    fn handle(&self, ctx: &ConnCtx, req: C::Request) -> Action<C::Response>;

    /// Called when a connection is accepted; a returned response is sent
    /// immediately (server-speaks-first protocols).
    fn on_open(&self, _ctx: &ConnCtx) -> Option<C::Response> {
        None
    }

    /// Called when a connection closes (either side).
    fn on_close(&self, _ctx: &ConnCtx) {}
}

/// Per-connection state shared between the dispatcher (which registers,
/// reads and closes the connection) and the Event Processor workers
/// (which run the hooks). **Send Reply belongs to neither**: whoever
/// holds the outbox lock may send, through the connection's
/// [sink](ConnShared::attach_sink).
///
/// # Locks
///
/// * **Order.** A sender takes `send` → `outbox` → the stream
///   (`complete` holds `send` while it moves replies into the outbox;
///   `reactor::flush` takes the outbox, then the stream, and holds both
///   across the write). The dispatcher's Read Request takes the stream →
///   `inbox`. Nothing takes the stream and then the outbox, so the two
///   chains cannot close a cycle.
/// * **No reordering between senders.** The outbox lock is held across
///   the gathered write *and* the `Outbox::advance` that retires what it
///   sent, so a second sender — another worker, or the dispatcher under
///   writable interest — finds either the bytes still queued or gone,
///   never half-sent, and starts exactly where the first one stopped.
/// * **Closing is unchanged.** Only the dispatcher closes. Its close test
///   reads `responses_pending` (the `send` lock) and then the outbox;
///   `responses_pending() == false` means every accepted request has its
///   reply queued, so no worker has anything further to send, and a
///   worker still inside a write holds the outbox lock the test waits
///   for. `shutdown_write` follows a second empty check under that lock.
///   A worker's clone of this `Arc` keeps the stream (and its fd) alive
///   until the last clone drops; the poller registration does not wait
///   for that — the dispatcher deregisters explicitly when it finalizes.
pub struct ConnShared {
    /// Connection id.
    pub id: ConnId,
    /// Peer label.
    pub peer: String,
    /// Scheduling priority (O8 crosscuts the Communicator Component with
    /// exactly this field, per Table 2).
    pub priority: Priority,
    /// What the hooks are lent, built once.
    ctx: ConnCtx,
    /// Bytes read from the socket, awaiting decode.
    pub inbox: Mutex<BytesMut>,
    /// Encoded reply segments awaiting transmission.
    pub outbox: Mutex<Outbox>,
    /// Close once the outbox drains.
    pub closing: AtomicBool,
    /// The peer half-closed (FIN observed): no further request bytes can
    /// ever arrive. Set by the dispatcher, read by the decode loop — a
    /// partial request still in the inbox at that point can never
    /// complete, so the connection closes instead of idling until the O7
    /// sweep.
    pub peer_eof: AtomicBool,
    /// The stream failed hard (peer reset): the sink is dead. Replies
    /// completed after this point are discarded instead of queued, and no
    /// sender attempts another write — writing a response to a reset peer
    /// is a protocol-conformance violation, not just wasted work.
    pub sink_dead: AtomicBool,
    /// Serializes decoding per connection (two Readable events for the
    /// same connection must not interleave their decode loops) and holds
    /// the codec's incremental-scan scratch.
    decode_lock: Mutex<DecodeState>,
    /// Next sequence number to hand to a new request. Only the decode
    /// loop adds to it (under `decode_lock`); it is read under the `send`
    /// lock, after `next_emit` — a reader then holds the lock every
    /// `complete` released, so it sees the assignment of every request it
    /// sees emitted, and `next_emit <= next_assign` holds for what it
    /// read as it does for what is.
    next_assign: AtomicU64,
    send: Mutex<SendState>,
    /// Where Send Reply writes; unset on a connection no dispatcher owns
    /// (a hand-built engine), whose replies then stay in `outbox`.
    sink: OnceLock<Sink>,
    /// Read syscalls not yet reported to the tracer. The dispatcher
    /// counts them; whichever sender closes the write-drain window
    /// reports them with its writes.
    pub(crate) io_reads: AtomicU64,
}

/// The transport end of a connection as Send Reply sees it.
pub(crate) struct Sink {
    /// The connection's stream, type-erased; the owning dispatcher holds
    /// the same `Arc` under its concrete type.
    pub(crate) stream: Arc<Mutex<dyn StreamIo>>,
    /// The owning dispatcher tracks stage deadlines, so it must hear of
    /// every send that wrote: the header-read window re-arms when a reply
    /// drains and the write-drain window is its to arm and clear.
    pub(crate) dispatcher_tracks_sends: bool,
}

struct SendState {
    /// Next sequence number eligible for transmission.
    next_emit: u64,
    /// Out-of-order completions: seq → encoded reply (`None` = no reply).
    ready: BTreeMap<u64, Option<EncodedReply>>,
}

impl ConnShared {
    /// Fresh connection state.
    pub fn new(id: ConnId, peer: String, priority: Priority) -> Arc<Self> {
        Arc::new(Self {
            id,
            ctx: ConnCtx {
                id,
                peer: peer.clone(),
                priority,
            },
            peer,
            priority,
            inbox: Mutex::new(BytesMut::new()),
            outbox: Mutex::new(Outbox::new()),
            closing: AtomicBool::new(false),
            peer_eof: AtomicBool::new(false),
            sink_dead: AtomicBool::new(false),
            decode_lock: Mutex::new(DecodeState::default()),
            next_assign: AtomicU64::new(0),
            send: Mutex::new(SendState {
                next_emit: 0,
                ready: BTreeMap::new(),
            }),
            sink: OnceLock::new(),
            io_reads: AtomicU64::new(0),
        })
    }

    /// Give Send Reply its transport: from here on any thread holding the
    /// outbox lock may write queued replies to `stream`.
    /// `dispatcher_tracks_sends` asks every sender to tell the owning
    /// dispatcher when it wrote (stage deadlines are configured). The
    /// first attachment stands; a connection has one stream.
    pub(crate) fn attach_sink(
        &self,
        stream: Arc<Mutex<dyn StreamIo>>,
        dispatcher_tracks_sends: bool,
    ) {
        let _ = self.sink.set(Sink {
            stream,
            dispatcher_tracks_sends,
        });
    }

    /// The attached sink, if a dispatcher owns this connection.
    pub(crate) fn sink(&self) -> Option<&Sink> {
        self.sink.get()
    }

    /// The context lent to hooks.
    pub fn ctx(&self) -> &ConnCtx {
        &self.ctx
    }

    /// Whether requests were accepted whose replies have not all been
    /// queued for transmission yet.
    pub fn responses_pending(&self) -> bool {
        let s = self.send.lock();
        s.next_emit < self.next_assign.load(Ordering::Relaxed)
    }

    /// Give the connection up after a hook panicked somewhere its place
    /// in the reply order is not known: nothing more is sent (what is
    /// queued is dropped with it, later completions are swallowed as for
    /// a reset peer), every accepted request counts as answered, and the
    /// owning dispatcher's close test passes on its next look.
    pub(crate) fn abandon(&self) {
        self.sink_dead.store(true, Ordering::Relaxed);
        self.closing.store(true, Ordering::Relaxed);
        let mut s = self.send.lock();
        s.next_emit = self.next_assign.load(Ordering::Relaxed);
        s.ready.clear();
        self.outbox.lock().clear();
    }

    pub(crate) fn assign_seq(&self) -> u64 {
        self.next_assign.fetch_add(1, Ordering::Relaxed)
    }

    /// Record the (possibly empty) reply for `seq` and move every
    /// contiguous ready reply into the outbox — in request order. Returns
    /// how many replies moved and the bytes the outbox holds afterwards.
    pub(crate) fn complete(&self, seq: u64, reply: Option<EncodedReply>) -> (usize, usize) {
        let mut emitted = 0;
        let mut guard = self.send.lock();
        let s = &mut *guard;
        // A dead sink swallows the payload but keeps the sequence moving,
        // so ordering state still drains and the connection can finalize.
        let reply = if self.sink_dead.load(Ordering::Relaxed) {
            None
        } else {
            reply
        };
        // The reply that is next in order goes straight to the outbox;
        // only an out-of-order completion (the Proactor path) is parked,
        // and then nothing can move: the map never holds `next_emit`.
        let mut next = if seq == s.next_emit {
            Some(reply)
        } else {
            s.ready.insert(seq, reply);
            None
        };
        let mut out = self.outbox.lock();
        while let Some(entry) = next {
            if let Some(r) = entry {
                out.push_reply(r);
                emitted += 1;
            }
            s.next_emit += 1;
            next = s.ready.remove(&s.next_emit);
        }
        (emitted, out.len())
    }
}

/// The work items flowing through the Event Processor queue.
pub enum Work<R> {
    /// Request bytes arrived on a connection: run the decode/handle/encode
    /// loop.
    Process(ConnId),
    /// A blocking operation completed (Proactor path): encode and send.
    Completion(CompletionToken, R),
}

impl<R> Work<R> {
    /// The connection the item belongs to.
    pub fn conn(&self) -> ConnId {
        match self {
            Work::Process(id) => *id,
            Work::Completion(token, _) => token.conn,
        }
    }
}

/// Shared connection registry: id → state.
pub type Registry = Arc<RwLock<HashMap<ConnId, Arc<ConnShared>>>>;

/// Most queued reply bytes a work item still sends itself. Up to here
/// the write is cheaper than the hop back to the dispatcher (an eventfd
/// write, a poller return, a channel drain); past it the copy into the
/// socket buffer is long enough that it pays to let the dispatcher make
/// it while the worker handles the next request, and output the socket
/// cannot take at once needs the dispatcher's writable interest anyway.
/// DESIGN.md §8 records the measured cross-over.
pub(crate) const WORKER_SEND_MAX: usize = 64 * 1024;

/// The framework engine: everything workers need to run the pipeline.
pub struct Engine<C: Codec, S: Service<C>> {
    /// The application's codec hooks.
    pub codec: Arc<C>,
    /// The application's service hooks.
    pub service: Arc<S>,
    /// Connection registry.
    pub registry: Registry,
    /// Profiling counters (O11; always maintained, cheaply).
    pub stats: Arc<ServerStats>,
    /// Per-stage latency histograms and gauges (O11; disabled registry =
    /// no-op fast path).
    pub metrics: Arc<MetricsRegistry>,
    /// Debug tracer (O10).
    pub tracer: DebugTracer,
    /// Access logger (O12).
    pub logger: Option<AccessLogger>,
    /// Helper pool for blocking operations (present iff O4=Asynchronous).
    pub helper: Option<Arc<HelperPool>>,
    /// Completion channel back into the dispatcher (O4=Asynchronous).
    pub completion_tx: Option<Sender<(CompletionToken, C::Response)>>,
    /// Wakes the dispatcher owning a connection when a work item left it
    /// something to do (unsent bytes, closing requested): dispatchers
    /// block in their poller and never scan connections for output.
    pub notifier: DispatchNotifier,
    /// Syscall accounting at the transport boundary (always maintained;
    /// Send Reply counts writes here, the dispatch loop everything else).
    pub syscalls: Arc<SyscallCounters>,
}

impl<C: Codec, S: Service<C>> Engine<C, S> {
    /// Look up a live connection.
    pub fn conn(&self, id: ConnId) -> Option<Arc<ConnShared>> {
        self.registry.read().get(&id).cloned()
    }

    /// Execute one work item. Runs on Event Processor workers and on the
    /// dispatcher thread (every item under O2 = No, the last ready event
    /// of a pass under O2 = Yes, every one on one CPU —
    /// `reactor::SubmitMode::choose`): the code is
    /// identical, only the calling thread differs. The item ends with
    /// its own Send Reply.
    ///
    /// A hook that panics (the codec, a deferred job run in place, the
    /// access logger; `Service::handle` is isolated closer in, where the
    /// request's place in the reply order is known) fails its connection,
    /// not the thread that happened to run it.
    pub fn handle_work(&self, work: Work<C::Response>) {
        ServerStats::bump(&self.stats.events_dispatched);
        // A connection already gone from the registry has nothing to
        // run, nothing to send and no dispatcher state left to wake.
        let Some(conn) = self.conn(work.conn()) else {
            return;
        };
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match work {
            Work::Process(_) => self.process_conn(&conn),
            Work::Completion(token, resp) => self.handle_completion(&conn, token, resp),
        }));
        if ran.is_err() {
            ServerStats::bump(&self.stats.handler_panics);
            self.tracer.record(
                EventKind::Readable,
                Some(conn.id),
                "hook panic: connection abandoned",
            );
            // End the Decode / Handle / Encode window the hook died in,
            // so the timeline shows the stage that panicked. (The
            // dispatcher's teardown ends the other two.)
            for (stage, seq) in self.tracer.open_windows(conn.id) {
                if matches!(stage, Stage::Decode | Stage::Handle | Stage::Encode) {
                    self.tracer
                        .span(SpanEvent::StageEnd { stage, seq }, conn.id);
                }
            }
            conn.abandon();
        }
        self.send_reply(&conn);
        // Diagnostics: the executing thread (pool worker or dispatcher)
        // is between events again. No-op on unattached threads.
        diag::stamp_idle();
    }

    /// What Send Reply accounts into, whichever thread runs it.
    pub(crate) fn send_accounts(&self) -> SendAccounts<'_> {
        SendAccounts {
            stats: &self.stats,
            syscalls: &self.syscalls,
            metrics: &self.metrics,
            tracer: &self.tracer,
        }
    }

    /// Send Reply on the thread that queued the replies: a work item ends
    /// with one gathered write of what it produced, and the owning
    /// dispatcher is woken only when something is left for it to do —
    /// bytes still queued (the transport refused them, or there are more
    /// than [`WORKER_SEND_MAX`]), a close test to run (`closing`,
    /// `peer_eof`), or stage deadlines to move. A connection with no sink
    /// (a hand-built engine) keeps its replies in the outbox.
    fn send_reply(&self, conn: &ConnShared) {
        let Some(sink) = conn.sink() else {
            return;
        };
        let (wrote, left) = {
            let mut out = conn.outbox.lock();
            let mine = !out.is_empty() && out.len() <= WORKER_SEND_MAX;
            if mine {
                // The watchdog and `/debug/snapshot` should name a worker
                // stuck in `writev` as sending, and since when.
                diag::stamp_stage_fresh(Stage::WriteDrain, conn.id);
            }
            let wrote = mine && flush(&self.send_accounts(), conn, &mut out);
            (wrote, !out.is_empty())
        };
        if left
            || conn.closing.load(Ordering::Relaxed)
            || conn.peer_eof.load(Ordering::Relaxed)
            || (wrote && sink.dispatcher_tracks_sends)
        {
            self.notifier.notify_conn(conn.id);
        }
    }

    /// Complete `seq`. Replies normally leave with the work item's own
    /// send; once more than [`WORKER_SEND_MAX`] bytes are queued the
    /// output is the dispatcher's to send (under writable interest, while
    /// this worker goes on handling), so it is woken now.
    fn emit(&self, conn: &Arc<ConnShared>, seq: u64, reply: Option<EncodedReply>) -> usize {
        let (emitted, queued) = conn.complete(seq, reply);
        if emitted > 0 && queued > WORKER_SEND_MAX {
            self.notifier.notify_conn(conn.id);
        }
        emitted
    }

    fn process_conn(&self, conn: &Arc<ConnShared>) {
        let id = conn.id;
        let ctx = conn.ctx();
        let mut decode_state = conn.decode_lock.lock();
        loop {
            if conn.closing.load(Ordering::Relaxed) {
                return;
            }
            // O11: clock reads happen only with profiling on — the
            // disabled registry's fast path skips even `Instant::now`.
            let profiled = self.metrics.is_enabled();
            let traced = self.tracer.is_enabled();
            let decode_started = profiled.then(std::time::Instant::now);
            diag::stamp_stage(Stage::Decode, id);
            if traced {
                // Opens the decode window; closed by the `Decode { seq }`
                // span on success or the explicit end below when the
                // attempt finds no complete request.
                self.tracer.span(
                    SpanEvent::StageBegin {
                        stage: Stage::Decode,
                        seq: SEQ_NONE,
                    },
                    id,
                );
            }
            let decoded = {
                let mut inbox = conn.inbox.lock();
                self.codec.decode_with(&mut inbox, &mut decode_state)
            };
            match decoded {
                Ok(Some(req)) => {
                    ServerStats::bump(&self.stats.requests_decoded);
                    if let Some(t0) = decode_started {
                        self.metrics
                            .record_stage(Stage::Decode, t0.elapsed().as_micros() as u64);
                    }
                    let seq = conn.assign_seq();
                    self.tracer.span(SpanEvent::Decode { seq }, id);
                    // Isolate application-hook panics: the request is
                    // failed and the connection closed, but the framework
                    // (and this connection's reply ordering) survives.
                    let service = &self.service;
                    let handle_started = profiled.then(std::time::Instant::now);
                    diag::stamp_stage(Stage::Handle, id);
                    if traced {
                        self.tracer.span(
                            SpanEvent::StageBegin {
                                stage: Stage::Handle,
                                seq,
                            },
                            id,
                        );
                    }
                    let action = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        service.handle(ctx, req)
                    }));
                    if let Some(t0) = handle_started {
                        self.metrics
                            .record_stage(Stage::Handle, t0.elapsed().as_micros() as u64);
                    }
                    match action {
                        Ok(action) => {
                            self.tracer.span(SpanEvent::Handle { seq }, id);
                            self.apply_action(conn, seq, action);
                        }
                        Err(_) => {
                            ServerStats::bump(&self.stats.protocol_errors);
                            ServerStats::bump(&self.stats.handler_panics);
                            // Close the handle window the panic left open.
                            self.tracer.span(
                                SpanEvent::StageEnd {
                                    stage: Stage::Handle,
                                    seq,
                                },
                                id,
                            );
                            self.tracer.record(
                                EventKind::Readable,
                                Some(id),
                                format!("handler panic on seq={seq}"),
                            );
                            self.emit(conn, seq, None);
                            conn.closing.store(true, Ordering::Relaxed);
                            return;
                        }
                    }
                }
                Ok(None) => {
                    if traced {
                        self.tracer.span(
                            SpanEvent::StageEnd {
                                stage: Stage::Decode,
                                seq: SEQ_NONE,
                            },
                            id,
                        );
                    }
                    // No complete request in the inbox. If the peer has
                    // already half-closed, whatever fragment remains can
                    // never complete — reap the connection now rather
                    // than holding it until the O7 idle sweep. (The
                    // decode lock serializes with any concurrent decode,
                    // and the dispatcher set `peer_eof` before submitting
                    // this final process pass.)
                    if conn.peer_eof.load(Ordering::Relaxed) && !conn.inbox.lock().is_empty() {
                        conn.inbox.lock().clear();
                        conn.closing.store(true, Ordering::Relaxed);
                    }
                    return;
                }
                Err(e) => {
                    ServerStats::bump(&self.stats.protocol_errors);
                    if traced {
                        self.tracer.span(
                            SpanEvent::StageEnd {
                                stage: Stage::Decode,
                                seq: SEQ_NONE,
                            },
                            id,
                        );
                        self.tracer.record(
                            EventKind::Readable,
                            Some(id),
                            format!("decode error: {e}"),
                        );
                    }
                    conn.inbox.lock().clear();
                    *decode_state = DecodeState::default();
                    conn.closing.store(true, Ordering::Relaxed);
                    return;
                }
            }
        }
    }

    fn apply_action(&self, conn: &Arc<ConnShared>, seq: u64, action: Action<C::Response>) {
        match action {
            Action::Reply(resp) => self.finish(conn, seq, resp, false),
            Action::ReplyClose(resp) => self.finish(conn, seq, resp, true),
            Action::NoReply => {
                self.emit(conn, seq, None);
            }
            Action::Close => {
                self.emit(conn, seq, None);
                conn.closing.store(true, Ordering::Relaxed);
            }
            Action::Defer(job) => self.defer(conn, seq, job, false),
            Action::DeferClose(job) => self.defer(conn, seq, job, true),
        }
    }

    fn defer(
        &self,
        conn: &Arc<ConnShared>,
        seq: u64,
        job: Box<dyn FnOnce() -> C::Response + Send>,
        close_after: bool,
    ) {
        ServerStats::bump(&self.stats.blocking_ops);
        let token = CompletionToken { conn: conn.id, seq };
        match (&self.helper, &self.completion_tx) {
            (Some(helper), Some(tx)) => {
                // O4 = Asynchronous: run on the helper pool; the result
                // re-enters the framework as a completion event.
                if close_after {
                    conn.closing.store(true, Ordering::Relaxed);
                }
                let tx = tx.clone();
                let notifier = self.notifier.clone();
                self.tracer.span(SpanEvent::Defer { seq }, conn.id);
                helper.submit(move || {
                    let resp = job();
                    let _ = tx.send((token, resp));
                    // Dispatcher 0 drains the completion channel; pull it
                    // out of its poller wait.
                    notifier.wake_completion_sink();
                });
            }
            _ => {
                // O4 = Synchronous: block in place on this worker thread.
                // Replies queued ahead of this one must not wait out the
                // block — an FTP `227` has to reach the client while the
                // deferred transfer waits to accept the data connection
                // it announced — so they are sent first.
                self.send_reply(conn);
                diag::stamp_stage(Stage::Handle, conn.id);
                let resp = job();
                // Back from the blocking call: the rest of the work item
                // is not as old as the call was long.
                diag::stamp_stage_fresh(Stage::Encode, conn.id);
                self.finish(conn, seq, resp, close_after);
            }
        }
    }

    fn handle_completion(&self, conn: &Arc<ConnShared>, token: CompletionToken, resp: C::Response) {
        self.tracer
            .span(SpanEvent::Complete { seq: token.seq }, token.conn);
        // DeferClose already set `closing`; `finish` must not clear it.
        let close_after = conn.closing.load(Ordering::Relaxed);
        self.finish(conn, token.seq, resp, close_after);
    }

    fn finish(&self, conn: &Arc<ConnShared>, seq: u64, resp: C::Response, close_after: bool) {
        let mut out = EncodedReply::new();
        let encode_started = self.metrics.is_enabled().then(std::time::Instant::now);
        diag::stamp_stage(Stage::Encode, conn.id);
        if self.tracer.is_enabled() {
            self.tracer.span(
                SpanEvent::StageBegin {
                    stage: Stage::Encode,
                    seq,
                },
                conn.id,
            );
        }
        let encoded = self.codec.encode_reply(&resp, &mut out);
        if let Some(t0) = encode_started {
            self.metrics
                .record_stage(Stage::Encode, t0.elapsed().as_micros() as u64);
        }
        match encoded {
            Ok(()) => {
                let n = out.len();
                self.tracer.span(SpanEvent::Encode { seq }, conn.id);
                let emitted = self.emit(conn, seq, Some(out));
                ServerStats::add(&self.stats.responses_sent, emitted as u64);
                if let Some(log) = &self.logger {
                    log(&format!("{} seq={} bytes={}", conn.peer, seq, n));
                }
            }
            Err(e) => {
                ServerStats::bump(&self.stats.protocol_errors);
                if self.tracer.is_enabled() {
                    self.tracer.span(
                        SpanEvent::StageEnd {
                            stage: Stage::Encode,
                            seq,
                        },
                        conn.id,
                    );
                    self.tracer.record(
                        EventKind::Readable,
                        Some(conn.id),
                        format!("encode error: {e}"),
                    );
                }
                self.emit(conn, seq, None);
                conn.closing.store(true, Ordering::Relaxed);
            }
        }
        if close_after {
            conn.closing.store(true, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::MemoryLogger;
    use std::collections::HashMap;

    /// Line-delimited codec for tests: requests and responses are lines.
    struct LineCodec;

    impl Codec for LineCodec {
        type Request = String;
        type Response = String;

        fn decode(&self, buf: &mut BytesMut) -> Result<Option<String>, ProtocolError> {
            if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                let line = buf.split_to(pos + 1);
                let s = std::str::from_utf8(&line[..pos])
                    .map_err(|_| ProtocolError("not utf8".into()))?;
                if s == "BAD" {
                    return Err(ProtocolError("bad request".into()));
                }
                Ok(Some(s.to_string()))
            } else {
                Ok(None)
            }
        }

        fn encode(&self, resp: &String, out: &mut BytesMut) -> Result<(), ProtocolError> {
            out.extend_from_slice(resp.as_bytes());
            out.extend_from_slice(b"\n");
            Ok(())
        }
    }

    /// Echo service with special commands.
    struct EchoService;

    impl Service<LineCodec> for EchoService {
        fn handle(&self, _ctx: &ConnCtx, req: String) -> Action<String> {
            match req.as_str() {
                "quit" => Action::ReplyClose("bye".into()),
                "silent" => Action::NoReply,
                "drop" => Action::Close,
                "slow" => Action::Defer(Box::new(|| "slept".to_string())),
                other => Action::Reply(format!("echo:{other}")),
            }
        }
    }

    fn engine(sync: bool) -> (Engine<LineCodec, EchoService>, MemoryLogger) {
        let logger = MemoryLogger::new();
        let (helper, tx) = if sync {
            (None, None)
        } else {
            // For unit tests we run completions through a channel drained
            // manually below.
            let (tx, _rx) = std::sync::mpsc::channel();
            (Some(Arc::new(HelperPool::new(1))), Some(tx))
        };
        (
            Engine {
                codec: Arc::new(LineCodec),
                service: Arc::new(EchoService),
                registry: Arc::new(RwLock::new(HashMap::new())),
                stats: ServerStats::new_shared(),
                metrics: MetricsRegistry::enabled(),
                tracer: DebugTracer::enabled(64),
                logger: Some(logger.as_hook()),
                helper,
                completion_tx: tx,
                notifier: DispatchNotifier::disabled(),
                syscalls: SyscallCounters::new_shared(),
            },
            logger,
        )
    }

    fn register(e: &Engine<LineCodec, EchoService>, id: ConnId) -> Arc<ConnShared> {
        let conn = ConnShared::new(id, format!("peer-{id}"), Priority(0));
        e.registry.write().insert(id, Arc::clone(&conn));
        conn
    }

    fn feed(conn: &Arc<ConnShared>, bytes: &[u8]) {
        conn.inbox.lock().extend_from_slice(bytes);
    }

    fn outbox_string(conn: &Arc<ConnShared>) -> String {
        String::from_utf8(conn.outbox.lock().to_vec()).unwrap()
    }

    #[test]
    fn decode_handle_encode_round_trip() {
        let (e, logger) = engine(true);
        let conn = register(&e, 1);
        feed(&conn, b"hello\nworld\n");
        e.handle_work(Work::Process(1));
        assert_eq!(outbox_string(&conn), "echo:hello\necho:world\n");
        assert_eq!(e.stats.snapshot().requests_decoded, 2);
        assert_eq!(e.stats.snapshot().responses_sent, 2);
        assert_eq!(logger.lines().len(), 2);
        assert!(!conn.closing.load(Ordering::Relaxed));
    }

    #[test]
    fn partial_request_waits_for_more_bytes() {
        let (e, _) = engine(true);
        let conn = register(&e, 1);
        feed(&conn, b"hel");
        e.handle_work(Work::Process(1));
        assert_eq!(outbox_string(&conn), "");
        feed(&conn, b"lo\n");
        e.handle_work(Work::Process(1));
        assert_eq!(outbox_string(&conn), "echo:hello\n");
    }

    #[test]
    fn reply_close_marks_closing_after_reply() {
        let (e, _) = engine(true);
        let conn = register(&e, 1);
        feed(&conn, b"quit\n");
        e.handle_work(Work::Process(1));
        assert_eq!(outbox_string(&conn), "bye\n");
        assert!(conn.closing.load(Ordering::Relaxed));
    }

    #[test]
    fn close_without_reply() {
        let (e, _) = engine(true);
        let conn = register(&e, 1);
        feed(&conn, b"drop\nignored\n");
        e.handle_work(Work::Process(1));
        assert_eq!(outbox_string(&conn), "");
        assert!(conn.closing.load(Ordering::Relaxed));
    }

    #[test]
    fn no_reply_requests_do_not_block_ordering() {
        let (e, _) = engine(true);
        let conn = register(&e, 1);
        feed(&conn, b"silent\nhello\n");
        e.handle_work(Work::Process(1));
        assert_eq!(outbox_string(&conn), "echo:hello\n");
    }

    #[test]
    fn decode_error_closes_and_counts() {
        let (e, _) = engine(true);
        let conn = register(&e, 1);
        feed(&conn, b"BAD\nnever\n");
        e.handle_work(Work::Process(1));
        assert!(conn.closing.load(Ordering::Relaxed));
        assert_eq!(e.stats.snapshot().protocol_errors, 1);
        assert_eq!(outbox_string(&conn), "");
        assert!(conn.inbox.lock().is_empty(), "inbox discarded on error");
    }

    #[test]
    fn synchronous_defer_blocks_in_place() {
        let (e, _) = engine(true);
        let conn = register(&e, 1);
        feed(&conn, b"slow\nafter\n");
        e.handle_work(Work::Process(1));
        // Synchronous mode: both replies already emitted, in order.
        assert_eq!(outbox_string(&conn), "slept\necho:after\n");
        assert_eq!(e.stats.snapshot().blocking_ops, 1);
    }

    #[test]
    fn completions_are_reordered_to_request_order() {
        let (e, _) = engine(true);
        let conn = register(&e, 1);
        // Simulate three async requests completing out of order.
        let s0 = conn.assign_seq();
        let s1 = conn.assign_seq();
        let s2 = conn.assign_seq();
        e.handle_work(Work::Completion(
            CompletionToken { conn: 1, seq: s2 },
            "two".into(),
        ));
        assert_eq!(outbox_string(&conn), "", "seq 2 held back");
        assert!(conn.responses_pending());
        e.handle_work(Work::Completion(
            CompletionToken { conn: 1, seq: s0 },
            "zero".into(),
        ));
        assert_eq!(outbox_string(&conn), "zero\n");
        e.handle_work(Work::Completion(
            CompletionToken { conn: 1, seq: s1 },
            "one".into(),
        ));
        assert_eq!(outbox_string(&conn), "zero\none\ntwo\n");
        assert!(!conn.responses_pending());
        assert_eq!(e.stats.snapshot().responses_sent, 3);
    }

    /// `ConnShared::complete` as it was when every completion went through
    /// the reorder map, over a flat outbox: the reference for the path
    /// that lets an in-order reply skip the map.
    #[derive(Default)]
    struct MapOnly {
        next_emit: u64,
        ready: BTreeMap<u64, Option<Vec<u8>>>,
        outbox: Vec<u8>,
    }

    impl MapOnly {
        fn complete(&mut self, seq: u64, reply: Option<Vec<u8>>) -> (usize, usize) {
            let mut emitted = 0;
            self.ready.insert(seq, reply);
            while let Some(entry) = self.ready.remove(&self.next_emit) {
                if let Some(r) = entry {
                    self.outbox.extend_from_slice(&r);
                    emitted += 1;
                }
                self.next_emit += 1;
            }
            (emitted, self.outbox.len())
        }
    }

    #[test]
    fn in_order_and_out_of_order_completions_match_the_map_only_path() {
        for seed in 0..50u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut rand = move |n: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % n
            };
            let conn = ConnShared::new(seed, "peer".into(), Priority(0));
            let mut model = MapOnly::default();
            // Runs of requests completed in order (the Reactor path),
            // between windows completed in a shuffled order (the Proactor
            // path); every fifth reply or so is "no reply".
            let mut pending: Vec<u64> = Vec::new();
            for _ in 0..40 {
                let window = 1 + rand(6);
                pending.extend((0..window).map(|_| conn.assign_seq()));
                if rand(2) == 0 {
                    for i in (1..pending.len()).rev() {
                        pending.swap(i, rand(i as u64 + 1) as usize);
                    }
                }
                // Leave some of a shuffled window for later rounds.
                let keep = rand(pending.len() as u64) as usize * rand(2) as usize;
                for seq in pending.split_off(keep) {
                    let bytes = (rand(5) > 0).then(|| format!("<{seq}>").into_bytes());
                    let reply = bytes.clone().map(|b| {
                        let mut r = EncodedReply::new();
                        r.push_bytes(BytesMut::from(&b[..]));
                        r
                    });
                    assert_eq!(
                        conn.complete(seq, reply),
                        model.complete(seq, bytes),
                        "seed {seed}, seq {seq}"
                    );
                    assert_eq!(conn.outbox.lock().to_vec(), model.outbox, "seed {seed}");
                    assert_eq!(
                        conn.responses_pending(),
                        model.next_emit < conn.next_assign.load(Ordering::Relaxed)
                    );
                }
                // Send Reply takes some of what is queued.
                let sent = rand(model.outbox.len() as u64 + 1) as usize;
                conn.outbox.lock().advance(sent);
                model.outbox.drain(..sent);
            }
            for seq in pending {
                assert_eq!(conn.complete(seq, None), model.complete(seq, None));
            }
            assert!(!conn.responses_pending(), "seed {seed}: everything emitted");
            assert!(conn.send.lock().ready.is_empty());
        }
    }

    #[test]
    fn in_order_completions_bypass_the_reorder_map() {
        let conn = ConnShared::new(1, "peer".into(), Priority(0));
        let reply = || {
            let mut r = EncodedReply::new();
            r.push_bytes(BytesMut::from(&b"r"[..]));
            Some(r)
        };
        // Next in order: a reply, then "no reply", both straight through.
        let s0 = conn.assign_seq();
        assert_eq!(conn.complete(s0, reply()), (1, 1));
        let s1 = conn.assign_seq();
        assert_eq!(conn.complete(s1, None), (0, 1));
        assert!(!conn.responses_pending());
        // A dead sink swallows the payload and still moves the sequence.
        conn.sink_dead.store(true, Ordering::Relaxed);
        let s2 = conn.assign_seq();
        assert_eq!(conn.complete(s2, reply()), (0, 1));
        assert!(!conn.responses_pending());
        assert!(conn.send.lock().ready.is_empty(), "nothing was parked");
        // Out of order parks; the one it waited for releases both, dead
        // sink or not.
        let (s3, s4) = (conn.assign_seq(), conn.assign_seq());
        assert_eq!(conn.complete(s4, reply()), (0, 1));
        assert_eq!(conn.send.lock().ready.len(), 1);
        assert!(conn.responses_pending());
        assert_eq!(conn.complete(s3, reply()), (0, 1));
        assert!(!conn.responses_pending());
        assert!(conn.send.lock().ready.is_empty());
        assert_eq!(conn.outbox.lock().to_vec(), b"r");
    }

    #[test]
    fn work_for_unknown_connection_is_ignored() {
        let (e, _) = engine(true);
        e.handle_work(Work::Process(99));
        e.handle_work(Work::Completion(
            CompletionToken { conn: 99, seq: 0 },
            "x".into(),
        ));
        assert_eq!(e.stats.snapshot().responses_sent, 0);
    }

    #[test]
    fn raw_codec_passes_bytes_through() {
        let c = RawCodec;
        let mut buf = BytesMut::from(&b"abc"[..]);
        let req = c.decode(&mut buf).unwrap().unwrap();
        assert_eq!(req, b"abc");
        assert!(c.decode(&mut buf).unwrap().is_none());
        let mut out = BytesMut::new();
        c.encode(&b"xyz".to_vec(), &mut out).unwrap();
        assert_eq!(&out[..], b"xyz");
    }

    #[test]
    fn outbox_interleaves_owned_and_shared_segments_in_order() {
        let mut out = Outbox::new();
        out.extend_from_slice(b"greeting|");
        let body = Arc::new(b"SHARED-BODY".to_vec());
        let mut reply = EncodedReply::new();
        reply.push_bytes(BytesMut::from(&b"head|"[..]));
        reply.push_shared(Arc::clone(&body));
        assert_eq!(reply.len(), 16);
        out.push_reply(reply);
        out.extend_from_slice(b"|tail");
        assert_eq!(out.len(), 9 + 16 + 5);
        assert_eq!(out.to_vec(), b"greeting|head|SHARED-BODY|tail");
        // The queued body is the cache's allocation, not a copy.
        assert_eq!(Arc::strong_count(&body), 2);
    }

    #[test]
    fn outbox_advance_crosses_segment_boundaries() {
        let mut out = Outbox::new();
        out.extend_from_slice(b"abc");
        let mut reply = EncodedReply::new();
        reply.push_shared(Arc::new(b"defgh".to_vec()));
        out.push_reply(reply);
        // Drain in chunk sizes that straddle the owned/shared boundary.
        let mut drained = Vec::new();
        while let Some(chunk) = out.front_chunk() {
            let take = chunk.len().min(2);
            drained.extend_from_slice(&chunk[..take]);
            out.advance(take);
        }
        assert_eq!(drained, b"abcdefgh");
        assert!(out.is_empty());
        assert_eq!(out.len(), 0);
    }

    #[test]
    fn outbox_clear_drops_everything() {
        let mut out = Outbox::new();
        out.extend_from_slice(b"xyz");
        let mut reply = EncodedReply::new();
        reply.push_shared(Arc::new(vec![1, 2, 3]));
        out.push_reply(reply);
        assert!(!out.is_empty());
        out.clear();
        assert!(out.is_empty());
        assert!(out.front_chunk().is_none());
        assert!(out.to_vec().is_empty());
    }

    #[test]
    fn empty_segments_are_never_queued() {
        let mut reply = EncodedReply::new();
        reply.push_bytes(BytesMut::new());
        reply.push_shared(Arc::new(Vec::new()));
        assert!(reply.is_empty());
        let mut out = Outbox::new();
        out.push_reply(reply);
        out.extend_from_slice(b"");
        assert!(out.is_empty());
        assert!(out.front_chunk().is_none());
    }

    #[test]
    fn a_reply_keeps_push_order_past_its_one_shared_payload() {
        let mut reply = EncodedReply::new();
        reply.push_bytes(BytesMut::from(&b"a"[..]));
        reply.push_bytes(BytesMut::from(&b"b"[..]));
        let first = Arc::new(b"FIRST".to_vec());
        let second = Arc::new(b"SECOND".to_vec());
        reply.push_shared(Arc::clone(&first));
        reply.push_shared(Arc::clone(&second));
        reply.push_bytes(BytesMut::from(&b"z"[..]));
        assert_eq!(reply.len(), 14);
        let mut out = Outbox::new();
        out.push_reply(reply);
        assert_eq!(out.to_vec(), b"abFIRSTSECONDz");
        // The first payload rides by reference, the second was copied.
        assert_eq!(Arc::strong_count(&first), 2);
        assert_eq!(Arc::strong_count(&second), 1);
    }

    #[test]
    fn a_shared_head_rides_by_reference_ahead_of_the_body() {
        let head = Arc::new(b"HEAD|".to_vec());
        let body = Arc::new(b"BODY".to_vec());
        let mut reply = EncodedReply::new();
        reply.push_shared_head(Arc::clone(&head));
        reply.push_shared(Arc::clone(&body));
        reply.push_bytes(BytesMut::from(&b"|z"[..]));
        assert_eq!(reply.len(), 11);
        let mut out = Outbox::new();
        out.push_reply(reply);
        assert_eq!(out.len(), 11);
        assert_eq!(out.to_vec(), b"HEAD|BODY|z");
        assert_eq!(Arc::strong_count(&head), 2, "queued, not copied");
        assert_eq!(Arc::strong_count(&body), 2);
        // Sent across the boundary between the two shared segments.
        out.advance(7);
        assert_eq!(out.front_chunk(), Some(&b"DY"[..]));
        assert_eq!(Arc::strong_count(&head), 1, "a sent head is let go");
        // On a reply that already holds bytes a head is one more push.
        let mut reply = EncodedReply::new();
        reply.push_bytes(BytesMut::from(&b"a"[..]));
        reply.push_shared_head(Arc::clone(&head));
        reply.push_shared(Arc::clone(&body));
        reply.push_shared_head(Arc::clone(&head));
        reply.push_shared_head(Arc::new(Vec::new()));
        let mut out = Outbox::new();
        out.push_reply(reply);
        assert_eq!(out.to_vec(), b"aHEAD|BODYHEAD|");
        assert_eq!(Arc::strong_count(&head), 1, "copied both times");
    }

    #[test]
    fn default_encode_reply_matches_encode() {
        let codec = LineCodec;
        let resp = "hello".to_string();
        let mut flat = BytesMut::new();
        codec.encode(&resp, &mut flat).unwrap();
        let mut reply = EncodedReply::new();
        codec.encode_reply(&resp, &mut reply).unwrap();
        let mut out = Outbox::new();
        out.push_reply(reply);
        assert_eq!(out.to_vec(), flat.to_vec());
    }

    #[test]
    fn conn_shared_ctx_snapshot() {
        let conn = ConnShared::new(7, "1.2.3.4:5".into(), Priority(2));
        let ctx = conn.ctx();
        assert_eq!(ctx.id, 7);
        assert_eq!(ctx.peer, "1.2.3.4:5");
        assert_eq!(ctx.priority, Priority(2));
    }
}
