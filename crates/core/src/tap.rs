//! Conformance trace tap: transport wrappers that record every observable
//! byte-level event of each accepted connection as an ordered trace.
//!
//! The tap sits **outside** the fault layer (`Tap ∘ Faulty ∘ Mem`), so what
//! it records is exactly what the framework observed: reads are post-fault
//! (corrupted / short / suppressed bytes as the decoder saw them), writes
//! are the bytes the transport actually accepted, and injected resets show
//! up as the I/O errors the reactor had to handle. The conformance crate
//! replays these traces against executable protocol models; anything the
//! model rejects is either a framework bug or a model bug — both worth
//! knowing about.
//!
//! The wrappers mirror [`crate::fault`]'s delegation pattern: a
//! [`TapListener`] stamps each accepted stream with a fresh per-connection
//! trace, [`TapStream`] records the I/O events, and [`TapPoller`] is a pure
//! pass-through.

use std::io::{self, IoSlice};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::fault::FaultPlan;
use crate::transport::{Interest, Listener, PollEvent, Poller, ReadOutcome, StreamIo, Waker};

/// One observable event on a tapped connection, in occurrence order.
///
/// This is the trace alphabet the conformance models consume. `Read` and
/// `Wrote` carry the actual bytes; error events carry the error text so a
/// model can distinguish injected resets from other failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TapEvent {
    /// Bytes the server read from the stream (post-fault: what the
    /// decoder actually consumed).
    Read(Vec<u8>),
    /// The peer closed its write side (`ReadOutcome::Closed`): half-close
    /// observed by the server.
    ReadEof,
    /// A read attempt failed hard (e.g. injected reset).
    ReadError(String),
    /// Bytes the transport accepted from the server ("on the wire").
    Wrote(Vec<u8>),
    /// A write attempt failed hard. A conforming server stops writing once
    /// a connection's sink is dead, so at most one of these may appear —
    /// any `Wrote`/`WriteError` *after* the first hard error is a
    /// model violation (a reply written to a reset peer).
    WriteError(String),
    /// The server shut the stream down.
    Shutdown,
    /// The server half-closed: FIN sent, read side kept open. The stamp
    /// that distinguishes a FIN-first lingering close (this, then reads,
    /// then `Shutdown`) from a hard close (`Shutdown` with no FIN).
    ShutdownWrite,
}

/// Causal link from a secondary (data) connection's trace back to the
/// control connection that announced it (FTP PASV/PORT).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataParent {
    /// `accept_index` of the owning control connection's trace.
    pub control_accept_index: u64,
    /// 1-based ordinal of the transfer attempt within that control
    /// connection (each listener-consuming transfer command ticks it,
    /// whether or not a data socket was ultimately accepted).
    pub transfer_ordinal: u32,
}

/// The ordered observable trace of one accepted connection.
#[derive(Debug, Clone)]
pub struct ConnTrace {
    /// 1-based accept index (aligned with [`FaultPlan::profile_for`]).
    /// Data-connection traces inherit their parent's index so violations
    /// attribute to the control connection that owns the transfer.
    pub accept_index: u64,
    /// Peer label reported by the transport.
    pub peer: String,
    /// Debug rendering of the injected fault profile, `"Clean"` when the
    /// tap wraps an un-faulted transport.
    pub profile: String,
    /// The events, in occurrence order.
    pub events: Vec<TapEvent>,
    /// Log-global sequence number of each event, aligned with `events`.
    /// All traces opened by one [`TraceLog`] share a single counter, so
    /// cross-connection ordering (e.g. "data socket closed before the
    /// control 226 was written") is decidable. Hand-built traces may
    /// leave this empty; ordering checks are then skipped.
    pub seqs: Vec<u64>,
    /// `Some` when this is a secondary (data) connection trace.
    pub parent: Option<DataParent>,
}

impl ConnTrace {
    /// Build a trace outside any [`TraceLog`] (tests and model fixtures):
    /// no sequence stamps, no parent.
    pub fn synthetic(
        accept_index: u64,
        peer: &str,
        profile: &str,
        events: Vec<TapEvent>,
    ) -> ConnTrace {
        ConnTrace {
            accept_index,
            peer: peer.to_string(),
            profile: profile.to_string(),
            events,
            seqs: Vec::new(),
            parent: None,
        }
    }

    /// True for secondary (data) connection traces.
    pub fn is_data(&self) -> bool {
        self.parent.is_some()
    }

    /// Log-global sequence number of the last recorded event, if stamped.
    pub fn last_seq(&self) -> Option<u64> {
        self.seqs.last().copied()
    }

    /// Sequence number of the `Wrote` event that carried the outbound
    /// byte at `offset` (an index into [`ConnTrace::outbound`]). `None`
    /// when the offset was never written or the trace is unstamped.
    pub fn seq_at_outbound_offset(&self, offset: usize) -> Option<u64> {
        let mut end = 0usize;
        for (i, e) in self.events.iter().enumerate() {
            if let TapEvent::Wrote(b) = e {
                end += b.len();
                if offset < end {
                    return self.seqs.get(i).copied();
                }
            }
        }
        None
    }
    /// All bytes the server read, concatenated in order (the decoder's
    /// exact input stream).
    pub fn inbound(&self) -> Vec<u8> {
        let mut v = Vec::new();
        for e in &self.events {
            if let TapEvent::Read(b) = e {
                v.extend_from_slice(b);
            }
        }
        v
    }

    /// All bytes the server put on the wire, concatenated in order (the
    /// peer's exact view of the response stream).
    pub fn outbound(&self) -> Vec<u8> {
        let mut v = Vec::new();
        for e in &self.events {
            if let TapEvent::Wrote(b) = e {
                v.extend_from_slice(b);
            }
        }
        v
    }

    /// True if any read or write attempt failed hard (injected reset or
    /// similar) at some point in the trace.
    pub fn saw_io_error(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, TapEvent::ReadError(_) | TapEvent::WriteError(_)))
    }

    /// True if the peer's write side was seen closed (half-close).
    pub fn saw_eof(&self) -> bool {
        self.events.iter().any(|e| matches!(e, TapEvent::ReadEof))
    }
}

/// Writable handle onto one trace in a [`TraceLog`]: pushes events
/// stamped with the log-global sequence counter. Cheap to clone and safe
/// to move into data-transfer closures.
#[derive(Clone)]
pub struct TraceHandle {
    trace: Arc<Mutex<ConnTrace>>,
    seq: Arc<AtomicU64>,
}

impl TraceHandle {
    /// Append `ev`, stamping it with the next log-global sequence number.
    /// The stamp is drawn inside the trace lock so each trace's `seqs`
    /// stay strictly increasing.
    pub fn push(&self, ev: TapEvent) {
        let mut t = self.trace.lock();
        t.seqs.push(self.seq.fetch_add(1, Ordering::Relaxed));
        t.events.push(ev);
    }

    /// Append a `ReadEof` unless one was already observed (the reactor may
    /// poll a half-closed stream repeatedly; one EOF event suffices).
    pub fn push_eof_once(&self) {
        let mut t = self.trace.lock();
        if !t.events.iter().any(|e| matches!(e, TapEvent::ReadEof)) {
            t.seqs.push(self.seq.fetch_add(1, Ordering::Relaxed));
            t.events.push(TapEvent::ReadEof);
        }
    }
}

/// Shared, clonable log of every connection trace a [`TapListener`]
/// produced, plus accept-time failures. Also the registration point for
/// secondary (data) connection traces via [`TraceLog::open_data`].
#[derive(Clone, Default)]
pub struct TraceLog {
    conns: Arc<Mutex<Vec<Arc<Mutex<ConnTrace>>>>>,
    accept_failures: Arc<Mutex<Vec<u64>>>,
    seq: Arc<AtomicU64>,
}

impl TraceLog {
    /// Fresh empty log.
    pub fn new() -> Self {
        Self::default()
    }

    fn open(&self, accept_index: u64, peer: String, profile: String) -> TraceHandle {
        let trace = Arc::new(Mutex::new(ConnTrace {
            accept_index,
            peer,
            profile,
            events: Vec::new(),
            seqs: Vec::new(),
            parent: None,
        }));
        self.conns.lock().push(Arc::clone(&trace));
        TraceHandle {
            trace,
            seq: Arc::clone(&self.seq),
        }
    }

    /// Open a trace for a secondary (data) connection owned by the
    /// `conn_ord`-th *successfully accepted* primary connection (1-based
    /// — the reactor's `ConnId` order, which counts only successful
    /// accepts, unlike `accept_index` which also counts injected accept
    /// failures). `ordinal` is the 1-based transfer attempt within that
    /// connection. Returns `None` if no such primary trace exists yet.
    pub fn open_data(&self, conn_ord: u64, ordinal: u32, peer: String) -> Option<TraceHandle> {
        let conns = self.conns.lock();
        let parent = conns
            .iter()
            .filter(|t| t.lock().parent.is_none())
            .nth(usize::try_from(conn_ord.checked_sub(1)?).ok()?)?;
        let (accept_index, profile) = {
            let p = parent.lock();
            (p.accept_index, p.profile.clone())
        };
        drop(conns);
        let trace = Arc::new(Mutex::new(ConnTrace {
            accept_index,
            peer,
            profile,
            events: Vec::new(),
            seqs: Vec::new(),
            parent: Some(DataParent {
                control_accept_index: accept_index,
                transfer_ordinal: ordinal,
            }),
        }));
        self.conns.lock().push(Arc::clone(&trace));
        Some(TraceHandle {
            trace,
            seq: Arc::clone(&self.seq),
        })
    }

    fn record_accept_failure(&self, accept_index: u64) {
        self.accept_failures.lock().push(accept_index);
    }

    /// Number of connections traced so far.
    pub fn len(&self) -> usize {
        self.conns.lock().len()
    }

    /// True when no connection has been traced.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Accept indices that failed at accept time (injected accept faults).
    pub fn accept_failures(&self) -> Vec<u64> {
        self.accept_failures.lock().clone()
    }

    /// Deep-copy every per-connection trace in accept order. Traces of
    /// still-live connections reflect events so far.
    pub fn snapshot(&self) -> Vec<ConnTrace> {
        self.conns.lock().iter().map(|t| t.lock().clone()).collect()
    }
}

/// [`StreamIo`] wrapper recording each I/O event into the connection trace.
pub struct TapStream<S> {
    inner: S,
    trace: TraceHandle,
    shutdown_logged: bool,
}

impl<S: StreamIo> StreamIo for TapStream<S> {
    fn try_read(&mut self, buf: &mut [u8]) -> io::Result<ReadOutcome> {
        match self.inner.try_read(buf) {
            Ok(ReadOutcome::Data(n)) => {
                self.trace.push(TapEvent::Read(buf[..n].to_vec()));
                Ok(ReadOutcome::Data(n))
            }
            Ok(ReadOutcome::WouldBlock) => Ok(ReadOutcome::WouldBlock),
            Ok(ReadOutcome::Closed) => {
                self.trace.push_eof_once();
                Ok(ReadOutcome::Closed)
            }
            Err(e) => {
                self.trace.push(TapEvent::ReadError(e.to_string()));
                Err(e)
            }
        }
    }

    fn try_write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.try_write_vectored(&[IoSlice::new(data)])
    }

    /// One gathered write is one `Wrote` event holding exactly the bytes
    /// the inner stream reported written, wherever in the slices the
    /// count ends.
    fn try_write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match self.inner.try_write_vectored(bufs) {
            Ok(0) => Ok(0),
            Ok(n) => {
                let mut wrote = Vec::with_capacity(n);
                for b in bufs {
                    let take = b.len().min(n - wrote.len());
                    wrote.extend_from_slice(&b[..take]);
                }
                self.trace.push(TapEvent::Wrote(wrote));
                Ok(n)
            }
            Err(e) => {
                self.trace.push(TapEvent::WriteError(e.to_string()));
                Err(e)
            }
        }
    }

    fn peer_label(&self) -> String {
        self.inner.peer_label()
    }

    fn shutdown(&mut self) {
        if !self.shutdown_logged {
            self.shutdown_logged = true;
            self.trace.push(TapEvent::Shutdown);
        }
        self.inner.shutdown();
    }

    fn shutdown_write(&mut self) {
        self.trace.push(TapEvent::ShutdownWrite);
        self.inner.shutdown_write();
    }
}

/// [`Poller`] wrapper: pure delegation to the inner poller.
pub struct TapPoller<P> {
    inner: P,
}

impl<P: Poller> Poller for TapPoller<P> {
    type Stream = TapStream<P::Stream>;

    fn register(
        &mut self,
        token: u64,
        stream: &Self::Stream,
        interest: Interest,
    ) -> io::Result<()> {
        self.inner.register(token, &stream.inner, interest)
    }

    fn reregister(
        &mut self,
        token: u64,
        stream: &Self::Stream,
        interest: Interest,
    ) -> io::Result<()> {
        self.inner.reregister(token, &stream.inner, interest)
    }

    fn deregister(&mut self, token: u64, stream: &Self::Stream) -> io::Result<()> {
        self.inner.deregister(token, &stream.inner)
    }

    fn wait(&mut self, events: &mut Vec<PollEvent>, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.wait(events, timeout)
    }

    fn waker(&self) -> Waker {
        self.inner.waker()
    }
}

/// [`Listener`] wrapper opening a fresh [`ConnTrace`] per accepted stream.
///
/// When the wrapped listener is a [`crate::fault::FaultyListener`], pass
/// the same [`FaultPlan`] via [`TapListener::with_plan`] so each trace is
/// stamped with the profile the fault layer will apply; the tap counts
/// accepts (including injected accept failures, which consume an accept
/// index inside the fault layer) to stay aligned with
/// [`FaultPlan::profile_for`].
pub struct TapListener<L> {
    inner: L,
    log: TraceLog,
    plan: Option<FaultPlan>,
    accepted: u64,
}

impl<L: Listener> TapListener<L> {
    /// Tap `inner`, recording traces into `log`.
    pub fn new(inner: L, log: TraceLog) -> Self {
        Self {
            inner,
            log,
            plan: None,
            accepted: 0,
        }
    }

    /// Stamp each trace with the fault profile `plan` assigns to its
    /// accept index.
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }
}

impl<L: Listener> Listener for TapListener<L> {
    type Stream = TapStream<L::Stream>;
    type Poller = TapPoller<L::Poller>;

    fn try_accept(&mut self) -> io::Result<Option<Self::Stream>> {
        match self.inner.try_accept() {
            Ok(Some(stream)) => {
                self.accepted += 1;
                let profile = match &self.plan {
                    Some(p) => format!("{:?}", p.profile_for(self.accepted)),
                    None => "Clean".to_string(),
                };
                let trace = self.log.open(self.accepted, stream.peer_label(), profile);
                Ok(Some(TapStream {
                    inner: stream,
                    trace,
                    shutdown_logged: false,
                }))
            }
            Ok(None) => Ok(None),
            Err(e) => {
                // An injected accept failure consumed an accept index in
                // the fault layer; mirror it to stay aligned.
                self.accepted += 1;
                self.log.record_accept_failure(self.accepted);
                Err(e)
            }
        }
    }

    fn local_label(&self) -> String {
        self.inner.local_label()
    }

    fn new_poller() -> io::Result<Self::Poller> {
        Ok(TapPoller {
            inner: L::new_poller()?,
        })
    }

    fn register_listener(&self, poller: &mut Self::Poller) -> io::Result<()> {
        self.inner.register_listener(&mut poller.inner)
    }

    fn deregister_listener(&self, poller: &mut Self::Poller) -> io::Result<()> {
        self.inner.deregister_listener(&mut poller.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultyListener};
    use crate::transport::mem;

    #[test]
    fn tap_records_reads_writes_and_shutdown_in_order() {
        let (listener, connector) = mem::listener("tap");
        let log = TraceLog::new();
        let mut tapped = TapListener::new(listener, log.clone());
        let mut client = connector.connect();

        let mut server_side = tapped.try_accept().unwrap().unwrap();
        client.try_write(b"hello").unwrap();
        let mut buf = [0u8; 16];
        assert!(matches!(
            server_side.try_read(&mut buf).unwrap(),
            ReadOutcome::Data(5)
        ));
        server_side.try_write(b"world!").unwrap();
        server_side.shutdown();
        server_side.shutdown(); // idempotent: one Shutdown event

        let traces = log.snapshot();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.accept_index, 1);
        assert_eq!(t.profile, "Clean");
        assert_eq!(
            t.events,
            vec![
                TapEvent::Read(b"hello".to_vec()),
                TapEvent::Wrote(b"world!".to_vec()),
                TapEvent::Shutdown,
            ]
        );
        assert_eq!(t.inbound(), b"hello");
        assert_eq!(t.outbound(), b"world!");
        assert!(!t.saw_io_error());
    }

    #[test]
    fn tap_over_faults_records_post_fault_bytes_and_errors() {
        // Corrupt{every: 2} flips every 2nd inbound byte; the tap must see
        // the corrupted stream (what the decoder saw), not the original.
        let plan = FaultPlan {
            corrupt_per_mille: 1000,
            ..FaultPlan::new(1)
        };
        // Find a seed/index where profile 1 actually corrupts.
        assert!(matches!(
            plan.profile_for(1),
            crate::fault::FaultProfile::Corrupt { .. }
        ));
        let (listener, connector) = mem::listener("tap-fault");
        let log = TraceLog::new();
        let mut tapped =
            TapListener::new(FaultyListener::new(listener, plan), log.clone()).with_plan(plan);
        let mut client = connector.connect();
        let mut server_side = tapped.try_accept().unwrap().unwrap();
        client.try_write(b"aaaa").unwrap();
        let mut buf = [0u8; 16];
        let n = match server_side.try_read(&mut buf).unwrap() {
            ReadOutcome::Data(n) => n,
            other => panic!("{other:?}"),
        };
        let traces = log.snapshot();
        assert_eq!(
            traces[0].inbound(),
            buf[..n].to_vec(),
            "tap sees decoder bytes"
        );
        assert_ne!(traces[0].inbound(), b"aaaa".to_vec(), "corruption visible");
        assert!(
            traces[0].profile.contains("Corrupt"),
            "{}",
            traces[0].profile
        );
    }

    #[test]
    fn a_gathered_write_is_one_wrote_event_of_exactly_the_bytes_written() {
        // ShortIo below the tap cuts the gather after 1–7 bytes — in
        // either slice; the tap must record exactly those bytes, once.
        let plan = FaultPlan {
            short_io_per_mille: 1000,
            ..FaultPlan::new(3)
        };
        let crate::fault::FaultProfile::ShortIo { cap } = plan.profile_for(1) else {
            panic!("plan must draw ShortIo");
        };
        let (listener, connector) = mem::listener("tap-gather");
        let log = TraceLog::new();
        let mut tapped =
            TapListener::new(FaultyListener::new(listener, plan), log.clone()).with_plan(plan);
        let _client = connector.connect();
        let mut server_side = tapped.try_accept().unwrap().unwrap();
        let gather = [IoSlice::new(b"ab"), IoSlice::new(b"cdefghij")];
        assert_eq!(server_side.try_write_vectored(&gather).unwrap(), 0);
        let n = server_side.try_write_vectored(&gather).unwrap();
        assert_eq!(n, cap.min(10));
        assert_eq!(
            log.snapshot()[0].events,
            vec![TapEvent::Wrote(b"abcdefghij"[..n].to_vec())]
        );
    }

    #[test]
    fn data_traces_join_to_their_control_connection() {
        let (listener, connector) = mem::listener("tap-data");
        let log = TraceLog::new();
        let mut tapped = TapListener::new(listener, log.clone());
        let mut client = connector.connect();
        let mut server_side = tapped.try_accept().unwrap().unwrap();
        server_side.try_write(b"227 ok\r\n").unwrap();
        // ConnId order is 1-based over successful accepts.
        let data = log
            .open_data(1, 1, "data-peer".into())
            .expect("parent exists");
        data.push(TapEvent::Wrote(b"payload".to_vec()));
        data.push(TapEvent::Shutdown);
        server_side.try_write(b"226 done\r\n").unwrap();

        let traces = log.snapshot();
        assert_eq!(traces.len(), 2);
        let (control, child) = (&traces[0], &traces[1]);
        assert!(!control.is_data());
        assert!(child.is_data());
        let parent = child.parent.unwrap();
        assert_eq!(parent.control_accept_index, control.accept_index);
        assert_eq!(parent.transfer_ordinal, 1);
        assert_eq!(child.accept_index, control.accept_index);
        // Global sequencing: the data-socket close precedes the control
        // write that follows it; the first control write precedes all
        // data events.
        let offset_226 = b"227 ok\r\n".len();
        assert!(child.last_seq().unwrap() < control.seq_at_outbound_offset(offset_226).unwrap());
        assert!(control.seq_at_outbound_offset(0).unwrap() < child.seqs[0]);
        assert!(control.seq_at_outbound_offset(999).is_none());
        // Unknown parent ordinal → no trace opened.
        assert!(log.open_data(5, 1, "x".into()).is_none());
        client.shutdown();
    }

    #[test]
    fn half_close_is_recorded_once() {
        let (listener, connector) = mem::listener("tap-eof");
        let log = TraceLog::new();
        let mut tapped = TapListener::new(listener, log.clone());
        let mut client = connector.connect();
        let mut server_side = tapped.try_accept().unwrap().unwrap();
        client.shutdown();
        let mut buf = [0u8; 4];
        assert!(matches!(
            server_side.try_read(&mut buf).unwrap(),
            ReadOutcome::Closed
        ));
        assert!(matches!(
            server_side.try_read(&mut buf).unwrap(),
            ReadOutcome::Closed
        ));
        let t = &log.snapshot()[0];
        assert_eq!(t.events, vec![TapEvent::ReadEof]);
        assert!(t.saw_eof());
    }
}
