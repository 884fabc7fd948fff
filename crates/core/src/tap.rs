//! Conformance trace tap: a transport layer that records every observable
//! byte-level event of each accepted connection as an ordered trace.
//!
//! A layer observes what the layers inside it did. Stacked **outside**
//! the fault layer (`tap::layer(fault::layer(mem, plan), log)`), the tap
//! records exactly what the framework observed: reads are post-fault
//! (corrupted / short / suppressed bytes as the decoder saw them), writes
//! are the bytes the transport actually accepted, and injected resets show
//! up as the I/O errors the reactor had to handle. The conformance crate
//! replays these traces against executable protocol models; anything the
//! model rejects is either a framework bug or a model bug — both worth
//! knowing about.
//!
//! The layer is two hooks over [`Layered`]: the [`TraceLog`] itself is
//! the accept hook, opening a fresh trace per accepted stream under the
//! adapter's accept ordinal — or, for a socket a data listener
//! ([`Listener::data_listener`]) accepted, a child trace joined to its
//! control connection's — and that trace's [`TraceHandle`] is the
//! connection hook recording the I/O events. The poller is untouched.

use std::io::{self, IoSlice};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::event::ConnId;
use crate::layer::{AcceptHook, ConnHook, Layered, NoPoll};
use crate::transport::{Listener, ReadOutcome, StreamIo};

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
    /// 1-based ordinal of the data listener within that control
    /// connection (each one the control connection opened ticks it,
    /// whether or not a data socket was ultimately accepted).
    pub transfer_ordinal: u32,
}

/// The ordered observable trace of one accepted connection.
#[derive(Debug, Clone)]
pub struct ConnTrace {
    /// 1-based accept index: the [`Layered`] adapter's accept ordinal, the
    /// same number every layer of the stack saw (so it indexes
    /// `FaultPlan::profile_for`). Data-connection traces inherit their
    /// parent's index so violations attribute to the control connection
    /// that owns the transfer.
    pub accept_index: u64,
    /// Peer label reported by the transport.
    pub peer: String,
    /// The log's stamp for this accept index ([`TraceLog::stamped`]: the
    /// debug rendering of the injected fault profile), `"Clean"` when the
    /// log has none.
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
/// stamped with the log-global sequence counter.
pub struct TraceHandle {
    trace: Arc<Mutex<ConnTrace>>,
    seq: Arc<AtomicU64>,
}

impl TraceHandle {
    /// Append `ev`, stamping it with the next log-global sequence number.
    /// The stamp is drawn inside the trace lock so each trace's `seqs`
    /// stay strictly increasing.
    fn push(&self, ev: TapEvent) {
        let mut t = self.trace.lock();
        t.seqs.push(self.seq.fetch_add(1, Ordering::Relaxed));
        t.events.push(ev);
    }

    fn push_once(&self, ev: TapEvent) {
        let mut t = self.trace.lock();
        if !t.events.contains(&ev) {
            t.seqs.push(self.seq.fetch_add(1, Ordering::Relaxed));
            t.events.push(ev);
        }
    }
}

/// Shared, clonable log of every connection trace a tap [`layer`]
/// produced — data connections' among them — plus accept-time failures.
#[derive(Clone, Default)]
pub struct TraceLog {
    conns: Arc<Mutex<Vec<Arc<Mutex<ConnTrace>>>>>,
    accept_failures: Arc<Mutex<Vec<u64>>>,
    seq: Arc<AtomicU64>,
    stamp: Option<Arc<dyn Fn(u64) -> String + Send + Sync>>,
}

impl TraceLog {
    /// Fresh empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh empty log whose traces carry `stamp(accept_index)` as their
    /// `profile`. Whoever owns the fault plan under the tap passes
    /// `move |k| format!("{:?}", plan.profile_for(k))`; the tap itself
    /// knows nothing of faults.
    pub fn stamped(stamp: impl Fn(u64) -> String + Send + Sync + 'static) -> Self {
        Self {
            stamp: Some(Arc::new(stamp)),
            ..Self::default()
        }
    }

    fn open(&self, accept_index: u64, peer: &str) -> TraceHandle {
        let profile = match &self.stamp {
            Some(stamp) => stamp(accept_index),
            None => "Clean".to_string(),
        };
        self.push_trace(ConnTrace::synthetic(
            accept_index,
            peer,
            &profile,
            Vec::new(),
        ))
    }

    fn push_trace(&self, trace: ConnTrace) -> TraceHandle {
        let trace = Arc::new(Mutex::new(trace));
        self.conns.lock().push(Arc::clone(&trace));
        TraceHandle {
            trace,
            seq: Arc::clone(&self.seq),
        }
    }

    /// Open a trace for a secondary (data) connection owned by the
    /// `control`-th *successfully accepted* primary connection (1-based
    /// — the reactor's `ConnId` order, which counts only successful
    /// accepts, unlike `accept_index` which also counts failed accepts).
    /// `ordinal` is the control connection's data listener it came
    /// through. Returns `None` if no such primary trace exists yet.
    fn open_data(&self, control: ConnId, ordinal: u32, peer: &str) -> Option<TraceHandle> {
        let conns = self.conns.lock();
        let parent = conns
            .iter()
            .filter(|t| t.lock().parent.is_none())
            .nth(usize::try_from(control.checked_sub(1)?).ok()?)?;
        let mut trace = {
            let p = parent.lock();
            ConnTrace::synthetic(p.accept_index, peer, &p.profile, Vec::new())
        };
        drop(conns);
        trace.parent = Some(DataParent {
            control_accept_index: trace.accept_index,
            transfer_ordinal: ordinal,
        });
        Some(self.push_trace(trace))
    }

    /// Number of connections traced so far.
    pub fn len(&self) -> usize {
        self.conns.lock().len()
    }

    /// True when no connection has been traced.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Accept ordinals at which the stack under the tap returned an error
    /// (injected accept faults, or a real accept failure): no connection
    /// carries these indices.
    pub fn accept_failures(&self) -> Vec<u64> {
        self.accept_failures.lock().clone()
    }

    /// Deep-copy every per-connection trace in accept order. Traces of
    /// still-live connections reflect events so far.
    pub fn snapshot(&self) -> Vec<ConnTrace> {
        self.conns.lock().iter().map(|t| t.lock().clone()).collect()
    }
}

/// A connection's trace handle is its connection hook: it records each
/// I/O event into the trace.
impl ConnHook for TraceHandle {
    fn read<S: StreamIo>(&mut self, inner: &mut S, buf: &mut [u8]) -> io::Result<ReadOutcome> {
        let outcome = inner.try_read(buf);
        match &outcome {
            Ok(ReadOutcome::Data(n)) => self.push(TapEvent::Read(buf[..*n].to_vec())),
            Ok(ReadOutcome::WouldBlock) => {}
            Ok(ReadOutcome::Closed) => self.push_once(TapEvent::ReadEof),
            Err(e) => self.push(TapEvent::ReadError(e.to_string())),
        }
        outcome
    }

    /// One gathered write is one `Wrote` event holding exactly the bytes
    /// the inner stream reported written, wherever in the slices the
    /// count ends.
    fn write_vectored<S: StreamIo>(
        &mut self,
        inner: &mut S,
        bufs: &[IoSlice<'_>],
    ) -> io::Result<usize> {
        let outcome = inner.try_write_vectored(bufs);
        match &outcome {
            Ok(0) => {}
            Ok(n) => {
                let mut wrote = Vec::with_capacity(*n);
                for b in bufs {
                    let take = b.len().min(n - wrote.len());
                    wrote.extend_from_slice(&b[..take]);
                }
                self.push(TapEvent::Wrote(wrote));
            }
            Err(e) => self.push(TapEvent::WriteError(e.to_string())),
        }
        outcome
    }

    fn shutdown<S: StreamIo>(&mut self, inner: &mut S) {
        self.push_once(TapEvent::Shutdown);
        inner.shutdown();
    }

    fn shutdown_write<S: StreamIo>(&mut self, inner: &mut S) {
        self.push(TapEvent::ShutdownWrite);
        inner.shutdown_write();
    }
}

/// The log is its own accept hook: a fresh [`ConnTrace`] per accepted
/// stream, indexed by the adapter's accept ordinal, and a note of every
/// ordinal at which the stack underneath failed the accept.
impl AcceptHook for TraceLog {
    type Conn = TraceHandle;
    type Poll = NoPoll<TraceHandle>;

    fn accepted<S: StreamIo>(
        &mut self,
        ordinal: u64,
        stream: io::Result<&mut S>,
    ) -> io::Result<TraceHandle> {
        match stream {
            Ok(stream) => Ok(self.open(ordinal, &stream.peer_label())),
            Err(e) => {
                self.accept_failures.lock().push(ordinal);
                Err(e)
            }
        }
    }

    /// A data socket's trace is its control connection's child.
    fn data_accepted<S: StreamIo>(
        &mut self,
        control: ConnId,
        ordinal: u32,
        stream: &mut S,
    ) -> io::Result<TraceHandle> {
        self.open_data(control, ordinal, &stream.peer_label())
            .ok_or_else(|| io::Error::other("data connection of an untraced control connection"))
    }
}

/// `listener` with every accepted connection traced into `log`: the tap
/// layer of a transport stack.
pub fn layer<L: Listener>(listener: L, log: TraceLog) -> Layered<L, TraceLog> {
    Layered::new(listener, log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{self, FaultPlan};
    use crate::transport::mem;

    #[test]
    fn tap_records_reads_writes_and_shutdown_in_order() {
        let (listener, connector) = mem::listener("tap");
        let log = TraceLog::new();
        let mut tapped = layer(listener, log.clone());
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
        let log = TraceLog::stamped(move |k| format!("{:?}", plan.profile_for(k)));
        let mut tapped = layer(fault::layer(listener, plan), log.clone());
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
        let log = TraceLog::stamped(move |k| format!("{:?}", plan.profile_for(k)));
        let mut tapped = layer(fault::layer(listener, plan), log.clone());
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
        let mut tapped = layer(listener, log.clone());
        let mut client = connector.connect();
        let mut server_side = tapped.try_accept().unwrap().unwrap();
        server_side.try_write(b"227 ok\r\n").unwrap();
        let data_clients = Arc::new(Mutex::new(Vec::new()));
        let clients = Arc::clone(&data_clients);
        connector.on_data(move |_, _, c| clients.lock().push(c.connect()));
        // ConnId order is 1-based over successful accepts.
        let mut data = tapped.data_listener(1, 1).unwrap();
        let mut data = data.try_accept().unwrap().expect("connected on open");
        data.try_write(b"payload").unwrap();
        data.shutdown();
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
        assert_eq!(child.events.len(), 2, "{:?}", child.events);
        // Unknown control connection → the accept fails, no trace opened.
        assert!(tapped.data_listener(5, 1).unwrap().try_accept().is_err());
        assert_eq!(log.len(), 2);
        client.shutdown();
    }

    #[test]
    fn half_close_is_recorded_once() {
        let (listener, connector) = mem::listener("tap-eof");
        let log = TraceLog::new();
        let mut tapped = layer(listener, log.clone());
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
