//! Deliberately broken service wrappers — the harness's own soundness
//! check.
//!
//! A conformance harness that never fires is indistinguishable from one
//! that checks nothing. The mutation tests inject a known legality bug
//! into the real service through these wrappers and assert the models
//! catch it, shrink it, and emit a replayable counterexample. Each
//! mutation is chosen to be *observable in the trace alphabet the models
//! check*: response bytes for HTTP, reply codes — and, for the
//! data-plane mutants, transfer payload bytes and completion ordering —
//! for FTP.

use std::collections::HashMap;
use std::io::{self, IoSlice};
use std::sync::Arc;
use std::thread::ThreadId;

use nserver_core::event::ConnId;
use nserver_core::layer::{AcceptHook, ConnHook, Layered, NoPoll};
use nserver_core::pipeline::{Action, ConnCtx, Service};
use nserver_core::transport::{Listener, StreamIo};
use nserver_ftp::legacy::vfs::Vfs;
use nserver_ftp::{FtpCodec, FtpRequest, FtpService};
use nserver_http::{HttpCodec, Request, Response, Status};
use parking_lot::Mutex;

use crate::ftp_model::FtpFixture;

/// Which HTTP legality bug to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpMutation {
    /// 404s are rewritten into fabricated 200s — the model's fixture
    /// lookup disagrees on both the status line and the body bytes.
    MissBecomesOk,
    /// The service claims `Connection: keep-alive` even when the
    /// exchange decided to close — the header bytes diverge, and so does
    /// everything the model refuses to expect after a close.
    DropConnectionClose,
}

/// An HTTP service with `mutation` injected into every response path,
/// including the deferred (cache-miss) ones.
pub struct MutantHttp<S> {
    inner: S,
    mutation: HttpMutation,
}

impl<S> MutantHttp<S> {
    pub fn new(inner: S, mutation: HttpMutation) -> Self {
        Self { inner, mutation }
    }
}

fn mutate_http(m: HttpMutation, resp: Response) -> Response {
    match m {
        HttpMutation::MissBecomesOk => {
            if resp.status != Status::NotFound {
                return resp;
            }
            let mut fake = Response::ok(
                Arc::new(b"<html>phantom page</html>".to_vec()),
                "text/html",
                resp.version,
            )
            .with_keep_alive(resp.keep_alive);
            if resp.head_only {
                fake = fake.head();
            }
            fake
        }
        HttpMutation::DropConnectionClose => resp.with_keep_alive(true),
    }
}

fn map_action<R: Send + 'static>(
    action: Action<R>,
    mutate: impl Fn(R) -> R + Send + 'static,
) -> Action<R> {
    match action {
        Action::Reply(r) => Action::Reply(mutate(r)),
        Action::ReplyClose(r) => Action::ReplyClose(mutate(r)),
        Action::Defer(job) => Action::Defer(Box::new(move || mutate(job()))),
        Action::DeferClose(job) => Action::DeferClose(Box::new(move || mutate(job()))),
        passthrough @ (Action::NoReply | Action::Close) => passthrough,
    }
}

impl<S: Service<HttpCodec>> Service<HttpCodec> for MutantHttp<S> {
    fn handle(&self, ctx: &ConnCtx, req: Request) -> Action<Response> {
        let m = self.mutation;
        map_action(self.inner.handle(ctx, req), move |r| mutate_http(m, r))
    }

    fn on_open(&self, ctx: &ConnCtx) -> Option<Response> {
        self.inner.on_open(ctx)
    }

    fn on_close(&self, ctx: &ConnCtx) {
        self.inner.on_close(ctx);
    }
}

/// Which FTP legality bug to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtpMutation {
    /// Every `530 Not logged in` becomes `230 Logged in` — an
    /// authentication bypass visible as a reply-code mismatch.
    LoginAlwaysSucceeds,
}

/// An FTP service with `mutation` injected into every reply path.
pub struct MutantFtp<S> {
    inner: S,
    mutation: FtpMutation,
}

impl<S> MutantFtp<S> {
    pub fn new(inner: S, mutation: FtpMutation) -> Self {
        Self { inner, mutation }
    }
}

fn mutate_ftp(m: FtpMutation, reply: String) -> String {
    match m {
        FtpMutation::LoginAlwaysSucceeds => {
            if let Some(rest) = reply.strip_prefix("530") {
                format!("230{rest}")
            } else {
                reply
            }
        }
    }
}

impl<S: Service<FtpCodec>> Service<FtpCodec> for MutantFtp<S> {
    fn handle(&self, ctx: &ConnCtx, req: FtpRequest) -> Action<String> {
        let m = self.mutation;
        map_action(self.inner.handle(ctx, req), move |r| mutate_ftp(m, r))
    }

    fn on_open(&self, ctx: &ConnCtx) -> Option<String> {
        self.inner
            .on_open(ctx)
            .map(|r| mutate_ftp(self.mutation, r))
    }

    fn on_close(&self, ctx: &ConnCtx) {
        self.inner.on_close(ctx);
    }
}

/// The payload-corruption mutant: a real `FtpService` whose
/// `/pub/hello.txt` is silently truncated relative to the fixture the
/// model replicates. Every control reply is legal — the bug is only
/// observable in the data plane, where a `RETR` download's bytes
/// diverge from the model's byte-exact expected payload.
pub fn truncated_retr_service<L>(transport: L) -> FtpService<L> {
    let vfs = Arc::new(Vfs::new());
    vfs.mkdir("/pub");
    vfs.write("/pub/hello.txt", b"hello".to_vec());
    FtpService::over(vfs, FtpFixture::users(), transport)
}

/// A deferred transfer, waiting to run.
type Job = Box<dyn FnOnce() -> String + Send>;

/// The completion-ordering mutant: a transfer acknowledges `150` + `226`
/// at once and runs later — when its connection next reaches a hook, or
/// as it closes — so the completion reply can reach the control channel
/// before the data socket has opened. Caught by the model's
/// global-sequence premature-completion check.
pub struct PrematureFtp<S> {
    inner: S,
    /// Each connection's acknowledged transfers, not yet run.
    late: Mutex<HashMap<ConnId, Vec<Job>>>,
}

impl<S> PrematureFtp<S> {
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            late: Mutex::default(),
        }
    }

    fn run_late(&self, conn: ConnId) {
        let jobs = self.late.lock().remove(&conn).unwrap_or_default();
        for job in jobs {
            let _ = job();
        }
    }
}

impl<S: Service<FtpCodec>> Service<FtpCodec> for PrematureFtp<S> {
    fn handle(&self, ctx: &ConnCtx, req: FtpRequest) -> Action<String> {
        self.run_late(ctx.id);
        match self.inner.handle(ctx, req) {
            Action::Defer(job) => {
                self.late.lock().entry(ctx.id).or_default().push(job);
                Action::Reply("150 Opening data connection.\r\n226 Transfer complete.\r\n".into())
            }
            other => other,
        }
    }

    fn on_open(&self, ctx: &ConnCtx) -> Option<String> {
        self.inner.on_open(ctx)
    }

    fn on_close(&self, ctx: &ConnCtx) {
        self.run_late(ctx.id);
        self.inner.on_close(ctx);
    }
}

/// Which transport-level bug the streams of a mutant [`layer`] carry. In
/// all of them the server's own bookkeeping stays perfect — the outbox drains,
/// `bytes_sent` adds up — so only the models' byte-level checks can see
/// the damage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportMutation {
    /// The lingering-close mutant: every server-initiated half-close
    /// (`shutdown_write`, the first step of a lingering close) is
    /// rewritten into an immediate full close — the pre-lingering-close
    /// bug. A server that hard-closes while pipelined request bytes sit
    /// unread in its receive queue resets the connection, and the reset
    /// discards the final response out of the client's receive queue.
    /// The server-side trace stays perfect, so this mutant is observable
    /// only client-side, as an `rst-discarded-tail` violation.
    Lingerless,
    /// The gather-dropping mutant: a gathered write forwards only its
    /// first slice but reports every slice written — a `writev` wrapper
    /// that forgot the rest of the vector. The dispatcher retires the
    /// unsent segments as sent, so a response head arrives without its
    /// body; visible as a `byte-divergence` or `incomplete-delivery`
    /// violation.
    GatherDrop,
    /// The wrong-thread mutant: a write made on any thread but the one
    /// that accepted the stream forwards nothing and reports everything
    /// written — a transport that quietly assumes its dispatcher is its
    /// only writer. Replies a work item sends itself vanish (a
    /// `byte-divergence` or `incomplete-delivery` violation); what the
    /// dispatcher sends arrives. A sweep in which this mutant survives
    /// never left the dispatcher's send path.
    OffThreadDrop,
    /// The mirror image: a write of at most [`WORK_ITEM_SEND_MAX`] bytes
    /// made *on* the thread that accepted the stream forwards nothing
    /// and reports everything written — a transport that assumes a
    /// reply of a work item's size always comes from the pool. What the
    /// workers send arrives, and so does output past the bound, which is
    /// the dispatcher's to send in every design. Only a work item the
    /// dispatcher handled itself loses its reply; a sweep in which this
    /// mutant survives never had the dispatcher handle one.
    OnThreadDrop,
    /// The replaying relay: every write to a stream the listener dialed
    /// (a relay's backend leg) lands twice — the retry bug of re-sending
    /// a request already delivered. Replies come back verbatim; a
    /// duplicated `USER` or `STOR` shows as reply codes of its own.
    Replay,
}

/// The most a work item sends itself (`WORKER_SEND_MAX` in the
/// framework's pipeline, which does not export it).
const WORK_ITEM_SEND_MAX: usize = 64 * 1024;

/// A [`TransportMutation`] riding one stream: everything forwards except
/// the one call the mutation breaks.
pub struct MutantConn {
    mutation: TransportMutation,
    /// The thread that accepted the stream (its dispatcher's).
    accepted_on: ThreadId,
    /// Whether the listener dialed the stream rather than accepted it.
    dialed: bool,
}

impl TransportMutation {
    /// This mutation as the hook of a stream accepted on the calling
    /// thread.
    fn on_this_thread(self) -> MutantConn {
        MutantConn {
            mutation: self,
            accepted_on: std::thread::current().id(),
            dialed: false,
        }
    }
}

impl ConnHook for MutantConn {
    fn write_vectored<S: StreamIo>(
        &mut self,
        inner: &mut S,
        bufs: &[IoSlice<'_>],
    ) -> io::Result<usize> {
        match self.mutation {
            TransportMutation::Lingerless => inner.try_write_vectored(bufs),
            TransportMutation::Replay if !self.dialed => inner.try_write_vectored(bufs),
            // The bug under test: what was written is written again.
            TransportMutation::Replay => {
                let n = inner.try_write_vectored(bufs)?;
                let sent: Vec<u8> = bufs
                    .iter()
                    .flat_map(|b| b.iter())
                    .copied()
                    .take(n)
                    .collect();
                inner.try_write(&sent)?;
                Ok(n)
            }
            // The bug under test: a sender that is not the accepting
            // thread is told all is written, and nothing is.
            TransportMutation::OffThreadDrop => {
                if std::thread::current().id() == self.accepted_on {
                    inner.try_write_vectored(bufs)
                } else {
                    Ok(bufs.iter().map(|b| b.len()).sum())
                }
            }
            // The bug under test: the accepting thread, sending no more
            // than a work item would, is told all is written.
            TransportMutation::OnThreadDrop => {
                let len: usize = bufs.iter().map(|b| b.len()).sum();
                if std::thread::current().id() == self.accepted_on && len <= WORK_ITEM_SEND_MAX {
                    Ok(len)
                } else {
                    inner.try_write_vectored(bufs)
                }
            }
            // The bug under test: the first slice forwarded, the rest
            // claimed (a would-block on that slice is reported honestly,
            // and a lone slice is not a gather: nothing to drop).
            TransportMutation::GatherDrop => {
                let mut slices = bufs.iter().filter(|b| !b.is_empty());
                let Some(first) = slices.next() else {
                    return Ok(0);
                };
                match inner.try_write(first)? {
                    0 => Ok(0),
                    n => Ok(n + slices.map(|b| b.len()).sum::<usize>()),
                }
            }
        }
    }

    fn shutdown_write<S: StreamIo>(&mut self, inner: &mut S) {
        match self.mutation {
            // The bug under test: no FIN-first half-close, no linger —
            // the socket is torn down with whatever the peer pipelined
            // unread.
            TransportMutation::Lingerless => inner.shutdown(),
            TransportMutation::GatherDrop
            | TransportMutation::OffThreadDrop
            | TransportMutation::OnThreadDrop
            | TransportMutation::Replay => inner.shutdown_write(),
        }
    }
}

impl AcceptHook for TransportMutation {
    type Conn = MutantConn;
    type Poll = NoPoll<MutantConn>;

    fn accepted<S: StreamIo>(
        &mut self,
        _: u64,
        stream: io::Result<&mut S>,
    ) -> io::Result<MutantConn> {
        stream.map(|_| self.on_this_thread())
    }

    fn dialed<S: StreamIo>(&self, _: &str, _: &mut S) -> io::Result<MutantConn> {
        let conn = self.on_this_thread();
        Ok(MutantConn {
            dialed: true,
            ..conn
        })
    }
}

/// `listener` with `mutation` interposed between the dispatcher and the
/// transport stack: the mutant layer.
pub fn layer<L: Listener>(
    listener: L,
    mutation: TransportMutation,
) -> Layered<L, TransportMutation> {
    Layered::new(listener, mutation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nserver_http::Version;

    #[test]
    fn miss_becomes_ok_preserves_framing_decisions() {
        let resp = Response::error(Status::NotFound, Version::Http11)
            .with_keep_alive(false)
            .head();
        let mutated = mutate_http(HttpMutation::MissBecomesOk, resp);
        assert_eq!(mutated.status, Status::Ok);
        assert!(!mutated.keep_alive, "close decision must survive");
        assert!(mutated.head_only, "HEAD suppression must survive");
        let ok = Response::ok(Arc::new(vec![]), "text/plain", Version::Http11);
        assert_eq!(
            mutate_http(HttpMutation::MissBecomesOk, ok).status,
            Status::Ok,
            "non-404s pass through"
        );
    }

    /// The replaying relay's mutation rides the streams its listener
    /// dials: a write lands twice there, and once on an accepted stream.
    #[test]
    fn replay_duplicates_dialed_writes_only() {
        use nserver_core::transport::{mem, ReadOutcome};
        let read_all = |s: &mut dyn StreamIo| {
            let (mut got, mut buf) = (Vec::new(), [0u8; 64]);
            while let Ok(ReadOutcome::Data(n)) = s.try_read(&mut buf) {
                got.extend_from_slice(&buf[..n]);
            }
            got
        };
        let (front, front_connector) = mem::listener("front");
        let (mut backend, backend_connector) = mem::listener("backend");
        front_connector.route("backend", &backend_connector);
        let mut relay = layer(front, TransportMutation::Replay);
        let mut client = front_connector.connect();
        let mut client_leg = relay.try_accept().unwrap().expect("queued");
        let mut backend_leg = relay.dial("backend").unwrap();
        let mut served = backend.try_accept().unwrap().expect("dialed");
        assert_eq!(backend_leg.try_write(b"hello").unwrap(), 5);
        assert_eq!(client_leg.try_write(b"hi").unwrap(), 2);
        assert_eq!(read_all(&mut served), b"hellohello", "upstream lands twice");
        assert_eq!(read_all(&mut client), b"hi", "downstream lands once");
    }

    #[test]
    fn drop_connection_close_lies_in_the_header() {
        let resp = Response::error(Status::Forbidden, Version::Http11).with_keep_alive(false);
        assert!(mutate_http(HttpMutation::DropConnectionClose, resp).keep_alive);
    }

    #[test]
    fn premature_map_replies_before_the_deferred_job_runs() {
        use nserver_core::event::Priority;
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

        /// Defers every request; each job counts itself.
        struct Deferring(Arc<AtomicUsize>);
        impl Service<FtpCodec> for Deferring {
            fn handle(&self, _: &ConnCtx, _: FtpRequest) -> Action<String> {
                let ran = Arc::clone(&self.0);
                Action::Defer(Box::new(move || {
                    ran.fetch_add(1, SeqCst);
                    "226 Transfer complete.\r\n".to_string()
                }))
            }
        }
        let ran = Arc::new(AtomicUsize::new(0));
        let svc = PrematureFtp::new(Deferring(Arc::clone(&ran)));
        let ctx = ConnCtx {
            id: 1,
            peer: "t".into(),
            priority: Priority::HIGHEST,
        };
        let retr = || FtpRequest::Command(nserver_ftp::Command::Retr("/f".into()));
        let Action::Reply(r) = svc.handle(&ctx, retr()) else {
            panic!("Defer must become an immediate Reply");
        };
        assert!(r.starts_with("150 ") && r.contains("\r\n226 "), "{r}");
        assert_eq!(ran.load(SeqCst), 0, "acknowledged, not run");
        let _ = svc.handle(&ctx, retr());
        assert_eq!(ran.load(SeqCst), 1, "the first ran at the next hook");
        svc.on_close(&ctx);
        assert_eq!(
            ran.load(SeqCst),
            2,
            "the second ran as the connection closed"
        );
    }

    #[test]
    fn truncated_service_disagrees_with_the_fixture() {
        let svc = truncated_retr_service(());
        drop(svc); // constructible; the divergence itself is proven
                   // end-to-end by tests/mutation.rs
        let fixture = FtpFixture::vfs();
        assert_eq!(&fixture.read("/pub/hello.txt").unwrap()[..], b"hello ftp");
    }

    #[test]
    fn lingerless_shutdown_write_is_a_hard_close() {
        use nserver_core::transport::{mem, ReadOutcome};
        let (a, mut client) = mem::pair("srv", "cli");
        let mut srv = Layered::new(a, TransportMutation::Lingerless.on_this_thread());
        client.try_write(b"GET /tail HTTP/1.1\r\n\r\n").unwrap();
        srv.try_write(b"HTTP/1.1 200 OK\r\n\r\n").unwrap();
        // The mutant turns the lingering close's FIN into a full close;
        // the unread pipelined request makes that an RST, which discards
        // the response out of the client's receive queue.
        srv.shutdown_write();
        let mut buf = [0u8; 64];
        assert_eq!(
            client.try_read(&mut buf).unwrap(),
            ReadOutcome::Closed,
            "RST must discard the undelivered response tail"
        );
    }

    #[test]
    fn gather_drop_forwards_one_slice_and_claims_them_all() {
        use nserver_core::transport::{mem, ReadOutcome};
        let (a, mut client) = mem::pair("srv", "cli");
        let mut srv = Layered::new(a, TransportMutation::GatherDrop.on_this_thread());
        let gather = [IoSlice::new(b"head"), IoSlice::new(b"body!")];
        assert_eq!(srv.try_write_vectored(&gather).unwrap(), 9);
        let mut buf = [0u8; 16];
        assert_eq!(client.try_read(&mut buf).unwrap(), ReadOutcome::Data(4));
        assert_eq!(&buf[..4], b"head");
        // A lone slice is not a gather: nothing to drop.
        assert_eq!(srv.try_write(b"solo").unwrap(), 4);
        assert_eq!(client.try_read(&mut buf).unwrap(), ReadOutcome::Data(4));
    }

    #[test]
    fn off_thread_drop_swallows_only_other_threads_writes() {
        use nserver_core::transport::{mem, ReadOutcome};
        let (a, mut client) = mem::pair("srv", "cli");
        let mut srv = Layered::new(a, TransportMutation::OffThreadDrop.on_this_thread());
        assert_eq!(srv.try_write(b"home").unwrap(), 4);
        let mut srv = std::thread::spawn(move || {
            let gather = [IoSlice::new(b"lost "), IoSlice::new(b"reply")];
            assert_eq!(srv.try_write_vectored(&gather).unwrap(), 10);
            srv
        })
        .join()
        .unwrap();
        assert_eq!(srv.try_write(b"!").unwrap(), 1);
        let mut buf = [0u8; 16];
        assert_eq!(client.try_read(&mut buf).unwrap(), ReadOutcome::Data(5));
        assert_eq!(&buf[..5], b"home!");
    }

    #[test]
    fn on_thread_drop_swallows_only_the_accepting_threads_small_writes() {
        use nserver_core::transport::{mem, ReadOutcome};
        let (a, mut client) = mem::pair("srv", "cli");
        let mut srv = Layered::new(a, TransportMutation::OnThreadDrop.on_this_thread());
        let gather = [IoSlice::new(b"lost "), IoSlice::new(b"reply")];
        assert_eq!(srv.try_write_vectored(&gather).unwrap(), 10);
        // Past a work item's bound the write is honest (the in-memory
        // pipe takes what it has room for).
        let big = vec![b'x'; WORK_ITEM_SEND_MAX + 1];
        let took = srv.try_write(&big).unwrap();
        assert!(took > 0);
        let mut srv = std::thread::spawn(move || {
            assert_eq!(srv.try_write(b"from a worker").unwrap(), 13);
            srv
        })
        .join()
        .unwrap();
        srv.shutdown_write();
        let mut got = Vec::new();
        let mut buf = [0u8; 4096];
        while let ReadOutcome::Data(n) = client.try_read(&mut buf).unwrap() {
            got.extend_from_slice(&buf[..n]);
        }
        assert_eq!(got.len(), took + 13);
        assert!(got.ends_with(b"from a worker"));
    }

    #[test]
    fn login_bypass_rewrites_only_530() {
        let m = FtpMutation::LoginAlwaysSucceeds;
        assert_eq!(
            mutate_ftp(m, "530 Not logged in.\r\n".into()),
            "230 Not logged in.\r\n"
        );
        assert_eq!(mutate_ftp(m, "221 Bye.\r\n".into()), "221 Bye.\r\n");
    }
}
