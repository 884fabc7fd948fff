//! The Handle Request hook for COPS-FTP: the event-driven adaptation layer
//! over the legacy library.
//!
//! COPS-FTP is configured with **synchronous completions** (Table 1:
//! O4 = Synchronous) and a **dynamic** worker pool (O5): data transfers
//! block the worker thread that runs them, and the Processor Controller
//! grows the pool when several transfers are in flight. The transfer
//! commands are still expressed as `Action::Defer` blocking operations, so
//! the very same service code would run unchanged under O4 = Asynchronous
//! — that is the point of the pattern's hook interface.
//!
//! A transfer's data connection comes from the control listener's
//! transport ([`Listener::data_listener`]): `PASV` opens the listener, and
//! the transfer accepts on it and moves bytes over `StreamIo`, waiting
//! for the peer and for readiness in a `Poller` of the same transport.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use nserver_core::diag::DiagHub;
use nserver_core::event::ConnId;
use nserver_core::metrics::Stage;
use nserver_core::pipeline::{Action, ConnCtx, Service};
use nserver_core::trace::{DebugTracer, SpanEvent};
use nserver_core::transport::{Interest, Listener, Poller, ReadOutcome, StreamIo, TcpListenerNb};

use crate::codec::{FtpCodec, FtpRequest};
use crate::commands::Command;
use crate::legacy::replies;
use crate::legacy::users::UserRegistry;
use crate::legacy::vfs::{normalize, Vfs};
use crate::observe::listing_text;
use crate::session::{Session, SessionState};

/// How long a data transfer waits for the peer to connect to the passive
/// listener.
const DATA_ACCEPT_TIMEOUT: Duration = Duration::from_secs(3);

/// How long a data transfer waits for its socket to take or yield bytes.
const DATA_IO_TIMEOUT: Duration = Duration::from_secs(5);

/// The COPS-FTP application service. Its passive data connections come
/// from `L`, the control listener's transport.
pub struct FtpService<L = TcpListenerNb> {
    vfs: Arc<Vfs>,
    users: Arc<UserRegistry>,
    sessions: Mutex<HashMap<ConnId, Arc<Mutex<Session<L>>>>>,
    server_name: String,
    diag_hub: Mutex<Option<DiagHub>>,
    transport: L,
}

impl FtpService {
    /// Serve `vfs` to the accounts in `users`, with data connections on
    /// ephemeral loopback TCP ports.
    ///
    /// # Panics
    ///
    /// When no loopback port can be bound.
    pub fn new(vfs: Arc<Vfs>, users: Arc<UserRegistry>) -> Self {
        let loopback = TcpListenerNb::bind("127.0.0.1:0").expect("bind a loopback TCP port");
        Self::over(vfs, users, loopback)
    }
}

impl<L> FtpService<L> {
    /// Serve `vfs` to the accounts in `users`, opening each `PASV` data
    /// listener with `transport` ([`Listener::data_listener`]; it is
    /// never accepted on itself). Pass a copy of the stack the control
    /// listener is, and each of its layers sees the data sockets too.
    pub fn over(vfs: Arc<Vfs>, users: Arc<UserRegistry>, transport: L) -> Self {
        Self {
            vfs,
            users,
            sessions: Mutex::new(HashMap::new()),
            server_name: "COPS-FTP".to_string(),
            diag_hub: Mutex::new(None),
            transport,
        }
    }

    /// Attach the running server's diagnostics hub: `STAT` reports its
    /// counters and per-stage latency quantiles, `SITE DUMP` captures and
    /// returns flight-recorder snapshots, `SITE TRACE` exports its trace
    /// rings. Pass the hub given to `ServerBuilder::diag`; without an
    /// attachment `STAT` still answers, with session counts only, and the
    /// two `SITE` commands answer 211 with a note.
    pub fn attach_diag(&self, hub: DiagHub) {
        *self.diag_hub.lock() = Some(hub);
    }

    /// The multi-line 211 body for argument-less `STAT`.
    fn status_report(&self) -> String {
        let mut body = vec![format!("Live sessions: {}", self.live_sessions())];
        if let Some(hub) = self.diag_hub.lock().clone() {
            let sample = hub.sample();
            for row in sample.stats.scalars() {
                body.push(format!("{}: {}", row.label(), row.value));
            }
            for stage in Stage::ALL {
                let h = sample.latency.stage(stage);
                body.push(format!(
                    "{}: count={} p50={}us p99={}us",
                    stage.name(),
                    h.count,
                    h.quantile_us(0.5),
                    h.quantile_us(0.99),
                ));
            }
        }
        replies::status_lines(&format!("{} status", self.server_name), &body)
    }

    /// The shared virtual filesystem.
    pub fn vfs(&self) -> &Arc<Vfs> {
        &self.vfs
    }

    fn session(&self, conn: ConnId) -> Arc<Mutex<Session<L>>> {
        Arc::clone(
            self.sessions
                .lock()
                .entry(conn)
                .or_insert_with(|| Arc::new(Mutex::new(Session::new()))),
        )
    }

    /// Number of live sessions (diagnostics).
    pub fn live_sessions(&self) -> usize {
        self.sessions.lock().len()
    }
}

impl<L: Listener + Sync> FtpService<L> {
    /// A transfer command's common half: take the session's passive
    /// listener (503 without one) and resolve `path` against the working
    /// directory (`None` is the directory itself; 550 when it escapes),
    /// then defer `job` with the resolved path and the transfer's data
    /// connection.
    fn transfer(
        &self,
        ctx: &ConnCtx,
        session: &Mutex<Session<L>>,
        path: Option<String>,
        job: impl FnOnce(&Vfs, String, DataPlan<L>) -> String + Send + 'static,
    ) -> Action<String> {
        let (cwd, pasv) = {
            let mut s = session.lock();
            (s.cwd.clone(), s.take_pasv())
        };
        let Some((listener, ordinal)) = pasv else {
            return Action::Reply(replies::bad_sequence("Use PASV first"));
        };
        let target = match path {
            Some(p) => match normalize(&cwd, &p) {
                Some(t) => t,
                None => return Action::Reply(replies::file_unavailable(&p)),
            },
            None => cwd,
        };
        let vfs = Arc::clone(&self.vfs);
        let data = DataPlan {
            listener,
            tracer: self.diag_hub.lock().as_ref().and_then(|h| h.tracer()),
            conn: ctx.id,
            ordinal,
        };
        // Blocking data transfer: Defer runs it synchronously in place
        // (O4 = Synchronous) or on the helper pool (O4 = Asynchronous) —
        // the hook code is identical.
        Action::Defer(Box::new(move || job(&vfs, target, data)))
    }
}

/// A transfer's data connection: the listener `PASV` opened, and where
/// the socket's open and close are stamped ([`SpanEvent::DataOpen`] /
/// [`SpanEvent::DataClose`] on the control connection's timeline — the
/// `DataParent` edge that lets the Perfetto export nest data-transfer
/// spans under the control session).
struct DataPlan<L> {
    listener: L,
    tracer: Option<DebugTracer>,
    conn: ConnId,
    ordinal: u32,
}

/// The token a transfer's poller watches its one source under.
const DATA_TOKEN: u64 = 1;

impl<L: Listener> DataPlan<L> {
    /// Accept the peer, waiting in a poller of the transport up to
    /// [`DATA_ACCEPT_TIMEOUT`], run `io` on the socket, and close it —
    /// before the transfer's reply is written, the order the conformance
    /// checker holds the tap's trace to. `None` when the peer never came
    /// or `io` failed; the socket is then dropped unclosed.
    fn run<T>(mut self, io: impl FnOnce(&mut Data<L>) -> Option<T>) -> Option<T> {
        let mut poller = L::new_poller().ok()?;
        self.listener.register_listener(&mut poller).ok()?;
        let deadline = Instant::now() + DATA_ACCEPT_TIMEOUT;
        let stream = loop {
            if let Some(stream) = self.listener.try_accept().ok()? {
                break stream;
            }
            wait(&mut poller, deadline)?;
        };
        self.listener.deregister_listener(&mut poller).ok()?;
        poller
            .register(DATA_TOKEN, &stream, Interest::READABLE)
            .ok()?;
        let (tracer, ordinal) = (self.tracer, self.ordinal.into());
        let span = |event| tracer.iter().for_each(|t| t.span(event, self.conn));
        span(SpanEvent::DataOpen { ordinal });
        let mut data = Data { stream, poller };
        let out = io(&mut data)?;
        data.stream.shutdown();
        span(SpanEvent::DataClose { ordinal });
        Some(out)
    }
}

/// An accepted data socket and the poller its waits block in, each up to
/// [`DATA_IO_TIMEOUT`].
struct Data<L: Listener> {
    stream: L::Stream,
    poller: L::Poller,
}

impl<L: Listener> Data<L> {
    fn ready(&mut self, interest: Interest) -> Option<()> {
        (self.poller)
            .reregister(DATA_TOKEN, &self.stream, interest)
            .ok()?;
        wait(&mut self.poller, Instant::now() + DATA_IO_TIMEOUT)
    }

    fn send(&mut self, mut bytes: &[u8]) -> Option<()> {
        while !bytes.is_empty() {
            match self.stream.try_write(bytes).ok()? {
                0 => self.ready(Interest::WRITABLE)?,
                n => bytes = &bytes[n..],
            }
        }
        Some(())
    }

    fn recv(&mut self) -> Option<Vec<u8>> {
        let (mut out, mut buf) = (Vec::new(), [0u8; 4096]);
        loop {
            match self.stream.try_read(&mut buf).ok()? {
                ReadOutcome::Data(n) => out.extend_from_slice(&buf[..n]),
                ReadOutcome::WouldBlock => self.ready(Interest::READABLE)?,
                ReadOutcome::Closed => return Some(out),
            }
        }
    }
}

/// A transfer's reply: the `150` + `226` pair naming `what` when `done`,
/// else `425`.
fn transferred(done: Option<()>, what: &str) -> String {
    match done {
        Some(()) => format!(
            "{}{}",
            replies::opening_data(what),
            replies::transfer_complete()
        ),
        None => replies::data_failed(),
    }
}

/// Block in `poller` until it reports an event, or `None` once `deadline`
/// passes.
fn wait<P: Poller>(poller: &mut P, deadline: Instant) -> Option<()> {
    let mut events = Vec::new();
    loop {
        let left = deadline
            .checked_duration_since(Instant::now())
            .filter(|d| !d.is_zero())?;
        poller.wait(&mut events, Some(left)).ok()?;
        if !events.is_empty() {
            return Some(());
        }
    }
}

impl<L: Listener + Sync> Service<FtpCodec> for FtpService<L> {
    fn on_open(&self, ctx: &ConnCtx) -> Option<String> {
        self.session(ctx.id); // allocate session state
        Some(replies::service_ready(&self.server_name))
    }

    fn on_close(&self, ctx: &ConnCtx) {
        self.sessions.lock().remove(&ctx.id);
    }

    fn handle(&self, ctx: &ConnCtx, req: FtpRequest) -> Action<String> {
        let cmd = match req {
            FtpRequest::Command(c) => c,
            FtpRequest::Malformed(why) => {
                return Action::Reply(replies::syntax_error(&why));
            }
        };
        let session = self.session(ctx.id);

        // Commands allowed before login.
        match &cmd {
            Command::User(name) => {
                let mut s = session.lock();
                if self.users.knows(name) {
                    s.state = SessionState::NeedPassword { user: name.clone() };
                    return Action::Reply(replies::need_password(name));
                }
                s.state = SessionState::Greeted;
                return Action::Reply(replies::not_logged_in("Unknown user"));
            }
            Command::Pass(pw) => {
                let mut s = session.lock();
                let user = match &s.state {
                    SessionState::NeedPassword { user } => user.clone(),
                    _ => return Action::Reply(replies::bad_sequence("Send USER first")),
                };
                if self.users.authenticate(&user, pw) {
                    s.state = SessionState::LoggedIn { user: user.clone() };
                    return Action::Reply(replies::logged_in(&user));
                }
                s.state = SessionState::Greeted;
                return Action::Reply(replies::not_logged_in("Login incorrect"));
            }
            Command::Quit => return Action::ReplyClose(replies::goodbye()),
            Command::Syst => return Action::Reply(replies::system_type()),
            Command::Noop => return Action::Reply(replies::ok_command("NOOP ok")),
            Command::Unknown(verb) => {
                return Action::Reply(replies::not_implemented(verb));
            }
            _ => {}
        }

        if !session.lock().logged_in() {
            return Action::Reply(replies::not_logged_in("Please login with USER and PASS"));
        }

        match cmd {
            Command::Pwd => {
                let cwd = session.lock().cwd.clone();
                Action::Reply(replies::cwd_is(&cwd))
            }
            Command::Cwd(dir) => {
                let mut s = session.lock();
                match normalize(&s.cwd, &dir) {
                    Some(path) if self.vfs.is_dir(&path) => {
                        s.cwd = path;
                        Action::Reply(replies::ok_action("Directory changed"))
                    }
                    _ => Action::Reply(replies::file_unavailable(&dir)),
                }
            }
            Command::Type(t) => {
                session.lock().transfer_type = t;
                Action::Reply(replies::ok_command(&format!("Type set to {t}")))
            }
            Command::Mkd(dir) => {
                let cwd = session.lock().cwd.clone();
                match normalize(&cwd, &dir) {
                    Some(path) if self.vfs.mkdir(&path) => {
                        Action::Reply(replies::line(257, &format!("\"{path}\" created")))
                    }
                    _ => Action::Reply(replies::file_unavailable(&dir)),
                }
            }
            Command::Dele(file) => {
                let cwd = session.lock().cwd.clone();
                match normalize(&cwd, &file) {
                    Some(path) if self.vfs.delete(&path) => {
                        Action::Reply(replies::ok_action("File deleted"))
                    }
                    _ => Action::Reply(replies::file_unavailable(&file)),
                }
            }
            Command::Size(file) => {
                let cwd = session.lock().cwd.clone();
                match normalize(&cwd, &file).and_then(|p| self.vfs.size(&p)) {
                    Some(n) => Action::Reply(replies::line(213, &n.to_string())),
                    None => Action::Reply(replies::file_unavailable(&file)),
                }
            }
            Command::Stat(path) => match path {
                None => Action::Reply(self.status_report()),
                Some(p) => {
                    let cwd = session.lock().cwd.clone();
                    match normalize(&cwd, &p) {
                        Some(t) if self.vfs.is_dir(&t) => {
                            let listing = self.vfs.list(&t).unwrap_or_default();
                            Action::Reply(replies::status_lines(
                                &format!("Status of {t}"),
                                &listing,
                            ))
                        }
                        Some(t) if self.vfs.size(&t).is_some() => {
                            Action::Reply(replies::status_lines(
                                &format!("Status of {t}"),
                                std::slice::from_ref(&t),
                            ))
                        }
                        _ => Action::Reply(replies::file_unavailable(&p)),
                    }
                }
            },
            cmd @ (Command::SiteDump | Command::SiteTrace) => {
                let dump = cmd == Command::SiteDump;
                let body = match self.diag_hub.lock().clone() {
                    // The snapshot JSON is one line by construction, and
                    // the Perfetto export one event per line, so each
                    // rides inside a 211 multi-line reply verbatim.
                    Some(hub) if dump => vec![hub.capture("ftp_site_dump").to_json()],
                    Some(hub) => hub.perfetto_json().lines().map(str::to_string).collect(),
                    None => vec!["No diagnostics hub attached".to_string()],
                };
                let title = if dump {
                    "Diagnostic snapshot"
                } else {
                    "Perfetto trace"
                };
                Action::Reply(replies::status_lines(title, &body))
            }
            Command::Pasv => {
                let ordinal = session.lock().data_listeners + 1;
                let Ok(listener) = self.transport.data_listener(ctx.id, ordinal) else {
                    return Action::Reply(replies::data_failed());
                };
                let label = listener.local_label();
                let port = label.rsplit(':').next().and_then(|p| p.parse().ok());
                let mut s = session.lock();
                s.data_listeners = ordinal;
                s.pasv = Some((listener, ordinal));
                Action::Reply(replies::passive_mode([127, 0, 0, 1], port.unwrap_or(0)))
            }
            Command::List(path) => self.transfer(ctx, &session, path, |vfs, target, data| {
                let Some(listing) = vfs.list(&target) else {
                    return replies::file_unavailable(&target);
                };
                let text = listing_text(&listing);
                transferred(data.run(|d| d.send(text.as_bytes())), "directory listing")
            }),
            Command::Retr(file) => self.transfer(ctx, &session, Some(file), |vfs, path, data| {
                let Some(bytes) = vfs.read(&path) else {
                    return replies::file_unavailable(&path);
                };
                transferred(data.run(|d| d.send(&bytes)), &path)
            }),
            Command::Stor(file) => self.transfer(ctx, &session, Some(file), |vfs, path, data| {
                let Some(bytes) = data.run(Data::recv) else {
                    return replies::data_failed();
                };
                if !vfs.write(&path, bytes) {
                    return replies::file_unavailable(&path);
                }
                transferred(Some(()), &path)
            }),
            // USER/PASS/QUIT/SYST/NOOP/Unknown handled above.
            Command::User(_)
            | Command::Pass(_)
            | Command::Quit
            | Command::Syst
            | Command::Noop
            | Command::Unknown(_) => unreachable!("handled before login gate"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nserver_core::event::Priority;
    use nserver_core::json::Json;
    use nserver_core::metrics::MetricsRegistry;
    use nserver_core::profiling::ServerStats;
    use nserver_core::transport::mem::{self, MemListener, MemStream};

    fn ctx(id: ConnId) -> ConnCtx {
        ConnCtx {
            id,
            peer: "t".into(),
            priority: Priority::HIGHEST,
        }
    }

    /// The client end of each data connection the service's `PASV`s
    /// opened, connected as it opened.
    type DataClients = Arc<Mutex<Vec<MemStream>>>;

    /// The service over the in-memory transport.
    fn service_with_clients() -> (FtpService<MemListener>, DataClients) {
        let vfs = Arc::new(Vfs::new());
        vfs.mkdir("/pub");
        vfs.write("/pub/hello.txt", b"hello ftp".to_vec());
        let users = Arc::new(UserRegistry::new().with_anonymous());
        users.add_user("alice", "secret");
        let (control, connector) = mem::listener("control");
        let clients = DataClients::default();
        let opened = Arc::clone(&clients);
        connector.on_data(move |_, _, data| opened.lock().push(data.connect()));
        (FtpService::over(vfs, users, control), clients)
    }

    fn service() -> FtpService<MemListener> {
        service_with_clients().0
    }

    /// What the server sent on a data connection, and whether it closed.
    fn received(client: &mut MemStream) -> (Vec<u8>, bool) {
        let (mut got, mut buf) = (Vec::new(), [0u8; 64]);
        loop {
            match client.try_read(&mut buf).unwrap() {
                ReadOutcome::Data(n) => got.extend_from_slice(&buf[..n]),
                ReadOutcome::WouldBlock => return (got, false),
                ReadOutcome::Closed => return (got, true),
            }
        }
    }

    fn reply(svc: &FtpService<MemListener>, id: ConnId, line: &str) -> String {
        let cmd = Command::parse(line).unwrap();
        match svc.handle(&ctx(id), FtpRequest::Command(cmd)) {
            Action::Reply(r) => r,
            Action::ReplyClose(r) => r,
            Action::Defer(job) => job(),
            other => panic!("unexpected action {other:?}"),
        }
    }

    fn login(svc: &FtpService<MemListener>, id: ConnId) {
        assert!(reply(svc, id, "USER alice").starts_with("331"));
        assert!(reply(svc, id, "PASS secret").starts_with("230"));
    }

    #[test]
    fn greeting_on_open() {
        let svc = service();
        let g = svc.on_open(&ctx(1)).unwrap();
        assert!(g.starts_with("220"));
        assert_eq!(svc.live_sessions(), 1);
        svc.on_close(&ctx(1));
        assert_eq!(svc.live_sessions(), 0);
    }

    #[test]
    fn login_flow_and_wrong_password() {
        let svc = service();
        assert!(reply(&svc, 1, "USER alice").starts_with("331"));
        assert!(reply(&svc, 1, "PASS wrong").starts_with("530"));
        // After failure the FSM resets.
        assert!(reply(&svc, 1, "PASS secret").starts_with("503"));
        login(&svc, 1);
    }

    #[test]
    fn unknown_user_is_rejected() {
        let svc = service();
        assert!(reply(&svc, 1, "USER mallory").starts_with("530"));
    }

    #[test]
    fn anonymous_login() {
        let svc = service();
        assert!(reply(&svc, 1, "USER anonymous").starts_with("331"));
        assert!(reply(&svc, 1, "PASS guest@").starts_with("230"));
    }

    #[test]
    fn commands_require_login() {
        let svc = service();
        assert!(reply(&svc, 1, "PWD").starts_with("530"));
        assert!(reply(&svc, 1, "RETR /pub/hello.txt").starts_with("530"));
        // SYST and NOOP work pre-login.
        assert!(reply(&svc, 1, "SYST").starts_with("215"));
        assert!(reply(&svc, 1, "NOOP").starts_with("200"));
    }

    #[test]
    fn pwd_and_cwd() {
        let svc = service();
        login(&svc, 1);
        assert!(reply(&svc, 1, "PWD").contains("\"/\""));
        assert!(reply(&svc, 1, "CWD pub").starts_with("250"));
        assert!(reply(&svc, 1, "PWD").contains("\"/pub\""));
        assert!(reply(&svc, 1, "CWD nonexistent").starts_with("550"));
        assert!(reply(&svc, 1, "CWD ..").starts_with("250"));
        assert!(reply(&svc, 1, "PWD").contains("\"/\""));
    }

    #[test]
    fn mkd_dele_size() {
        let svc = service();
        login(&svc, 1);
        assert!(reply(&svc, 1, "MKD /inbox").starts_with("257"));
        assert!(reply(&svc, 1, "MKD /inbox").starts_with("550"), "exists");
        assert!(reply(&svc, 1, "SIZE /pub/hello.txt").starts_with("213 9"));
        assert!(reply(&svc, 1, "DELE /pub/hello.txt").starts_with("250"));
        assert!(reply(&svc, 1, "SIZE /pub/hello.txt").starts_with("550"));
    }

    #[test]
    fn transfers_require_pasv_first() {
        let svc = service();
        login(&svc, 1);
        assert!(reply(&svc, 1, "LIST").starts_with("503"));
        assert!(reply(&svc, 1, "RETR /pub/hello.txt").starts_with("503"));
        assert!(reply(&svc, 1, "STOR up.txt").starts_with("503"));
    }

    #[test]
    fn retr_transfers_file_over_data_connection() {
        let (svc, clients) = service_with_clients();
        login(&svc, 1);
        let pasv = reply(&svc, 1, "PASV");
        assert!(pasv.starts_with("227"), "{pasv}");
        let r = reply(&svc, 1, "RETR /pub/hello.txt");
        assert!(r.contains("150"), "{r}");
        assert!(r.contains("226"), "{r}");
        assert_eq!(
            received(&mut clients.lock()[0]),
            (b"hello ftp".to_vec(), true)
        );
    }

    #[test]
    fn list_transfers_directory_over_data_connection() {
        let (svc, clients) = service_with_clients();
        login(&svc, 1);
        let _ = reply(&svc, 1, "PASV");
        let r = reply(&svc, 1, "LIST /pub");
        assert!(r.contains("226"), "{r}");
        assert_eq!(
            received(&mut clients.lock()[0]),
            (b"hello.txt\r\n".to_vec(), true)
        );
    }

    #[test]
    fn stor_uploads_into_the_vfs() {
        let (svc, clients) = service_with_clients();
        login(&svc, 1);
        let _ = reply(&svc, 1, "PASV");
        let mut client = clients.lock().pop().expect("connected on PASV");
        client.try_write(b"uploaded bytes").unwrap();
        client.shutdown_write();
        let r = reply(&svc, 1, "STOR /pub/up.bin");
        assert!(r.contains("226"), "{r}");
        assert_eq!(&**svc.vfs().read("/pub/up.bin").unwrap(), b"uploaded bytes");
    }

    #[test]
    fn a_transfer_uses_the_last_pasv_and_a_closed_peer_fails_it() {
        let (svc, clients) = service_with_clients();
        login(&svc, 1);
        let _ = reply(&svc, 1, "PASV");
        let _ = reply(&svc, 1, "PASV");
        clients.lock()[1].shutdown();
        assert!(reply(&svc, 1, "RETR /pub/hello.txt").starts_with("425"));
        // The first listener went with the second PASV: its client closed.
        assert_eq!(received(&mut clients.lock()[0]), (Vec::new(), true));
    }

    #[test]
    fn retr_of_missing_file_reports_550_and_pasv_is_consumed() {
        let svc = service();
        login(&svc, 1);
        let _ = reply(&svc, 1, "PASV");
        assert!(reply(&svc, 1, "RETR /nope").starts_with("550"));
        // The listener was consumed; a new transfer needs a fresh PASV.
        assert!(reply(&svc, 1, "RETR /pub/hello.txt").starts_with("503"));
    }

    #[test]
    fn sessions_are_independent_per_connection() {
        let svc = service();
        login(&svc, 1);
        assert!(reply(&svc, 1, "CWD pub").starts_with("250"));
        // Connection 2 is not logged in and has its own cwd.
        assert!(reply(&svc, 2, "PWD").starts_with("530"));
        login(&svc, 2);
        assert!(reply(&svc, 2, "PWD").contains("\"/\""));
    }

    #[test]
    fn stat_reports_server_status_with_latency_quantiles() {
        let svc = service();
        login(&svc, 1);
        // Without an attachment STAT still answers with session counts.
        let bare = reply(&svc, 1, "STAT");
        assert!(bare.starts_with("211-"), "{bare}");
        assert!(bare.contains("Live sessions: 1"), "{bare}");
        assert!(bare.ends_with("211 End\r\n"), "{bare}");

        let hub = DiagHub::new(ServerStats::new_shared(), MetricsRegistry::enabled());
        let accepted = &hub.stats().connections_accepted;
        accepted.fetch_add(7, std::sync::atomic::Ordering::Relaxed);
        hub.metrics().record_stage(Stage::Decode, 40);
        svc.attach_diag(hub);
        let full = reply(&svc, 1, "STAT");
        assert!(full.contains("connections accepted: 7"), "{full}");
        assert!(full.contains("decode: count=1 p50="), "{full}");
        assert!(full.contains("p99="), "{full}");
    }

    #[test]
    fn stat_with_path_lists_over_the_control_connection() {
        let svc = service();
        login(&svc, 1);
        let r = reply(&svc, 1, "STAT /pub");
        assert!(r.starts_with("211-Status of /pub"), "{r}");
        assert!(r.contains(" hello.txt\r\n"), "{r}");
        let r = reply(&svc, 1, "STAT /pub/hello.txt");
        assert!(r.contains("/pub/hello.txt"), "{r}");
        assert!(reply(&svc, 1, "STAT /nope").starts_with("550"));
    }

    #[test]
    fn site_dump_returns_snapshot_json() {
        let svc = service();
        login(&svc, 1);
        // Without an attachment SITE DUMP answers 211 with a note.
        let bare = reply(&svc, 1, "SITE DUMP");
        assert!(bare.starts_with("211-Diagnostic snapshot"), "{bare}");
        assert!(bare.contains("No diagnostics hub attached"), "{bare}");

        let hub = DiagHub::new(ServerStats::new_shared(), MetricsRegistry::enabled());
        svc.attach_diag(hub.clone());
        let r = reply(&svc, 1, "SITE DUMP");
        assert!(r.starts_with("211-Diagnostic snapshot"), "{r}");
        assert!(r.ends_with("211 End\r\n"), "{r}");
        // The snapshot rides as the one body line of the 211 reply.
        let dump = Json::parse(r.lines().nth(1).unwrap().trim_start()).expect("well-formed");
        assert_eq!(dump["reason"].as_str(), Some("ftp_site_dump"));
        assert!(matches!(dump["counters"], Json::Obj(_)), "{r}");
        assert_eq!(hub.snapshots_captured(), 1);
    }

    #[test]
    fn site_dump_requires_login() {
        let svc = service();
        assert!(reply(&svc, 1, "SITE DUMP").starts_with("530"));
    }

    #[test]
    fn site_trace_returns_perfetto_json() {
        let svc = service();
        login(&svc, 1);
        // Without an attachment SITE TRACE answers 211 with a note.
        let bare = reply(&svc, 1, "SITE TRACE");
        assert!(bare.starts_with("211-Perfetto trace"), "{bare}");
        assert!(bare.contains("No diagnostics hub attached"), "{bare}");

        let hub = DiagHub::new(ServerStats::new_shared(), MetricsRegistry::enabled());
        let tracer = nserver_core::trace::DebugTracer::enabled(256);
        tracer.conn_open(1, "client:9");
        tracer.span(SpanEvent::Accept, 1);
        tracer.span(SpanEvent::Close, 1);
        hub.wire_tracer(tracer);
        svc.attach_diag(hub);
        let r = reply(&svc, 1, "SITE TRACE");
        assert!(r.starts_with("211-Perfetto trace"), "{r}");
        assert!(r.contains("traceEvents"), "{r}");
        assert!(r.contains("displayTimeUnit"), "{r}");
        assert!(r.contains("client:9"), "{r}");
        assert!(r.ends_with("211 End\r\n"), "{r}");
    }

    #[test]
    fn site_trace_requires_login() {
        let svc = service();
        assert!(reply(&svc, 1, "SITE TRACE").starts_with("530"));
    }

    #[test]
    fn retr_stamps_data_open_close_spans_on_control_session() {
        let (svc, clients) = service_with_clients();
        login(&svc, 1);
        let hub = DiagHub::new(ServerStats::new_shared(), MetricsRegistry::enabled());
        let tracer = nserver_core::trace::DebugTracer::enabled(256);
        tracer.conn_open(1, "control:1");
        hub.wire_tracer(tracer.clone());
        svc.attach_diag(hub);

        let _ = reply(&svc, 1, "PASV");
        let r = reply(&svc, 1, "RETR /pub/hello.txt");
        assert!(r.contains("226"), "{r}");
        assert_eq!(
            received(&mut clients.lock()[0]),
            (b"hello ftp".to_vec(), true)
        );

        let spans = tracer.spans_for(1);
        let open = spans
            .iter()
            .position(|e| matches!(e, SpanEvent::DataOpen { ordinal: 1 }));
        let close = spans
            .iter()
            .position(|e| matches!(e, SpanEvent::DataClose { ordinal: 1 }));
        let (open, close) = (open.expect("DataOpen span"), close.expect("DataClose span"));
        assert!(open < close, "open {open} must precede close {close}");
    }

    #[test]
    fn stat_requires_login() {
        let svc = service();
        assert!(reply(&svc, 1, "STAT").starts_with("530"));
    }

    #[test]
    fn quit_closes_and_unknown_is_502() {
        let svc = service();
        let action = svc.handle(
            &ctx(1),
            FtpRequest::Command(Command::parse("QUIT").unwrap()),
        );
        assert!(matches!(action, Action::ReplyClose(_)));
        assert!(reply(&svc, 1, "FEAT").starts_with("502"));
    }

    #[test]
    fn malformed_requests_get_500() {
        let svc = service();
        match svc.handle(&ctx(1), FtpRequest::Malformed("RETR needs arg".into())) {
            Action::Reply(r) => assert!(r.starts_with("500")),
            other => panic!("{other:?}"),
        }
    }
}
