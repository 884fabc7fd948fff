//! Relay/cluster trace equivalence: the differential checker.
//!
//! The paper's cluster pattern claims the relay front end is
//! *transparent*: a client talking to a [`ClusterFrontEnd`] must observe
//! exactly what it would observe talking to a backend N-Server directly
//! — including when the relay's dial logic silently retries a dead
//! backend and rotates to the next candidate. This module makes the
//! claim checkable: the same (sanitized, fault-free) schedule is driven
//! over real TCP against **two arms** — a direct backend, and a fresh
//! backend behind the relay — and the per-connection client-observable
//! traces are compared.
//!
//! * **HTTP** arms are compared byte-for-byte, and each arm is also
//!   anchored to the model's [`expected_outbound`] stream, so a
//!   divergence names the guilty arm.
//! * **FTP** arms are compared at the `(reply code, multiline?)` level —
//!   the same alphabet the conformance model checks — because `227`
//!   passive-mode replies legitimately embed different port numbers per
//!   arm. Scripted data ops run against whichever passive port each
//!   arm's own control channel announces, so `STOR`/`RETR` transfers
//!   exercise the full dual-socket flow in both arms.
//!
//! [`ReplayingProxy`] is the soundness mutant for this checker: a relay
//! whose upstream path writes every client chunk twice — the classic
//! replay bug of retry logic that re-sends a request it already
//! delivered. A duplicated `STOR` (or even a duplicated `USER`) produces
//! a reply stream the direct arm never shows, and the differential must
//! catch it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{FromRawFd, OwnedFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nserver_core::cluster::{Balancing, ClusterFrontEnd, RetryPolicy};
use nserver_core::fault::FaultPlan;
use nserver_core::server::ServerBuilder;
use nserver_core::transport::TcpListenerNb;
use nserver_ftp::observe::parse_pasv_port;
use nserver_ftp::{cops_ftp_options, split_replies, FtpCodec};
use nserver_http::{cops_http_options, HttpCodec};

use crate::explorer::{standard_ftp_service, standard_http_service};
use crate::ftp_model::expected_replies;
use crate::http_model::{expected_outbound, HttpFixture};
use crate::schedule::{generate, ConnScript, DataOp, DataOpKind, Proto, Schedule};

/// The outcome of one differential run.
#[derive(Debug)]
pub struct DiffReport {
    /// Human-readable per-connection divergences (empty = equivalent).
    pub divergences: Vec<String>,
    /// Relay-arm dial retries (the failover counter).
    pub dial_retries: u64,
    /// Relay-arm clients refused because no backend was dialable.
    pub backend_failures: u64,
}

impl DiffReport {
    /// Whether the two arms were client-observably equivalent.
    pub fn equivalent(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Strip a generated schedule down to its deterministic core: the
/// differential compares two *live* arms, so every source of legitimate
/// per-arm nondeterminism — injected faults, early closes, mid-transfer
/// aborts, pacing — is removed. Bytes pipelined past a close-triggering
/// request are deliberately *kept*: the server ends such a connection
/// with a lingering close (drain, FIN, read until peer FIN), so the
/// final response is a deterministic client observation in both arms —
/// exactly the delivery guarantee the differential must pin down. What
/// remains (pipelined requests, including past a close, multi-connection
/// scripts, full PASV transfers) is exactly the behaviour the relay must
/// preserve.
pub fn sanitize_for_differential(sched: &Schedule) -> Schedule {
    let mut s = sched.clone();
    s.plan = FaultPlan::new(s.plan.seed);
    for conn in &mut s.conns {
        conn.close_early = false;
        for op in &mut conn.data_ops {
            op.abort_after = None;
        }
    }
    for step in &mut s.order {
        step.pause_ms = 0;
    }
    s
}

/// Run the differential for one seed: generate, sanitize, drive both
/// arms, compare. `force_failover` puts a dead backend first in the
/// relay's rotation so the first client connection must retry-rotate.
pub fn relay_differential(proto: Proto, seed: u64, force_failover: bool) -> DiffReport {
    let sched = sanitize_for_differential(&generate(proto, seed));
    let direct = run_direct_arm(proto, &sched);
    let (relayed, dial_retries, backend_failures) = run_relay_arm(proto, &sched, force_failover);
    DiffReport {
        divergences: compare_arms(proto, &sched, &direct, &relayed),
        dial_retries,
        backend_failures,
    }
}

/// Like [`relay_differential`] but with [`ReplayingProxy`] as the front
/// end — the mutation tests assert this diverges.
pub fn replaying_relay_diverges(proto: Proto, sched: &Schedule) -> bool {
    let sched = sanitize_for_differential(sched);
    let direct = run_direct_arm(proto, &sched);
    let mutated = run_replaying_arm(proto, &sched);
    !compare_arms(proto, &sched, &direct, &mutated).is_empty()
}

fn backend_addr(label: &str) -> SocketAddr {
    label.parse().expect("listener label is an address")
}

fn run_direct_arm(proto: Proto, sched: &Schedule) -> Vec<Vec<u8>> {
    match proto {
        Proto::Http => {
            let server = ServerBuilder::new(cops_http_options(), HttpCodec::new(), {
                standard_http_service()
            })
            .expect("valid options")
            .serve(TcpListenerNb::bind("127.0.0.1:0").expect("bind backend"));
            let addr = backend_addr(server.local_label());
            let out = drive_schedule(proto, addr, sched);
            server.shutdown();
            out
        }
        Proto::Ftp => {
            let server = ServerBuilder::new(cops_ftp_options(), FtpCodec, standard_ftp_service())
                .expect("valid options")
                .serve(TcpListenerNb::bind("127.0.0.1:0").expect("bind backend"));
            let addr = backend_addr(server.local_label());
            let out = drive_schedule(proto, addr, sched);
            server.shutdown();
            out
        }
    }
}

/// A loopback address that refuses connections: a TCP socket bound to
/// `127.0.0.1:0` and never listened on. While it lives the kernel gives
/// its port to no other bind or connect and answers a SYN to it with a
/// RST, so a dial is refused by construction (a port bound and dropped
/// could be taken by any bind, or a self-connect, before it is dialled).
struct DeadBackend {
    _socket: OwnedFd,
    label: String,
}

impl DeadBackend {
    fn bind() -> Self {
        const AF_INET: i32 = 2;
        const SOCK_STREAM: i32 = 1;
        const SOCK_CLOEXEC: i32 = 0o2000000;
        /// `struct sockaddr_in`: family in host order, port and address
        /// in network order.
        #[repr(C)]
        struct SockAddrIn([u8; 2], [u8; 2], [u8; 4], [u8; 8]);
        extern "C" {
            fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
            fn bind(fd: i32, addr: *const SockAddrIn, len: u32) -> i32;
            fn getsockname(fd: i32, addr: *mut SockAddrIn, len: *mut u32) -> i32;
        }
        // SAFETY: no pointer is passed.
        let fd = unsafe { socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0) };
        assert!(fd >= 0, "socket: {}", std::io::Error::last_os_error());
        // SAFETY: `fd` is a socket just created and owned by nothing else;
        // the `OwnedFd` closes it when the backend is dropped.
        let socket = unsafe { OwnedFd::from_raw_fd(fd) };
        let family = (AF_INET as u16).to_ne_bytes();
        let mut addr = SockAddrIn(family, [0; 2], [127, 0, 0, 1], [0; 8]);
        let mut len = std::mem::size_of::<SockAddrIn>() as u32;
        // SAFETY (both calls): `addr` is a `sockaddr_in` of `len` bytes
        // that outlives the call; `getsockname` writes at most `len` bytes.
        let rc = unsafe { bind(fd, &addr, len) };
        assert_eq!(rc, 0, "bind: {}", std::io::Error::last_os_error());
        let rc = unsafe { getsockname(fd, &mut addr, &mut len) };
        assert_eq!(rc, 0, "getsockname: {}", std::io::Error::last_os_error());
        let label = format!("127.0.0.1:{}", u16::from_be_bytes(addr.1));
        Self {
            _socket: socket,
            label,
        }
    }
}

fn run_relay_arm(proto: Proto, sched: &Schedule, force_failover: bool) -> (Vec<Vec<u8>>, u64, u64) {
    // A fresh backend per arm: FTP schedules mutate server state (STOR,
    // MKD), so sharing one backend across arms would leak arm 1's
    // mutations into arm 2's listings.
    let run = |front_backends: &dyn Fn(String) -> Vec<String>| -> (Vec<Vec<u8>>, u64, u64) {
        let (label, shutdown): (String, Box<dyn FnOnce()>) = match proto {
            Proto::Http => {
                let s = ServerBuilder::new(cops_http_options(), HttpCodec::new(), {
                    standard_http_service()
                })
                .expect("valid options")
                .serve(TcpListenerNb::bind("127.0.0.1:0").expect("bind backend"));
                (s.local_label().to_string(), Box::new(move || s.shutdown()))
            }
            Proto::Ftp => {
                let s = ServerBuilder::new(cops_ftp_options(), FtpCodec, standard_ftp_service())
                    .expect("valid options")
                    .serve(TcpListenerNb::bind("127.0.0.1:0").expect("bind backend"));
                (s.local_label().to_string(), Box::new(move || s.shutdown()))
            }
        };
        let front = ClusterFrontEnd::start_with_retry(
            TcpListenerNb::bind("127.0.0.1:0").expect("bind front end"),
            front_backends(label),
            Balancing::RoundRobin,
            RetryPolicy {
                attempts: 3,
                backoff: Duration::from_millis(10),
            },
        )
        .expect("start front end");
        let addr = backend_addr(front.local_label());
        let out = drive_schedule(proto, addr, sched);
        let retries = front.stats().dial_retries.load(Ordering::Relaxed);
        let failures = front.stats().backend_failures.load(Ordering::Relaxed);
        front.shutdown();
        shutdown();
        (out, retries, failures)
    };
    if force_failover {
        // Held until `run` has shut its relay down.
        let dead = DeadBackend::bind();
        run(&|live| vec![dead.label.clone(), live])
    } else {
        run(&|live| vec![live])
    }
}

fn run_replaying_arm(proto: Proto, sched: &Schedule) -> Vec<Vec<u8>> {
    let (label, shutdown): (String, Box<dyn FnOnce()>) = match proto {
        Proto::Http => {
            let s = ServerBuilder::new(
                cops_http_options(),
                HttpCodec::new(),
                standard_http_service(),
            )
            .expect("valid options")
            .serve(TcpListenerNb::bind("127.0.0.1:0").expect("bind backend"));
            (s.local_label().to_string(), Box::new(move || s.shutdown()))
        }
        Proto::Ftp => {
            let s = ServerBuilder::new(cops_ftp_options(), FtpCodec, standard_ftp_service())
                .expect("valid options")
                .serve(TcpListenerNb::bind("127.0.0.1:0").expect("bind backend"));
            (s.local_label().to_string(), Box::new(move || s.shutdown()))
        }
    };
    let proxy = ReplayingProxy::start(backend_addr(&label));
    let out = drive_schedule(proto, proxy.addr(), sched);
    proxy.shutdown();
    shutdown();
    out
}

/// What "the reply stream is complete" means while driving one
/// connection.
enum ReplyTarget {
    /// At least this many outbound bytes (HTTP).
    Bytes(usize),
    /// At least this many complete reply blocks (FTP).
    Blocks(usize),
}

/// Drive every connection of the schedule against `addr`, sequentially.
/// Connections in a sanitized schedule are independent (disjoint STOR
/// paths, no cross-connection state the model doesn't replicate), so
/// sequential driving keeps both arms deterministic. Returns each
/// connection's received byte stream.
fn drive_schedule(proto: Proto, addr: SocketAddr, sched: &Schedule) -> Vec<Vec<u8>> {
    sched
        .conns
        .iter()
        .map(|conn| {
            let target = match proto {
                Proto::Http => ReplyTarget::Bytes(
                    expected_outbound(&HttpFixture::standard(), &conn.bytes())
                        .0
                        .len(),
                ),
                Proto::Ftp => ReplyTarget::Blocks(expected_replies(&conn.bytes()).len()),
            };
            drive_conn(addr, conn, &target)
        })
        .collect()
}

/// Drive one connection: send the whole script, then read replies while
/// serving each `227` announcement with the connection's next scripted
/// data op. Reads continue for a short grace window after the target is
/// met, so surplus bytes (the signature of a replaying relay) are
/// captured rather than ignored.
fn drive_conn(addr: SocketAddr, conn: &ConnScript, target: &ReplyTarget) -> Vec<u8> {
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, Duration::from_secs(2)) else {
        return Vec::new();
    };
    let _ = stream.set_read_timeout(Some(Duration::from_millis(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_nodelay(true);
    for seg in &conn.segments {
        if stream.write_all(seg).is_err() {
            break;
        }
    }
    let mut received = Vec::new();
    let mut served = 0usize;
    let deadline = Instant::now() + Duration::from_secs(8);
    let mut target_met_at: Option<Instant> = None;
    let mut buf = [0u8; 4096];
    loop {
        if !conn.data_ops.is_empty() {
            let ports: Vec<u16> = split_replies(&received)
                .complete
                .iter()
                .filter(|b| b.code == 227)
                .filter_map(|b| parse_pasv_port(&b.text))
                .collect();
            while served < ports.len() {
                if let Some(op) = conn.data_ops.get(served) {
                    run_clean_data_op(ports[served], op);
                }
                served += 1;
            }
        }
        let met = match target {
            ReplyTarget::Bytes(n) => received.len() >= *n,
            ReplyTarget::Blocks(n) => split_replies(&received).complete.len() >= *n,
        };
        match (met, target_met_at) {
            (true, None) => target_met_at = Some(Instant::now()),
            // Grace drain: give a buggy arm time to append surplus bytes.
            (true, Some(t)) if t.elapsed() > Duration::from_millis(60) => break,
            _ => {}
        }
        if Instant::now() > deadline {
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => received.extend_from_slice(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => break,
        }
    }
    received
}

/// Serve one sanitized (abort-free) data op against a passive port.
fn run_clean_data_op(port: u16, op: &DataOp) {
    let addr = SocketAddr::from(([127, 0, 0, 1], port));
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, Duration::from_secs(2)) else {
        return;
    };
    match op.kind {
        DataOpKind::Write => {
            let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
            let _ = stream.write_all(&op.payload);
        }
        DataOpKind::Read => {
            let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));
            let deadline = Instant::now() + Duration::from_secs(4);
            let mut buf = [0u8; 4096];
            loop {
                match stream.read(&mut buf) {
                    Ok(0) => break,
                    Ok(_) => {}
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        if Instant::now() > deadline {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            }
        }
    }
}

/// Compare the two arms connection by connection, in the alphabet the
/// protocol's model checks.
fn compare_arms(
    proto: Proto,
    sched: &Schedule,
    direct: &[Vec<u8>],
    relayed: &[Vec<u8>],
) -> Vec<String> {
    let mut divergences = Vec::new();
    for (ci, conn) in sched.conns.iter().enumerate() {
        let d = direct.get(ci).map(Vec::as_slice).unwrap_or(&[]);
        let r = relayed.get(ci).map(Vec::as_slice).unwrap_or(&[]);
        match proto {
            Proto::Http => {
                let (expected, _) = expected_outbound(&HttpFixture::standard(), &conn.bytes());
                if d != expected.as_slice() {
                    divergences.push(format!(
                        "conn {ci}: direct arm broke the model anchor \
                         ({} bytes observed, {} expected)",
                        d.len(),
                        expected.len()
                    ));
                }
                if r != d {
                    let at = r
                        .iter()
                        .zip(d)
                        .position(|(a, b)| a != b)
                        .unwrap_or(d.len().min(r.len()));
                    divergences.push(format!(
                        "conn {ci}: relay arm diverges from direct at byte {at} \
                         (direct {} bytes, relayed {} bytes)",
                        d.len(),
                        r.len()
                    ));
                }
            }
            Proto::Ftp => {
                let codes = |bytes: &[u8]| -> Vec<(u16, bool)> {
                    split_replies(bytes)
                        .complete
                        .iter()
                        .map(|b| (b.code, b.multiline))
                        .collect()
                };
                let dc = codes(d);
                let rc = codes(r);
                if dc != rc {
                    divergences.push(format!(
                        "conn {ci}: reply streams diverge: direct {dc:?} vs relayed {rc:?}"
                    ));
                }
            }
        }
    }
    divergences
}

/// The replay-bug relay: a TCP front end whose upstream pump writes
/// every client chunk to the backend **twice**. Downstream is copied
/// verbatim — the bug is only visible through the backend's reaction to
/// the duplicated commands/requests.
pub struct ReplayingProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ReplayingProxy {
    /// Start proxying `127.0.0.1:0` → `backend`.
    pub fn start(backend: SocketAddr) -> ReplayingProxy {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
        listener.set_nonblocking(true).expect("nonblocking proxy");
        let addr = listener.local_addr().expect("proxy addr");
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("conformance-replaying-proxy".into())
            .spawn(move || {
                let mut conns: Vec<JoinHandle<()>> = Vec::new();
                while !stop_flag.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((client, _)) => {
                            let stop = Arc::clone(&stop_flag);
                            conns.push(std::thread::spawn(move || {
                                proxy_conn(client, backend, &stop)
                            }));
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => break,
                    }
                }
                for c in conns {
                    let _ = c.join();
                }
            })
            .expect("spawn proxy");
        ReplayingProxy {
            addr,
            stop,
            thread: Some(thread),
        }
    }

    /// The proxy's listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join every relay thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn proxy_conn(client: TcpStream, backend: SocketAddr, stop: &Arc<AtomicBool>) {
    let Ok(upstream) = TcpStream::connect_timeout(&backend, Duration::from_secs(2)) else {
        return;
    };
    let (Ok(client_rx), Ok(upstream_rx)) = (client.try_clone(), upstream.try_clone()) else {
        return;
    };
    let up_stop = Arc::clone(stop);
    let up = std::thread::spawn(move || pump(client_rx, upstream, &up_stop, true));
    pump(upstream_rx, client, stop, false);
    let _ = up.join();
}

/// Copy `from` → `to` until EOF, error, or stop. `duplicate` is the
/// injected replay bug: every chunk is written twice.
fn pump(mut from: TcpStream, mut to: TcpStream, stop: &AtomicBool, duplicate: bool) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(20)));
    let _ = to.set_write_timeout(Some(Duration::from_secs(2)));
    let mut buf = [0u8; 4096];
    loop {
        match from.read(&mut buf) {
            Ok(0) => {
                let _ = to.shutdown(std::net::Shutdown::Write);
                return;
            }
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    return;
                }
                if duplicate && to.write_all(&buf[..n]).is_err() {
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Step;

    #[test]
    fn sanitize_removes_every_nondeterminism_source() {
        let mut s = generate(Proto::Ftp, 25);
        s.plan.reset_per_mille = 500;
        s.conns[0].close_early = true;
        if let Some(op) = s.conns[0].data_ops.first_mut() {
            op.abort_after = Some(3);
        }
        s.order.push(Step {
            conn: 0,
            pause_ms: 80,
        });
        s.conns[0].segments.push(Vec::new());
        let clean = sanitize_for_differential(&s);
        assert_eq!(clean.plan.reset_per_mille, 0);
        assert!(clean.conns.iter().all(|c| !c.close_early));
        assert!(clean
            .conns
            .iter()
            .all(|c| c.data_ops.iter().all(|o| o.abort_after.is_none())));
        assert!(clean.order.iter().all(|st| st.pause_ms == 0));
    }

    #[test]
    fn sanitize_preserves_pipelining_past_a_close() {
        // HTTP: the second request closes, the third is pipelined past
        // it. The server's lingering close makes the second response a
        // deterministic client observation, so the script survives
        // byte-identical — the differential must exercise this tail.
        let mut s = generate(Proto::Http, 1);
        s.conns.truncate(1);
        s.conns[0].segments = vec![
            b"GET /index.html HTTP/1.1\r\nHost: c\r\n\r\n\
              GET /x.txt HTTP/1.1\r\nHost: c\r\nConnection: close\r\n\r\n"
                .to_vec(),
            b"GET /index.html HTTP/1.1\r\nHost: c\r\n\r\n".to_vec(),
        ];
        let clean = sanitize_for_differential(&s);
        assert_eq!(clean.conns[0].segments.len(), 2);
        assert_eq!(clean.conns[0].bytes(), s.conns[0].bytes());

        // FTP: commands pipelined past QUIT are likewise preserved.
        let mut s = generate(Proto::Ftp, 1);
        s.conns.truncate(1);
        s.conns[0].segments = vec![b"USER anonymous\r\nPASS guest\r\nQUIT\r\nNOOP\r\n".to_vec()];
        s.conns[0].data_ops.clear();
        let clean = sanitize_for_differential(&s);
        assert_eq!(clean.conns[0].bytes(), s.conns[0].bytes());

        // A script that never closes is (still) left byte-identical.
        let mut s = generate(Proto::Http, 1);
        s.conns.truncate(1);
        s.conns[0].segments = vec![b"GET /index.html HTTP/1.1\r\nHost: c\r\n\r\n".to_vec()];
        let clean = sanitize_for_differential(&s);
        assert_eq!(clean.conns[0].bytes(), s.conns[0].bytes());
    }

    #[test]
    fn dead_backend_refuses_every_dial_while_ephemeral_ports_churn() {
        let dead = DeadBackend::bind();
        let addr = backend_addr(&dead.label);
        let taken = TcpListener::bind(addr).map(drop).map_err(|e| e.kind());
        assert_eq!(taken, Err(std::io::ErrorKind::AddrInUse), "bind {addr}");
        let stop = AtomicBool::new(false);
        let dials: Vec<_> = std::thread::scope(|scope| {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    drop(TcpListener::bind("127.0.0.1:0").expect("bind ephemeral"));
                }
            });
            let dials = (0..200)
                .map(|_| TcpStream::connect(addr).map(drop).map_err(|e| e.kind()))
                .collect();
            stop.store(true, Ordering::Relaxed);
            dials
        });
        for (i, dial) in dials.iter().enumerate() {
            assert_eq!(
                *dial,
                Err(std::io::ErrorKind::ConnectionRefused),
                "dial {i} to {addr}"
            );
        }
    }

    #[test]
    fn replaying_proxy_duplicates_upstream_only() {
        // Echo backend: writes back exactly what it reads.
        let backend = TcpListener::bind("127.0.0.1:0").expect("bind echo");
        let backend_addr = backend.local_addr().expect("addr");
        let echo = std::thread::spawn(move || {
            let (mut s, _) = backend.accept().expect("accept");
            let mut buf = [0u8; 64];
            let mut echoed = 0;
            while echoed < 10 {
                match s.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => {
                        echoed += n;
                        s.write_all(&buf[..n]).expect("echo");
                    }
                    Err(_) => break,
                }
            }
        });
        let proxy = ReplayingProxy::start(backend_addr);
        let mut c = TcpStream::connect(proxy.addr()).expect("connect proxy");
        c.write_all(b"hello").expect("send");
        c.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut buf = [0u8; 64];
        while got.len() < 10 && Instant::now() < deadline {
            match c.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => got.extend_from_slice(&buf[..n]),
                Err(_) => {}
            }
        }
        assert_eq!(got, b"hellohello", "upstream chunk must land twice");
        drop(c);
        proxy.shutdown();
        let _ = echo.join();
    }
}
