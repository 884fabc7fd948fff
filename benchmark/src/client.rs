//! The load generator: an HTTP response framer, the checks every
//! response must pass, and one client loop per pacing. It is frozen with
//! the benchmark — it shares the process and its one CPU with the
//! server, so its cost is in every number and must not move.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use nserver_core::transport::mem::{MemConnector, MemStream};
use nserver_core::transport::{ReadOutcome, StreamIo};

use crate::stats::Histogram;
use crate::sys;
use crate::workload::{File, Files, SplitMix64, REQUESTS_PER_CHURN_CONN};

/// A response, or any step towards one, that takes longer is a failure.
pub const TIMEOUT: Duration = Duration::from_secs(5);

const MAX_HEAD_BYTES: usize = 16 * 1024;
const MIN_READ_BYTES: usize = 64 * 1024;

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

#[derive(Debug, PartialEq)]
pub struct Frame<'a> {
    pub status: u16,
    pub keep_alive: bool,
    pub body: &'a [u8],
}

/// Splits a byte stream into HTTP/1.1 responses delimited by
/// `Content-Length`. Bytes go in through [`Framer::spare`] +
/// [`Framer::filled`] (or [`Framer::push`]); frames borrow the buffer
/// until the next call.
pub struct Framer {
    buf: Vec<u8>,
    /// Live bytes are `buf[start..end]`.
    start: usize,
    end: usize,
    /// Length of the frame handed out by the last `next_frame`, released
    /// on the following call.
    lent: usize,
    /// Live bytes already searched for the end of a head.
    scanned: usize,
}

impl Framer {
    pub fn new() -> Self {
        Self {
            buf: vec![0; 4 * MIN_READ_BYTES],
            start: 0,
            end: 0,
            lent: 0,
            scanned: 0,
        }
    }

    fn release(&mut self) {
        self.start += std::mem::take(&mut self.lent);
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
    }

    /// Room for the next read, at least `MIN_READ_BYTES` long.
    pub fn spare(&mut self) -> &mut [u8] {
        self.release();
        if self.buf.len() - self.end < MIN_READ_BYTES {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if self.buf.len() - self.end < MIN_READ_BYTES {
                self.buf.resize(self.buf.len() * 2, 0);
            }
        }
        &mut self.buf[self.end..]
    }

    /// `n` bytes were written to the front of [`Framer::spare`].
    pub fn filled(&mut self, n: usize) {
        self.end += n;
        assert!(self.end <= self.buf.len(), "filled more than was spare");
    }

    #[cfg(test)]
    pub fn push(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let spare = self.spare();
            let n = spare.len().min(bytes.len());
            spare[..n].copy_from_slice(&bytes[..n]);
            self.filled(n);
            bytes = &bytes[n..];
        }
    }

    /// Bytes received and not yet framed.
    #[cfg(test)]
    pub fn pending(&self) -> usize {
        self.end - self.start - self.lent
    }

    /// The next complete response, `Ok(None)` when more bytes are needed.
    pub fn next_frame(&mut self) -> Result<Option<Frame<'_>>, String> {
        self.release();
        let live = &self.buf[self.start..self.end];
        let from = self.scanned.saturating_sub(3);
        let Some(head_len) = live[from..]
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .map(|i| from + i + 4)
        else {
            self.scanned = live.len();
            if live.len() > MAX_HEAD_BYTES {
                return Err(format!("no end of head in {} bytes", live.len()));
            }
            return Ok(None);
        };
        let head = std::str::from_utf8(&live[..head_len - 4])
            .map_err(|_| "response head is not UTF-8".to_string())?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status = status_line
            .strip_prefix("HTTP/1.")
            .and_then(|rest| rest.get(2..5))
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or_else(|| format!("bad status line {status_line:?}"))?;
        let mut length = None;
        let mut keep_alive = true;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                return Err(format!("bad header line {line:?}"));
            };
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = !value.trim().eq_ignore_ascii_case("close");
            }
        }
        let length = length.ok_or_else(|| "response without a Content-Length".to_string())?;
        if live.len() < head_len + length {
            // The head is complete; do not search for it again.
            self.scanned = head_len.saturating_sub(1);
            return Ok(None);
        }
        self.scanned = 0;
        self.lent = head_len + length;
        Ok(Some(Frame {
            status,
            keep_alive,
            body: &self.buf[self.start + head_len..self.start + head_len + length],
        }))
    }
}

// ---------------------------------------------------------------------
// Checking
// ---------------------------------------------------------------------

const SAMPLED_EDGE_BYTES: usize = 64;
const SAMPLED_FULL_EVERY: u64 = 16;

/// Every check a response must pass. `full_body` compares every body
/// byte for byte with what the file set synthesised; otherwise every
/// 16th body in full and the first and last 64 bytes of the rest. `nth`
/// counts this connection's responses from zero; `closing` says the
/// request asked the server to close afterwards.
fn check_response(
    full_body: bool,
    frame: &Frame<'_>,
    file: &File,
    nth: u64,
    closing: bool,
) -> Result<(), String> {
    if frame.status != 200 {
        return Err(format!("{}: status {}", file.path, frame.status));
    }
    if frame.keep_alive == closing {
        return Err(format!(
            "{}: asked for close={closing}, answered keep-alive={}",
            file.path, frame.keep_alive
        ));
    }
    let (got, want) = (frame.body, &file.body[..]);
    if got.len() != want.len() {
        return Err(format!(
            "{}: Content-Length {} for a {}-byte file",
            file.path,
            got.len(),
            want.len()
        ));
    }
    let in_full =
        full_body || nth.is_multiple_of(SAMPLED_FULL_EVERY) || got.len() <= 2 * SAMPLED_EDGE_BYTES;
    let same = if in_full {
        got == want
    } else {
        let tail = got.len() - SAMPLED_EDGE_BYTES;
        got[..SAMPLED_EDGE_BYTES] == want[..SAMPLED_EDGE_BYTES] && got[tail..] == want[tail..]
    };
    if same {
        Ok(())
    } else {
        Err(format!("{}: body differs from the file", file.path))
    }
}

// ---------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------

/// A client connection: blocking, with [`TIMEOUT`] on every step.
pub trait Link: Send {
    fn send_all(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Read some bytes; `Ok(0)` is end of stream.
    fn recv(&mut self, buf: &mut [u8]) -> io::Result<usize>;
}

pub trait Dial: Send + Sync {
    type Link: Link;
    fn dial(&self) -> io::Result<Self::Link>;
}

/// Loopback TCP to the address the server bound.
pub struct TcpDial(pub String);

impl Dial for TcpDial {
    type Link = TcpStream;
    fn dial(&self) -> io::Result<TcpStream> {
        let s = TcpStream::connect(&self.0)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(TIMEOUT))?;
        s.set_write_timeout(Some(TIMEOUT))?;
        Ok(s)
    }
}

impl Link for TcpStream {
    fn send_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.write_all(bytes)
    }

    fn recv(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.read(buf) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                other => return other,
            }
        }
    }
}

/// The in-memory transport (ladder rung `server.mem`). Its streams do
/// not block, so the link yields the core until bytes arrive.
pub struct MemDial(pub MemConnector);

impl Dial for MemDial {
    type Link = MemStream;
    fn dial(&self) -> io::Result<MemStream> {
        Ok(self.0.connect())
    }
}

impl Link for MemStream {
    fn send_all(&mut self, mut bytes: &[u8]) -> io::Result<()> {
        let deadline = Instant::now() + TIMEOUT;
        while !bytes.is_empty() {
            match self.try_write(bytes)? {
                0 if Instant::now() > deadline => return Err(io::ErrorKind::TimedOut.into()),
                0 => std::thread::yield_now(),
                n => bytes = &bytes[n..],
            }
        }
        Ok(())
    }

    fn recv(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let deadline = Instant::now() + TIMEOUT;
        loop {
            match self.try_read(buf)? {
                ReadOutcome::Data(n) => return Ok(n),
                ReadOutcome::Closed => return Ok(0),
                ReadOutcome::WouldBlock if Instant::now() > deadline => {
                    return Err(io::ErrorKind::TimedOut.into())
                }
                ReadOutcome::WouldBlock => std::thread::yield_now(),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Tallies
// ---------------------------------------------------------------------

/// One verified response: when it completed and how long it took, both
/// in nanoseconds, the former since the clients' common epoch. The pair
/// is the request's harness-side span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub done_ns: u64,
    pub latency_ns: u64,
}

#[derive(Debug, Default)]
pub struct Tally {
    /// Responses that passed every check.
    pub verified: u64,
    /// Their latencies, in nanoseconds.
    pub latency: Histogram,
    /// The first `keep_spans` of them one by one, for the span file.
    pub spans: Vec<Sample>,
    pub keep_spans: usize,
    pub body_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    pub connections: u64,
    pub addr_not_available: u64,
    /// Open loop only: how late each request was written, in nanoseconds.
    pub lag_ns: Vec<u64>,
    pub first_failure: Option<String>,
}

impl Tally {
    fn fail(&mut self, count: u64, why: impl FnOnce() -> String) {
        self.failed += count;
        if self.first_failure.is_none() {
            self.first_failure = Some(why());
        }
    }

    fn pass(&mut self, epoch: Instant, started: Instant, now: Instant, body_len: usize) {
        let latency_ns = now.saturating_duration_since(started).as_nanos() as u64;
        self.verified += 1;
        self.body_bytes += body_len as u64;
        self.latency.record(latency_ns);
        if self.spans.len() < self.keep_spans {
            self.spans.push(Sample {
                done_ns: now.saturating_duration_since(epoch).as_nanos() as u64,
                latency_ns,
            });
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.verified += other.verified;
        self.latency.merge(&other.latency);
        self.spans.extend(other.spans);
        self.body_bytes += other.body_bytes;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.connections += other.connections;
        self.addr_not_available += other.addr_not_available;
        self.lag_ns.extend(other.lag_ns);
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// When a closed loop stops issuing work.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    At(Instant),
    /// After this many requests (pipelined) or connections (churn).
    After(u64),
}

impl Stop {
    fn reached(self, done: u64) -> bool {
        match self {
            Stop::At(t) => Instant::now() >= t,
            Stop::After(n) => done >= n,
        }
    }
}

/// What every client loop needs besides its connection.
pub struct Lane<'a> {
    pub files: &'a Files,
    /// This connection's request stream, carried on from the warm-up.
    pub rng: &'a mut SplitMix64,
    /// See [`check_response`].
    pub full_body_check: bool,
    /// Zero of `Sample::done_ns`.
    pub epoch: Instant,
    /// How many of this lane's responses to keep as spans.
    pub keep_spans: usize,
}

impl Lane<'_> {
    fn tally(&self) -> Tally {
        Tally {
            keep_spans: self.keep_spans,
            ..Tally::default()
        }
    }
}

/// A request that has been written and whose response is owed.
#[derive(Debug, Clone, Copy)]
struct Want {
    id: u32,
    /// Where this request's latency starts.
    started: Instant,
    /// It carried `Connection: close`: the response must say so too and
    /// be followed by the end of the stream.
    closing: bool,
}

/// Read responses until every one of `wanted` has been framed, checking
/// each against the file it was asked for. On a framing or transport
/// failure the stream is beyond use: what is still owed counts as failed
/// and `Err` is returned.
fn read_responses<L: Link>(
    link: &mut L,
    framer: &mut Framer,
    lane: &Lane<'_>,
    wanted: &[Want],
    seen: &mut u64,
    tally: &mut Tally,
) -> Result<(), ()> {
    let mut got = 0;
    while got < wanted.len() {
        let owed = (wanted.len() - got) as u64;
        match framer.next_frame() {
            Ok(Some(frame)) => {
                let want = wanted[got];
                let done = Instant::now();
                let body_len = frame.body.len();
                let mut verdict = check_response(
                    lane.full_body_check,
                    &frame,
                    lane.files.get(want.id),
                    *seen,
                    want.closing,
                );
                if verdict.is_ok() && want.closing {
                    verdict = match link.recv(framer.spare()) {
                        Ok(0) => Ok(()),
                        Ok(n) => Err(format!("{n} bytes after the closing response")),
                        Err(e) => Err(format!("no end of stream after the closing response: {e}")),
                    };
                }
                match verdict {
                    Ok(()) => tally.pass(lane.epoch, want.started, done, body_len),
                    Err(why) => tally.fail(1, || why),
                }
                *seen += 1;
                got += 1;
            }
            Ok(None) => match link.recv(framer.spare()) {
                Ok(0) => {
                    tally.fail(owed, || "connection closed with responses owed".into());
                    return Err(());
                }
                Ok(n) => framer.filled(n),
                Err(e) => {
                    tally.fail(owed, || format!("read: {e}"));
                    return Err(());
                }
            },
            Err(why) => {
                tally.fail(owed, || format!("framing: {why}"));
                return Err(());
            }
        }
    }
    Ok(())
}

/// Closed loop on one keep-alive connection: write `depth` requests in
/// one piece, read `depth` responses. Each request's latency runs from
/// the start of that write to its last body byte.
pub fn run_pipelined<L: Link>(
    link: &mut L,
    lane: &mut Lane<'_>,
    depth: usize,
    stop: Stop,
) -> Tally {
    let mut tally = lane.tally();
    let mut framer = Framer::new();
    let mut batch = Vec::new();
    let mut wanted = Vec::with_capacity(depth);
    let mut seen = 0;
    while !stop.reached(tally.attempted) {
        let n = match stop {
            Stop::After(total) => depth.min((total - tally.attempted) as usize),
            Stop::At(_) => depth,
        };
        batch.clear();
        wanted.clear();
        let started = Instant::now();
        for _ in 0..n {
            let id = lane.files.draw(lane.rng);
            batch.extend_from_slice(&lane.files.get(id).request);
            wanted.push(Want {
                id,
                started,
                closing: false,
            });
        }
        tally.attempted += n as u64;
        if let Err(e) = link.send_all(&batch) {
            tally.fail(n as u64, || format!("write: {e}"));
            break;
        }
        if read_responses(link, &mut framer, lane, &wanted, &mut seen, &mut tally).is_err() {
            break;
        }
    }
    tally
}

/// Fetch each of `ids` once, one at a time (the keep-alive warm-up: it
/// puts every file of the workload in the cache and opens the socket's
/// buffers before the clock starts).
pub fn fetch_each<L: Link>(link: &mut L, lane: &Lane<'_>, ids: impl Iterator<Item = u32>) -> Tally {
    let mut tally = lane.tally();
    let mut framer = Framer::new();
    let mut seen = 0;
    for id in ids {
        tally.attempted += 1;
        let want = [Want {
            id,
            started: Instant::now(),
            closing: false,
        }];
        if let Err(e) = link.send_all(&lane.files.get(id).request) {
            tally.fail(1, || format!("write: {e}"));
            break;
        }
        if read_responses(link, &mut framer, lane, &want, &mut seen, &mut tally).is_err() {
            break;
        }
    }
    tally
}

/// Closed loop, SpecWeb99's connection model: connect, five requests one
/// at a time, the fifth asking the server to close, then read to end of
/// stream. The first request's latency includes the connect.
pub fn run_churn<D: Dial>(dial: &D, lane: &mut Lane<'_>, stop: Stop) -> Tally {
    let mut tally = lane.tally();
    let mut framer = Framer::new();
    let mut seen = 0;
    const PER_CONN: u64 = REQUESTS_PER_CHURN_CONN as u64;
    while !stop.reached(tally.connections) {
        tally.connections += 1;
        tally.attempted += PER_CONN;
        let mut started = Instant::now();
        let mut link = match dial.dial() {
            Ok(l) => l,
            Err(e) => {
                if e.kind() == io::ErrorKind::AddrNotAvailable {
                    tally.addr_not_available += 1;
                }
                tally.fail(PER_CONN, || format!("connect: {e}"));
                continue;
            }
        };
        for k in 0..PER_CONN {
            let closing = k + 1 == PER_CONN;
            let id = lane.files.draw(lane.rng);
            let file = lane.files.get(id);
            if k > 0 {
                started = Instant::now();
            }
            let request = if closing {
                &file.closing_request
            } else {
                &file.request
            };
            let want = [Want {
                id,
                started,
                closing,
            }];
            let sent = link.send_all(request);
            if let Err(e) = &sent {
                tally.fail(1, || format!("write: {e}"));
            }
            if sent.is_err()
                || read_responses(&mut link, &mut framer, lane, &want, &mut seen, &mut tally)
                    .is_err()
            {
                // The requests this connection never got to send.
                tally.failed += PER_CONN - k - 1;
                framer = Framer::new();
                break;
            }
        }
    }
    tally
}

/// An open-loop schedule: Poisson arrivals from `t0` until `until`.
pub struct Arrivals {
    rng: SplitMix64,
    mean_gap_s: f64,
    next_s: f64,
}

impl Arrivals {
    pub fn new(rng: SplitMix64, rate_per_s: f64) -> Self {
        let mut a = Self {
            rng,
            mean_gap_s: 1.0 / rate_per_s,
            next_s: 0.0,
        };
        a.next_s = a.rng.exponential(a.mean_gap_s);
        a
    }

    /// Seconds after the schedule's zero at which the next request is due.
    pub fn peek(&self) -> f64 {
        self.next_s
    }

    pub fn advance(&mut self) {
        self.next_s += self.rng.exponential(self.mean_gap_s);
    }
}

/// One request of the open loop that has been written and not answered.
struct Outstanding {
    id: u32,
    due: Instant,
}

/// How late a request due at `due` was written at `now`.
pub fn lateness_ns(due: Instant, now: Instant) -> u64 {
    now.saturating_duration_since(due).as_nanos() as u64
}

/// Open loop on one keep-alive connection: each request is written when
/// the schedule says, answered or not; latency runs from the due time,
/// so a stall is charged to every request it delays.
pub fn run_open(
    link: &mut TcpStream,
    lane: &mut Lane<'_>,
    mut arrivals: Arrivals,
    t0: Instant,
    window: Duration,
) -> Tally {
    let mut tally = lane.tally();
    let mut framer = Framer::new();
    let mut outstanding: VecDeque<Outstanding> = VecDeque::new();
    let mut seen = 0;
    let window_s = window.as_secs_f64();
    loop {
        let next_due =
            (arrivals.peek() < window_s).then(|| t0 + Duration::from_secs_f64(arrivals.peek()));
        let now = Instant::now();
        if let Some(due) = next_due.filter(|due| now >= *due) {
            let id = lane.files.draw(lane.rng);
            arrivals.advance();
            tally.attempted += 1;
            tally.lag_ns.push(lateness_ns(due, now));
            if let Err(e) = link.send_all(&lane.files.get(id).request) {
                tally.fail(1 + outstanding.len() as u64, || format!("write: {e}"));
                break;
            }
            outstanding.push_back(Outstanding { id, due });
            continue;
        }
        let overdue = outstanding.front().map(|o| o.due + TIMEOUT);
        if overdue.is_some_and(|t| now >= t) {
            tally.fail(outstanding.len() as u64, || "response timed out".into());
            break;
        }
        let wake = match (next_due, overdue) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) | (None, Some(a)) => a,
            (None, None) => break,
        };
        if !sys::wait_readable(link.as_raw_fd(), wake.saturating_duration_since(now)) {
            continue;
        }
        match link.recv(framer.spare()) {
            Ok(0) => {
                tally.fail(outstanding.len() as u64, || {
                    "connection closed by the server".into()
                });
                break;
            }
            Ok(n) => framer.filled(n),
            Err(e) => {
                tally.fail(outstanding.len() as u64, || format!("read: {e}"));
                break;
            }
        }
        loop {
            match framer.next_frame() {
                Ok(Some(frame)) => {
                    let Some(o) = outstanding.pop_front() else {
                        tally.fail(0, || "a response nobody asked for".into());
                        return tally;
                    };
                    match check_response(
                        lane.full_body_check,
                        &frame,
                        lane.files.get(o.id),
                        seen,
                        false,
                    ) {
                        Ok(()) => tally.pass(lane.epoch, o.due, Instant::now(), frame.body.len()),
                        Err(why) => tally.fail(1, || why),
                    }
                    seen += 1;
                }
                Ok(None) => break,
                Err(why) => {
                    tally.fail(outstanding.len() as u64, || format!("framing: {why}"));
                    return tally;
                }
            }
        }
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(body: &[u8], close: bool) -> Vec<u8> {
        let mut r = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            body.len(),
            if close { "close" } else { "keep-alive" }
        )
        .into_bytes();
        r.extend_from_slice(body);
        r
    }

    fn drain(f: &mut Framer) -> Vec<(u16, bool, Vec<u8>)> {
        let mut out = Vec::new();
        while let Some(fr) = f.next_frame().unwrap() {
            out.push((fr.status, fr.keep_alive, fr.body.to_vec()));
        }
        out
    }

    #[test]
    fn framer_fed_a_byte_at_a_time_yields_each_response_once() {
        let mut wire = response(b"first body", false);
        wire.extend(response(b"", false));
        wire.extend(response(&[7u8; 300], true));
        let mut f = Framer::new();
        let mut got = Vec::new();
        for b in &wire {
            f.push(std::slice::from_ref(b));
            got.extend(drain(&mut f));
        }
        assert_eq!(
            got,
            vec![
                (200, true, b"first body".to_vec()),
                (200, true, Vec::new()),
                (200, false, vec![7u8; 300]),
            ]
        );
        assert_eq!(f.pending(), 0);
    }

    #[test]
    fn framer_handles_pipelined_responses_split_anywhere() {
        let bodies: Vec<Vec<u8>> = (0..40usize)
            .map(|i| vec![i as u8; i * 977 % 5000])
            .collect();
        let wire: Vec<u8> = bodies.iter().flat_map(|b| response(b, false)).collect();
        for chunk in [1usize, 2, 3, 5, 64, 1000, 4096, wire.len()] {
            let mut f = Framer::new();
            let mut got = Vec::new();
            for piece in wire.chunks(chunk) {
                f.push(piece);
                got.extend(drain(&mut f).into_iter().map(|(_, _, b)| b));
            }
            assert_eq!(got, bodies, "chunk size {chunk}");
        }
    }

    #[test]
    fn framer_grows_for_bodies_larger_than_its_buffer() {
        let body = vec![0xAB; 1_500_000];
        let mut f = Framer::new();
        f.push(&response(&body, false));
        f.push(&response(b"after", false));
        let got = drain(&mut f);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].2.len(), body.len());
        assert_eq!(got[1].2, b"after");
    }

    #[test]
    fn framer_rejects_what_it_cannot_delimit() {
        let mut f = Framer::new();
        f.push(b"HTTP/1.1 200 OK\r\nContent-Type: x\r\n\r\n");
        assert!(f.next_frame().unwrap_err().contains("Content-Length"));
        let mut f = Framer::new();
        f.push(b"SMTP ready\r\n\r\n");
        assert!(f.next_frame().unwrap_err().contains("status line"));
        let mut f = Framer::new();
        f.push(&vec![b'x'; MAX_HEAD_BYTES + 1]);
        assert!(f.next_frame().is_err());
    }

    #[test]
    fn body_check_catches_status_length_and_content() {
        let file = File {
            path: "/f".into(),
            body: std::sync::Arc::new((0..=255u8).cycle().take(1000).collect()),
            request: Vec::new(),
            closing_request: Vec::new(),
        };
        let frame = |status, body| Frame {
            status,
            keep_alive: true,
            body,
        };
        let full = |fr: Frame<'_>, closing| check_response(true, &fr, &file, 1, closing);
        let sampled = |fr: Frame<'_>, nth| check_response(false, &fr, &file, nth, false);
        assert!(full(frame(200, &file.body), false).is_ok());
        assert!(full(frame(200, &file.body), true).is_err(), "close ignored");
        assert!(full(frame(404, &file.body), false).is_err());
        assert!(full(frame(200, &file.body[..999]), false).is_err());
        let mut middle = file.body.to_vec();
        middle[500] ^= 1;
        assert!(full(frame(200, &middle), false).is_err());
        assert!(sampled(frame(200, &middle), 1).is_ok(), "edges only");
        assert!(sampled(frame(200, &middle), 16).is_err(), "16th in full");
        let mut edge = file.body.to_vec();
        edge[999] ^= 1;
        assert!(sampled(frame(200, &edge), 1).is_err());
    }

    #[test]
    fn open_loop_lateness_is_measured_from_the_due_time() {
        let t0 = Instant::now();
        let due = t0 + Duration::from_micros(500);
        assert_eq!(lateness_ns(due, t0 + Duration::from_micros(750)), 250_000);
        assert_eq!(lateness_ns(due, due), 0);
        assert_eq!(lateness_ns(due, t0), 0, "early is not late");
    }

    #[test]
    fn arrivals_repeat_per_seed_and_keep_the_asked_rate() {
        let times = |seed| {
            let mut a = Arrivals::new(SplitMix64::new(seed), 1000.0);
            let mut v = Vec::new();
            while a.peek() < 5.0 {
                v.push(a.peek());
                a.advance();
            }
            v
        };
        let a = times(5);
        assert_eq!(a, times(5));
        assert_ne!(a, times(6));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(
            (4_700..5_300).contains(&a.len()),
            "{} arrivals in 5 s",
            a.len()
        );
    }
}
