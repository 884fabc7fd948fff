//! Adversarial run descriptions: seeded generation, a text wire format
//! for counterexample artifacts, and interleaving enumeration.
//!
//! A [`Schedule`] is everything needed to reproduce one exploration run
//! bit-for-bit: the fault plan, each client's byte script split into
//! segments, and the global delivery order. Generation is a pure function
//! of `(proto, seed)` via [`nserver_netsim::SimRng`], so CI failures
//! replay anywhere from the seed alone, and shrunken counterexamples
//! serialize to a format stable enough to check into `corpus/`.

use nserver_core::fault::FaultPlan;
use nserver_netsim::SimRng;

/// Which protocol stack a schedule drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// COPS-HTTP: static file service over the HTTP/1.1 subset.
    Http,
    /// COPS-FTP: the control-channel command state machine.
    Ftp,
}

impl Proto {
    fn name(self) -> &'static str {
        match self {
            Proto::Http => "http",
            Proto::Ftp => "ftp",
        }
    }
}

/// How the driver services one data (PASV) connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataOpKind {
    /// Connect and receive (LIST / RETR downloads).
    Read,
    /// Connect, send the payload, close (STOR uploads).
    Write,
}

impl DataOpKind {
    fn name(self) -> &'static str {
        match self {
            DataOpKind::Read => "read",
            DataOpKind::Write => "write",
        }
    }
}

/// One planned data-connection operation. The driver performs these in
/// order, one per data listener the owning control connection's `PASV`s
/// open, connecting to that listener as it opens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataOp {
    /// What the client does on the data socket.
    pub kind: DataOpKind,
    /// Upload payload (`Write` only; empty for `Read`).
    pub payload: Vec<u8>,
    /// Abort the data connection after transferring at most this many
    /// bytes: an upload sends that prefix, a download closes before the
    /// server has written. `None` runs the transfer to completion.
    pub abort_after: Option<usize>,
}

/// One client connection's script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnScript {
    /// Byte segments, delivered one per scheduled step, in order.
    pub segments: Vec<Vec<u8>>,
    /// Abruptly close the connection right after the last segment, without
    /// waiting for responses — the early-close/pipelining hazard.
    pub close_early: bool,
    /// Planned data-connection operations, consumed one per data listener
    /// a successful PASV opens. Every PASV the generator emits gets
    /// exactly one op (even transfers expected to fail before accepting,
    /// where the op's socket just sees its listener close).
    pub data_ops: Vec<DataOp>,
}

impl ConnScript {
    /// All script bytes, concatenated.
    pub fn bytes(&self) -> Vec<u8> {
        self.segments.concat()
    }

    /// True when some planned data op aborts its socket mid-transfer —
    /// the conn's data-plane outcomes are then nondeterministic and the
    /// checker must tolerate 425s and truncated payloads.
    pub fn has_abort(&self) -> bool {
        self.data_ops.iter().any(|d| d.abort_after.is_some())
    }
}

/// One delivery step in the global interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Which connection's next segment to deliver.
    pub conn: usize,
    /// Milliseconds the server's clock advances after the segment is
    /// delivered, the server having first run until it is still. A pause
    /// of 0 delivers the next step back to back, so the server may read
    /// the two segments as one.
    pub pause_ms: u64,
}

/// A complete, replayable exploration run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Protocol under test.
    pub proto: Proto,
    /// Generation seed (0 for hand-written corpus schedules).
    pub seed: u64,
    /// Transport fault plan applied server-side.
    pub plan: FaultPlan,
    /// Per-connection scripts; index = connect order.
    pub conns: Vec<ConnScript>,
    /// Interleaved delivery order; each conn appears exactly
    /// `segments.len()` times.
    pub order: Vec<Step>,
}

/// Generate the schedule for `(proto, seed)`.
pub fn generate(proto: Proto, seed: u64) -> Schedule {
    match proto {
        Proto::Http => generate_http(seed),
        Proto::Ftp => generate_ftp(seed),
    }
}

/// Draw a fault plan. Roughly a third of seeds are fault-free so the
/// strict (byte-equal) arm of the models stays exercised.
fn gen_plan(rng: &mut SimRng) -> FaultPlan {
    let mut plan = FaultPlan::new(rng.next_u64());
    if rng.chance(0.65) {
        plan.reset_per_mille = [0, 120, 250][rng.below(3) as usize];
        plan.storm_per_mille = [0, 120][rng.below(2) as usize];
        plan.short_io_per_mille = [0, 150][rng.below(2) as usize];
        plan.corrupt_per_mille = [0, 100][rng.below(2) as usize];
        plan.stall_per_mille = [0, 80][rng.below(2) as usize];
        if rng.chance(0.2) {
            plan.accept_fail_every = rng.range(2, 5) as u32;
        }
    }
    plan
}

/// Split `bytes` into 1–4 non-empty segments at seeded cut points.
fn split_segments(rng: &mut SimRng, bytes: Vec<u8>) -> Vec<Vec<u8>> {
    if bytes.len() < 2 {
        return vec![bytes];
    }
    let nsegs = rng.range(1, 4.min(bytes.len() as u64)) as usize;
    let mut cuts = std::collections::BTreeSet::new();
    while cuts.len() < nsegs - 1 {
        cuts.insert(rng.range(1, bytes.len() as u64 - 1) as usize);
    }
    let mut segs = Vec::with_capacity(nsegs);
    let mut prev = 0;
    for cut in cuts.into_iter().chain(std::iter::once(bytes.len())) {
        segs.push(bytes[prev..cut].to_vec());
        prev = cut;
    }
    segs
}

/// Interleave the connections' segments into a global order, preserving
/// each connection's own segment order.
fn gen_order(rng: &mut SimRng, conns: &[ConnScript]) -> Vec<Step> {
    let mut remaining: Vec<usize> = conns.iter().map(|c| c.segments.len()).collect();
    let mut total: usize = remaining.iter().sum();
    let mut order = Vec::with_capacity(total);
    while total > 0 {
        let mut pick = rng.below(total as u64) as usize;
        let conn = remaining
            .iter()
            .position(|&r| {
                if pick < r {
                    true
                } else {
                    pick -= r;
                    false
                }
            })
            .expect("non-empty remaining");
        remaining[conn] -= 1;
        total -= 1;
        order.push(Step {
            conn,
            pause_ms: rng.below(3),
        });
    }
    order
}

fn generate_http(seed: u64) -> Schedule {
    let mut rng = SimRng::new(seed ^ 0x4854_5450); // "HTTP"
    let plan = gen_plan(&mut rng);
    let nconns = rng.range(1, 4) as usize;
    let mut conns = Vec::with_capacity(nconns);
    for _ in 0..nconns {
        let nreqs = rng.range(1, 4);
        let mut bytes = Vec::new();
        for r in 0..nreqs {
            let method = if rng.chance(0.25) { "HEAD" } else { "GET" };
            let target = [
                "/index.html",
                "/big.bin",
                "/missing.html",
                "/hello%20world.txt",
                "/%2e%2e/secret",
                "/index.html?q=1",
                "/%zz",
            ][rng.below(7) as usize];
            let http10 = rng.chance(0.15);
            let version = if http10 { "HTTP/1.0" } else { "HTTP/1.1" };
            let last = r + 1 == nreqs;
            // Mid-stream requests stay keep-alive most of the time so
            // pipelines actually form; a late `Connection: close` (or a
            // bare 1.0 request) tests that the server stops serving the
            // rest of the pipeline.
            let connection = if http10 {
                if !last && rng.chance(0.8) {
                    Some("keep-alive")
                } else {
                    None
                }
            } else if rng.chance(if last { 0.4 } else { 0.1 }) {
                Some("close")
            } else {
                None
            };
            bytes.extend_from_slice(
                format!("{method} {target} {version}\r\nHost: conformance\r\n").as_bytes(),
            );
            if let Some(c) = connection {
                bytes.extend_from_slice(format!("Connection: {c}\r\n").as_bytes());
            }
            bytes.extend_from_slice(b"\r\n");
        }
        let segments = split_segments(&mut rng, bytes);
        conns.push(ConnScript {
            segments,
            close_early: rng.chance(0.2),
            data_ops: Vec::new(),
        });
    }
    let order = gen_order(&mut rng, &conns);
    Schedule {
        proto: Proto::Http,
        seed,
        plan,
        conns,
        order,
    }
}

/// Draw a seeded STOR payload (small, byte-diverse).
fn gen_payload(rng: &mut SimRng) -> Vec<u8> {
    let len = rng.range(1, 600) as usize;
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Maybe abort this data op mid-transfer (~15% of ops).
fn gen_abort(rng: &mut SimRng) -> Option<usize> {
    rng.chance(0.15).then(|| rng.below(64) as usize)
}

fn generate_ftp(seed: u64) -> Schedule {
    let mut rng = SimRng::new(seed ^ 0x46_5450); // "FTP"
    let plan = gen_plan(&mut rng);
    let nconns = rng.range(1, 3) as usize;
    let mut conns = Vec::with_capacity(nconns);
    for ci in 0..nconns {
        let ncmds = rng.range(2, 8);
        let mut lines: Vec<String> = Vec::new();
        let mut data_ops: Vec<DataOp> = Vec::new();
        // Most connections log in up front: transfers only run on a
        // logged-in session, and without this bias almost every scripted
        // PASV dies pre-login at the 530 gate, leaving the data plane
        // unexercised. The uniform tail below still covers failed and
        // repeated logins.
        if rng.chance(0.7) {
            if rng.chance(0.5) {
                lines.push("USER anonymous".to_string());
                lines.push("PASS guest".to_string());
            } else {
                lines.push("USER alice".to_string());
                lines.push("PASS secret".to_string());
            }
        }
        for j in 0..ncmds {
            // Paths are absolute or the two safe relatives; MKD/STOR
            // targets are unique per (schedule, connection) and /pub is
            // never mutated, so the model's replica VFS cannot diverge
            // from the shared one via cross-connection mutation. Every
            // generated PASV is paired with exactly one data op; bare
            // LIST/RETR (no PASV) keep the 503 path exercised.
            match rng.below(28) {
                0 => lines.push("USER alice".to_string()),
                1 => lines.push("USER anonymous".to_string()),
                2 => lines.push("USER nobody".to_string()),
                3 => lines.push("PASS secret".to_string()),
                4 => lines.push("PASS guest".to_string()),
                5 => lines.push("PASS wrong".to_string()),
                6 => lines.push("PWD".to_string()),
                7 => lines.push("SYST".to_string()),
                8 => lines.push("NOOP".to_string()),
                9 => lines.push("TYPE I".to_string()),
                10 => lines.push("TYPE A".to_string()),
                11 => lines.push("CWD /pub".to_string()),
                12 => lines.push("CWD pub".to_string()),
                13 => lines.push("CWD ..".to_string()),
                14 => lines.push("CWD /nope".to_string()),
                15 => lines.push("SIZE /pub/hello.txt".to_string()),
                16 => lines.push("STAT".to_string()),
                17 => lines.push("STAT /pub".to_string()),
                18 => lines.push(format!("MKD /m{ci}k{j}")),
                // `/pub` (not bare LIST): a dangling PASV from a prior
                // command can turn this into a real transfer, and `/` is
                // mutated cross-connection while `/pub` never is.
                19 => lines.push("LIST /pub".to_string()),
                20 => lines.push("RETR /pub/hello.txt".to_string()),
                21 => lines.push("XYZZY".to_string()),
                22 => {
                    lines.push("PASV".to_string());
                    lines.push("LIST /pub".to_string());
                    data_ops.push(DataOp {
                        kind: DataOpKind::Read,
                        payload: Vec::new(),
                        abort_after: gen_abort(&mut rng),
                    });
                }
                23 => {
                    lines.push("PASV".to_string());
                    lines.push("RETR /pub/hello.txt".to_string());
                    data_ops.push(DataOp {
                        kind: DataOpKind::Read,
                        payload: Vec::new(),
                        abort_after: gen_abort(&mut rng),
                    });
                }
                24 => {
                    // Statically-missing file: 550 without accepting the
                    // data socket; the op's connection just sees its
                    // listener close.
                    lines.push("PASV".to_string());
                    lines.push("RETR /nope".to_string());
                    data_ops.push(DataOp {
                        kind: DataOpKind::Read,
                        payload: Vec::new(),
                        abort_after: None,
                    });
                }
                25 => {
                    lines.push("PASV".to_string());
                    lines.push(format!("STOR /u{ci}k{j}"));
                    data_ops.push(DataOp {
                        kind: DataOpKind::Write,
                        payload: gen_payload(&mut rng),
                        abort_after: gen_abort(&mut rng),
                    });
                }
                26 => {
                    // Write-back visibility: upload then immediately read
                    // the same path back on a fresh data connection.
                    lines.push("PASV".to_string());
                    lines.push(format!("STOR /u{ci}k{j}"));
                    data_ops.push(DataOp {
                        kind: DataOpKind::Write,
                        payload: gen_payload(&mut rng),
                        abort_after: None,
                    });
                    lines.push("PASV".to_string());
                    lines.push(format!("RETR /u{ci}k{j}"));
                    data_ops.push(DataOp {
                        kind: DataOpKind::Read,
                        payload: Vec::new(),
                        abort_after: None,
                    });
                }
                _ => {
                    // Dangling PASV: the listener is held until the next
                    // transfer, QUIT, or connection teardown.
                    lines.push("PASV".to_string());
                    data_ops.push(DataOp {
                        kind: DataOpKind::Read,
                        payload: Vec::new(),
                        abort_after: None,
                    });
                }
            }
        }
        if rng.chance(0.4) {
            lines.push("QUIT".to_string());
        }
        let mut bytes = Vec::new();
        for l in &lines {
            bytes.extend_from_slice(l.as_bytes());
            bytes.extend_from_slice(b"\r\n");
        }
        let segments = split_segments(&mut rng, bytes);
        conns.push(ConnScript {
            segments,
            close_early: rng.chance(0.2),
            data_ops,
        });
    }
    let order = gen_order(&mut rng, &conns);
    Schedule {
        proto: Proto::Ftp,
        seed,
        plan,
        conns,
        order,
    }
}

/// A stall-heavy variant of [`generate`] for the simulated-time explorer:
/// the same script shapes, but with long inter-segment pauses and a
/// stall-biased fault plan, so wall-clock delivery time is dominated by
/// sleeping — exactly what the virtual clock eliminates.
pub fn generate_stall_heavy(proto: Proto, seed: u64) -> Schedule {
    let mut sched = generate(proto, seed);
    let mut rng = SimRng::new(seed ^ 0x5354_414c); // "STAL"
    sched.plan.stall_per_mille = sched.plan.stall_per_mille.max(300);
    for step in &mut sched.order {
        step.pause_ms = rng.range(40, 120);
    }
    sched
}

fn hex_encode(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex".into());
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).map_err(|e| e.to_string()))
        .collect()
}

impl Schedule {
    /// Render as the line-based counterexample format.
    pub fn serialize(&self) -> String {
        let mut out = String::from("conformance-schedule v1\n");
        out.push_str(&format!("proto {}\n", self.proto.name()));
        out.push_str(&format!("seed {}\n", self.seed));
        let p = &self.plan;
        out.push_str(&format!(
            "plan {} {} {} {} {} {} {} {}\n",
            p.seed,
            p.reset_per_mille,
            p.storm_per_mille,
            p.short_io_per_mille,
            p.corrupt_per_mille,
            p.stall_per_mille,
            p.accept_fail_every,
            p.faulty_first,
        ));
        for c in &self.conns {
            out.push_str(&format!("conn close_early={}\n", u8::from(c.close_early)));
            for s in &c.segments {
                out.push_str(&format!("seg {}\n", hex_encode(s)));
            }
            for d in &c.data_ops {
                let abort = d
                    .abort_after
                    .map_or_else(|| "-".to_string(), |n| n.to_string());
                let payload = if d.payload.is_empty() {
                    "-".to_string()
                } else {
                    hex_encode(&d.payload)
                };
                out.push_str(&format!("data {} {} {}\n", d.kind.name(), abort, payload));
            }
        }
        for s in &self.order {
            out.push_str(&format!("step {} {}\n", s.conn, s.pause_ms));
        }
        out
    }

    /// Parse the format produced by [`Schedule::serialize`].
    pub fn parse(text: &str) -> Result<Schedule, String> {
        let mut lines = text.lines().map(str::trim).filter(|l| !l.is_empty());
        if lines.next() != Some("conformance-schedule v1") {
            return Err("missing 'conformance-schedule v1' header".into());
        }
        let mut proto = None;
        let mut seed = 0u64;
        let mut plan = FaultPlan::default();
        let mut conns: Vec<ConnScript> = Vec::new();
        let mut order = Vec::new();
        for line in lines {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "proto" => {
                    proto = Some(match rest {
                        "http" => Proto::Http,
                        "ftp" => Proto::Ftp,
                        other => return Err(format!("unknown proto {other:?}")),
                    })
                }
                "seed" => seed = rest.parse().map_err(|e| format!("seed: {e}"))?,
                "plan" => {
                    let f: Vec<u64> = rest
                        .split_whitespace()
                        .map(|t| t.parse().map_err(|e| format!("plan field: {e}")))
                        .collect::<Result<_, _>>()?;
                    if f.len() != 8 {
                        return Err(format!("plan needs 8 fields, got {}", f.len()));
                    }
                    plan = FaultPlan {
                        seed: f[0],
                        reset_per_mille: f[1] as u16,
                        storm_per_mille: f[2] as u16,
                        short_io_per_mille: f[3] as u16,
                        corrupt_per_mille: f[4] as u16,
                        stall_per_mille: f[5] as u16,
                        accept_fail_every: f[6] as u32,
                        faulty_first: f[7] as u32,
                    };
                }
                "conn" => {
                    let close_early = rest
                        .strip_prefix("close_early=")
                        .ok_or("conn line needs close_early=")?
                        == "1";
                    conns.push(ConnScript {
                        segments: Vec::new(),
                        close_early,
                        data_ops: Vec::new(),
                    });
                }
                "seg" => conns
                    .last_mut()
                    .ok_or("seg before any conn line")?
                    .segments
                    .push(hex_decode(rest)?),
                "data" => {
                    let f: Vec<&str> = rest.split_whitespace().collect();
                    if f.len() != 3 {
                        return Err(format!("data needs 3 fields, got {}", f.len()));
                    }
                    let kind = match f[0] {
                        "read" => DataOpKind::Read,
                        "write" => DataOpKind::Write,
                        other => return Err(format!("unknown data op kind {other:?}")),
                    };
                    let abort_after = match f[1] {
                        "-" => None,
                        n => Some(n.parse().map_err(|e| format!("data abort: {e}"))?),
                    };
                    let payload = match f[2] {
                        "-" => Vec::new(),
                        hex => hex_decode(hex)?,
                    };
                    conns
                        .last_mut()
                        .ok_or("data before any conn line")?
                        .data_ops
                        .push(DataOp {
                            kind,
                            payload,
                            abort_after,
                        });
                }
                "step" => {
                    let (c, p) = rest.split_once(' ').ok_or("step needs two fields")?;
                    order.push(Step {
                        conn: c.parse().map_err(|e| format!("step conn: {e}"))?,
                        pause_ms: p.parse().map_err(|e| format!("step pause: {e}"))?,
                    });
                }
                other => return Err(format!("unknown line key {other:?}")),
            }
        }
        let proto = proto.ok_or("missing proto line")?;
        let sched = Schedule {
            proto,
            seed,
            plan,
            conns,
            order,
        };
        sched.check_consistency()?;
        Ok(sched)
    }

    /// Structural sanity: every conn has segments, every step indexes a
    /// conn, and each conn is stepped exactly `segments.len()` times.
    pub fn check_consistency(&self) -> Result<(), String> {
        let mut counts = vec![0usize; self.conns.len()];
        for s in &self.order {
            *counts.get_mut(s.conn).ok_or_else(|| {
                format!("step references conn {} of {}", s.conn, self.conns.len())
            })? += 1;
        }
        for (i, (c, n)) in self.conns.iter().zip(&counts).enumerate() {
            if c.segments.is_empty() {
                return Err(format!("conn {i} has no segments"));
            }
            if c.segments.len() != *n {
                return Err(format!(
                    "conn {i} has {} segments but {} steps",
                    c.segments.len(),
                    n
                ));
            }
        }
        Ok(())
    }

    /// FNV-1a 64 over the serialized form: the distinct-schedule counter.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in self.serialize().as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    /// The same schedule with a different interleaving.
    pub fn with_order(&self, order: Vec<Step>) -> Schedule {
        let mut s = self.clone();
        s.order = order;
        s
    }
}

/// Every interleaving of `seg_counts` (segments per connection) that
/// preserves each connection's own order, with zero pauses. The count is
/// the multinomial coefficient — keep inputs tiny (it is meant for the
/// exhaustive small-case exploration tests).
pub fn enumerate_orders(seg_counts: &[usize]) -> Vec<Vec<Step>> {
    let mut out = Vec::new();
    let mut remaining = seg_counts.to_vec();
    let mut prefix = Vec::new();
    fn rec(remaining: &mut [usize], prefix: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
        if remaining.iter().all(|&r| r == 0) {
            out.push(prefix.clone());
            return;
        }
        for c in 0..remaining.len() {
            if remaining[c] > 0 {
                remaining[c] -= 1;
                prefix.push(Step {
                    conn: c,
                    pause_ms: 0,
                });
                rec(remaining, prefix, out);
                prefix.pop();
                remaining[c] += 1;
            }
        }
    }
    rec(&mut remaining, &mut prefix, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        for proto in [Proto::Http, Proto::Ftp] {
            let a = generate(proto, 7);
            let b = generate(proto, 7);
            assert_eq!(a, b);
            assert_ne!(a, generate(proto, 8));
        }
    }

    #[test]
    fn generated_schedules_are_consistent() {
        for proto in [Proto::Http, Proto::Ftp] {
            for seed in 0..50 {
                let s = generate(proto, seed);
                s.check_consistency()
                    .unwrap_or_else(|e| panic!("{proto:?} seed {seed}: {e}"));
                assert!(!s.conns.is_empty());
            }
        }
    }

    #[test]
    fn serialize_parse_round_trips() {
        for proto in [Proto::Http, Proto::Ftp] {
            for seed in 0..20 {
                let s = generate(proto, seed);
                let back = Schedule::parse(&s.serialize()).expect("parse back");
                assert_eq!(s, back, "{proto:?} seed {seed}");
                assert_eq!(s.fingerprint(), back.fingerprint());
            }
        }
    }

    #[test]
    fn fingerprints_are_distinct_across_seeds() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..100 {
            assert!(seen.insert(generate(Proto::Http, seed).fingerprint()));
            assert!(seen.insert(generate(Proto::Ftp, seed).fingerprint()));
        }
    }

    #[test]
    fn ftp_scripts_stay_under_the_codec_line_budget() {
        for seed in 0..100 {
            for c in generate(Proto::Ftp, seed).conns {
                assert!(c.bytes().len() < 4096, "seed {seed} script too long");
            }
        }
    }

    #[test]
    fn ftp_data_ops_pair_one_to_one_with_pasv_lines() {
        let mut with_ops = 0;
        for seed in 0..100 {
            let s = generate(Proto::Ftp, seed);
            for c in &s.conns {
                let script = String::from_utf8_lossy(&c.bytes()).into_owned();
                assert_eq!(
                    script.matches("PASV\r\n").count(),
                    c.data_ops.len(),
                    "seed {seed}"
                );
            }
            if s.conns.iter().any(|c| !c.data_ops.is_empty()) {
                with_ops += 1;
            }
        }
        // Transfers occur in a healthy fraction of generated schedules.
        assert!(
            with_ops >= 50,
            "only {with_ops}/100 schedules have data ops"
        );
    }

    #[test]
    fn data_ops_serialize_and_parse_back() {
        let mut s = generate(Proto::Ftp, 0);
        s.conns[0].data_ops = vec![
            DataOp {
                kind: DataOpKind::Read,
                payload: Vec::new(),
                abort_after: None,
            },
            DataOp {
                kind: DataOpKind::Write,
                payload: vec![0, 255, 7],
                abort_after: Some(2),
            },
        ];
        let text = s.serialize();
        assert!(text.contains("data read - -"), "{text}");
        assert!(text.contains("data write 2 00ff07"), "{text}");
        let back = Schedule::parse(&text).unwrap();
        assert_eq!(s, back);
        // Pre-data-plane corpus files (no `data` lines) still parse.
        let legacy: String =
            text.lines()
                .filter(|l| !l.starts_with("data "))
                .fold(String::new(), |mut acc, l| {
                    acc.push_str(l);
                    acc.push('\n');
                    acc
                });
        let old = Schedule::parse(&legacy).unwrap();
        assert!(old.conns.iter().all(|c| c.data_ops.is_empty()));
    }

    #[test]
    fn stall_heavy_schedules_pause_long_and_stay_replayable() {
        for proto in [Proto::Http, Proto::Ftp] {
            let s = generate_stall_heavy(proto, 3);
            assert_eq!(s, generate_stall_heavy(proto, 3));
            assert!(s.plan.stall_per_mille >= 300);
            assert!(s.order.iter().all(|st| st.pause_ms >= 40));
            assert_eq!(Schedule::parse(&s.serialize()).unwrap(), s);
        }
    }

    #[test]
    fn enumerate_orders_is_the_multinomial() {
        assert_eq!(enumerate_orders(&[2, 1]).len(), 3);
        assert_eq!(enumerate_orders(&[2, 2]).len(), 6);
        assert_eq!(enumerate_orders(&[1, 1, 1]).len(), 6);
        for order in enumerate_orders(&[2, 2]) {
            assert_eq!(order.len(), 4);
        }
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Schedule::parse("nonsense").is_err());
        assert!(Schedule::parse("conformance-schedule v1\nproto http\nseg 00\n").is_err());
        let missing_step = "conformance-schedule v1\nproto http\nseed 1\n\
                            plan 1 0 0 0 0 0 0 0\nconn close_early=0\nseg 41\n";
        assert!(
            Schedule::parse(missing_step).is_err(),
            "step count mismatch"
        );
    }
}
