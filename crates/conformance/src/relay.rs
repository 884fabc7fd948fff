//! Relay/cluster trace equivalence: the differential checker.
//!
//! The paper's cluster pattern claims the relay front end is
//! *transparent*: a client talking to a [`ClusterFrontEnd`] must observe
//! exactly what it would observe talking to a backend N-Server directly
//! — including when the relay's dial logic silently retries a dead
//! backend and rotates to the next candidate. This module makes the
//! claim checkable: the same (sanitized, fault-free) schedule is run in
//! **two arms** — a direct backend, and a fresh backend behind the relay
//! — and the per-connection client-observable byte streams are compared:
//! HTTP byte-for-byte, each arm also anchored to the model's
//! [`expected_outbound`] stream so a divergence names the guilty arm; FTP
//! at the `(reply code, multiline?)` level the conformance model checks.
//!
//! Each arm is one in-memory world stepped on the checker's thread, on a
//! virtual clock, through the explorer's stack, delivery and data-plane
//! clients. The relay arm's relay ([`ClusterFrontEnd::stepped`]) dials the
//! backend by label through its own stack ([`Listener::dial`]), so its
//! tap records both legs of each session. In the failover arm the first
//! backend is a label nobody listens on, and the retry backoff is virtual
//! time the world advances through. [`TransportMutation::Replay`] on the
//! relay's stack is the checker's soundness mutant: every write to the
//! backend lands twice, and the differential must catch it.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nserver_core::cluster::{Balancing, ClusterFrontEnd, RetryPolicy};
use nserver_core::fault::FaultPlan;
use nserver_core::options::ServerOptions;
use nserver_core::pipeline::{Codec, Service};
use nserver_core::server::{ServerBuilder, Stepped};
use nserver_core::tap::ConnTrace;
use nserver_core::trace::DebugTracer;
use nserver_core::transport::{mem, Listener};
use nserver_ftp::{cops_ftp_options, split_replies, FtpCodec};
use nserver_http::{cops_http_options, HttpCodec};
use parking_lot::Mutex;

use crate::explorer::{
    base_stack, connected_as, deliver, drain_client, run_label, serve_data_ops,
    standard_ftp_service_over, standard_http_service, BaseListener,
};
use crate::http_model::{expected_outbound, HttpFixture};
use crate::mutant::{self, TransportMutation};
use crate::schedule::{generate, Proto, Schedule};

/// The outcome of one differential run.
#[derive(Debug)]
pub struct DiffReport {
    /// Human-readable per-connection divergences (empty = equivalent).
    pub divergences: Vec<String>,
    /// Relay-arm dial retries (the failover counter).
    pub dial_retries: u64,
    /// Relay-arm clients refused because no backend was dialable.
    pub backend_failures: u64,
    /// The relay arm's traces: the relay's legs (clients by accept index,
    /// backends dialed, numbered 0), then the backend's connections.
    pub traces: Vec<ConnTrace>,
}

impl DiffReport {
    /// Whether the two arms were client-observably equivalent.
    pub fn equivalent(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// The label the relay dials its backend by.
const BACKEND: &str = "backend";

/// The failover arm's dead backend: a label nobody listens on.
const NOBODY: &str = "nobody";

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

/// Run the differential for one seed: generate, sanitize, run both
/// arms, compare. `force_failover` puts a dead backend first in the
/// relay's rotation so the first client connection must retry-rotate.
pub fn relay_differential(proto: Proto, seed: u64, force_failover: bool) -> DiffReport {
    let sched = sanitize_for_differential(&generate(proto, seed));
    let direct = run_arm(proto, &sched, Route::Direct);
    let relayed = run_arm(proto, &sched, Route::Relay(force_failover));
    DiffReport {
        divergences: compare_arms(proto, &sched, &direct.received, &relayed.received),
        dial_retries: relayed.dial_retries,
        backend_failures: relayed.backend_failures,
        traces: relayed.traces,
    }
}

/// Like [`relay_differential`] but with [`TransportMutation::Replay`] on
/// the relay's stack — the mutation tests assert this diverges.
pub fn replaying_relay_diverges(proto: Proto, sched: &Schedule) -> bool {
    let sched = sanitize_for_differential(sched);
    let direct = run_arm(proto, &sched, Route::Direct);
    let mutated = run_arm(proto, &sched, Route::Replaying);
    !compare_arms(proto, &sched, &direct.received, &mutated.received).is_empty()
}

/// How an arm's clients reach its backend.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Route {
    Direct,
    /// Through a relay; `true` puts a dead backend first in its rotation.
    Relay(bool),
    /// Through a relay whose stack replays what it writes to the backend.
    Replaying,
}

/// What one arm's clients received, and its relay's counters and traces.
#[derive(Default)]
struct Arm {
    received: Vec<Vec<u8>>,
    dial_retries: u64,
    backend_failures: u64,
    traces: Vec<ConnTrace>,
}

fn run_arm(proto: Proto, sched: &Schedule, route: Route) -> Arm {
    match proto {
        Proto::Http => {
            let build = |_| standard_http_service();
            arm(sched, cops_http_options(), HttpCodec::new(), build, route)
        }
        Proto::Ftp => arm(
            sched,
            cops_ftp_options(),
            FtpCodec,
            standard_ftp_service_over,
            route,
        ),
    }
}

/// Run one arm: a fresh stepped backend (FTP schedules mutate server
/// state, so arms never share one), reached directly or through a
/// stepped relay. The schedule's data ops reach the backend's data
/// listeners through its connector either way.
fn arm<C: Codec, S: Service<C>>(
    sched: &Schedule,
    opts: ServerOptions,
    codec: C,
    build: impl FnOnce(BaseListener) -> S,
    route: Route,
) -> Arm {
    let (listener, backend_connector) = mem::listener(&run_label("relay-diff-backend", sched));
    let (stack, backend_log) = base_stack(listener, sched.plan);
    let mut backend = ServerBuilder::new(opts, codec, build(stack.clone()))
        .expect("valid server options")
        .stepped(stack);
    let connect_order = Arc::new(Mutex::new(vec![None; sched.conns.len()]));
    let order = Arc::clone(&connect_order);
    if route == Route::Direct {
        serve_data_ops(sched, &backend_connector, &backend_log, move |trace| {
            connected_as(&order.lock(), trace.accept_index)
        });
        let mut streams = deliver(sched, &backend_connector, &connect_order, |pause| {
            backend.settle();
            backend.advance(pause);
        });
        drop(backend);
        let received = streams.iter_mut().map(drained).collect();
        let traces = backend_log.snapshot();
        return Arm {
            received,
            traces,
            ..Arm::default()
        };
    }
    // A relay session's key is its client's accept ordinal, which is its
    // connect order, and its trace links the label the backend sees its
    // leg under.
    let tracer = DebugTracer::enabled(1024);
    let links = tracer.clone();
    serve_data_ops(sched, &backend_connector, &backend_log, move |trace| {
        let metas = links.metas();
        let (k, _) = metas.iter().find(|(_, m)| m.links.contains(&trace.peer))?;
        connected_as(&order.lock(), *k)
    });
    let (listener, connector) = mem::listener(&run_label("relay-diff-front", sched));
    connector.route(BACKEND, &backend_connector);
    let (stack, log) = base_stack(listener, sched.plan);
    let mut backends = vec![BACKEND.to_string()];
    if route == Route::Relay(true) {
        backends.insert(0, NOBODY.to_string());
    }
    let front = (sched, &connector, &*connect_order, backends, tracer);
    let mut arm = match route {
        Route::Replaying => relayed(
            &mut backend,
            mutant::layer(stack, TransportMutation::Replay),
            front,
        ),
        _ => relayed(&mut backend, stack, front),
    };
    arm.traces = log.snapshot();
    arm.traces.extend(backend_log.snapshot());
    arm
}

/// What the relay arm's relay needs beside its stack: the schedule, its
/// clients' connector and connect order, its backends and its tracer.
type Front<'a> = (
    &'a Schedule,
    &'a mem::MemConnector,
    &'a Mutex<Vec<Option<u64>>>,
    Vec<String>,
    DebugTracer,
);

/// Run the relay arm: a relay over `stack` and `backend` are one world,
/// stepped on the backend's clock. Each delivery step settles both until
/// neither has work, then advances them together, stopping at each of
/// the relay's timers; the world runs on through the timers the relay
/// still holds (a parked client's retry, a lingering session's reap), so
/// a failover's backoff is virtual time.
fn relayed<C: Codec, S: Service<C>, L: Listener>(
    backend: &mut Stepped<C, S, BaseListener>,
    stack: L,
    (sched, connector, connect_order, backends, tracer): Front<'_>,
) -> Arm {
    let retry = RetryPolicy {
        attempts: 3,
        backoff: Duration::from_millis(10),
    };
    let mut relay = ClusterFrontEnd::stepped(stack, backends, Balancing::RoundRobin, retry, tracer)
        .expect("a backend to relay to");
    let base = Instant::now();
    let mut streams = deliver(sched, connector, connect_order, |pause| {
        let until = backend.elapsed() + pause;
        loop {
            while backend.settle() | relay.settle(base + backend.elapsed()) {}
            let rest = Some(until.saturating_sub(backend.elapsed())).filter(|r| !r.is_zero());
            let Some(step) = rest.into_iter().chain(relay.next_timer()).min() else {
                return;
            };
            backend.advance(step);
        }
    });
    let stats = relay.stats();
    let (dial_retries, backend_failures) = (
        stats.dial_retries.load(Ordering::Relaxed),
        stats.backend_failures.load(Ordering::Relaxed),
    );
    // Closing the relay closes both legs of every session before the
    // clients read what they got.
    drop(relay);
    Arm {
        received: streams.iter_mut().map(drained).collect(),
        dial_retries,
        backend_failures,
        traces: Vec::new(),
    }
}

/// What a client received by the end of its run (nothing, if it never
/// connected).
fn drained(stream: &mut Option<mem::MemStream>) -> Vec<u8> {
    stream.as_mut().map(drain_client).unwrap_or_default()
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
}
