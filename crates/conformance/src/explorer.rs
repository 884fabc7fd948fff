//! The schedule explorer: run the real server under a [`Schedule`],
//! record every connection's observable trace, and check the traces
//! against the protocol models.
//!
//! The server runs exactly the production pipeline — the only test
//! scaffolding is the transport stack (`base_stack`): an in-memory
//! listener under the fault layer (injects the plan's faults) under the
//! tap layer (records the traces the models consume), each a hook set
//! over the one [`Layered`] adapter. The server is a
//! [`Stepped`](nserver_core::server::Stepped) one: its
//! dispatchers and pools run on the explorer's thread, on a virtual
//! clock, only when told to. The explorer delivers each connection's
//! segments in the schedule's interleaved order, optionally slamming
//! connections shut early; at each step with a pause it settles the
//! server (runs it until no pass has work and no job is queued) and
//! advances the clock by the pause, so a pause costs no wall-clock time
//! and steps without one reach the server back to back. After the last
//! step it settles the server and drops it, which closes every
//! connection as a shutdown does. A run is then a function of its
//! schedule.
//!
//! FTP schedules add a second plane. The service opens each `PASV` data
//! listener through the same stack ([`Listener::data_listener`]), so the
//! fault layer gives each data socket its control connection's profile
//! and the tap records it as a child trace, joined to its control
//! connection by accept index and `PASV` ordinal; [`check_ftp_session`]
//! holds transfers to byte-exact payloads and completion-ordering rules.
//! The client side is the in-memory connector's data hook: as a data
//! listener opens, the schedule's scripted [`DataOp`] connects to it and,
//! for an upload, pushes its bytes and closes (a mem connect and write
//! never block). So a transfer job finds its peer and its bytes already
//! there, and never waits on the wall clock.
//!
//! On a violation the explorer shrinks the schedule greedily — dropping
//! connections, merging segments, zeroing fault knobs and pauses —
//! while the violation persists, and panics with a replayable
//! counterexample: the generation seed, the `NSERVER_REPLAY_SEED`
//! invocation, and the serialized shrunken schedule (ready for
//! `corpus/`).

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use nserver_cache::{FileCache, PolicyKind, SharedFileCache};
use nserver_core::event::ConnId;
use nserver_core::fault::{self, FaultPlan, FaultProfile};
use nserver_core::layer::Layered;
use nserver_core::options::{CompletionMode, ServerOptions};
use nserver_core::pipeline::Service;
use nserver_core::server::ServerBuilder;
use nserver_core::tap::{self, ConnTrace, TraceLog};
use nserver_core::transport::{mem, Listener, StreamIo};
use nserver_ftp::{cops_ftp_options, split_replies, FtpCodec, FtpService};
use nserver_http::{cops_http_options, HttpCodec, MemStore, StaticFileService};
use parking_lot::Mutex;

use crate::ftp_model::{
    check_ftp_session, expected_replies, pasv_outcomes, FtpDataCtx, FtpFixture,
};
use crate::http_model::{check_http, expected_outbound, HttpFixture};
use crate::mutant::{self, TransportMutation};
use crate::schedule::{generate, ConnScript, DataOp, DataOpKind, Proto, Schedule};
use crate::Violation;

/// Unique suffix per run so concurrent tests never share a listener
/// label.
static RUN_NONCE: AtomicU64 = AtomicU64::new(0);

/// A listener label no other run shares: `kind`, the schedule's seed
/// and the run's nonce.
pub(crate) fn run_label(kind: &str, sched: &Schedule) -> String {
    let nonce = RUN_NONCE.fetch_add(1, Ordering::Relaxed);
    format!("{kind}-{}-{nonce}", sched.seed)
}

/// Everything one exploration run produced.
#[derive(Debug)]
pub struct RunReport {
    /// Final trace of every accepted connection — control connections
    /// and (for FTP) their joined data connections.
    pub traces: Vec<ConnTrace>,
    /// Model violations found (empty = conforming run).
    pub violations: Vec<Violation>,
    /// How far the schedule's pauses advanced the server's clock.
    pub elapsed: Duration,
}

/// The standard COPS-HTTP service under test: the conformance fixture
/// behind a real LRU file cache, so both the hit and the deferred-miss
/// paths are exercised.
pub fn standard_http_service() -> StaticFileService<MemStore> {
    let cache = SharedFileCache::new(FileCache::new(1 << 20, PolicyKind::Lru));
    StaticFileService::new(HttpFixture::standard().store(), Some(cache))
}

/// The standard COPS-FTP service under test, its data listeners opened
/// through `transport`.
pub fn standard_ftp_service_over<L>(transport: L) -> FtpService<L> {
    FtpService::over(FtpFixture::vfs(), FtpFixture::users(), transport)
}

/// Run a schedule against the standard service for its protocol.
pub fn run(sched: &Schedule) -> RunReport {
    match sched.proto {
        Proto::Http => run_http(sched, standard_http_service()),
        Proto::Ftp => run_ftp(sched, standard_ftp_service_over),
    }
}

/// Run an HTTP schedule against `svc` under the COPS-HTTP preset.
pub fn run_http<S: Service<HttpCodec>>(sched: &Schedule, svc: S) -> RunReport {
    run_http_with_options(sched, svc, cops_http_options())
}

/// Run an HTTP schedule against `svc` under explicit server options —
/// the hook the O1–O12 options-matrix conformance tests use.
pub fn run_http_with_options<S: Service<HttpCodec>>(
    sched: &Schedule,
    svc: S,
    opts: ServerOptions,
) -> RunReport {
    run_http_on(sched, svc, opts, |l: BaseListener| l)
}

/// The explorer's standard transport stack, outermost first: the trace
/// tap, then fault injection, then the in-memory loopback.
pub type BaseListener = Layered<Layered<mem::MemListener, FaultPlan>, TraceLog>;

/// Build the standard stack under `plan`. The explorer owns the plan, so
/// it is the explorer that stamps each trace with the profile of its
/// accept ordinal; the tap knows nothing of faults.
pub(crate) fn base_stack(listener: mem::MemListener, plan: FaultPlan) -> (BaseListener, TraceLog) {
    let log = TraceLog::stamped(move |k| format!("{:?}", plan.profile_for(k)));
    (tap::layer(fault::layer(listener, plan), log.clone()), log)
}

/// Run an HTTP schedule against the standard service under `opts`, with
/// a transport mutant interposed above the explorer's standard stack.
fn run_http_mutated(
    sched: &Schedule,
    mutation: TransportMutation,
    opts: ServerOptions,
) -> RunReport {
    run_http_on(sched, standard_http_service(), opts, |l| {
        mutant::layer(l, mutation)
    })
}

/// HTTP under [`TransportMutation::Lingerless`]: every server-initiated
/// half-close becomes a hard close. Used by the mutation tests to prove
/// the client-delivery check catches an RST-discarded response tail.
pub fn run_http_lingerless(sched: &Schedule) -> RunReport {
    run_http_mutated(sched, TransportMutation::Lingerless, cops_http_options())
}

/// HTTP under [`TransportMutation::GatherDrop`]: gathered writes lose
/// every slice after the first. Used by the mutation tests to prove the
/// models see bytes the dispatcher believes it sent.
pub fn run_http_gather_drop(sched: &Schedule) -> RunReport {
    run_http_mutated(sched, TransportMutation::GatherDrop, cops_http_options())
}

/// HTTP under [`TransportMutation::OffThreadDrop`]: writes made off the
/// accepting thread are swallowed. Used by the mutation tests to prove
/// the sweep's schedules reach the worker-side Send Reply — under O4 =
/// Synchronous, where every event passes the queue: under the COPS-HTTP
/// preset a schedule shrunk to one connection is served wholly by the
/// accepting thread.
pub fn run_http_off_thread_drop(sched: &Schedule) -> RunReport {
    let every_event_queued = ServerOptions {
        completion_mode: CompletionMode::Synchronous,
        ..cops_http_options()
    };
    run_http_mutated(sched, TransportMutation::OffThreadDrop, every_event_queued)
}

/// HTTP under [`TransportMutation::OnThreadDrop`]: writes of a work
/// item's size made on the accepting thread are swallowed. Used by the
/// mutation tests to prove that under the COPS-HTTP preset the
/// dispatcher handles — and answers — ready events itself.
pub fn run_http_on_thread_drop(sched: &Schedule) -> RunReport {
    run_http_mutated(sched, TransportMutation::OnThreadDrop, cops_http_options())
}

/// The FTP flavour of [`run_http_lingerless`] (QUIT is a server-initiated
/// close too).
pub fn run_ftp_lingerless(sched: &Schedule) -> RunReport {
    run_ftp_on(sched, standard_ftp_service_over, |l| {
        mutant::layer(l, TransportMutation::Lingerless)
    })
}

fn run_http_on<S, L, F>(sched: &Schedule, svc: S, opts: ServerOptions, wrap: F) -> RunReport
where
    S: Service<HttpCodec>,
    L: Listener,
    F: FnOnce(BaseListener) -> L,
{
    let fixture = HttpFixture::standard();
    let (listener, connector) = mem::listener(&run_label("conformance-http", sched));
    let (tapped, log) = base_stack(listener, sched.plan);
    let mut server = ServerBuilder::new(opts, HttpCodec::new(), svc)
        .expect("valid server options")
        .stepped(wrap(tapped));

    let connect_order = Mutex::new(vec![None; sched.conns.len()]);
    let mut streams = deliver(sched, &connector, &connect_order, |pause| {
        server.settle();
        server.advance(pause);
    });
    let elapsed = server.elapsed();
    drop(server);
    let connect_order = connect_order.into_inner();
    let traces = log.snapshot();
    let mut violations =
        collect_violations(sched, &traces, &log, &connect_order, |_, trace, strict| {
            check_http(&fixture, trace, strict)
        });
    violations.extend(client_delivery_violations(
        sched,
        &mut streams,
        &traces,
        &log,
        &connect_order,
        |conn, received| {
            let expected = expected_outbound(&fixture, &conn.bytes()).0;
            (received != expected).then(|| {
                format!(
                    "client received {} of {} expected response bytes",
                    received.len(),
                    expected.len()
                )
            })
        },
    ));
    RunReport {
        traces,
        violations,
        elapsed,
    }
}

/// Run an FTP schedule under the COPS-FTP preset against the service
/// `build` makes over the run's transport stack, which its `PASV`s open
/// their data listeners through.
pub fn run_ftp<S: Service<FtpCodec>>(
    sched: &Schedule,
    build: impl FnOnce(BaseListener) -> S,
) -> RunReport {
    run_ftp_on(sched, build, |l: BaseListener| l)
}

fn run_ftp_on<S, L, F>(
    sched: &Schedule,
    build: impl FnOnce(BaseListener) -> S,
    wrap: F,
) -> RunReport
where
    S: Service<FtpCodec>,
    L: Listener,
    F: FnOnce(BaseListener) -> L,
{
    let (listener, connector) = mem::listener(&run_label("conformance-ftp", sched));
    let (tapped, log) = base_stack(listener, sched.plan);
    let connect_order = Arc::new(Mutex::new(vec![None; sched.conns.len()]));
    let order = Arc::clone(&connect_order);
    serve_data_ops(sched, &connector, &log, move |trace| {
        connected_as(&order.lock(), trace.accept_index)
    });
    let mut server = ServerBuilder::new(cops_ftp_options(), FtpCodec, build(tapped.clone()))
        .expect("valid server options")
        .stepped(wrap(tapped));
    let mut streams = deliver(sched, &connector, &connect_order, |pause| {
        server.settle();
        server.advance(pause);
    });
    let elapsed = server.elapsed();
    drop(server);
    let connect_order = connect_order.lock().clone();
    let traces = log.snapshot();
    // Each control trace with its data connections; a scripted abort,
    // like a fault or an early close, makes `425`s and truncations legal.
    let check = |conn: &ConnScript, trace: &ConnTrace, strict: bool| {
        let strict = strict && !conn.has_abort();
        let k = trace.accept_index;
        let children: Vec<ConnTrace> = (traces.iter())
            .filter(|t| t.parent.is_some_and(|p| p.control_accept_index == k))
            .cloned()
            .collect();
        let data = FtpDataCtx {
            children: &children,
            recorded: true,
            tolerant: !strict,
        };
        check_ftp_session(trace, strict, &data)
    };
    let mut violations = collect_violations(sched, &traces, &log, &connect_order, check);
    violations.extend(client_delivery_violations(
        sched,
        &mut streams,
        &traces,
        &log,
        &connect_order,
        |conn, received| {
            let want = expected_replies(&conn.bytes()).len();
            let got = split_replies(received).complete.len();
            (got < want).then(|| format!("client received {got} of {want} expected reply blocks"))
        },
    ));
    RunReport {
        traces,
        violations,
        elapsed,
    }
}

/// Deliver the schedule through `connector`: connect lazily on a
/// connection's first step (so connect order — and with the FIFO inbox,
/// accept index — is the order of first steps; each conn's 1-based
/// connect order is recorded in `connect_order`), push one segment per
/// step, and slam `close_early` connections shut right after their last
/// segment. Each pause, and the end of the run (a zero pause), goes to
/// `pace`, which settles the server and advances its clock by it.
/// Returns the client streams, kept open so the server never sees a
/// spurious EOF; the caller drops the server before reading them.
pub(crate) fn deliver(
    sched: &Schedule,
    connector: &mem::MemConnector,
    connect_order: &Mutex<Vec<Option<u64>>>,
    mut pace: impl FnMut(Duration),
) -> Vec<Option<mem::MemStream>> {
    let mut streams: Vec<Option<mem::MemStream>> = (0..sched.conns.len()).map(|_| None).collect();
    let (mut seg_idx, mut connected) = (vec![0; sched.conns.len()], 0);
    for step in &sched.order {
        let ci = step.conn;
        let stream = streams[ci].get_or_insert_with(|| {
            connected += 1;
            connect_order.lock()[ci] = Some(connected);
            connector.connect()
        });
        let script = &sched.conns[ci];
        // A pipe takes the whole segment, or fails when the server has
        // reset or closed the connection.
        let _ = stream.try_write(&script.segments[seg_idx[ci]]);
        seg_idx[ci] += 1;
        if seg_idx[ci] == script.segments.len() && script.close_early {
            stream.shutdown();
        }
        if step.pause_ms > 0 {
            pace(Duration::from_millis(step.pause_ms));
        }
    }
    pace(Duration::ZERO);
    streams
}

/// The client side of the data plane: serve each data listener the
/// server opens with its scripted [`DataOp`], as it opens. The client
/// connects; an upload pushes its payload (an aborted one a prefix) and
/// closes; a download half-closes at once — it sends nothing, so a
/// transfer that reads sees EOF rather than a wait — and stays open to
/// the end of the run, unless it aborts: then it closes before the
/// server has written anything, and the server's write fails. A listener
/// with no scripted op gets a download's client. `locate` names the
/// script of a control connection's trace in `log`.
pub(crate) fn serve_data_ops(
    sched: &Schedule,
    connector: &mem::MemConnector,
    log: &TraceLog,
    locate: impl Fn(&ConnTrace) -> Option<usize> + Send + Sync + 'static,
) {
    let ops: Vec<Vec<DataOp>> = sched.conns.iter().map(|c| c.data_ops.clone()).collect();
    let log = log.clone();
    let open = Mutex::new(Vec::new());
    connector.on_data(move |control, ordinal, data| {
        let op = scripted_op(&ops, &log, &locate, control, ordinal);
        let mut client = data.connect();
        match op {
            Some(DataOp {
                kind: DataOpKind::Write,
                payload,
                abort_after,
            }) => {
                let cut = abort_after.map_or(payload.len(), |n| n.min(payload.len()));
                let _ = client.try_write(&payload[..cut]);
            }
            op => {
                client.shutdown_write();
                if op.is_none_or(|op| op.abort_after.is_none()) {
                    open.lock().push(client);
                }
            }
        }
    });
}

/// The op scripted for the `ordinal`-th data listener of the server's
/// `control`-th connection: the one paired with the `ordinal`-th `PASV`
/// the model says succeeded, reading what the server has read so far.
/// Ops are scripted one per `PASV` command, but a pre-login `PASV` gets a
/// 530 and opens no listener, so its op is skipped.
fn scripted_op(
    ops: &[Vec<DataOp>],
    log: &TraceLog,
    locate: impl Fn(&ConnTrace) -> Option<usize>,
    control: ConnId,
    ordinal: u32,
) -> Option<DataOp> {
    let traces = log.snapshot();
    let mut controls = traces.iter().filter(|t| !t.is_data());
    let trace = controls.nth(usize::try_from(control).ok()?.checked_sub(1)?)?;
    let ci = locate(trace)?;
    let (slot, _) = pasv_outcomes(&trace.inbound())
        .into_iter()
        .enumerate()
        .filter(|&(_, ok)| ok)
        .nth(usize::try_from(ordinal).ok()?.checked_sub(1)?)?;
    ops[ci].get(slot).cloned()
}

/// The script whose connection was the `connected`-th to connect.
pub(crate) fn connected_as(connect_order: &[Option<u64>], connected: u64) -> Option<usize> {
    connect_order.iter().position(|&k| k == Some(connected))
}

/// Drain everything a client stream still has buffered. Runs after the
/// server was dropped, closing every connection, so a single pass to
/// `WouldBlock`/`Closed` observes the final byte stream.
pub(crate) fn drain_client(stream: &mut mem::MemStream) -> Vec<u8> {
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.try_read(&mut buf) {
            Ok(nserver_core::transport::ReadOutcome::Data(n)) => out.extend_from_slice(&buf[..n]),
            _ => return out,
        }
    }
}

/// Client-observed delivery check. The server-side tap cannot see an
/// RST-discarded tail: the outbox is fully drained before any close, so
/// even a hard close that resets undelivered response bytes out of the
/// transport leaves a perfect `Wrote` trace — only the client's receive
/// queue shows the loss. After shutdown, every strictly-checked
/// connection's client must hold the complete model-predicted stream;
/// `expect` returns a diagnosis when it does not.
fn client_delivery_violations(
    sched: &Schedule,
    streams: &mut [Option<mem::MemStream>],
    traces: &[ConnTrace],
    log: &TraceLog,
    connect_order: &[Option<u64>],
    expect: impl Fn(&ConnScript, &[u8]) -> Option<String>,
) -> Vec<Violation> {
    let failed: HashSet<u64> = log.accept_failures().into_iter().collect();
    let mut violations = Vec::new();
    for (ci, (conn, k)) in sched.conns.iter().zip(connect_order).enumerate() {
        let Some(k) = *k else { continue };
        let strict = !failed.contains(&k)
            && sched.plan.profile_for(k) == FaultProfile::Clean
            && !conn.close_early
            && !conn.has_abort();
        if !strict {
            continue;
        }
        if !traces
            .iter()
            .any(|t| t.accept_index == k && t.parent.is_none())
        {
            // Never accepted (run shut down first): nothing was promised
            // to this client.
            continue;
        }
        let Some(stream) = streams[ci].as_mut() else {
            continue;
        };
        let received = drain_client(stream);
        if let Some(detail) = expect(conn, &received) {
            violations.push(Violation {
                accept_index: k,
                profile: "Clean".to_string(),
                kind: "rst-discarded-tail",
                detail,
            });
        }
    }
    violations
}

/// Map each conn script to its trace (via connect order == accept index)
/// and run the model checker over it.
fn collect_violations(
    sched: &Schedule,
    traces: &[ConnTrace],
    log: &TraceLog,
    connect_order: &[Option<u64>],
    check: impl Fn(&ConnScript, &ConnTrace, bool) -> Vec<Violation>,
) -> Vec<Violation> {
    let failed: HashSet<u64> = log.accept_failures().into_iter().collect();
    let mut violations = Vec::new();
    for (conn, k) in sched.conns.iter().zip(connect_order) {
        let Some(k) = *k else { continue };
        if failed.contains(&k) {
            // An injected accept failure: the connection never existed
            // server-side, so there is nothing to check.
            continue;
        }
        let Some(trace) = traces
            .iter()
            .find(|t| t.accept_index == k && t.parent.is_none())
        else {
            // Accepted-but-untraced cannot happen; never-accepted (run
            // shut down first) has no observable behaviour to judge.
            continue;
        };
        let strict = sched.plan.profile_for(k) == FaultProfile::Clean && !conn.close_early;
        violations.extend(check(conn, trace, strict));
    }
    violations
}

/// Greedy counterexample shrinking: repeatedly try structural
/// simplifications, keeping any that still fail, until a fixed point or
/// the run budget is spent. Returns the shrunken schedule and how many
/// candidate runs it took.
pub fn shrink(
    orig: &Schedule,
    still_fails: &dyn Fn(&Schedule) -> bool,
    max_runs: usize,
) -> (Schedule, usize) {
    let mut cur = orig.clone();
    let mut runs = 0;
    'outer: loop {
        for cand in shrink_candidates(&cur) {
            if runs >= max_runs {
                break 'outer;
            }
            runs += 1;
            if still_fails(&cand) {
                cur = cand;
                continue 'outer;
            }
        }
        break;
    }
    (cur, runs)
}

/// One round of simplification candidates, most aggressive first.
fn shrink_candidates(s: &Schedule) -> Vec<Schedule> {
    let mut out = Vec::new();
    // Drop a whole connection (re-indexing the order).
    if s.conns.len() > 1 {
        for drop_ci in 0..s.conns.len() {
            let mut c = s.clone();
            c.conns.remove(drop_ci);
            c.order.retain(|st| st.conn != drop_ci);
            for st in &mut c.order {
                if st.conn > drop_ci {
                    st.conn -= 1;
                }
            }
            out.push(c);
        }
    }
    // Zero every fault knob, one family at a time.
    for knob in 0..6 {
        let mut c = s.clone();
        let p = &mut c.plan;
        let changed = match knob {
            0 => std::mem::take(&mut p.reset_per_mille) != 0,
            1 => std::mem::take(&mut p.storm_per_mille) != 0,
            2 => std::mem::take(&mut p.short_io_per_mille) != 0,
            3 => std::mem::take(&mut p.corrupt_per_mille) != 0,
            4 => std::mem::take(&mut p.stall_per_mille) != 0,
            _ => std::mem::take(&mut p.accept_fail_every) != 0,
        };
        if changed {
            out.push(c);
        }
    }
    // Disable early closes.
    for ci in 0..s.conns.len() {
        if s.conns[ci].close_early {
            let mut c = s.clone();
            c.conns[ci].close_early = false;
            out.push(c);
        }
    }
    // Drop scripted mid-transfer aborts (keeps the op, cleans the close).
    for ci in 0..s.conns.len() {
        for oi in 0..s.conns[ci].data_ops.len() {
            if s.conns[ci].data_ops[oi].abort_after.is_some() {
                let mut c = s.clone();
                c.conns[ci].data_ops[oi].abort_after = None;
                out.push(c);
            }
        }
    }
    // Shrink upload payloads.
    for ci in 0..s.conns.len() {
        for oi in 0..s.conns[ci].data_ops.len() {
            let len = s.conns[ci].data_ops[oi].payload.len();
            if len > 1 {
                let mut c = s.clone();
                c.conns[ci].data_ops[oi].payload.truncate(len / 2);
                out.push(c);
            }
        }
    }
    // Zero all pauses.
    if s.order.iter().any(|st| st.pause_ms > 0) {
        let mut c = s.clone();
        for st in &mut c.order {
            st.pause_ms = 0;
        }
        out.push(c);
    }
    // Merge a connection's last two segments (drops one order step).
    for ci in 0..s.conns.len() {
        if s.conns[ci].segments.len() > 1 {
            let mut c = s.clone();
            let tail = c.conns[ci].segments.pop().expect("len > 1");
            c.conns[ci]
                .segments
                .last_mut()
                .expect("len > 0")
                .extend_from_slice(&tail);
            let last_step = c
                .order
                .iter()
                .rposition(|st| st.conn == ci)
                .expect("conn has steps");
            c.order.remove(last_step);
            out.push(c);
        }
    }
    // Halve a connection's final segment.
    for ci in 0..s.conns.len() {
        let seg = s.conns[ci].segments.last().expect("non-empty");
        if seg.len() > 1 {
            let mut c = s.clone();
            let half = seg.len() / 2;
            c.conns[ci]
                .segments
                .last_mut()
                .expect("non-empty")
                .truncate(half);
            out.push(c);
        }
    }
    out
}

/// Shrink `sched` and panic with a fully replayable counterexample.
pub fn fail_with_counterexample(
    sched: &Schedule,
    violations: &[Violation],
    still_fails: &dyn Fn(&Schedule) -> bool,
) -> ! {
    let (shrunk, runs) = shrink(sched, still_fails, 200);
    let listing: String = violations.iter().map(|v| format!("  {v}\n")).collect();
    panic!(
        "conformance violation: proto={} seed={} fault-plan-seed={}\n{listing}\
         replay exactly this seed with:\n  NSERVER_REPLAY_SEED={} cargo test -q -p conformance\n\
         shrunken counterexample ({runs} shrink runs; parseable via Schedule::parse):\n{}",
        sched.proto_name(),
        sched.seed,
        sched.plan.seed,
        sched.seed,
        shrunk.serialize(),
    );
}

impl Schedule {
    fn proto_name(&self) -> &'static str {
        match self.proto {
            Proto::Http => "http",
            Proto::Ftp => "ftp",
        }
    }
}

/// Coverage summary returned by [`explore`].
#[derive(Debug)]
pub struct ExploreSummary {
    /// Schedules executed.
    pub runs: usize,
    /// Distinct schedule fingerprints among them.
    pub distinct_schedules: usize,
}

/// Generate and run one schedule per seed, panicking with a shrunken,
/// replayable counterexample on the first violation.
pub fn explore(proto: Proto, seeds: impl IntoIterator<Item = u64>) -> ExploreSummary {
    let mut fingerprints = HashSet::new();
    let mut runs = 0;
    for seed in seeds {
        let sched = generate(proto, seed);
        fingerprints.insert(sched.fingerprint());
        runs += 1;
        let violations = run(&sched).violations;
        if !violations.is_empty() {
            fail_with_counterexample(&sched, &violations, &|s| !run(s).violations.is_empty());
        }
    }
    ExploreSummary {
        runs,
        distinct_schedules: fingerprints.len(),
    }
}

/// The seed set for an exploration test. `NSERVER_REPLAY_SEED=n` narrows
/// every suite to exactly seed `n` (the counterexample replay workflow);
/// `NSERVER_CONF_SEED_SPAN=lo..hi` widens the sweep (the CI extended
/// run); otherwise `default_lo..default_hi`.
pub fn seed_range(default_lo: u64, default_hi: u64) -> Vec<u64> {
    if let Ok(s) = std::env::var("NSERVER_REPLAY_SEED") {
        let seed = s
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("NSERVER_REPLAY_SEED={s:?} is not a u64: {e}"));
        return vec![seed];
    }
    if let Ok(s) = std::env::var("NSERVER_CONF_SEED_SPAN") {
        let (lo, hi) = s
            .split_once("..")
            .unwrap_or_else(|| panic!("NSERVER_CONF_SEED_SPAN={s:?} is not lo..hi"));
        let lo: u64 = lo.trim().parse().expect("span lo");
        let hi: u64 = hi.trim().parse().expect("span hi");
        return (lo..hi).collect();
    }
    (default_lo..default_hi).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Step;
    use std::time::Instant;

    fn two_conn_schedule() -> Schedule {
        Schedule {
            proto: Proto::Http,
            seed: 0,
            plan: FaultPlan {
                reset_per_mille: 100,
                ..FaultPlan::new(5)
            },
            conns: vec![
                ConnScript {
                    segments: vec![b"GET /a HTTP/1.1\r\n".to_vec(), b"\r\n".to_vec()],
                    close_early: true,
                    data_ops: vec![],
                },
                ConnScript {
                    segments: vec![b"GET /b HTTP/1.1\r\n\r\n".to_vec()],
                    close_early: false,
                    data_ops: vec![],
                },
            ],
            order: vec![
                Step {
                    conn: 0,
                    pause_ms: 1,
                },
                Step {
                    conn: 1,
                    pause_ms: 0,
                },
                Step {
                    conn: 0,
                    pause_ms: 2,
                },
            ],
        }
    }

    #[test]
    fn shrink_reaches_a_minimal_failing_form() {
        // Synthetic oracle: "fails" whenever conn 0's script mentions /a.
        let fails = |s: &Schedule| {
            s.conns
                .iter()
                .any(|c| c.bytes().windows(2).any(|w| w == b"/a"))
        };
        let orig = two_conn_schedule();
        assert!(fails(&orig));
        let (shrunk, runs) = shrink(&orig, &fails, 100);
        assert!(fails(&shrunk), "shrinking must preserve the failure");
        assert!(runs > 0);
        assert_eq!(shrunk.conns.len(), 1, "irrelevant conn dropped");
        assert_eq!(shrunk.plan.reset_per_mille, 0, "irrelevant knob zeroed");
        assert!(shrunk.order.iter().all(|s| s.pause_ms == 0));
        assert!(!shrunk.conns[0].close_early);
        shrunk.check_consistency().expect("shrunk stays consistent");
        assert!(
            shrunk.conns[0].bytes().len() < orig.conns[0].bytes().len(),
            "byte-level shrinking happened"
        );
    }

    #[test]
    fn shrink_respects_the_run_budget() {
        let (_, runs) = shrink(&two_conn_schedule(), &|_| true, 7);
        assert!(runs <= 7);
    }

    #[test]
    fn virtual_pacing_delivers_everything_without_sleeping() {
        let mut sched = two_conn_schedule();
        sched.plan = FaultPlan::new(5); // no faults: verdicts must be clean
        for st in &mut sched.order {
            st.pause_ms = 200; // 600ms of scheduled pauses
        }
        let started = Instant::now();
        let report = run(&sched);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.elapsed, Duration::from_millis(600));
        assert!(
            started.elapsed() < Duration::from_millis(590),
            "pauses must not be slept away"
        );
    }

    #[test]
    fn seed_range_defaults_and_env_overrides() {
        assert_eq!(seed_range(3, 6), vec![3, 4, 5]);
        std::env::set_var("NSERVER_CONF_SEED_SPAN", "10..13");
        assert_eq!(seed_range(3, 6), vec![10, 11, 12]);
        std::env::set_var("NSERVER_REPLAY_SEED", "42");
        assert_eq!(seed_range(3, 6), vec![42], "replay wins over span");
        std::env::remove_var("NSERVER_REPLAY_SEED");
        std::env::remove_var("NSERVER_CONF_SEED_SPAN");
    }
}
