//! The outside-in layer ladder: the workload's first requests replayed
//! through each layer's public functions, one rung at a time, from the
//! codec alone up to the full server on loopback TCP. Every clock read
//! is the harness's own; each timed stretch is a span.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use nserver_cache::{FileCache, PolicyKind, SharedFileCache};
use nserver_core::event::Priority;
use nserver_core::metrics::MetricsRegistry;
use nserver_core::options::ThreadAllocation;
use nserver_core::pipeline::{
    Action, Codec, ConnCtx, ConnShared, DecodeState, EncodedReply, Engine, Service, Work,
};
use nserver_core::proactor::HelperPool;
use nserver_core::processor::EventProcessor;
use nserver_core::profiling::ServerStats;
use nserver_core::queue::{BlockingQueue, FifoQueue};
use nserver_core::reactor::DispatchNotifier;
use nserver_core::trace::DebugTracer;
use nserver_core::transport::SyscallCounters;
use nserver_http::preset::COPS_HTTP_CACHE_BYTES;
use nserver_http::{ContentStore, HttpCodec, Request, Response, StaticFileService};
use parking_lot::{Mutex, RwLock};

use crate::bed::{run_closed, server_verdict, set_up_mem, set_up_tcp, Bed, Extent, Plan, Streams};
use crate::client::Dial;
use crate::span::{self_after_separate, SpanId, Trace};
use crate::stats::percentile;
use crate::workload::{
    share_of, Files, Pacing, SplitMix64, Store, Workload, CLIENTS, REQUESTS_PER_CHURN_CONN,
};

/// Sub-microsecond calls are timed this many at a time.
const BATCH: usize = 64;

/// One request of the replayed sequence.
#[derive(Debug, Clone, Copy)]
struct Req {
    id: u32,
    /// Carries `Connection: close` (the fifth of a churn connection).
    closing: bool,
    /// Which client's stream it came from.
    lane: usize,
    /// First request of a new connection.
    opens: bool,
}

/// The workload's warm-up and first `ladder_requests` requests, exactly
/// as the clients draw them, the two lanes interleaved a work item at a
/// time.
struct Replay {
    warm: Vec<Req>,
    timed: Vec<Req>,
    /// Requests the server finds in one read: the pipelining depth.
    depth: usize,
}

impl Replay {
    fn new(w: &Workload, files: &Files, seed: u64, plan: &Plan) -> Self {
        let per_conn = REQUESTS_PER_CHURN_CONN;
        let (depth, group) = match w.pacing {
            Pacing::Pipelined { depth } => (depth, depth),
            Pacing::Open { .. } => (1, 1),
            Pacing::Churn => (1, per_conn),
        };
        let mut lanes_warm = Vec::new();
        let mut lanes_timed = Vec::new();
        for lane in 0..CLIENTS {
            let mut rng = SplitMix64::lane(seed, lane);
            let mut draw = |n: usize, churn: bool| -> Vec<Req> {
                (0..n)
                    .map(|k| Req {
                        id: files.draw(&mut rng),
                        closing: churn && k % per_conn == per_conn - 1,
                        lane,
                        opens: churn && k % per_conn == 0,
                    })
                    .collect()
            };
            if w.pacing == Pacing::Churn {
                let warm_conns = share_of(plan.churn_warmup_conns, lane) as usize;
                lanes_warm.push(draw(warm_conns * per_conn, true));
                let conns = share_of(plan.ladder_requests / per_conn as u64, lane) as usize;
                lanes_timed.push(draw(conns * per_conn, true));
            } else {
                let mut warm: Vec<Req> = files
                    .ids()
                    .filter(|id| *id as usize % CLIENTS == lane)
                    .map(|id| Req {
                        id,
                        closing: false,
                        lane,
                        opens: false,
                    })
                    .collect();
                warm.extend(draw(plan.warmup_batches as usize * depth, false));
                lanes_warm.push(warm);
                lanes_timed.push(draw(share_of(plan.ladder_requests, lane) as usize, false));
            }
        }
        Self {
            warm: interleave(&lanes_warm, group),
            timed: interleave(&lanes_timed, group),
            depth,
        }
    }
}

fn interleave(lanes: &[Vec<Req>], group: usize) -> Vec<Req> {
    let mut chunks: Vec<_> = lanes.iter().map(|l| l.chunks(group)).collect();
    let mut out = Vec::with_capacity(lanes.iter().map(Vec::len).sum());
    loop {
        let before = out.len();
        for c in &mut chunks {
            if let Some(chunk) = c.next() {
                out.extend_from_slice(chunk);
            }
        }
        if out.len() == before {
            return out;
        }
    }
}

fn request_bytes<'a>(files: &'a Files, r: &Req) -> &'a [u8] {
    let f = files.get(r.id);
    if r.closing {
        &f.closing_request
    } else {
        &f.request
    }
}

fn fresh_cache() -> SharedFileCache<String> {
    SharedFileCache::new(FileCache::new(COPS_HTTP_CACHE_BYTES, PolicyKind::Lru))
}

fn ladder_ctx() -> ConnCtx {
    ConnCtx {
        id: 1,
        peer: "ladder".into(),
        priority: Priority::HIGHEST,
    }
}

/// What one `Instant::now()` costs: every span carries two.
pub fn clock_ns() -> f64 {
    const READS: u32 = 200_000;
    let t0 = Instant::now();
    for _ in 0..READS {
        black_box(Instant::now());
    }
    t0.elapsed().as_nanos() as f64 / f64::from(READS)
}

/// Everything the single-threaded rungs and the two server rungs found,
/// per request of the replay unless the name says otherwise.
#[derive(Debug, Default)]
pub struct Rungs {
    pub requests: u64,
    pub depth: usize,
    pub parse_ns: f64,
    pub cache_get_ns: f64,
    pub cache_get_or_load_ns: f64,
    pub cache_hit_ratio: f64,
    pub cache_evictions: u64,
    pub cache_coalesced_waits: u64,
    pub cache_rejected: u64,
    /// Share of the replay's requests that missed the cache.
    pub miss_share: f64,
    pub service_ns: f64,
    pub encode_ns: f64,
    pub pipeline_ns: f64,
    pub outbox_drain_ns: f64,
    pub queue_handoff_p50_ns: f64,
    pub processor_handoff_p50_ns: f64,
    pub proactor_handoff_p50_ns: f64,
    pub server_mem_us: f64,
    pub server_tcp_us: f64,
}

impl Rungs {
    pub fn service_self_ns(&self) -> f64 {
        self_after_separate(self.service_ns, &[self.cache_get_ns])
    }

    /// What a miss adds to the pipeline rung, spread over all requests:
    /// with no helper pool the deferred load runs in place.
    fn miss_ns(&self) -> f64 {
        self.miss_share * self.cache_get_or_load_ns
    }

    pub fn pipeline_self_ns(&self) -> f64 {
        self_after_separate(
            self.pipeline_ns,
            &[
                self.parse_ns,
                self.service_ns,
                self.encode_ns,
                self.miss_ns(),
            ],
        )
    }

    /// One queue-and-worker hand-off per work item, which carries `depth`
    /// requests, and one helper hand-off per miss — with the consumer
    /// parked, so under saturation this is an upper bound.
    pub fn handoff_ns(&self) -> f64 {
        self.processor_handoff_p50_ns / self.depth as f64
            + self.miss_share * self.proactor_handoff_p50_ns
    }

    /// Time per request that a rung measured from outside accounts for.
    pub fn attributed_ns(&self) -> f64 {
        self.pipeline_ns + self.outbox_drain_ns + self.handoff_ns()
    }

    pub fn mem_unattributed_us(&self) -> f64 {
        self.server_mem_us - self.attributed_ns() / 1e3
    }

    pub fn tcp_minus_mem_us(&self) -> f64 {
        self.server_tcp_us - self.server_mem_us
    }

    pub fn coverage_share(&self) -> f64 {
        self.attributed_ns() / 1e3 / self.server_tcp_us
    }
}

fn per_call(trace: &Trace, name: &str) -> f64 {
    let (ns, calls) = trace.total(name);
    if calls == 0 {
        0.0
    } else {
        ns as f64 / calls as f64
    }
}

/// Climb every rung for `w`. The server rungs replay closed-loop at the
/// workload's depth (the open loop at depth 1), so that time per request
/// means the same on every rung.
pub fn climb(w: &Workload, seed: u64, plan: &Plan, trace: &mut Trace) -> Result<Rungs, String> {
    let (files, store) = Files::synthesise(w);
    let replay = Replay::new(w, &files, seed, plan);
    let mut r = Rungs {
        requests: replay.timed.len() as u64,
        depth: replay.depth,
        ..Rungs::default()
    };

    let requests = rung_parse(&files, &replay, trace);
    r.parse_ns = per_call(trace, "http.parse");

    rung_cache(&files, &store, &replay, trace, &mut r);

    let responses = rung_service(&files, &store, &replay, requests, trace);
    r.service_ns = per_call(trace, "http.service");

    rung_encode(&responses, trace);
    r.encode_ns = per_call(trace, "http.encode");
    drop(responses);

    rung_pipeline(&files, &store, &replay, trace);
    r.pipeline_ns = per_call(trace, "core.pipeline");
    r.outbox_drain_ns = per_call(trace, "core.pipeline.outbox_drain");

    r.queue_handoff_p50_ns = rung_queue_handoff(plan.handoff_rounds, trace);
    r.processor_handoff_p50_ns = rung_processor_handoff(plan.handoff_rounds, trace);
    r.proactor_handoff_p50_ns = rung_proactor_handoff(plan.handoff_rounds, trace);

    let pacing = match w.pacing {
        Pacing::Open { .. } => Pacing::Pipelined { depth: 1 },
        p => p,
    };
    let extent = match pacing {
        Pacing::Churn => Extent::Count(r.requests / REQUESTS_PER_CHURN_CONN as u64),
        _ => Extent::Count(r.requests),
    };
    let streams = Streams { seed, round: 0 };
    let bed = set_up_mem(w, streams, plan, false, (Arc::clone(&files), store.clone()));
    r.server_mem_us = rung_server("server.mem", bed, pacing, extent, trace)?;
    let bed = set_up_tcp(w, streams, plan, true, (files, store));
    r.server_tcp_us = rung_server("server.tcp", bed, pacing, extent, trace)?;
    Ok(r)
}

/// The replay through the fully assembled server on `bed`'s transport:
/// wall time per verified request, in microseconds.
fn rung_server<D: Dial>(
    name: &'static str,
    mut bed: Bed<D>,
    pacing: Pacing,
    extent: Extent,
    trace: &mut Trace,
) -> Result<f64, String> {
    let t0 = Instant::now();
    let win = run_closed(&mut bed, pacing, extent, 0);
    trace.record(name, None, 0, win.verified() as u32, t0, Instant::now());
    let verdict = server_verdict(&bed.server, win.verified());
    bed.server.shutdown();
    verdict?;
    if win.tally.failed > 0 {
        return Err(format!(
            "{name} rung failed {} requests: {}",
            win.tally.failed,
            win.tally.first_failure.unwrap_or_default()
        ));
    }
    Ok(win.elapsed_s * 1e6 / win.verified().max(1) as f64)
}

/// `HttpCodec::decode_with`, one request per buffer. Returns what it
/// decoded, for the service rung.
fn rung_parse(files: &Files, replay: &Replay, trace: &mut Trace) -> Vec<Request> {
    let root = trace.open("rung http.parse", None);
    let codec = HttpCodec::new();
    for req in &replay.warm {
        let mut buf = BytesMut::from(request_bytes(files, req));
        black_box(codec.decode_with(&mut buf, &mut DecodeState::default())).ok();
    }
    let mut decoded = Vec::with_capacity(replay.timed.len());
    for (b, batch) in replay.timed.chunks(BATCH).enumerate() {
        let mut bufs: Vec<BytesMut> = batch
            .iter()
            .map(|r| BytesMut::from(request_bytes(files, r)))
            .collect();
        let t0 = Instant::now();
        for buf in &mut bufs {
            let req = codec
                .decode_with(buf, &mut DecodeState::default())
                .expect("the harness's own requests parse")
                .expect("and are complete");
            decoded.push(req);
        }
        let t1 = Instant::now();
        let at = (b * BATCH) as u64;
        trace.record("http.parse", Some(root), at, batch.len() as u32, t0, t1);
    }
    trace.close(root);
    decoded
}

/// `SharedFileCache::get`, then `get_or_load` for what missed — as the
/// service does — in batches: the gets of a batch first, then its loads.
fn rung_cache(files: &Files, store: &Store, replay: &Replay, trace: &mut Trace, r: &mut Rungs) {
    let root = trace.open("rung cache", None);
    let cache = fresh_cache();
    let load = |req: &Req| {
        let path = &files.get(req.id).path;
        if cache.get(path.as_str()).is_none() {
            cache.get_or_load(path.clone(), || store.load(path));
        }
    };
    replay.warm.iter().for_each(load);
    let warmed = cache.stats();
    let mut missed = Vec::with_capacity(BATCH);
    for (b, batch) in replay.timed.chunks(BATCH).enumerate() {
        let at = (b * BATCH) as u64;
        missed.clear();
        let t0 = Instant::now();
        for req in batch {
            let path = &files.get(req.id).path;
            if black_box(cache.get(path.as_str())).is_none() {
                missed.push(path);
            }
        }
        let t1 = Instant::now();
        trace.record("cache.get", Some(root), at, batch.len() as u32, t0, t1);
        if missed.is_empty() {
            continue;
        }
        let t0 = Instant::now();
        for path in &missed {
            black_box(cache.get_or_load((*path).clone(), || store.load(path)));
        }
        let t1 = Instant::now();
        trace.record(
            "cache.get_or_load",
            Some(root),
            at,
            missed.len() as u32,
            t0,
            t1,
        );
    }
    trace.close(root);
    let s = cache.stats();
    let (hits, misses) = (s.hits - warmed.hits, s.misses - warmed.misses);
    r.cache_get_ns = per_call(trace, "cache.get");
    r.cache_get_or_load_ns = per_call(trace, "cache.get_or_load");
    r.cache_hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    r.miss_share = misses as f64 / replay.timed.len().max(1) as f64;
    r.cache_evictions = s.evictions - warmed.evictions;
    r.cache_rejected = s.rejected - warmed.rejected;
    r.cache_coalesced_waits = cache.coalesced_waits();
}

/// Run an action to its response as the framework would: deferred jobs
/// (cache misses) are run in place.
fn settle(action: Action<Response>) -> Response {
    match action {
        Action::Reply(resp) | Action::ReplyClose(resp) => resp,
        Action::Defer(job) | Action::DeferClose(job) => job(),
        Action::NoReply | Action::Close => panic!("the static file service always replies"),
    }
}

/// `StaticFileService::handle`; the deferred loads it hands back run
/// off the clock (the cache rung timed them). Returns the responses, for
/// the encode rung.
fn rung_service(
    files: &Files,
    store: &Store,
    replay: &Replay,
    requests: Vec<Request>,
    trace: &mut Trace,
) -> Vec<Response> {
    let root = trace.open("rung http.service", None);
    let service = StaticFileService::new(store.clone(), Some(fresh_cache()));
    let codec = HttpCodec::new();
    let ctx = ladder_ctx();
    for req in &replay.warm {
        let parsed = codec
            .decode(&mut BytesMut::from(request_bytes(files, req)))
            .expect("the harness's own requests parse")
            .expect("and are complete");
        settle(service.handle(&ctx, parsed));
    }
    let mut responses = Vec::with_capacity(requests.len());
    let mut requests = requests.into_iter();
    let mut actions = Vec::with_capacity(BATCH);
    for (b, batch) in replay.timed.chunks(BATCH).enumerate() {
        let t0 = Instant::now();
        for req in requests.by_ref().take(batch.len()) {
            actions.push(service.handle(&ctx, req));
        }
        let t1 = Instant::now();
        let at = (b * BATCH) as u64;
        trace.record("http.service", Some(root), at, batch.len() as u32, t0, t1);
        responses.extend(actions.drain(..).map(settle));
    }
    trace.close(root);
    responses
}

/// `HttpCodec::encode_reply`: the head into an owned segment, the body
/// as a shared one.
fn rung_encode(responses: &[Response], trace: &mut Trace) {
    let root = trace.open("rung http.encode", None);
    let codec = HttpCodec::new();
    let mut encoded = Vec::with_capacity(BATCH);
    for (b, batch) in responses.chunks(BATCH).enumerate() {
        let t0 = Instant::now();
        for resp in batch {
            let mut out = EncodedReply::new();
            codec
                .encode_reply(resp, &mut out)
                .expect("a response encodes");
            encoded.push(out);
        }
        let t1 = Instant::now();
        let at = (b * BATCH) as u64;
        trace.record("http.encode", Some(root), at, batch.len() as u32, t0, t1);
        black_box(&encoded);
        encoded.clear();
    }
    trace.close(root);
}

/// A hand-built engine with no dispatcher and no helper pool (as
/// `keepalive_throughput` drives it), and the connections the reactor
/// would have opened on it.
struct BareEngine {
    engine: Engine<HttpCodec, StaticFileService<Store>>,
    /// One connection per lane; a request that opens a connection
    /// (churn) replaces its lane's.
    conns: Vec<Option<Arc<ConnShared>>>,
    next_id: u64,
}

impl BareEngine {
    fn new(store: &Store) -> Self {
        Self {
            engine: Engine {
                codec: Arc::new(HttpCodec::new()),
                service: Arc::new(StaticFileService::new(store.clone(), Some(fresh_cache()))),
                registry: Arc::new(RwLock::new(HashMap::new())),
                stats: ServerStats::new_shared(),
                metrics: MetricsRegistry::disabled(),
                tracer: DebugTracer::disabled(),
                logger: None,
                helper: None,
                completion_tx: None,
                notifier: DispatchNotifier::disabled(),
                syscalls: SyscallCounters::new_shared(),
            },
            conns: vec![None; CLIENTS],
            next_id: 0,
        }
    }

    /// The lane's connection, opened anew when `fresh` or not yet open.
    /// The one it replaces stays registered: work prepared for it may
    /// not have run yet ([`BareEngine::reap`] takes it out afterwards).
    fn conn(&mut self, lane: usize, fresh: bool) -> Arc<ConnShared> {
        if let (Some(conn), false) = (&self.conns[lane], fresh) {
            return Arc::clone(conn);
        }
        self.next_id += 1;
        let conn = ConnShared::new(self.next_id, format!("ladder-{lane}"), Priority::HIGHEST);
        self.engine
            .registry
            .write()
            .insert(conn.id, Arc::clone(&conn));
        self.conns[lane] = Some(Arc::clone(&conn));
        conn
    }

    /// Unregister the connections among `served` that have answered
    /// their closing request, as the reactor does once it has lingered.
    fn reap(&mut self, served: &[Arc<ConnShared>]) {
        let mut registry = self.engine.registry.write();
        for conn in served {
            if conn.closing.load(Ordering::Relaxed) {
                registry.remove(&conn.id);
            }
        }
    }
}

/// Work items as the dispatcher would cut them: runs of one lane's
/// requests, `depth` at most, never across a connection's end.
fn work_items(reqs: &[Req], depth: usize) -> Vec<std::ops::Range<usize>> {
    let mut items = Vec::new();
    let mut start = 0;
    while start < reqs.len() {
        let mut end = start + 1;
        while end < reqs.len()
            && end - start < depth
            && reqs[end].lane == reqs[start].lane
            && !reqs[end].opens
        {
            end += 1;
        }
        items.push(start..end);
        start = end;
    }
    items
}

/// `Engine::handle_work(Work::Process)`: request bytes into the inbox,
/// one work item per `depth` requests, then the outbox drained
/// `front_chunk`/`advance`-wise, a chunk per write as the dispatcher's
/// flush loop does. Opening connections is the reactor's work and stays
/// off the clock.
fn rung_pipeline(files: &Files, store: &Store, replay: &Replay, trace: &mut Trace) {
    let root = trace.open("rung core.pipeline", None);
    let mut bare = BareEngine::new(store);
    let mut sink = 0usize;
    for (reqs, timed) in [(&replay.warm, false), (&replay.timed, true)] {
        let items = work_items(reqs, replay.depth);
        for group in items.chunks((BATCH / replay.depth).max(1)) {
            let conns: Vec<Arc<ConnShared>> = group
                .iter()
                .map(|item| bare.conn(reqs[item.start].lane, reqs[item.start].opens))
                .collect();
            let served: u32 = group.iter().map(|item| item.len() as u32).sum();
            let at = group[0].start as u64;
            let t0 = Instant::now();
            for (conn, item) in conns.iter().zip(group) {
                {
                    let mut inbox = conn.inbox.lock();
                    for r in &reqs[item.clone()] {
                        inbox.extend_from_slice(request_bytes(files, r));
                    }
                }
                bare.engine.handle_work(Work::Process(conn.id));
            }
            let t1 = Instant::now();
            for conn in &conns {
                let mut out = conn.outbox.lock();
                while let Some(chunk) = out.front_chunk() {
                    let n = chunk.len();
                    sink = sink.wrapping_add(usize::from(chunk[0]) + usize::from(chunk[n - 1]));
                    out.advance(n);
                }
            }
            let t2 = Instant::now();
            bare.reap(&conns);
            if timed {
                trace.record("core.pipeline", Some(root), at, served, t0, t1);
                trace.record("core.pipeline.outbox_drain", Some(root), at, served, t1, t2);
            }
        }
    }
    black_box(sink);
    let sent = bare.engine.stats.snapshot().responses_sent;
    assert_eq!(
        sent,
        (replay.warm.len() + replay.timed.len()) as u64,
        "the hand-built engine answered every replayed request"
    );
    trace.close(root);
}

/// Spin, giving up the core, until `ready`; the hand-off rungs use it
/// to wait for the consumer to park before each send.
fn spin_until(mut ready: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !ready() {
        assert!(
            Instant::now() < deadline,
            "hand-off partner never got ready"
        );
        std::thread::yield_now();
    }
}

/// Record each hand-off (sent, taken up) as a span under `root`, close
/// `root`, and give back the median hand-off in nanoseconds.
fn finish_handoffs(
    trace: &mut Trace,
    name: &'static str,
    root: SpanId,
    stamps: &[(Instant, Instant)],
) -> f64 {
    for (i, (sent, got)) in stamps.iter().enumerate() {
        trace.record(name, Some(root), i as u64, 1, *sent, *got);
    }
    trace.close(root);
    let mut ns: Vec<u64> = stamps
        .iter()
        .map(|(sent, got)| got.duration_since(*sent).as_nanos() as u64)
        .collect();
    ns.sort_unstable();
    percentile(&ns, 0.5) as f64
}

/// `BlockingQueue::push` to `pop_wait` returning on another, parked
/// thread.
fn rung_queue_handoff(rounds: usize, trace: &mut Trace) -> f64 {
    let root = trace.open("rung core.queue", None);
    let queue: Arc<BlockingQueue<Instant>> = BlockingQueue::new(Box::new(FifoQueue::new()));
    let consumer = {
        let queue = Arc::clone(&queue);
        std::thread::spawn(move || {
            let mut stamps = Vec::new();
            while let Some(sent) = queue.pop_wait(Duration::from_secs(5)) {
                stamps.push((sent, Instant::now()));
            }
            stamps
        })
    };
    for _ in 0..rounds {
        spin_until(|| queue.waiters() == 1 && queue.is_empty());
        queue.push(Instant::now(), Priority::HIGHEST);
    }
    spin_until(|| queue.is_empty());
    queue.close();
    let stamps = consumer.join().expect("queue consumer panicked");
    assert_eq!(stamps.len(), rounds, "every push was popped");
    finish_handoffs(trace, "core.queue.handoff", root, &stamps)
}

/// `EventProcessor::submit` to handler entry, the four static workers
/// of Table 1 all parked.
fn rung_processor_handoff(rounds: usize, trace: &mut Trace) -> f64 {
    const WORKERS: usize = 4;
    let root = trace.open("rung core.processor", None);
    let queue: Arc<BlockingQueue<Instant>> = BlockingQueue::new(Box::new(FifoQueue::new()));
    let stamps = Arc::new(Mutex::new(Vec::with_capacity(rounds)));
    let handled = Arc::new(AtomicUsize::new(0));
    let handler = {
        let (stamps, handled) = (Arc::clone(&stamps), Arc::clone(&handled));
        Arc::new(move |sent: Instant| {
            let got = Instant::now();
            stamps.lock().push((sent, got));
            handled.fetch_add(1, Ordering::Release);
        })
    };
    let processor = EventProcessor::start(
        ThreadAllocation::Static { threads: WORKERS },
        Arc::clone(&queue),
        handler,
    );
    for i in 0..rounds {
        spin_until(|| queue.waiters() == WORKERS && handled.load(Ordering::Acquire) == i);
        processor.submit(Instant::now(), Priority::HIGHEST);
    }
    spin_until(|| handled.load(Ordering::Acquire) == rounds);
    processor.shutdown();
    let stamps = std::mem::take(&mut *stamps.lock());
    finish_handoffs(trace, "core.processor.handoff", root, &stamps)
}

/// `HelperPool::submit` to job entry. The pool does not say when its
/// helpers are parked, so each round waits for the last job to finish
/// and then a little longer.
fn rung_proactor_handoff(rounds: usize, trace: &mut Trace) -> f64 {
    let root = trace.open("rung core.proactor", None);
    let pool = HelperPool::new(4);
    let stamps = Arc::new(Mutex::new(Vec::with_capacity(rounds)));
    for i in 0..rounds {
        spin_until(|| pool.completed() == i as u64);
        std::thread::sleep(Duration::from_micros(100));
        let stamps = Arc::clone(&stamps);
        let sent = Instant::now();
        pool.submit(move || {
            let got = Instant::now();
            stamps.lock().push((sent, got));
        });
    }
    spin_until(|| pool.completed() == rounds as u64);
    drop(pool);
    let stamps = std::mem::take(&mut *stamps.lock());
    finish_handoffs(trace, "core.proactor.handoff", root, &stamps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::by_name;

    fn quick() -> Plan {
        Plan::new(1, true)
    }

    #[test]
    fn replay_is_what_the_clients_draw() {
        let w = by_name("small_pipelined").unwrap();
        let (files, _) = Files::synthesise(&w);
        let replay = Replay::new(&w, &files, 9, &quick());
        assert_eq!(replay.timed.len(), 2_000);
        assert_eq!(replay.depth, 16);
        assert_eq!(
            replay.warm.len(),
            72 + 2 * 8 * 16,
            "the warm-up touches every file once, then runs its batches"
        );
        let drawn_in_warm_up = (replay.warm.iter().filter(|r| r.lane == 0).count() - 36) as u64;
        // Lane 0's requests, in order, are lane 0's stream.
        let mut rng = SplitMix64::lane(9, 0);
        for _ in 0..drawn_in_warm_up {
            files.draw(&mut rng);
        }
        for r in replay.timed.iter().filter(|r| r.lane == 0) {
            assert_eq!(r.id, files.draw(&mut rng));
        }
        // Lanes alternate a work item at a time.
        assert!(replay.timed[..16].iter().all(|r| r.lane == 0));
        assert!(replay.timed[16..32].iter().all(|r| r.lane == 1));
    }

    #[test]
    fn churn_replay_closes_every_fifth_request() {
        let w = by_name("specweb_churn").unwrap();
        let (files, _) = Files::synthesise(&Workload { dirs: 2, ..w });
        let replay = Replay::new(&w, &files, 9, &quick());
        assert_eq!(replay.timed.len(), 2_000);
        assert_eq!(replay.warm.len(), quick().churn_warmup_conns as usize * 5);
        for (k, r) in replay.timed.iter().enumerate() {
            assert_eq!(r.closing, k % 5 == 4);
            assert_eq!(r.opens, k % 5 == 0);
        }
    }

    #[test]
    fn rung_arithmetic_adds_up() {
        let r = Rungs {
            depth: 16,
            parse_ns: 300.0,
            cache_get_ns: 100.0,
            cache_get_or_load_ns: 1000.0,
            miss_share: 0.1,
            service_ns: 400.0,
            encode_ns: 200.0,
            pipeline_ns: 1500.0,
            outbox_drain_ns: 50.0,
            processor_handoff_p50_ns: 16_000.0,
            proactor_handoff_p50_ns: 20_000.0,
            server_mem_us: 10.0,
            server_tcp_us: 20.0,
            ..Rungs::default()
        };
        assert_eq!(r.service_self_ns(), 300.0);
        assert_eq!(r.pipeline_self_ns(), 1500.0 - 300.0 - 400.0 - 200.0 - 100.0);
        assert_eq!(r.handoff_ns(), 1000.0 + 2000.0);
        assert_eq!(r.attributed_ns(), 1500.0 + 50.0 + 3000.0);
        assert!((r.mem_unattributed_us() - (10.0 - 4.55)).abs() < 1e-9);
        assert_eq!(r.tcp_minus_mem_us(), 10.0);
        assert!((r.coverage_share() - 4.55 / 20.0).abs() < 1e-9);
    }
}
