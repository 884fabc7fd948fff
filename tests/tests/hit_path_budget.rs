//! Allocation pin for the cache-hit request path with O10/O11 off.
//!
//! The hit path has a budget (DESIGN.md §11): decode, handle, encode and
//! queue one cached GET in at most one heap allocation — the request head
//! split off the inbox, of which the target is a range. The response's one header and
//! its encoded head are the cache entry's, made on the entry's first hits
//! and shared by every later one. A hand-built engine with no dispatcher (as
//! `benchmark/src/ladder.rs` builds it) runs pipelined hits through
//! `Engine::handle_work` under the support crate's counting allocator; a
//! new per-request `String`, `format!`, `Vec` or map node fails the pin.
//!
//! The same engine pins the hit path's clock readings: none with O10/O11
//! off, and with O11 on at most one per stage boundary.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use nserver_cache::{FileCache, PolicyKind, SharedFileCache};
use nserver_core::clock;
use nserver_core::event::Priority;
use nserver_core::metrics::MetricsRegistry;
use nserver_core::pipeline::{ConnShared, Engine, Work};
use nserver_core::profiling::ServerStats;
use nserver_core::reactor::DispatchNotifier;
use nserver_core::trace::DebugTracer;
use nserver_core::transport::SyscallCounters;
use nserver_http::{HttpCodec, MemStore, StaticFileService};
use nserver_integration_tests::{allocations_during, CountingAlloc};
use parking_lot::RwLock;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The budget, in heap allocations per request.
const BUDGET: u64 = 1;
/// Requests per work item, as `small_pipelined` pipelines them.
const DEPTH: u64 = 16;
const ITEMS: u64 = 64;

/// Run `ITEMS` work items of `depth` pipelined copies of `request`
/// through a warm engine, draining the outbox after each as Send Reply
/// would, and return the allocations per request, rounded up.
fn allocations_per_request(request: &[u8], depth: u64) -> u64 {
    let (engine, conn) = engine_and_connection();
    let work_item = || work_item(&engine, &conn, request, depth);
    // Warm: the first request misses (a synchronous deferred load fills
    // the cache), the inbox and the outbox's ring reach their sizes.
    for _ in 0..4 {
        work_item();
    }
    let answered = engine.stats.snapshot().responses_sent;
    let allocs = allocations_during(|| (0..ITEMS).for_each(|_| work_item()));
    let requests = engine.stats.snapshot().responses_sent - answered;
    assert_eq!(requests, ITEMS * depth, "every request was answered");
    assert_eq!(
        engine.stats.snapshot().blocking_ops,
        1,
        "and all but the first from the cache"
    );
    println!("{allocs} allocations over {requests} requests");
    allocs.div_ceil(requests)
}

type HitEngine = Engine<HttpCodec, StaticFileService<MemStore>>;

/// A hand-built engine serving `/index.html` through a cache, and one
/// registered connection.
fn engine_and_connection() -> (HitEngine, Arc<ConnShared>) {
    let mut store = MemStore::new();
    store.insert("/index.html", vec![b'x'; 512]);
    let cache = SharedFileCache::new(FileCache::new(1 << 20, PolicyKind::Lru));
    let engine = Engine {
        codec: Arc::new(HttpCodec::new()),
        service: Arc::new(StaticFileService::new(store, Some(cache))),
        registry: Arc::new(RwLock::new(HashMap::new())),
        stats: ServerStats::new_shared(),
        metrics: MetricsRegistry::disabled(),
        tracer: DebugTracer::disabled(),
        logger: None,
        helper: None,
        completion_tx: None,
        notifier: DispatchNotifier::disabled(),
        syscalls: SyscallCounters::new_shared(),
    };
    let conn = ConnShared::new(1, "budget".into(), Priority::HIGHEST);
    engine.registry.write().insert(conn.id, Arc::clone(&conn));
    (engine, conn)
}

/// One work item: `depth` pipelined copies of `request` decoded, handled,
/// encoded and queued, then the outbox drained as Send Reply would.
fn work_item(engine: &HitEngine, conn: &ConnShared, request: &[u8], depth: u64) {
    {
        let mut inbox = conn.inbox.lock();
        for _ in 0..depth {
            inbox.extend_from_slice(request);
        }
    }
    engine.handle_work(Work::Process(conn.id));
    let mut out = conn.outbox.lock();
    while let Some(chunk) = out.front_chunk() {
        let n = chunk.len();
        out.advance(n);
    }
    // A closing request ends its connection's decode loop; the next
    // item stands for the next connection's.
    conn.closing.store(false, Ordering::Relaxed);
}

#[test]
fn a_cached_get_stays_within_the_allocation_budget() {
    let per_request =
        allocations_per_request(b"GET /index.html HTTP/1.1\r\nHost: bench\r\n\r\n", DEPTH);
    assert!(
        per_request <= BUDGET,
        "{per_request} allocations per cached GET; the budget is {BUDGET}"
    );
}

#[test]
fn a_closing_get_and_a_head_stay_within_the_same_budget() {
    let closing = allocations_per_request(
        b"GET /index.html HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n",
        1,
    );
    assert!(closing <= BUDGET, "{closing} per `Connection: close` GET");
    let head = allocations_per_request(b"HEAD /index.html HTTP/1.1\r\nHost: bench\r\n\r\n", DEPTH);
    assert!(head <= BUDGET, "{head} per HEAD");
}

/// The entry's header and encoded head are made once: the first hit after
/// an insert may allocate for them (the entry's heads and the sidecar's
/// box; one head encoded, copied out of its buffer and shared: five),
/// the second — same version, same `Connection` — may not.
#[test]
fn an_entrys_head_is_built_once_and_outside_the_budget() {
    const GET: &[u8] = b"GET /index.html HTTP/1.1\r\nHost: bench\r\n\r\n";
    let (engine, conn) = engine_and_connection();
    for _ in 0..4 {
        work_item(&engine, &conn, GET, 1);
    }
    let service = Arc::clone(&engine.service);
    let cache = service.cache().expect("built with one");
    for len in [100, 1000] {
        assert!(cache.insert("/index.html".into(), Arc::new(vec![b'y'; len])));
        let first = allocations_during(|| work_item(&engine, &conn, GET, 1));
        let second = allocations_during(|| work_item(&engine, &conn, GET, 1));
        println!("after an insert of {len} bytes: {first}, then {second} allocations");
        assert!(first > BUDGET, "the first hit builds the entry's head");
        assert!(first <= BUDGET + 5, "and little else: {first}");
        assert!(second <= BUDGET, "{second} on the second hit");
    }
}

/// Clock readings on this thread over `ITEMS` warm work items of `depth`
/// cached GETs, with O11 on or off (O10 off), and the requests served.
fn clock_reads(profiled: bool, depth: u64) -> (u64, u64) {
    const GET: &[u8] = b"GET /index.html HTTP/1.1\r\nHost: bench\r\n\r\n";
    let (mut engine, conn) = engine_and_connection();
    if profiled {
        engine.metrics = MetricsRegistry::enabled();
    }
    for _ in 0..4 {
        work_item(&engine, &conn, GET, depth);
    }
    let before = clock::reads();
    (0..ITEMS).for_each(|_| work_item(&engine, &conn, GET, depth));
    (clock::reads() - before, ITEMS * depth)
}

/// A stage boundary reads the clock at most once, and only for a recorder
/// that is on: with O10/O11 off a cached GET reads it never (the watchdog
/// row's one reading per item is taken only on a thread with a row); with
/// O11 on, a request's boundaries are Decode → Handle, Handle → Encode
/// and Encode's end, which the next decode opens at, plus one for the
/// item's first decode — at most 4 per request at depth 1.
#[test]
fn clock_reads_per_cached_get_are_pinned() {
    for depth in [1, DEPTH] {
        let (reads, requests) = clock_reads(false, depth);
        assert_eq!(reads, 0, "O11 off, depth {depth}: {reads} clock reads");
        let (reads, requests_on) = clock_reads(true, depth);
        assert_eq!(requests_on, requests);
        println!("O11 on, depth {depth}: {reads} clock reads over {requests} requests");
        assert!(
            reads <= 3 * requests + ITEMS,
            "O11 on, depth {depth}: {reads} clock reads over {requests} requests"
        );
    }
}
