//! The test bed: COPS-HTTP started in this process as the paper's
//! Table 1 configures it, the clients' connections, the warm-up, and one
//! measured window with the server's own counters read on either side.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use nserver_cache::{FileCache, PolicyKind, SharedFileCache};
use nserver_core::metrics::LatencySnapshot;
use nserver_core::profiling::StatsSnapshot;
use nserver_core::server::{ServerBuilder, ServerHandle};
use nserver_core::transport::{mem, Listener, SyscallSnapshot, TcpListenerNb};
use nserver_http::preset::COPS_HTTP_CACHE_BYTES;
use nserver_http::{cops_http_options, HttpCodec, StaticFileService};

use crate::client::{
    fetch_each, run_churn, run_open, run_pipelined, Arrivals, Dial, Lane, MemDial, Stop, Tally,
    TcpDial,
};
use crate::sys;
use crate::workload::{share_of, Files, Pacing, SplitMix64, Store, Workload, CLIENTS};

pub type Handle = ServerHandle<HttpCodec, StaticFileService<Store>>;

/// How much work one run does. A run is several rounds, each on a server
/// set up afresh, and a round is several short windows one after another
/// on that server. A metric is read off the windows by
/// [`crate::stats::undisturbed`]: the host this runs on slows the guest
/// down for anything from a fraction of a second to minutes at a time, a
/// short window is either hit or not, and set-up time gets one sample a
/// round on the way.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// One measured window of the three timed workloads.
    pub window: Duration,
    /// Servers set up in an end-to-end run.
    pub rounds: usize,
    /// Windows measured on each.
    pub windows: usize,
    /// Pairs of rounds (profiling off, then on) of a `--trace` run.
    pub traced_pairs: usize,
    /// `specweb_churn` measures a fixed number of connections a window,
    /// not a time (`seconds` only sets how many rounds there are): each
    /// round binds a fresh port, and warm-up plus measurement must fit the
    /// ~28k ephemeral ports that can point at it however fast the server
    /// gets.
    pub churn_conns: u64,
    /// Connections of a round's warm-up, which fills the cache: as many
    /// as a window measures, five times the cache's size in bodies.
    pub churn_warmup_conns: u64,
    /// Keep-alive warm-up, after fetching every file once: this many
    /// batches at the workload's depth on each connection.
    pub warmup_batches: u64,
    /// Requests replayed at each rung of the layer ladder.
    pub ladder_requests: u64,
    /// Hand-offs timed per hand-off rung.
    pub handoff_rounds: usize,
}

impl Plan {
    /// `seconds` is what a whole end-to-end run measures for. `quick`
    /// (under `--check`) shrinks the fixed counts as well.
    pub fn new(seconds: u64, quick: bool) -> Self {
        // A round measures for two seconds, in four windows.
        let rounds = if quick {
            2
        } else {
            (seconds / 2).max(1) as usize
        };
        let windows = if quick { 2 } else { 4 };
        let in_all = (rounds * windows) as u32;
        // Warm-up and four windows: 8,000 connections a port.
        let churn_conns = if quick { 50 } else { 1_600 };
        Self {
            window: Duration::from_secs(seconds) / in_all,
            rounds,
            windows,
            traced_pairs: if quick { 1 } else { 4 },
            churn_conns,
            churn_warmup_conns: churn_conns,
            warmup_batches: if quick { 8 } else { 128 },
            ladder_requests: if quick { 2_000 } else { 20_000 },
            handoff_rounds: if quick { 200 } else { 1_000 },
        }
    }
}

/// One client's state between warm-up and measurement.
pub struct LaneState<L> {
    pub rng: SplitMix64,
    /// The warmed keep-alive connection (`None` for churn, which dials
    /// its own).
    pub link: Option<L>,
}

pub struct Bed<D: Dial> {
    pub workload: Workload,
    pub streams: Streams,
    pub files: Arc<Files>,
    pub server: Handle,
    pub dial: D,
    pub lanes: Vec<LaneState<D::Link>>,
    /// Windows of the workload measured on this bed so far.
    windows_run: usize,
    /// The open loop's: what keeps the CPU from halting between requests.
    awake: Option<sys::KeepAwake>,
}

/// Which request streams a bed's clients draw from: the run's seed and
/// the window's number in the run, so that the windows of a run do not
/// replay each other.
#[derive(Debug, Clone, Copy)]
pub struct Streams {
    pub seed: u64,
    pub round: usize,
}

impl Streams {
    fn lane(self, i: usize) -> SplitMix64 {
        SplitMix64::lane(self.seed, self.round * CLIENTS + i)
    }
}

/// COPS-HTTP on loopback TCP: `127.0.0.1`, the host's loopback
/// interface, not a real link. `files` is what [`Files::synthesise`]
/// gave; set-up time includes making it when the caller says so.
pub fn set_up_tcp(
    w: &Workload,
    streams: Streams,
    plan: &Plan,
    profiling: bool,
    files: (Arc<Files>, Store),
) -> Bed<TcpDial> {
    let listener = TcpListenerNb::bind("127.0.0.1:0").expect("bind a loopback port");
    set_up(w, streams, plan, profiling, files, listener, |server| {
        TcpDial(server.local_label().to_string())
    })
}

/// The same server on the in-memory transport (ladder rung `server.mem`).
pub fn set_up_mem(
    w: &Workload,
    streams: Streams,
    plan: &Plan,
    profiling: bool,
    files: (Arc<Files>, Store),
) -> Bed<MemDial> {
    let (listener, connector) = mem::listener("bench-mem");
    set_up(w, streams, plan, profiling, files, listener, |_| {
        MemDial(connector)
    })
}

fn set_up<L: Listener, D: Dial>(
    w: &Workload,
    streams: Streams,
    plan: &Plan,
    profiling: bool,
    (files, store): (Arc<Files>, Store),
    listener: L,
    dial: impl FnOnce(&Handle) -> D,
) -> Bed<D> {
    let awake = matches!(w.pacing, Pacing::Open { .. })
        .then(|| sys::KeepAwake::start().expect("start an idle-priority thread"));
    // As examples/web_server.rs builds COPS-HTTP: one 20 MB LRU.
    let cache = SharedFileCache::new(FileCache::new(COPS_HTTP_CACHE_BYTES, PolicyKind::Lru));
    let mut options = cops_http_options();
    options.profiling = profiling;
    let server = ServerBuilder::new(
        options,
        HttpCodec::new(),
        StaticFileService::new(store, Some(cache)),
    )
    .expect("Table 1's COPS-HTTP column is a valid option set")
    .serve(listener);
    let dial = dial(&server);

    let epoch = Instant::now();
    let warmed: Vec<(LaneState<D::Link>, Tally)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let (files, dial) = (&*files, &dial);
                scope.spawn(move || {
                    let mut rng = streams.lane(i);
                    let mut lane = Lane {
                        files,
                        rng: &mut rng,
                        full_body_check: w.full_body_check,
                        epoch,
                        keep_spans: 0,
                    };
                    let (link, tally) = match w.pacing {
                        Pacing::Churn => {
                            let share = share_of(plan.churn_warmup_conns, i);
                            (None, run_churn(dial, &mut lane, Stop::After(share)))
                        }
                        Pacing::Pipelined { .. } | Pacing::Open { .. } => {
                            let mut link = dial.dial().expect("warm-up connect");
                            let mine = files.ids().filter(|id| *id as usize % CLIENTS == i);
                            let mut tally = fetch_each(&mut link, &lane, mine);
                            let depth = match w.pacing {
                                Pacing::Pipelined { depth } => depth,
                                _ => 1,
                            };
                            let stop = Stop::After(plan.warmup_batches * depth as u64);
                            tally.merge(run_pipelined(&mut link, &mut lane, depth, stop));
                            (Some(link), tally)
                        }
                    };
                    (LaneState { rng, link }, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up client panicked"))
            .collect()
    });
    let mut lanes = Vec::with_capacity(CLIENTS);
    for (lane, tally) in warmed {
        assert!(
            tally.failed == 0,
            "{}: warm-up failed {} of {} requests: {}",
            w.name,
            tally.failed,
            tally.attempted,
            tally.first_failure.unwrap_or_default()
        );
        lanes.push(lane);
    }
    Bed {
        workload: *w,
        streams,
        files,
        server,
        dial,
        lanes,
        windows_run: 0,
        awake,
    }
}

/// The server's counters at one instant.
pub struct Counters {
    pub stats: StatsSnapshot,
    pub syscalls: SyscallSnapshot,
    pub latency: LatencySnapshot,
}

impl Counters {
    fn read(server: &Handle) -> Self {
        Self {
            stats: server.stats(),
            syscalls: server.syscalls(),
            latency: server.latency(),
        }
    }
}

/// One measured window.
pub struct Window {
    pub tally: Tally,
    pub elapsed_s: f64,
    /// Process CPU (user + system, server and generator alike, the
    /// open loop's spinner left out) spent inside the window.
    pub cpu_s: f64,
    pub before: Counters,
    pub after: Counters,
}

impl Window {
    pub fn verified(&self) -> u64 {
        self.tally.verified
    }
}

/// How a window's closed-loop clients know they are done.
#[derive(Debug, Clone, Copy)]
pub enum Extent {
    Time(Duration),
    /// Requests (pipelined) or connections (churn), over all clients.
    Count(u64),
}

/// Run `client` on every lane at once, between a common start and the
/// last client's end.
fn window<D, F>(bed: &mut Bed<D>, keep_spans: usize, client: F) -> Window
where
    D: Dial,
    F: Fn(usize, &D, &mut Option<D::Link>, &mut Lane<'_>) -> Tally + Sync,
{
    let full_body_check = bed.workload.full_body_check;
    let files = &*bed.files;
    let dial = &bed.dial;
    let start = Barrier::new(CLIENTS + 1);
    let epoch = Instant::now();
    // The process's CPU time without the spinner's, which does no work.
    let awake = bed.awake.as_ref();
    let cpu_seconds =
        || sys::process_cpu_seconds() - awake.map_or(0.0, sys::KeepAwake::cpu_seconds);
    let (tally, before, elapsed_s, cpu_s) = std::thread::scope(|scope| {
        let handles: Vec<_> = bed
            .lanes
            .iter_mut()
            .enumerate()
            .map(|(i, state)| {
                let (start, client) = (&start, &client);
                scope.spawn(move || {
                    let mut lane = Lane {
                        files,
                        rng: &mut state.rng,
                        full_body_check,
                        epoch,
                        keep_spans,
                    };
                    start.wait();
                    client(i, dial, &mut state.link, &mut lane)
                })
            })
            .collect();
        let before = Counters::read(&bed.server);
        let cpu0 = cpu_seconds();
        start.wait();
        let t0 = Instant::now();
        let mut tally = Tally::default();
        for h in handles {
            tally.merge(h.join().expect("client thread panicked"));
        }
        let elapsed_s = t0.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds() - cpu0;
        (tally, before, elapsed_s, cpu_s)
    });
    Window {
        tally,
        elapsed_s,
        cpu_s,
        before,
        after: Counters::read(&bed.server),
    }
}

/// A closed-loop window at the given pacing (the workload's own, or the
/// depth-1 stand-in the ladder uses for the open loop).
pub fn run_closed<D: Dial>(
    bed: &mut Bed<D>,
    pacing: Pacing,
    extent: Extent,
    keep_spans: usize,
) -> Window {
    window(bed, keep_spans, |i, dial, link, lane| {
        let stop = match extent {
            Extent::Time(d) => Stop::At(Instant::now() + d),
            Extent::Count(n) => Stop::After(share_of(n, i)),
        };
        match pacing {
            Pacing::Pipelined { depth } => {
                let link = link.as_mut().expect("keep-alive lanes are warmed");
                run_pipelined(link, lane, depth, stop)
            }
            Pacing::Churn => run_churn(dial, lane, stop),
            Pacing::Open { .. } => unreachable!("the open loop runs through run_workload"),
        }
    })
}

/// One window of the workload as its own pacing defines it. The open
/// loop's arrival times are a stream of their own for every window, so
/// that the gaps do not depend on how many files the warm-up drew.
pub fn run_workload(bed: &mut Bed<TcpDial>, plan: &Plan, keep_spans: usize) -> Window {
    let nth = bed.streams.round * plan.windows + bed.windows_run;
    bed.windows_run += 1;
    match bed.workload.pacing {
        p @ Pacing::Pipelined { .. } => run_closed(bed, p, Extent::Time(plan.window), keep_spans),
        Pacing::Churn => run_closed(
            bed,
            Pacing::Churn,
            Extent::Count(plan.churn_conns),
            keep_spans,
        ),
        Pacing::Open { rate_per_conn } => {
            let arrivals = Streams {
                seed: bed.streams.seed ^ 0xA221_7A15,
                round: nth,
            };
            window(bed, keep_spans, |i, _, link, lane| {
                let arrivals = Arrivals::new(arrivals.lane(i), rate_per_conn);
                let link = link.as_mut().expect("keep-alive lanes are warmed");
                run_open(link, lane, arrivals, Instant::now(), plan.window)
            })
        }
    }
}

/// What the server itself must agree to when a run ends.
pub fn server_verdict(server: &Handle, verified: u64) -> Result<(), String> {
    let s = server.stats();
    if s.responses_sent < verified {
        return Err(format!(
            "server counted {} responses, clients verified {verified}",
            s.responses_sent
        ));
    }
    if s.protocol_errors != 0 || s.handler_panics != 0 {
        return Err(format!(
            "server counted {} protocol errors and {} handler panics",
            s.protocol_errors, s.handler_panics
        ));
    }
    Ok(())
}
