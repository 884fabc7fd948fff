//! Server assembly: the runtime instantiation of the N-Server pattern
//! template.
//!
//! [`ServerBuilder`] plays the role the CO₂P₃S code generator plays in the
//! paper's generative path: given a validated [`ServerOptions`] value and
//! the application's hook objects (codec + service), it assembles exactly
//! the framework the options describe — FIFO or priority-quota event
//! queue, inline or pooled event handling, synchronous or Proactor-style
//! completions, overload gating, idle sweeps, tracing, profiling and
//! logging. (`nserver-codegen` emits this same assembly as standalone
//! source text.)

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use crate::diag::{DiagHub, DiagSnapshot, Watchdog, WatchdogConfig, WorkerStateTable};
use crate::event::Priority;
use crate::metrics::{LatencySnapshot, MetricsRegistry, OverloadSample};
use crate::options::{
    CompletionMode, EventScheduling, Mode, OptionsError, OverloadControl, ServerOptions,
    ThreadAllocation,
};
use crate::overload::OverloadController;
use crate::pipeline::{Codec, Engine, Registry, Service, Work};
use crate::processor::EventProcessor;
use crate::profiling::{ServerStats, StatsSnapshot};
use crate::queue::{BlockingQueue, FifoQueue};
use crate::reactor::{DispatchNotifier, Dispatcher, PriorityPolicy, SubmitMode};
use crate::scheduler::PriorityQuotaQueue;
use crate::trace::{AccessLogger, DebugTracer};
use crate::transport::{Listener, Poller, SyscallCounters, SyscallSnapshot};

/// Builder for a configured N-Server instance.
pub struct ServerBuilder<C: Codec, S: Service<C>> {
    options: ServerOptions,
    codec: Arc<C>,
    service: Arc<S>,
    priority_policy: PriorityPolicy,
    logger: Option<AccessLogger>,
    helper_threads: usize,
    metrics: Option<Arc<MetricsRegistry>>,
    diag: Option<DiagHub>,
    watchdog: Option<WatchdogConfig>,
}

impl<C: Codec, S: Service<C>> ServerBuilder<C, S> {
    /// Validate the options and begin assembly.
    pub fn new(options: ServerOptions, codec: C, service: S) -> Result<Self, OptionsError> {
        options.validate()?;
        Ok(Self {
            options,
            codec: Arc::new(codec),
            service: Arc::new(service),
            priority_policy: Arc::new(|_| Priority::HIGHEST),
            logger: None,
            helper_threads: 4,
            metrics: None,
            diag: None,
            watchdog: None,
        })
    }

    /// Inject a pre-made latency-metrics registry for the server to
    /// record into. Defaults to the diagnostics hub's registry — an
    /// enabled one when O11 = Yes, a disabled (no-op) one otherwise. An
    /// injected hub ([`diag`](Self::diag)) reads this registry from
    /// `serve` on: its surfaces show what the server records.
    pub fn metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Set the accept-time priority policy (O8): map a peer label to a
    /// priority level. The Fig. 5 experiment keys this on client IP.
    pub fn priority_policy(
        mut self,
        policy: impl Fn(&str) -> Priority + Send + Sync + 'static,
    ) -> Self {
        self.priority_policy = Arc::new(policy);
        self
    }

    /// Set the access-log sink (effective only with O12 = Yes).
    pub fn logger(mut self, logger: AccessLogger) -> Self {
        self.logger = Some(logger);
        self
    }

    /// Size of the Proactor helper pool (O4 = Asynchronous only).
    pub fn helper_threads(mut self, n: usize) -> Self {
        self.helper_threads = n.max(1);
        self
    }

    /// Inject a pre-made diagnostics hub so application code created
    /// before `serve` (a `/server-status` or `/debug/snapshot` route, an
    /// FTP `STAT` / `SITE DUMP` handler) can show the running server. The
    /// server counts into the hub's registries, and `serve` wires the
    /// tracer, worker table and queue gauge into it and registers the
    /// syscall counters, overload controller and Event Processor as
    /// feeders of its samples. Defaults to a fresh hub, reachable through
    /// [`ServerHandle::diag`].
    pub fn diag(mut self, hub: DiagHub) -> Self {
        self.diag = Some(hub);
        self
    }

    /// Spawn a watchdog thread over the diagnostics hub with this
    /// configuration. When `queue_saturation` is left `None` and O12
    /// watermark overload control is configured, the high watermark is
    /// used as the saturation threshold.
    pub fn watchdog(mut self, cfg: WatchdogConfig) -> Self {
        self.watchdog = Some(cfg);
        self
    }

    /// Start serving on the given listener. Returns a handle owning the
    /// framework threads.
    pub fn serve<L: Listener>(self, listener: L) -> ServerHandle<C, S> {
        let opts = &self.options;
        let local_label = listener.local_label();

        // --- Crosscut: O10 (tracer), O11/O12 (stats, logger). ---
        let tracer = match opts.mode {
            Mode::Debug => DebugTracer::enabled(64 * 1024),
            Mode::Production => DebugTracer::disabled(),
        };
        // The hub owns the registries: the server counts into what the
        // hub's surfaces read, whichever of the two was injected.
        let diag = self.diag.clone().unwrap_or_else(|| {
            let metrics = if opts.profiling {
                MetricsRegistry::enabled()
            } else {
                MetricsRegistry::disabled()
            };
            DiagHub::new(ServerStats::new_shared(), metrics)
        });
        if let Some(metrics) = &self.metrics {
            diag.wire_metrics(Arc::clone(metrics));
        }
        let (stats, metrics) = (Arc::clone(diag.stats()), diag.metrics());
        let logger = if opts.logging {
            self.logger.clone()
        } else {
            None
        };

        // --- Diagnostics: the worker state table is sized for every
        // thread that can hold a slot: all dispatchers plus the Event
        // Processor's worst-case pool.
        let max_workers = if opts.separate_handler_pool {
            match opts.thread_allocation {
                ThreadAllocation::Static { threads } => threads.max(1),
                ThreadAllocation::Dynamic { min, max, .. } => max.max(min.max(1)),
            }
        } else {
            0
        };
        // --- Syscall accounting at the transport boundary (always on;
        // same relaxed-counter cost class as ServerStats). ---
        let syscalls = SyscallCounters::new_shared();

        // --- Crosscut: O4 (Proactor helpers + completion channel). ---
        let (helper, completion_tx, mut completion_rx) = match opts.completion_mode {
            CompletionMode::Asynchronous => {
                let (tx, rx) = std::sync::mpsc::channel();
                let pool = crate::proactor::HelperPool::new(self.helper_threads);
                (Some(Arc::new(pool)), Some(tx), Some(rx))
            }
            CompletionMode::Synchronous => (None, None, None),
        };

        // --- O1: readiness demultiplexing fabric. Each dispatcher gets a
        // poller; its waker plus a flush channel form the notifier that
        // lets workers (and the Proactor, and shutdown) pull the owning
        // dispatcher out of its blocking wait.
        let n_dispatchers = opts.dispatcher_threads.count();
        let mut pollers = Vec::with_capacity(n_dispatchers);
        let mut flush_rxs = Vec::with_capacity(n_dispatchers);
        let mut notify_targets = Vec::with_capacity(n_dispatchers);
        for _ in 0..n_dispatchers {
            let poller = L::new_poller().expect("create readiness poller");
            let (flush_tx, flush_rx) = std::sync::mpsc::channel();
            notify_targets.push((flush_tx, poller.waker()));
            pollers.push(poller);
            flush_rxs.push(flush_rx);
        }
        let notifier = DispatchNotifier::new(notify_targets).count_wakes_in(Arc::clone(&syscalls));

        let worker_table = WorkerStateTable::new(n_dispatchers + max_workers + 2);
        diag.wire_tracer(tracer.clone());
        diag.wire_workers(Arc::clone(&worker_table));
        let counted = Arc::clone(&syscalls);
        diag.register(move |s| s.syscalls = Some(counted.snapshot()));

        let registry: Registry = Arc::new(parking_lot::RwLock::new(Default::default()));
        let engine = Arc::new(Engine {
            codec: Arc::clone(&self.codec),
            service: Arc::clone(&self.service),
            registry: Arc::clone(&registry),
            stats: Arc::clone(&stats),
            metrics: Arc::clone(&metrics),
            tracer: tracer.clone(),
            logger,
            helper,
            completion_tx,
            notifier: notifier.clone(),
            syscalls,
        });

        // --- Crosscut: O8 (queue discipline) and O2 (Event Processor). ---
        let processor = if opts.separate_handler_pool {
            let queue: Arc<BlockingQueue<Work<C::Response>>> = match &opts.event_scheduling {
                EventScheduling::No => BlockingQueue::new(Box::new(FifoQueue::new())),
                EventScheduling::Yes { quotas } => {
                    BlockingQueue::new(Box::new(PriorityQuotaQueue::new(quotas.clone())))
                }
            };
            // O11: stamp each item at enqueue so the dequeue side can
            // account queue-wait time (no-op while metrics are disabled).
            queue.set_wait_metrics(Arc::clone(&metrics));
            let handler = {
                let engine = Arc::clone(&engine);
                // O11: sample the queue depth as each work item is picked
                // up — the gauge's decaying high-water mark tracks bursts.
                let depth = queue.len_gauge();
                Arc::new(move |w: Work<C::Response>| {
                    engine
                        .metrics
                        .observe_queue_depth(depth.load(Ordering::Relaxed) as u64);
                    engine.handle_work(w)
                })
            };
            Some(EventProcessor::start_with_diag(
                opts.thread_allocation,
                queue,
                handler,
                Some(Arc::clone(&worker_table)),
            ))
        } else {
            None
        };
        if let Some(p) = &processor {
            diag.wire_queue(p.queue().len_gauge());
            // Handler panics are the sum of two disjoint sources: those
            // the pipeline caught and counted, and those that escaped a
            // worker entirely and were absorbed by the Event Processor.
            let p = Arc::clone(p);
            diag.register(move |s| {
                s.queue_waiters = p.queue().waiters() as u64;
                s.stats.handler_panics += p.handler_panics() as u64;
            });
        }

        // --- Crosscut: O9 (overload controller). ---
        let overload = match opts.overload_control {
            OverloadControl::No => OverloadController::disabled(),
            OverloadControl::MaxConnections { limit } => {
                OverloadController::with_max_connections(limit)
            }
            OverloadControl::Watermark { high, low } => {
                let queue = processor
                    .as_ref()
                    .expect("validated: watermark requires O2=Yes")
                    .queue();
                // The gated acceptor sits in a poller wait while paused;
                // wake it the moment the queue drains to the low mark so
                // resuming does not ride on the periodic re-check alone.
                let wake = notifier.clone();
                queue.set_drain_hook(low, move || wake.wake_completion_sink());
                OverloadController::with_watermark(queue.len_gauge(), high, low)
            }
        };
        let overload = Arc::new(Mutex::new(overload));
        let ctl = Arc::clone(&overload);
        diag.register(move |s| {
            let ctl = ctl.lock();
            s.overload = Some(OverloadSample {
                paused: ctl.is_paused(),
                pauses: ctl.pause_transitions(),
                resumes: ctl.resume_transitions(),
            });
        });

        // --- Watchdog: periodic invariant checks over the wired hub. The
        // ping closure pulls dispatchers out of their poller waits so a
        // still wakeup counter can be told apart from a genuine stall.
        let watchdog = self.watchdog.clone().map(|mut cfg| {
            if cfg.queue_saturation.is_none() {
                if let OverloadControl::Watermark { high, .. } = opts.overload_control {
                    cfg.queue_saturation = Some(high);
                }
            }
            let ping = {
                let n = notifier.clone();
                Arc::new(move || n.wake_all()) as Arc<dyn Fn() + Send + Sync>
            };
            Watchdog::spawn(cfg, diag.clone(), Some(ping))
        });

        // --- O1: dispatcher threads. ---
        let stop = Arc::new(AtomicBool::new(false));
        let next_conn_id = Arc::new(AtomicU64::new(1));
        let mut inj_channels = Vec::with_capacity(n_dispatchers);
        for _ in 0..n_dispatchers {
            inj_channels.push(std::sync::mpsc::channel());
        }
        let inj_txs: Vec<_> = inj_channels.iter().map(|(tx, _)| tx.clone()).collect();

        // The CPUs this process may run on (affinity mask, cgroup quota);
        // unknown reads as more than one.
        let cpus = std::thread::available_parallelism().map_or(usize::MAX, usize::from);
        let submit = SubmitMode::choose(opts, cpus, processor.as_ref());

        let idle_limit = opts.idle_shutdown_ms.map(Duration::from_millis);
        let stage_deadlines = opts.stage_deadlines;
        let drain = Arc::new(AtomicBool::new(false));

        let mut dispatchers = Vec::with_capacity(n_dispatchers);
        let mut listener_slot = Some(listener);
        let parts = inj_channels
            .into_iter()
            .zip(pollers.into_iter().zip(flush_rxs));
        for (index, ((_, rx), (poller, flush_rx))) in parts.enumerate() {
            let d = Dispatcher::<C, S, L> {
                index,
                engine: Arc::clone(&engine),
                listener: if index == 0 {
                    listener_slot.take()
                } else {
                    None
                },
                poller,
                inj_rx: rx,
                inj_txs: inj_txs.clone(),
                flush_rx,
                notifier: notifier.clone(),
                submit: submit.clone(),
                overload: Arc::clone(&overload),
                completion_rx: if index == 0 {
                    completion_rx.take()
                } else {
                    None
                },
                priority_policy: Arc::clone(&self.priority_policy),
                idle_limit,
                stage_deadlines,
                stop: Arc::clone(&stop),
                drain: Arc::clone(&drain),
                next_conn_id: Arc::clone(&next_conn_id),
                worker_table: Some(Arc::clone(&worker_table)),
            };
            dispatchers.push(
                std::thread::Builder::new()
                    .name(format!("nserver-dispatcher-{index}"))
                    .spawn(move || d.run())
                    .expect("spawn dispatcher"),
            );
        }

        ServerHandle {
            engine,
            processor,
            stop,
            drain,
            notifier,
            dispatchers,
            local_label,
            options: self.options,
            diag,
            watchdog,
        }
    }
}

/// A running server: owns the dispatcher threads, the Event Processor and
/// the Proactor helpers.
pub struct ServerHandle<C: Codec, S: Service<C>> {
    engine: Arc<Engine<C, S>>,
    processor: Option<Arc<EventProcessor<Work<C::Response>>>>,
    stop: Arc<AtomicBool>,
    drain: Arc<AtomicBool>,
    notifier: DispatchNotifier,
    dispatchers: Vec<JoinHandle<()>>,
    local_label: String,
    options: ServerOptions,
    diag: DiagHub,
    watchdog: Option<Watchdog>,
}

impl<C: Codec, S: Service<C>> ServerHandle<C, S> {
    /// Profiling snapshot (O11 counters are always maintained): the
    /// counters of the hub's sample, escaped handler panics included.
    pub fn stats(&self) -> StatsSnapshot {
        self.diag.sample().stats
    }

    /// The debug tracer (records only in O10 = Debug mode).
    pub fn tracer(&self) -> &DebugTracer {
        &self.engine.tracer
    }

    /// Cumulative transport-boundary syscall counts (always maintained).
    pub fn syscalls(&self) -> SyscallSnapshot {
        self.engine.syscalls.snapshot()
    }

    /// Chrome/Perfetto trace-event JSON for every trace ring wired into
    /// this server's diagnostics hub (empty ring in O10 = Production).
    pub fn perfetto_json(&self) -> String {
        self.diag.perfetto_json()
    }

    /// The latency-metrics registry (a disabled no-op when O11 = No and
    /// none was injected).
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.engine.metrics)
    }

    /// Per-stage latency snapshot (empty histograms when O11 = No).
    pub fn latency(&self) -> LatencySnapshot {
        self.engine.metrics.latency_snapshot()
    }

    /// The hub's sample in the Prometheus text exposition format (what
    /// `/server-status` serves).
    pub fn prometheus(&self) -> String {
        self.diag.prometheus()
    }

    /// The diagnostics hub every surface of this server projects.
    pub fn diag(&self) -> &DiagHub {
        &self.diag
    }

    /// Capture an on-demand diagnostic snapshot (what `/debug/snapshot`
    /// and FTP `SITE DUMP` serve).
    pub fn snapshot(&self, reason: &str) -> DiagSnapshot {
        self.diag.capture(reason)
    }

    /// Whether the watchdog (when one was configured) has ever fired.
    pub fn watchdog_fired(&self) -> bool {
        self.watchdog.as_ref().is_some_and(|w| w.has_fired())
    }

    /// Currently open connections.
    pub fn open_connections(&self) -> usize {
        self.engine.registry.read().len()
    }

    /// The address the server is listening on (e.g. `127.0.0.1:PORT`).
    pub fn local_label(&self) -> &str {
        &self.local_label
    }

    /// The options the server was generated from.
    pub fn options(&self) -> &ServerOptions {
        &self.options
    }

    /// Live Event Processor workers (0 when O2 = No).
    pub fn live_workers(&self) -> usize {
        self.processor.as_ref().map_or(0, |p| p.live_workers())
    }

    /// Graceful shutdown: stop accepting, let in-flight events finish and
    /// replies drain, then stop. Connections that have not quiesced when
    /// `deadline` expires are closed forcibly by the normal shutdown path.
    /// Returns `true` when every connection drained within the deadline.
    pub fn shutdown_graceful(self, deadline: Duration) -> bool {
        self.drain.store(true, Ordering::Relaxed);
        self.notifier.wake_all();
        let start = std::time::Instant::now();
        let mut drained = self.open_connections() == 0;
        while !drained && start.elapsed() < deadline {
            std::thread::sleep(Duration::from_millis(5));
            drained = self.open_connections() == 0;
        }
        self.shutdown();
        drained
    }

    /// Stop accepting, close every connection, drain the event queue, and
    /// join all framework threads.
    pub fn shutdown(mut self) {
        // Quiet the watchdog first so teardown (a deliberately stalled
        // world from its point of view) cannot fire spurious snapshots.
        if let Some(mut w) = self.watchdog.take() {
            w.stop();
        }
        self.stop.store(true, Ordering::Relaxed);
        // Dispatchers block in their pollers; pull each one out so it
        // sees the stop flag immediately.
        self.notifier.wake_all();
        for d in self.dispatchers.drain(..) {
            let _ = d.join();
        }
        if let Some(p) = self.processor.take() {
            p.shutdown();
        }
        // Helper pool (if any) joins when the engine drops.
    }
}
