//! The Event Processor: an event queue plus a pool of worker threads.
//!
//! "An Event Processor contains an event queue and a pool of threads that
//! operate collaboratively to process ready events" — the participant the
//! N-Server adds to the Reactor pattern so the framework scales beyond one
//! CPU (option O2). Worker allocation is either *static* (fixed pool,
//! COPS-HTTP) or *dynamic* (a Processor Controller grows the pool under
//! backlog and retires idle surplus workers, COPS-FTP) — option O5.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::diag::{WorkerRole, WorkerStateTable};
use crate::event::Priority;
use crate::options::ThreadAllocation;
use crate::queue::BlockingQueue;

/// Worker-pool event processor over an arbitrary work-item type.
pub struct EventProcessor<T: Send + 'static> {
    queue: Arc<BlockingQueue<T>>,
    handler: Arc<dyn Fn(T) + Send + Sync>,
    live: Arc<AtomicUsize>,
    peak: Arc<AtomicUsize>,
    panics: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    min_workers: usize,
    max_workers: usize,
    idle_keepalive: Duration,
    workers: Mutex<Vec<JoinHandle<()>>>,
    controller: Mutex<Option<JoinHandle<()>>>,
    /// Diagnostics: when present, every worker registers a slot and
    /// stamps idle between events (stage stamps happen inside the
    /// pipeline, which knows the stage and connection).
    worker_table: Option<Arc<WorkerStateTable>>,
}

impl<T: Send + 'static> EventProcessor<T> {
    /// Start a processor draining `queue` with the given allocation policy;
    /// every popped item is passed to `handler`.
    pub fn start(
        alloc: ThreadAllocation,
        queue: Arc<BlockingQueue<T>>,
        handler: Arc<dyn Fn(T) + Send + Sync>,
    ) -> Arc<Self> {
        Self::start_with_diag(alloc, queue, handler, None)
    }

    /// [`start`](Self::start) with an optional worker state table for the
    /// diagnostics subsystem.
    pub fn start_with_diag(
        alloc: ThreadAllocation,
        queue: Arc<BlockingQueue<T>>,
        handler: Arc<dyn Fn(T) + Send + Sync>,
        worker_table: Option<Arc<WorkerStateTable>>,
    ) -> Arc<Self> {
        let (min, max, keepalive) = match alloc {
            ThreadAllocation::Static { threads } => {
                let t = threads.max(1);
                (t, t, Duration::from_secs(3600))
            }
            ThreadAllocation::Dynamic {
                min,
                max,
                idle_keepalive_ms,
            } => (
                min.max(1),
                max.max(min.max(1)),
                Duration::from_millis(idle_keepalive_ms.max(1)),
            ),
        };
        let proc = Arc::new(Self {
            queue,
            handler,
            live: Arc::new(AtomicUsize::new(0)),
            peak: Arc::new(AtomicUsize::new(0)),
            panics: Arc::new(AtomicUsize::new(0)),
            stop: Arc::new(AtomicBool::new(false)),
            min_workers: min,
            max_workers: max,
            idle_keepalive: keepalive,
            workers: Mutex::new(Vec::new()),
            controller: Mutex::new(None),
            worker_table,
        });
        for _ in 0..min {
            proc.spawn_worker();
        }
        if max > min {
            proc.spawn_controller();
        }
        proc
    }

    /// Submit a work item at the given priority.
    pub fn submit(&self, item: T, prio: Priority) {
        self.queue.push(item, prio);
    }

    /// The processor's queue (for gauges and direct pushes).
    pub fn queue(&self) -> &Arc<BlockingQueue<T>> {
        &self.queue
    }

    /// Live worker count.
    pub fn live_workers(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// High-water mark of the worker count.
    pub fn peak_workers(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Handler panics caught so far (each is isolated to its event; the
    /// worker keeps serving).
    pub fn handler_panics(&self) -> usize {
        self.panics.load(Ordering::Relaxed)
    }

    /// Drain the queue, stop workers and the controller, and join them.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.queue.close();
        if let Some(c) = self.controller.lock().take() {
            let _ = c.join();
        }
        let handles: Vec<_> = self.workers.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }

    fn spawn_worker(self: &Arc<Self>) {
        let me = Arc::clone(self);
        let prev = self.live.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(prev, Ordering::Relaxed);
        let handle = std::thread::Builder::new()
            .name("nserver-worker".into())
            .spawn(move || me.worker_loop())
            .expect("spawn worker");
        self.workers.lock().push(handle);
    }

    fn worker_loop(self: Arc<Self>) {
        if let Some(table) = &self.worker_table {
            crate::diag::attach_worker(table, WorkerRole::Worker);
        }
        // Only a worker the Processor Controller may retire (O5 =
        // Dynamic) keeps an idle clock and wakes on a tick to read it; a
        // static pool's worker parks until pushed or closed.
        let retirable = self.max_workers > self.min_workers;
        let mut idle_since = Instant::now();
        loop {
            let next = if retirable {
                self.queue.pop_wait(Duration::from_millis(20))
            } else {
                self.queue.pop_parked()
            };
            match next {
                Some(item) => {
                    // A panicking hook must not kill the worker (the pool
                    // would silently shrink); isolate it to this event.
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        (self.handler)(item)
                    }));
                    if result.is_err() {
                        self.panics.fetch_add(1, Ordering::Relaxed);
                    }
                    crate::diag::stamp_idle();
                    if retirable {
                        idle_since = Instant::now();
                    }
                }
                None => {
                    if self.stop.load(Ordering::Relaxed) && self.queue.is_empty() {
                        break;
                    }
                    // Dynamic retirement: surplus workers exit after staying
                    // idle past the keepalive (the Processor Controller's
                    // shrink half).
                    if idle_since.elapsed() >= self.idle_keepalive {
                        let live = self.live.load(Ordering::Relaxed);
                        if live > self.min_workers
                            && self
                                .live
                                .compare_exchange(
                                    live,
                                    live - 1,
                                    Ordering::Relaxed,
                                    Ordering::Relaxed,
                                )
                                .is_ok()
                        {
                            crate::diag::detach_worker();
                            return; // retire without decrementing again
                        }
                    }
                }
            }
        }
        crate::diag::detach_worker();
        self.live.fetch_sub(1, Ordering::Relaxed);
    }

    fn spawn_controller(self: &Arc<Self>) {
        let me = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name("nserver-proc-controller".into())
            .spawn(move || {
                while !me.stop.load(Ordering::Relaxed) {
                    let backlog = me.queue.len();
                    let live = me.live.load(Ordering::Relaxed);
                    // Grow when the backlog outpaces the pool.
                    if backlog > live * 2 && live < me.max_workers {
                        me.spawn_worker();
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
            .expect("spawn controller");
        *self.controller.lock() = Some(handle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::FifoQueue;
    use crate::scheduler::PriorityQuotaQueue;
    use std::sync::mpsc::channel;

    fn fifo<T: Send + 'static>() -> Arc<BlockingQueue<T>> {
        BlockingQueue::new(Box::new(FifoQueue::new()))
    }

    #[test]
    fn static_pool_processes_everything() {
        let (tx, rx) = channel();
        let handler = Arc::new(move |i: u32| {
            tx.send(i).unwrap();
        });
        let proc = EventProcessor::start(ThreadAllocation::Static { threads: 3 }, fifo(), handler);
        assert_eq!(proc.live_workers(), 3);
        for i in 0..100 {
            proc.submit(i, Priority(0));
        }
        let mut got: Vec<u32> = (0..100)
            .map(|_| rx.recv_timeout(Duration::from_secs(2)).unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        proc.shutdown();
        assert_eq!(proc.live_workers(), 0);
    }

    #[test]
    fn shutdown_drains_queue_first() {
        let (tx, rx) = channel();
        let handler = Arc::new(move |i: u32| {
            std::thread::sleep(Duration::from_micros(200));
            tx.send(i).unwrap();
        });
        let proc = EventProcessor::start(ThreadAllocation::Static { threads: 1 }, fifo(), handler);
        for i in 0..50 {
            proc.submit(i, Priority(0));
        }
        proc.shutdown();
        assert_eq!(rx.try_iter().count(), 50);
    }

    #[test]
    fn dynamic_pool_grows_under_backlog() {
        let (gate_tx, gate_rx) = channel::<()>();
        let gate_rx = Arc::new(Mutex::new(gate_rx));
        let handler = {
            let gate_rx = Arc::clone(&gate_rx);
            Arc::new(move |_: u32| {
                let _ = gate_rx.lock().recv_timeout(Duration::from_secs(2));
            })
        };
        let proc = EventProcessor::start(
            ThreadAllocation::Dynamic {
                min: 1,
                max: 4,
                idle_keepalive_ms: 10,
            },
            fifo(),
            handler,
        );
        assert_eq!(proc.live_workers(), 1);
        // Flood with blocked work so backlog forces growth.
        for i in 0..64 {
            proc.submit(i, Priority(0));
        }
        let mut grew = false;
        for _ in 0..400 {
            if proc.live_workers() >= 2 {
                grew = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(grew, "controller never grew the pool");
        assert!(proc.peak_workers() >= 2);
        // Release all blocked workers and queued items.
        for _ in 0..200 {
            gate_tx.send(()).ok();
        }
        // After the flood, surplus workers retire toward min.
        let mut shrank = false;
        for _ in 0..500 {
            if proc.live_workers() <= 2 {
                shrank = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(shrank, "pool never shrank: {}", proc.live_workers());
        proc.shutdown();
    }

    #[test]
    fn priority_queue_discipline_reaches_workers() {
        // Single worker + pre-filled priority queue: high priority first.
        let q: Arc<BlockingQueue<&'static str>> =
            BlockingQueue::new(Box::new(PriorityQuotaQueue::new(vec![10, 1])));
        q.push("low", Priority(1));
        q.push("high", Priority(0));
        let (tx, rx) = channel();
        let handler = Arc::new(move |s: &'static str| {
            tx.send(s).unwrap();
        });
        let proc = EventProcessor::start(ThreadAllocation::Static { threads: 1 }, q, handler);
        let first = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        let second = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!((first, second), ("high", "low"));
        proc.shutdown();
    }

    #[test]
    fn queue_len_gauge_visible_through_processor() {
        let proc = EventProcessor::start(
            ThreadAllocation::Static { threads: 1 },
            fifo::<u32>(),
            Arc::new(|_i: u32| {
                std::thread::sleep(Duration::from_millis(5));
            }),
        );
        let gauge = proc.queue().len_gauge();
        for i in 0..20 {
            proc.submit(i, Priority(0));
        }
        // Some backlog should be observable.
        let mut saw_backlog = false;
        for _ in 0..100 {
            if gauge.load(Ordering::Relaxed) > 0 {
                saw_backlog = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(saw_backlog);
        proc.shutdown();
    }
}
