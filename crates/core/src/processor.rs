//! The Event Processor: an event queue plus a pool of worker threads.
//!
//! "An Event Processor contains an event queue and a pool of threads that
//! operate collaboratively to process ready events" — the participant the
//! N-Server adds to the Reactor pattern so the framework scales beyond one
//! CPU (option O2). It is the framework's one pool type: the Proactor's
//! helper pool ([`crate::proactor::HelperPool`]) is a static one over
//! boxed jobs.
//!
//! Worker allocation is either *static* (fixed pool, COPS-HTTP) or
//! *dynamic* (COPS-FTP) — option O5. The paper's Processor Controller is
//! two rules here, not a thread: [`EventProcessor::submit`] grows the pool
//! when the backlog outpaces it, and a worker above the minimum parks for
//! the idle keepalive and retires when the park outlasts it. A worker at
//! the minimum parks untimed, so an idle pool never wakes. A stepped
//! processor (a stepped server's, `crate::server::Stepped`) has no worker
//! at all: its queue runs when `run_queued` is called.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::diag::{WorkerRole, WorkerStateTable};
use crate::event::Priority;
use crate::options::ThreadAllocation;
use crate::queue::BlockingQueue;

/// Worker-pool event processor over an arbitrary work-item type.
pub struct EventProcessor<T: Send + 'static> {
    /// This processor, for the workers `submit` starts.
    me: Weak<Self>,
    queue: Arc<BlockingQueue<T>>,
    handler: Arc<dyn Fn(T) + Send + Sync>,
    /// The thread name of the worker started into slot `i`.
    name: fn(usize) -> String,
    /// Slots taken: reserved before a worker starts, given back by the
    /// worker itself as it leaves. The pool keeps nothing else per worker.
    live: AtomicUsize,
    panics: AtomicUsize,
    min_workers: usize,
    max_workers: usize,
    idle_keepalive: Duration,
    /// `shutdown` waits here for `live` to reach 0.
    exits: Mutex<()>,
    exited: Condvar,
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
        Self::start_named(alloc, queue, handler, worker_table, |_| {
            "nserver-worker".into()
        })
    }

    /// [`start_with_diag`](Self::start_with_diag), naming the worker
    /// started into slot `i` `name(i)`.
    pub(crate) fn start_named(
        alloc: ThreadAllocation,
        queue: Arc<BlockingQueue<T>>,
        handler: Arc<dyn Fn(T) + Send + Sync>,
        worker_table: Option<Arc<WorkerStateTable>>,
        name: fn(usize) -> String,
    ) -> Arc<Self> {
        let (min, max, keepalive_ms) = match alloc {
            ThreadAllocation::Static { threads } => (threads, threads, 0),
            ThreadAllocation::Dynamic {
                min,
                max,
                idle_keepalive_ms,
            } => (min, max, idle_keepalive_ms),
        };
        let min = min.max(1);
        let proc = Self::new(
            (min, max.max(min), keepalive_ms),
            queue,
            handler,
            worker_table,
            name,
        );
        for slot in 0..min {
            assert!(proc.spawn(slot), "spawn worker");
        }
        proc
    }

    /// A stepped processor: it starts no thread, and its maximum of 0
    /// keeps `submit` from growing it. Its items wait in the queue until
    /// [`run_queued`](Self::run_queued).
    pub(crate) fn stepped(
        queue: Arc<BlockingQueue<T>>,
        handler: Arc<dyn Fn(T) + Send + Sync>,
    ) -> Arc<Self> {
        Self::new((0, 0, 0), queue, handler, None, |_| String::new())
    }

    fn new(
        (min, max, keepalive_ms): (usize, usize, u64),
        queue: Arc<BlockingQueue<T>>,
        handler: Arc<dyn Fn(T) + Send + Sync>,
        worker_table: Option<Arc<WorkerStateTable>>,
        name: fn(usize) -> String,
    ) -> Arc<Self> {
        Arc::new_cyclic(|me| Self {
            me: me.clone(),
            queue,
            handler,
            name,
            live: AtomicUsize::new(min),
            panics: AtomicUsize::new(0),
            min_workers: min,
            max_workers: max,
            idle_keepalive: Duration::from_millis(keepalive_ms.max(1)),
            exits: Mutex::new(()),
            exited: Condvar::new(),
            worker_table,
        })
    }

    /// Run what is queued, in queue order, one item at a time, as a
    /// worker would — on a thread that is not the caller's (one scoped
    /// thread, joined before this returns) and under its panic policy.
    /// Returns how many items ran.
    pub(crate) fn run_queued(&self) -> usize {
        if self.queue.is_empty() {
            return 0;
        }
        let jobs = || std::iter::from_fn(|| self.queue.try_pop()).map(|item| self.run(item));
        std::thread::scope(|s| s.spawn(|| jobs().count()).join()).expect("a job's panic is caught")
    }

    /// Submit a work item at the given priority. Under O5 = Dynamic this is
    /// where the pool grows: while the backlog is more than twice the live
    /// workers and the pool is below its maximum, the submitting thread
    /// reserves one more slot (a compare-exchange, so concurrent
    /// submitters never pass the maximum) and starts a worker into it.
    pub fn submit(&self, item: T, prio: Priority) {
        self.queue.push(item, prio);
        let backlog = self.queue.len();
        let grown = self
            .live
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
                (live < self.max_workers && backlog > 2 * live).then_some(live + 1)
            });
        if let Ok(slot) = grown {
            self.spawn(slot);
        }
    }

    /// The processor's queue (for gauges and direct pushes).
    pub fn queue(&self) -> &Arc<BlockingQueue<T>> {
        &self.queue
    }

    /// Live worker count.
    pub fn live_workers(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Handler panics caught so far (each is isolated to its event; the
    /// worker keeps serving).
    pub fn handler_panics(&self) -> usize {
        self.panics.load(Ordering::Relaxed)
    }

    /// Close the queue and return once the workers have drained it and
    /// every one of them has left.
    pub fn shutdown(&self) {
        self.queue.close();
        let mut exits = self.exits.lock();
        while self.live.load(Ordering::Relaxed) > 0 {
            self.exited.wait(&mut exits);
        }
    }

    /// Start a worker into the reserved `slot`; the pool keeps no handle
    /// to it. A thread that cannot be had gives the slot back.
    fn spawn(&self, slot: usize) -> bool {
        let me = self.me.upgrade().expect("a processor spawns while alive");
        let spawned = std::thread::Builder::new()
            .name((self.name)(slot))
            .spawn(move || me.work());
        if spawned.is_err() {
            self.live.fetch_sub(1, Ordering::Relaxed);
        }
        spawned.is_ok()
    }

    fn work(self: Arc<Self>) {
        let _slot = Slot(&self);
        if let Some(table) = &self.worker_table {
            crate::diag::attach_worker(table, WorkerRole::Worker);
        }
        loop {
            // Only a worker above the minimum parks on a timer: a park
            // that outlasts the keepalive is what retires it.
            let next = if self.live.load(Ordering::Relaxed) > self.min_workers {
                self.queue.pop_wait(self.idle_keepalive)
            } else {
                self.queue.pop_parked()
            };
            match next {
                Some(item) => self.run(item),
                // Closed (and so drained), or a surplus worker's
                // keepalive passed.
                None if self.leave(|live| self.queue.is_closed() || live > self.min_workers) => {
                    return
                }
                None => {}
            }
        }
    }

    /// Handle one item. A panicking hook must not kill the worker (the
    /// pool would silently shrink): the panic is isolated to this event.
    fn run(&self, item: T) {
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (self.handler)(item)));
        if result.is_err() {
            self.panics.fetch_add(1, Ordering::Relaxed);
        }
        crate::diag::stamp_idle();
    }

    /// Give the calling worker's slot, and its worker-table row, back if
    /// `may(live)`.
    fn leave(&self, may: impl Fn(usize) -> bool) -> bool {
        let _exits = self.exits.lock();
        let left = self
            .live
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
                may(live).then(|| live - 1)
            })
            .is_ok();
        if left {
            crate::diag::detach_worker();
            self.exited.notify_all();
        }
        left
    }
}

/// A worker's hold on its slot: a thread that unwinds outside the
/// handler's catch (a queue discipline or drain hook that panics) still
/// gives the slot back, so `shutdown` does not wait for it.
struct Slot<'a, T: Send + 'static>(&'a EventProcessor<T>);

impl<T: Send + 'static> Drop for Slot<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.leave(|_| true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::FifoQueue;
    use crate::scheduler::PriorityQuotaQueue;
    use std::sync::mpsc::channel;
    use std::time::Instant;

    fn fifo<T: Send + 'static>() -> Arc<BlockingQueue<T>> {
        BlockingQueue::new(Box::new(FifoQueue::new()))
    }

    /// Poll `done` until it holds, for at most 5 s.
    fn settles(done: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done() {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
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
        assert_eq!(proc.live_workers(), 3, "a static pool never grows");
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
        // Flood with blocked work: no more than four items leave the
        // queue, so the backlog passes twice every size the pool takes on
        // the way to its maximum, and the submits themselves grow it.
        for i in 0..64 {
            proc.submit(i, Priority(0));
        }
        assert_eq!(proc.live_workers(), 4, "the submits grew the pool");
        // Release all blocked workers and queued items.
        for _ in 0..200 {
            gate_tx.send(()).ok();
        }
        // After the flood, surplus workers retire to the minimum.
        assert!(
            settles(|| proc.live_workers() == 1),
            "pool never shrank: {}",
            proc.live_workers()
        );
        proc.shutdown();
        assert_eq!(proc.live_workers(), 0);
    }

    #[test]
    fn retired_workers_leave_nothing_behind() {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let handler = {
            let gate = Arc::clone(&gate);
            Arc::new(move |_: u32| {
                let (open, opened) = &*gate;
                let mut open = open.lock();
                while !*open {
                    opened.wait(&mut open);
                }
            })
        };
        let proc = EventProcessor::start(
            ThreadAllocation::Dynamic {
                min: 1,
                max: 4,
                idle_keepalive_ms: 1,
            },
            fifo(),
            handler,
        );
        // Each worker holds the processor; so does this test.
        let workers = || Arc::strong_count(&proc) - 1;
        for cycle in 0..40 {
            *gate.0.lock() = false;
            for i in 0..12 {
                proc.submit(i, Priority(0));
            }
            assert_eq!(proc.live_workers(), 4, "cycle {cycle}: grown");
            *gate.0.lock() = true;
            gate.1.notify_all();
            assert!(
                settles(|| proc.live_workers() == 1 && workers() == 1),
                "cycle {cycle}: {} live, {} threads",
                proc.live_workers(),
                workers()
            );
        }
        proc.shutdown();
        assert_eq!(proc.live_workers(), 0);
        assert!(settles(|| workers() == 0), "{} threads", workers());
    }

    #[test]
    fn a_worker_that_dies_outside_its_handler_gives_its_slot_back() {
        let queue = fifo::<u32>();
        // The drain hook runs on the popping worker, outside the catch
        // around the handler.
        queue.set_drain_hook(0, || panic!("drain hook bug"));
        let proc = EventProcessor::start(
            ThreadAllocation::Static { threads: 1 },
            queue,
            Arc::new(|_: u32| {}),
        );
        proc.submit(1, Priority(0));
        assert!(settles(|| proc.live_workers() == 0), "the slot is held");
        // Returns: no worker is left to wait for.
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
    fn stepped_pool_runs_its_queue_in_order_on_one_other_thread() {
        let (tx, rx) = channel();
        let handler = Arc::new(move |i: u32| {
            tx.send((i, std::thread::current().id())).unwrap();
        });
        let proc = EventProcessor::stepped(fifo(), handler);
        for i in 0..64 {
            proc.submit(i, Priority(0));
        }
        assert_eq!(proc.live_workers(), 0, "a stepped pool never grows");
        assert!(rx.try_recv().is_err(), "nothing runs before it is asked");
        assert_eq!(proc.run_queued(), 64);
        let ran: Vec<_> = rx.try_iter().collect();
        assert_eq!(
            ran.iter().map(|r| r.0).collect::<Vec<_>>(),
            (0..64).collect::<Vec<_>>()
        );
        let thread = ran[0].1;
        assert!(thread != std::thread::current().id());
        assert!(ran.iter().all(|r| r.1 == thread), "one thread per run");
        assert_eq!(proc.run_queued(), 0);
    }

    #[test]
    fn stepped_pool_keeps_priority_order_and_survives_a_panic() {
        let q = BlockingQueue::new(Box::new(PriorityQuotaQueue::new(vec![10, 1])));
        let (tx, rx) = channel();
        let handler = Arc::new(move |s: &'static str| {
            assert_ne!(s, "boom", "a handler's bug");
            tx.send(s).unwrap();
        });
        let proc = EventProcessor::stepped(q, handler);
        proc.submit("low", Priority(1));
        proc.submit("boom", Priority(0));
        proc.submit("high", Priority(0));
        assert_eq!(proc.run_queued(), 3);
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec!["high", "low"]);
        assert_eq!(proc.handler_panics(), 1);
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
