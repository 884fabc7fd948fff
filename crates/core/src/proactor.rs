//! Proactor emulation: a helper thread pool for blocking operations.
//!
//! Event-driven concurrency requires non-blocking operations, but — as the
//! paper notes for Java's missing non-blocking file I/O — the OS rarely
//! provides them for everything. The N-Server therefore "emulates the
//! existence of non-blocking events": a blocking operation is shipped to a
//! helper pool; on completion, a Completion Event carrying an Asynchronous
//! Completion Token re-enters the framework (the Proactor + ACT patterns,
//! references \[10\] and \[11\]).
//!
//! The pool is an [`EventProcessor`] — a static one over a FIFO queue of
//! boxed closures, whose handler runs the job and counts it — so it parks,
//! drains and survives a panicking job as the Event Processor's workers
//! do. The pipeline layer pairs it with a typed completion channel and
//! gives a job that panics the O4 = Synchronous outcome (`Engine::defer`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::event::Priority;
use crate::options::ThreadAllocation;
use crate::processor::EventProcessor;
use crate::queue::{BlockingQueue, FifoQueue};

type Job = Box<dyn FnOnce() + Send + 'static>;
type Handler = Arc<dyn Fn(Job) + Send + Sync>;

/// A fixed pool of helper threads executing blocking jobs.
pub struct HelperPool {
    pool: Arc<EventProcessor<Job>>,
    completed: Arc<AtomicU64>,
}

impl HelperPool {
    /// Start `threads` helpers (≥ 1), named `nserver-helper-{i}`.
    pub fn new(threads: usize) -> Self {
        Self::over(|queue, handler| {
            let helpers = ThreadAllocation::Static { threads };
            EventProcessor::start_named(helpers, queue, handler, None, |i| {
                format!("nserver-helper-{i}")
            })
        })
    }

    /// A stepped pool: no helper thread; [`run_queued`](Self::run_queued)
    /// runs the jobs.
    pub(crate) fn stepped() -> Self {
        Self::over(EventProcessor::stepped)
    }

    fn over(
        start: impl FnOnce(Arc<BlockingQueue<Job>>, Handler) -> Arc<EventProcessor<Job>>,
    ) -> Self {
        let completed = Arc::new(AtomicU64::new(0));
        let done = Arc::clone(&completed);
        let pool = start(
            BlockingQueue::new(Box::new(FifoQueue::new())),
            Arc::new(move |job: Job| {
                job();
                done.fetch_add(1, Ordering::Relaxed);
            }),
        );
        Self { pool, completed }
    }

    /// Run the queued jobs (a stepped pool). Returns how many ran.
    pub(crate) fn run_queued(&self) -> usize {
        self.pool.run_queued()
    }

    /// Submit a blocking job.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        self.pool.submit(Box::new(job), Priority::HIGHEST);
    }

    /// Jobs finished so far.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }
}

impl Drop for HelperPool {
    /// Run what is queued, then return once every helper has left.
    fn drop(&mut self) {
        self.pool.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::time::Duration;

    #[test]
    fn jobs_run_and_complete() {
        let pool = HelperPool::new(2);
        let (tx, rx) = channel();
        for i in 0..10 {
            let tx = tx.clone();
            pool.submit(move || tx.send(i).unwrap());
        }
        let mut got: Vec<i32> = (0..10)
            .map(|_| rx.recv_timeout(Duration::from_secs(2)).unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        while pool.completed() < 10 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn shutdown_drains_pending_jobs() {
        let pool = HelperPool::new(1);
        let (tx, rx) = channel();
        for i in 0..50 {
            let tx = tx.clone();
            pool.submit(move || {
                std::thread::sleep(Duration::from_micros(100));
                tx.send(i).unwrap();
            });
        }
        drop(pool); // must block until all 50 ran
        assert_eq!(rx.try_iter().count(), 50);
    }

    #[test]
    fn in_flight_accounting() {
        let pool = HelperPool::new(1);
        let (started_tx, started_rx) = channel::<()>();
        let (block_tx, block_rx) = channel::<()>();
        pool.submit(move || {
            started_tx.send(()).unwrap();
            let _ = block_rx.recv_timeout(Duration::from_secs(5));
        });
        // Deterministic handshake: the job itself tells us it is running.
        started_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("job started");
        assert_eq!(pool.completed(), 0, "a running job is not complete");
        block_tx.send(()).unwrap();
        while pool.completed() != 1 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn zero_thread_request_still_gets_one() {
        let pool = HelperPool::new(0);
        assert_eq!(pool.pool.live_workers(), 1);
    }

    #[test]
    fn a_panicking_job_does_not_kill_its_helper() {
        let pool = HelperPool::new(1);
        pool.submit(|| panic!("a job's bug"));
        let (tx, rx) = channel();
        pool.submit(move || tx.send(()).unwrap());
        rx.recv_timeout(Duration::from_secs(5))
            .expect("the one helper ran the next job");
        assert_eq!(pool.pool.handler_panics(), 1);
        assert_eq!(pool.pool.live_workers(), 1);
    }

    #[test]
    fn stepped_helpers_run_jobs_only_when_asked() {
        let pool = HelperPool::stepped();
        let (tx, rx) = channel();
        for i in 0..3 {
            let tx = tx.clone();
            pool.submit(move || tx.send(i).unwrap());
        }
        assert_eq!((pool.completed(), pool.pool.live_workers()), (0, 0));
        assert_eq!(pool.run_queued(), 3);
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(pool.completed(), 3);
    }

    #[test]
    fn drop_joins_helpers() {
        let (tx, rx) = channel();
        {
            let pool = HelperPool::new(2);
            for _ in 0..5 {
                let tx = tx.clone();
                pool.submit(move || tx.send(()).unwrap());
            }
            // Dropped here; drop must join after draining.
        }
        assert_eq!(rx.try_iter().count(), 5);
    }

    #[test]
    fn jobs_from_several_threads_each_run_exactly_once() {
        const SUBMITTERS: usize = 4;
        const EACH: usize = 250;
        let pool = HelperPool::new(3);
        let runs: Arc<Vec<AtomicU64>> =
            Arc::new((0..SUBMITTERS * EACH).map(|_| AtomicU64::new(0)).collect());
        std::thread::scope(|s| {
            for t in 0..SUBMITTERS {
                let (pool, runs) = (&pool, &runs);
                s.spawn(move || {
                    for i in 0..EACH {
                        let runs = Arc::clone(runs);
                        pool.submit(move || {
                            runs[t * EACH + i].fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        while pool.completed() < (SUBMITTERS * EACH) as u64 {
            std::thread::yield_now();
        }
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn drop_runs_what_is_queued_before_joining() {
        let (gate_tx, gate_rx) = channel::<()>();
        let ran = Arc::new(AtomicU64::new(0));
        let pool = HelperPool::new(1);
        // The only helper is held inside the first job, so the other 20
        // are still queued when the pool is dropped.
        pool.submit(move || gate_rx.recv().expect("the gate opens"));
        for _ in 0..20 {
            let ran = Arc::clone(&ran);
            pool.submit(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(pool.completed(), 0);
        gate_tx.send(()).unwrap();
        drop(pool);
        assert_eq!(ran.load(Ordering::Relaxed), 20);
    }
}
