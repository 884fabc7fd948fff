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
//! The pool itself is untyped — it runs boxed closures. The pipeline layer
//! pairs it with a typed completion channel.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::event::Priority;
use crate::queue::{BlockingQueue, FifoQueue};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed pool of helper threads executing blocking jobs, fed through
/// the same [`BlockingQueue`] the Event Processor's workers consume from.
pub struct HelperPool {
    jobs: Arc<BlockingQueue<Job>>,
    handles: Vec<JoinHandle<()>>,
    submitted: AtomicU64,
    completed: Arc<AtomicU64>,
}

impl HelperPool {
    /// Spawn `threads` helpers (≥ 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let jobs: Arc<BlockingQueue<Job>> = BlockingQueue::new(Box::new(FifoQueue::new()));
        let completed = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::with_capacity(threads);
        for i in 0..threads {
            let jobs = Arc::clone(&jobs);
            let completed = Arc::clone(&completed);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("nserver-helper-{i}"))
                    .spawn(move || {
                        // `None` only once the queue is closed and drained.
                        while let Some(job) = jobs.pop_parked() {
                            job();
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                    .expect("spawn helper thread"),
            );
        }
        Self {
            jobs,
            handles,
            submitted: AtomicU64::new(0),
            completed,
        }
    }

    /// Submit a blocking job.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.jobs.push(Box::new(job), Priority::HIGHEST);
    }

    /// Jobs submitted so far.
    pub fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Jobs finished so far.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Jobs accepted but not yet finished.
    pub fn in_flight(&self) -> u64 {
        self.submitted().saturating_sub(self.completed())
    }

    /// Helper thread count.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Finish queued jobs and join the helpers (what dropping the pool
    /// does).
    pub fn shutdown(self) {}
}

impl Drop for HelperPool {
    fn drop(&mut self) {
        // Closing lets the helpers drain what is queued, then exit.
        self.jobs.close();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
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
        assert_eq!(pool.submitted(), 10);
        pool.shutdown();
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
        pool.shutdown(); // must block until all 50 ran
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
        assert_eq!(pool.in_flight(), 1);
        block_tx.send(()).unwrap();
        while pool.in_flight() != 0 {
            std::thread::yield_now();
        }
        assert_eq!(pool.completed(), 1);
    }

    #[test]
    fn zero_thread_request_still_gets_one() {
        let pool = HelperPool::new(0);
        assert_eq!(pool.threads(), 1);
        pool.shutdown();
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
        assert_eq!(pool.submitted(), (SUBMITTERS * EACH) as u64);
        while pool.completed() < pool.submitted() {
            std::thread::yield_now();
        }
        assert_eq!(pool.in_flight(), 0);
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
