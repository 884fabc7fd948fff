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

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Sender};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed pool of helper threads executing blocking jobs.
pub struct HelperPool {
    tx: Option<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    submitted: Arc<AtomicU64>,
    completed: Arc<AtomicU64>,
    shutting_down: Arc<AtomicBool>,
}

impl HelperPool {
    /// Spawn `threads` helpers (≥ 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (tx, rx) = unbounded::<Job>();
        let completed = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::with_capacity(threads);
        for i in 0..threads {
            let rx = rx.clone();
            let completed = Arc::clone(&completed);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("nserver-helper-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            job();
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                    .expect("spawn helper thread"),
            );
        }
        Self {
            tx: Some(tx),
            handles,
            submitted: Arc::new(AtomicU64::new(0)),
            completed,
            shutting_down: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Submit a blocking job. Jobs submitted after shutdown are dropped.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        if self.shutting_down.load(Ordering::Relaxed) {
            return;
        }
        if let Some(tx) = &self.tx {
            self.submitted.fetch_add(1, Ordering::Relaxed);
            let _ = tx.send(Box::new(job));
        }
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

    /// Finish queued jobs and join the helpers.
    pub fn shutdown(mut self) {
        self.shutting_down.store(true, Ordering::Relaxed);
        self.tx.take(); // close the channel; helpers drain and exit
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for HelperPool {
    fn drop(&mut self) {
        self.shutting_down.store(true, Ordering::Relaxed);
        self.tx.take();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use std::time::Duration;

    #[test]
    fn jobs_run_and_complete() {
        let pool = HelperPool::new(2);
        let (tx, rx) = unbounded();
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
        let (tx, rx) = unbounded();
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
        let (started_tx, started_rx) = unbounded::<()>();
        let (block_tx, block_rx) = unbounded::<()>();
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
        let (tx, rx) = unbounded();
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
}
