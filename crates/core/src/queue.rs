//! Event queues: the FIFO default and the blocking wrapper the Event
//! Processor workers consume from.
//!
//! When event scheduling (O8) is enabled, the generated framework swaps the
//! plain FIFO for the [`crate::scheduler::PriorityQuotaQueue`] — the paper
//! calls out precisely this substitution as one of the crosscutting
//! structural variations the template performs.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::clock;
use crate::event::Priority;
use crate::metrics::MetricsRegistry;

/// An in-memory event queue. Implementations decide the service order;
/// callers supply a priority that FIFO queues simply ignore.
pub trait EventQueue<T>: Send {
    /// Enqueue an item at the given priority.
    fn push(&mut self, item: T, prio: Priority);
    /// Dequeue the next item according to the queue's discipline.
    fn pop(&mut self) -> Option<T>;
    /// Items currently queued.
    fn len(&self) -> usize;
    /// True when no items are queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Plain FIFO queue (O8 = No).
#[derive(Debug)]
pub struct FifoQueue<T> {
    q: VecDeque<T>,
}

impl<T> Default for FifoQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FifoQueue<T> {
    /// Empty FIFO queue.
    pub fn new() -> Self {
        Self { q: VecDeque::new() }
    }
}

impl<T: Send> EventQueue<T> for FifoQueue<T> {
    fn push(&mut self, item: T, _prio: Priority) {
        self.q.push_back(item);
    }

    fn pop(&mut self) -> Option<T> {
        self.q.pop_front()
    }

    fn len(&self) -> usize {
        self.q.len()
    }
}

/// Low-watermark value paired with the callback it triggers.
type DrainHook = (usize, Box<dyn Fn() + Send + Sync>);

/// Envelope pairing an item with its enqueue reading of [`crate::clock`].
/// The stamp travels with the item through whatever discipline the inner
/// queue applies (FIFO or priority-quota reordering), so the dequeue side
/// can attribute the exact per-item wait. The clock is only read when a
/// metrics registry is attached *and* enabled — the O11 = No hot path
/// stays clock-free and allocation-free. Only [`BlockingQueue`] constructs
/// these; the type is public solely because it names the inner queue's
/// item type in [`BlockingQueue::new`].
pub struct Stamped<T> {
    item: T,
    enqueued_at: Option<u64>,
}

/// A thread-safe blocking façade over any [`EventQueue`]: workers block on
/// `pop_wait`, the dispatcher pushes, and the overload controller (O9)
/// observes the exact queue length through a shared gauge without taking
/// the lock.
pub struct BlockingQueue<T> {
    inner: Mutex<Box<dyn EventQueue<Stamped<T>>>>,
    available: Condvar,
    len_gauge: Arc<AtomicUsize>,
    closed: Mutex<bool>,
    /// Queue-wait accounting (O11): when attached, every push stamps the
    /// enqueue instant and every pop records the enqueue→dequeue delay
    /// into the registry's queue-wait histogram.
    wait_metrics: OnceLock<Arc<MetricsRegistry>>,
    /// Workers currently parked in `pop_wait`. Maintained under the inner
    /// lock so an observer that sees a waiter knows its `notify` cannot be
    /// lost — test synchronization without sleeps.
    waiters: AtomicUsize,
    /// Fires when a pop brings the length down to the low mark; the
    /// watermark controller (O9) uses it to wake the gated acceptor the
    /// moment the backlog drains. `(low, hook)`.
    drain_hook: Mutex<Option<DrainHook>>,
    drain_armed: AtomicBool,
}

impl<T: Send + 'static> BlockingQueue<T> {
    /// Wrap a queue discipline. The discipline stores [`Stamped`]
    /// envelopes, but generic inference keeps call sites unchanged:
    /// `BlockingQueue::new(Box::new(FifoQueue::new()))` still compiles.
    pub fn new(queue: Box<dyn EventQueue<Stamped<T>>>) -> Arc<Self> {
        Arc::new(Self {
            inner: Mutex::new(queue),
            available: Condvar::new(),
            len_gauge: Arc::new(AtomicUsize::new(0)),
            closed: Mutex::new(false),
            wait_metrics: OnceLock::new(),
            waiters: AtomicUsize::new(0),
            drain_hook: Mutex::new(None),
            drain_armed: AtomicBool::new(false),
        })
    }

    /// Attach the registry whose queue-wait histogram pops record into.
    /// One-shot; later calls are ignored. A disabled registry keeps the
    /// stamping off entirely (no clock reads on push or pop).
    pub fn set_wait_metrics(&self, metrics: Arc<MetricsRegistry>) {
        let _ = self.wait_metrics.set(metrics);
    }

    fn stamp(&self) -> Option<u64> {
        match self.wait_metrics.get() {
            Some(m) if m.is_enabled() => Some(clock::now()),
            _ => None,
        }
    }

    fn record_wait(&self, enqueued_at: Option<u64>) {
        if let (Some(at), Some(m)) = (enqueued_at, self.wait_metrics.get()) {
            m.record_queue_wait(clock::us_between(at, clock::now()));
        }
    }

    /// Shared gauge mirroring the queue length (for watermark probes).
    pub fn len_gauge(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.len_gauge)
    }

    /// Workers currently blocked in [`BlockingQueue::pop_wait`].
    pub fn waiters(&self) -> usize {
        self.waiters.load(Ordering::Relaxed)
    }

    /// Install the drain notification: `hook` runs (off the queue lock)
    /// whenever a pop lowers the length to exactly `low`. Pops are
    /// serialized by the inner lock, so the length passes through every
    /// value on its way down and the crossing is never skipped.
    pub fn set_drain_hook(&self, low: usize, hook: impl Fn() + Send + Sync + 'static) {
        *self.drain_hook.lock() = Some((low, Box::new(hook)));
        self.drain_armed.store(true, Ordering::Relaxed);
    }

    fn maybe_fire_drain(&self, len: usize) {
        if !self.drain_armed.load(Ordering::Relaxed) {
            return;
        }
        let hook = self.drain_hook.lock();
        if let Some((low, f)) = hook.as_ref() {
            if len == *low {
                f();
            }
        }
    }

    /// Current queue length.
    pub fn len(&self) -> usize {
        self.len_gauge.load(Ordering::Relaxed)
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueue an item; wakes one waiting worker.
    pub fn push(&self, item: T, prio: Priority) {
        let stamped = Stamped {
            item,
            enqueued_at: self.stamp(),
        };
        let mut q = self.inner.lock();
        q.push(stamped, prio);
        self.len_gauge.store(q.len(), Ordering::Relaxed);
        drop(q);
        self.available.notify_one();
    }

    /// Take the front item, if any, off the locked queue and account for
    /// the pop (length gauge, drain hook, queue wait).
    fn take(&self, mut q: MutexGuard<'_, Box<dyn EventQueue<Stamped<T>>>>) -> Option<T> {
        let item = q.pop();
        let len = q.len();
        self.len_gauge.store(len, Ordering::Relaxed);
        drop(q);
        item.map(|s| {
            self.maybe_fire_drain(len);
            self.record_wait(s.enqueued_at);
            s.item
        })
    }

    /// Non-blocking pop.
    pub fn try_pop(&self) -> Option<T> {
        self.take(self.inner.lock())
    }

    /// Block up to `timeout` for an item. Returns `None` on timeout or when
    /// the queue has been closed and drained.
    pub fn pop_wait(&self, timeout: Duration) -> Option<T> {
        self.pop_or_park(Some(timeout))
    }

    /// Block until an item is pushed or the queue is closed and drained
    /// (`None`): a park with no tick and no clock.
    pub fn pop_parked(&self) -> Option<T> {
        self.pop_or_park(None)
    }

    fn pop_or_park(&self, timeout: Option<Duration>) -> Option<T> {
        // Read the clock only when about to wait: a pop that finds an
        // item costs none.
        let mut deadline = None;
        let mut q = self.inner.lock();
        loop {
            if !q.is_empty() {
                return self.take(q);
            }
            if *self.closed.lock() {
                return None;
            }
            // Wait on the guard we already hold: releasing and re-taking
            // the lock here would open a missed-wakeup window between the
            // emptiness check and the wait. The waiter count is bumped
            // under the same lock for the same reason: whoever observes it
            // pushes (and notifies) only after we are parked.
            self.waiters.fetch_add(1, Ordering::Relaxed);
            let timed_out = match timeout {
                Some(t) => {
                    let at = *deadline.get_or_insert_with(|| Instant::now() + t);
                    self.available.wait_until(&mut q, at).timed_out()
                }
                None => {
                    self.available.wait(&mut q);
                    false
                }
            };
            self.waiters.fetch_sub(1, Ordering::Relaxed);
            if timed_out {
                return self.take(q);
            }
        }
    }

    /// Close the queue: waiting workers wake and drain what remains, then
    /// receive `None`.
    pub fn close(&self) {
        // Under the queue lock: a worker between its closed check and its
        // wait holds that lock, so the flag is either seen by the check
        // or set after the worker is parked where `notify_all` finds it.
        // An untimed park has no tick to recover a notification lost in
        // between.
        let q = self.inner.lock();
        *self.closed.lock() = true;
        drop(q);
        self.available.notify_all();
    }

    /// Whether the queue has been closed.
    pub fn is_closed(&self) -> bool {
        *self.closed.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_preserves_order() {
        let mut q = FifoQueue::new();
        for i in 0..10 {
            q.push(i, Priority(0));
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn fifo_ignores_priority() {
        let mut q = FifoQueue::new();
        q.push("low", Priority(9));
        q.push("high", Priority(0));
        assert_eq!(q.pop(), Some("low"));
    }

    #[test]
    fn blocking_queue_push_pop() {
        let q = BlockingQueue::new(Box::new(FifoQueue::new()));
        q.push(1, Priority(0));
        q.push(2, Priority(0));
        assert_eq!(q.len(), 2);
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.pop_wait(Duration::from_millis(1)), Some(2));
        assert_eq!(q.len(), 0);
        assert_eq!(q.pop_wait(Duration::from_millis(1)), None);
    }

    /// Deterministic replacement for the old sleep-and-hope: the waiter
    /// gauge is bumped under the queue lock, so once it reads 1 the worker
    /// is parked (or about to re-check with the notification pending).
    fn await_waiter<T: Send + 'static>(q: &BlockingQueue<T>) {
        while q.waiters() == 0 {
            thread::yield_now();
        }
    }

    #[test]
    fn blocking_queue_wakes_waiter() {
        let q = BlockingQueue::new(Box::new(FifoQueue::new()));
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.pop_wait(Duration::from_secs(5)));
        await_waiter(&q);
        q.push(42, Priority(0));
        assert_eq!(h.join().unwrap(), Some(42));
    }

    #[test]
    fn close_releases_waiters() {
        let q: Arc<BlockingQueue<i32>> = BlockingQueue::new(Box::new(FifoQueue::new()));
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.pop_wait(Duration::from_secs(5)));
        await_waiter(&q);
        q.close();
        assert_eq!(h.join().unwrap(), None);
        assert!(q.is_closed());
        assert_eq!(q.waiters(), 0);
    }

    #[test]
    fn parked_pop_returns_on_push_and_on_close() {
        let q: Arc<BlockingQueue<i32>> = BlockingQueue::new(Box::new(FifoQueue::new()));
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || (q2.pop_parked(), q2.pop_parked()));
        await_waiter(&q);
        q.push(7, Priority(0));
        // Parked again, with no tick to fall back on: only the close
        // can release it.
        while !q.is_empty() || q.waiters() == 0 {
            thread::yield_now();
        }
        q.close();
        assert_eq!(h.join().unwrap(), (Some(7), None));
    }

    #[test]
    fn drain_hook_fires_on_low_mark_crossing() {
        let q = BlockingQueue::new(Box::new(FifoQueue::new()));
        let fired = Arc::new(AtomicUsize::new(0));
        let f = Arc::clone(&fired);
        q.set_drain_hook(1, move || {
            f.fetch_add(1, Ordering::Relaxed);
        });
        for i in 0..3 {
            q.push(i, Priority(0));
        }
        assert_eq!(q.try_pop(), Some(0)); // 3 -> 2: no fire
        assert_eq!(fired.load(Ordering::Relaxed), 0);
        assert_eq!(q.try_pop(), Some(1)); // 2 -> 1: fire
        assert_eq!(fired.load(Ordering::Relaxed), 1);
        assert_eq!(q.try_pop(), Some(2)); // 1 -> 0: no fire (already low)
        assert_eq!(fired.load(Ordering::Relaxed), 1);
        // Refill above the mark and drain through pop_wait too.
        q.push(9, Priority(0));
        q.push(10, Priority(0));
        assert_eq!(q.pop_wait(Duration::from_millis(10)), Some(9));
        assert_eq!(fired.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn close_still_drains_pending_items() {
        let q = BlockingQueue::new(Box::new(FifoQueue::new()));
        q.push(7, Priority(0));
        q.close();
        assert_eq!(q.pop_wait(Duration::from_millis(1)), Some(7));
        assert_eq!(q.pop_wait(Duration::from_millis(1)), None);
    }

    #[test]
    fn len_gauge_tracks_length() {
        let q = BlockingQueue::new(Box::new(FifoQueue::new()));
        let gauge = q.len_gauge();
        q.push(1, Priority(0));
        q.push(2, Priority(0));
        assert_eq!(gauge.load(Ordering::Relaxed), 2);
        q.try_pop();
        assert_eq!(gauge.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn attached_metrics_record_queue_wait() {
        let q = BlockingQueue::new(Box::new(FifoQueue::new()));
        let m = MetricsRegistry::enabled();
        q.set_wait_metrics(Arc::clone(&m));
        q.push(1, Priority(0));
        q.push(2, Priority(0));
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.pop_wait(Duration::from_millis(5)), Some(2));
        let lat = m.latency_snapshot();
        assert_eq!(lat.queue_wait.count, 2, "both pops must record a wait");
    }

    #[test]
    fn disabled_metrics_record_no_queue_wait() {
        let q = BlockingQueue::new(Box::new(FifoQueue::new()));
        let m = MetricsRegistry::disabled();
        q.set_wait_metrics(Arc::clone(&m));
        q.push(1, Priority(0));
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(m.latency_snapshot().queue_wait.count, 0);
        assert_eq!(m.samples_recorded(), 0, "O11=No pin: zero samples");
    }

    #[test]
    fn concurrent_producers_consumers_deliver_everything() {
        let q = BlockingQueue::new(Box::new(FifoQueue::new()));
        let mut producers = Vec::new();
        for p in 0..4 {
            let q = Arc::clone(&q);
            producers.push(thread::spawn(move || {
                for i in 0..250 {
                    q.push(p * 1000 + i, Priority(0));
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..2 {
            let q = Arc::clone(&q);
            consumers.push(thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop_wait(Duration::from_millis(200)) {
                    got.push(v);
                }
                got
            }));
        }
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<i32> = Vec::new();
        for c in consumers {
            all.extend(c.join().unwrap());
        }
        assert_eq!(all.len(), 1000);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 1000, "duplicate or lost items");
    }
}
