//! Allocation pin for the O11 = No / disabled-diagnostics hot path.
//!
//! The worker-state stamps and the queue-wait accounting ride the
//! per-event hot path, so their disabled forms must be free: zero heap
//! allocations per stamp and per queue push/pop once the structures are
//! warm. The support crate's counting `#[global_allocator]` (installed
//! in this binary) measures the steady state directly; any accidental
//! `String`, boxed closure or `Vec` growth on the disabled path fails the
//! pin.

use nserver_core::diag::{attach_worker, stamp_idle, stamp_stage, WorkerRole, WorkerStateTable};
use nserver_core::event::Priority;
use nserver_core::metrics::{MetricsRegistry, Stage};
use nserver_core::queue::{BlockingQueue, FifoQueue};
use nserver_integration_tests::{allocations_during, CountingAlloc};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Worker-table stamping is allocation-free after attach: a thousand
/// stage/idle stamp pairs perform zero heap allocations. This is the
/// cost contract that lets the stamps ride the per-event hot path even
/// in production mode.
#[test]
fn worker_state_stamps_do_not_allocate() {
    let table = WorkerStateTable::new(4);
    assert!(attach_worker(&table, WorkerRole::Worker));
    // Warm the thread-local attachment and the seqlock row.
    stamp_stage(Stage::Handle, 1);
    stamp_idle();

    let allocs = allocations_during(|| {
        for i in 0..1_000u64 {
            stamp_stage(Stage::Handle, i);
            stamp_idle();
        }
    });
    nserver_core::diag::detach_worker();
    assert_eq!(allocs, 0, "worker stamps allocated on the hot path");
}

/// With a disabled metrics registry attached (O11 = No), queue push/pop
/// is allocation-free in steady state: the `Stamped` envelope carries
/// `None`, no clock is read, and the warm ring never grows.
#[test]
fn disabled_queue_wait_accounting_does_not_allocate() {
    let queue: std::sync::Arc<BlockingQueue<u64>> = BlockingQueue::new(Box::new(FifoQueue::new()));
    queue.set_wait_metrics(MetricsRegistry::disabled());
    // Warm the VecDeque past the steady-state occupancy.
    for i in 0..16 {
        queue.push(i, Priority::HIGHEST);
    }
    while queue.try_pop().is_some() {}

    let allocs = allocations_during(|| {
        for i in 0..1_000u64 {
            queue.push(i, Priority::HIGHEST);
            assert_eq!(queue.try_pop(), Some(i));
        }
    });
    assert_eq!(
        allocs, 0,
        "disabled queue-wait accounting allocated per event"
    );
}
