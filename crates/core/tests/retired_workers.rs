//! A retired worker leaves nothing behind. An O5 = Dynamic pool keeps no
//! handle to a worker it starts, so a worker that retires exits for good
//! and its stack is given back then, not at shutdown.
//!
//! It reads the process's `VmSize`, so it is the one test of its process:
//! no other test's threads move the number.

use std::sync::Arc;
use std::time::{Duration, Instant};

use nserver_core::options::ThreadAllocation;
use nserver_core::processor::EventProcessor;
use nserver_core::queue::{BlockingQueue, FifoQueue};
use nserver_core::Priority;
use parking_lot::{Condvar, Mutex};

/// The process's virtual size, kB.
fn vm_size_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmSize:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmSize")
}

/// Threads of this process named `nserver-worker`.
fn worker_threads() -> usize {
    let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task");
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == "nserver-worker")
        .count()
}

fn settles(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !done() {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

type Gate = Arc<(Mutex<bool>, Condvar)>;

/// Grow the pool to its maximum behind a closed gate, open it, and wait
/// until the surplus has retired and left.
fn cycle(proc: &Arc<EventProcessor<u32>>, gate: &Gate) {
    *gate.0.lock() = false;
    for i in 0..12 {
        proc.submit(i, Priority(0));
    }
    settles("the pool grows to 4", || proc.live_workers() == 4);
    *gate.0.lock() = true;
    gate.1.notify_all();
    settles("the surplus retires and exits", || {
        proc.live_workers() == 1 && worker_threads() == 1
    });
}

#[test]
fn retired_workers_give_their_stacks_back() {
    let gate: Gate = Arc::new((Mutex::new(false), Condvar::new()));
    let handler = {
        let gate = Arc::clone(&gate);
        Arc::new(move |_: u32| {
            let mut open = gate.0.lock();
            while !*open {
                gate.1.wait(&mut open);
            }
        })
    };
    let proc = EventProcessor::start(
        ThreadAllocation::Dynamic {
            min: 1,
            max: 4,
            idle_keepalive_ms: 1,
        },
        BlockingQueue::new(Box::new(FifoQueue::new())),
        handler,
    );
    // Warm: the allocator's per-thread arenas and the C library's cache
    // of thread stacks fill in the first cycles.
    for _ in 0..5 {
        cycle(&proc, &gate);
    }
    let before = vm_size_kb();
    for _ in 0..40 {
        cycle(&proc, &gate);
    }
    let grown = vm_size_kb().saturating_sub(before);
    // 120 workers started and retired; one kept stack would be 2 MiB.
    assert!(
        grown < 32 * 1024,
        "VmSize grew {grown} kB over 40 grow/retire cycles"
    );
    proc.shutdown();
    assert_eq!(proc.live_workers(), 0);
}
