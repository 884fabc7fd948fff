//! Integration-test support crate: what more than one test binary uses.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// The system allocator, counting the allocations (and reallocations) a
/// thread makes inside [`allocations_during`]. A test binary that pins an
/// allocation count installs it:
/// `#[global_allocator] static ALLOCATOR: CountingAlloc = CountingAlloc;`
pub struct CountingAlloc;

thread_local! {
    /// Set on the measuring thread only, for the measured window only:
    /// libtest starts the other tests' threads whenever it likes, and
    /// their start-up allocations are not the measured path's.
    /// Const-initialised and without a destructor, so reading it from
    /// inside the allocator neither allocates nor registers anything.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Whether the calling thread is inside a measured window (false once
/// its thread-locals are being torn down).
fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counting touches only an atomic and a
// const-initialised thread-local, so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Count the calling thread's allocations across `f`. The counter is
/// global, so measurements take turns.
pub fn allocations_during(f: impl FnOnce()) -> u64 {
    static SERIAL: Mutex<()> = Mutex::new(());
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.load(Ordering::SeqCst)
}
