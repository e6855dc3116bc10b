//! A counting global allocator, switched on only around traced calls.
//!
//! While counting is off (every untraced run) an allocation costs one
//! relaxed load of a flag nobody writes, so the end-to-end figures do not
//! pay for the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// [`System`], counting `alloc`, `alloc_zeroed` and `realloc` calls while
/// counting is on.
pub struct CountingAlloc;

#[inline]
fn note() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Run `f` with counting on; returns its result and the allocations made
/// meanwhile (exact when no other thread allocates).
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    COUNTING.store(true, Ordering::Relaxed);
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    let n = ALLOCS.load(Ordering::Relaxed) - before;
    COUNTING.store(false, Ordering::Relaxed);
    (out, n)
}
