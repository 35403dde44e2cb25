//! The counting global allocator behind the bench binaries' allocation
//! budgets.
//!
//! [`CountingAlloc`] forwards to the system allocator and counts
//! allocation events (alloc + realloc; frees are not interesting to a
//! budget). Each binary that gates a budget includes this file as its
//! `alloc` module, which installs the allocator,
//!
//! ```ignore
//! #[path = "../counting_alloc.rs"]
//! mod alloc;
//! ```
//!
//! and reads the counter with [`allocations`]. It is not a module of the
//! library, which keeps `forbid(unsafe_code)`; binaries that do not
//! include it (the experiments) keep the plain system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Passes through to the system allocator, counting every allocation.
pub struct CountingAlloc;

// SAFETY: pure pass-through to `System`; the counter has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation events counted so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}
