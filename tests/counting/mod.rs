//! A counting global allocator for the allocation tests. A test binary
//! that declares this module counts every byte any of its threads asks
//! for — the volume's device workers included — so each such test sits
//! alone in its binary: nothing else may be allocating while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes requested from the allocator so far, by any thread.
static REQUESTED: AtomicU64 = AtomicU64::new(0);

/// Bytes requested from the allocator so far, by any thread.
pub fn requested() -> u64 {
    // A statistic: read only after the threads it counts have gone idle.
    REQUESTED.load(Ordering::Relaxed)
}

struct Counting;

fn count(bytes: usize) {
    // A statistic: read only after the threads it counts have gone idle.
    REQUESTED.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; counting touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;
