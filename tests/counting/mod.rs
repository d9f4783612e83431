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

/// Wait until every other thread of the process is asleep. A thread
/// may allocate when it first runs: a volume's device workers sleep on
/// their empty queues as soon as they start, but on a loaded machine
/// the scheduler may not run one until the window being counted, whose
/// total would then include its start-up. The same holds for libtest's
/// main thread, which spawns the test and then waits for its outcome on
/// a channel (a first wait there allocates its wait context, 48 bytes,
/// once). Call it after the warm-up, before taking the count.
pub fn settle() {
    let me = std::fs::read_link("/proc/thread-self").expect("/proc/thread-self");
    let asleep = |task: &std::path::Path| {
        // A thread that has exited since the listing is asleep enough.
        let stat = std::fs::read_to_string(task.join("stat")).unwrap_or_default();
        let state = stat.rsplit(')').next().unwrap_or("").trim_start();
        state.is_empty() || state.starts_with(['S', 'Z', 'X'])
    };
    let guard = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task");
        let others = tasks.filter_map(|t| t.ok()).map(|t| t.path());
        let mut others = others.filter(|t| t.file_name() != me.file_name());
        if others.all(|t| asleep(&t)) {
            return;
        }
        assert!(
            std::time::Instant::now() < guard,
            "the rig's threads never went idle"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
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
