//! A counting global allocator: the most heap bytes live at once.
//!
//! The process's resident high-water mark moved by up to 8% between runs
//! of the same work, with glibc's free lists deciding how much freed
//! memory stays resident. Live heap bytes depend only on what the program
//! allocates, so their peak repeats to a few kilobytes.
//!
//! The workload thread counts with plain loads and stores, so counting
//! costs it no locked instruction; the few other threads (the libraries'
//! parallel PathDb builds) count atomically into a second total.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

/// Forwards to [`System`], counting live bytes and their peak.
pub struct Counting;

// Statistics only: no other data is published through these, so
// `Relaxed` suffices.
/// Live bytes allocated minus freed by the workload thread; written by
/// that thread alone.
static MINE: AtomicIsize = AtomicIsize::new(0);
/// Live bytes allocated minus freed by every other thread.
static OTHERS: AtomicIsize = AtomicIsize::new(0);
/// The largest `MINE + OTHERS` seen.
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    static WORKLOAD_THREAD: Cell<bool> = const { Cell::new(false) };
    static PAUSED: Cell<bool> = const { Cell::new(false) };
}

/// Marks the calling thread as the workload thread.
pub fn count_this_thread() {
    WORKLOAD_THREAD.set(true);
}

/// Runs `f` with this thread's allocations left out of the count: the
/// benchmark's own latency record, which grows with the number of
/// operations and so with the host's speed. Freeing such memory later
/// still subtracts it, so the live count then reads low; the benchmark
/// reads the peak before it frees its record.
pub fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    PAUSED.set(true);
    let r = f();
    PAUSED.set(false);
    r
}

fn change(delta: isize) {
    if PAUSED.get() {
        return;
    }
    let live = if WORKLOAD_THREAD.get() {
        let mine = MINE.load(Relaxed) + delta;
        MINE.store(mine, Relaxed);
        mine + OTHERS.load(Relaxed)
    } else {
        OTHERS.fetch_add(delta, Relaxed) + delta + MINE.load(Relaxed)
    };
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `alloc` pass through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            change(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `alloc_zeroed` pass through.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            change(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's guarantees for `dealloc` pass through.
        unsafe { System.dealloc(ptr, layout) };
        change(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's guarantees for `realloc` pass through.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            change(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// The most heap bytes live at once so far, in MB.
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Relaxed) as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_covers_a_large_allocation() {
        let v = vec![1u8; 64 << 20];
        assert!(peak_heap_mb() >= v.len() as f64 / 1e6);
        drop(v);
        assert!(peak_heap_mb() >= 64.0 * 1.048_576);
    }

    #[test]
    fn uncounted_allocations_leave_the_peak_alone() {
        // Reserved but never touched, so it costs address space only.
        let v: Vec<u8> = uncounted(|| Vec::with_capacity(1 << 30));
        assert!(peak_heap_mb() < 1e3, "{}", peak_heap_mb());
        uncounted(|| drop(v));
    }
}
