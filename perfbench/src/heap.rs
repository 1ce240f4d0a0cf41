//! The benchmark's global allocator: the system allocator, counting the
//! bytes the process holds, so that `peak_heap_mb` is the program's own
//! peak and not the allocator's retention (RSS keeps freed pages that glibc
//! has not returned, so it ratchets up across the segments of a run).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Bytes held now.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Most bytes held since the start or the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// [`System`], counting what it hands out.
pub struct Counting;

fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Relaxed) + by;
    // A load first keeps the shared peak's cache line read-only while the
    // holding does not grow past it.
    if now > PEAK.load(Relaxed) {
        PEAK.fetch_max(now, Relaxed);
    }
}

fn shrank(by: usize) {
    LIVE.fetch_sub(by, Relaxed);
}

// SAFETY: every call is passed through to `System` unchanged; the counters
// are only updated after it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Most heap the process held since the start or the last [`reset_peak`],
/// in MiB.
pub fn peak_mb() -> f64 {
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Restarts the peak from what the process holds now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Makes glibc keep freed memory for reuse: blocks up to 32 MiB come from
/// the heap instead of fresh `mmap`s, and the heap is not trimmed.  Without
/// it every parallel solve maps and faults in its 8 MiB CLOSED table anew,
/// and on the development VM the cost of those page faults doubles with the
/// host's load: in alternating 10 s runs the smallest parallel solves took
/// 7.0–8.7 ms by default and 2.8–3.2 ms with freed memory kept, and the
/// median solve spread half as much.  The benchmark measures the program's
/// work, not the host's page-fault path; every commit is measured alike.
/// Returns false where the allocator does not take the settings.
pub fn keep_freed_memory() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: mallopt only sets allocator parameters; it is called
        // before the benchmark starts any thread.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1
        }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn the_peak_sees_a_large_allocation_and_resets() {
        reset_peak();
        let base = peak_mb();
        let block = black_box(vec![1u8; 8 << 20]);
        let with = peak_mb();
        drop(block);
        assert!(with >= base + 7.9, "peak {with} MiB over a base of {base}");
        reset_peak();
        assert!(peak_mb() < with, "a reset drops the freed block");
    }
}
