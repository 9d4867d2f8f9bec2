//! Live-heap accounting: the system allocator, counting the bytes it
//! has handed out and not yet taken back, and their peak, while a
//! [`measure`] call runs.
//!
//! The benchmark binary installs [`CountingAlloc`] as its global
//! allocator. Peak resident memory (`VmHWM`) also counts what the C
//! allocator keeps after a free and the old block a `realloc` copies
//! from, and both depend on which per-thread arena each worker thread
//! happens to get: after one op of the tenant workload on `S_6` it read
//! 27 or 31 MiB at random between runs of one seed. The live-heap peak counts only what the
//! program holds, so it repeats. Counting makes every allocation
//! update shared counters, which slowed `uniform-s8`'s ops by a third
//! to a half on a 2-core VM, so it is off outside [`measure`].

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

static COUNTING: AtomicBool = AtomicBool::new(false);
// Signed: a block allocated before counting began may be freed while
// it runs.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// [`System`], with live and peak byte counts while [`measure`] runs.
pub struct CountingAlloc;

fn add(delta: isize) {
    if COUNTING.load(Relaxed) {
        let live = LIVE.fetch_add(delta, Relaxed) + delta;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn size(bytes: usize) -> isize {
    isize::try_from(bytes).unwrap_or(isize::MAX)
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are only updated after it.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `layout` is `System`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            add(size(layout.size()));
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            add(size(layout.size()));
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`.
        unsafe { System.dealloc(ptr, layout) };
        add(-size(layout.size()));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, with the caller's `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            add(size(new_size) - size(layout.size()));
        }
        p
    }
}

/// Runs `f` with the live heap counted from zero and returns its
/// result with the peak, in MiB, that `f` held at once. The peak is 0
/// unless [`CountingAlloc`] is the global allocator.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, f64) {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
    let out = f();
    COUNTING.store(false, Relaxed);
    (out, PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0))
}
