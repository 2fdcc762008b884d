//! A counting global allocator for tests that bound heap use.
//!
//! [`Counting`] forwards every call to [`System`] and keeps three
//! counts: the allocations this thread has made (each `alloc`,
//! `alloc_zeroed` and `realloc`), the bytes live in the whole process,
//! and the high-water mark of those live bytes. A test binary installs
//! it once:
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: lesgs_testkit::counting::Counting = lesgs_testkit::counting::Counting;
//! ```
//!
//! The thread count is exact when tests run in parallel; the live and
//! peak bytes are the process's, so a binary that reads them holds one
//! test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The counting allocator (see the module documentation).
#[derive(Debug)]
pub struct Counting;

thread_local! {
    /// Allocations made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}
/// Bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of [`LIVE`] since it was last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    // `try_with`: an allocation during thread teardown is not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees hold; the counters are
// statistics that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged from our caller.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged from our caller.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged from our caller.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged from our caller.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

/// The allocations this thread makes while running `f`, and its value.
pub fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (ALLOCATIONS.with(Cell::get) - before, r)
}

/// Bytes currently allocated in the process.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// The most bytes live at once since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Starts a new high-water mark at the bytes live now.
pub fn reset_peak() {
    PEAK.store(live_bytes(), Ordering::Relaxed);
}
