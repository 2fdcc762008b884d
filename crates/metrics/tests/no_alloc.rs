//! Recording must not allocate where it has nothing new to keep.
//!
//! A discarding registry keeps nothing, so none of its recording calls
//! may allocate; a recording registry allocates only for a name it does
//! not hold yet. This binary installs a global allocator that counts
//! the allocations of the thread that asks, so tests running in
//! parallel do not see each other's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lesgs_metrics::{Histogram, Registry};

struct Counting;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: an allocation during thread teardown is not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees hold; the counter is a
// thread-local statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged from our caller.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged from our caller.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged from our caller.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations this thread makes while running `f`, and its value.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (ALLOCATIONS.with(Cell::get) - before, r)
}

/// Every recording call once, under fixed names; returns `time`'s value.
fn burst(reg: &mut Registry, summary: &Histogram) -> u64 {
    reg.inc("burst.events", 3);
    reg.inc("burst.other_events", 1);
    reg.set_gauge("burst.level", 0.5);
    reg.observe("burst.sizes", 4.0);
    reg.observe_summary("burst.jobs_ns", summary);
    let value = reg.time("burst.pass", || 41 + 1);
    let span = reg.start_span("burst.phase");
    reg.end_span(span);
    value
}

fn summary() -> Histogram {
    let mut h = Histogram::default();
    h.observe(2.0);
    h.observe(6.0);
    h
}

#[test]
fn a_discarding_registry_allocates_nothing_and_stays_empty() {
    let summary = summary();
    let mut reg = Registry::discard();
    let (n, values) = allocations(|| (0..3).map(|_| burst(&mut reg, &summary)).sum::<u64>());
    assert_eq!(n, 0, "a discarding registry allocated");
    assert_eq!(values, 3 * 42, "`time` returns its closure's value");
    assert!(!reg.is_recording());
    assert_eq!(reg.counters().count(), 0);
    assert_eq!(reg.gauges().count(), 0);
    assert_eq!(reg.histograms().count(), 0);
}

#[test]
fn recording_a_held_name_again_allocates_nothing() {
    let summary = summary();
    let mut reg = Registry::new();
    assert!(reg.is_recording());
    let (first, _) = allocations(|| burst(&mut reg, &summary));
    assert!(first > 0, "the first round creates the names");
    let (second, value) = allocations(|| burst(&mut reg, &summary));
    assert_eq!(second, 0, "the second round allocated");
    assert_eq!(value, 42);
    // The registry holds the sum of both rounds.
    let deterministic = reg.to_json(false).compact();
    assert_eq!(
        deterministic,
        concat!(
            r#"{"counters":{"burst.events":6,"burst.other_events":2},"#,
            r#""gauges":{"burst.level":0.5},"#,
            r#""histograms":{"burst.jobs_ns":{"count":4,"sum":16,"min":2,"max":6,"mean":4},"#,
            r#""burst.sizes":{"count":2,"sum":8,"min":4,"max":4,"mean":4}}}"#
        )
    );
    for span in ["burst.pass.wall_ns", "burst.phase.wall_ns"] {
        assert_eq!(reg.histogram(span).map(|h| h.count), Some(2), "{span}");
    }
}
