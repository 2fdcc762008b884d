//! Freeing a list must not allocate.
//!
//! Every pair that dies goes through `VmPair`'s `Drop`, so this is the
//! VM's hot drop path: freeing a list whose cars hold no children, or
//! one nested only through its cars, walks it without a heap-allocated
//! work stack. This binary installs a global allocator that counts the
//! allocations of the thread that asks, so tests running in parallel do
//! not see each other's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lesgs_vm::Value;

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

/// The allocations this thread makes while dropping `value`.
fn allocations_to_drop(value: Value) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    drop(value);
    ALLOCATIONS.with(Cell::get) - before
}

const LENGTH: i64 = 100_000;

#[test]
fn freeing_a_list_of_immediates_allocates_nothing() {
    let list = (0..LENGTH).fold(Value::Nil, |acc, i| Value::cons(Value::Fixnum(i), acc));
    assert_eq!(allocations_to_drop(list), 0);
}

#[test]
fn freeing_a_list_nested_through_its_cars_allocates_nothing() {
    let nested = (0..LENGTH).fold(Value::Nil, |acc, _| Value::cons(acc, Value::Nil));
    assert_eq!(allocations_to_drop(nested), 0);
}
