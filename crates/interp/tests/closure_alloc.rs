//! Making a closure allocates the closure and nothing else.
//!
//! Every closure made from one lambda shares that lambda's parameters,
//! body and name, so a value nested through millions of closures costs
//! one heap cell per level, as it does through pairs. This binary
//! installs a global allocator that counts the allocations of the
//! thread that asks, so tests running in parallel do not see each
//! other's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lesgs_interp::run_source;

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

/// The allocations this thread makes while running `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// The allocations one evaluation of `expr` costs: a loop evaluates it
/// (and drops its value) 1,000 and then 2,000 times, and everything
/// else the run does — reading, renaming, lowering, the loop's own
/// calls — is the same in both runs but for the count.
fn per_evaluation(expr: &str) -> u64 {
    let run = |n: u32| {
        let src =
            format!("(define (loop n) (if (= n 0) 0 (begin {expr} (loop (- n 1))))) (loop {n})");
        allocations(|| {
            let out = run_source(&src, 1_000_000).expect("the loop runs");
            assert_eq!(out.value, "0");
        })
    };
    run(1_000); // first-use allocations: the prelude, thread-locals
    let (once, twice) = (run(1_000), run(2_000));
    assert_eq!((twice - once) % 1_000, 0, "{once} then {twice}");
    (twice - once) / 1_000
}

#[test]
fn creating_a_closure_allocates_only_the_closure() {
    let base = per_evaluation("0");
    assert_eq!(
        per_evaluation("(lambda (a b c) a)") - base,
        1,
        "a three-parameter closure"
    );
    assert_eq!(
        per_evaluation("(letrec ((named (lambda (a b c) a))) named)") - base,
        2,
        "a named three-parameter closure and the letrec binding that names it"
    );
}
