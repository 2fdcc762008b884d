//! Reading, desugaring and renaming copy no name per symbol.
//!
//! The reader lends each symbol from the source text, the desugarer
//! lends the same `&str` to the tree it builds, and the renamer keys
//! its environment by it, so a program with 10,000 references
//! allocates only the vectors that hold them. This binary installs a
//! global allocator that counts the allocations of the thread that
//! asks, so tests running in parallel do not see each other's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lesgs_frontend::desugar;
use lesgs_frontend::rename::Renamer;
use lesgs_frontend::Expr;
use lesgs_sexpr::{read, Datum};

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

const SYMBOLS: usize = 10_000;

/// A bound on the allocations of reading or desugaring one list of
/// `SYMBOLS` symbols that does not grow with their number: a growing
/// vector reallocates about log2(SYMBOLS) = 14 times, where a copied
/// name per symbol would be 10,000 allocations.
const BOUND: u64 = 32;

/// `(head x x … x)` with `SYMBOLS` `x`s.
fn list_of_xs(head: &str) -> String {
    format!("({head}{})", " x".repeat(SYMBOLS))
}

/// Renames `e` with `f` and `x` bound; returns the allocations.
fn rename_allocations(e: &Expr<&str>) -> u64 {
    let mut renamer = Renamer::new();
    renamer.bind("f");
    renamer.bind("x");
    let (n, renamed) = allocations(|| renamer.rename(e));
    renamed.expect("renames");
    n
}

#[test]
fn reading_an_application_allocates_only_its_vectors() {
    let src = list_of_xs("f");
    let (n, data) = allocations(|| read(&src).expect("reads"));
    assert!(n <= BOUND, "{n} allocations reading {SYMBOLS} symbols");
    let Datum::List(items) = &data[0] else {
        panic!("not a list")
    };
    assert_eq!(items.len(), SYMBOLS + 1);
    // The names point into the source text.
    let Datum::Symbol(x) = items[SYMBOLS] else {
        panic!("not a symbol")
    };
    assert!(src.as_bytes().as_ptr_range().contains(&x.as_ptr()));

    let (n, e) = allocations(|| desugar::expr(&data[0]).expect("desugars"));
    assert!(n <= BOUND, "{n} allocations desugaring");
    let n = rename_allocations(&e);
    assert!(n <= BOUND, "{n} allocations renaming {SYMBOLS} references");
}

#[test]
fn desugaring_a_sequence_allocates_only_its_vector() {
    let src = list_of_xs("begin");
    let data = read(&src).expect("reads");
    let (n, e) = allocations(|| desugar::expr(&data[0]).expect("desugars"));
    assert!(n <= BOUND, "{n} allocations desugaring {SYMBOLS} symbols");
    let Expr::Seq(items) = &e else {
        panic!("not a sequence: {e}")
    };
    assert_eq!(items.len(), SYMBOLS);
    let n = rename_allocations(&e);
    assert!(n <= BOUND, "{n} allocations renaming {SYMBOLS} references");
}
