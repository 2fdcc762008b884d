//! Freeing a list, or comparing two short ones, must not allocate.
//!
//! Every pair that dies goes through `VmPair`'s `Drop`, so this is the
//! VM's hot drop path: freeing a list whose cars hold no children, or
//! one nested only through its cars, walks it without a heap-allocated
//! work stack. `equal?` on two short lists of atoms walks them with no
//! work stack and no table of the containers it enters. This binary
//! installs a global allocator that counts the allocations of the
//! thread that asks, so tests running in parallel do not see each
//! other's.

use lesgs_testkit::counting::{allocations, Counting};
use lesgs_vm::Value;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations this thread makes while dropping `value`.
fn allocations_to_drop(value: Value) -> u64 {
    allocations(|| drop(value)).0
}

const LENGTH: i64 = 100_000;

#[test]
fn freeing_a_list_of_immediates_allocates_nothing() {
    let list = (0..LENGTH).fold(Value::NIL, |acc, i| Value::cons(Value::Fixnum(i), acc));
    assert_eq!(allocations_to_drop(list), 0);
}

#[test]
fn freeing_a_list_nested_through_its_cars_allocates_nothing() {
    let nested = (0..LENGTH).fold(Value::NIL, |acc, _| Value::cons(acc, Value::NIL));
    assert_eq!(allocations_to_drop(nested), 0);
}

#[test]
fn comparing_two_short_lists_allocates_nothing() {
    let list = || (0..10).fold(Value::NIL, |acc, i| Value::cons(Value::Fixnum(i), acc));
    let (a, b) = (list(), list());
    assert_eq!(allocations(|| a.eq_structural(&b)), (0, true));
}
