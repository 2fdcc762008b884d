//! Making a closure allocates the closure and nothing else, and
//! comparing two short lists allocates nothing.
//!
//! Every closure made from one lambda shares that lambda's parameters,
//! body and name, so a value nested through millions of closures costs
//! one heap cell per level, as it does through pairs. `equal?` on two
//! short lists of atoms walks them with no work stack and no table of
//! the containers it enters. This binary installs a global allocator
//! that counts the allocations of the thread that asks, so tests
//! running in parallel do not see each other's.

use lesgs_interp::{run_source, Value};
use lesgs_testkit::counting::{allocations, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

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
        .0
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

#[test]
fn comparing_two_short_lists_allocates_nothing() {
    let list = || (0..10).fold(Value::Nil, |acc, i| Value::cons(Value::Fixnum(i), acc));
    let (a, b) = (list(), list());
    assert_eq!(allocations(|| a.eq_structural(&b)), (0, true));
}
