//! A deeply nested value must not abort the process.
//!
//! Freeing a value, comparing two with `equal?` and printing one all
//! walk its structure. Walked by recursion, a value nested a few
//! hundred thousand levels deep through cars, vector elements, closure
//! slots or boxes overflows a thread's stack, and a stack overflow
//! aborts the whole process: a one-worker service runs its jobs on the
//! calling thread, so one such request would take the service down.
//! Each program here runs through both engines on a thread with an
//! explicit 2 MiB stack, the size of an ordinary spawned thread.

use lesgs_compiler::{compile, CompilerConfig};
use lesgs_vm::{ClassicMachine, Machine};

const DEPTH: usize = 400_000;

const STACK_BYTES: usize = 2 * 1024 * 1024;

/// Defines `(nest n acc)`, which wraps `acc` `n` times in `wrap`.
fn nest(wrap: &str) -> String {
    format!("(define (nest n acc) (if (= n 0) acc (nest (- n 1) {wrap})))")
}

/// Compiles `source` and runs it through both engines on a 2 MiB
/// thread; returns each engine's value.
fn run_both(source: String) -> (String, String) {
    std::thread::Builder::new()
        .stack_size(STACK_BYTES)
        .spawn(move || {
            let config = CompilerConfig::default();
            let compiled = compile(&source, &config).expect("program compiles");
            let decoded = Machine::from_decoded(&compiled.decoded, config.cost)
                .run()
                .expect("decoded run");
            let classic = ClassicMachine::new(&compiled.vm, config.cost)
                .run()
                .expect("classic run");
            (decoded.value, classic.value)
        })
        .expect("spawn a 2 MiB thread")
        .join()
        .expect("the run thread finishes")
}

/// Builds a value `DEPTH` levels deep through `wrap`, keeps it live in
/// a global until the machine is dropped, and asks `test` of it.
fn keep_deep(wrap: &str, test: &str) -> (String, String) {
    run_both(format!(
        "{} (define keep (nest {DEPTH} '())) ({test} keep)",
        nest(wrap)
    ))
}

fn both(value: &str) -> (String, String) {
    (value.to_owned(), value.to_owned())
}

#[test]
fn a_list_nested_through_its_cars_is_freed_without_recursion() {
    assert_eq!(keep_deep("(cons acc '())", "pair?"), both("#t"));
}

#[test]
fn nested_vectors_are_freed_without_recursion() {
    assert_eq!(keep_deep("(vector acc)", "vector?"), both("#t"));
}

#[test]
fn nested_closures_are_freed_without_recursion() {
    assert_eq!(keep_deep("(lambda () acc)", "procedure?"), both("#t"));
}

#[test]
fn closures_over_nested_boxes_are_freed_without_recursion() {
    let wrap = "(let ((x acc)) (set! x x) (lambda () x))";
    assert_eq!(keep_deep(wrap, "procedure?"), both("#t"));
}

#[test]
fn equal_compares_deeply_nested_lists_without_recursion() {
    let source = format!(
        "{} (equal? (nest {DEPTH} '()) (nest {DEPTH} '()))",
        nest("(cons acc '())")
    );
    assert_eq!(run_both(source), both("#t"));
}

#[test]
fn a_deeply_nested_answer_prints_without_recursion() {
    let source = format!("{} (nest {DEPTH} '())", nest("(cons acc '())"));
    let printed = format!("{}(){}", "(".repeat(DEPTH), ")".repeat(DEPTH));
    assert_eq!(run_both(source), both(&printed));
}
