//! Deep values and deep recursion must not abort the interpreter.
//!
//! Freeing a value, comparing two with `equal?` and printing one all
//! walk its structure, and evaluating a non-tail call waits on its
//! result. Walked by recursion, a value nested a few hundred thousand
//! levels deep through cars, vector elements, closures or the
//! variables closures capture overflows a thread's stack, and so does
//! a program that recurses a hundred thousand calls deep; a stack
//! overflow aborts the whole process. Each program here runs on a
//! thread with an explicit 2 MiB stack, the size of an ordinary
//! spawned thread.

use lesgs_interp::run_source;

const DEPTH: usize = 400_000;

const STACK_BYTES: usize = 2 * 1024 * 1024;

/// Defines `(nest n acc)`, which wraps `acc` `n` times in `wrap`.
fn nest(wrap: &str) -> String {
    format!("(define (nest n acc) (if (= n 0) acc (nest (- n 1) {wrap})))")
}

/// Interprets `source` on a 2 MiB thread; returns its value.
fn run(source: String) -> String {
    std::thread::Builder::new()
        .stack_size(STACK_BYTES)
        .spawn(move || run_source(&source, u64::MAX).expect("program runs").value)
        .expect("spawn a 2 MiB thread")
        .join()
        .expect("the run thread finishes")
}

/// Builds a value `DEPTH` levels deep through `wrap`, keeps it live in
/// a global until the interpreter is dropped, and asks `test` of it.
fn keep_deep(wrap: &str, test: &str) -> String {
    run(format!(
        "{} (define keep (nest {DEPTH} '())) ({test} keep)",
        nest(wrap)
    ))
}

#[test]
fn a_list_nested_through_its_cars_is_freed_without_recursion() {
    assert_eq!(keep_deep("(cons acc '())", "pair?"), "#t");
}

#[test]
fn nested_vectors_are_freed_without_recursion() {
    assert_eq!(keep_deep("(vector acc)", "vector?"), "#t");
}

#[test]
fn nested_closures_are_freed_without_recursion() {
    assert_eq!(keep_deep("(lambda () acc)", "procedure?"), "#t");
}

#[test]
fn closures_over_assigned_variables_are_freed_without_recursion() {
    let wrap = "(let ((x acc)) (set! x x) (lambda () x))";
    assert_eq!(keep_deep(wrap, "procedure?"), "#t");
}

#[test]
fn equal_compares_deeply_nested_lists_without_recursion() {
    let source = format!(
        "{} (equal? (nest {DEPTH} '()) (nest {DEPTH} '()))",
        nest("(cons acc '())")
    );
    assert_eq!(run(source), "#t");
}

#[test]
fn equal_compares_deeply_nested_vectors_without_recursion() {
    let source = format!(
        "{} (equal? (nest {DEPTH} 1) (nest {DEPTH} 2))",
        nest("(vector acc)")
    );
    assert_eq!(run(source), "#f");
}

#[test]
fn a_deeply_nested_answer_prints_without_recursion() {
    let source = format!("{} (nest {DEPTH} '())", nest("(cons acc '())"));
    let printed = format!("{}(){}", "(".repeat(DEPTH), ")".repeat(DEPTH));
    assert_eq!(run(source), printed);
}

#[test]
fn deep_non_tail_recursion_evaluates_without_recursion() {
    let source = "(define (f n) (if (= n 0) 0 (+ 1 (f (- n 1))))) (f 100000)";
    assert_eq!(run(source.to_owned()), "100000");
}
