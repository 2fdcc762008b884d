//! A long list must not abort the process.
//!
//! Dropping a list and comparing two lists with `equal?` both walk the
//! cdr chain. Walked by recursion, a list of a few hundred thousand
//! pairs overflows a thread's stack, and a stack overflow aborts the
//! whole process: a batch service loses every worker with it. Each
//! program here runs through both engines on a thread with an explicit
//! 2 MiB stack, the size of an ordinary spawned thread.

use lesgs_compiler::{compile, CompilerConfig};
use lesgs_vm::{ClassicMachine, Machine};

const BUILD: &str = "(define (build n acc) (if (= n 0) acc (build (- n 1) (cons n acc))))";

const ELEMENTS: usize = 200_000;

const STACK_BYTES: usize = 2 * 1024 * 1024;

/// Compiles `BUILD` followed by `body` and runs it through both
/// engines on a 2 MiB thread; returns each engine's value.
fn run_both(body: &str) -> (String, String) {
    let source = format!("{BUILD} {body}");
    std::thread::Builder::new()
        .stack_size(STACK_BYTES)
        .spawn(move || {
            let config = CompilerConfig::default();
            let compiled = compile(&source, &config).expect("program compiles");
            let fast = Machine::new(&compiled.vm, config.cost)
                .run()
                .expect("fast run");
            let classic = ClassicMachine::new(&compiled.vm, config.cost)
                .run()
                .expect("classic run");
            (fast.value, classic.value)
        })
        .expect("spawn a 2 MiB thread")
        .join()
        .expect("the run thread finishes")
}

#[test]
fn a_live_long_list_is_freed_without_recursion() {
    let body = format!("(define keep (build {ELEMENTS} '())) (car keep)");
    assert_eq!(run_both(&body), ("1".to_owned(), "1".to_owned()));
}

#[test]
fn equal_walks_long_lists_without_recursion() {
    let body = format!("(equal? (build {ELEMENTS} '()) (build {ELEMENTS} '()))");
    assert_eq!(run_both(&body), ("#t".to_owned(), "#t".to_owned()));
}
