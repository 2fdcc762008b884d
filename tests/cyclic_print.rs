//! Cyclic values print, and the run ends.
//!
//! A pair or vector that reaches itself would make a plain print walk
//! endless, and printing is one VM instruction, so the instruction
//! budget cannot stop it. Both VM engines and the interpreter print
//! through `lesgs_frontend::print::render`, which puts R7RS datum
//! labels on the containers a walk reaches again while inside them and
//! numbers the labels in the order they are first printed. Each program
//! runs through both VM engines and the reference interpreter, which
//! must print the same value and output.

use lesgs::compiler::{compile, CompilerConfig};

const FUEL: u64 = 10_000_000;

/// `(ring xs)` ties the last pair of the list `xs` back to its first
/// and returns it.
const PRELUDE: &str = "(define (last xs) (if (null? (cdr xs)) xs (last (cdr xs)))) \
                       (define (ring xs) (set-cdr! (last xs) xs) xs)";

/// The value and output of `PRELUDE` followed by `body` on the fast
/// engine, the reference engine and the interpreter.
fn answers(body: &str) -> [(String, String); 3] {
    let src = format!("{PRELUDE} {body}");
    let config = CompilerConfig {
        fuel: FUEL,
        ..CompilerConfig::default()
    };
    let compiled = compile(&src, &config).expect("program compiles");
    let fast = config.machine(&compiled.vm).run().expect("fast run");
    let reference = config
        .classic_machine(&compiled.vm)
        .run()
        .expect("reference run");
    let interp = lesgs::interp::run_source(&src, FUEL).expect("interpreter run");
    [
        (fast.value, fast.output),
        (reference.value, reference.output),
        (interp.value, interp.output),
    ]
}

fn all(value: &str, output: &str) -> [(String, String); 3] {
    let answer = (value.to_owned(), output.to_owned());
    [answer.clone(), answer.clone(), answer]
}

#[test]
fn a_car_cycle_prints_with_a_label() {
    let body = "(define a (list 1)) (set-car! a a) a";
    assert_eq!(answers(body), all("#0=(#0#)", ""));
}

#[test]
fn a_cdr_cycle_prints_with_a_label() {
    let body = "(define a (list 1)) (set-cdr! a a) a";
    assert_eq!(answers(body), all("#0=(1 . #0#)", ""));
    let body = "(ring (list 1 2 3))";
    assert_eq!(answers(body), all("#0=(1 2 3 . #0#)", ""));
}

#[test]
fn a_vector_cycle_prints_with_a_label() {
    let body = "(define v (vector 1 2)) (vector-set! v 0 v) v";
    assert_eq!(answers(body), all("#0=#(#0# 2)", ""));
    let body = "(define v (vector 1 (list 2))) (set-cdr! (vector-ref v 1) v) v";
    assert_eq!(answers(body), all("#0=#(1 (2 . #0#))", ""));
}

/// Only the containers on a cycle get labels: the shared acyclic
/// prefix prints in full each time, and the cycle it leads to is
/// labelled where it is first printed and referred to after that.
#[test]
fn a_cycle_reached_through_a_shared_acyclic_prefix() {
    let body = "(define c (ring (list 1 2))) (define p (cons 0 c)) (list p p)";
    assert_eq!(answers(body), all("((0 . #0=(1 2 . #0#)) (0 . #0#))", ""));
    let body = "(define s (list 1 2)) (list s s)";
    assert_eq!(answers(body), all("((1 2) (1 2))", ""));
}

/// Labels are numbered in the order they are first printed.
#[test]
fn two_cycles_are_numbered_in_print_order() {
    let body = "(define a (ring (list 1))) (define b (ring (list 2))) (list b a b)";
    assert_eq!(answers(body), all("(#0=(2 . #0#) #1=(1 . #1#) #0#)", ""));
}

#[test]
fn display_of_a_cycle_inside_a_program() {
    let body = "(define a (ring (list \"x\" #\\y))) \
                (display a) (newline) (write a) (newline) 'done";
    let output = "#0=(x y . #0#)\n#0=(\"x\" #\\y . #0#)\n";
    assert_eq!(answers(body), all("done", output));
}
