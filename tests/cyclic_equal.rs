//! `equal?` ends on cyclic values.
//!
//! A pair or vector that reaches itself makes a walk of its structure
//! endless, and `equal?` is one VM instruction, so the instruction
//! budget cannot stop it. The one walk both VM engines and the
//! interpreter compare with, `lesgs_frontend::value::equal`, keeps the
//! containers it enters past its first few in classes of those taken as
//! equal and skips a pair already in one class: R7RS's coinductive
//! `equal?`, under which two values are equal when no walk of them
//! finds a difference. Each program runs through both VM engines and
//! the reference interpreter, which must give the same answer.

use lesgs::compiler::{compile, CompilerConfig};

const FUEL: u64 = 10_000_000;

/// Builds `(ones n)`, a fresh list of `n` ones, and `(ring xs)`, which
/// ties the last pair of the list `xs` back to its first and returns it.
const PRELUDE: &str = "(define (ones n) (if (= n 0) '() (cons 1 (ones (- n 1))))) \
                       (define (last xs) (if (null? (cdr xs)) xs (last (cdr xs)))) \
                       (define (ring xs) (set-cdr! (last xs) xs) xs)";

/// The answer of `PRELUDE` followed by `body` on the fast engine, the
/// reference engine and the interpreter.
fn answers(body: &str) -> [String; 3] {
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
    [fast.value, reference.value, interp.value]
}

fn all(answer: &str) -> [String; 3] {
    [answer.to_owned(), answer.to_owned(), answer.to_owned()]
}

#[test]
fn two_car_cycles_are_equal() {
    let body = "(define a (list 1)) (set-car! a a) \
                (define b (list 1)) (set-car! b b) \
                (equal? a b)";
    assert_eq!(answers(body), all("#t"));
}

#[test]
fn two_cdr_cycles_are_equal() {
    let body = "(equal? (ring (list 1 2)) (ring (list 1 2)))";
    assert_eq!(answers(body), all("#t"));
}

#[test]
fn bisimilar_cycles_of_different_lengths_are_equal() {
    // A ring of two ones against a ring of one, and a ring of 2,000
    // ones against a ring of three.
    let body = "(list (equal? (ring (list 1 1)) (ring (list 1))) \
                      (equal? (ring (ones 2000)) (ring (ones 3))))";
    assert_eq!(answers(body), all("(#t #t)"));
}

#[test]
fn rings_of_coprime_lengths_are_equal() {
    // Walked in step, the two rings line up again only after
    // 30,000 * 30,001 pairs, about 9e8; a walk that recorded pairs of
    // addresses would hold each of them. Joined in classes, the walk
    // enters at most one pair per container.
    let body = "(equal? (ring (ones 30000)) (ring (ones 30001)))";
    assert_eq!(answers(body), all("#t"));
}

#[test]
fn a_cyclic_list_differs_from_a_finite_one() {
    let body = "(list (equal? (ring (list 1)) (ones 5000)) \
                      (equal? (ones 5000) (ring (ones 7))))";
    assert_eq!(answers(body), all("(#f #f)"));
}

#[test]
fn a_difference_deep_in_a_ring_is_found() {
    // The two rings agree on their first 1,999 elements.
    let body = "(define a (ones 2000)) (set-car! (last a) 2) \
                (equal? (ring a) (ring (list 1)))";
    assert_eq!(answers(body), all("#f"));
}

#[test]
fn vector_cycles_are_compared_like_pair_cycles() {
    let body = "(define (self-vector x) (let ((v (vector x 0))) (vector-set! v 1 v) v)) \
                (list (equal? (self-vector 1) (self-vector 1)) \
                      (equal? (self-vector 1) (self-vector 2)))";
    assert_eq!(answers(body), all("(#t #f)"));
}
