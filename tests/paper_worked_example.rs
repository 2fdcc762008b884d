//! The paper's §3.2 worked example, end to end.
//!
//! The paper traces a procedure body shaped
//! `(seq (if (if x call false) y call) x)` through both passes:
//!
//! ```text
//! pass 1:  (save (x) (seq (if (if x (save (x y) call) false)
//!                             y
//!                             (save (x) call)) x))
//! pass 2:  (save (x) (seq (if (if x (save (y) (restore-after call (x y))) false)
//!                             y
//!                             (restore-after call (x))) x))
//! ```
//!
//! That is: `x` is saved once at the top (every path calls), `y` only
//! in the branch that needs it, the redundant inner saves of `x` are
//! eliminated, and each call restores exactly the registers referenced
//! before the next call. We reconstruct the same shape in real source
//! and assert each of those placements on the allocated output.

use lesgs::allocator::alloc::{AExpr, AllocatedFunc};
use lesgs::allocator::{allocate_program, AllocConfig};
use lesgs::frontend::pipeline;
use lesgs::ir::machine::{arg_reg, RET};
use lesgs::ir::RegSet;

fn allocated_f() -> AllocatedFunc {
    // g always returns a number (never #f), so the inner `if` has the
    // exact true/false structure of the paper's `(if x call false)`.
    let src = "(define (g v) (if (zero? v) 0 (g (- v 1))))
               (define (f x y)
                 (+ (if (if (odd? x) (zero? (g y)) #f)
                        y
                        (g x))
                    x))
               (f 3 4)";
    let ir = pipeline::front_to_closed(src).unwrap();
    allocate_program(&ir, &AllocConfig::paper_default())
        .funcs
        .into_iter()
        .find(|f| f.name == "f")
        .unwrap()
}

fn saves(f: &AllocatedFunc) -> Vec<RegSet> {
    let mut out = Vec::new();
    f.body.visit(&mut |e| {
        if let AExpr::Save { regs, .. } = e {
            out.push(*regs);
        }
    });
    out
}

fn restores(f: &AllocatedFunc) -> Vec<RegSet> {
    let mut out = Vec::new();
    f.body.visit(&mut |e| {
        if let AExpr::Call(c) = e {
            if !c.tail {
                out.push(c.restore);
            }
        }
    });
    out
}

#[test]
fn every_path_calls_so_x_saves_at_the_top() {
    let f = allocated_f();
    assert!(
        f.call_inevitable,
        "both outcomes of the inner if lead to a call"
    );
    let AExpr::Save { regs, .. } = &f.body else {
        panic!("body root must be a save: {}", f.body);
    };
    assert!(regs.contains(arg_reg(0)), "x saved once at the top: {regs}");
    assert!(regs.contains(RET), "ret behaves like any register: {regs}");
}

#[test]
fn y_saves_only_in_the_branch_that_needs_it() {
    let f = allocated_f();
    let all = saves(&f);
    // Exactly two save sites survive pass 2: the body root and the
    // inner branch around the first call.
    assert_eq!(all.len(), 2, "{}", f.body);
    let inner: Vec<&RegSet> = all.iter().filter(|r| r.contains(arg_reg(1))).collect();
    assert_eq!(inner.len(), 1, "y saved exactly once: {all:?}");
    // Pass 2 eliminated x from the inner save ("When a save that is
    // already in the save set is encountered, it is eliminated").
    assert!(
        !inner[0].contains(arg_reg(0)),
        "inner save must not re-save x: {}",
        inner[0]
    );
}

#[test]
fn restores_match_the_references_before_the_next_call() {
    let f = allocated_f();
    let rs = restores(&f);
    assert_eq!(rs.len(), 2, "{}", f.body);
    // call 1 = (g y): x and y (and ret) are all possibly referenced
    // before the next call — the paper's (restore-after call (x y)).
    let call1 = rs
        .iter()
        .find(|r| r.contains(arg_reg(1)))
        .unwrap_or_else(|| panic!("some call restores y: {rs:?}"));
    assert!(call1.contains(arg_reg(0)));
    assert!(call1.contains(RET));
    // call 2 = (g x): only x (and ret) — the paper's
    // (restore-after call (x)).
    let call2 = rs.iter().find(|r| !r.contains(arg_reg(1))).unwrap();
    assert!(call2.contains(arg_reg(0)));
    assert!(call2.contains(RET));
}

#[test]
fn the_example_computes_correctly_under_every_strategy() {
    let src = "(define (g v) (if (zero? v) 0 (g (- v 1))))
               (define (f x y)
                 (+ (if (if (odd? x) (zero? (g y)) #f)
                        y
                        (g x))
                    x))
               (list (f 3 4) (f 2 9))";
    lesgs::compiler::differential_check(src, &lesgs::compiler::config_matrix(), 10_000_000, 1)
        .unwrap();
}
