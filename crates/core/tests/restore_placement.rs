//! Figure 2 of the paper as executable tests: where the eager and lazy
//! restore strategies place their reloads on the three control-flow
//! shapes the figure draws.

use lesgs_core::alloc::{AExpr, AllocatedFunc};
use lesgs_core::config::RestoreStrategy;
use lesgs_core::{allocate_program, AllocConfig};
use lesgs_frontend::pipeline;
use lesgs_ir::machine::arg_reg;
use lesgs_ir::RegSet;

fn allocate(src: &str, restore: RestoreStrategy) -> Vec<AllocatedFunc> {
    let cfg = AllocConfig {
        restore,
        ..AllocConfig::paper_default()
    };
    let ir = pipeline::front_to_closed(src).unwrap();
    allocate_program(&ir, &cfg).funcs
}

fn find(funcs: &[AllocatedFunc], name: &str) -> AllocatedFunc {
    funcs.iter().find(|f| f.name == name).unwrap().clone()
}

/// Call restore sets (non-tail) in tree order.
fn call_restores(f: &AllocatedFunc) -> Vec<RegSet> {
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

fn count_restore_nodes(f: &AllocatedFunc) -> usize {
    let mut n = 0;
    f.body.visit(&mut |e| {
        if matches!(e, AExpr::RestoreRegs(_)) {
            n += 1;
        }
    });
    n
}

fn exit_restores(f: &AllocatedFunc) -> Vec<RegSet> {
    let mut out = Vec::new();
    f.body.visit(&mut |e| {
        if let AExpr::Save { exit_restore, .. } = e {
            if !exit_restore.is_empty() {
                out.push(*exit_restore);
            }
        }
    });
    out
}

const HELPER: &str = "(define (g v) (if (zero? v) 0 (g (- v 1))))";

/// Figure 2a: a call in one branch of a join, the register referenced
/// after the join. Eager restores inside the calling branch
/// ("potentially unnecessary restores because of the joins of two
/// branches with different call and reference behavior"); lazy waits
/// for the reference itself.
#[test]
fn figure_2a_eager_restores_in_branch_lazy_at_use() {
    let src = format!(
        "{HELPER}
         (define (f x p) (+ (if p (g x) 0) x))
         (f 3 #t)"
    );
    // Eager: the call's restore set reloads x (home a0) right away.
    let eager = find(&allocate(&src, RestoreStrategy::Eager), "f");
    let restores = call_restores(&eager);
    assert_eq!(restores.len(), 1);
    assert!(
        restores[0].contains(arg_reg(0)),
        "eager reloads x immediately after the call: {}",
        eager.body
    );
    assert_eq!(count_restore_nodes(&eager), 0, "no standalone reloads");

    // Lazy: the call restores nothing; a reload sits at the use.
    let lazy = find(&allocate(&src, RestoreStrategy::Lazy), "f");
    let restores = call_restores(&lazy);
    assert!(
        !restores[0].contains(arg_reg(0)),
        "lazy must not reload x at the call: {}",
        lazy.body
    );
    assert!(
        count_restore_nodes(&lazy) >= 1 || !exit_restores(&lazy).is_empty(),
        "lazy reloads at the reference (or region exit): {}",
        lazy.body
    );
}

/// Figure 2b: both branches call but only one references the register
/// afterwards. Eager reloads after both calls; lazy only where the
/// reference is.
#[test]
fn figure_2b_eager_restores_both_branches() {
    let src = format!(
        "{HELPER}
         (define (f x p)
           (if p
               (+ (g x) x)
               (+ (g x) 1)))
         (f 3 #t)"
    );
    let eager = find(&allocate(&src, RestoreStrategy::Eager), "f");
    let restores = call_restores(&eager);
    assert_eq!(restores.len(), 2);
    // The then-branch call reloads x (referenced after it)…
    assert!(restores.iter().any(|r| r.contains(arg_reg(0))));
    // …the else-branch call does not (x is dead there).
    assert!(restores.iter().any(|r| !r.contains(arg_reg(0))));
}

/// Figure 2c: "the variable is referenced outside of its enclosing save
/// region … the register must be restored on exit of the save region."
/// Even the lazy approach is forced into a potentially unnecessary
/// restore here.
#[test]
fn figure_2c_lazy_restores_at_region_exit() {
    let src = format!(
        "{HELPER}
         (define (f x p)
           (+ (if p (+ (g x) (g x)) 0) x))
         (f 3 #t)"
    );
    let lazy = find(&allocate(&src, RestoreStrategy::Lazy), "f");
    // x (a0) is live out of the then-branch's save region: the region
    // exit must reload it even on executions that would not need it.
    let exits = exit_restores(&lazy);
    assert!(
        exits.iter().any(|r| r.contains(arg_reg(0))),
        "region-exit restore of x required: {}",
        lazy.body
    );
}

/// The eager strategy inserts restores only for registers possibly
/// referenced before the next call — a register whose next use is
/// beyond another call is reloaded later, not twice.
#[test]
fn eager_defers_past_intervening_calls() {
    let src = format!(
        "{HELPER}
         (define (f x) (+ (g 1) (+ (g 2) x)))
         (f 7)"
    );
    let eager = find(&allocate(&src, RestoreStrategy::Eager), "f");
    let restores = call_restores(&eager);
    assert_eq!(restores.len(), 2);
    // First call: x not referenced before the second call → no reload.
    assert!(
        !restores[0].contains(arg_reg(0)),
        "first call must not reload x: {:?}",
        restores
    );
    // Second call: x referenced right after → reload.
    assert!(restores[1].contains(arg_reg(0)), "{restores:?}");
}

/// Both strategies agree on observable behaviour for all three shapes.
#[test]
fn figure2_shapes_run_identically() {
    for (shape, expected) in [
        (
            format!("{HELPER} (define (f x p) (+ (if p (g x) 0) x)) (f 3 #t)"),
            "3",
        ),
        (
            format!("{HELPER} (define (f x p) (if p (+ (g x) x) (+ (g x) 1))) (f 3 #f)"),
            "1",
        ),
        (
            format!("{HELPER} (define (f x p) (+ (if p (+ (g x) (g x)) 0) x)) (f 3 #t)"),
            "3",
        ),
    ] {
        for restore in [RestoreStrategy::Eager, RestoreStrategy::Lazy] {
            let cfg = lesgs_compiler::CompilerConfig {
                alloc: AllocConfig {
                    restore,
                    ..AllocConfig::paper_default()
                },
                poison: true,
                ..Default::default()
            };
            let out = lesgs_compiler::compile(&shape, &cfg)
                .unwrap()
                .run(&cfg)
                .unwrap();
            assert_eq!(out.value, expected, "{restore:?}: {shape}");
        }
    }
}
