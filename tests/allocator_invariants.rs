//! Allocator-wide invariants checked over every compiled benchmark.
//!
//! These are the structural theorems behind the paper's strategy
//! comparison, asserted on real programs rather than the toy language.

use lesgs::allocator::alloc::{AExpr, AllocatedProgram};
use lesgs::allocator::config::SaveStrategy;
use lesgs::allocator::AllocConfig;
use lesgs::compiler::{compile, CompilerConfig};
use lesgs::ir::machine::RET;
use lesgs::suite::{all_benchmarks, Scale};

fn allocated(src: &str, save: SaveStrategy) -> AllocatedProgram {
    let cfg = CompilerConfig::with_alloc(AllocConfig {
        save,
        ..AllocConfig::paper_default()
    });
    compile(src, &cfg).unwrap().allocated
}

/// The lazy theorem, on real code: a function with a call-free path
/// (not call-inevitable) never saves anything at its body root.
#[test]
fn lazy_never_saves_at_entry_without_inevitable_call() {
    for b in all_benchmarks() {
        let p = allocated(b.source(Scale::Small), SaveStrategy::Lazy);
        for f in &p.funcs {
            if !f.call_inevitable {
                assert!(
                    !matches!(f.body, AExpr::Save { .. }),
                    "{}::{} has a call-free path yet saves at entry:\n{}",
                    b.name,
                    f.name,
                    f.body
                );
            }
        }
    }
}

/// Syntactic leaves never contain any save, restore, or call overhead
/// under any strategy — the zero-cost case the paper's design protects.
#[test]
fn syntactic_leaves_have_zero_save_traffic() {
    for b in all_benchmarks() {
        for save in [SaveStrategy::Lazy, SaveStrategy::Early, SaveStrategy::Late] {
            let p = allocated(b.source(Scale::Small), save);
            for f in &p.funcs {
                if f.syntactic_leaf {
                    assert_eq!(
                        f.body.count_saves(),
                        0,
                        "{}::{} under {save:?}",
                        b.name,
                        f.name
                    );
                }
            }
        }
    }
}

/// `ret` is in every surviving save set that dominates a call — the
/// §2.4 observation making `ret ∈ S_t ∩ S_f` the call-inevitability
/// test.
#[test]
fn call_inevitable_functions_save_ret_at_entry_under_lazy() {
    for b in all_benchmarks() {
        let p = allocated(b.source(Scale::Small), SaveStrategy::Lazy);
        for f in &p.funcs {
            if f.call_inevitable {
                let AExpr::Save { regs, .. } = &f.body else {
                    panic!("{}::{}: inevitable call ⟹ root save", b.name, f.name);
                };
                assert!(regs.contains(RET), "{}::{}", b.name, f.name);
            }
        }
    }
}

/// Early saves everything lazy saves (statically): for each function,
/// the union of lazy save sets is a subset of the union of early save
/// sets.
#[test]
fn lazy_save_sets_within_early_save_sets() {
    for b in all_benchmarks() {
        let lazy = allocated(b.source(Scale::Small), SaveStrategy::Lazy);
        let early = allocated(b.source(Scale::Small), SaveStrategy::Early);
        for (lf, ef) in lazy.funcs.iter().zip(early.funcs.iter()) {
            let union = |f: &lesgs::allocator::alloc::AllocatedFunc| {
                let mut u = lesgs::ir::RegSet::EMPTY;
                f.body.visit(&mut |e| {
                    if let AExpr::Save { regs, .. } = e {
                        u = u | *regs;
                    }
                });
                u
            };
            let lu = union(lf);
            let eu = union(ef);
            assert!(
                lu.is_subset(eu),
                "{}::{}: lazy {lu} ⊄ early {eu}",
                b.name,
                lf.name
            );
        }
    }
}

/// Dynamic counterpart: executed saves are ordered lazy ≤ late and
/// lazy ≤ early on every benchmark (the mechanism behind Table 3).
#[test]
fn executed_saves_ordered_by_strategy() {
    for b in all_benchmarks() {
        let run = |save| {
            let cfg = CompilerConfig::with_alloc(AllocConfig {
                save,
                ..AllocConfig::paper_default()
            });
            lesgs::engine::Engine::with_config(cfg)
                .run(b.source(Scale::Small))
                .unwrap()
                .stats
                .saves()
        };
        let lazy = run(SaveStrategy::Lazy);
        let early = run(SaveStrategy::Early);
        let late = run(SaveStrategy::Late);
        assert!(lazy <= early, "{}: lazy {lazy} > early {early}", b.name);
        assert!(lazy <= late, "{}: lazy {lazy} > late {late}", b.name);
    }
}

/// Every restore set is a subset of the registers with save slots in
/// the frame — the static verifier's guarantee, asserted per function.
#[test]
fn restores_only_from_saved_slots() {
    for b in all_benchmarks() {
        let p = allocated(b.source(Scale::Small), SaveStrategy::Lazy);
        for f in &p.funcs {
            f.body.visit(&mut |e| match e {
                AExpr::Call(c) => {
                    assert!(
                        c.restore.is_subset(f.frame.save_regs),
                        "{}::{}",
                        b.name,
                        f.name
                    );
                }
                AExpr::RestoreRegs(regs) => {
                    assert!(regs.is_subset(f.frame.save_regs));
                }
                _ => {}
            });
        }
    }
}
