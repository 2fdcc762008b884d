//! The callee-save discipline of §2.4 and Tables 4/5.
//!
//! Under this discipline, parameters are homed in callee-save registers
//! (`k0`–`k5`), which every function must preserve. The save strategy
//! decides *where* the function saves the callee-save registers it uses
//! and moves its parameters into them:
//!
//! * **Early** — in the prologue, like the C compilers of Table 4/5
//!   ("the natural callee-save strategy saves too soon").
//! * **Lazy** — at inevitable-call regions: along call-free paths the
//!   parameters are read straight from their caller-save argument
//!   registers, so effective leaf activations never touch the stack.
//!
//! Two simplifications, both documented in DESIGN.md: tail calls are
//! treated as ordinary calls (matching the C model being compared
//! against), and `let`-bound locals keep the normal caller-save
//! treatment so the region placement stays sound.

use lesgs_frontend::Const;
use lesgs_ir::machine::{arg_reg, callee_reg, RET};
use lesgs_ir::{Expr, Func, RegSet};

use crate::alloc::{AExpr, AllocatedFunc, Home};
use crate::config::{AllocConfig, Discipline, RestoreStrategy, SaveStrategy};
use crate::driver;
use crate::frame::FrameLayout;
use crate::homes;
use crate::pass2;
use crate::savep;

/// Rewrites every tail call into an ordinary call (the C model has no
/// tail calls, and region placement relies on every call sitting inside
/// a `ret` save region).
fn de_tail(e: &mut Expr) {
    if let Expr::Call { tail, .. } = e {
        *tail = false;
    }
    e.for_each_child_mut(&mut de_tail);
}

/// True if any `ret`-save region has callee-save registers live past
/// it, which would make lazy placement unsound (we fall back to early).
fn region_live_out_conflict(e: &AExpr, used_k: RegSet, inside: bool) -> bool {
    match e {
        AExpr::Save {
            regs,
            live_out,
            body,
            ..
        } if regs.contains(RET) && !inside => {
            !(*live_out & used_k).is_empty() || region_live_out_conflict(body, used_k, true)
        }
        _ => {
            let mut found = false;
            e.for_each_child(&mut |c| {
                found = found || region_live_out_conflict(c, used_k, inside);
            });
            found
        }
    }
}

/// Moves `a_i → k_i` for each register parameter.
fn param_moves(n_reg_params: usize) -> Vec<AExpr> {
    (0..n_reg_params)
        .map(|i| AExpr::RegMove {
            src: arg_reg(i),
            dst: callee_reg(i),
        })
        .collect()
}

/// Injects callee-save saves + parameter moves at `ret` regions and
/// remaps parameter reads outside regions back to argument registers.
fn inject(e: &mut AExpr, used_k: RegSet, n_reg_params: usize, inside: bool) {
    match e {
        AExpr::Save {
            regs,
            exit_restore,
            body,
            ..
        } if regs.contains(RET) && !inside => {
            inject(body, used_k, n_reg_params, true);
            let mut seq = param_moves(n_reg_params);
            seq.push(std::mem::replace(&mut **body, AExpr::Const(Const::Void)));
            **body = AExpr::seq(seq);
            *regs = *regs | used_k;
            *exit_restore = *exit_restore | used_k;
        }
        AExpr::ReadHome(Home::Reg(r)) if !inside && r.is_callee_save() => {
            let i =
                r.index() - lesgs_ir::machine::NUM_SCRATCH - lesgs_ir::machine::MAX_ARG_REGS - 3;
            *r = arg_reg(i);
        }
        _ => e.for_each_child_mut(&mut |c| inject(c, used_k, n_reg_params, inside)),
    }
}

/// Allocates one function under the callee-save discipline.
pub fn allocate_func(func: &Func, cfg: &AllocConfig) -> AllocatedFunc {
    let mut de_tailed = func.clone();
    de_tail(&mut de_tailed.body);

    // A function that makes no calls at all keeps everything in
    // caller-save registers: no callee-save traffic.
    if de_tailed.is_syntactic_leaf() {
        let caller_cfg = AllocConfig {
            discipline: Discipline::CallerSave,
            ..*cfg
        };
        return driver::allocate_func(&de_tailed, &caller_cfg);
    }

    let homes = homes::assign(&de_tailed, &cfg.machine, Discipline::CalleeSave);
    let n_reg_params = func.n_params.min(cfg.machine.num_arg_regs);
    let used_k: RegSet = (0..n_reg_params).map(callee_reg).collect();

    // Region placement mirrors the save strategy: Early puts the one
    // region at the body root, Lazy at inevitable-call points.
    let place_cfg = match cfg.save {
        SaveStrategy::Lazy => *cfg,
        // Early and Late both degenerate to prologue placement here.
        _ => AllocConfig {
            save: SaveStrategy::Early,
            ..*cfg
        },
    };
    let r1 = savep::run(&de_tailed, &homes, &place_cfg);
    let r2 = pass2::run(r1.body, &place_cfg);
    let mut body = match cfg.restore {
        RestoreStrategy::Eager => r2.body,
        RestoreStrategy::Lazy => pass2::lazy_restores(r2.body),
    };

    let body = if region_live_out_conflict(&body, used_k, false) {
        // Fall back: one region around the whole body. Everything is
        // inside it, and homes already name the callee-save registers.
        let mut seq = param_moves(n_reg_params);
        seq.push(body);
        AExpr::Save {
            regs: used_k,
            live_out: RegSet::single(RET),
            exit_restore: used_k,
            body: Box::new(AExpr::seq(seq)),
        }
    } else {
        inject(&mut body, used_k, n_reg_params, false);
        body
    };

    AllocatedFunc {
        id: func.id,
        name: func.name.clone(),
        n_params: func.n_params,
        n_free: func.n_free,
        homes: homes.home,
        body,
        frame: FrameLayout {
            n_incoming: homes.n_incoming,
            save_regs: r2.saved_regs | used_k,
            n_spills: homes.n_spills,
            n_temps: 0,
        },
        syntactic_leaf: func.is_syntactic_leaf(),
        call_inevitable: r1.call_inevitable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lesgs_frontend::pipeline;

    const TAK: &str = "(define (tak x y z)
           (if (not (< y x))
               z
               (tak (tak (- x 1) y z)
                    (tak (- y 1) z x)
                    (tak (- z 1) x y))))
         (tak 6 3 1)";

    fn allocate(src: &str, name: &str, save: SaveStrategy) -> AllocatedFunc {
        let cfg = AllocConfig {
            discipline: Discipline::CalleeSave,
            save,
            ..AllocConfig::paper_default()
        };
        let p = pipeline::front_to_closed(src).unwrap();
        let f = p.funcs.iter().find(|f| f.name == name).unwrap();
        allocate_func(f, &cfg)
    }

    #[test]
    fn early_saves_in_prologue() {
        let f = allocate(TAK, "tak", SaveStrategy::Early);
        // Body root is a save containing the used callee-save regs.
        let AExpr::Save { regs, .. } = &f.body else {
            panic!("expected prologue save, got {}", f.body)
        };
        assert!(regs.contains(callee_reg(0)));
        assert!(regs.contains(callee_reg(1)));
        assert!(regs.contains(callee_reg(2)));
        assert!(regs.contains(RET));
    }

    #[test]
    fn lazy_skips_base_case() {
        let f = allocate(TAK, "tak", SaveStrategy::Lazy);
        // The body root must NOT be a save: the z-returning base case
        // is call-free.
        assert!(
            !matches!(&f.body, AExpr::Save { regs, .. } if regs.contains(RET)),
            "lazy callee-save leaves the base path free: {}",
            f.body
        );
        // But some branch saves the callee-save registers and moves
        // params in.
        let mut found_k_save = false;
        let mut found_move = false;
        f.body.visit(&mut |e| match e {
            AExpr::Save {
                regs, exit_restore, ..
            } if regs.contains(callee_reg(0)) => {
                found_k_save = true;
                assert!(exit_restore.contains(callee_reg(0)));
            }
            AExpr::RegMove { src, dst } if *src == arg_reg(0) && *dst == callee_reg(0) => {
                found_move = true;
            }
            _ => {}
        });
        assert!(found_k_save, "{}", f.body);
        assert!(found_move, "{}", f.body);
    }

    #[test]
    fn leaf_functions_avoid_callee_save_entirely() {
        let f = allocate("(define (f x) (+ x 1)) (f 1)", "f", SaveStrategy::Lazy);
        assert_eq!(f.homes[0], Home::Reg(arg_reg(0)));
        assert_eq!(f.body.count_saves(), 0);
    }

    #[test]
    fn base_case_reads_argument_registers_under_lazy() {
        let f = allocate(TAK, "tak", SaveStrategy::Lazy);
        // Outside the region, parameter reads must use a-registers.
        // The condition (not (< y x)) is outside any save region.
        fn first_read(e: &AExpr) -> Option<Home> {
            let mut found = None;
            e.visit(&mut |n| {
                if found.is_none() {
                    if let AExpr::ReadHome(h) = n {
                        found = Some(*h);
                    }
                }
            });
            found
        }
        let h = first_read(&f.body).expect("some read");
        let Home::Reg(r) = h else { panic!() };
        assert!(r.is_arg(), "outside-region read uses arg register, got {r}");
    }
}
