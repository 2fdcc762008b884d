//! Pass 2: redundant-save elimination and restore placement (§3.2).
//!
//! "The second pass processes the tree to eliminate redundant saves and
//! insert the restores. It takes three inputs: the abstract syntax
//! tree, the current save set, and the set of registers possibly
//! referenced after T but before the next call. It returns … the tree
//! with redundant saves eliminated and restores added, and the set of
//! registers possibly referenced before the next call."
//!
//! Eager restores attach to each call node (loads issued immediately
//! after the call returns, hiding memory latency). The lazy variant
//! ([`lazy_restores`]) instead reloads a register right before its
//! first use and at save-region exits (Figure 2c).

use lesgs_ir::machine::{CP, RET};
use lesgs_ir::RegSet;

use crate::alloc::{AExpr, ArgRef, Dest, Home, Step, TempLoc};
use crate::config::{AllocConfig, SaveStrategy};

/// Result of pass 2 on one function body.
#[derive(Debug)]
pub struct Pass2Result {
    /// Body with redundant saves removed and restores placed.
    pub body: AExpr,
    /// Every register that still has a save anywhere (these need save
    /// slots in the frame).
    pub saved_regs: RegSet,
}

struct Pass2 {
    eliminate: bool,
    saved_union: RegSet,
    /// Only allocatable registers participate in restore tracking;
    /// callee-save homes are preserved across calls by convention.
    allocatable: RegSet,
}

impl Pass2 {
    /// Rewrites `e` in place given the accumulated save set `ss` and
    /// the set of registers possibly referenced after `e` before the
    /// next call; returns the set possibly referenced before the next
    /// call starting at `e`'s entry.
    fn process(&mut self, e: &mut AExpr, ss: RegSet, pr_exit: RegSet) -> RegSet {
        match e {
            AExpr::ReadHome(Home::Reg(r)) if self.allocatable.contains(*r) => pr_exit.insert(*r),
            AExpr::Const(_) | AExpr::ReadHome(_) | AExpr::Global(_) => pr_exit,
            AExpr::GlobalSet { value, .. } => self.process(value, ss, pr_exit),
            AExpr::FreeRef(_) => pr_exit.insert(CP),
            AExpr::RestoreRegs(regs) => pr_exit - *regs,
            AExpr::RegMove { src, dst } => {
                let pr = pr_exit.remove(*dst);
                if self.allocatable.contains(*src) {
                    pr.insert(*src)
                } else {
                    pr
                }
            }
            AExpr::If {
                cond, then, els, ..
            } => {
                let pr_t = self.process(then, ss, pr_exit);
                let pr_e = self.process(els, ss, pr_exit);
                self.process(cond, ss, pr_t | pr_e)
            }
            AExpr::Seq(es) | AExpr::PrimApp(_, es) | AExpr::MakeClosure { free: es, .. } => es
                .iter_mut()
                .rev()
                .fold(pr_exit, |pr, e| self.process(e, ss, pr)),
            AExpr::Bind { home, rhs, body } => {
                let pr_b = self.process(body, ss, pr_exit);
                let pr_b = match home {
                    Home::Reg(r) => pr_b.remove(*r),
                    Home::Slot(_) => pr_b,
                };
                self.process(rhs, ss, pr_b)
            }
            AExpr::Save {
                regs,
                exit_restore,
                body,
                ..
            } => {
                // "When a save that is already in the save set is
                // encountered, it is eliminated."
                let kept = if self.eliminate { *regs - ss } else { *regs };
                self.saved_union = self.saved_union | kept;
                let pr = self.process(body, ss | *regs, pr_exit);
                // The store itself references the registers, so an
                // earlier call must restore them first. This matters
                // under Late (saves repeat after calls) but also under
                // Lazy/Early whenever the shuffler schedules another
                // argument's call before this save executes.
                let pr = pr | (kept & self.allocatable);
                if kept.is_empty() && exit_restore.is_empty() {
                    // Nothing left to store or reload: the region is
                    // its body.
                    let inner = std::mem::replace(&mut **body, AExpr::RestoreRegs(RegSet::EMPTY));
                    *e = inner;
                } else {
                    *regs = kept;
                }
                pr
            }
            AExpr::Call(node) => {
                if !node.tail {
                    // "Restores for possibly referenced registers are
                    // inserted immediately after calls." Anything
                    // referenced before the next call was live across
                    // this one, hence saved by an enclosing region.
                    debug_assert!(
                        (pr_exit - ss).is_empty(),
                        "referenced-after registers must be saved: {} ⊄ {}",
                        pr_exit,
                        ss
                    );
                    node.restore = pr_exit & ss;
                    // Test-only sabotage: silently drop one restore —
                    // the exact bug class the eager-restore analysis
                    // exists to prevent. The save region and its frame
                    // slots stay intact, so the bytecode is
                    // structurally valid but a stale register survives
                    // the call. The fuzzer's acceptance test enables
                    // this feature in a scratch build and must catch
                    // and shrink the resulting miscompile (see
                    // TESTING.md).
                    #[cfg(feature = "inject-save-bug")]
                    {
                        node.restore = match node.restore.iter().next() {
                            Some(victim) => node.restore.remove(victim),
                            None => node.restore,
                        };
                    }
                }
                // Walk the plan backwards from the call boundary.
                let mut pr = if node.tail {
                    RegSet::single(RET)
                } else {
                    RegSet::EMPTY
                };
                // Process evaluation steps in reverse execution order.
                for step in node.plan.steps.iter().rev() {
                    match step {
                        Step::Eval { arg, dst } => {
                            if let Dest::Reg(r) | Dest::Temp(TempLoc::Reg(r)) = dst {
                                pr = pr.remove(*r);
                            }
                            let expr = match arg {
                                ArgRef::Arg(i) => &mut node.args[*i as usize],
                                ArgRef::Closure => {
                                    node.closure.as_deref_mut().expect("closure present")
                                }
                            };
                            pr = self.process(expr, ss, pr);
                        }
                        Step::Move { from, dst } => {
                            if let Dest::Reg(r) | Dest::Temp(TempLoc::Reg(r)) = dst {
                                pr = pr.remove(*r);
                            }
                            if let TempLoc::Reg(r) = from {
                                pr = pr.insert(*r);
                            }
                        }
                    }
                }
                pr
            }
            AExpr::ClosureSet { clo, value, .. } => {
                let pr_v = self.process(value, ss, pr_exit);
                self.process(clo, ss, pr_v)
            }
        }
    }
}

/// Runs pass 2: eliminates redundant saves (except under the Late
/// strategy, whose whole point is that it cannot) and inserts eager
/// restores.
pub fn run(mut body: AExpr, cfg: &AllocConfig) -> Pass2Result {
    let mut p = Pass2 {
        eliminate: cfg.save != SaveStrategy::Late,
        saved_union: RegSet::EMPTY,
        allocatable: cfg.machine.allocatable(),
    };
    // On exit from the body the return jump references `ret`.
    p.process(&mut body, RegSet::EMPTY, RegSet::single(RET));
    Pass2Result {
        body,
        saved_regs: p.saved_union,
    }
}

/// The lazy restore strategy (§2.2): restores are placed immediately
/// before the first reference after a call, and at save-region exits
/// for registers still dirty but live (Figure 2c). Runs after [`run`]
/// and replaces the eager per-call restore sets.
pub fn lazy_restores(mut body: AExpr) -> AExpr {
    lazy(&mut body, RegSet::EMPTY);
    body
}

/// Puts a reload of `regs` ahead of `e`: `e` becomes
/// `(seq (restore regs) e)`.
fn restore_before(e: &mut AExpr, regs: RegSet) {
    let node = std::mem::replace(e, AExpr::RestoreRegs(regs));
    *e = AExpr::Seq(vec![AExpr::RestoreRegs(regs), node]);
}

/// Forward walk threading the dirty set (saved registers whose register
/// copy is stale): rewrites `e` in place and returns the dirty set at
/// exit.
fn lazy(e: &mut AExpr, dirty_in: RegSet) -> RegSet {
    match e {
        AExpr::ReadHome(Home::Reg(r)) if dirty_in.contains(*r) => {
            let r = *r;
            restore_before(e, RegSet::single(r));
            dirty_in.remove(r)
        }
        AExpr::FreeRef(_) if dirty_in.contains(CP) => {
            restore_before(e, RegSet::single(CP));
            dirty_in.remove(CP)
        }
        AExpr::Const(_) | AExpr::ReadHome(_) | AExpr::FreeRef(_) | AExpr::Global(_) => dirty_in,
        AExpr::GlobalSet { value, .. } => lazy(value, dirty_in),
        AExpr::RestoreRegs(regs) => dirty_in - *regs,
        AExpr::RegMove { src, dst } => {
            let (src, dst) = (*src, *dst);
            if dirty_in.contains(src) {
                restore_before(e, RegSet::single(src));
                dirty_in.remove(src).remove(dst)
            } else {
                dirty_in.remove(dst)
            }
        }
        AExpr::If {
            cond, then, els, ..
        } => {
            let dirty_c = lazy(cond, dirty_in);
            let dirty_t = lazy(then, dirty_c);
            let dirty_e = lazy(els, dirty_c);
            dirty_t | dirty_e
        }
        AExpr::Seq(es) | AExpr::PrimApp(_, es) | AExpr::MakeClosure { free: es, .. } => {
            es.iter_mut().fold(dirty_in, |dirty, e| lazy(e, dirty))
        }
        AExpr::Bind { home, rhs, body } => {
            let dirty = lazy(rhs, dirty_in);
            let dirty = match home {
                Home::Reg(reg) => dirty.remove(*reg),
                Home::Slot(_) => dirty,
            };
            lazy(body, dirty)
        }
        AExpr::Save {
            regs,
            live_out,
            exit_restore,
            body,
        } => {
            // A save stores register contents: any register that is
            // still dirty (stale since an earlier call — only possible
            // under the Late strategy, whose saves repeat) must be
            // reloaded first.
            let pre = *regs & dirty_in;
            let dirty = lazy(body, dirty_in - pre);
            // Figure 2c: a register still dirty at region exit but live
            // beyond it must be restored here.
            let exit = *exit_restore | (dirty & *live_out);
            *exit_restore = exit;
            if !pre.is_empty() {
                restore_before(e, pre);
            }
            dirty - exit
        }
        AExpr::Call(node) => {
            // Arguments execute in plan order before the call.
            let mut dirty = dirty_in;
            for step in &node.plan.steps {
                match step {
                    Step::Eval { arg, dst } => {
                        let expr = match arg {
                            ArgRef::Arg(i) => &mut node.args[*i as usize],
                            ArgRef::Closure => {
                                node.closure.as_deref_mut().expect("closure present")
                            }
                        };
                        dirty = lazy(expr, dirty);
                        if let Dest::Reg(r) | Dest::Temp(TempLoc::Reg(r)) = dst {
                            dirty = dirty.remove(*r);
                        }
                    }
                    Step::Move { from, dst } => {
                        // A shuffle temp is never a saved home, so a
                        // dirty `from` cannot happen; defensive.
                        if let TempLoc::Reg(r) = from {
                            dirty = dirty.remove(*r);
                        }
                        if let Dest::Reg(r) | Dest::Temp(TempLoc::Reg(r)) = dst {
                            dirty = dirty.remove(*r);
                        }
                    }
                }
            }
            let eager = std::mem::replace(&mut node.restore, RegSet::EMPTY);
            if node.tail {
                if dirty.contains(RET) {
                    // The jump needs the return address back in `ret`;
                    // the reload must come after the argument shuffle
                    // (arguments may contain calls that clobber it), so
                    // it rides on the call node and is emitted between
                    // the shuffle and the jump.
                    node.restore = RegSet::single(RET);
                    dirty = dirty.remove(RET);
                }
                dirty
            } else {
                // After a call everything saved-and-live is stale. The
                // eager pass computed exactly the referenced set; all of
                // it is now dirty instead of restored.
                dirty | eager | node.live_after
            }
        }
        AExpr::ClosureSet { clo, value, .. } => {
            let dirty = lazy(clo, dirty_in);
            lazy(value, dirty)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AllocConfig;
    use crate::homes;
    use crate::savep;
    use lesgs_frontend::pipeline;

    fn alloc_body(src: &str, name: &str, cfg: &AllocConfig) -> Pass2Result {
        let p = pipeline::front_to_closed(src).unwrap();
        let f = p.funcs.iter().find(|f| f.name == name).unwrap();
        let h = homes::assign(f, &cfg.machine, cfg.discipline);
        let r1 = savep::run(f, &h, cfg);
        run(r1.body, cfg)
    }

    const TWO_CALLS: &str = "(define (g x) (if (zero? x) 0 (g (- x 1))))
         (define (f x) (+ (g x) (g (+ x 1))))
         (f 3)";

    #[test]
    fn redundant_saves_eliminated() {
        let cfg = AllocConfig::paper_default();
        let r = alloc_body(TWO_CALLS, "f", &cfg);
        // x and ret are saved once at the body (call inevitable), and
        // no inner save survives.
        assert_eq!(r.body.count_saves(), 1, "{}", r.body);
        assert!(r.saved_regs.contains(lesgs_ir::machine::RET));
    }

    #[test]
    fn late_strategy_keeps_duplicate_saves() {
        let cfg = AllocConfig {
            save: crate::config::SaveStrategy::Late,
            ..AllocConfig::paper_default()
        };
        let r = alloc_body(TWO_CALLS, "f", &cfg);
        assert_eq!(r.body.count_saves(), 2, "{}", r.body);
    }

    #[test]
    fn eager_restores_after_first_call() {
        let cfg = AllocConfig::paper_default();
        let r = alloc_body(TWO_CALLS, "f", &cfg);
        // The first call must restore x (referenced by the second
        // argument) — find a call with a non-empty restore set.
        let mut restores = Vec::new();
        r.body.visit(&mut |e| {
            if let AExpr::Call(c) = e {
                if !c.tail {
                    restores.push(c.restore);
                }
            }
        });
        assert!(
            restores.iter().any(|r| !r.is_empty()),
            "some call restores registers: {restores:?}"
        );
        // Restored registers must be a subset of saved registers.
        for rs in &restores {
            assert!(rs.is_subset(r.saved_regs), "{rs} ⊆ {}", r.saved_regs);
        }
    }

    #[test]
    fn ret_restored_before_use() {
        let cfg = AllocConfig::paper_default();
        let r = alloc_body(
            "(define (g x) (if (zero? x) 0 (g (- x 1))))
             (define (f x) (g (g x)))
             (f 3)",
            "f",
            &cfg,
        );
        // f calls g non-tail, then tail-calls g: ret must be restored
        // after the inner call (referenced by the tail jump).
        let mut found = false;
        r.body.visit(&mut |e| {
            if let AExpr::Call(c) = e {
                if !c.tail && c.restore.contains(lesgs_ir::machine::RET) {
                    found = true;
                }
            }
        });
        assert!(found, "{}", r.body);
    }

    #[test]
    fn leaf_has_no_restores() {
        let cfg = AllocConfig::paper_default();
        let r = alloc_body("(define (f x) (+ x 1)) (f 1)", "f", &cfg);
        r.body.visit(&mut |e| {
            if let AExpr::Call(c) = e {
                assert!(c.restore.is_empty());
            }
        });
        assert_eq!(r.saved_regs, RegSet::EMPTY);
    }

    #[test]
    fn lazy_restores_move_loads_to_uses() {
        let cfg = AllocConfig {
            restore: crate::config::RestoreStrategy::Lazy,
            ..AllocConfig::paper_default()
        };
        let r = alloc_body(TWO_CALLS, "f", &cfg);
        let body = lazy_restores(r.body);
        // No eager restore sets remain…
        body.visit(&mut |e| {
            if let AExpr::Call(c) = e {
                assert!(c.restore.is_empty());
            }
        });
        // …but explicit restore nodes appear before uses.
        let mut n = 0;
        body.visit(&mut |e| {
            if matches!(e, AExpr::RestoreRegs(_)) {
                n += 1;
            }
        });
        assert!(n >= 1, "{body}");
    }
}
