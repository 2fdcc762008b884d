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

use crate::alloc::{AExpr, Dest, Home, Step, TempLoc};
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
    /// Processes `e` given the accumulated save set `ss` and the set of
    /// registers possibly referenced after `e` before the next call;
    /// returns the rewritten tree and the set possibly referenced
    /// before the next call starting at `e`'s entry.
    fn process(&mut self, e: AExpr, ss: RegSet, pr_exit: RegSet) -> (AExpr, RegSet) {
        match e {
            AExpr::Const(_) => (e, pr_exit),
            AExpr::ReadHome(Home::Reg(r)) if self.allocatable.contains(r) => (e, pr_exit.insert(r)),
            AExpr::ReadHome(Home::Reg(_)) => (e, pr_exit),
            AExpr::ReadHome(Home::Slot(_)) => (e, pr_exit),
            AExpr::Global(_) => (e, pr_exit),
            AExpr::GlobalSet { index, value } => {
                let (v, pr) = self.process(*value, ss, pr_exit);
                (
                    AExpr::GlobalSet {
                        index,
                        value: Box::new(v),
                    },
                    pr,
                )
            }
            AExpr::FreeRef(_) => (e, pr_exit.insert(CP)),
            AExpr::RestoreRegs(regs) => (AExpr::RestoreRegs(regs), pr_exit - regs),
            AExpr::RegMove { src, dst } => {
                let pr = pr_exit.remove(dst);
                let pr = if self.allocatable.contains(src) {
                    pr.insert(src)
                } else {
                    pr
                };
                (AExpr::RegMove { src, dst }, pr)
            }
            AExpr::If {
                cond,
                then,
                els,
                predict,
            } => {
                let (t, pr_t) = self.process(*then, ss, pr_exit);
                let (el, pr_e) = self.process(*els, ss, pr_exit);
                let (c, pr_c) = self.process(*cond, ss, pr_t | pr_e);
                (
                    AExpr::If {
                        cond: Box::new(c),
                        then: Box::new(t),
                        els: Box::new(el),
                        predict,
                    },
                    pr_c,
                )
            }
            AExpr::Seq(es) => {
                let mut pr = pr_exit;
                let mut out: Vec<AExpr> = Vec::with_capacity(es.len());
                for e in es.into_iter().rev() {
                    let (e2, pr2) = self.process(e, ss, pr);
                    pr = pr2;
                    out.push(e2);
                }
                out.reverse();
                (AExpr::Seq(out), pr)
            }
            AExpr::Bind { home, rhs, body } => {
                let (b, pr_b) = self.process(*body, ss, pr_exit);
                let pr_b = match home {
                    Home::Reg(r) => pr_b.remove(r),
                    Home::Slot(_) => pr_b,
                };
                let (r, pr_r) = self.process(*rhs, ss, pr_b);
                (
                    AExpr::Bind {
                        home,
                        rhs: Box::new(r),
                        body: Box::new(b),
                    },
                    pr_r,
                )
            }
            AExpr::PrimApp(p, args) => {
                let mut pr = pr_exit;
                let mut out: Vec<AExpr> = Vec::with_capacity(args.len());
                for a in args.into_iter().rev() {
                    let (a2, pr2) = self.process(a, ss, pr);
                    pr = pr2;
                    out.push(a2);
                }
                out.reverse();
                (AExpr::PrimApp(p, out), pr)
            }
            AExpr::Save {
                regs,
                live_out,
                exit_restore,
                body,
            } => {
                // "When a save that is already in the save set is
                // encountered, it is eliminated."
                let kept = if self.eliminate { regs - ss } else { regs };
                self.saved_union = self.saved_union | kept;
                let (b, mut pr) = self.process(*body, ss | regs, pr_exit);
                // The store itself references the registers, so an
                // earlier call must restore them first. This matters
                // under Late (saves repeat after calls) but also under
                // Lazy/Early whenever the shuffler schedules another
                // argument's call before this save executes.
                pr = pr | (kept & self.allocatable);
                if kept.is_empty() && exit_restore.is_empty() {
                    (b, pr)
                } else {
                    (
                        AExpr::Save {
                            regs: kept,
                            live_out,
                            exit_restore,
                            body: Box::new(b),
                        },
                        pr,
                    )
                }
            }
            AExpr::Call(mut node) => {
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
                let steps = node.plan.steps.clone();
                let mut args: Vec<Option<AExpr>> = node.args.drain(..).map(Some).collect();
                let mut closure = node.closure.take();
                let mut new_args: Vec<Option<AExpr>> = (0..args.len()).map(|_| None).collect();
                let mut new_closure = None;
                for step in steps.iter().rev() {
                    match step {
                        Step::Eval { arg, dst } => {
                            if let Dest::Reg(r) | Dest::Temp(TempLoc::Reg(r)) = dst {
                                pr = pr.remove(*r);
                            }
                            let expr = match arg {
                                crate::alloc::ArgRef::Arg(i) => {
                                    args[*i as usize].take().expect("arg evaluated once")
                                }
                                crate::alloc::ArgRef::Closure => {
                                    *closure.take().expect("closure evaluated once")
                                }
                            };
                            let (e2, pr2) = self.process(expr, ss, pr);
                            pr = pr2;
                            match arg {
                                crate::alloc::ArgRef::Arg(i) => new_args[*i as usize] = Some(e2),
                                crate::alloc::ArgRef::Closure => new_closure = Some(Box::new(e2)),
                            }
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
                node.args = new_args
                    .into_iter()
                    .map(|a| a.expect("every arg re-attached"))
                    .collect();
                node.closure = new_closure;
                (AExpr::Call(node), pr)
            }
            AExpr::MakeClosure { func, free } => {
                let mut pr = pr_exit;
                let mut out: Vec<AExpr> = Vec::with_capacity(free.len());
                for a in free.into_iter().rev() {
                    let (a2, pr2) = self.process(a, ss, pr);
                    pr = pr2;
                    out.push(a2);
                }
                out.reverse();
                (AExpr::MakeClosure { func, free: out }, pr)
            }
            AExpr::ClosureSet { clo, index, value } => {
                let (v, pr_v) = self.process(*value, ss, pr_exit);
                let (c, pr_c) = self.process(*clo, ss, pr_v);
                (
                    AExpr::ClosureSet {
                        clo: Box::new(c),
                        index,
                        value: Box::new(v),
                    },
                    pr_c,
                )
            }
        }
    }
}

/// Runs pass 2: eliminates redundant saves (except under the Late
/// strategy, whose whole point is that it cannot) and inserts eager
/// restores.
pub fn run(body: AExpr, cfg: &AllocConfig) -> Pass2Result {
    let mut p = Pass2 {
        eliminate: cfg.save != SaveStrategy::Late,
        saved_union: RegSet::EMPTY,
        allocatable: cfg.machine.allocatable(),
    };
    // On exit from the body the return jump references `ret`.
    let (body, _pr) = p.process(body, RegSet::EMPTY, RegSet::single(RET));
    Pass2Result {
        body,
        saved_regs: p.saved_union,
    }
}

/// The lazy restore strategy (§2.2): restores are placed immediately
/// before the first reference after a call, and at save-region exits
/// for registers still dirty but live (Figure 2c). Runs after [`run`]
/// and replaces the eager per-call restore sets.
pub fn lazy_restores(body: AExpr) -> AExpr {
    let (body, _) = lazy(body, RegSet::EMPTY);
    body
}

/// Forward walk threading the dirty set (saved registers whose register
/// copy is stale). Returns the rewritten node and the dirty set at
/// exit.
fn lazy(e: AExpr, dirty_in: RegSet) -> (AExpr, RegSet) {
    match e {
        AExpr::Const(_) => (e, dirty_in),
        AExpr::ReadHome(Home::Reg(r)) if dirty_in.contains(r) => (
            AExpr::Seq(vec![
                AExpr::RestoreRegs(RegSet::single(r)),
                AExpr::ReadHome(Home::Reg(r)),
            ]),
            dirty_in.remove(r),
        ),
        AExpr::ReadHome(_) => (e, dirty_in),
        AExpr::Global(_) => (e, dirty_in),
        AExpr::GlobalSet { index, value } => {
            let (v, dirty) = lazy(*value, dirty_in);
            (
                AExpr::GlobalSet {
                    index,
                    value: Box::new(v),
                },
                dirty,
            )
        }
        AExpr::FreeRef(i) if dirty_in.contains(CP) => (
            AExpr::Seq(vec![
                AExpr::RestoreRegs(RegSet::single(CP)),
                AExpr::FreeRef(i),
            ]),
            dirty_in.remove(CP),
        ),
        AExpr::FreeRef(_) => (e, dirty_in),
        AExpr::RestoreRegs(regs) => (AExpr::RestoreRegs(regs), dirty_in - regs),
        AExpr::RegMove { src, dst } => {
            let (pre, dirty) = if dirty_in.contains(src) {
                (
                    Some(AExpr::RestoreRegs(RegSet::single(src))),
                    dirty_in.remove(src).remove(dst),
                )
            } else {
                (None, dirty_in.remove(dst))
            };
            let mv = AExpr::RegMove { src, dst };
            match pre {
                Some(p) => (AExpr::Seq(vec![p, mv]), dirty),
                None => (mv, dirty),
            }
        }
        AExpr::If {
            cond,
            then,
            els,
            predict,
        } => {
            let (c, dirty_c) = lazy(*cond, dirty_in);
            let (t, dirty_t) = lazy(*then, dirty_c);
            let (el, dirty_e) = lazy(*els, dirty_c);
            (
                AExpr::If {
                    cond: Box::new(c),
                    then: Box::new(t),
                    els: Box::new(el),
                    predict,
                },
                dirty_t | dirty_e,
            )
        }
        AExpr::Seq(es) => {
            let mut dirty = dirty_in;
            let mut out = Vec::with_capacity(es.len());
            for e in es {
                let (e2, d) = lazy(e, dirty);
                dirty = d;
                out.push(e2);
            }
            (AExpr::Seq(out), dirty)
        }
        AExpr::Bind { home, rhs, body } => {
            let (r, dirty) = lazy(*rhs, dirty_in);
            let dirty = match home {
                Home::Reg(reg) => dirty.remove(reg),
                Home::Slot(_) => dirty,
            };
            let (b, dirty) = lazy(*body, dirty);
            (
                AExpr::Bind {
                    home,
                    rhs: Box::new(r),
                    body: Box::new(b),
                },
                dirty,
            )
        }
        AExpr::PrimApp(p, args) => {
            let mut dirty = dirty_in;
            let mut out = Vec::with_capacity(args.len());
            for a in args {
                let (a2, d) = lazy(a, dirty);
                dirty = d;
                out.push(a2);
            }
            (AExpr::PrimApp(p, out), dirty)
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
            let pre = regs & dirty_in;
            let (b, dirty) = lazy(*body, dirty_in - pre);
            // Figure 2c: a register still dirty at region exit but live
            // beyond it must be restored here.
            let exit = exit_restore | (dirty & live_out);
            let save = AExpr::Save {
                regs,
                live_out,
                exit_restore: exit,
                body: Box::new(b),
            };
            let out = if pre.is_empty() {
                save
            } else {
                AExpr::Seq(vec![AExpr::RestoreRegs(pre), save])
            };
            (out, dirty - exit)
        }
        AExpr::Call(mut node) => {
            // Arguments execute in plan order before the call.
            let steps = node.plan.steps.clone();
            let mut dirty = dirty_in;
            let mut args: Vec<Option<AExpr>> = node.args.drain(..).map(Some).collect();
            let mut closure = node.closure.take();
            let mut new_args: Vec<Option<AExpr>> = (0..args.len()).map(|_| None).collect();
            let mut new_closure = None;
            for step in &steps {
                match step {
                    Step::Eval { arg, dst } => {
                        let expr = match arg {
                            crate::alloc::ArgRef::Arg(i) => args[*i as usize].take().expect("once"),
                            crate::alloc::ArgRef::Closure => *closure.take().expect("once"),
                        };
                        let (e2, d) = lazy(expr, dirty);
                        dirty = d;
                        if let Dest::Reg(r) | Dest::Temp(TempLoc::Reg(r)) = dst {
                            dirty = dirty.remove(*r);
                        }
                        match arg {
                            crate::alloc::ArgRef::Arg(i) => new_args[*i as usize] = Some(e2),
                            crate::alloc::ArgRef::Closure => new_closure = Some(Box::new(e2)),
                        }
                    }
                    Step::Move { from, dst } => {
                        if let TempLoc::Reg(r) = from {
                            if dirty.contains(*r) {
                                // A shuffle temp is never a saved home,
                                // so this cannot happen; defensive.
                                dirty = dirty.remove(*r);
                            }
                        }
                        if let Dest::Reg(r) | Dest::Temp(TempLoc::Reg(r)) = dst {
                            dirty = dirty.remove(*r);
                        }
                    }
                }
            }
            node.args = new_args.into_iter().map(|a| a.expect("arg")).collect();
            node.closure = new_closure;
            let eager = std::mem::replace(&mut node.restore, RegSet::EMPTY);
            let dirty_out = if node.tail {
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
            };
            (AExpr::Call(node), dirty_out)
        }
        AExpr::MakeClosure { func, free } => {
            let mut dirty = dirty_in;
            let mut out = Vec::with_capacity(free.len());
            for a in free {
                let (a2, d) = lazy(a, dirty);
                dirty = d;
                out.push(a2);
            }
            (AExpr::MakeClosure { func, free: out }, dirty)
        }
        AExpr::ClosureSet { clo, index, value } => {
            let (c, dirty) = lazy(*clo, dirty_in);
            let (v, dirty) = lazy(*value, dirty);
            (
                AExpr::ClosureSet {
                    clo: Box::new(c),
                    index,
                    value: Box::new(v),
                },
                dirty,
            )
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
