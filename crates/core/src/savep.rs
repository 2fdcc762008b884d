//! Pass 1: liveness analysis, greedy shuffling, and save placement
//! (§3.1).
//!
//! "The first pass processes the tree bottom-up to compute the live
//! sets and the register saves at the same time. It takes two inputs:
//! the abstract syntax tree and the set of registers live on exit from
//! it. It returns the tree annotated with register saves, the set of
//! registers live on entry, `S_t[T]`, and `S_f[T]`."
//!
//! Save expressions are introduced around procedure bodies and the
//! branches of `if` expressions, "unless both branches require the same
//! register saves" (in which case the enclosing node's save set covers
//! them). The `ret` register participates exactly like any other
//! caller-save register (§2.4), so effective leaf routines never save
//! their return address.

use lesgs_frontend::{Const, Prim};
use lesgs_ir::machine::{arg_reg, CP, MAX_ARG_REGS, RET};
use lesgs_ir::{Callee, Expr, Func, RegSet};

use crate::alloc::{ACallee, AExpr, ArgRef, CallNode, Home, ShufflePlan, Step};
use crate::config::{AllocConfig, SaveStrategy, ShuffleStrategy};
use crate::homes::{reg_reads, reg_writes, Homes};
use crate::shuffle::{self, NodeSpec, Target};

/// The result of pass 1 on one function.
#[derive(Debug)]
pub struct Pass1Result {
    /// Save-annotated body.
    pub body: AExpr,
    /// True if every path through the body makes a non-tail call
    /// (`ret ∈ S_t ∩ S_f`, §2.4) — a *syntactic internal* routine.
    pub call_inevitable: bool,
    /// Highest frame-temp index used by any shuffle plan.
    pub max_shuffle_temps: u32,
}

struct Walked {
    a: AExpr,
    live_in: RegSet,
    st: RegSet,
    sf: RegSet,
    /// Union of `S[call]` over every call in this subtree: the
    /// registers whose values must survive some call here. Binds mask
    /// their register out on the way up (like `st`/`sf`), so at any
    /// point this only names live ranges reaching that point — the
    /// Early strategy's root save set.
    call_live: RegSet,
}

struct Pass1<'a> {
    homes: &'a Homes,
    cfg: &'a AllocConfig,
    max_temps: u32,
}

/// True when the primitive's result can never be `#f` (numbers, pairs,
/// void, …), letting `S_f = R` mark the false outcome impossible.
fn prim_never_false(p: Prim) -> bool {
    use Prim::*;
    matches!(
        p,
        Add | Sub
            | Mul
            | Quotient
            | Remainder
            | Modulo
            | Abs
            | Min
            | Max
            | Add1
            | Sub1
            | Cons
            | MakeVector
            | MakeVectorFill
            | VectorLength
            | StringLength
            | CharToInteger
            | Display
            | Write
            | Newline
            | Void
            | MakeCell
            | CellSet
            | SetCar
            | SetCdr
            | VectorSet
    )
}

impl Pass1<'_> {
    fn allocatable(&self) -> RegSet {
        self.cfg.machine.allocatable()
    }

    /// Combines the (st, sf) pair of a prefix with the next element in
    /// sequence: the prefix contributes its must-save set
    /// unconditionally.
    fn seq_combine(prefix: (RegSet, RegSet), next: (RegSet, RegSet)) -> (RegSet, RegSet) {
        let must = prefix.0 & prefix.1;
        (must | next.0, must | next.1)
    }

    fn walk_call(
        &mut self,
        callee: &Callee,
        args: &[Expr],
        tail: bool,
        live_out: RegSet,
    ) -> Walked {
        let c = self.cfg.machine.num_arg_regs;
        let live_after = if tail {
            RegSet::EMPTY
        } else {
            live_out & self.allocatable()
        };

        // --- build the shuffle problem --------------------------------
        let mut nodes: Vec<NodeSpec> = args
            .iter()
            .enumerate()
            .map(|(i, a)| NodeSpec {
                arg: ArgRef::Arg(i as u16),
                // Stack-passed arguments always build in the outgoing
                // area above the frame; tail calls copy them down into
                // the parameter slots after all evaluation (writing
                // parameter slots during the shuffle could clobber
                // spill/save slots other arguments still read).
                target: if i < c {
                    Target::Reg(arg_reg(i))
                } else {
                    Target::Out((i - c) as u32)
                },
                // Writes (let-binding homes inside the argument) order
                // evaluation exactly like reads: the argument must run
                // before the register it scribbles on is assigned.
                reads_regs: reg_reads(a, self.homes) | reg_writes(a, self.homes),
                complex: a.contains_call(),
            })
            .collect();
        let closure_expr = callee.closure_expr();
        if let Some(clo) = closure_expr {
            nodes.push(NodeSpec {
                arg: ArgRef::Closure,
                target: Target::Reg(CP),
                reads_regs: reg_reads(clo, self.homes) | reg_writes(clo, self.homes),
                complex: clo.contains_call(),
            });
        }
        let temp_regs: RegSet = (0..MAX_ARG_REGS).map(arg_reg).collect();
        let problem = shuffle::Problem { nodes, temp_regs };
        let plan: ShufflePlan = match self.cfg.shuffle {
            ShuffleStrategy::Greedy => shuffle::greedy(&problem),
            ShuffleStrategy::FixedOrder => shuffle::fixed_order(&problem),
        };
        self.max_temps = self.max_temps.max(plan.frame_temps);

        // --- walk arguments in reverse evaluation order ----------------
        let eval_order: Vec<ArgRef> = plan
            .steps
            .iter()
            .filter_map(|s| match s {
                Step::Eval { arg, .. } => Some(*arg),
                Step::Move { .. } => None,
            })
            .collect();
        let mut live = if tail {
            RegSet::single(RET)
        } else {
            live_after
        };
        let mut walked_args: Vec<Option<Walked>> = args.iter().map(|_| None).collect();
        let mut walked_closure: Option<Walked> = None;
        let mut musts = RegSet::EMPTY;
        let mut call_live = if tail { RegSet::EMPTY } else { live_after };
        for argref in eval_order.iter().rev() {
            let expr = match argref {
                ArgRef::Arg(i) => &args[*i as usize],
                ArgRef::Closure => closure_expr.expect("closure arg exists"),
            };
            let w = self.walk(expr, live);
            live = w.live_in;
            musts = musts | (w.st & w.sf);
            call_live = call_live | w.call_live;
            match argref {
                ArgRef::Arg(i) => walked_args[*i as usize] = Some(w),
                ArgRef::Closure => walked_closure = Some(w),
            }
        }

        let s_call = live_after; // S[call] = registers live after the call
        let st = musts | s_call;
        let sf = st;

        let a_callee = match callee {
            Callee::Direct(f) => ACallee::Direct(*f),
            Callee::KnownClosure(f, _) => ACallee::KnownClosure(*f),
            Callee::Computed(_) => ACallee::Computed,
        };
        let node = CallNode {
            callee: a_callee,
            args: walked_args
                .into_iter()
                .map(|w| w.expect("all args walked").a)
                .collect(),
            closure: walked_closure.map(|w| Box::new(w.a)),
            plan,
            tail,
            restore: RegSet::EMPTY,
            live_after: s_call,
        };
        let mut a = AExpr::Call(node);
        if !tail && self.cfg.save == SaveStrategy::Late && !s_call.is_empty() {
            a = AExpr::Save {
                regs: s_call,
                live_out,
                exit_restore: RegSet::EMPTY,
                body: Box::new(a),
            };
        }
        Walked {
            a,
            live_in: live,
            st,
            sf,
            call_live,
        }
    }

    fn walk(&mut self, e: &Expr, live_out: RegSet) -> Walked {
        match e {
            Expr::Const(c) => {
                let (st, sf) = match c {
                    Const::Bool(true) => (RegSet::EMPTY, RegSet::ALL),
                    Const::Bool(false) => (RegSet::ALL, RegSet::EMPTY),
                    _ => (RegSet::EMPTY, RegSet::ALL),
                };
                Walked {
                    a: AExpr::Const(c.clone()),
                    live_in: live_out,
                    st,
                    sf,
                    call_live: RegSet::EMPTY,
                }
            }
            Expr::Var(v) => {
                let home = self.homes.of(*v);
                let live_in = match home {
                    Home::Reg(r) => live_out.insert(r),
                    Home::Slot(_) => live_out,
                };
                Walked {
                    a: AExpr::ReadHome(home),
                    live_in,
                    st: RegSet::EMPTY,
                    sf: RegSet::EMPTY,
                    call_live: RegSet::EMPTY,
                }
            }
            Expr::FreeRef(i) => Walked {
                a: AExpr::FreeRef(*i),
                live_in: live_out.insert(CP),
                st: RegSet::EMPTY,
                sf: RegSet::EMPTY,
                call_live: RegSet::EMPTY,
            },
            Expr::Global(g) => Walked {
                a: AExpr::Global(*g),
                live_in: live_out,
                st: RegSet::EMPTY,
                sf: RegSet::EMPTY,
                call_live: RegSet::EMPTY,
            },
            Expr::GlobalSet(g, rhs) => {
                let wr = self.walk(rhs, live_out);
                Walked {
                    a: AExpr::GlobalSet {
                        index: *g,
                        value: Box::new(wr.a),
                    },
                    live_in: wr.live_in,
                    st: wr.st & wr.sf,
                    sf: RegSet::ALL, // result is void (truthy)
                    call_live: wr.call_live,
                }
            }
            Expr::If(c, t, el) => {
                let wt = self.walk(t, live_out);
                let we = self.walk(el, live_out);
                let sv_t = wt.st & wt.sf & self.allocatable();
                let sv_e = we.st & we.sf & self.allocatable();
                let lazy = self.cfg.save == SaveStrategy::Lazy;
                let wrap = |sv: RegSet, w: AExpr| -> AExpr {
                    if lazy && !sv.is_empty() {
                        AExpr::Save {
                            regs: sv,
                            live_out,
                            exit_restore: RegSet::EMPTY,
                            body: Box::new(w),
                        }
                    } else {
                        w
                    }
                };
                let (then_a, else_a) = if sv_t == sv_e {
                    // Covered by the enclosing save set.
                    (wt.a, we.a)
                } else {
                    (wrap(sv_t, wt.a), wrap(sv_e, we.a))
                };
                let predict = if self.cfg.branch_prediction {
                    // §6: paths without calls are assumed likely.
                    let t_leafy = !sv_t.contains(RET);
                    let e_leafy = !sv_e.contains(RET);
                    match (t_leafy, e_leafy) {
                        (true, false) => Some(true),
                        (false, true) => Some(false),
                        _ => None,
                    }
                } else {
                    None
                };
                let wc = self.walk(c, wt.live_in | we.live_in);
                let st = (wc.st | wt.st) & (wc.sf | we.st);
                let sf = (wc.st | wt.sf) & (wc.sf | we.sf);
                Walked {
                    a: AExpr::If {
                        cond: Box::new(wc.a),
                        then: Box::new(then_a),
                        els: Box::new(else_a),
                        predict,
                    },
                    live_in: wc.live_in,
                    st,
                    sf,
                    call_live: wc.call_live | wt.call_live | we.call_live,
                }
            }
            Expr::Seq(es) => {
                let mut live = live_out;
                let mut walked: Vec<Walked> = Vec::with_capacity(es.len());
                for e in es.iter().rev() {
                    let w = self.walk(e, live);
                    live = w.live_in;
                    walked.push(w);
                }
                walked.reverse();
                let mut stsf = (walked[0].st, walked[0].sf);
                for w in &walked[1..] {
                    stsf = Self::seq_combine(stsf, (w.st, w.sf));
                }
                let call_live = walked
                    .iter()
                    .fold(RegSet::EMPTY, |acc, w| acc | w.call_live);
                Walked {
                    a: AExpr::Seq(walked.into_iter().map(|w| w.a).collect()),
                    live_in: live,
                    st: stsf.0,
                    sf: stsf.1,
                    call_live,
                }
            }
            Expr::Let { var, rhs, body } => {
                let home = self.homes.of(*var);
                let wb = self.walk(body, live_out);
                let rhs_live_out = match home {
                    Home::Reg(r) => wb.live_in.remove(r),
                    Home::Slot(_) => wb.live_in,
                };
                let wr = self.walk(rhs, rhs_live_out);

                // A register home is defined *here*: a save for it can
                // never float above this binding. When the body makes
                // the save necessary, place it right after the binding;
                // in all cases mask the register out of the sets
                // propagated upward.
                let (mut bst, mut bsf) = (wb.st, wb.sf);
                let mut b_call = wb.call_live;
                let mut body_a = wb.a;
                if let Home::Reg(r) = home {
                    let needs_here = match self.cfg.save {
                        SaveStrategy::Lazy => (bst & bsf).contains(r),
                        // Early = save at the earliest *valid* point,
                        // which for a let-bound register is its binding.
                        SaveStrategy::Early => wb.call_live.contains(r),
                        SaveStrategy::Late => false,
                    };
                    if needs_here {
                        body_a = AExpr::Save {
                            regs: RegSet::single(r),
                            live_out,
                            exit_restore: RegSet::EMPTY,
                            body: Box::new(body_a),
                        };
                    }
                    bst = bst.remove(r);
                    bsf = bsf.remove(r);
                    // The register's call-liveness inside the body
                    // belongs to *this* binding's live range, not to
                    // whatever the register held at entry, so it must
                    // not leak into the root save set either (saving
                    // the stale entry value there would later be
                    // restored over this binding's value).
                    b_call = b_call.remove(r);
                }
                let (st, sf) = Self::seq_combine((wr.st, wr.sf), (bst, bsf));
                Walked {
                    a: AExpr::Bind {
                        home,
                        rhs: Box::new(wr.a),
                        body: Box::new(body_a),
                    },
                    live_in: wr.live_in,
                    st,
                    sf,
                    call_live: wr.call_live | b_call,
                }
            }
            Expr::PrimApp(p, args) => {
                let mut live = live_out;
                let mut walked: Vec<Walked> = Vec::with_capacity(args.len());
                for a in args.iter().rev() {
                    let w = self.walk(a, live);
                    live = w.live_in;
                    walked.push(w);
                }
                walked.reverse();
                let musts = walked
                    .iter()
                    .fold(RegSet::EMPTY, |acc, w| acc | (w.st & w.sf));
                let (st, sf) = if *p == Prim::Not && walked.len() == 1 {
                    // Figure 1: S_t[(not E)] = S_f[E], S_f[(not E)] = S_t[E].
                    (walked[0].sf, walked[0].st)
                } else if prim_never_false(*p) {
                    (musts, RegSet::ALL)
                } else {
                    (musts, musts)
                };
                let call_live = walked
                    .iter()
                    .fold(RegSet::EMPTY, |acc, w| acc | w.call_live);
                Walked {
                    a: AExpr::PrimApp(*p, walked.into_iter().map(|w| w.a).collect()),
                    live_in: live,
                    st,
                    sf,
                    call_live,
                }
            }
            Expr::Call { callee, args, tail } => self.walk_call(callee, args, *tail, live_out),
            Expr::MakeClosure { func, free } => {
                let mut live = live_out;
                let mut walked: Vec<Walked> = Vec::with_capacity(free.len());
                for e in free.iter().rev() {
                    let w = self.walk(e, live);
                    live = w.live_in;
                    walked.push(w);
                }
                walked.reverse();
                let musts = walked
                    .iter()
                    .fold(RegSet::EMPTY, |acc, w| acc | (w.st & w.sf));
                let call_live = walked
                    .iter()
                    .fold(RegSet::EMPTY, |acc, w| acc | w.call_live);
                Walked {
                    a: AExpr::MakeClosure {
                        func: *func,
                        free: walked.into_iter().map(|w| w.a).collect(),
                    },
                    live_in: live,
                    st: musts,
                    sf: RegSet::ALL,
                    call_live,
                }
            }
            Expr::ClosureSet { clo, index, value } => {
                let wv = self.walk(value, live_out);
                let wc = self.walk(clo, wv.live_in);
                let must = (wc.st & wc.sf) | (wv.st & wv.sf);
                Walked {
                    a: AExpr::ClosureSet {
                        clo: Box::new(wc.a),
                        index: *index,
                        value: Box::new(wv.a),
                    },
                    live_in: wc.live_in,
                    st: must,
                    sf: RegSet::ALL,
                    call_live: wc.call_live | wv.call_live,
                }
            }
        }
    }
}

/// Runs pass 1 on one function.
pub fn run(func: &Func, homes: &Homes, cfg: &AllocConfig) -> Pass1Result {
    let mut p = Pass1 {
        homes,
        cfg,
        max_temps: 0,
    };
    // `ret` is referenced by the return itself, so it is live on exit
    // from every body.
    let live_out = RegSet::single(RET);
    let w = p.walk(&func.body, live_out);
    let must = w.st & w.sf & cfg.machine.allocatable();
    let call_inevitable = must.contains(RET);
    // Only registers defined at entry (parameter homes, ret, cp) may be
    // saved at the body root; let-bound register homes save at their
    // binding points.
    let entry_regs: RegSet = (0..func.n_params.min(cfg.machine.num_arg_regs))
        .map(lesgs_ir::machine::arg_reg)
        .chain([RET, CP])
        .collect();
    let root_save = match cfg.save {
        SaveStrategy::Lazy => must & entry_regs,
        SaveStrategy::Early => w.call_live & entry_regs,
        SaveStrategy::Late => RegSet::EMPTY,
    };
    let body = if root_save.is_empty() {
        w.a
    } else {
        AExpr::Save {
            regs: root_save,
            live_out,
            exit_restore: RegSet::EMPTY,
            body: Box::new(w.a),
        }
    };
    Pass1Result {
        body,
        call_inevitable,
        max_shuffle_temps: p.max_temps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AllocConfig;
    use crate::homes;
    use lesgs_frontend::pipeline;

    fn pass1(src: &str, name: &str, cfg: &AllocConfig) -> Pass1Result {
        let p = pipeline::front_to_closed(src).unwrap();
        let f = p.funcs.iter().find(|f| f.name == name).unwrap();
        let h = homes::assign(f, &cfg.machine, cfg.discipline);
        run(f, &h, cfg)
    }

    #[test]
    fn leaf_function_has_no_saves() {
        let cfg = AllocConfig::paper_default();
        let r = pass1("(define (f x) (+ x 1)) (f 1)", "f", &cfg);
        assert_eq!(r.body.count_saves(), 0);
        assert!(!r.call_inevitable);
    }

    #[test]
    fn tail_recursive_loop_has_no_saves() {
        // Tail calls are jumps: an iterative loop never saves ret.
        let cfg = AllocConfig::paper_default();
        let r = pass1(
            "(define (loop i) (if (zero? i) 0 (loop (- i 1)))) (loop 9)",
            "loop",
            &cfg,
        );
        assert_eq!(r.body.count_saves(), 0);
        assert!(!r.call_inevitable);
    }

    #[test]
    fn non_tail_recursion_saves_lazily_in_branch() {
        // fact: base case is call-free, so the save must sit in the
        // recursive branch, not around the body.
        let cfg = AllocConfig::paper_default();
        let r = pass1(
            "(define (fact n) (if (zero? n) 1 (* n (fact (- n 1))))) (fact 5)",
            "fact",
            &cfg,
        );
        assert!(!r.call_inevitable, "base case path makes no call");
        // Root is not a Save node...
        assert!(!matches!(r.body, AExpr::Save { .. }));
        // ...but the recursive branch saves ret and n's register.
        assert!(r.body.count_saves() >= 1);
        let mut found = false;
        r.body.visit(&mut |e| {
            if let AExpr::Save { regs, .. } = e {
                assert!(regs.contains(RET), "ret saved where call inevitable");
                found = true;
            }
        });
        assert!(found);
    }

    #[test]
    fn early_strategy_saves_at_entry() {
        let cfg = AllocConfig {
            save: SaveStrategy::Early,
            ..AllocConfig::paper_default()
        };
        let r = pass1(
            "(define (fact n) (if (zero? n) 1 (* n (fact (- n 1))))) (fact 5)",
            "fact",
            &cfg,
        );
        // Early: the body root is a save (even though the base case
        // never needs it).
        assert!(matches!(r.body, AExpr::Save { .. }));
    }

    #[test]
    fn late_strategy_saves_at_calls() {
        let cfg = AllocConfig {
            save: SaveStrategy::Late,
            ..AllocConfig::paper_default()
        };
        let r = pass1("(define (g x) (+ (g x) (g x))) (g 1)", "g", &cfg);
        // Two calls, two saves (the second is redundant but late saves
        // don't know that).
        assert_eq!(r.body.count_saves(), 2);
        assert!(!matches!(r.body, AExpr::Save { .. }));
    }

    #[test]
    fn call_inevitable_when_both_branches_call() {
        let cfg = AllocConfig::paper_default();
        let r = pass1(
            "(define (g x) (if (zero? x) (g 1) (g 2)))
             (define (h x) (+ (g x) 1))
             (h 1)",
            "h",
            &cfg,
        );
        assert!(r.call_inevitable);
        assert!(matches!(r.body, AExpr::Save { .. }), "save hoisted to body");
    }

    #[test]
    fn short_circuit_and_saves_hoisted() {
        // The §2.1.2 motivating example: (if (and x (g x)) y (+ (g y) 1))
        // must save at the top even though the inner if alone saves
        // nothing. (The else branch makes a non-tail call; a bare
        // (g y) would be a tail call, i.e. a jump, not a call.)
        let cfg = AllocConfig::paper_default();
        let r = pass1(
            "(define (g x) (if (zero? x) (g 1) 0))
             (define (f x y) (if (and (odd? x) (zero? (g x))) y (+ (g y) 1)))
             (f 1 2)",
            "f",
            &cfg,
        );
        assert!(r.call_inevitable, "every path through f calls g");
        assert!(matches!(r.body, AExpr::Save { .. }));
    }

    #[test]
    fn baseline_config_still_saves_ret() {
        let cfg = AllocConfig::baseline();
        let r = pass1(
            "(define (fact n) (if (zero? n) 1 (* n (fact (- n 1))))) (fact 5)",
            "fact",
            &cfg,
        );
        let mut saw_ret = false;
        r.body.visit(&mut |e| {
            if let AExpr::Save { regs, .. } = e {
                saw_ret = saw_ret || regs.contains(RET);
            }
        });
        assert!(saw_ret);
    }
}
