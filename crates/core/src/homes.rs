//! Home assignment: deciding where each local variable lives.
//!
//! Parameters `0..c` arrive in argument registers and keep them as
//! their homes; remaining parameters live in incoming stack slots.
//! `let`-bound variables take any argument register free over their
//! scope ("Any unused registers … are available for intraprocedural
//! allocation, both for user variables and compiler temporaries", §1),
//! spilling to the frame when the register file is exhausted.
//!
//! Under the callee-save discipline (§2.4) variables are homed in
//! callee-save registers instead; the save machinery inserts the
//! parameter moves.

use lesgs_ir::machine::{arg_reg, callee_reg, NUM_CALLEE_SAVE};
use lesgs_ir::{Expr, Func, MachineConfig, RegSet};

use crate::alloc::{Home, Slot};
use crate::config::Discipline;

/// The homes of one function's locals.
#[derive(Debug, Clone)]
pub struct Homes {
    /// Per-local home, indexed by `LocalId`.
    pub home: Vec<Home>,
    /// Number of spill slots used.
    pub n_spills: u32,
    /// Number of incoming stack-parameter slots.
    pub n_incoming: u32,
    /// Callee-save registers used as homes (callee-save discipline).
    pub callee_used: RegSet,
}

impl Homes {
    /// The home of local `i`.
    pub fn of(&self, i: lesgs_ir::LocalId) -> Home {
        self.home[i.index()]
    }
}

struct Assign {
    home: Vec<Home>,
    n_spills: u32,
    pool: Vec<lesgs_ir::Reg>,
    callee_used: RegSet,
}

impl Assign {
    fn pick(&mut self, in_use: RegSet) -> Option<lesgs_ir::Reg> {
        let r = self.pool.iter().copied().find(|r| !in_use.contains(*r))?;
        self.callee_used = self.callee_used.insert(r);
        Some(r)
    }

    fn walk(&mut self, e: &Expr, in_use: RegSet) {
        match e {
            Expr::Let { var, rhs, body } => {
                self.walk(rhs, in_use);
                let home = match self.pick(in_use) {
                    Some(r) => Home::Reg(r),
                    None => {
                        let s = Home::Slot(Slot::Spill(self.n_spills));
                        self.n_spills += 1;
                        s
                    }
                };
                self.home[var.index()] = home;
                let in_use = match home {
                    Home::Reg(r) => in_use.insert(r),
                    Home::Slot(_) => in_use,
                };
                self.walk(body, in_use);
            }
            other => other.for_each_child(&mut |c| self.walk(c, in_use)),
        }
    }
}

/// Marks which locals are referenced anywhere in the body.
fn referenced_locals(e: &Expr, out: &mut Vec<bool>) {
    if let Expr::Var(v) = e {
        out[v.index()] = true;
    }
    e.for_each_child(&mut |c| referenced_locals(c, out));
}

/// Assigns homes for every local of `func`.
pub fn assign(func: &Func, machine: &MachineConfig, discipline: Discipline) -> Homes {
    let c = machine.num_arg_regs;
    let mut home = vec![Home::Reg(arg_reg(0)); func.n_locals];
    let mut n_incoming = 0u32;
    let mut in_use = RegSet::EMPTY;
    let mut callee_used = RegSet::EMPTY;

    // "Registers containing non-live argument values are available for
    // intraprocedural allocation" (§1): a parameter that is never
    // referenced does not reserve its register (always sound — no read
    // can observe the reuse).
    let mut referenced = vec![false; func.n_locals];
    referenced_locals(&func.body, &mut referenced);

    // Parameters.
    for i in 0..func.n_params {
        home[i] = match discipline {
            Discipline::CallerSave if i < c => {
                let r = arg_reg(i);
                if referenced[i] {
                    in_use = in_use.insert(r);
                }
                Home::Reg(r)
            }
            Discipline::CalleeSave if i < c && i < NUM_CALLEE_SAVE => {
                // Parameter arrives in `a_i`; the save machinery moves
                // it to `k_i` when the function makes calls. Outside
                // call-inevitable regions it is still read from `a_i`,
                // so BOTH registers stay reserved.
                let r = callee_reg(i);
                in_use = in_use.insert(r).insert(arg_reg(i));
                callee_used = callee_used.insert(r);
                Home::Reg(r)
            }
            _ => {
                let s = Home::Slot(Slot::Param(n_incoming));
                n_incoming += 1;
                s
            }
        };
    }

    // Let-bound locals.
    // Let-bound locals draw from the argument registers under both
    // disciplines: under callee-save, only *parameters* move to the
    // callee-save registers (see `calleesave`); locals keep the normal
    // caller-save treatment so the lazy region placement stays sound.
    // With no argument registers (the Table 3 baseline) the pool is
    // empty and every local lives on the stack.
    let pool: Vec<lesgs_ir::Reg> = (0..c).map(arg_reg).collect();
    let mut a = Assign {
        home,
        n_spills: 0,
        pool,
        callee_used,
    };
    a.walk(&func.body, in_use);

    Homes {
        home: a.home,
        n_spills: a.n_spills,
        n_incoming,
        callee_used: a.callee_used,
    }
}

/// Registers that `reads` of an expression can mention: homes of
/// referenced locals plus `cp` for free-variable references. Reads
/// behind *non-tail* calls still count (callers decide relevance).
pub fn reg_reads(e: &Expr, homes: &Homes) -> RegSet {
    let mut set = RegSet::EMPTY;
    collect_reads(e, homes, &mut set);
    set
}

fn collect_reads(e: &Expr, homes: &Homes, out: &mut RegSet) {
    match e {
        Expr::Var(v) => {
            if let Home::Reg(r) = homes.of(*v) {
                *out = out.insert(r);
            }
        }
        Expr::FreeRef(_) => *out = out.insert(lesgs_ir::machine::CP),
        other => other.for_each_child(&mut |c| collect_reads(c, homes, out)),
    }
}

/// Registers *written* while evaluating the expression: the homes of
/// `let` bindings inside it. For argument-shuffling purposes a write
/// constrains evaluation order exactly like a read — the expression
/// must run before the written register receives a new argument value.
pub fn reg_writes(e: &Expr, homes: &Homes) -> RegSet {
    let mut set = RegSet::EMPTY;
    collect_writes(e, homes, &mut set);
    set
}

fn collect_writes(e: &Expr, homes: &Homes, out: &mut RegSet) {
    if let Expr::Let { var, .. } = e {
        if let Home::Reg(r) = homes.of(*var) {
            *out = out.insert(r);
        }
    }
    e.for_each_child(&mut |c| collect_writes(c, homes, out));
}

#[cfg(test)]
mod tests {
    use super::*;
    use lesgs_frontend::pipeline;
    use lesgs_ir::machine::CP;
    use lesgs_ir::LocalId;

    fn homes_for(src: &str, name: &str, c: usize) -> (Homes, lesgs_ir::Program) {
        let p = pipeline::front_to_closed(src).unwrap();
        let f = p.funcs.iter().find(|f| f.name == name).unwrap();
        let machine = MachineConfig::with_arg_regs(c);
        (assign(f, &machine, Discipline::CallerSave), p.clone())
    }

    #[test]
    fn params_take_arg_registers() {
        let (h, _) = homes_for("(define (f a b) (+ a b)) (f 1 2)", "f", 6);
        assert_eq!(h.of(LocalId(0)), Home::Reg(arg_reg(0)));
        assert_eq!(h.of(LocalId(1)), Home::Reg(arg_reg(1)));
        assert_eq!(h.n_incoming, 0);
    }

    #[test]
    fn excess_params_go_to_stack() {
        let (h, _) = homes_for("(define (f a b c) (+ a (+ b c))) (f 1 2 3)", "f", 2);
        assert_eq!(h.of(LocalId(0)), Home::Reg(arg_reg(0)));
        assert_eq!(h.of(LocalId(1)), Home::Reg(arg_reg(1)));
        assert_eq!(h.of(LocalId(2)), Home::Slot(Slot::Param(0)));
        assert_eq!(h.n_incoming, 1);
    }

    #[test]
    fn baseline_homes_everything_on_stack() {
        let (h, _) = homes_for("(define (f a) (let ((t (+ a 1))) (* t t))) (f 1)", "f", 0);
        assert_eq!(h.of(LocalId(0)), Home::Slot(Slot::Param(0)));
        assert!(matches!(h.of(LocalId(1)), Home::Slot(Slot::Spill(0))));
    }

    #[test]
    fn let_vars_avoid_param_registers() {
        let (h, _) = homes_for("(define (f a) (let ((t (+ a 1))) (* t a))) (f 1)", "f", 6);
        let Home::Reg(r) = h.of(LocalId(1)) else {
            panic!()
        };
        assert_ne!(r, arg_reg(0), "t must not share a's register");
    }

    #[test]
    fn spills_after_pool_exhausted() {
        // 2 arg regs, 2 params + 2 lets: the lets must spill.
        let (h, _) = homes_for(
            "(define (f a b)
               (let ((t (+ a b)))
                 (let ((u (* t a)))
                   (+ (+ t u) (+ a b)))))
             (f 1 2)",
            "f",
            2,
        );
        assert!(matches!(h.of(LocalId(2)), Home::Slot(Slot::Spill(_))));
        assert!(matches!(h.of(LocalId(3)), Home::Slot(Slot::Spill(_))));
        assert_eq!(h.n_spills, 2);
    }

    #[test]
    fn disjoint_scopes_can_share_registers() {
        let (h, _) = homes_for(
            "(define (f a)
               (+ (let ((t (+ a 1))) (* t t))
                  (let ((u (- a 1))) (* u u))))
             (f 1)",
            "f",
            6,
        );
        // t and u have disjoint scopes: same register is fine.
        let Home::Reg(rt) = h.of(LocalId(1)) else {
            panic!()
        };
        let Home::Reg(ru) = h.of(LocalId(2)) else {
            panic!()
        };
        assert_eq!(rt, ru);
    }

    #[test]
    fn reads_collects_homes_and_cp() {
        let src = "(define (f a) (lambda (x) (+ x a))) ((f 1) 2)";
        let p = pipeline::front_to_closed(src).unwrap();
        let lam = p
            .funcs
            .iter()
            .find(|f| f.name.starts_with("lambda@"))
            .unwrap();
        let machine = MachineConfig::six_registers();
        let h = assign(lam, &machine, Discipline::CallerSave);
        let reads = reg_reads(&lam.body, &h);
        assert!(reads.contains(arg_reg(0)), "reads x");
        assert!(reads.contains(CP), "reads captured a via cp");
    }

    #[test]
    fn callee_save_discipline_uses_k_registers() {
        let src = "(define (f a) (+ (f (- a 1)) 1)) (f 1)";
        let p = pipeline::front_to_closed(src).unwrap();
        let f = p.funcs.iter().find(|f| f.name == "f").unwrap();
        let machine = MachineConfig::six_registers();
        let h = assign(f, &machine, Discipline::CalleeSave);
        assert_eq!(h.of(LocalId(0)), Home::Reg(callee_reg(0)));
        assert!(h.callee_used.contains(callee_reg(0)));
    }

    #[test]
    fn dead_parameter_registers_are_reused() {
        // `b` is never referenced, so its register is free for `t`.
        let (h, _) = homes_for(
            "(define (f a b) (let ((t (+ a 1))) (* t a))) (f 1 2)",
            "f",
            2,
        );
        assert_eq!(
            h.of(LocalId(2)),
            Home::Reg(arg_reg(1)),
            "t reuses b's register"
        );
    }

    #[test]
    fn live_parameter_registers_are_not_reused() {
        let (h, _) = homes_for(
            "(define (f a b) (let ((t (+ a b)))  (* t a))) (f 1 2)",
            "f",
            2,
        );
        assert!(matches!(h.of(LocalId(2)), Home::Slot(Slot::Spill(_))));
    }

    #[test]
    fn pool_respects_max() {
        // The paper evaluates up to six argument registers.
        assert_eq!(MachineConfig::six_registers().num_arg_regs, 6);
    }
}
