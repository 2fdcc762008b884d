//! Static validation of allocated code.
//!
//! A forward abstract interpretation over [`AExpr`] checks that:
//!
//! * no register is read while stale (clobbered by a call and not yet
//!   restored),
//! * every restore loads from a slot that was actually saved,
//! * caller-save saves always store live (valid) register contents.
//!
//! The checker is used by tests across the whole benchmark suite and
//! every configuration; a violation indicates a save/restore placement
//! bug.

use lesgs_ir::machine::{CP, RET};
use lesgs_ir::RegSet;

use crate::alloc::{AExpr, AllocatedFunc, AllocatedProgram, Dest, Home, Step, TempLoc};

/// A validation failure.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyError {
    /// Function name.
    pub func: String,
    /// Description of the violation.
    pub message: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "verify error in {}: {}", self.func, self.message)
    }
}

impl std::error::Error for VerifyError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct State {
    /// Registers currently holding the value the code expects.
    valid: RegSet,
    /// Registers with up-to-date save slots.
    saved: RegSet,
}

impl State {
    fn meet(a: State, b: State) -> State {
        State {
            valid: a.valid & b.valid,
            saved: a.saved & b.saved,
        }
    }
}

struct Checker<'a> {
    func: &'a AllocatedFunc,
    allocatable: RegSet,
    errors: Vec<VerifyError>,
}

impl Checker<'_> {
    fn error(&mut self, message: String) {
        self.errors.push(VerifyError {
            func: self.func.name.clone(),
            message,
        });
    }

    fn check_read(&mut self, r: lesgs_ir::Reg, st: &State, what: &str) {
        if (self.allocatable.contains(r) || r.is_callee_save()) && !st.valid.contains(r) {
            self.error(format!("{what} reads stale register {r}"));
        }
    }

    fn restore(&mut self, regs: RegSet, st: &mut State) {
        for r in regs.iter() {
            if !st.saved.contains(r) {
                self.error(format!("restore of unsaved register {r}"));
            }
        }
        st.valid = st.valid | regs;
    }

    /// Walks `e`, mutating the state; the expression's value goes to an
    /// unspecified scratch location (not modeled).
    fn walk(&mut self, e: &AExpr, st: &mut State) {
        match e {
            AExpr::Const(_) => {}
            AExpr::ReadHome(Home::Reg(r)) => self.check_read(*r, st, "home"),
            AExpr::ReadHome(Home::Slot(_)) => {}
            AExpr::Global(_) => {}
            AExpr::GlobalSet { value, .. } => self.walk(value, st),
            AExpr::FreeRef(_) => self.check_read(CP, st, "free-ref"),
            AExpr::RestoreRegs(regs) => self.restore(*regs, st),
            AExpr::RegMove { src, dst } => {
                // Parameter moves read argument registers (exempt from
                // the callee-save validity model: they carry incoming
                // arguments by convention).
                if self.allocatable.contains(*src) {
                    self.check_read(*src, st, "move");
                }
                st.valid = st.valid.insert(*dst);
            }
            AExpr::If {
                cond, then, els, ..
            } => {
                self.walk(cond, st);
                let mut st_t = *st;
                let mut st_e = *st;
                self.walk(then, &mut st_t);
                self.walk(els, &mut st_e);
                *st = State::meet(st_t, st_e);
            }
            AExpr::Seq(es) => es.iter().for_each(|e| self.walk(e, st)),
            AExpr::Bind { home, rhs, body } => {
                self.walk(rhs, st);
                if let Home::Reg(r) = home {
                    st.valid = st.valid.insert(*r);
                }
                self.walk(body, st);
            }
            AExpr::PrimApp(_, args) => args.iter().for_each(|a| self.walk(a, st)),
            AExpr::Save {
                regs,
                exit_restore,
                body,
                ..
            } => {
                for r in regs.iter() {
                    // Callee-save slots archive the *caller's* values,
                    // which are valid to store by convention.
                    if !r.is_callee_save() && !st.valid.contains(r) {
                        self.error(format!("save stores stale register {r}"));
                    }
                }
                st.saved = st.saved | *regs;
                self.walk(body, st);
                self.restore(*exit_restore, st);
            }
            AExpr::Call(c) => {
                // Execute the plan in order.
                for step in &c.plan.steps {
                    match step {
                        Step::Eval { arg, dst } => {
                            let expr: &AExpr = match arg {
                                crate::alloc::ArgRef::Arg(i) => &c.args[*i as usize],
                                crate::alloc::ArgRef::Closure => {
                                    c.closure.as_deref().expect("closure present")
                                }
                            };
                            self.walk(expr, st);
                            if let Dest::Reg(r) | Dest::Temp(TempLoc::Reg(r)) = dst {
                                st.valid = st.valid.insert(*r);
                            }
                        }
                        Step::Move { from, dst } => {
                            if let TempLoc::Reg(r) = from {
                                self.check_read(*r, st, "shuffle move");
                            }
                            if let Dest::Reg(r) | Dest::Temp(TempLoc::Reg(r)) = dst {
                                st.valid = st.valid.insert(*r);
                            }
                        }
                    }
                }
                if c.tail {
                    // Restores on a tail call sit between the shuffle
                    // and the jump.
                    self.restore(c.restore, st);
                    self.check_read(RET, st, "tail jump");
                    return;
                }
                // The call clobbers every allocatable register.
                st.valid = st.valid - self.allocatable;
                self.restore(c.restore, st);
            }
            AExpr::MakeClosure { free, .. } => free.iter().for_each(|a| self.walk(a, st)),
            AExpr::ClosureSet { clo, value, .. } => {
                self.walk(clo, st);
                self.walk(value, st);
            }
        }
    }
}

/// Verifies one allocated function.
pub fn verify_func(func: &AllocatedFunc, config: &crate::config::AllocConfig) -> Vec<VerifyError> {
    let mut checker = Checker {
        func,
        allocatable: config.machine.allocatable(),
        errors: Vec::new(),
    };
    // On entry, argument registers hold parameters, cp holds the
    // closure, ret the return address. Callee-save registers hold the
    // caller's values, which the function must not *use* before homing
    // its parameters there.
    let mut st = State {
        valid: config.machine.allocatable(),
        saved: RegSet::EMPTY,
    };
    checker.walk(&func.body, &mut st);
    // `ret` must be valid at the (implicit) return.
    if !st.valid.contains(RET) {
        checker.error("ret is stale at function exit".to_owned());
    }
    checker.errors
}

/// Verifies a whole program, returning every violation found.
pub fn verify_program(program: &AllocatedProgram) -> Vec<VerifyError> {
    program
        .funcs
        .iter()
        .flat_map(|f| verify_func(f, &program.config))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AllocConfig, Discipline, RestoreStrategy, SaveStrategy};
    use crate::driver::allocate_program;
    use lesgs_frontend::pipeline;

    fn verify(src: &str, cfg: &AllocConfig) -> Vec<VerifyError> {
        let ir = pipeline::front_to_closed(src).unwrap();
        verify_program(&allocate_program(&ir, cfg))
    }

    const PROGRAMS: &[&str] = &[
        "(define (fact n) (if (zero? n) 1 (* n (fact (- n 1))))) (fact 5)",
        "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 10)",
        "(define (tak x y z)
           (if (not (< y x)) z
               (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))))
         (tak 6 3 1)",
        "(define (f a b) (if (zero? a) b (f b (- a 1)))) (f 5 0)",
        "(define (g h x) (h (h x)))
         (g (lambda (v) (+ v 1)) 1)",
        "(map (lambda (x) (* x x)) (list 1 2 3))",
    ];

    #[test]
    fn all_programs_verify_under_all_configs() {
        for src in PROGRAMS {
            for save in [SaveStrategy::Lazy, SaveStrategy::Early, SaveStrategy::Late] {
                for restore in [RestoreStrategy::Eager, RestoreStrategy::Lazy] {
                    for c in [0, 2, 6] {
                        let cfg = AllocConfig {
                            save,
                            restore,
                            machine: lesgs_ir::MachineConfig::with_arg_regs(c),
                            ..AllocConfig::paper_default()
                        };
                        let errors = verify(src, &cfg);
                        assert!(
                            errors.is_empty(),
                            "save={save:?} restore={restore:?} c={c}: {errors:?}\nsrc={src}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn callee_save_configs_verify() {
        for src in PROGRAMS {
            for save in [SaveStrategy::Lazy, SaveStrategy::Early] {
                let cfg = AllocConfig {
                    discipline: Discipline::CalleeSave,
                    save,
                    ..AllocConfig::paper_default()
                };
                let errors = verify(src, &cfg);
                assert!(
                    errors.is_empty(),
                    "callee-save {save:?}: {errors:?}\nsrc={src}"
                );
            }
        }
    }
}
