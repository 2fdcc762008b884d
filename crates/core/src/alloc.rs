//! The allocator's output representation.
//!
//! [`AExpr`] is the IR after register allocation: variables are
//! replaced by their [`Home`]s, save/restore points and argument
//! shuffles are explicit, and every call carries its eager-restore set.
//! The code generator walks this tree linearly.

use std::fmt;

use lesgs_frontend::{Const, FuncId, Prim};
use lesgs_ir::{Reg, RegSet};

use crate::frame::FrameLayout;

/// Where a variable lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Home {
    /// In a register.
    Reg(Reg),
    /// In the frame: an incoming stack-parameter slot (`Param`) or a
    /// spill slot (`Spill`).
    Slot(Slot),
}

/// A logical frame slot; resolved to an offset by [`FrameLayout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// The `i`-th stack-passed incoming parameter (parameter `c + i`).
    Param(u32),
    /// The save slot dedicated to a register.
    Save(Reg),
    /// The `i`-th spilled local.
    Spill(u32),
    /// The `i`-th shuffle/expression temporary.
    Temp(u32),
}

impl fmt::Display for Home {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Home::Reg(r) => write!(f, "{r}"),
            Home::Slot(s) => write!(f, "{s}"),
        }
    }
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Slot::Param(i) => write!(f, "fp[param {i}]"),
            Slot::Save(r) => write!(f, "fp[save {r}]"),
            Slot::Spill(i) => write!(f, "fp[spill {i}]"),
            Slot::Temp(i) => write!(f, "fp[temp {i}]"),
        }
    }
}

/// A temporary location used during shuffling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TempLoc {
    /// A free argument register.
    Reg(Reg),
    /// The `i`-th frame temporary.
    Frame(u32),
}

impl fmt::Display for TempLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TempLoc::Reg(r) => write!(f, "{r}"),
            TempLoc::Frame(i) => write!(f, "fp[temp {i}]"),
        }
    }
}

/// A shuffle destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dest {
    /// An argument register (or `cp` for the closure).
    Reg(Reg),
    /// The `i`-th outgoing stack argument (parameter `c + i` of the
    /// callee), living just above the current frame.
    Out(u32),
    /// A temporary.
    Temp(TempLoc),
}

impl fmt::Display for Dest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dest::Reg(r) => write!(f, "{r}"),
            Dest::Out(i) => write!(f, "out[{i}]"),
            Dest::Temp(t) => write!(f, "{t}"),
        }
    }
}

/// Identifies an argument of a call during shuffling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgRef {
    /// `args[i]`.
    Arg(u16),
    /// The callee's closure expression (targeting `cp`).
    Closure,
}

/// One step of a shuffle plan, in execution order.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Evaluate an argument into a destination.
    Eval {
        /// Which argument.
        arg: ArgRef,
        /// Where its value goes.
        dst: Dest,
    },
    /// Move a temporary into its final destination.
    Move {
        /// Source temporary.
        from: TempLoc,
        /// Final destination.
        dst: Dest,
    },
}

/// The ordered argument-setup plan for one call site, plus the
/// statistics the paper reports in §3.1.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShufflePlan {
    /// Steps in execution order.
    pub steps: Vec<Step>,
    /// True if the dependency graph had a cycle.
    pub had_cycle: bool,
    /// Temporaries introduced to break cycles (greedy count).
    pub cycle_temps: u32,
    /// Temporaries an exhaustive search would have needed.
    pub optimal_temps: u32,
    /// Frame temporaries used in total (complex arguments + cycle
    /// breaking that spilled to the frame).
    pub frame_temps: u32,
    /// Number of register-targeted arguments (problem size).
    pub reg_args: u32,
}

/// How the allocated call reaches its target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ACallee {
    /// Jump/call to a known label; `cp` untouched.
    Direct(FuncId),
    /// Known label, closure loaded into `cp` by the plan.
    KnownClosure(FuncId),
    /// Unknown: `cp` loaded by the plan, code pointer read from the
    /// closure.
    Computed,
}

/// An allocated call site.
#[derive(Debug, Clone, PartialEq)]
pub struct CallNode {
    /// Target classification.
    pub callee: ACallee,
    /// Argument expressions (indexed by [`ArgRef::Arg`]).
    pub args: Vec<AExpr>,
    /// Closure expression, present unless `callee` is `Direct`.
    pub closure: Option<Box<AExpr>>,
    /// The shuffle plan.
    pub plan: ShufflePlan,
    /// Tail-call flag (a jump, not a call).
    pub tail: bool,
    /// Registers to restore immediately after the call (eager
    /// strategy; empty for tail calls).
    pub restore: RegSet,
    /// Registers live after the call — the paper's `S[call]`.
    pub live_after: RegSet,
}

/// An expression after register allocation.
#[derive(Debug, Clone, PartialEq)]
pub enum AExpr {
    /// A constant.
    Const(Const),
    /// Read a variable from its home.
    ReadHome(Home),
    /// Read captured value `i` through `cp`.
    FreeRef(u32),
    /// Read a top-level global location (a memory load).
    Global(u32),
    /// Write a top-level global location.
    GlobalSet {
        /// Slot index.
        index: u32,
        /// Value.
        value: Box<AExpr>,
    },
    /// Conditional; `predict` is the §6 static branch prediction
    /// (`Some(true)` = then-branch predicted taken).
    If {
        /// Condition.
        cond: Box<AExpr>,
        /// Then branch.
        then: Box<AExpr>,
        /// Else branch.
        els: Box<AExpr>,
        /// Static prediction, if enabled.
        predict: Option<bool>,
    },
    /// Sequencing.
    Seq(Vec<AExpr>),
    /// Bind a value to a home, then run the body.
    Bind {
        /// Destination home.
        home: Home,
        /// Value.
        rhs: Box<AExpr>,
        /// Scope.
        body: Box<AExpr>,
    },
    /// A primitive application.
    PrimApp(Prim, Vec<AExpr>),
    /// Save `regs` to their save slots, then run the body.
    Save {
        /// Registers to store.
        regs: RegSet,
        /// Registers live on exit from this region (used by the lazy
        /// restore strategy, Figure 2c).
        live_out: RegSet,
        /// Registers reloaded after the body's value is computed — the
        /// lazy restore strategy's region-exit restores (Figure 2c) and
        /// callee-save region epilogues.
        exit_restore: RegSet,
        /// The region.
        body: Box<AExpr>,
    },
    /// Reload `regs` from their save slots (lazy restores and
    /// callee-save region exits).
    RestoreRegs(RegSet),
    /// Register-to-register move (callee-save parameter homing).
    RegMove {
        /// Source.
        src: Reg,
        /// Destination.
        dst: Reg,
    },
    /// A call.
    Call(CallNode),
    /// Allocate a closure.
    MakeClosure {
        /// Code pointer.
        func: FuncId,
        /// Captured values.
        free: Vec<AExpr>,
    },
    /// Backpatch a closure slot.
    ClosureSet {
        /// Closure.
        clo: Box<AExpr>,
        /// Slot.
        index: u32,
        /// Value.
        value: Box<AExpr>,
    },
}

impl AExpr {
    /// Builds a `Seq`, collapsing singletons.
    ///
    /// # Panics
    ///
    /// Panics if `exprs` is empty.
    pub fn seq(mut exprs: Vec<AExpr>) -> AExpr {
        assert!(!exprs.is_empty());
        if exprs.len() == 1 {
            exprs.pop().expect("one element")
        } else {
            AExpr::Seq(exprs)
        }
    }

    /// Counts [`AExpr::Save`] nodes (diagnostics/tests).
    pub fn count_saves(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |e| {
            if matches!(e, AExpr::Save { .. }) {
                n += 1;
            }
        });
        n
    }

    /// Depth-first visit of every node.
    pub fn visit<'a>(&'a self, f: &mut dyn FnMut(&'a AExpr)) {
        f(self);
        self.for_each_child(&mut |c| c.visit(f));
    }

    /// Calls `f` on each direct child, in evaluation order.
    pub fn for_each_child<'a>(&'a self, f: &mut dyn FnMut(&'a AExpr)) {
        match self {
            AExpr::Const(_)
            | AExpr::ReadHome(_)
            | AExpr::FreeRef(_)
            | AExpr::Global(_)
            | AExpr::RestoreRegs(_)
            | AExpr::RegMove { .. } => {}
            AExpr::GlobalSet { value, .. } => f(value),
            AExpr::If {
                cond, then, els, ..
            } => {
                f(cond);
                f(then);
                f(els);
            }
            AExpr::Seq(es) => es.iter().for_each(f),
            AExpr::Bind { rhs, body, .. } => {
                f(rhs);
                f(body);
            }
            AExpr::PrimApp(_, args) => args.iter().for_each(f),
            AExpr::Save { body, .. } => f(body),
            AExpr::Call(c) => {
                if let Some(cl) = &c.closure {
                    f(cl);
                }
                c.args.iter().for_each(f);
            }
            AExpr::MakeClosure { free, .. } => free.iter().for_each(f),
            AExpr::ClosureSet { clo, value, .. } => {
                f(clo);
                f(value);
            }
        }
    }

    /// [`for_each_child`](AExpr::for_each_child) with mutable access, in
    /// the same order.
    pub fn for_each_child_mut(&mut self, f: &mut dyn FnMut(&mut AExpr)) {
        match self {
            AExpr::Const(_)
            | AExpr::ReadHome(_)
            | AExpr::FreeRef(_)
            | AExpr::Global(_)
            | AExpr::RestoreRegs(_)
            | AExpr::RegMove { .. } => {}
            AExpr::GlobalSet { value, .. } => f(value),
            AExpr::If {
                cond, then, els, ..
            } => {
                f(cond);
                f(then);
                f(els);
            }
            AExpr::Seq(es) => es.iter_mut().for_each(f),
            AExpr::Bind { rhs, body, .. } => {
                f(rhs);
                f(body);
            }
            AExpr::PrimApp(_, args) => args.iter_mut().for_each(f),
            AExpr::Save { body, .. } => f(body),
            AExpr::Call(c) => {
                if let Some(cl) = &mut c.closure {
                    f(cl);
                }
                c.args.iter_mut().for_each(f);
            }
            AExpr::MakeClosure { free, .. } => free.iter_mut().for_each(f),
            AExpr::ClosureSet { clo, value, .. } => {
                f(clo);
                f(value);
            }
        }
    }
}

impl fmt::Display for AExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AExpr::Const(c) => write!(f, "{c}"),
            AExpr::ReadHome(h) => write!(f, "{h}"),
            AExpr::FreeRef(i) => write!(f, "(free {i})"),
            AExpr::Global(g) => write!(f, "(global {g})"),
            AExpr::GlobalSet { index, value } => {
                write!(f, "(global-set! {index} {value})")
            }
            AExpr::If {
                cond,
                then,
                els,
                predict,
            } => match predict {
                Some(true) => write!(f, "(if/likely {cond} {then} {els})"),
                Some(false) => write!(f, "(if/unlikely {cond} {then} {els})"),
                None => write!(f, "(if {cond} {then} {els})"),
            },
            AExpr::Seq(es) => {
                write!(f, "(seq")?;
                for e in es {
                    write!(f, " {e}")?;
                }
                write!(f, ")")
            }
            AExpr::Bind { home, rhs, body } => {
                write!(f, "(bind (({home} {rhs})) {body})")
            }
            AExpr::PrimApp(p, args) => {
                write!(f, "(%{p}")?;
                for a in args {
                    write!(f, " {a}")?;
                }
                write!(f, ")")
            }
            AExpr::Save { regs, body, .. } => write!(f, "(save {regs} {body})"),
            AExpr::RestoreRegs(regs) => write!(f, "(restore {regs})"),
            AExpr::RegMove { src, dst } => write!(f, "(move {dst} {src})"),
            AExpr::Call(c) => {
                write!(f, "({}", if c.tail { "tailcall" } else { "call" })?;
                match c.callee {
                    ACallee::Direct(id) => write!(f, " {id}")?,
                    ACallee::KnownClosure(id) => write!(f, " {id}[cp]")?,
                    ACallee::Computed => write!(f, " [cp]")?,
                }
                for a in &c.args {
                    write!(f, " {a}")?;
                }
                if !c.restore.is_empty() {
                    write!(f, " (restore-after {})", c.restore)?;
                }
                write!(f, ")")
            }
            AExpr::MakeClosure { func, free } => {
                write!(f, "(closure {func}")?;
                for e in free {
                    write!(f, " {e}")?;
                }
                write!(f, ")")
            }
            AExpr::ClosureSet { clo, index, value } => {
                write!(f, "(closure-set! {clo} {index} {value})")
            }
        }
    }
}

/// A function after allocation.
#[derive(Debug, Clone)]
pub struct AllocatedFunc {
    /// Function id.
    pub id: FuncId,
    /// Diagnostic name.
    pub name: String,
    /// Parameter count.
    pub n_params: usize,
    /// Free-variable count.
    pub n_free: usize,
    /// Per-local homes.
    pub homes: Vec<Home>,
    /// The allocated body.
    pub body: AExpr,
    /// Frame layout.
    pub frame: FrameLayout,
    /// Syntactic-leaf flag (no non-tail calls).
    pub syntactic_leaf: bool,
    /// "Call inevitable" flag: every path through the body makes a call
    /// (`ret ∈ S_t ∩ S_f`, §2.4) — a *syntactic internal* node.
    pub call_inevitable: bool,
}

/// A whole allocated program.
#[derive(Debug, Clone)]
pub struct AllocatedProgram {
    /// All functions, indexed by [`FuncId`].
    pub funcs: Vec<AllocatedFunc>,
    /// Entry point.
    pub main: FuncId,
    /// Number of top-level global locations.
    pub n_globals: u32,
    /// Configuration used.
    pub config: crate::config::AllocConfig,
}

impl AllocatedProgram {
    /// Looks up a function.
    pub fn func(&self, id: FuncId) -> &AllocatedFunc {
        &self.funcs[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lesgs_ir::machine::{arg_reg, RET};

    #[test]
    fn mutable_traversal_reaches_the_same_children_in_order() {
        // Every variant and callee kind; `Fixnum` leaves numbered in
        // child order.
        let mut next = -1;
        let mut leaf = || {
            next += 1;
            Box::new(AExpr::Const(Const::Fixnum(next)))
        };
        let call = |callee, closure: Option<Box<AExpr>>, args: Vec<AExpr>| {
            AExpr::Call(CallNode {
                callee,
                args,
                closure,
                plan: ShufflePlan::default(),
                tail: false,
                restore: RegSet::EMPTY,
                live_after: RegSet::EMPTY,
            })
        };
        let mut e = AExpr::Seq(vec![
            AExpr::GlobalSet {
                index: 0,
                value: leaf(),
            },
            AExpr::If {
                cond: leaf(),
                then: leaf(),
                els: leaf(),
                predict: None,
            },
            AExpr::Bind {
                home: Home::Reg(RET),
                rhs: leaf(),
                body: leaf(),
            },
            AExpr::PrimApp(Prim::Add, vec![*leaf(), *leaf()]),
            AExpr::Save {
                regs: RegSet::EMPTY,
                live_out: RegSet::EMPTY,
                exit_restore: RegSet::EMPTY,
                body: leaf(),
            },
            call(
                ACallee::KnownClosure(FuncId(0)),
                Some(leaf()),
                vec![*leaf()],
            ),
            call(ACallee::Computed, Some(leaf()), vec![*leaf()]),
            call(ACallee::Direct(FuncId(0)), None, vec![*leaf()]),
            AExpr::MakeClosure {
                func: FuncId(1),
                free: vec![*leaf(), *leaf()],
            },
            AExpr::ClosureSet {
                clo: leaf(),
                index: 0,
                value: leaf(),
            },
            AExpr::ReadHome(Home::Reg(arg_reg(0))),
            AExpr::FreeRef(0),
            AExpr::Global(0),
            AExpr::RestoreRegs(RegSet::EMPTY),
            AExpr::RegMove {
                src: arg_reg(0),
                dst: RET,
            },
        ]);
        fn reached_mut(e: &mut AExpr, out: &mut Vec<*const AExpr>) {
            e.for_each_child_mut(&mut |c| {
                out.push(c);
                reached_mut(c, out);
            });
        }
        let mut unique = Vec::new();
        reached_mut(&mut e, &mut unique);
        let mut shared = Vec::new();
        e.visit(&mut |c| shared.push(c));
        let shared_ptrs: Vec<*const AExpr> = shared[1..].iter().map(|&c| c as *const _).collect();
        assert_eq!(shared_ptrs, unique);
        let variants: std::collections::HashSet<_> =
            shared.iter().copied().map(std::mem::discriminant).collect();
        assert_eq!(variants.len(), 15, "every variant is in the tree");
        let leaves: Vec<i64> = shared
            .iter()
            .filter_map(|c| match c {
                AExpr::Const(Const::Fixnum(n)) => Some(*n),
                _ => None,
            })
            .collect();
        assert_eq!(leaves, (0..18).collect::<Vec<_>>());
    }
}
