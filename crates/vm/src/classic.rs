//! The classic decode-in-the-loop reference executor.
//!
//! This is the VM's original interpretation loop: every iteration
//! re-fetches the current function's `Vec<Instr>`, clones the
//! instruction (operand vectors included), and dispatches through one
//! big `match`. It is kept beside the pre-decoded engine
//! ([`crate::Machine`]) for two jobs:
//!
//! * **cross-checking** — differential tests run both engines and
//!   require byte-identical values, output, error messages, and
//!   [`crate::RunStats`] (decoding must not change a single counted
//!   event);
//! * **measuring** — the bench suite's dispatch-throughput table times
//!   this engine against the decoded one to quantify what pre-decoding
//!   buys.
//!
//! Both engines drive one machine (the crate-private `machine` module):
//! its state, its accounting, primitive evaluation, and the effect of
//! every instruction that neither branches nor calls. This engine keeps
//! only dispatch — per-function fetch with an `Instr` clone,
//! function-relative pcs, its own branches, call targets read through
//! `read(cp)`, the control flow of calls, tail calls and returns, and
//! the slow primitive path for every primitive — so the two can only
//! diverge in dispatch, exactly the part under test.

use lesgs_frontend::FuncId;
use lesgs_ir::machine::CP;

use crate::cost::CostModel;
use crate::decode::func_table;
use crate::exec::{VmError, VmOutcome};
use crate::instr::{CallTarget, Instr};
use crate::machine::{Step, Vm};
use crate::program::VmProgram;
use crate::value::Value;

/// The original, non-predecoded virtual machine (see the module docs
/// for why it is retained).
pub struct ClassicMachine<'a> {
    program: &'a VmProgram,
    vm: Vm,
    /// Function-relative pc into the current function's code.
    pc: u32,
}

impl<'a> ClassicMachine<'a> {
    /// Creates a machine for `program` with the given cost model.
    pub fn new(program: &'a VmProgram, cost: CostModel) -> ClassicMachine<'a> {
        ClassicMachine {
            program,
            vm: Vm::new(
                func_table(program),
                program.entry,
                &program.constants,
                program.n_globals,
                cost,
            ),
            pc: 0,
        }
    }

    /// Sets the instruction budget.
    #[must_use]
    pub fn with_fuel(mut self, max_instructions: u64) -> ClassicMachine<'a> {
        self.vm = self.vm.with_fuel(max_instructions);
        self
    }

    /// Enables frame poisoning: every callee frame starts as `Uninit`
    /// so reads of never-written slots fail loudly (used in tests).
    #[must_use]
    pub fn with_poison(mut self, poison: bool) -> ClassicMachine<'a> {
        self.vm = self.vm.with_poison(poison);
        self
    }

    /// Enables call-event tracing, like [`crate::Machine::with_trace`].
    #[must_use]
    pub fn with_trace(mut self, trace: bool) -> ClassicMachine<'a> {
        self.vm = self.vm.with_trace(trace);
        self
    }

    fn call_target(&mut self, target: CallTarget) -> Step<FuncId> {
        match target {
            CallTarget::Func(f) => Ok(f),
            CallTarget::ClosureCp => match self.vm.read(CP) {
                Value::Closure(c) => Ok(c.func),
                other => Err(format!("call of non-procedure `{}`", other.write_string())),
            },
        }
    }

    /// Runs the program to completion.
    ///
    /// # Errors
    ///
    /// Type errors, arity/stack violations, `(error …)`, stack
    /// overflow, or exceeding the instruction budget.
    pub fn run(mut self) -> Result<VmOutcome, VmError> {
        self.dispatch().map_err(|m| self.vm.err(self.pc, m))
    }

    fn dispatch(&mut self) -> Step<VmOutcome> {
        self.vm.enter_entry()?;
        loop {
            self.vm.tick()?;
            let code = &self.program.func(self.vm.func).code;
            let Some(instr) = code.get(self.pc as usize) else {
                return Err("program counter out of range".to_owned());
            };
            let instr = instr.clone();
            self.pc += 1;
            match instr {
                Instr::LoadImm { dst, imm } => self.vm.load_imm(dst, imm),
                Instr::LoadConst { dst, idx } => self.vm.load_const(dst, idx),
                Instr::Mov { dst, src } => self.vm.mov(dst, src),
                Instr::StackLoad { dst, slot, class } => self.vm.load_slot(dst, slot, class)?,
                Instr::StackStore { slot, src, class } => self.vm.store_slot(slot, src, class)?,
                Instr::Prim { op, dst, args } => self.vm.prim(op, dst, &args)?,
                Instr::Jump { target } => self.pc = target,
                Instr::BranchFalse {
                    src,
                    target,
                    likely,
                } => {
                    let taken = !self.vm.read(src).is_truthy();
                    if self.vm.branch(taken, likely) {
                        self.pc = target;
                    }
                }
                Instr::BranchTrue {
                    src,
                    target,
                    likely,
                } => {
                    let taken = self.vm.read(src).is_truthy();
                    if self.vm.branch(taken, likely) {
                        self.pc = target;
                    }
                }
                Instr::Call {
                    target,
                    frame_advance,
                } => {
                    let callee = self.call_target(target)?;
                    self.vm.enter_activation(callee, frame_advance, self.pc)?;
                    self.pc = 0;
                }
                Instr::TailCall { target } => {
                    let callee = self.call_target(target)?;
                    // A tail call is a jump: same activation, same fp.
                    self.vm.tail_call(callee);
                    self.pc = 0;
                }
                Instr::Return => self.pc = self.vm.ret()?.pc(),
                Instr::AllocClosure { dst, func, n_free } => {
                    self.vm.alloc_closure(dst, func, n_free);
                }
                Instr::ClosureSlotSet { clo, index, src } => {
                    self.vm.set_closure_slot(clo, index, src)?;
                }
                Instr::LoadFree { dst, index } => self.vm.load_free(dst, index)?,
                Instr::LoadGlobal { dst, index } => self.vm.load_global(dst, index)?,
                Instr::StoreGlobal { index, src } => self.vm.store_global(index, src)?,
                Instr::Halt => return Ok(self.vm.halt()),
            }
        }
    }
}
