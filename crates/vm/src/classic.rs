//! The classic decode-in-the-loop reference executor.
//!
//! This is the VM's original interpretation loop: every iteration
//! re-fetches the current function's `Vec<Instr>`, clones the
//! instruction (operand vectors included), and dispatches through one
//! big `match`. It is deliberately kept *as it was* when the
//! pre-decoded engine ([`crate::Machine`]) replaced it on the hot path,
//! for two jobs:
//!
//! * **cross-checking** — differential tests run both engines and
//!   require byte-identical values, output, error messages, and
//!   [`RunStats`] (decoding must not change a single counted event);
//! * **measuring** — the bench suite's dispatch-throughput table times
//!   this engine against the decoded one to quantify the win.
//!
//! Primitive semantics live in [`crate::prim`], shared with the decoded
//! engine, so the two can only diverge in dispatch — exactly the part
//! under test.

use std::cell::RefCell;
use std::rc::Rc;

use lesgs_frontend::{FuncId, Prim};
use lesgs_ir::machine::{CP, NUM_REGS, RET, RV};
use lesgs_ir::Reg;

use crate::cost::CostModel;
use crate::exec::{Activation, VmError, VmOutcome, FUEL_MESSAGE};
use crate::instr::{CallTarget, Instr};
use crate::prim::{eval_prim, ArgVals};
use crate::program::VmProgram;
use crate::stats::{ActivationClass, RunStats};
use crate::value::{const_to_value, imm_to_value, PatchedClosures, RetAddr, Value, VmClosure};

type Result<T> = std::result::Result<T, VmError>;

/// The original, non-predecoded virtual machine (see the module docs
/// for why it is retained).
pub struct ClassicMachine<'a> {
    program: &'a VmProgram,
    cost: CostModel,
    max_instructions: u64,
    poison_frames: bool,
    trace: bool,
    regs: Vec<Value>,
    ready: Vec<u64>,
    stack: Vec<Value>,
    fp: u32,
    func: FuncId,
    pc: u32,
    constants: Vec<Value>,
    globals: Vec<Value>,
    output: String,
    stats: RunStats,
    shadow: Vec<Activation>,
    patched: PatchedClosures,
}

impl<'a> ClassicMachine<'a> {
    /// Creates a machine for `program` with the given cost model.
    pub fn new(program: &'a VmProgram, cost: CostModel) -> ClassicMachine<'a> {
        ClassicMachine {
            program,
            cost,
            max_instructions: 2_000_000_000,
            poison_frames: false,
            trace: false,
            // Registers start as benign garbage (hardware registers
            // always hold *something*); uninitialized-read detection
            // applies to poisoned stack slots only.
            regs: vec![Value::Void; NUM_REGS],
            ready: vec![0; NUM_REGS],
            stack: Vec::new(),
            fp: 0,
            func: program.entry,
            pc: 0,
            constants: program.constants.iter().map(const_to_value).collect(),
            globals: vec![Value::Void; program.n_globals as usize],
            output: String::new(),
            stats: RunStats::default(),
            shadow: Vec::new(),
            patched: PatchedClosures::default(),
        }
    }

    /// Sets the instruction budget.
    #[must_use]
    pub fn with_fuel(mut self, max_instructions: u64) -> ClassicMachine<'a> {
        self.max_instructions = max_instructions;
        self
    }

    /// Enables frame poisoning: every callee frame starts as `Uninit`
    /// so reads of never-written slots fail loudly (used in tests).
    #[must_use]
    pub fn with_poison(mut self, poison: bool) -> ClassicMachine<'a> {
        self.poison_frames = poison;
        self
    }

    /// Enables call-event tracing, like [`crate::Machine::with_trace`].
    #[must_use]
    pub fn with_trace(mut self, trace: bool) -> ClassicMachine<'a> {
        self.trace = trace;
        self
    }

    fn err(&self, message: impl Into<String>) -> VmError {
        VmError {
            message: message.into(),
            at: Some((self.program.func(self.func).name.clone(), self.pc)),
        }
    }

    fn read(&mut self, r: Reg) -> Value {
        // Stall until the register's in-flight load completes.
        if self.ready[r.index()] > self.stats.cycles {
            self.stats.stall_cycles += self.ready[r.index()] - self.stats.cycles;
            self.stats.cycles = self.ready[r.index()];
        }
        self.regs[r.index()].clone()
    }

    fn write(&mut self, r: Reg, v: Value) {
        self.regs[r.index()] = v;
        self.ready[r.index()] = self.stats.cycles;
    }

    fn write_loaded(&mut self, r: Reg, v: Value) {
        self.regs[r.index()] = v;
        self.ready[r.index()] = self.stats.cycles + self.cost.load_latency;
    }

    fn slot_index(&self, slot: u32) -> usize {
        (self.fp + slot) as usize
    }

    fn stack_store(&mut self, slot: u32, v: Value) {
        let idx = self.slot_index(slot);
        if idx >= self.stack.len() {
            self.stack.resize(idx + 1, Value::Uninit);
        }
        self.stack[idx] = v;
    }

    fn stack_load(&mut self, slot: u32) -> Result<Value> {
        let idx = self.slot_index(slot);
        match self.stack.get(idx) {
            Some(Value::Uninit) | None => {
                Err(self.err(format!("read of uninitialized stack slot {slot}")))
            }
            Some(v) => Ok(v.clone()),
        }
    }

    fn enter_activation(&mut self, callee: FuncId, caller_fp: u32) {
        if let Some(top) = self.shadow.last_mut() {
            top.made_call = true;
        }
        self.stats.calls += 1;
        if self.trace {
            eprintln!(
                "trace: call {} depth={}",
                self.program.func(callee).name,
                self.shadow.len()
            );
        }
        self.shadow.push(Activation {
            func: callee,
            made_call: false,
            caller_fp,
        });
    }

    fn classify(&self, a: &Activation) -> ActivationClass {
        let f = self.program.func(a.func);
        match (a.made_call, f.syntactic_leaf, f.call_inevitable) {
            (false, true, _) => ActivationClass::SyntacticLeaf,
            (false, false, _) => ActivationClass::NonSyntacticLeaf,
            (true, _, true) => ActivationClass::SyntacticInternal,
            (true, _, false) => ActivationClass::NonSyntacticInternal,
        }
    }

    /// Pops and tallies the current activation, returning the caller's
    /// frame pointer (the current one when the stack is already empty,
    /// which only unverified code reaches).
    fn leave_activation(&mut self) -> u32 {
        let Some(a) = self.shadow.pop() else {
            return self.fp;
        };
        let class = self.classify(&a);
        if self.trace {
            eprintln!(
                "trace: return {} class={} depth={}",
                self.program.func(a.func).name,
                class.key(),
                self.shadow.len()
            );
        }
        self.stats.activations[class as usize] += 1;
        a.caller_fp
    }

    fn call_target(&mut self, target: CallTarget) -> Result<FuncId> {
        match target {
            CallTarget::Func(f) => Ok(f),
            CallTarget::ClosureCp => match self.read(CP) {
                Value::Closure(c) => Ok(c.func),
                other => Err(self.err(format!("call of non-procedure `{}`", other.write_string()))),
            },
        }
    }

    fn poison(&mut self, func: FuncId) {
        if !self.poison_frames {
            return;
        }
        let f = self.program.func(func);
        // Skip the incoming-parameter region: the caller wrote the
        // stack-passed arguments there just before the call.
        let lo = (self.fp + f.n_incoming) as usize;
        let hi = (self.fp + f.frame_size) as usize;
        if hi > self.stack.len() {
            self.stack.resize(hi, Value::Uninit);
        }
        for v in &mut self.stack[lo..hi] {
            *v = Value::Uninit;
        }
    }

    fn apply_prim(&mut self, p: Prim, dst: Reg, args: &[Reg]) -> Result<()> {
        let mut vals = ArgVals::new();
        for r in args {
            vals.push(self.read(*r));
        }
        let (result, from_memory) =
            eval_prim(p, &mut vals, &mut self.output).map_err(|m| self.err(m))?;
        if from_memory {
            self.write_loaded(dst, result);
        } else {
            self.write(dst, result);
        }
        if p.touches_memory() {
            self.stats.heap_ops += 1;
            self.stats.cycles += self.cost.mem_cost - self.cost.instr_cost;
        }
        Ok(())
    }

    /// Runs the program to completion.
    ///
    /// # Errors
    ///
    /// Type errors, arity/stack violations, `(error …)`, or exceeding
    /// the instruction budget.
    pub fn run(mut self) -> Result<VmOutcome> {
        // Bootstrap: the entry function's frame starts at 0.
        self.shadow.push(Activation {
            func: self.func,
            made_call: false,
            caller_fp: self.fp,
        });
        self.poison(self.func);
        loop {
            if self.stats.instructions >= self.max_instructions {
                return Err(self.err(FUEL_MESSAGE));
            }
            self.stats.instructions += 1;
            self.stats.cycles += self.cost.instr_cost;
            let code = &self.program.func(self.func).code;
            let Some(instr) = code.get(self.pc as usize) else {
                return Err(self.err("program counter out of range"));
            };
            let instr = instr.clone();
            self.pc += 1;
            match instr {
                Instr::LoadImm { dst, imm } => self.write(dst, imm_to_value(imm)),
                Instr::LoadConst { dst, idx } => {
                    let v = self.constants[idx as usize].clone();
                    self.write(dst, v);
                }
                Instr::Mov { dst, src } => {
                    let v = self.read(src);
                    self.write(dst, v);
                }
                Instr::StackLoad { dst, slot, class } => {
                    self.stats.cycles += self.cost.mem_cost - self.cost.instr_cost;
                    self.stats.stack_loads[class as usize] += 1;
                    let v = self.stack_load(slot)?;
                    self.write_loaded(dst, v);
                }
                Instr::StackStore { slot, src, class } => {
                    self.stats.cycles += self.cost.mem_cost - self.cost.instr_cost;
                    self.stats.stack_stores[class as usize] += 1;
                    let v = self.read(src);
                    self.stack_store(slot, v);
                }
                Instr::Prim { op, dst, args } => {
                    self.apply_prim(op, dst, &args)?;
                }
                Instr::Jump { target } => self.pc = target,
                Instr::BranchFalse {
                    src,
                    target,
                    likely,
                } => {
                    self.stats.branches += 1;
                    let v = self.read(src);
                    let fallthrough = v.is_truthy();
                    // Default static prediction: fallthrough.
                    let predicted_fallthrough = likely.unwrap_or(true);
                    if predicted_fallthrough != fallthrough {
                        self.stats.mispredicts += 1;
                        self.stats.cycles += self.cost.mispredict_penalty;
                    }
                    if !fallthrough {
                        self.pc = target;
                    }
                }
                Instr::BranchTrue {
                    src,
                    target,
                    likely,
                } => {
                    self.stats.branches += 1;
                    let v = self.read(src);
                    let fallthrough = !v.is_truthy();
                    let predicted_fallthrough = likely.unwrap_or(true);
                    if predicted_fallthrough != fallthrough {
                        self.stats.mispredicts += 1;
                        self.stats.cycles += self.cost.mispredict_penalty;
                    }
                    if !fallthrough {
                        self.pc = target;
                    }
                }
                Instr::Call {
                    target,
                    frame_advance,
                } => {
                    let callee = self.call_target(target)?;
                    self.write(RET, Value::RetAddr(RetAddr::new(self.func, self.pc)));
                    let caller_fp = self.fp;
                    self.fp += frame_advance;
                    self.func = callee;
                    self.pc = 0;
                    self.enter_activation(callee, caller_fp);
                    self.poison(callee);
                }
                Instr::TailCall { target } => {
                    let callee = self.call_target(target)?;
                    self.stats.tail_calls += 1;
                    if self.trace {
                        eprintln!(
                            "trace: tail-call {} depth={}",
                            self.program.func(callee).name,
                            self.shadow.len()
                        );
                    }
                    self.func = callee;
                    self.pc = 0;
                    // A tail call is a jump: same activation, same fp.
                }
                Instr::Return => match self.read(RET) {
                    Value::RetAddr(ra) => {
                        self.fp = self.leave_activation();
                        self.func = ra.func();
                        self.pc = ra.pc();
                    }
                    other => {
                        return Err(self.err(format!(
                            "return through non-address `{}`",
                            other.write_string()
                        )))
                    }
                },
                Instr::AllocClosure { dst, func, n_free } => {
                    self.stats.heap_ops += 1;
                    self.stats.closures_allocated += 1;
                    self.stats.cycles += self.cost.mem_cost - self.cost.instr_cost;
                    let clo = VmClosure {
                        func,
                        free: RefCell::new(vec![Value::Void; n_free as usize]),
                    };
                    self.write(dst, Value::Closure(Rc::new(clo)));
                }
                Instr::ClosureSlotSet { clo, index, src } => {
                    self.stats.heap_ops += 1;
                    self.stats.cycles += self.cost.mem_cost - self.cost.instr_cost;
                    let v = self.read(src);
                    match self.read(clo) {
                        Value::Closure(c) => {
                            c.set_free(index, v).map_err(|m| self.err(m))?;
                            self.patched.remember(&c);
                        }
                        other => {
                            return Err(
                                self.err(format!("closure-set! on `{}`", other.write_string()))
                            )
                        }
                    }
                }
                Instr::LoadFree { dst, index } => {
                    self.stats.heap_ops += 1;
                    self.stats.cycles += self.cost.mem_cost - self.cost.instr_cost;
                    match self.read(CP) {
                        Value::Closure(c) => {
                            let v = c.load_free(index).map_err(|m| self.err(m))?;
                            self.write_loaded(dst, v);
                        }
                        other => {
                            return Err(self.err(format!(
                                "free-variable reference through `{}`",
                                other.write_string()
                            )))
                        }
                    }
                }
                Instr::LoadGlobal { dst, index } => {
                    self.stats.heap_ops += 1;
                    self.stats.cycles += self.cost.mem_cost - self.cost.instr_cost;
                    let v = self
                        .globals
                        .get(index as usize)
                        .cloned()
                        .ok_or_else(|| self.err("global index out of range"))?;
                    self.write_loaded(dst, v);
                }
                Instr::StoreGlobal { index, src } => {
                    self.stats.heap_ops += 1;
                    self.stats.cycles += self.cost.mem_cost - self.cost.instr_cost;
                    let v = self.read(src);
                    match self.globals.get_mut(index as usize) {
                        Some(slot) => *slot = v,
                        None => return Err(self.err("global index out of range")),
                    }
                }
                Instr::Halt => {
                    while !self.shadow.is_empty() {
                        self.leave_activation();
                    }
                    let value = self.read(RV).write_string();
                    return Ok(VmOutcome {
                        value,
                        output: self.output,
                        stats: self.stats,
                    });
                }
            }
        }
    }
}
