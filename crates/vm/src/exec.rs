//! The execution engine: a tight indexed dispatch loop over a
//! pre-decoded program.
//!
//! [`Machine`] executes the flat [`DecodedOp`] array built by
//! [`DecodedProgram::decode`] (see that module for the layout), one
//! op per source instruction. The hot loop never touches the original
//! [`VmProgram`]: ops are `Copy`, operands are inline, jump targets are
//! absolute, and the register file is a pair of fixed arrays — no
//! per-iteration allocation or indirection. The classic
//! decode-in-the-loop executor survives as
//! [`crate::classic::ClassicMachine`]; differential tests hold the two
//! to byte-identical outcomes and [`RunStats`], because the cost model
//! and every `vm.*` counter must observe exactly the same event stream
//! regardless of engine.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use lesgs_frontend::{FuncId, Prim};
use lesgs_ir::machine::{CP, NUM_REGS, RET, RV};
use lesgs_ir::Reg;

use crate::cost::CostModel;
use crate::decode::{DecodedOp, DecodedProgram, PrimArgs};
use crate::prim::{eval_prim, ArgVals};
use crate::program::VmProgram;
use crate::stats::{ActivationClass, RunStats};
use crate::value::{const_to_value, imm_to_value, PatchedClosures, RetAddr, Value, VmClosure};

/// A runtime failure (type error, fuel exhaustion, VM invariant
/// violation).
#[derive(Debug, Clone, PartialEq)]
pub struct VmError {
    /// Human-readable description.
    pub message: String,
    /// Function and instruction where it happened.
    pub at: Option<(String, u32)>,
}

/// The message every instruction-budget failure carries (the stable
/// marker behind [`VmError::is_fuel_exhausted`]).
pub(crate) const FUEL_MESSAGE: &str = "instruction budget exhausted";

impl VmError {
    /// Creates an error.
    pub fn new(message: impl Into<String>) -> VmError {
        VmError {
            message: message.into(),
            at: None,
        }
    }

    /// True when this error means the instruction budget ran out (as
    /// opposed to the program misbehaving) — differential drivers must
    /// not report a timeout as a miscompile.
    pub fn is_fuel_exhausted(&self) -> bool {
        self.message == FUEL_MESSAGE
    }
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.at {
            Some((name, pc)) => {
                write!(f, "vm error at {name}+{pc}: {}", self.message)
            }
            None => write!(f, "vm error: {}", self.message),
        }
    }
}

impl std::error::Error for VmError {}

/// The result of a successful run: the engine-independent observable
/// contract the classic-vs-decoded differential suite pins.
#[derive(Debug, Clone, PartialEq)]
pub struct VmOutcome {
    /// Final value (in `rv`), rendered in `write` style.
    pub value: String,
    /// Program output (`display`/`write`/`newline`).
    pub output: String,
    /// Collected statistics.
    pub stats: RunStats,
}

/// One entry of the shadow activation stack (for Table 2
/// classification; shared with the classic engine). `call` pushes one
/// and `return` pops it.
pub(crate) struct Activation {
    pub(crate) func: FuncId,
    pub(crate) made_call: bool,
    /// The caller's frame pointer, which `return` restores.
    pub(crate) caller_fp: u32,
}

/// The decoded program a [`Machine`] executes: decoded privately by
/// [`Machine::new`], or borrowed via [`Machine::from_decoded`] so many
/// runs (the bench harness, the config matrix) share one decode.
enum Code<'a> {
    Owned(Box<DecodedProgram>),
    Borrowed(&'a DecodedProgram),
    /// Placeholder left behind once [`Machine::run`] moves the program
    /// out to hold it by direct reference for the dispatch loop.
    Taken,
}

/// The virtual machine.
pub struct Machine<'a> {
    code: Code<'a>,
    cost: CostModel,
    max_instructions: u64,
    poison_frames: bool,
    trace: bool,
    regs: [Value; NUM_REGS],
    ready: [u64; NUM_REGS],
    stack: Vec<Value>,
    fp: u32,
    func: FuncId,
    /// Absolute pc into the decoded op array.
    pc: u32,
    constants: Vec<Value>,
    globals: Vec<Value>,
    output: String,
    stats: RunStats,
    shadow: Vec<Activation>,
    patched: PatchedClosures,
}

type Result<T> = std::result::Result<T, VmError>;

impl<'a> Machine<'a> {
    /// Creates a machine for `program` with the given cost model,
    /// decoding it on the spot. When the same program will run more
    /// than once, decode it yourself and use [`Machine::from_decoded`].
    pub fn new(program: &'a VmProgram, cost: CostModel) -> Machine<'a> {
        Machine::with_code(Code::Owned(Box::new(DecodedProgram::decode(program))), cost)
    }

    /// Creates a machine over an already-decoded program.
    pub fn from_decoded(program: &'a DecodedProgram, cost: CostModel) -> Machine<'a> {
        Machine::with_code(Code::Borrowed(program), cost)
    }

    fn with_code(code: Code<'a>, cost: CostModel) -> Machine<'a> {
        let prog = match &code {
            Code::Owned(p) => p.as_ref(),
            Code::Borrowed(p) => p,
            Code::Taken => unreachable!("machine constructed without code"),
        };
        let entry = prog.entry;
        let pc = prog.funcs[entry.index()].base;
        let constants = prog.constants.iter().map(const_to_value).collect();
        let n_globals = prog.n_globals as usize;
        Machine {
            code,
            cost,
            max_instructions: 2_000_000_000,
            poison_frames: false,
            trace: false,
            // Registers start as benign garbage (hardware registers
            // always hold *something*); uninitialized-read detection
            // applies to poisoned stack slots only.
            regs: std::array::from_fn(|_| Value::Void),
            ready: [0; NUM_REGS],
            stack: Vec::new(),
            fp: 0,
            func: entry,
            pc,
            constants,
            globals: vec![Value::Void; n_globals],
            output: String::new(),
            stats: RunStats::default(),
            shadow: Vec::new(),
            patched: PatchedClosures::default(),
        }
    }

    /// Sets the instruction budget.
    #[must_use]
    pub fn with_fuel(mut self, max_instructions: u64) -> Machine<'a> {
        self.max_instructions = max_instructions;
        self
    }

    /// Enables frame poisoning: every callee frame starts as `Uninit`
    /// so reads of never-written slots fail loudly (used in tests).
    #[must_use]
    pub fn with_poison(mut self, poison: bool) -> Machine<'a> {
        self.poison_frames = poison;
        self
    }

    /// Enables call-event tracing: every call, tail call, and return
    /// logs a `trace:` line to stderr (the `lesgsc --trace` backend).
    #[must_use]
    pub fn with_trace(mut self, trace: bool) -> Machine<'a> {
        self.trace = trace;
        self
    }

    /// Ignored: the machine has no speculative dispatch, and every
    /// closure call resolves through `cp`. Kept only because
    /// `perfbench/src/programs.rs` still calls it; nothing in the
    /// workspace does.
    #[must_use]
    pub fn with_speculation(self, _speculate: bool) -> Machine<'a> {
        self
    }

    #[inline]
    fn base(prog: &DecodedProgram, f: FuncId) -> u32 {
        prog.funcs[f.index()].base
    }

    /// Builds an error located at the given absolute pc, reported in
    /// the same function-relative coordinates as the classic engine.
    #[cold]
    fn err(&self, prog: &DecodedProgram, pc: u32, message: impl Into<String>) -> VmError {
        let info = &prog.funcs[self.func.index()];
        VmError {
            message: message.into(),
            at: Some((info.name.clone(), pc.saturating_sub(info.base))),
        }
    }

    /// The stall half of [`Machine::read`]: waits until the register's
    /// in-flight load completes, with the same cycle accounting. Fast
    /// paths stall first and then peek the register in place instead of
    /// cloning it; a stall is idempotent, so a fallback to `read` after
    /// a peek observes nothing extra.
    #[inline]
    fn stall_on(&mut self, r: Reg) {
        if self.ready[r.index()] > self.stats.cycles {
            self.stats.stall_cycles += self.ready[r.index()] - self.stats.cycles;
            self.stats.cycles = self.ready[r.index()];
        }
    }

    #[inline]
    fn read(&mut self, r: Reg) -> Value {
        self.stall_on(r);
        self.regs[r.index()].clone()
    }

    #[inline]
    fn write(&mut self, r: Reg, v: Value) {
        self.regs[r.index()] = v;
        self.ready[r.index()] = self.stats.cycles;
    }

    #[inline]
    fn write_loaded(&mut self, r: Reg, v: Value) {
        self.regs[r.index()] = v;
        self.ready[r.index()] = self.stats.cycles + self.cost.load_latency;
    }

    #[inline]
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

    fn stack_load(&mut self, prog: &DecodedProgram, pc: u32, slot: u32) -> Result<Value> {
        let idx = self.slot_index(slot);
        match self.stack.get(idx) {
            Some(Value::Uninit) | None => {
                Err(self.err(prog, pc, format!("read of uninitialized stack slot {slot}")))
            }
            Some(v) => Ok(v.clone()),
        }
    }

    fn enter_activation(&mut self, prog: &DecodedProgram, callee: FuncId, caller_fp: u32) {
        if let Some(top) = self.shadow.last_mut() {
            top.made_call = true;
        }
        self.stats.calls += 1;
        if self.trace {
            eprintln!(
                "trace: call {} depth={}",
                prog.funcs[callee.index()].name,
                self.shadow.len()
            );
        }
        self.shadow.push(Activation {
            func: callee,
            made_call: false,
            caller_fp,
        });
    }

    fn classify(prog: &DecodedProgram, a: &Activation) -> ActivationClass {
        let f = &prog.funcs[a.func.index()];
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
    fn leave_activation(&mut self, prog: &DecodedProgram) -> u32 {
        let Some(a) = self.shadow.pop() else {
            return self.fp;
        };
        let class = Machine::classify(prog, &a);
        if self.trace {
            eprintln!(
                "trace: return {} class={} depth={}",
                prog.funcs[a.func.index()].name,
                class.key(),
                self.shadow.len()
            );
        }
        self.stats.activations[class as usize] += 1;
        a.caller_fp
    }

    /// Resolves a through-`cp` call: reads (and possibly stalls on)
    /// `cp` *before* the return address is written, exactly as the
    /// classic engine's `call_target` did.
    fn closure_callee(&mut self, prog: &DecodedProgram, pc: u32) -> Result<FuncId> {
        self.stall_on(CP);
        match &self.regs[CP.index()] {
            Value::Closure(c) => Ok(c.func),
            other => Err(self.err(
                prog,
                pc,
                format!("call of non-procedure `{}`", other.write_string()),
            )),
        }
    }

    fn poison(&mut self, prog: &DecodedProgram, func: FuncId) {
        if !self.poison_frames {
            return;
        }
        let f = &prog.funcs[func.index()];
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

    /// Fast paths for the hottest primitives: operands are peeked in
    /// place (after the same stall accounting `read` performs) instead
    /// of being cloned into the shared evaluator's argument buffer.
    /// Returns `None` — having changed nothing but idempotent stall
    /// state — whenever the operands don't match the fast shape (wrong
    /// type, overflow, bad index), so the shared [`eval_prim`] stays
    /// the single owner of error semantics and the full catalogue.
    #[inline]
    fn try_fast_prim(&mut self, op: Prim, args: &PrimArgs) -> Option<(Value, bool)> {
        use Prim::*;
        let a = args.as_slice();
        for r in a {
            self.stall_on(*r);
        }
        macro_rules! fix {
            ($i:expr) => {
                match &self.regs[a[$i].index()] {
                    Value::Fixnum(n) => *n,
                    _ => return None,
                }
            };
        }
        let result = match op {
            Add => Value::Fixnum(fix!(0).checked_add(fix!(1))?),
            Sub => Value::Fixnum(fix!(0).checked_sub(fix!(1))?),
            Mul => Value::Fixnum(fix!(0).checked_mul(fix!(1))?),
            Add1 => Value::Fixnum(fix!(0).checked_add(1)?),
            Sub1 => Value::Fixnum(fix!(0).checked_sub(1)?),
            NumEq => Value::bool(fix!(0) == fix!(1)),
            Lt => Value::bool(fix!(0) < fix!(1)),
            Le => Value::bool(fix!(0) <= fix!(1)),
            Gt => Value::bool(fix!(0) > fix!(1)),
            Ge => Value::bool(fix!(0) >= fix!(1)),
            IsZero => Value::bool(fix!(0) == 0),
            // The shared rule; an error leaves it to `eval_prim`.
            Quotient | Remainder | Modulo | Abs | Min | Max | IsPositive | IsNegative | IsEven
            | IsOdd => {
                let b = if a.len() > 1 { fix!(1) } else { 0 };
                Value::from(op.apply_fixnum(fix!(0), b)?.ok()?)
            }
            Not => Value::bool(!self.regs[a[0].index()].is_truthy()),
            IsPair => Value::bool(matches!(self.regs[a[0].index()], Value::Pair(_))),
            IsNull => Value::bool(matches!(self.regs[a[0].index()], Value::Nil)),
            IsEq | IsEqv => Value::bool(self.regs[a[0].index()].eq_ptr(&self.regs[a[1].index()])),
            Car | Cdr => match &self.regs[a[0].index()] {
                Value::Pair(p) => {
                    let p = p.borrow();
                    let v = if op == Car { p.0.clone() } else { p.1.clone() };
                    return Some((v, true));
                }
                _ => return None,
            },
            VectorRef => match &self.regs[a[0].index()] {
                Value::Vector(v) => {
                    let i = fix!(1);
                    let v = v.borrow();
                    let idx = usize::try_from(i).ok().filter(|&i| i < v.len())?;
                    return Some((v[idx].clone(), true));
                }
                _ => return None,
            },
            VectorSet => {
                let i = fix!(1);
                let x = match &self.regs[a[0].index()] {
                    Value::Vector(v) => {
                        let len = v.borrow().len();
                        usize::try_from(i).ok().filter(|&i| i < len)?;
                        self.regs[a[2].index()].clone()
                    }
                    _ => return None,
                };
                match &self.regs[a[0].index()] {
                    Value::Vector(v) => v.borrow_mut()[i as usize] = x,
                    _ => unreachable!(),
                }
                Value::Void
            }
            _ => return None,
        };
        Some((result, false))
    }

    #[inline]
    fn exec_prim(
        &mut self,
        prog: &DecodedProgram,
        pc: u32,
        op: Prim,
        dst: Reg,
        args: &PrimArgs,
    ) -> Result<()> {
        let (result, from_memory) = match self.try_fast_prim(op, args) {
            Some(r) => r,
            None => {
                let mut vals = ArgVals::new();
                for r in args.as_slice() {
                    vals.push(self.read(*r));
                }
                eval_prim(op, &mut vals, &mut self.output).map_err(|m| self.err(prog, pc, m))?
            }
        };
        if from_memory {
            self.write_loaded(dst, result);
        } else {
            self.write(dst, result);
        }
        if op.touches_memory() {
            self.stats.heap_ops += 1;
            self.stats.cycles += self.cost.mem_cost - self.cost.instr_cost;
        }
        Ok(())
    }

    #[inline]
    fn exec_branch(
        &mut self,
        pc: &mut u32,
        src: Reg,
        target: u32,
        likely: Option<bool>,
        on_true: bool,
    ) {
        self.stats.branches += 1;
        // Peek the condition in place — truthiness needs no clone.
        self.stall_on(src);
        let taken = self.regs[src.index()].is_truthy() == on_true;
        // Default static prediction: fallthrough (a taken branch under
        // a fallthrough prediction mispredicts, and vice versa).
        let predicted_fallthrough = likely.unwrap_or(true);
        if predicted_fallthrough == taken {
            self.stats.mispredicts += 1;
            self.stats.cycles += self.cost.mispredict_penalty;
        }
        if taken {
            *pc = target;
        }
    }

    #[inline]
    fn do_call(&mut self, prog: &DecodedProgram, pc: &mut u32, callee: FuncId, frame_advance: u32) {
        // Return addresses stay function-relative so the value is
        // engine-independent (differential tests compare rendered
        // values, and save slots hold these).
        let ra = RetAddr::new(self.func, *pc - Machine::base(prog, self.func));
        self.write(RET, Value::RetAddr(ra));
        let caller_fp = self.fp;
        self.fp += frame_advance;
        self.func = callee;
        *pc = Machine::base(prog, callee);
        self.enter_activation(prog, callee, caller_fp);
        self.poison(prog, callee);
    }

    #[inline]
    fn do_tail_call(&mut self, prog: &DecodedProgram, pc: &mut u32, callee: FuncId) {
        self.stats.tail_calls += 1;
        if self.trace {
            eprintln!(
                "trace: tail-call {} depth={}",
                prog.funcs[callee.index()].name,
                self.shadow.len()
            );
        }
        self.func = callee;
        *pc = Machine::base(prog, callee);
        // A tail call is a jump: same activation, same fp.
    }

    /// Runs the program to completion.
    ///
    /// # Errors
    ///
    /// Type errors, arity/stack violations, `(error …)`, or exceeding
    /// the instruction budget.
    pub fn run(mut self) -> Result<VmOutcome> {
        // Move the program out of `self` so the dispatch loop holds it
        // by direct reference — no per-access enum match, and the op
        // array pointer stays hoisted across the whole loop.
        let code = std::mem::replace(&mut self.code, Code::Taken);
        match &code {
            Code::Owned(p) => self.run_on(p),
            Code::Borrowed(p) => self.run_on(p),
            Code::Taken => unreachable!("machine run twice"),
        }
    }

    fn run_on(&mut self, prog: &DecodedProgram) -> Result<VmOutcome> {
        let ops: &[DecodedOp] = &prog.ops;
        // The pc lives in a local so the hottest state of the loop can
        // stay in a register; helpers that redirect control flow take
        // `&mut u32`.
        let mut pc = self.pc;
        // Bootstrap: the entry function's frame starts at 0.
        self.shadow.push(Activation {
            func: self.func,
            made_call: false,
            caller_fp: self.fp,
        });
        self.poison(prog, self.func);
        loop {
            if self.stats.instructions >= self.max_instructions {
                return Err(self.err(prog, pc, FUEL_MESSAGE));
            }
            self.stats.instructions += 1;
            self.stats.cycles += self.cost.instr_cost;
            // In range by construction: every function ends in a
            // FuncEnd sentinel and all targets are clamped into its
            // own span, so the pc cannot run off the array.
            let op = ops[pc as usize];
            pc += 1;
            match op {
                DecodedOp::Imm { dst, imm } => {
                    self.write(dst, imm_to_value(imm));
                }
                DecodedOp::Const { dst, idx } => {
                    let v = self.constants[idx as usize].clone();
                    self.write(dst, v);
                }
                DecodedOp::Mov { dst, src } => {
                    let v = self.read(src);
                    self.write(dst, v);
                }
                DecodedOp::StackLoad { dst, slot, class } => {
                    self.stats.cycles += self.cost.mem_cost - self.cost.instr_cost;
                    self.stats.stack_loads[class as usize] += 1;
                    let v = self.stack_load(prog, pc, slot)?;
                    self.write_loaded(dst, v);
                }
                DecodedOp::StackStore { slot, src, class } => {
                    self.stats.cycles += self.cost.mem_cost - self.cost.instr_cost;
                    self.stats.stack_stores[class as usize] += 1;
                    let v = self.read(src);
                    self.stack_store(slot, v);
                }
                DecodedOp::Prim { op, dst, args } => {
                    self.exec_prim(prog, pc, op, dst, &args)?;
                }
                DecodedOp::Jump { target } => pc = target,
                DecodedOp::Branch {
                    src,
                    target,
                    likely,
                    on_true,
                } => self.exec_branch(&mut pc, src, target, likely, on_true),
                DecodedOp::CallStatic {
                    callee,
                    frame_advance,
                } => self.do_call(prog, &mut pc, callee, frame_advance),
                DecodedOp::CallClosure { frame_advance } => {
                    let callee = self.closure_callee(prog, pc)?;
                    self.do_call(prog, &mut pc, callee, frame_advance);
                }
                DecodedOp::TailCallStatic { callee } => self.do_tail_call(prog, &mut pc, callee),
                DecodedOp::TailCallClosure => {
                    let callee = self.closure_callee(prog, pc)?;
                    self.do_tail_call(prog, &mut pc, callee);
                }
                DecodedOp::Return => match self.read(RET) {
                    Value::RetAddr(ra) => {
                        self.fp = self.leave_activation(prog);
                        self.func = ra.func();
                        pc = Machine::base(prog, ra.func()) + ra.pc();
                    }
                    other => {
                        return Err(self.err(
                            prog,
                            pc,
                            format!("return through non-address `{}`", other.write_string()),
                        ))
                    }
                },
                DecodedOp::AllocClosure { dst, func, n_free } => {
                    self.stats.heap_ops += 1;
                    self.stats.closures_allocated += 1;
                    self.stats.cycles += self.cost.mem_cost - self.cost.instr_cost;
                    let clo = VmClosure {
                        func,
                        free: RefCell::new(vec![Value::Void; n_free as usize]),
                    };
                    self.write(dst, Value::Closure(Rc::new(clo)));
                }
                DecodedOp::ClosureSlotSet { clo, index, src } => {
                    self.stats.heap_ops += 1;
                    self.stats.cycles += self.cost.mem_cost - self.cost.instr_cost;
                    let v = self.read(src);
                    self.stall_on(clo);
                    match &self.regs[clo.index()] {
                        Value::Closure(c) => {
                            c.set_free(index, v).map_err(|m| self.err(prog, pc, m))?;
                            self.patched.remember(c);
                        }
                        other => {
                            return Err(self.err(
                                prog,
                                pc,
                                format!("closure-set! on `{}`", other.write_string()),
                            ))
                        }
                    }
                }
                DecodedOp::LoadFree { dst, index } => {
                    self.stats.heap_ops += 1;
                    self.stats.cycles += self.cost.mem_cost - self.cost.instr_cost;
                    self.stall_on(CP);
                    let v = match &self.regs[CP.index()] {
                        Value::Closure(c) => {
                            c.load_free(index).map_err(|m| self.err(prog, pc, m))?
                        }
                        other => {
                            return Err(self.err(
                                prog,
                                pc,
                                format!(
                                    "free-variable reference through `{}`",
                                    other.write_string()
                                ),
                            ))
                        }
                    };
                    self.write_loaded(dst, v);
                }
                DecodedOp::LoadGlobal { dst, index } => {
                    self.stats.heap_ops += 1;
                    self.stats.cycles += self.cost.mem_cost - self.cost.instr_cost;
                    let v = self
                        .globals
                        .get(index as usize)
                        .cloned()
                        .ok_or_else(|| self.err(prog, pc, "global index out of range"))?;
                    self.write_loaded(dst, v);
                }
                DecodedOp::StoreGlobal { index, src } => {
                    self.stats.heap_ops += 1;
                    self.stats.cycles += self.cost.mem_cost - self.cost.instr_cost;
                    let v = self.read(src);
                    match self.globals.get_mut(index as usize) {
                        Some(slot) => *slot = v,
                        None => return Err(self.err(prog, pc, "global index out of range")),
                    }
                }
                DecodedOp::Halt => {
                    while !self.shadow.is_empty() {
                        self.leave_activation(prog);
                    }
                    let value = self.read(RV).write_string();
                    return Ok(VmOutcome {
                        value,
                        output: std::mem::take(&mut self.output),
                        stats: std::mem::take(&mut self.stats),
                    });
                }
                DecodedOp::FuncEnd => {
                    // The classic engine reports the (unincremented)
                    // out-of-range pc; step back to match.
                    return Err(self.err(prog, pc - 1, "program counter out of range"));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classic::ClassicMachine;
    use crate::instr::{CallTarget, Imm, Instr, SlotClass};
    use crate::program::{VmFunc, VmProgram};
    use lesgs_ir::machine::{arg_reg, scratch_reg};

    /// Hand-assembled program: computes (2 + 3) * 7 via a helper call.
    fn tiny_program() -> VmProgram {
        let a0 = arg_reg(0);
        let a1 = arg_reg(1);
        let s0 = scratch_reg(0);
        // f0: add(a, b) -> rv
        let add = VmFunc {
            id: FuncId(0),
            name: "add".into(),
            code: vec![
                Instr::Prim {
                    op: Prim::Add,
                    dst: RV,
                    args: vec![a0, a1],
                },
                Instr::Return,
            ],
            frame_size: 0,
            n_incoming: 0,
            syntactic_leaf: true,
            call_inevitable: false,
        };
        // f1: main — saves ret, calls add(2,3), multiplies by 7.
        let main = VmFunc {
            id: FuncId(1),
            name: "main".into(),
            code: vec![
                Instr::StackStore {
                    slot: 0,
                    src: RET,
                    class: SlotClass::Save,
                },
                Instr::LoadImm {
                    dst: a0,
                    imm: Imm::Fixnum(2),
                },
                Instr::LoadImm {
                    dst: a1,
                    imm: Imm::Fixnum(3),
                },
                Instr::Call {
                    target: CallTarget::Func(FuncId(0)),
                    frame_advance: 1,
                },
                Instr::StackLoad {
                    dst: RET,
                    slot: 0,
                    class: SlotClass::Save,
                },
                Instr::LoadImm {
                    dst: s0,
                    imm: Imm::Fixnum(7),
                },
                Instr::Prim {
                    op: Prim::Mul,
                    dst: RV,
                    args: vec![RV, s0],
                },
                Instr::Return,
            ],
            frame_size: 1,
            n_incoming: 0,
            syntactic_leaf: false,
            call_inevitable: true,
        };
        // f2: entry — call main, halt.
        let entry = VmFunc {
            id: FuncId(2),
            name: "entry".into(),
            code: vec![
                Instr::Call {
                    target: CallTarget::Func(FuncId(1)),
                    frame_advance: 0,
                },
                Instr::Halt,
            ],
            frame_size: 0,
            n_incoming: 0,
            syntactic_leaf: false,
            call_inevitable: true,
        };
        VmProgram {
            funcs: vec![add, main, entry],
            entry: FuncId(2),
            constants: vec![],
            n_globals: 0,
        }
    }

    #[test]
    fn hand_assembled_program_runs() {
        let p = tiny_program();
        let out = Machine::new(&p, CostModel::alpha_like())
            .with_poison(true)
            .run()
            .unwrap();
        assert_eq!(out.value, "35");
        assert_eq!(out.stats.calls, 2);
        assert_eq!(out.stats.saves(), 1);
        assert_eq!(out.stats.restores(), 1);
        // add is a syntactic leaf activation.
        assert_eq!(
            out.stats.activations[ActivationClass::SyntacticLeaf as usize],
            1
        );
    }

    #[test]
    fn stalls_accrue_on_immediate_use() {
        // Using a loaded value immediately stalls for the latency.
        let a0 = arg_reg(0);
        let f = VmFunc {
            id: FuncId(0),
            name: "entry".into(),
            code: vec![
                Instr::LoadImm {
                    dst: a0,
                    imm: Imm::Fixnum(5),
                },
                Instr::StackStore {
                    slot: 0,
                    src: a0,
                    class: SlotClass::Temp,
                },
                Instr::StackLoad {
                    dst: a0,
                    slot: 0,
                    class: SlotClass::Temp,
                },
                Instr::Prim {
                    op: Prim::Add1,
                    dst: RV,
                    args: vec![a0],
                },
                Instr::Halt,
            ],
            frame_size: 1,
            n_incoming: 0,
            syntactic_leaf: true,
            call_inevitable: false,
        };
        let p = VmProgram {
            funcs: vec![f],
            entry: FuncId(0),
            constants: vec![],
            n_globals: 0,
        };
        let out = Machine::new(&p, CostModel::alpha_like()).run().unwrap();
        assert_eq!(out.value, "6");
        assert!(out.stats.stall_cycles > 0, "{:?}", out.stats);
        let unit = Machine::new(&p, CostModel::unit()).run().unwrap();
        assert_eq!(unit.stats.stall_cycles, 0);
    }

    #[test]
    fn uninitialized_slot_read_fails() {
        let f = VmFunc {
            id: FuncId(0),
            name: "entry".into(),
            code: vec![
                Instr::StackLoad {
                    dst: RV,
                    slot: 3,
                    class: SlotClass::Spill,
                },
                Instr::Halt,
            ],
            frame_size: 4,
            n_incoming: 0,
            syntactic_leaf: true,
            call_inevitable: false,
        };
        let p = VmProgram {
            funcs: vec![f],
            entry: FuncId(0),
            constants: vec![],
            n_globals: 0,
        };
        let err = Machine::new(&p, CostModel::unit()).run().unwrap_err();
        assert!(err.message.contains("uninitialized"));
    }

    #[test]
    fn fuel_exhaustion() {
        let f = VmFunc {
            id: FuncId(0),
            name: "entry".into(),
            code: vec![Instr::Jump { target: 0 }],
            frame_size: 0,
            n_incoming: 0,
            syntactic_leaf: true,
            call_inevitable: false,
        };
        let p = VmProgram {
            funcs: vec![f],
            entry: FuncId(0),
            constants: vec![],
            n_globals: 0,
        };
        let err = Machine::new(&p, CostModel::unit())
            .with_fuel(100)
            .run()
            .unwrap_err();
        assert!(err.message.contains("budget"));
    }

    #[test]
    fn globals_load_and_store() {
        let a0 = arg_reg(0);
        let f = VmFunc {
            id: FuncId(0),
            name: "entry".into(),
            code: vec![
                Instr::LoadImm {
                    dst: a0,
                    imm: Imm::Fixnum(41),
                },
                Instr::StoreGlobal { index: 1, src: a0 },
                Instr::LoadGlobal { dst: RV, index: 1 },
                Instr::Prim {
                    op: Prim::Add1,
                    dst: RV,
                    args: vec![RV],
                },
                Instr::Halt,
            ],
            frame_size: 0,
            n_incoming: 0,
            syntactic_leaf: true,
            call_inevitable: false,
        };
        let p = VmProgram {
            funcs: vec![f],
            entry: FuncId(0),
            constants: vec![],
            n_globals: 2,
        };
        let out = Machine::new(&p, CostModel::alpha_like()).run().unwrap();
        assert_eq!(out.value, "42");
        // Global traffic counts as heap operations with load latency.
        assert!(out.stats.heap_ops >= 2);
    }

    #[test]
    fn global_index_out_of_range_fails() {
        let f = VmFunc {
            id: FuncId(0),
            name: "entry".into(),
            code: vec![Instr::LoadGlobal { dst: RV, index: 5 }, Instr::Halt],
            frame_size: 0,
            n_incoming: 0,
            syntactic_leaf: true,
            call_inevitable: false,
        };
        let p = VmProgram {
            funcs: vec![f],
            entry: FuncId(0),
            constants: vec![],
            n_globals: 1,
        };
        let err = Machine::new(&p, CostModel::unit()).run().unwrap_err();
        assert!(err.message.contains("global"));
    }

    #[test]
    fn branch_prediction_penalties() {
        // Branch falls through on #t: no penalty with default
        // prediction; penalty when hinted the other way.
        let mk = |likely: Option<bool>| {
            let f = VmFunc {
                id: FuncId(0),
                name: "entry".into(),
                code: vec![
                    Instr::LoadImm {
                        dst: RV,
                        imm: Imm::Bool(true),
                    },
                    Instr::BranchFalse {
                        src: RV,
                        target: 3,
                        likely,
                    },
                    Instr::LoadImm {
                        dst: RV,
                        imm: Imm::Fixnum(1),
                    },
                    Instr::Halt,
                ],
                frame_size: 0,
                n_incoming: 0,
                syntactic_leaf: true,
                call_inevitable: false,
            };
            let p = VmProgram {
                funcs: vec![f],
                entry: FuncId(0),
                constants: vec![],
                n_globals: 0,
            };
            Machine::new(&p, CostModel::alpha_like())
                .run()
                .unwrap()
                .stats
        };
        assert_eq!(mk(None).mispredicts, 0);
        assert_eq!(mk(Some(true)).mispredicts, 0);
        assert_eq!(mk(Some(false)).mispredicts, 1);
    }

    /// A counting loop (acc = 3 + 2 + 1) whose exit path jumps past the
    /// first of two adjacent moves, so a jump landing mid-sequence must
    /// land exactly where the classic engine does.
    fn loop_program() -> VmProgram {
        let a0 = arg_reg(0);
        let a1 = arg_reg(1);
        let s0 = scratch_reg(0);
        let f = VmFunc {
            id: FuncId(0),
            name: "entry".into(),
            code: vec![
                // 0/1: counter = 3, acc = 0.
                Instr::LoadImm {
                    dst: a0,
                    imm: Imm::Fixnum(3),
                },
                Instr::LoadImm {
                    dst: a1,
                    imm: Imm::Fixnum(0),
                },
                // 2/3: loop exit test.
                Instr::Prim {
                    op: Prim::IsZero,
                    dst: s0,
                    args: vec![a0],
                },
                Instr::BranchTrue {
                    src: s0,
                    target: 7,
                    likely: Some(true),
                },
                // 4: acc += counter
                Instr::Prim {
                    op: Prim::Add,
                    dst: a1,
                    args: vec![a1, a0],
                },
                // 5: counter -= 1
                Instr::Prim {
                    op: Prim::Sub1,
                    dst: a0,
                    args: vec![a0],
                },
                // 6: back to the test.
                Instr::Jump { target: 2 },
                // 7/8: executed in full: rv <- s0 <- acc.
                Instr::Mov { dst: s0, src: a1 },
                Instr::Mov { dst: RV, src: s0 },
                // 9: skip the first move of the next two.
                Instr::Jump { target: 11 },
                // 10/11: entered mid-sequence via the jump — only
                // `s0 <- rv` runs; slot 10 never executes.
                Instr::Mov { dst: RV, src: a0 },
                Instr::Mov { dst: s0, src: RV },
                Instr::Halt,
            ],
            frame_size: 0,
            n_incoming: 0,
            syntactic_leaf: true,
            call_inevitable: false,
        };
        VmProgram {
            funcs: vec![f],
            entry: FuncId(0),
            constants: vec![],
            n_globals: 0,
        }
    }

    /// Every tiny test program must agree with the classic engine in
    /// values, stats, output, and error coordinates. The closure-call
    /// program alternates callees at one `call cp` site, then repeats
    /// one.
    #[test]
    fn classic_and_decoded_agree_on_hand_programs() {
        let programs = [
            tiny_program(),
            loop_program(),
            poly_call_program(&[0, 1, 0, 1, 0, 0, 0, 0, 0]),
            tail_entered_call_program(),
        ];
        for p in &programs {
            for cost in [CostModel::alpha_like(), CostModel::unit()] {
                let d = Machine::new(p, cost).with_poison(true).run().unwrap();
                let c = ClassicMachine::new(p, cost)
                    .with_poison(true)
                    .run()
                    .unwrap();
                assert_eq!(d.value, c.value);
                assert_eq!(d.output, c.output);
                assert_eq!(d.stats, c.stats);
            }
        }
    }

    /// The frame pointer a return restores comes from the activation
    /// that `call` pushed: `h`, entered by a tail call at fp 1, calls
    /// from its two-slot frame and then reads both slots back. Poisoned
    /// frames make a wrong fp fail instead of reading stale slots.
    #[test]
    fn return_restores_the_callers_frame_after_a_tail_call() {
        let p = tail_entered_call_program();
        assert_eq!(crate::verify_bytecode(&p), []);
        let d = Machine::new(&p, CostModel::alpha_like())
            .with_poison(true)
            .run()
            .unwrap();
        assert_eq!(d.value, "11");
        assert_eq!((d.stats.calls, d.stats.tail_calls), (3, 1));
    }

    /// `f` reads free slot 3 of a closure that has none, and `entry`
    /// backpatches slot 1 of a closure with one. The verifier cannot
    /// know which closure a register holds, so it accepts both; each
    /// engine must fail with the same located error, not panic.
    #[test]
    fn out_of_range_closure_slots_are_errors_in_both_engines() {
        let cases = [
            (
                closure_slot_program(false),
                "closure slot 3 out of range (the closure has 0)",
                ("f", 1),
            ),
            (
                closure_slot_program(true),
                "closure slot 1 out of range (the closure has 1)",
                ("entry", 2),
            ),
        ];
        for (p, message, (name, pc)) in cases {
            assert_eq!(crate::verify_bytecode(&p), []);
            let d = Machine::new(&p, CostModel::unit()).run().unwrap_err();
            let c = ClassicMachine::new(&p, CostModel::unit())
                .run()
                .unwrap_err();
            assert_eq!(d, c);
            assert_eq!(d.message, message);
            assert_eq!(d.at, Some((name.into(), pc)));
        }
    }

    /// With `set` false, `entry` calls a closure over `f` with no free
    /// slots and `f` loads free slot 3; with `set` true, `entry` sets
    /// free slot 1 of a one-slot closure.
    fn closure_slot_program(set: bool) -> VmProgram {
        let s0 = scratch_reg(0);
        let f = VmFunc {
            id: FuncId(0),
            name: "f".into(),
            code: vec![Instr::LoadFree { dst: RV, index: 3 }, Instr::Return],
            frame_size: 0,
            n_incoming: 0,
            syntactic_leaf: true,
            call_inevitable: false,
        };
        let code = if set {
            vec![
                Instr::AllocClosure {
                    dst: s0,
                    func: FuncId(0),
                    n_free: 1,
                },
                Instr::ClosureSlotSet {
                    clo: s0,
                    index: 1,
                    src: s0,
                },
                Instr::Halt,
            ]
        } else {
            vec![
                Instr::AllocClosure {
                    dst: CP,
                    func: FuncId(0),
                    n_free: 0,
                },
                Instr::Call {
                    target: CallTarget::ClosureCp,
                    frame_advance: 0,
                },
                Instr::Halt,
            ]
        };
        let entry = VmFunc {
            id: FuncId(1),
            name: "entry".into(),
            code,
            frame_size: 0,
            n_incoming: 0,
            syntactic_leaf: set,
            call_inevitable: !set,
        };
        VmProgram {
            funcs: vec![f, entry],
            entry: FuncId(1),
            constants: vec![],
            n_globals: 0,
        }
    }

    /// `entry` calls `main` (frame 1), which calls `g` at fp 1; `g`
    /// tail-calls `h` (frame 2), which saves `ret` and its argument 5,
    /// calls `leaf` (5 + 1) at fp 3, restores both from fp 1 and returns
    /// 6 + 5 = 11.
    fn tail_entered_call_program() -> VmProgram {
        let a0 = arg_reg(0);
        let func = |id: u32, name: &str, code: Vec<Instr>, frame_size: u32, leaf: bool| VmFunc {
            id: FuncId(id),
            name: name.into(),
            code,
            frame_size,
            n_incoming: 0,
            syntactic_leaf: leaf,
            call_inevitable: !leaf,
        };
        let save = |slot: u32, src: Reg| Instr::StackStore {
            slot,
            src,
            class: SlotClass::Save,
        };
        let restore = |dst: Reg, slot: u32| Instr::StackLoad {
            dst,
            slot,
            class: SlotClass::Save,
        };
        let call = |callee: u32, frame_advance: u32| Instr::Call {
            target: CallTarget::Func(FuncId(callee)),
            frame_advance,
        };
        let leaf = vec![
            Instr::Prim {
                op: Prim::Add1,
                dst: RV,
                args: vec![a0],
            },
            Instr::Return,
        ];
        let h = vec![
            save(0, RET),
            save(1, a0),
            call(0, 2),
            restore(RET, 0),
            restore(a0, 1),
            Instr::Prim {
                op: Prim::Add,
                dst: RV,
                args: vec![RV, a0],
            },
            Instr::Return,
        ];
        let g = vec![
            Instr::LoadImm {
                dst: a0,
                imm: Imm::Fixnum(5),
            },
            Instr::TailCall {
                target: CallTarget::Func(FuncId(1)),
            },
        ];
        let main = vec![save(0, RET), call(2, 1), restore(RET, 0), Instr::Return];
        VmProgram {
            funcs: vec![
                func(0, "leaf", leaf, 0, true),
                func(1, "h", h, 2, false),
                func(2, "g", g, 0, true),
                func(3, "main", main, 1, false),
                func(4, "entry", vec![call(3, 0), Instr::Halt], 0, false),
            ],
            entry: FuncId(4),
            constants: vec![],
            n_globals: 0,
        }
    }

    #[test]
    fn fuel_error_location_matches_classic() {
        // Budget runs out after the first instruction: both engines
        // must report pc 1.
        let p = loop_program();
        let d = Machine::new(&p, CostModel::unit())
            .with_fuel(1)
            .run()
            .unwrap_err();
        let c = ClassicMachine::new(&p, CostModel::unit())
            .with_fuel(1)
            .run()
            .unwrap_err();
        assert_eq!(d, c);
        assert_eq!(d.at, Some(("entry".into(), 1)));
        assert!(d.is_fuel_exhausted());
    }

    #[test]
    fn pc_out_of_range_matches_classic() {
        // Running off the end of a function hits the FuncEnd sentinel;
        // the reported location must match the classic bounds check.
        let f = VmFunc {
            id: FuncId(0),
            name: "entry".into(),
            code: vec![Instr::LoadImm {
                dst: RV,
                imm: Imm::Fixnum(1),
            }],
            frame_size: 0,
            n_incoming: 0,
            syntactic_leaf: true,
            call_inevitable: false,
        };
        let p = VmProgram {
            funcs: vec![f],
            entry: FuncId(0),
            constants: vec![],
            n_globals: 0,
        };
        let d = Machine::new(&p, CostModel::unit()).run().unwrap_err();
        let c = ClassicMachine::new(&p, CostModel::unit())
            .run()
            .unwrap_err();
        assert_eq!(d, c);
        assert_eq!(d.at, Some(("entry".into(), 1)));
    }

    /// Hand-assembled closure-call harness: one closure-call site (in
    /// `callit`) executed once per `pattern` element, with the closure
    /// in `cp` selecting `leaf0` (0) or `leaf1` (1). The per-call
    /// callee sequence is exactly `pattern`.
    fn poly_call_program(pattern: &[usize]) -> VmProgram {
        let s0 = scratch_reg(0);
        let s1 = scratch_reg(1);
        let leaf = |id: u32, value: i64| VmFunc {
            id: FuncId(id),
            name: format!("leaf{id}"),
            code: vec![
                Instr::LoadImm {
                    dst: RV,
                    imm: Imm::Fixnum(value),
                },
                Instr::Return,
            ],
            frame_size: 0,
            n_incoming: 0,
            syntactic_leaf: true,
            call_inevitable: false,
        };
        // f2: the single closure-call site every iteration goes through.
        let callit = VmFunc {
            id: FuncId(2),
            name: "callit".into(),
            code: vec![
                Instr::StackStore {
                    slot: 0,
                    src: RET,
                    class: SlotClass::Save,
                },
                Instr::Call {
                    target: CallTarget::ClosureCp,
                    frame_advance: 1,
                },
                Instr::StackLoad {
                    dst: RET,
                    slot: 0,
                    class: SlotClass::Save,
                },
                Instr::Return,
            ],
            frame_size: 1,
            n_incoming: 0,
            syntactic_leaf: false,
            call_inevitable: true,
        };
        let mut code = vec![
            Instr::AllocClosure {
                dst: s0,
                func: FuncId(0),
                n_free: 0,
            },
            Instr::AllocClosure {
                dst: s1,
                func: FuncId(1),
                n_free: 0,
            },
        ];
        for &which in pattern {
            code.push(Instr::Mov {
                dst: CP,
                src: if which == 0 { s0 } else { s1 },
            });
            code.push(Instr::Call {
                target: CallTarget::Func(FuncId(2)),
                frame_advance: 0,
            });
        }
        code.push(Instr::Halt);
        let entry = VmFunc {
            id: FuncId(3),
            name: "entry".into(),
            code,
            frame_size: 0,
            n_incoming: 0,
            syntactic_leaf: false,
            call_inevitable: true,
        };
        VmProgram {
            funcs: vec![leaf(0, 10), leaf(1, 20), callit, entry],
            entry: FuncId(3),
            constants: vec![],
            n_globals: 0,
        }
    }
}
