//! The machine both execution engines drive.
//!
//! [`Vm`] owns everything a run mutates and everything it counts: the
//! register file and its ready times under the [`CostModel`], the stack
//! and frame pointer, the current function, the constant pool, the
//! globals, the program's output, the [`RunStats`], and the shadow
//! activation stack behind Table 2's classification. It reads one
//! per-function header table ([`FuncInfo`]) and holds the effect of
//! every instruction that neither branches nor calls, the slow
//! primitive path, the accounting of calls, tail calls and returns, and
//! the stack bounds.
//!
//! Each engine keeps only fetch and control flow: the decoded
//! [`crate::Machine`] walks a flat op array with absolute pcs, fast
//! primitive paths and peeked branch conditions and call targets; the
//! classic [`crate::ClassicMachine`] fetches and clones each
//! [`crate::Instr`] from its function's code with function-relative
//! pcs. Failing effects return a bare message, and each engine locates
//! it once through [`Vm::err`] at a function-relative pc, so both
//! report every failure at the same place.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use lesgs_frontend::{Const, FuncId, Prim};
use lesgs_ir::machine::{CP, NUM_REGS, RET, RV};
use lesgs_ir::Reg;

use crate::cost::CostModel;
use crate::decode::FuncInfo;
use crate::exec::{VmError, VmOutcome, FUEL_MESSAGE};
use crate::instr::{Imm, SlotClass};
use crate::prim::{eval_prim, ArgVals};
use crate::stats::{ActivationClass, RunStats};
use crate::value::{const_to_value, imm_to_value, PatchedClosures, RetAddr, Value, VmClosure};

/// The most slots the stack may hold (2^24 values, 256 MiB). A run
/// that needs more — a frame past it, or a frame pointer past it — is a
/// stack overflow, a [`VmError`] rather than an allocation failure that
/// aborts the process.
const MAX_STACK_SLOTS: usize = 1 << 24;

/// The most activations that may be live at once (2^24 records,
/// 192 MiB). A call with an empty frame grows only the activation
/// stack, so it needs a bound of its own.
const MAX_ACTIVATIONS: usize = 1 << 24;

/// One entry of the shadow activation stack (for Table 2
/// classification). `call` pushes one and `return` pops it.
struct Activation {
    func: FuncId,
    made_call: bool,
    /// The caller's frame pointer, which `return` restores.
    caller_fp: u32,
}

/// The state and effects both engines share (see the module docs).
pub(crate) struct Vm {
    /// The per-function header table, shared with the decoded program.
    pub(crate) funcs: Arc<[FuncInfo]>,
    cost: CostModel,
    max_instructions: u64,
    poison_frames: bool,
    trace: bool,
    pub(crate) regs: [Value; NUM_REGS],
    ready: [u64; NUM_REGS],
    stack: Vec<Value>,
    fp: u32,
    /// The function executing; each engine keeps its own pc into it.
    pub(crate) func: FuncId,
    constants: Vec<Value>,
    globals: Vec<Value>,
    output: String,
    pub(crate) stats: RunStats,
    shadow: Vec<Activation>,
    patched: PatchedClosures,
}

/// The result of a step of the machine: a failure is a bare message
/// that the engine locates with [`Vm::err`].
pub(crate) type Step<T = ()> = Result<T, String>;

#[cold]
fn stack_overflow(what: &str, bound: usize) -> String {
    format!("stack overflow: more than {bound} {what}")
}

impl Vm {
    /// A machine about to run `entry`.
    pub(crate) fn new(
        funcs: Arc<[FuncInfo]>,
        entry: FuncId,
        constants: &[Const],
        n_globals: u32,
        cost: CostModel,
    ) -> Vm {
        Vm {
            funcs,
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
            constants: constants.iter().map(const_to_value).collect(),
            globals: vec![Value::Void; n_globals as usize],
            output: String::new(),
            stats: RunStats::default(),
            shadow: Vec::new(),
            patched: PatchedClosures::default(),
        }
    }

    /// Sets the instruction budget.
    pub(crate) fn with_fuel(mut self, max_instructions: u64) -> Vm {
        self.max_instructions = max_instructions;
        self
    }

    /// Enables frame poisoning: every callee frame starts as `Uninit`.
    pub(crate) fn with_poison(mut self, poison: bool) -> Vm {
        self.poison_frames = poison;
        self
    }

    /// Enables `trace:` lines for calls, tail calls and returns.
    pub(crate) fn with_trace(mut self, trace: bool) -> Vm {
        self.trace = trace;
        self
    }

    /// Locates `message` at the function-relative `pc` of the current
    /// function.
    #[cold]
    pub(crate) fn err(&self, pc: u32, message: String) -> VmError {
        VmError {
            message,
            at: Some((self.funcs[self.func.index()].name.clone(), pc)),
        }
    }

    /// Checks the instruction budget and charges one instruction.
    #[inline]
    pub(crate) fn tick(&mut self) -> Step {
        if self.stats.instructions >= self.max_instructions {
            return Err(FUEL_MESSAGE.to_owned());
        }
        self.stats.instructions += 1;
        self.stats.cycles += self.cost.instr_cost;
        Ok(())
    }

    /// The stall half of [`Vm::read`]: waits until the register's
    /// in-flight load completes. Peeking engines stall first and then
    /// look at the register in place instead of cloning it; a stall is
    /// idempotent, so a later `read` of the same register observes
    /// nothing extra.
    #[inline]
    pub(crate) fn stall_on(&mut self, r: Reg) {
        if self.ready[r.index()] > self.stats.cycles {
            self.stats.stall_cycles += self.ready[r.index()] - self.stats.cycles;
            self.stats.cycles = self.ready[r.index()];
        }
    }

    #[inline]
    pub(crate) fn read(&mut self, r: Reg) -> Value {
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

    /// Charges a memory access beyond the instruction's base cost.
    #[inline]
    fn charge_memory(&mut self) {
        self.stats.cycles += self.cost.mem_cost - self.cost.instr_cost;
    }

    /// The frame pointer is at most [`MAX_STACK_SLOTS`], so this cannot
    /// overflow.
    #[inline]
    fn slot_index(&self, slot: u32) -> usize {
        self.fp as usize + slot as usize
    }

    #[inline]
    fn stack_store(&mut self, slot: u32, v: Value) -> Step {
        let idx = self.slot_index(slot);
        if idx >= self.stack.len() {
            if idx >= MAX_STACK_SLOTS {
                return Err(stack_overflow("stack slots", MAX_STACK_SLOTS));
            }
            self.stack.resize(idx + 1, Value::Uninit);
        }
        self.stack[idx] = v;
        Ok(())
    }

    #[inline]
    fn stack_load(&self, slot: u32) -> Step<Value> {
        match self.stack.get(self.slot_index(slot)) {
            Some(Value::Uninit) | None => Err(format!("read of uninitialized stack slot {slot}")),
            Some(v) => Ok(v.clone()),
        }
    }

    /// When poisoning is on, marks `func`'s frame at the current `fp`
    /// `Uninit` above its incoming parameters.
    #[inline]
    fn poison(&mut self, func: FuncId) -> Step {
        if self.poison_frames {
            self.poison_frame(func)?;
        }
        Ok(())
    }

    fn poison_frame(&mut self, func: FuncId) -> Step {
        let f = &self.funcs[func.index()];
        // Skip the incoming-parameter region: the caller wrote the
        // stack-passed arguments there just before the call.
        let lo = self.slot_index(f.n_incoming);
        let hi = self.slot_index(f.frame_size);
        if hi > self.stack.len() {
            if hi > MAX_STACK_SLOTS {
                return Err(stack_overflow("stack slots", MAX_STACK_SLOTS));
            }
            self.stack.resize(hi, Value::Uninit);
        }
        for v in &mut self.stack[lo..hi] {
            *v = Value::Uninit;
        }
        Ok(())
    }

    /// Counts a conditional branch, charging a misprediction when it
    /// goes against its static hint (fallthrough by default), and
    /// returns `taken` for the engine to redirect its pc.
    #[inline]
    pub(crate) fn branch(&mut self, taken: bool, likely: Option<bool>) -> bool {
        self.stats.branches += 1;
        let predicted_fallthrough = likely.unwrap_or(true);
        if predicted_fallthrough == taken {
            self.stats.mispredicts += 1;
            self.stats.cycles += self.cost.mispredict_penalty;
        }
        taken
    }

    /// Opens the entry function's activation at frame pointer 0. It is
    /// not a call: nothing is counted or traced.
    pub(crate) fn enter_entry(&mut self) -> Step {
        self.shadow.push(Activation {
            func: self.func,
            made_call: false,
            caller_fp: self.fp,
        });
        self.poison(self.func)
    }

    /// A non-tail call's effect: writes `ret` (the caller's
    /// function-relative `return_pc`), opens `callee`'s activation
    /// `frame_advance` slots up, and makes it the current function. A
    /// stack overflow leaves the current function the caller, so both
    /// engines locate it at the call.
    #[inline]
    pub(crate) fn enter_activation(
        &mut self,
        callee: FuncId,
        frame_advance: u32,
        return_pc: u32,
    ) -> Step {
        if self.shadow.len() >= MAX_ACTIVATIONS {
            return Err(stack_overflow("activations", MAX_ACTIVATIONS));
        }
        let fp = self.fp as usize + frame_advance as usize;
        if fp > MAX_STACK_SLOTS {
            return Err(stack_overflow("stack slots", MAX_STACK_SLOTS));
        }
        self.write(RET, Value::RetAddr(RetAddr::new(self.func, return_pc)));
        if let Some(top) = self.shadow.last_mut() {
            top.made_call = true;
        }
        self.stats.calls += 1;
        if self.trace {
            eprintln!(
                "trace: call {} depth={}",
                self.funcs[callee.index()].name,
                self.shadow.len()
            );
        }
        self.shadow.push(Activation {
            func: callee,
            made_call: false,
            caller_fp: self.fp,
        });
        self.fp = fp as u32;
        self.poison(callee)?;
        self.func = callee;
        Ok(())
    }

    /// A tail call's effect: counts it and makes `callee` current in
    /// the same activation and frame.
    #[inline]
    pub(crate) fn tail_call(&mut self, callee: FuncId) {
        self.stats.tail_calls += 1;
        if self.trace {
            eprintln!(
                "trace: tail-call {} depth={}",
                self.funcs[callee.index()].name,
                self.shadow.len()
            );
        }
        self.func = callee;
    }

    fn classify(&self, a: &Activation) -> ActivationClass {
        let f = &self.funcs[a.func.index()];
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
                self.funcs[a.func.index()].name,
                class.key(),
                self.shadow.len()
            );
        }
        self.stats.activations[class as usize] += 1;
        a.caller_fp
    }

    /// A `return`'s effect: closes the activation, restores the
    /// caller's frame and function, and hands the engine the address
    /// to resume at.
    #[inline]
    pub(crate) fn ret(&mut self) -> Step<RetAddr> {
        match self.read(RET) {
            Value::RetAddr(ra) => {
                self.fp = self.leave_activation();
                self.func = ra.func();
                Ok(ra)
            }
            other => Err(format!(
                "return through non-address `{}`",
                other.write_string()
            )),
        }
    }

    /// `halt`: closes every open activation and yields the outcome.
    pub(crate) fn halt(&mut self) -> VmOutcome {
        while !self.shadow.is_empty() {
            self.leave_activation();
        }
        VmOutcome {
            value: self.read(RV).write_string(),
            output: std::mem::take(&mut self.output),
            stats: std::mem::take(&mut self.stats),
        }
    }

    #[inline]
    pub(crate) fn load_imm(&mut self, dst: Reg, imm: Imm) {
        self.write(dst, imm_to_value(imm));
    }

    #[inline]
    pub(crate) fn load_const(&mut self, dst: Reg, idx: u32) {
        let v = self.constants[idx as usize].clone();
        self.write(dst, v);
    }

    #[inline]
    pub(crate) fn mov(&mut self, dst: Reg, src: Reg) {
        let v = self.read(src);
        self.write(dst, v);
    }

    /// `dst ← stack[fp + slot]`, counted under `class`.
    #[inline]
    pub(crate) fn load_slot(&mut self, dst: Reg, slot: u32, class: SlotClass) -> Step {
        self.charge_memory();
        self.stats.stack_loads[class as usize] += 1;
        let v = self.stack_load(slot)?;
        self.write_loaded(dst, v);
        Ok(())
    }

    /// `stack[fp + slot] ← src`, counted under `class`.
    #[inline]
    pub(crate) fn store_slot(&mut self, slot: u32, src: Reg, class: SlotClass) -> Step {
        self.charge_memory();
        self.stats.stack_stores[class as usize] += 1;
        let v = self.read(src);
        self.stack_store(slot, v)
    }

    /// The slow primitive path: clones the operands into the shared
    /// evaluator's buffer.
    pub(crate) fn prim(&mut self, op: Prim, dst: Reg, args: &[Reg]) -> Step {
        let mut vals = ArgVals::new();
        for r in args {
            vals.push(self.read(*r));
        }
        let (result, from_memory) = eval_prim(op, &mut vals, &mut self.output)?;
        self.prim_result(op, dst, result, from_memory);
        Ok(())
    }

    /// Writes a primitive's result and charges its memory access, on
    /// the fast and the slow path alike.
    #[inline]
    pub(crate) fn prim_result(&mut self, op: Prim, dst: Reg, result: Value, from_memory: bool) {
        if from_memory {
            self.write_loaded(dst, result);
        } else {
            self.write(dst, result);
        }
        if op.touches_memory() {
            self.stats.heap_ops += 1;
            self.charge_memory();
        }
    }

    #[inline]
    pub(crate) fn alloc_closure(&mut self, dst: Reg, func: FuncId, n_free: u32) {
        self.stats.heap_ops += 1;
        self.stats.closures_allocated += 1;
        self.charge_memory();
        let clo = VmClosure {
            func,
            free: RefCell::new(vec![Value::Void; n_free as usize]),
        };
        self.write(dst, Value::Closure(Rc::new(clo)));
    }

    /// `closure(clo).free[index] ← src`, the closure peeked in place.
    #[inline]
    pub(crate) fn set_closure_slot(&mut self, clo: Reg, index: u32, src: Reg) -> Step {
        self.stats.heap_ops += 1;
        self.charge_memory();
        let v = self.read(src);
        self.stall_on(clo);
        match &self.regs[clo.index()] {
            Value::Closure(c) => {
                c.set_free(index, v)?;
                self.patched.remember(c);
                Ok(())
            }
            other => Err(format!("closure-set! on `{}`", other.write_string())),
        }
    }

    /// `dst ← closure(cp).free[index]`, the closure peeked in place.
    #[inline]
    pub(crate) fn load_free(&mut self, dst: Reg, index: u32) -> Step {
        self.stats.heap_ops += 1;
        self.charge_memory();
        self.stall_on(CP);
        let v = match &self.regs[CP.index()] {
            Value::Closure(c) => c.load_free(index)?,
            other => {
                return Err(format!(
                    "free-variable reference through `{}`",
                    other.write_string()
                ))
            }
        };
        self.write_loaded(dst, v);
        Ok(())
    }

    #[inline]
    pub(crate) fn load_global(&mut self, dst: Reg, index: u32) -> Step {
        self.stats.heap_ops += 1;
        self.charge_memory();
        let v = self
            .globals
            .get(index as usize)
            .cloned()
            .ok_or("global index out of range")?;
        self.write_loaded(dst, v);
        Ok(())
    }

    #[inline]
    pub(crate) fn store_global(&mut self, index: u32, src: Reg) -> Step {
        self.stats.heap_ops += 1;
        self.charge_memory();
        let v = self.read(src);
        match self.globals.get_mut(index as usize) {
            Some(slot) => *slot = v,
            None => return Err("global index out of range".to_owned()),
        }
        Ok(())
    }
}
