//! The one dispatch loop, and the machine it drives.
//!
//! [`Vm`] owns everything a run mutates and everything it counts: the
//! register file and its ready times under the [`CostModel`], the stack
//! and frame pointer, the current function, the constant pool, the
//! globals, the program's output, the [`RunStats`], and the shadow
//! activation stack behind Table 2's classification.
//!
//! `Vm::run` is the only loop in the crate that executes [`Instr`]s. It
//! fetches each one by copy from the current function's
//! [`VmFunc::code`] at a function-relative pc, and it does the same
//! work in both engines: fetching, control flow, charging and counting,
//! the stack bounds, and locating errors. It is built twice, generic
//! over `FAST`:
//!
//! * `FAST = true`, [`crate::Machine`]. Primitives try the fast paths
//!   first (`Vm::try_fast_prim`), and branch conditions and `cp` call
//!   targets are peeked in place.
//! * `FAST = false`, the reference [`crate::ClassicMachine`]. Every
//!   primitive goes through the shared evaluator (`Vm::prim`) and every
//!   operand through `Vm::read`, which clones it.
//!
//! So the fast paths are the only code the reference checks. A failing
//! effect returns a bare message, and the loop locates it once through
//! `Vm::err` at the function-relative pc, so both engines report every
//! failure at the same place.

use std::cell::RefCell;
use std::rc::Rc;

use lesgs_frontend::{FuncId, Prim};
use lesgs_ir::machine::{CP, NUM_REGS, RET, RV};
use lesgs_ir::Reg;

use crate::cost::CostModel;
use crate::exec::{VmError, VmOutcome, FUEL_MESSAGE};
use crate::instr::{CallTarget, Imm, Instr, PrimArgs, SlotClass};
use crate::prim::{eval_prim, ArgVals};
use crate::program::{VmFunc, VmProgram};
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

/// The machine both engines run (see the module docs).
pub(crate) struct Vm<'a> {
    /// The program's functions: their code and frame headers.
    funcs: &'a [VmFunc],
    cost: CostModel,
    /// The instruction budget.
    pub(crate) max_instructions: u64,
    /// Every callee frame starts as `Uninit` above its parameters.
    pub(crate) poison_frames: bool,
    /// Log `trace:` lines for calls, tail calls and returns.
    pub(crate) trace: bool,
    regs: [Value; NUM_REGS],
    ready: [u64; NUM_REGS],
    stack: Vec<Value>,
    fp: u32,
    /// The function executing; the loop keeps its pc.
    func: FuncId,
    constants: Vec<Value>,
    globals: Vec<Value>,
    output: String,
    stats: RunStats,
    shadow: Vec<Activation>,
    patched: PatchedClosures,
}

/// The result of a step of the machine: a failure is a bare message
/// that the loop locates with [`Vm::err`].
type Step<T = ()> = Result<T, String>;

#[cold]
fn stack_overflow(what: &str, bound: usize) -> String {
    format!("stack overflow: more than {bound} {what}")
}

impl<'a> Vm<'a> {
    /// A machine about to run `program` from its entry function.
    pub(crate) fn new(program: &'a VmProgram, cost: CostModel) -> Vm<'a> {
        Vm {
            funcs: &program.funcs,
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
            func: program.entry,
            constants: program.constants.iter().map(const_to_value).collect(),
            globals: vec![Value::Void; program.n_globals as usize],
            output: String::new(),
            stats: RunStats::default(),
            shadow: Vec::new(),
            patched: PatchedClosures::default(),
        }
    }

    /// Runs the program to completion on the loop with its fast paths.
    /// Both builds are instantiated here, not in each caller's crate.
    pub(crate) fn run_fast(self) -> Result<VmOutcome, VmError> {
        self.run::<true>()
    }

    /// Runs the program to completion on the reference loop.
    pub(crate) fn run_reference(self) -> Result<VmOutcome, VmError> {
        self.run::<false>()
    }

    fn run<const FAST: bool>(mut self) -> Result<VmOutcome, VmError> {
        // The loop keeps the pc here; a failure is located at it.
        let mut pc = 0;
        let result = self.dispatch::<FAST>(&mut pc);
        result.map_err(|message| self.err(pc, message))
    }

    /// The loop. Both instantiations share a codegen unit, so every
    /// effect it calls has two callers, and LLVM keeps an effect that
    /// is merely `#[inline]` out of line; the hot ones are therefore
    /// `#[inline(always)]` (out of line they cost suite-run over 10% of
    /// its throughput on a shared 2-vCPU Intel Xeon VM).
    #[inline(always)]
    fn dispatch<const FAST: bool>(&mut self, pc: &mut u32) -> Step<VmOutcome> {
        self.enter_entry()?;
        let funcs = self.funcs;
        let mut code = funcs[self.func.index()].code.as_slice();
        loop {
            self.tick()?;
            // A failure here reports the unincremented pc.
            let Some(&instr) = code.get(*pc as usize) else {
                return Err("program counter out of range".to_owned());
            };
            *pc += 1;
            match instr {
                Instr::LoadImm { dst, imm } => self.load_imm(dst, imm),
                Instr::LoadConst { dst, idx } => self.load_const(dst, idx),
                Instr::Mov { dst, src } => self.mov(dst, src),
                Instr::StackLoad { dst, slot, class } => self.load_slot(dst, slot, class)?,
                Instr::StackStore { slot, src, class } => self.store_slot(slot, src, class)?,
                Instr::Prim { op, dst, args } => self.exec_prim::<FAST>(op, dst, &args)?,
                Instr::Jump { target } => *pc = target,
                Instr::BranchFalse {
                    src,
                    target,
                    likely,
                } => {
                    if self.branch::<FAST>(src, false, likely) {
                        *pc = target;
                    }
                }
                Instr::BranchTrue {
                    src,
                    target,
                    likely,
                } => {
                    if self.branch::<FAST>(src, true, likely) {
                        *pc = target;
                    }
                }
                Instr::Call {
                    target,
                    frame_advance,
                } => {
                    let callee = self.callee::<FAST>(target)?;
                    self.enter_activation(callee, frame_advance, *pc)?;
                    code = &funcs[callee.index()].code;
                    *pc = 0;
                }
                Instr::TailCall { target } => {
                    let callee = self.callee::<FAST>(target)?;
                    // A tail call is a jump: same activation, same fp.
                    self.tail_call(callee);
                    code = &funcs[callee.index()].code;
                    *pc = 0;
                }
                Instr::Return => {
                    let ra = self.ret()?;
                    code = &funcs[ra.func().index()].code;
                    *pc = ra.pc();
                }
                Instr::AllocClosure { dst, func, n_free } => {
                    self.alloc_closure(dst, func, n_free);
                }
                Instr::ClosureSlotSet { clo, index, src } => {
                    self.set_closure_slot(clo, index, src)?;
                }
                Instr::LoadFree { dst, index } => self.load_free(dst, index)?,
                Instr::LoadGlobal { dst, index } => self.load_global(dst, index)?,
                Instr::StoreGlobal { index, src } => self.store_global(index, src)?,
                Instr::Halt => return Ok(self.halt()),
            }
        }
    }

    /// Locates `message` at the function-relative `pc` of the current
    /// function.
    #[cold]
    fn err(&self, pc: u32, message: String) -> VmError {
        VmError {
            message,
            at: Some((self.funcs[self.func.index()].name.clone(), pc)),
        }
    }

    /// Checks the instruction budget and charges one instruction.
    #[inline]
    fn tick(&mut self) -> Step {
        if self.stats.instructions >= self.max_instructions {
            return Err(FUEL_MESSAGE.to_owned());
        }
        self.stats.instructions += 1;
        self.stats.cycles += self.cost.instr_cost;
        Ok(())
    }

    /// The stall half of [`Vm::read`]: waits until the register's
    /// in-flight load completes. The fast paths stall first and then
    /// look at the register in place instead of cloning it; a stall is
    /// idempotent, so a later `read` of the same register observes
    /// nothing extra.
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

    #[inline(always)]
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

    #[inline(always)]
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

    /// Whether a branch on `src` is taken: `on_true` for `brtrue`.
    /// Counts it, charging a misprediction when it goes against its
    /// static hint (fallthrough by default).
    #[inline]
    fn branch<const FAST: bool>(&mut self, src: Reg, on_true: bool, likely: Option<bool>) -> bool {
        let truthy = if FAST {
            // Peek the condition in place: truthiness needs no clone.
            self.stall_on(src);
            self.regs[src.index()].is_truthy()
        } else {
            self.read(src).is_truthy()
        };
        let taken = truthy == on_true;
        self.stats.branches += 1;
        let predicted_fallthrough = likely.unwrap_or(true);
        if predicted_fallthrough == taken {
            self.stats.mispredicts += 1;
            self.stats.cycles += self.cost.mispredict_penalty;
        }
        taken
    }

    /// The function a call transfers to. Through `cp`, the reference
    /// clones the closure like any operand; the fast instantiation
    /// peeks it in place after the same stall. Either way it is read
    /// before the return address is written.
    #[inline(always)]
    fn callee<const FAST: bool>(&mut self, target: CallTarget) -> Step<FuncId> {
        if let CallTarget::Func(f) = target {
            return Ok(f);
        }
        let owned;
        let cp = if FAST {
            self.stall_on(CP);
            &self.regs[CP.index()]
        } else {
            owned = self.read(CP);
            &owned
        };
        match cp {
            Value::Closure(c) => Ok(c.func),
            other => Err(format!("call of non-procedure `{}`", other.write_string())),
        }
    }

    /// Opens the entry function's activation at frame pointer 0. It is
    /// not a call: nothing is counted or traced.
    fn enter_entry(&mut self) -> Step {
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
    /// stack overflow leaves the current function the caller, so the
    /// loop locates it at the call.
    #[inline]
    fn enter_activation(&mut self, callee: FuncId, frame_advance: u32, return_pc: u32) -> Step {
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
    fn tail_call(&mut self, callee: FuncId) {
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
    /// caller's frame and function, and hands the loop the address to
    /// resume at.
    #[inline(always)]
    fn ret(&mut self) -> Step<RetAddr> {
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
    fn halt(&mut self) -> VmOutcome {
        while !self.shadow.is_empty() {
            self.leave_activation();
        }
        VmOutcome {
            value: self.read(RV).write_string(),
            output: std::mem::take(&mut self.output),
            stats: std::mem::take(&mut self.stats),
        }
    }

    #[inline(always)]
    fn load_imm(&mut self, dst: Reg, imm: Imm) {
        self.write(dst, imm_to_value(imm));
    }

    #[inline(always)]
    fn load_const(&mut self, dst: Reg, idx: u32) {
        let v = self.constants[idx as usize].clone();
        self.write(dst, v);
    }

    #[inline(always)]
    fn mov(&mut self, dst: Reg, src: Reg) {
        let v = self.read(src);
        self.write(dst, v);
    }

    /// `dst ← stack[fp + slot]`, counted under `class`.
    #[inline(always)]
    fn load_slot(&mut self, dst: Reg, slot: u32, class: SlotClass) -> Step {
        self.charge_memory();
        self.stats.stack_loads[class as usize] += 1;
        let v = self.stack_load(slot)?;
        self.write_loaded(dst, v);
        Ok(())
    }

    /// `stack[fp + slot] ← src`, counted under `class`.
    #[inline(always)]
    fn store_slot(&mut self, slot: u32, src: Reg, class: SlotClass) -> Step {
        self.charge_memory();
        self.stats.stack_stores[class as usize] += 1;
        let v = self.read(src);
        self.stack_store(slot, v)
    }

    /// A primitive: the fast instantiation tries its fast paths first.
    #[inline]
    fn exec_prim<const FAST: bool>(&mut self, op: Prim, dst: Reg, args: &PrimArgs) -> Step {
        if FAST {
            if let Some((result, from_memory)) = self.try_fast_prim(op, args) {
                self.prim_result(op, dst, result, from_memory);
                return Ok(());
            }
        }
        self.prim(op, dst, args.as_slice())
    }

    /// Fast paths for the hottest primitives: operands are peeked in
    /// place (after the same stall accounting `read` performs) instead
    /// of being cloned into the shared evaluator's argument buffer.
    /// Returns `None`, having changed nothing but idempotent stall
    /// state, whenever the operands don't match the fast shape (wrong
    /// type, overflow, bad index), so the shared evaluator stays the
    /// single owner of error semantics and the full catalogue.
    #[inline]
    fn try_fast_prim(&mut self, op: Prim, args: &PrimArgs) -> Option<(Value, bool)> {
        use Prim::*;
        let a = args.as_slice();
        for r in a {
            self.stall_on(*r);
        }
        let regs = &self.regs;
        macro_rules! fix {
            ($i:expr) => {
                match &regs[a[$i].index()] {
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
            Not => Value::bool(!regs[a[0].index()].is_truthy()),
            IsPair => Value::bool(matches!(regs[a[0].index()], Value::Pair(_))),
            IsNull => Value::bool(matches!(regs[a[0].index()], Value::Nil)),
            IsEq | IsEqv => Value::bool(regs[a[0].index()].eq_ptr(&regs[a[1].index()])),
            Car | Cdr => match &regs[a[0].index()] {
                Value::Pair(p) => {
                    let p = p.borrow();
                    let v = if op == Car { p.0.clone() } else { p.1.clone() };
                    return Some((v, true));
                }
                _ => return None,
            },
            VectorRef => match &regs[a[0].index()] {
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
                let x = match &regs[a[0].index()] {
                    Value::Vector(v) => {
                        let len = v.borrow().len();
                        usize::try_from(i).ok().filter(|&i| i < len)?;
                        regs[a[2].index()].clone()
                    }
                    _ => return None,
                };
                match &regs[a[0].index()] {
                    Value::Vector(v) => v.borrow_mut()[i as usize] = x,
                    _ => unreachable!(),
                }
                Value::Void
            }
            _ => return None,
        };
        Some((result, false))
    }

    /// The slow primitive path: clones the operands into the shared
    /// evaluator's buffer.
    fn prim(&mut self, op: Prim, dst: Reg, args: &[Reg]) -> Step {
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
    #[inline(always)]
    fn prim_result(&mut self, op: Prim, dst: Reg, result: Value, from_memory: bool) {
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

    #[inline(always)]
    fn alloc_closure(&mut self, dst: Reg, func: FuncId, n_free: u32) {
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
    #[inline(always)]
    fn set_closure_slot(&mut self, clo: Reg, index: u32, src: Reg) -> Step {
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
    #[inline(always)]
    fn load_free(&mut self, dst: Reg, index: u32) -> Step {
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

    #[inline(always)]
    fn load_global(&mut self, dst: Reg, index: u32) -> Step {
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

    #[inline(always)]
    fn store_global(&mut self, index: u32, src: Reg) -> Step {
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
