//! Code generation: allocated IR → VM instructions.
//!
//! The code generator walks the allocator's output ([`AExpr`]) once per
//! function, performing the *local* register allocation the paper
//! attributes to the code generator ("Other registers are used for
//! local register allocation", §1): expression operands live in scratch
//! registers, partial results that must survive a call go to frame
//! temporaries, and the return value always travels in `rv`.
//!
//! The frame's temporary region grows with a simple stack discipline; a
//! high-water mark finalizes the frame size, after which outgoing
//! argument offsets and call frame advances are patched.

pub mod peephole;

use lesgs_core::alloc::{
    ACallee, AExpr, AllocatedFunc, AllocatedProgram, ArgRef, Dest, Home, Slot, Step, TempLoc,
};
use lesgs_core::frame::FrameLayout;
use lesgs_frontend::{Const, FuncId, Prim};
use lesgs_ir::machine::{scratch_reg, NUM_SCRATCH, RV};
use lesgs_ir::{Reg, RegSet};
use lesgs_vm::{CallTarget, Imm, Instr, SlotClass, VmFunc, VmProgram};

/// A code-generation failure (should not happen for allocator output;
/// kept as an error for robustness).
#[derive(Debug, Clone, PartialEq)]
pub struct CodegenError {
    /// Description.
    pub message: String,
}

impl std::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codegen error: {}", self.message)
    }
}

impl std::error::Error for CodegenError {}

#[derive(Debug, Clone, Copy)]
enum PatchKind {
    /// `StackStore`/`StackLoad` slot = frame_size + i.
    OutSlot(u32),
    /// `Call` frame_advance = frame_size.
    FrameAdvance,
    /// Branch/jump target = label position.
    Label(u32),
}

struct Emitter<'a> {
    func: &'a AllocatedFunc,
    code: Vec<Instr>,
    layout: FrameLayout,
    temp_sp: u32,
    scratch_free: Vec<Reg>,
    patches: Vec<(usize, PatchKind)>,
    labels: Vec<Option<u32>>,
    constants: &'a mut Vec<Const>,
}

/// True if the subtree contains a non-tail call (its value would not
/// survive in a register).
fn contains_call(e: &AExpr) -> bool {
    let mut found = false;
    e.visit(&mut |n| {
        if let AExpr::Call(c) = n {
            if !c.tail {
                found = true;
            }
        }
    });
    found
}

fn imm_of(c: &Const) -> Option<Imm> {
    match c {
        Const::Fixnum(n) => Some(Imm::Fixnum(*n)),
        Const::Bool(b) => Some(Imm::Bool(*b)),
        Const::Char(c) => Some(Imm::Char(*c)),
        Const::Nil => Some(Imm::Nil),
        Const::Void => Some(Imm::Void),
        Const::Str(_) | Const::Symbol(_) | Const::Datum(_) => None,
    }
}

impl Emitter<'_> {
    fn emit(&mut self, i: Instr) -> usize {
        self.code.push(i);
        self.code.len() - 1
    }

    fn new_label(&mut self) -> u32 {
        self.labels.push(None);
        (self.labels.len() - 1) as u32
    }

    fn place_label(&mut self, l: u32) {
        self.labels[l as usize] = Some(self.code.len() as u32);
    }

    fn const_idx(&mut self, c: &Const) -> u32 {
        if let Some(i) = self.constants.iter().position(|x| x == c) {
            return i as u32;
        }
        self.constants.push(c.clone());
        (self.constants.len() - 1) as u32
    }

    fn alloc_scratch(&mut self) -> Option<Reg> {
        self.scratch_free.pop()
    }

    fn release_scratch(&mut self, r: Reg) {
        self.scratch_free.push(r);
    }

    fn temp_push(&mut self) -> u32 {
        let t = self.temp_sp;
        self.temp_sp += 1;
        self.layout.n_temps = self.layout.n_temps.max(self.temp_sp);
        t
    }

    fn temp_offset(&self, i: u32) -> u32 {
        self.layout.n_incoming + self.layout.save_regs.len() as u32 + self.layout.n_spills + i
    }

    fn slot_offset(&self, s: Slot) -> u32 {
        match s {
            Slot::Temp(i) => self.temp_offset(i),
            other => self.layout.offset(other),
        }
    }

    fn slot_class(s: Slot) -> SlotClass {
        match s {
            Slot::Param(_) => SlotClass::Param,
            Slot::Save(_) => SlotClass::Save,
            Slot::Spill(_) => SlotClass::Spill,
            Slot::Temp(_) => SlotClass::Temp,
        }
    }

    fn emit_saves(&mut self, regs: RegSet) {
        for r in regs.iter() {
            let slot = self.layout.offset(Slot::Save(r));
            self.emit(Instr::StackStore {
                slot,
                src: r,
                class: SlotClass::Save,
            });
        }
    }

    fn emit_restores(&mut self, regs: RegSet) {
        for r in regs.iter() {
            let slot = self.layout.offset(Slot::Save(r));
            self.emit(Instr::StackLoad {
                dst: r,
                slot,
                class: SlotClass::Save,
            });
        }
    }

    /// Gathers a *leaf* expression (constant, home read, free-variable
    /// read) into a register; returns the register and whether it is a
    /// scratch to release. Register homes are borrowed with no code.
    ///
    /// Non-leaf values must flow through `value_to_rv` instead — that
    /// is what keeps scratch pressure bounded: leaves never recurse, so
    /// the handful of scratches allocated at any gather point (at most
    /// `arity ≤ 3`, plus at most one held by an enclosing context)
    /// always fits the four scratch registers.
    ///
    /// # Panics
    ///
    /// Panics on a non-leaf argument or scratch exhaustion — both
    /// indicate a violated invariant, not a user error.
    fn operand(&mut self, e: &AExpr) -> (Reg, bool) {
        assert!(Self::is_leaf(e), "operand() requires a leaf expression");
        if let AExpr::ReadHome(Home::Reg(r)) = e {
            return (*r, false);
        }
        let s = self
            .alloc_scratch()
            .expect("scratch invariant: bounded gather pressure");
        self.expr(e, s);
        (s, true)
    }

    /// Evaluates an arbitrary expression into a register the caller
    /// must consume before compiling anything else: leaves borrow or
    /// use a scratch, everything else goes through `rv`.
    fn value_to_rv(&mut self, e: &AExpr) -> (Reg, bool) {
        if Self::is_leaf(e) {
            self.operand(e)
        } else {
            self.expr(e, RV);
            (RV, false)
        }
    }

    /// True for expressions whose evaluation touches no scratch state
    /// and has no effects, so it can be deferred to operand-gather time.
    fn is_leaf(e: &AExpr) -> bool {
        matches!(
            e,
            AExpr::Const(_) | AExpr::ReadHome(_) | AExpr::FreeRef(_) | AExpr::Global(_)
        )
    }

    /// Compiles a primitive application.
    ///
    /// Discipline: no scratch register is held across a recursive
    /// compile. Non-leaf arguments evaluate through `rv` into frame
    /// temporaries; leaf arguments are deferred and gathered at the
    /// end, unless a later argument contains a call (which would
    /// clobber the registers the leaf reads — those leaves are parked
    /// in temporaries like everything else). The final gather needs at
    /// most `arity ≤ 3` scratches with at most one held by an enclosing
    /// context, within the four available.
    fn primapp(&mut self, p: Prim, args: &[AExpr], dst: Reg) {
        let n = args.len();
        let later_calls: Vec<bool> = (0..n)
            .map(|i| args[i + 1..].iter().any(contains_call))
            .collect();
        let temp_base = self.temp_sp;
        enum Loc<'e> {
            Temp(u32),
            Deferred(&'e AExpr),
        }
        let mut locs: Vec<Loc<'_>> = Vec::with_capacity(n);
        for (i, a) in args.iter().enumerate() {
            if Self::is_leaf(a) && !later_calls[i] {
                locs.push(Loc::Deferred(a));
            } else {
                let t = self.temp_push();
                self.expr(a, RV);
                let slot = self.temp_offset(t);
                self.emit(Instr::StackStore {
                    slot,
                    src: RV,
                    class: SlotClass::Temp,
                });
                locs.push(Loc::Temp(t));
            }
        }
        // Gather all operands into registers.
        let mut regs: Vec<Reg> = Vec::with_capacity(n);
        let mut to_release: Vec<Reg> = Vec::new();
        for loc in &locs {
            match loc {
                Loc::Temp(t) => {
                    let r = self
                        .alloc_scratch()
                        .expect("gather needs at most arity scratches");
                    let slot = self.temp_offset(*t);
                    self.emit(Instr::StackLoad {
                        dst: r,
                        slot,
                        class: SlotClass::Temp,
                    });
                    to_release.push(r);
                    regs.push(r);
                }
                Loc::Deferred(e) => {
                    let (r, scratch) = self.operand(e);
                    if scratch {
                        to_release.push(r);
                    }
                    regs.push(r);
                }
            }
        }
        self.emit(Instr::Prim {
            op: p,
            dst,
            args: regs,
        });
        for r in to_release {
            self.release_scratch(r);
        }
        self.temp_sp = temp_base;
    }

    fn store_to_dest(&mut self, src: Reg, dst: &Dest, plan_temp_base: u32) {
        match dst {
            Dest::Reg(r) => {
                if *r != src {
                    self.emit(Instr::Mov { dst: *r, src });
                }
            }
            Dest::Out(j) => {
                let idx = self.emit(Instr::StackStore {
                    slot: u32::MAX,
                    src,
                    class: SlotClass::OutArg,
                });
                self.patches.push((idx, PatchKind::OutSlot(*j)));
            }
            Dest::Temp(TempLoc::Reg(r)) => {
                if *r != src {
                    self.emit(Instr::Mov { dst: *r, src });
                }
            }
            Dest::Temp(TempLoc::Frame(k)) => {
                let slot = self.temp_offset(plan_temp_base + k);
                self.emit(Instr::StackStore {
                    slot,
                    src,
                    class: SlotClass::Temp,
                });
            }
        }
    }

    fn call(&mut self, node: &lesgs_core::alloc::CallNode, dst: Reg) {
        // Reserve this plan's frame temporaries for its whole duration:
        // nested calls inside complex arguments allocate above them.
        let plan_temp_base = self.temp_sp;
        self.temp_sp += node.plan.frame_temps;
        self.layout.n_temps = self.layout.n_temps.max(self.temp_sp);

        for step in &node.plan.steps {
            match step {
                Step::Eval { arg, dst: d } => {
                    let expr: &AExpr = match arg {
                        ArgRef::Arg(i) => &node.args[*i as usize],
                        ArgRef::Closure => node.closure.as_deref().expect("closure present"),
                    };
                    match d {
                        Dest::Reg(r) | Dest::Temp(TempLoc::Reg(r)) => {
                            self.expr(expr, *r);
                        }
                        other => {
                            let (r, scratch) = self.value_to_rv(expr);
                            self.store_to_dest(r, other, plan_temp_base);
                            if scratch {
                                self.release_scratch(r);
                            }
                        }
                    }
                }
                Step::Move { from, dst: d } => match from {
                    TempLoc::Reg(r) => self.store_to_dest(*r, d, plan_temp_base),
                    TempLoc::Frame(k) => {
                        let slot = self.temp_offset(plan_temp_base + k);
                        match d {
                            Dest::Reg(r) | Dest::Temp(TempLoc::Reg(r)) => {
                                self.emit(Instr::StackLoad {
                                    dst: *r,
                                    slot,
                                    class: SlotClass::Temp,
                                });
                            }
                            other => {
                                let s = self.alloc_scratch().expect("scratch invariant");
                                self.emit(Instr::StackLoad {
                                    dst: s,
                                    slot,
                                    class: SlotClass::Temp,
                                });
                                self.store_to_dest(s, other, plan_temp_base);
                                self.release_scratch(s);
                            }
                        }
                    }
                },
            }
        }

        let target = match node.callee {
            ACallee::Direct(f) | ACallee::KnownClosure(f) => CallTarget::Func(f),
            ACallee::Computed => CallTarget::ClosureCp,
        };
        if node.tail {
            // Restores (e.g. ret) sit between the shuffle and the jump.
            self.emit_restores(node.restore);
            // Stack arguments were built in the outgoing area; copy
            // them down to the parameter slots of the reused frame now
            // that nothing else will be read from it.
            let n_stack = node
                .plan
                .steps
                .iter()
                .filter_map(|st| match st {
                    Step::Eval {
                        dst: Dest::Out(j), ..
                    }
                    | Step::Move {
                        dst: Dest::Out(j), ..
                    } => Some(j + 1),
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            for i in 0..n_stack {
                let s = self.alloc_scratch().expect("scratch invariant");
                let idx = self.emit(Instr::StackLoad {
                    dst: s,
                    slot: u32::MAX,
                    class: SlotClass::OutArg,
                });
                self.patches.push((idx, PatchKind::OutSlot(i)));
                self.emit(Instr::StackStore {
                    slot: i,
                    src: s,
                    class: SlotClass::OutArg,
                });
                self.release_scratch(s);
            }
            self.emit(Instr::TailCall { target });
            // Control never returns; dst is left untouched.
        } else {
            let idx = self.emit(Instr::Call {
                target,
                frame_advance: u32::MAX,
            });
            self.patches.push((idx, PatchKind::FrameAdvance));
            self.emit_restores(node.restore);
            if dst != RV {
                self.emit(Instr::Mov { dst, src: RV });
            }
        }
        self.temp_sp = plan_temp_base;
    }

    /// Compiles `e`, leaving its value in `dst`.
    fn expr(&mut self, e: &AExpr, dst: Reg) {
        match e {
            AExpr::Const(c) => match imm_of(c) {
                Some(imm) => {
                    self.emit(Instr::LoadImm { dst, imm });
                }
                None => {
                    let idx = self.const_idx(c);
                    self.emit(Instr::LoadConst { dst, idx });
                }
            },
            AExpr::ReadHome(Home::Reg(r)) => {
                if *r != dst {
                    self.emit(Instr::Mov { dst, src: *r });
                }
            }
            AExpr::ReadHome(Home::Slot(s)) => {
                let slot = self.slot_offset(*s);
                self.emit(Instr::StackLoad {
                    dst,
                    slot,
                    class: Self::slot_class(*s),
                });
            }
            AExpr::FreeRef(i) => {
                self.emit(Instr::LoadFree { dst, index: *i });
            }
            AExpr::Global(g) => {
                self.emit(Instr::LoadGlobal { dst, index: *g });
            }
            AExpr::GlobalSet { index, value } => {
                let (r, scratch) = self.value_to_rv(value);
                self.emit(Instr::StoreGlobal {
                    index: *index,
                    src: r,
                });
                if scratch {
                    self.release_scratch(r);
                }
                self.emit(Instr::LoadImm {
                    dst,
                    imm: Imm::Void,
                });
            }
            AExpr::If {
                cond,
                then,
                els,
                predict,
            } => {
                let (c, scratch) = self.value_to_rv(cond);
                let taken_label = self.new_label();
                let end_label = self.new_label();
                // §6 static prediction is realized as branch layout:
                // when the else path is predicted likely, swap the
                // branches so it falls through.
                let swap = *predict == Some(false);
                let likely = predict.map(|_| true);
                let idx = if swap {
                    self.emit(Instr::BranchTrue {
                        src: c,
                        target: u32::MAX,
                        likely,
                    })
                } else {
                    self.emit(Instr::BranchFalse {
                        src: c,
                        target: u32::MAX,
                        likely,
                    })
                };
                self.patches.push((idx, PatchKind::Label(taken_label)));
                if scratch {
                    self.release_scratch(c);
                }
                let (inline, out_of_line): (&AExpr, &AExpr) =
                    if swap { (els, then) } else { (then, els) };
                self.expr(inline, dst);
                let jidx = self.emit(Instr::Jump { target: u32::MAX });
                self.patches.push((jidx, PatchKind::Label(end_label)));
                self.place_label(taken_label);
                self.expr(out_of_line, dst);
                self.place_label(end_label);
            }
            AExpr::Seq(es) => {
                let (last, init) = es.split_last().expect("non-empty seq");
                for e in init {
                    self.expr(e, RV); // effect position
                }
                self.expr(last, dst);
            }
            AExpr::Bind { home, rhs, body } => {
                match home {
                    Home::Reg(r) => self.expr(rhs, *r),
                    Home::Slot(s) => {
                        let (r, scratch) = self.value_to_rv(rhs);
                        let slot = self.slot_offset(*s);
                        self.emit(Instr::StackStore {
                            slot,
                            src: r,
                            class: Self::slot_class(*s),
                        });
                        if scratch {
                            self.release_scratch(r);
                        }
                    }
                }
                self.expr(body, dst);
            }
            AExpr::PrimApp(p, args) => self.primapp(*p, args, dst),
            AExpr::Save {
                regs,
                exit_restore,
                body,
                ..
            } => {
                self.emit_saves(*regs);
                if exit_restore.is_empty() {
                    self.expr(body, dst);
                } else {
                    // The exit restores write registers after the body
                    // value exists; route the value through rv (never
                    // restored) so a restore cannot clobber it, then
                    // move it to its destination last.
                    self.expr(body, RV);
                    self.emit_restores(*exit_restore);
                    if dst != RV {
                        self.emit(Instr::Mov { dst, src: RV });
                    }
                }
            }
            AExpr::RestoreRegs(regs) => {
                self.emit_restores(*regs);
                self.emit(Instr::LoadImm {
                    dst,
                    imm: Imm::Void,
                });
            }
            AExpr::RegMove { src, dst: d } => {
                self.emit(Instr::Mov { dst: *d, src: *src });
                self.emit(Instr::LoadImm {
                    dst,
                    imm: Imm::Void,
                });
            }
            AExpr::Call(node) => self.call(node, dst),
            AExpr::MakeClosure { func, free } => {
                let clo = self.alloc_scratch().unwrap_or(dst);
                self.emit(Instr::AllocClosure {
                    dst: clo,
                    func: *func,
                    n_free: free.len() as u32,
                });
                for (i, f) in free.iter().enumerate() {
                    let (r, scratch) = if Self::is_leaf(f) {
                        self.operand(f)
                    } else {
                        self.expr(f, RV);
                        (RV, false)
                    };
                    self.emit(Instr::ClosureSlotSet {
                        clo,
                        index: i as u32,
                        src: r,
                    });
                    if scratch {
                        self.release_scratch(r);
                    }
                }
                if clo != dst {
                    self.emit(Instr::Mov { dst, src: clo });
                    self.release_scratch(clo);
                }
            }
            AExpr::ClosureSet { clo, index, value } => {
                // Closure conversion emits leaves here; fall back to a
                // frame temporary if that ever changes.
                let temp_base = self.temp_sp;
                let (c, cs) = if Self::is_leaf(clo) {
                    self.operand(clo)
                } else {
                    let t = self.temp_push();
                    self.expr(clo, RV);
                    let slot = self.temp_offset(t);
                    self.emit(Instr::StackStore {
                        slot,
                        src: RV,
                        class: SlotClass::Temp,
                    });
                    let s = self.alloc_scratch().expect("scratch invariant");
                    self.emit(Instr::StackLoad {
                        dst: s,
                        slot,
                        class: SlotClass::Temp,
                    });
                    (s, true)
                };
                let (v, vs) = if Self::is_leaf(value) {
                    self.operand(value)
                } else {
                    self.expr(value, RV);
                    (RV, false)
                };
                self.emit(Instr::ClosureSlotSet {
                    clo: c,
                    index: *index,
                    src: v,
                });
                if vs {
                    self.release_scratch(v);
                }
                if cs {
                    self.release_scratch(c);
                }
                self.temp_sp = temp_base;
                self.emit(Instr::LoadImm {
                    dst,
                    imm: Imm::Void,
                });
            }
        }
    }

    fn finish(mut self) -> VmFunc {
        self.emit(Instr::Return);
        let frame_size = self.layout.size();
        for (idx, patch) in &self.patches {
            match patch {
                PatchKind::OutSlot(j) => match &mut self.code[*idx] {
                    Instr::StackStore { slot, .. } | Instr::StackLoad { slot, .. } => {
                        *slot = frame_size + j
                    }
                    _ => unreachable!("out-slot patch on non-stack instruction"),
                },
                PatchKind::FrameAdvance => {
                    if let Instr::Call { frame_advance, .. } = &mut self.code[*idx] {
                        *frame_advance = frame_size;
                    }
                }
                PatchKind::Label(l) => {
                    let target = self.labels[*l as usize].expect("label placed");
                    match &mut self.code[*idx] {
                        Instr::Jump { target: t }
                        | Instr::BranchFalse { target: t, .. }
                        | Instr::BranchTrue { target: t, .. } => *t = target,
                        _ => unreachable!("label patch on non-branch"),
                    }
                }
            }
        }
        VmFunc {
            id: self.func.id,
            name: self.func.name.clone(),
            code: self.code,
            frame_size,
            n_incoming: self.layout.n_incoming,
            syntactic_leaf: self.func.syntactic_leaf,
            call_inevitable: self.func.call_inevitable,
        }
    }
}

fn compile_func(func: &AllocatedFunc, constants: &mut Vec<Const>) -> VmFunc {
    let mut e = Emitter {
        func,
        code: Vec::new(),
        layout: func.frame.clone(),
        temp_sp: 0,
        scratch_free: (0..NUM_SCRATCH).map(scratch_reg).collect(),
        patches: Vec::new(),
        labels: Vec::new(),
        constants,
    };
    e.expr(&func.body, RV);
    e.finish()
}

/// Compiles an allocated program to VM code, appending a bootstrap
/// entry function that calls `main` and halts.
///
/// # Examples
///
/// ```
/// use lesgs_codegen::compile_program;
/// use lesgs_core::{allocate_program, AllocConfig};
/// use lesgs_frontend::pipeline;
///
/// let ir = pipeline::front_to_closed("(+ 40 2)").unwrap();
/// let allocated = allocate_program(&ir, &AllocConfig::paper_default());
/// let vm = compile_program(&allocated);
/// assert!(vm.code_size() > 0);
/// ```
pub fn compile_program(program: &AllocatedProgram) -> VmProgram {
    compile_program_opts(program, true)
}

/// Compiles with explicit control over the peephole optimizer (used by
/// the ablation harness).
pub fn compile_program_opts(program: &AllocatedProgram, run_peephole: bool) -> VmProgram {
    compile_program_observed(program, run_peephole, &mut lesgs_metrics::Registry::new())
}

/// Like [`compile_program_opts`], timing emission and peephole
/// optimization per function (`pass.emit`, `pass.peephole`) and
/// recording the size counters `codegen.funcs`,
/// `codegen.instrs_emitted` (before peephole), `codegen.instrs`
/// (final), and `codegen.instrs_removed` into `reg`.
pub fn compile_program_observed(
    program: &AllocatedProgram,
    run_peephole: bool,
    reg: &mut lesgs_metrics::Registry,
) -> VmProgram {
    let mut constants = Vec::new();
    let mut funcs: Vec<VmFunc> = program
        .funcs
        .iter()
        .map(|f| {
            let mut vf = reg.time("pass.emit", || compile_func(f, &mut constants));
            reg.inc("codegen.instrs_emitted", vf.code.len() as u64);
            if run_peephole {
                let before = vf.code.len() as u64;
                reg.time("pass.peephole", || peephole::peephole_to_fixpoint(&mut vf));
                reg.inc(
                    "codegen.instrs_removed",
                    before.saturating_sub(vf.code.len() as u64),
                );
            }
            reg.inc("codegen.instrs", vf.code.len() as u64);
            vf
        })
        .collect();
    reg.inc("codegen.funcs", funcs.len() as u64);
    let entry_id = FuncId(funcs.len() as u32);
    funcs.push(VmFunc {
        id: entry_id,
        name: "%entry".to_owned(),
        code: vec![
            Instr::Call {
                target: CallTarget::Func(program.main),
                frame_advance: 0,
            },
            Instr::Halt,
        ],
        frame_size: 0,
        n_incoming: 0,
        syntactic_leaf: false,
        call_inevitable: true,
    });
    VmProgram {
        funcs,
        entry: entry_id,
        constants,
        n_globals: program.n_globals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lesgs_core::{allocate_program, AllocConfig};
    use lesgs_frontend::pipeline;
    use lesgs_vm::{CostModel, Machine};

    fn run(src: &str, cfg: &AllocConfig) -> lesgs_vm::VmOutcome {
        let ir = pipeline::front_to_closed(src).unwrap();
        let allocated = allocate_program(&ir, cfg);
        let vm = compile_program(&allocated);
        Machine::new(&vm, CostModel::alpha_like())
            .with_poison(true)
            .run()
            .unwrap_or_else(|e| panic!("{e}\n{}", vm.disassemble()))
    }

    fn value(src: &str) -> String {
        run(src, &AllocConfig::paper_default()).value
    }

    #[test]
    fn constants_and_arithmetic() {
        assert_eq!(value("42"), "42");
        assert_eq!(value("(+ 1 2)"), "3");
        assert_eq!(value("(* (+ 1 2) (- 10 4))"), "18");
    }

    #[test]
    fn direct_calls() {
        assert_eq!(value("(define (f x) (+ x 1)) (f 41)"), "42");
        assert_eq!(value("(define (add a b) (+ a b)) (add 40 2)"), "42");
    }

    #[test]
    fn recursion() {
        assert_eq!(
            value("(define (fact n) (if (zero? n) 1 (* n (fact (- n 1))))) (fact 10)"),
            "3628800"
        );
        assert_eq!(
            value("(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 15)"),
            "610"
        );
    }

    #[test]
    fn tail_loops() {
        assert_eq!(
            value("(let loop ((i 0) (acc 0)) (if (= i 100) acc (loop (+ i 1) (+ acc i))))"),
            "4950"
        );
    }

    #[test]
    fn closures() {
        assert_eq!(
            value("(define (adder n) (lambda (x) (+ x n))) ((adder 3) 4)"),
            "7"
        );
        assert_eq!(
            value(
                "(define (compose f g) (lambda (x) (f (g x))))
                   ((compose (lambda (a) (* a 2)) (lambda (b) (+ b 1))) 5)"
            ),
            "12"
        );
    }

    #[test]
    fn data_structures() {
        assert_eq!(value("(car (cons 1 2))"), "1");
        assert_eq!(value("(length (list 1 2 3 4))"), "4");
        assert_eq!(value("(append '(1 2) '(3))"), "(1 2 3)");
        assert_eq!(
            value("(let ((v (make-vector 3 0))) (vector-set! v 1 7) (vector-ref v 1))"),
            "7"
        );
    }

    #[test]
    fn output() {
        let out = run(
            "(display 1) (display 'x) (newline) 0",
            &AllocConfig::paper_default(),
        );
        assert_eq!(out.output, "1x\n");
    }

    #[test]
    fn all_configs_agree_on_fib() {
        use lesgs_core::config::{RestoreStrategy, SaveStrategy};
        let src = "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 12)";
        for save in [SaveStrategy::Lazy, SaveStrategy::Early, SaveStrategy::Late] {
            for restore in [RestoreStrategy::Eager, RestoreStrategy::Lazy] {
                for c in [0, 1, 3, 6] {
                    let cfg = AllocConfig {
                        save,
                        restore,
                        machine: lesgs_ir::MachineConfig::with_arg_regs(c),
                        ..AllocConfig::paper_default()
                    };
                    let out = run(src, &cfg);
                    assert_eq!(out.value, "144", "save={save:?} restore={restore:?} c={c}");
                }
            }
        }
    }

    #[test]
    fn swap_shuffle_executes() {
        assert_eq!(
            value("(define (f a b) (if (zero? a) b (f (- a 1) (+ b a)))) (f 3 0)"),
            "6"
        );
        // True swap.
        assert_eq!(
            value(
                "(define (g a b n) (if (zero? n) (- a b) (g b a (- n 1))))
                   (g 10 4 3)"
            ),
            "-6"
        );
    }

    #[test]
    fn stack_args_beyond_register_count() {
        let cfg = AllocConfig {
            machine: lesgs_ir::MachineConfig::with_arg_regs(2),
            ..AllocConfig::paper_default()
        };
        let out = run("(define (f a b c d) (+ (+ a b) (+ c d))) (f 1 2 3 4)", &cfg);
        assert_eq!(out.value, "10");
        // c and d traveled on the stack.
        assert!(out.stats.stack_refs() > 0);
    }

    #[test]
    fn baseline_uses_many_more_stack_refs() {
        let src = "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 12)";
        let base = run(src, &AllocConfig::baseline());
        let six = run(src, &AllocConfig::paper_default());
        // fib's partial sums must cross calls whatever the register
        // count, so the reduction is smaller than leaf-heavy programs.
        assert!(
            base.stats.stack_refs() as f64 > 1.5 * six.stats.stack_refs() as f64,
            "baseline {} vs six-reg {}",
            base.stats.stack_refs(),
            six.stats.stack_refs()
        );
        assert!(base.stats.cycles > six.stats.cycles);
    }
}
