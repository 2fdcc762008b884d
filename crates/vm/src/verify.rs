//! Bytecode-level verification: a forward abstract interpretation over
//! [`VmProgram`] instructions.
//!
//! The AST-level checker in `lesgs-core` validates the *allocator's*
//! output, but everything after it — code generation, frame lowering,
//! branch patching, the peephole pass — can still break the paper's
//! save/restore contract without failing that check. This module closes
//! the gap: it walks every function's control-flow graph with an
//! abstract machine state and rejects code that could read a clobbered
//! register, restore from a slot that was not saved on every incoming
//! path, call with an unbalanced frame, or fall off the end of a
//! function.
//!
//! # The abstract machine
//!
//! Per path, the verifier tracks for every register whether it holds a
//! return address (`RetAddr`), an untouched callee-save entry value
//! (`Entry`), an ordinary defined value (`Val`), or garbage left
//! behind by a call (`Clobbered`); and for every written frame slot its
//! [`SlotClass`] and — for save slots — *which* register was saved and
//! what abstract value it held. Join points meet the states
//! (intersection of written slots, pointwise meet of register values),
//! so a fact only survives if it holds on **every** path.
//!
//! # Checked invariants
//!
//! * No instruction reads a register clobbered by an earlier call and
//!   not restored since ([`BytecodeErrorKind::StaleRegister`]).
//! * Every [`SlotClass::Save`]-class load reads a slot that was
//!   save-stored on every path reaching it, and restores into the same
//!   register that was saved ([`BytecodeErrorKind::RestoreUnsaved`],
//!   [`BytecodeErrorKind::RestoreMismatch`]).
//! * No dead saves: a caller-save register save must be able to reach
//!   a (non-tail) call — otherwise the lazy-save analysis should have
//!   sunk it off the call-free path ([`BytecodeErrorKind::DeadSave`]).
//! * Frame balance: a call's `frame_advance` equals the caller's frame
//!   size ([`BytecodeErrorKind::FrameMismatch`]), and every stack slot
//!   access stays inside the region its class names
//!   ([`BytecodeErrorKind::SlotOutOfBounds`]).
//! * No reads of never-written slots ([`BytecodeErrorKind::UninitRead`])
//!   and no direct calls with unwritten stack-argument slots
//!   ([`BytecodeErrorKind::MissingArg`]; a call reports the first 64
//!   one by one and one more error counts the rest).
//! * The global count and every closure's free-slot count are at most
//!   the program's instruction count ([`BytecodeErrorKind::Oversized`]):
//!   each global is defined, and each free slot filled, by an
//!   instruction of its own, and the VM allocates both up front.
//! * `return` goes through a real return address, callee-save registers
//!   are restored to their entry values before control leaves the
//!   function, branch targets are in range, and no path falls off the
//!   end of the code.
//! * A function's frame holds its incoming parameters
//!   (`n_incoming <= frame_size`); a header that breaks this is
//!   reported at pc 0 ([`BytecodeErrorKind::SlotOutOfBounds`]) and the
//!   function is not analysed further.
//!
//! # The fixpoint
//!
//! The analysis is a worklist fixpoint over basic blocks. Leaders are
//! pc 0, every branch target, and every pc after a jump, branch,
//! return, tail call or halt, so every other instruction has exactly
//! one predecessor. Abstract states are kept only at block entries, in
//! one flat arena per function; each block runs on one scratch state.
//! A slot state is a vector over the function's *slot table*, the
//! distinct slots its stores name. A slot no instruction stores is
//! either an incoming parameter, written on every path (a call keeps
//! every slot below the frame size), or never written. So the arena
//! holds one cell per block and stored slot: the verifier's memory is
//! bounded by code size, never by slot operands.
//!
//! Restoring is not monotone: a slot that saved a clobbered register
//! restores `Clobbered`, the same slot lost at a join restores a plain
//! value. Each save-class load therefore keeps the meet of every value
//! it has restored, which makes every block-interior state equal to
//! the one a per-instruction fixpoint computes. A single reporting
//! pass then walks each reachable block once, in pc order, from its
//! final entry state and collects errors. Nothing in it is sized or
//! iterated by a header count or an operand value, so time, memory and
//! the report all grow with the code.

use std::fmt;

use lesgs_ir::machine::{CP, NUM_REGS, RET, RV};
use lesgs_ir::Reg;

use crate::instr::{CallTarget, Instr, SlotClass};
use crate::program::{VmFunc, VmProgram};

/// What the verifier knows about a register's content on a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbsVal {
    /// A return address (written by `call`, restorable from a save
    /// slot). `return` and tail calls require `ret` to hold this.
    RetAddr,
    /// A callee-save register still holding the caller's value; it must
    /// hold this again when the function returns or tail-calls.
    Entry,
    /// An ordinary defined value.
    Val,
    /// Garbage left by a call (caller-save register not yet rewritten).
    Clobbered,
}

impl AbsVal {
    fn meet(a: AbsVal, b: AbsVal) -> AbsVal {
        match (a, b) {
            _ if a == b => a,
            (AbsVal::Clobbered, _) | (_, AbsVal::Clobbered) => AbsVal::Clobbered,
            // Defined-but-different kinds degrade to a plain value.
            _ => AbsVal::Val,
        }
    }
}

/// What the verifier knows about a written frame slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlotAbs {
    /// The class of the store(s) that wrote it (`None` after a join of
    /// conflicting classes).
    class: Option<SlotClass>,
    /// For save slots: the saved register and its value at save time.
    saved: Option<(Reg, AbsVal)>,
}

impl SlotAbs {
    fn meet(a: SlotAbs, b: SlotAbs) -> SlotAbs {
        SlotAbs {
            class: if a.class == b.class { a.class } else { None },
            saved: match (a.saved, b.saved) {
                (Some((ra, va)), Some((rb, vb))) if ra == rb => Some((ra, AbsVal::meet(va, vb))),
                _ => None,
            },
        }
    }
}

/// The most `missing-arg` errors one call reports slot by slot; one
/// more error counts the rest. Above the stack-passed parameter count
/// of any compiled function.
const MAX_MISSING_ARGS: u64 = 64;

/// What an incoming-parameter slot that no instruction stores holds
/// on every path.
const PARAM: SlotAbs = SlotAbs {
    class: Some(SlotClass::Param),
    saved: None,
};

/// The register half of an abstract state.
type Regs = [AbsVal; NUM_REGS];

/// One frame slot's abstract state (`None` = possibly unwritten).
type Slot = Option<SlotAbs>;

fn meet_slot(a: Slot, b: Slot) -> Slot {
    Some(SlotAbs::meet(a?, b?))
}

/// The category of a bytecode-verification failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BytecodeErrorKind {
    /// A register whose content a call destroyed is read before being
    /// rewritten or restored.
    StaleRegister,
    /// A save-class load reads a slot not save-stored on every path.
    RestoreUnsaved,
    /// A save-class load restores into a different register than the
    /// slot saved.
    RestoreMismatch,
    /// A caller-save register save from which no call is reachable.
    DeadSave,
    /// A stack access to a never-written slot.
    UninitRead,
    /// A stack access outside the region its slot class names.
    SlotOutOfBounds,
    /// `frame_advance` of a call differs from the function's frame
    /// size.
    FrameMismatch,
    /// A direct call whose callee expects stack parameters the caller
    /// never wrote.
    MissingArg,
    /// `return` (or a tail call) without a return address in `ret`.
    BadReturnAddress,
    /// Control can leave the function with a callee-save register not
    /// holding its entry value.
    CalleeSaveNotRestored,
    /// A branch or jump target outside the function's code.
    BadTarget,
    /// A path falls off the end of the code.
    FallsOffEnd,
    /// A constant, global, or function index outside the program's
    /// tables.
    BadIndex,
    /// A global count or a closure's free-slot count above the
    /// program's instruction count: memory the VM would allocate up
    /// front that no instruction can fill.
    Oversized,
}

impl fmt::Display for BytecodeErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BytecodeErrorKind::StaleRegister => "stale-register",
            BytecodeErrorKind::RestoreUnsaved => "restore-unsaved",
            BytecodeErrorKind::RestoreMismatch => "restore-mismatch",
            BytecodeErrorKind::DeadSave => "dead-save",
            BytecodeErrorKind::UninitRead => "uninit-read",
            BytecodeErrorKind::SlotOutOfBounds => "slot-out-of-bounds",
            BytecodeErrorKind::FrameMismatch => "frame-mismatch",
            BytecodeErrorKind::MissingArg => "missing-arg",
            BytecodeErrorKind::BadReturnAddress => "bad-return-address",
            BytecodeErrorKind::CalleeSaveNotRestored => "callee-save-not-restored",
            BytecodeErrorKind::BadTarget => "bad-target",
            BytecodeErrorKind::FallsOffEnd => "falls-off-end",
            BytecodeErrorKind::BadIndex => "bad-index",
            BytecodeErrorKind::Oversized => "oversized",
        };
        f.write_str(s)
    }
}

/// One bytecode-verification failure, located at a function +
/// instruction index.
#[derive(Debug, Clone, PartialEq)]
pub struct BytecodeError {
    /// Function name.
    pub func: String,
    /// Instruction index within the function.
    pub pc: u32,
    /// Failure category (stable; mutation tests match on it).
    pub kind: BytecodeErrorKind,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for BytecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bytecode error [{}] at {}+{}: {}",
            self.kind, self.func, self.pc, self.message
        )
    }
}

impl std::error::Error for BytecodeError {}

/// Scratch space for verifying one function, reused across the
/// functions of a program: verification allocates only when one of
/// these grows, never per instruction or per join.
#[derive(Default)]
struct Buffers {
    /// The sorted, distinct slots the function's `StackStore`s name.
    table: Vec<u32>,
    /// The first pc of every basic block, in pc order, then the code
    /// length.
    starts: Vec<u32>,
    /// Block entry states: `in_regs[b]` is `None` until block `b` is
    /// reached; its slots are `in_slots[b * w..(b + 1) * w]`, where
    /// `w` is the table length.
    in_regs: Vec<Option<Regs>>,
    in_slots: Vec<Slot>,
    /// The slots of the state carried through a block.
    slots: Vec<Slot>,
    /// Per pc: the meet of every value the save-class load there has
    /// restored.
    restored: Vec<Option<AbsVal>>,
    /// Blocks whose entry state changed, last in first out.
    work: Vec<u32>,
    /// `reach[pc]`: a non-tail call is reachable from `pc`.
    reach: Vec<bool>,
}

struct Verifier<'a> {
    program: &'a VmProgram,
    /// The program's instruction count.
    code_size: usize,
    func: &'a VmFunc,
    buf: &'a mut Buffers,
    errors: &'a mut Vec<BytecodeError>,
    /// The registers of the state carried through a block.
    regs: Regs,
    /// The first table index at or above the frame size: a call
    /// releases `table[outside..]` to the callee.
    outside: usize,
}

/// Instruction successors within the function (targets validated
/// separately), branch target first.
fn successors(instr: &Instr, pc: u32, len: u32) -> impl Iterator<Item = u32> {
    let next = instr.falls_through() && pc + 1 < len;
    instr.target().into_iter().chain(next.then_some(pc + 1))
}

/// Fills `reach` so that `reach[pc]` = a non-tail call is reachable
/// from `pc` (inclusive). Saves that cannot reach a call protect
/// nothing and are flagged dead.
fn call_reachability(code: &[Instr], reach: &mut Vec<bool>) {
    let len = code.len() as u32;
    reach.clear();
    reach.resize(code.len(), false);
    // Iterate to fixpoint; the graph is tiny and mostly forward, so a
    // couple of reverse sweeps converge.
    loop {
        let mut changed = false;
        for pc in (0..code.len()).rev() {
            if reach[pc] {
                continue;
            }
            let here = matches!(code[pc], Instr::Call { .. })
                || successors(&code[pc], pc as u32, len).any(|s| reach[s as usize]);
            if here {
                reach[pc] = true;
                changed = true;
            }
        }
        if !changed {
            return;
        }
    }
}

impl Verifier<'_> {
    fn error(&mut self, pc: u32, kind: BytecodeErrorKind, message: String) {
        self.errors.push(BytecodeError {
            func: self.func.name.clone(),
            pc,
            kind,
            message,
        });
    }

    fn get(&self, r: Reg) -> AbsVal {
        self.regs[r.index()]
    }

    fn set(&mut self, r: Reg, v: AbsVal) {
        self.regs[r.index()] = v;
    }

    fn read(&mut self, pc: u32, r: Reg, report: bool) {
        if report && self.get(r) == AbsVal::Clobbered {
            self.error(
                pc,
                BytecodeErrorKind::StaleRegister,
                format!("read of register {r} clobbered by an earlier call"),
            );
        }
    }

    /// Frame slot `slot` in the carried state.
    fn slot(&self, slot: u32) -> Slot {
        match self.buf.table.binary_search(&slot) {
            Ok(i) => self.buf.slots[i],
            Err(_) => (slot < self.func.n_incoming).then_some(PARAM),
        }
    }

    /// Meets `v` into the values the save-class load at `pc` has
    /// restored so far, and returns the meet.
    fn restored(&mut self, pc: u32, v: AbsVal) -> AbsVal {
        let seen = &mut self.buf.restored[pc as usize];
        let v = seen.map_or(v, |old| AbsVal::meet(old, v));
        *seen = Some(v);
        v
    }

    /// Splits the code into basic blocks, collects the slot table, and
    /// sizes the buffers for this function.
    fn prepare(&mut self) {
        let func = self.func;
        let len = func.code.len() as u32;
        let buf = &mut *self.buf;
        buf.starts.clear();
        buf.starts.push(0);
        buf.table.clear();
        for (pc, instr) in func.code.iter().enumerate() {
            // A block ends at every branch and at every instruction
            // control cannot fall through.
            if let Some(target) = instr.target() {
                buf.starts.extend([target, pc as u32 + 1]);
            } else if !instr.falls_through() {
                buf.starts.push(pc as u32 + 1);
            }
            if let Instr::StackStore { slot, .. } = instr {
                buf.table.push(*slot);
            }
        }
        buf.starts.push(len);
        buf.starts.sort_unstable();
        buf.starts.dedup();
        buf.table.sort_unstable();
        buf.table.dedup();
        let blocks = buf.starts.len() - 1;
        let width = buf.table.len();
        buf.in_regs.clear();
        buf.in_regs.resize(blocks, None);
        buf.in_slots.clear();
        buf.in_slots.resize(blocks * width, None);
        buf.slots.clear();
        buf.slots.resize(width, None);
        buf.restored.clear();
        buf.restored.resize(func.code.len(), None);
        buf.work.clear();
        self.outside = buf.table.partition_point(|&s| s < func.frame_size);
    }

    /// The abstract state on entry, stored as block 0's: `ret` holds
    /// the caller's return address, callee-save registers the caller's
    /// values, argument registers and `cp` the incoming
    /// arguments/closure; scratches and `rv` hold nothing the function
    /// may rely on.
    fn enter(&mut self) {
        let mut regs = [AbsVal::Clobbered; NUM_REGS];
        for (i, v) in regs.iter_mut().enumerate() {
            let r = Reg(i as u8);
            if r == RET {
                *v = AbsVal::RetAddr;
            } else if r.is_callee_save() {
                *v = AbsVal::Entry;
            } else if r == CP || r.is_arg() {
                *v = AbsVal::Val;
            }
        }
        // The bootstrap entry function is jumped to, not called: it has
        // no return address and must halt rather than return.
        if self.func.id == self.program.entry {
            regs[RET.index()] = AbsVal::Clobbered;
        }
        let buf = &mut *self.buf;
        buf.in_regs[0] = Some(regs);
        let n_incoming = self.func.n_incoming;
        for (s, &slot) in buf.in_slots.iter_mut().zip(&buf.table) {
            *s = (slot < n_incoming).then_some(PARAM);
        }
    }

    /// The block starting at `pc`.
    fn block_at(&self, pc: u32) -> usize {
        self.buf
            .starts
            .binary_search(&pc)
            .expect("branch targets and fall-throughs start blocks")
    }

    /// Meets the carried state into block `b`'s entry state; true if
    /// that changed it.
    fn merge_into(&mut self, b: usize) -> bool {
        let buf = &mut *self.buf;
        let width = buf.table.len();
        let slots = &mut buf.in_slots[b * width..(b + 1) * width];
        match &mut buf.in_regs[b] {
            entry @ None => {
                *entry = Some(self.regs);
                slots.copy_from_slice(&buf.slots);
                true
            }
            Some(regs) => {
                let mut changed = false;
                for (old, new) in regs.iter_mut().zip(self.regs) {
                    let m = AbsVal::meet(*old, new);
                    changed |= m != *old;
                    *old = m;
                }
                for (old, new) in slots.iter_mut().zip(&buf.slots) {
                    let m = meet_slot(*old, *new);
                    changed |= m != *old;
                    *old = m;
                }
                changed
            }
        }
    }

    /// Carries block `b`'s entry state through its instructions,
    /// reporting violations when `report` is set (the reporting pass).
    fn run_block(&mut self, b: usize, report: bool) {
        let buf = &mut *self.buf;
        let width = buf.table.len();
        self.regs = buf.in_regs[b].expect("only reached blocks run");
        buf.slots
            .copy_from_slice(&buf.in_slots[b * width..(b + 1) * width]);
        let code = &self.func.code;
        for pc in self.buf.starts[b]..self.buf.starts[b + 1] {
            let instr = &code[pc as usize];
            self.transfer(pc, instr, report);
            if report {
                self.check_exit(pc, instr);
            }
        }
    }

    /// Applies `instr` to the carried state, reporting violations when
    /// `report` is set.
    #[allow(clippy::too_many_lines)] // one arm per opcode, intentionally flat
    fn transfer(&mut self, pc: u32, instr: &Instr, report: bool) {
        let frame_size = self.func.frame_size;
        match instr {
            Instr::LoadImm { dst, .. } => self.set(*dst, AbsVal::Val),
            Instr::LoadConst { dst, idx } => {
                if report && *idx as usize >= self.program.constants.len() {
                    self.error(
                        pc,
                        BytecodeErrorKind::BadIndex,
                        format!("constant index {idx} out of range"),
                    );
                }
                self.set(*dst, AbsVal::Val);
            }
            Instr::Mov { dst, src } => {
                self.read(pc, *src, report);
                let v = self.get(*src);
                self.set(*dst, v);
            }
            Instr::StackLoad { dst, slot, class } => {
                self.check_slot_bounds(pc, *slot, *class, false, report);
                let abs = self.slot(*slot);
                if abs.is_none() && report {
                    self.error(
                        pc,
                        BytecodeErrorKind::UninitRead,
                        format!("load of slot {slot} ({class}) not written on every path"),
                    );
                }
                let v = match (abs, class) {
                    (Some(abs), SlotClass::Save) => match abs.saved {
                        Some((r, v)) if r == *dst => v,
                        Some((r, _)) => {
                            if report {
                                self.error(
                                    pc,
                                    BytecodeErrorKind::RestoreMismatch,
                                    format!("restore of {dst} from slot {slot} which saved {r}"),
                                );
                            }
                            AbsVal::Val
                        }
                        None => {
                            if report {
                                self.error(
                                    pc,
                                    BytecodeErrorKind::RestoreUnsaved,
                                    format!(
                                        "restore from slot {slot} not save-stored on every path"
                                    ),
                                );
                            }
                            AbsVal::Val
                        }
                    },
                    _ => AbsVal::Val,
                };
                let v = if *class == SlotClass::Save {
                    self.restored(pc, v)
                } else {
                    v
                };
                self.set(*dst, v);
            }
            Instr::StackStore { slot, src, class } => {
                self.read(pc, *src, report);
                self.check_slot_bounds(pc, *slot, *class, true, report);
                let saved = (*class == SlotClass::Save).then(|| (*src, self.get(*src)));
                let i = self
                    .buf
                    .table
                    .binary_search(slot)
                    .expect("the slot table holds every stored slot");
                self.buf.slots[i] = Some(SlotAbs {
                    class: Some(*class),
                    saved,
                });
            }
            Instr::Prim { dst, args, .. } => {
                for a in args.as_slice() {
                    self.read(pc, *a, report);
                }
                self.set(*dst, AbsVal::Val);
            }
            Instr::Jump { .. } => {}
            Instr::BranchFalse { src, .. } | Instr::BranchTrue { src, .. } => {
                self.read(pc, *src, report);
            }
            Instr::Call {
                target,
                frame_advance,
            } => {
                if report {
                    if *frame_advance != frame_size {
                        self.error(
                            pc,
                            BytecodeErrorKind::FrameMismatch,
                            format!(
                                "call advances fp by {frame_advance}, frame size \
                                 is {frame_size}"
                            ),
                        );
                    }
                    self.check_call_target(pc, target, *frame_advance);
                }
                if let CallTarget::ClosureCp = target {
                    self.read(pc, CP, report);
                }
                // The callee owns the outgoing-argument region and every
                // caller-save register from here on.
                let outside = self.outside;
                self.buf.slots[outside..].fill(None);
                for (i, v) in self.regs.iter_mut().enumerate() {
                    if !Reg(i as u8).is_callee_save() {
                        *v = AbsVal::Clobbered;
                    }
                }
                self.set(RV, AbsVal::Val);
            }
            Instr::TailCall { target } => {
                if let CallTarget::ClosureCp = target {
                    self.read(pc, CP, report);
                }
                if report {
                    if self.get(RET) != AbsVal::RetAddr {
                        self.error(
                            pc,
                            BytecodeErrorKind::BadReturnAddress,
                            "tail call without a return address in ret".to_owned(),
                        );
                    }
                    self.check_callee_saves(pc, "tail call");
                    if let CallTarget::Func(f) = target {
                        let program = self.program;
                        match program.funcs.get(f.index()) {
                            None => self.error(
                                pc,
                                BytecodeErrorKind::BadIndex,
                                format!("tail call of unknown function {f}"),
                            ),
                            Some(callee) => {
                                // The callee reuses this frame; its stack
                                // parameters live at slots 0.. and must be
                                // written (or inherited) on every path.
                                self.report_missing(
                                    pc,
                                    0,
                                    callee.n_incoming,
                                    |s| s.is_some(),
                                    |slot| {
                                        format!(
                                            "tail call to {} without stack \
                                             argument in slot {slot}",
                                            callee.name
                                        )
                                    },
                                    |more| {
                                        format!(
                                            "tail call to {} without stack \
                                             arguments in {more} more slots",
                                            callee.name
                                        )
                                    },
                                );
                            }
                        }
                    }
                }
            }
            Instr::Return => {
                if report {
                    if self.get(RET) != AbsVal::RetAddr {
                        self.error(
                            pc,
                            BytecodeErrorKind::BadReturnAddress,
                            "return without a return address in ret".to_owned(),
                        );
                    }
                    self.check_callee_saves(pc, "return");
                }
            }
            Instr::AllocClosure { dst, func, n_free } => {
                if report && func.index() >= self.program.funcs.len() {
                    self.error(
                        pc,
                        BytecodeErrorKind::BadIndex,
                        format!("closure over unknown function {func}"),
                    );
                }
                // Each free slot is filled by a `closure-set` of its own.
                if report && *n_free as usize > self.code_size {
                    self.error(
                        pc,
                        BytecodeErrorKind::Oversized,
                        format!(
                            "closure with {n_free} free slots, more than the \
                             program's {} instructions",
                            self.code_size
                        ),
                    );
                }
                self.set(*dst, AbsVal::Val);
            }
            Instr::ClosureSlotSet { clo, src, .. } => {
                self.read(pc, *clo, report);
                self.read(pc, *src, report);
            }
            Instr::LoadFree { dst, .. } => {
                self.read(pc, CP, report);
                self.set(*dst, AbsVal::Val);
            }
            Instr::LoadGlobal { dst, index } => {
                if report && *index >= self.program.n_globals {
                    self.error(
                        pc,
                        BytecodeErrorKind::BadIndex,
                        format!("global index {index} out of range"),
                    );
                }
                self.set(*dst, AbsVal::Val);
            }
            Instr::StoreGlobal { index, src } => {
                self.read(pc, *src, report);
                if report && *index >= self.program.n_globals {
                    self.error(
                        pc,
                        BytecodeErrorKind::BadIndex,
                        format!("global index {index} out of range"),
                    );
                }
            }
            Instr::Halt => {}
        }
    }

    /// Direct calls must have written the callee's stack parameters in
    /// the outgoing region on every path.
    fn check_call_target(&mut self, pc: u32, target: &CallTarget, frame_advance: u32) {
        let CallTarget::Func(f) = target else { return };
        let program = self.program;
        match program.funcs.get(f.index()) {
            None => self.error(
                pc,
                BytecodeErrorKind::BadIndex,
                format!("call of unknown function {f}"),
            ),
            Some(callee) => self.report_missing(
                pc,
                u64::from(frame_advance),
                callee.n_incoming,
                |s| s.is_some_and(|s| s.class == Some(SlotClass::OutArg) || s.class.is_none()),
                |slot| {
                    format!(
                        "call to {} without outgoing argument in slot \
                         {slot}",
                        callee.name
                    )
                },
                |more| {
                    format!(
                        "call to {} without outgoing arguments in {more} more slots",
                        callee.name
                    )
                },
            ),
        }
    }

    /// Reports a `missing-arg` error at `pc` for each slot of
    /// `lo..lo + n` whose state `written` rejects, in slot order: one
    /// per slot for the first [`MAX_MISSING_ARGS`], then one naming how
    /// many more. Only the slots the table names are visited; every
    /// other slot holds what [`Verifier::slot`] gives any unstored
    /// slot, the parameter state below the function's incoming count
    /// and nothing above it. So the cost and the report grow with the
    /// code, not with a callee's header.
    fn report_missing(
        &mut self,
        pc: u32,
        lo: u64,
        n: u32,
        written: impl Fn(Slot) -> bool,
        one: impl Fn(u64) -> String,
        more: impl Fn(u64) -> String,
    ) {
        let hi = lo + u64::from(n);
        // Unstored slots below this are written; no slot above it is.
        let inherited = if written(Some(PARAM)) {
            u64::from(self.func.n_incoming)
        } else {
            0
        };
        let mut missing = 0u64;
        // Counts the missing slots `from..to`, reporting those within
        // the cap.
        let mut report = |verifier: &mut Self, from: u64, to: u64| {
            let quota = MAX_MISSING_ARGS.saturating_sub(missing);
            for slot in from..to.min(from + quota) {
                verifier.error(pc, BytecodeErrorKind::MissingArg, one(slot));
            }
            missing += to - from;
        };
        let mut i = self.buf.table.partition_point(|&t| u64::from(t) < lo);
        let mut from = lo;
        loop {
            let stored = self
                .buf
                .table
                .get(i)
                .map(|&t| u64::from(t))
                .filter(|&t| t < hi);
            // The unstored slots before the next stored one.
            let gap_end = stored.unwrap_or(hi);
            let first_missing = from.max(inherited).min(gap_end);
            report(self, first_missing, gap_end);
            let Some(t) = stored else { break };
            if !written(self.buf.slots[i]) {
                report(self, t, t + 1);
            }
            from = t + 1;
            i += 1;
        }
        if missing > MAX_MISSING_ARGS {
            self.error(
                pc,
                BytecodeErrorKind::MissingArg,
                more(missing - MAX_MISSING_ARGS),
            );
        }
    }

    /// Callee-save registers must hold their entry values whenever
    /// control leaves the function.
    fn check_callee_saves(&mut self, pc: u32, what: &str) {
        for i in 0..NUM_REGS {
            let r = Reg(i as u8);
            if r.is_callee_save() && self.get(r) != AbsVal::Entry {
                self.error(
                    pc,
                    BytecodeErrorKind::CalleeSaveNotRestored,
                    format!("{what} with callee-save register {r} not restored"),
                );
            }
        }
    }

    fn check_slot_bounds(
        &mut self,
        pc: u32,
        slot: u32,
        class: SlotClass,
        is_store: bool,
        report: bool,
    ) {
        if !report {
            return;
        }
        let frame_size = self.func.frame_size;
        let ok = match class {
            // Incoming parameters live at the bottom of the frame.
            SlotClass::Param => slot < self.func.n_incoming,
            // Saves, spills, and temporaries live inside the frame.
            SlotClass::Save | SlotClass::Spill | SlotClass::Temp => slot < frame_size,
            // Outgoing-argument stores target the region past the frame
            // or (for tail calls reusing the frame) the parameter area,
            // which may extend past a smaller caller frame; loads only
            // ever read the outgoing region back for the copy-down.
            SlotClass::OutArg => is_store || slot >= frame_size,
        };
        if !ok {
            self.error(
                pc,
                BytecodeErrorKind::SlotOutOfBounds,
                format!(
                    "{} of {class} slot {slot} outside its region (frame size \
                     {frame_size}, incoming {})",
                    if is_store { "store" } else { "load" },
                    self.func.n_incoming
                ),
            );
        }
    }

    /// Reporting-pass checks on how control leaves `pc`: falling off
    /// the end, and saves from which no call is reachable.
    fn check_exit(&mut self, pc: u32, instr: &Instr) {
        let len = self.func.code.len() as u32;
        // A reachable instruction at the end of the code that falls
        // through lets control fall off the function.
        if pc + 1 == len && instr.falls_through() {
            self.error(
                pc,
                BytecodeErrorKind::FallsOffEnd,
                "control falls off the end of the function".to_owned(),
            );
        }
        // Dead-save analysis: a caller-save save that cannot reach a
        // call protects nothing.
        if let Instr::StackStore {
            src,
            slot,
            class: SlotClass::Save,
        } = instr
        {
            let protects = pc + 1 < len && self.buf.reach[pc as usize + 1];
            if !src.is_callee_save() && !protects {
                self.error(
                    pc,
                    BytecodeErrorKind::DeadSave,
                    format!("save of {src} to slot {slot} with no call reachable"),
                );
            }
        }
    }

    fn verify(&mut self) {
        let func = self.func;
        let code = func.code.as_slice();
        let len = code.len() as u32;
        let first_error = self.errors.len();
        // Calls keep only the slots below the frame size, so parameters
        // outside the frame would be lost at the first call.
        if func.n_incoming > func.frame_size {
            self.error(
                0,
                BytecodeErrorKind::SlotOutOfBounds,
                format!(
                    "frame header names {} incoming parameter slots, frame size is {}",
                    func.n_incoming, func.frame_size
                ),
            );
        }
        if code.is_empty() {
            self.error(
                0,
                BytecodeErrorKind::FallsOffEnd,
                "function has no code".to_owned(),
            );
            return;
        }

        // Branch-target validation up front; the fixpoint below only
        // follows in-range edges.
        for (pc, instr) in code.iter().enumerate() {
            if let Some(target) = instr.target() {
                if target >= len {
                    self.error(
                        pc as u32,
                        BytecodeErrorKind::BadTarget,
                        format!("branch target {target} out of range (len {len})"),
                    );
                }
            }
        }
        if self.errors.len() > first_error {
            return;
        }

        // Worklist fixpoint over the block entry states.
        self.prepare();
        self.enter();
        self.buf.work.push(0);
        while let Some(b) = self.buf.work.pop() {
            let b = b as usize;
            self.run_block(b, false);
            let end = self.buf.starts[b + 1] - 1;
            for succ in successors(&code[end as usize], end, len) {
                let s = self.block_at(succ);
                if self.merge_into(s) {
                    self.buf.work.push(s as u32);
                }
            }
        }

        // Reporting pass against the fixpoint states.
        call_reachability(code, &mut self.buf.reach);
        for b in 0..self.buf.in_regs.len() {
            if self.buf.in_regs[b].is_some() {
                self.run_block(b, true);
            }
        }
    }
}

/// Verifies every function of `program`, returning all violations
/// found (empty = verified).
pub fn verify_bytecode(program: &VmProgram) -> Vec<BytecodeError> {
    let mut errors = Vec::new();
    let mut buf = Buffers::default();
    let code_size = program.code_size();
    for (i, func) in program.funcs.iter().enumerate() {
        if func.id.index() != i {
            errors.push(BytecodeError {
                func: func.name.clone(),
                pc: 0,
                kind: BytecodeErrorKind::BadIndex,
                message: format!("function id {} does not match table position {i}", func.id),
            });
        }
        Verifier {
            program,
            code_size,
            func,
            buf: &mut buf,
            errors: &mut errors,
            regs: [AbsVal::Clobbered; NUM_REGS],
            outside: 0,
        }
        .verify();
    }
    if program.funcs.get(program.entry.index()).is_none() {
        errors.push(BytecodeError {
            func: "<program>".to_owned(),
            pc: 0,
            kind: BytecodeErrorKind::BadIndex,
            message: format!("entry function {} out of range", program.entry),
        });
    }
    // Each global is defined by a `global-store` of its own.
    if program.n_globals as usize > code_size {
        errors.push(BytecodeError {
            func: "<program>".to_owned(),
            pc: 0,
            kind: BytecodeErrorKind::Oversized,
            message: format!(
                "{} globals, more than the program's {code_size} instructions",
                program.n_globals
            ),
        });
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Imm;
    use lesgs_frontend::FuncId;
    use lesgs_ir::machine::scratch_reg;

    fn func(id: u32, name: &str, code: Vec<Instr>, frame_size: u32) -> VmFunc {
        VmFunc {
            id: FuncId(id),
            name: name.to_owned(),
            code,
            frame_size,
            n_incoming: 0,
            syntactic_leaf: false,
            call_inevitable: false,
        }
    }

    /// `g` saves a register clobbered by its call, then loops over a
    /// restore of it: the first pass restores `Clobbered`, the back
    /// edge overwrites the slot with a spill, so the fixpoint state at
    /// the restore no longer says what it saved. The `mov` after the
    /// restore must still see `Clobbered`, the meet of everything the
    /// restore produced, exactly as a per-instruction fixpoint does.
    #[test]
    fn a_restore_keeps_the_meet_of_every_value_it_restored() {
        let (s0, s1, s2) = (scratch_reg(0), scratch_reg(1), scratch_reg(2));
        let save = |slot, src| Instr::StackStore {
            slot,
            src,
            class: SlotClass::Save,
        };
        let restore = |dst, slot| Instr::StackLoad {
            dst,
            slot,
            class: SlotClass::Save,
        };
        let call_g = |frame_advance| Instr::Call {
            target: CallTarget::Func(FuncId(1)),
            frame_advance,
        };
        let g = vec![
            save(0, RET),
            call_g(2),
            save(1, s0),
            Instr::LoadImm {
                dst: s1,
                imm: Imm::Fixnum(0),
            },
            restore(s0, 1),
            Instr::Mov { dst: s2, src: s0 },
            Instr::StackStore {
                slot: 1,
                src: s1,
                class: SlotClass::Spill,
            },
            Instr::BranchTrue {
                src: s1,
                target: 4,
                likely: None,
            },
            restore(RET, 0),
            Instr::Return,
        ];
        let program = VmProgram {
            funcs: vec![
                func(0, "main", vec![call_g(0), Instr::Halt], 0),
                func(1, "g", g, 2),
            ],
            entry: FuncId(0),
            constants: Vec::new(),
            n_globals: 0,
        };
        let verdict: Vec<String> = verify_bytecode(&program)
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(
            verdict,
            [
                "bytecode error [stale-register] at g+2: read of register s0 clobbered by an \
                 earlier call",
                "bytecode error [dead-save] at g+2: save of s0 to slot 1 with no call reachable",
                "bytecode error [restore-unsaved] at g+4: restore from slot 1 not save-stored \
                 on every path",
                "bytecode error [stale-register] at g+5: read of register s0 clobbered by an \
                 earlier call",
            ]
        );
    }
}
