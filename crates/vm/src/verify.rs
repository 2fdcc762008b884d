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
//! return address ([`AbsVal::RetAddr`]), an untouched callee-save entry
//! value ([`AbsVal::Entry`]), an ordinary defined value
//! ([`AbsVal::Val`]), or garbage left behind by a call
//! ([`AbsVal::Clobbered`]); and for every written frame slot its
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
//!   ([`BytecodeErrorKind::MissingArg`]).
//! * `return` goes through a real return address, callee-save registers
//!   are restored to their entry values before control leaves the
//!   function, branch targets are in range, and no path falls off the
//!   end of the code.
//!
//! The analysis is a standard monotone worklist fixpoint; afterwards a
//! single reporting pass over the reachable instructions collects
//! errors against the final states.

use std::collections::BTreeMap;
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

/// The abstract machine state at one program point.
#[derive(Debug, Clone, PartialEq, Eq)]
struct State {
    regs: [AbsVal; NUM_REGS],
    /// Written frame slots (absent = possibly uninitialized).
    slots: BTreeMap<u32, SlotAbs>,
}

impl State {
    fn meet(a: &State, b: &State) -> State {
        let mut regs = [AbsVal::Clobbered; NUM_REGS];
        for (i, r) in regs.iter_mut().enumerate() {
            *r = AbsVal::meet(a.regs[i], b.regs[i]);
        }
        let slots = a
            .slots
            .iter()
            .filter_map(|(k, va)| b.slots.get(k).map(|vb| (*k, SlotAbs::meet(*va, *vb))))
            .collect();
        State { regs, slots }
    }

    fn get(&self, r: Reg) -> AbsVal {
        self.regs[r.index()]
    }

    fn set(&mut self, r: Reg, v: AbsVal) {
        self.regs[r.index()] = v;
    }
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

struct Verifier<'a> {
    program: &'a VmProgram,
    func: &'a VmFunc,
    errors: Vec<BytecodeError>,
}

/// Instruction successors within the function (targets validated
/// separately).
fn successors(instr: &Instr, pc: u32, len: u32) -> Vec<u32> {
    match instr {
        Instr::Jump { target } => vec![*target],
        Instr::BranchFalse { target, .. } | Instr::BranchTrue { target, .. } => {
            let mut s = vec![*target];
            if pc + 1 < len {
                s.push(pc + 1);
            }
            s
        }
        Instr::Return | Instr::TailCall { .. } | Instr::Halt => Vec::new(),
        _ => {
            if pc + 1 < len {
                vec![pc + 1]
            } else {
                Vec::new()
            }
        }
    }
}

/// `reach[pc]` = a non-tail call is reachable from `pc` (inclusive).
/// Saves that cannot reach a call protect nothing and are flagged dead.
fn call_reachability(code: &[Instr]) -> Vec<bool> {
    let len = code.len() as u32;
    let mut reach = vec![false; code.len()];
    // Iterate to fixpoint; the graph is tiny and mostly forward, so a
    // couple of reverse sweeps converge.
    loop {
        let mut changed = false;
        for pc in (0..code.len()).rev() {
            if reach[pc] {
                continue;
            }
            let here = matches!(code[pc], Instr::Call { .. })
                || successors(&code[pc], pc as u32, len)
                    .into_iter()
                    .any(|s| reach[s as usize]);
            if here {
                reach[pc] = true;
                changed = true;
            }
        }
        if !changed {
            return reach;
        }
    }
}

impl<'a> Verifier<'a> {
    fn error(&mut self, pc: u32, kind: BytecodeErrorKind, message: String) {
        self.errors.push(BytecodeError {
            func: self.func.name.clone(),
            pc,
            kind,
            message,
        });
    }

    /// The abstract state on entry: `ret` holds the caller's return
    /// address, callee-save registers the caller's values, argument
    /// registers and `cp` the incoming arguments/closure; scratches and
    /// `rv` hold nothing the function may rely on.
    fn entry_state(&self) -> State {
        let mut st = State {
            regs: [AbsVal::Clobbered; NUM_REGS],
            slots: BTreeMap::new(),
        };
        for i in 0..NUM_REGS {
            let r = Reg(i as u8);
            if r == RET {
                st.set(r, AbsVal::RetAddr);
            } else if r.is_callee_save() {
                st.set(r, AbsVal::Entry);
            } else if r == CP || r.is_arg() {
                st.set(r, AbsVal::Val);
            }
        }
        // The bootstrap entry function is jumped to, not called: it has
        // no return address and must halt rather than return.
        if self.func.id == self.program.entry {
            st.set(RET, AbsVal::Clobbered);
        }
        for slot in 0..self.func.n_incoming {
            st.slots.insert(
                slot,
                SlotAbs {
                    class: Some(SlotClass::Param),
                    saved: None,
                },
            );
        }
        st
    }

    /// Applies `instr` to `st`, reporting violations when `report` is
    /// set (the reporting pass); returns false if the instruction
    /// terminates the path.
    #[allow(clippy::too_many_lines)] // one arm per opcode, intentionally flat
    fn transfer(&mut self, pc: u32, instr: &Instr, st: &mut State, report: bool) {
        let frame_size = self.func.frame_size;
        let read = |v: &mut Verifier<'a>, st: &State, r: Reg| {
            if report && st.get(r) == AbsVal::Clobbered {
                v.error(
                    pc,
                    BytecodeErrorKind::StaleRegister,
                    format!("read of register {r} clobbered by an earlier call"),
                );
            }
        };
        match instr {
            Instr::LoadImm { dst, .. } => st.set(*dst, AbsVal::Val),
            Instr::LoadConst { dst, idx } => {
                if report && *idx as usize >= self.program.constants.len() {
                    self.error(
                        pc,
                        BytecodeErrorKind::BadIndex,
                        format!("constant index {idx} out of range"),
                    );
                }
                st.set(*dst, AbsVal::Val);
            }
            Instr::Mov { dst, src } => {
                read(self, st, *src);
                let v = st.get(*src);
                st.set(*dst, v);
            }
            Instr::StackLoad { dst, slot, class } => {
                self.check_slot_bounds(pc, *slot, *class, false, report);
                match st.slots.get(slot).copied() {
                    None => {
                        if report {
                            self.error(
                                pc,
                                BytecodeErrorKind::UninitRead,
                                format!(
                                    "load of slot {slot} ({class}) not written on \
                                     every path"
                                ),
                            );
                        }
                        st.set(*dst, AbsVal::Val);
                    }
                    Some(abs) => {
                        if *class == SlotClass::Save {
                            match abs.saved {
                                Some((r, v)) if r == *dst => st.set(*dst, v),
                                Some((r, _)) => {
                                    if report {
                                        self.error(
                                            pc,
                                            BytecodeErrorKind::RestoreMismatch,
                                            format!(
                                                "restore of {dst} from slot {slot} \
                                                 which saved {r}"
                                            ),
                                        );
                                    }
                                    st.set(*dst, AbsVal::Val);
                                }
                                None => {
                                    if report {
                                        self.error(
                                            pc,
                                            BytecodeErrorKind::RestoreUnsaved,
                                            format!(
                                                "restore from slot {slot} not \
                                                 save-stored on every path"
                                            ),
                                        );
                                    }
                                    st.set(*dst, AbsVal::Val);
                                }
                            }
                        } else {
                            st.set(*dst, AbsVal::Val);
                        }
                    }
                }
            }
            Instr::StackStore { slot, src, class } => {
                read(self, st, *src);
                self.check_slot_bounds(pc, *slot, *class, true, report);
                let saved = (*class == SlotClass::Save).then(|| (*src, st.get(*src)));
                st.slots.insert(
                    *slot,
                    SlotAbs {
                        class: Some(*class),
                        saved,
                    },
                );
            }
            Instr::Prim { dst, args, .. } => {
                for a in args {
                    read(self, st, *a);
                }
                st.set(*dst, AbsVal::Val);
            }
            Instr::Jump { .. } => {}
            Instr::BranchFalse { src, .. } | Instr::BranchTrue { src, .. } => {
                read(self, st, *src);
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
                    self.check_call_target(pc, st, target, *frame_advance);
                }
                if let CallTarget::ClosureCp = target {
                    read(self, st, CP);
                }
                // The callee owns the outgoing-argument region and every
                // caller-save register from here on.
                st.slots.retain(|slot, _| *slot < frame_size);
                for i in 0..NUM_REGS {
                    let r = Reg(i as u8);
                    if !r.is_callee_save() {
                        st.set(r, AbsVal::Clobbered);
                    }
                }
                st.set(RV, AbsVal::Val);
            }
            Instr::TailCall { target } => {
                if let CallTarget::ClosureCp = target {
                    read(self, st, CP);
                }
                if report {
                    if st.get(RET) != AbsVal::RetAddr {
                        self.error(
                            pc,
                            BytecodeErrorKind::BadReturnAddress,
                            "tail call without a return address in ret".to_owned(),
                        );
                    }
                    self.check_callee_saves(pc, st, "tail call");
                    if let CallTarget::Func(f) = target {
                        match self.program.funcs.get(f.index()) {
                            None => self.error(
                                pc,
                                BytecodeErrorKind::BadIndex,
                                format!("tail call of unknown function {f}"),
                            ),
                            Some(callee) => {
                                // The callee reuses this frame; its stack
                                // parameters live at slots 0.. and must be
                                // written (or inherited) on every path.
                                for slot in 0..callee.n_incoming {
                                    if !st.slots.contains_key(&slot) {
                                        self.error(
                                            pc,
                                            BytecodeErrorKind::MissingArg,
                                            format!(
                                                "tail call to {} without stack \
                                                 argument in slot {slot}",
                                                callee.name
                                            ),
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
            Instr::Return => {
                if report {
                    if st.get(RET) != AbsVal::RetAddr {
                        self.error(
                            pc,
                            BytecodeErrorKind::BadReturnAddress,
                            "return without a return address in ret".to_owned(),
                        );
                    }
                    self.check_callee_saves(pc, st, "return");
                }
            }
            Instr::AllocClosure { dst, func, .. } => {
                if report && func.index() >= self.program.funcs.len() {
                    self.error(
                        pc,
                        BytecodeErrorKind::BadIndex,
                        format!("closure over unknown function {func}"),
                    );
                }
                st.set(*dst, AbsVal::Val);
            }
            Instr::ClosureSlotSet { clo, src, .. } => {
                read(self, st, *clo);
                read(self, st, *src);
            }
            Instr::LoadFree { dst, .. } => {
                read(self, st, CP);
                st.set(*dst, AbsVal::Val);
            }
            Instr::LoadGlobal { dst, index } => {
                if report && *index >= self.program.n_globals {
                    self.error(
                        pc,
                        BytecodeErrorKind::BadIndex,
                        format!("global index {index} out of range"),
                    );
                }
                st.set(*dst, AbsVal::Val);
            }
            Instr::StoreGlobal { index, src } => {
                read(self, st, *src);
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
    fn check_call_target(&mut self, pc: u32, st: &State, target: &CallTarget, frame_advance: u32) {
        let CallTarget::Func(f) = target else { return };
        match self.program.funcs.get(f.index()) {
            None => self.error(
                pc,
                BytecodeErrorKind::BadIndex,
                format!("call of unknown function {f}"),
            ),
            Some(callee) => {
                for j in 0..callee.n_incoming {
                    let slot = frame_advance + j;
                    let written = st
                        .slots
                        .get(&slot)
                        .is_some_and(|s| s.class == Some(SlotClass::OutArg) || s.class.is_none());
                    if !written {
                        self.error(
                            pc,
                            BytecodeErrorKind::MissingArg,
                            format!(
                                "call to {} without outgoing argument in slot \
                                 {slot}",
                                callee.name
                            ),
                        );
                    }
                }
            }
        }
    }

    /// Callee-save registers must hold their entry values whenever
    /// control leaves the function.
    fn check_callee_saves(&mut self, pc: u32, st: &State, what: &str) {
        for i in 0..NUM_REGS {
            let r = Reg(i as u8);
            if r.is_callee_save() && st.get(r) != AbsVal::Entry {
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

    fn verify(&mut self) {
        let code = &self.func.code;
        let len = code.len() as u32;
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
            if let Instr::Jump { target }
            | Instr::BranchFalse { target, .. }
            | Instr::BranchTrue { target, .. } = instr
            {
                if *target >= len {
                    self.error(
                        pc as u32,
                        BytecodeErrorKind::BadTarget,
                        format!("branch target {target} out of range (len {len})"),
                    );
                }
            }
        }
        if !self.errors.is_empty() {
            return;
        }

        // Monotone worklist fixpoint over the in-states.
        let mut states: Vec<Option<State>> = vec![None; code.len()];
        states[0] = Some(self.entry_state());
        let mut work = vec![0u32];
        while let Some(pc) = work.pop() {
            let mut st = states[pc as usize].clone().expect("queued with a state");
            let instr = &code[pc as usize];
            self.transfer(pc, instr, &mut st, false);
            for succ in successors(instr, pc, len) {
                let slot = &mut states[succ as usize];
                let merged = match slot {
                    None => st.clone(),
                    Some(old) => State::meet(old, &st),
                };
                if slot.as_ref() != Some(&merged) {
                    *slot = Some(merged);
                    work.push(succ);
                }
            }
        }

        // Reporting pass against the fixpoint states.
        let reach = call_reachability(code);
        for pc in 0..code.len() {
            let Some(mut st) = states[pc].clone() else {
                continue;
            };
            let instr = &code[pc];
            self.transfer(pc as u32, instr, &mut st, true);
            // A reachable non-terminator at the end of the code lets
            // control fall off the function.
            let terminates = matches!(
                instr,
                Instr::Jump { .. } | Instr::Return | Instr::TailCall { .. } | Instr::Halt
            );
            if pc + 1 == code.len() && !terminates {
                self.error(
                    pc as u32,
                    BytecodeErrorKind::FallsOffEnd,
                    "control falls off the end of the function".to_owned(),
                );
            }
            // Dead-save analysis: a caller-save save that cannot reach
            // a call protects nothing.
            if let Instr::StackStore {
                src,
                slot,
                class: SlotClass::Save,
            } = instr
            {
                let protects = pc + 1 < code.len() && reach[pc + 1];
                if !src.is_callee_save() && !protects {
                    self.error(
                        pc as u32,
                        BytecodeErrorKind::DeadSave,
                        format!("save of {src} to slot {slot} with no call reachable"),
                    );
                }
            }
        }
    }
}

/// Verifies every function of `program`, returning all violations
/// found (empty = verified).
pub fn verify_bytecode(program: &VmProgram) -> Vec<BytecodeError> {
    let mut errors = Vec::new();
    for (i, func) in program.funcs.iter().enumerate() {
        if func.id.index() != i {
            errors.push(BytecodeError {
                func: func.name.clone(),
                pc: 0,
                kind: BytecodeErrorKind::BadIndex,
                message: format!("function id {} does not match table position {i}", func.id),
            });
        }
        let mut v = Verifier {
            program,
            func,
            errors: Vec::new(),
        };
        v.verify();
        errors.extend(v.errors);
    }
    if program.funcs.get(program.entry.index()).is_none() {
        errors.push(BytecodeError {
            func: "<program>".to_owned(),
            pc: 0,
            kind: BytecodeErrorKind::BadIndex,
            message: format!("entry function {} out of range", program.entry),
        });
    }
    errors
}
