//! The VM instruction set.

use std::fmt;

use lesgs_frontend::{FuncId, Prim};
use lesgs_ir::Reg;

/// Why a stack access happens — the instrumentation dimension of the
/// paper's stack-reference counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotClass {
    /// Incoming stack-passed parameter.
    Param,
    /// Register save (store) / restore (load) slot.
    Save,
    /// Spilled local variable.
    Spill,
    /// Shuffle or expression temporary.
    Temp,
    /// Outgoing argument being written for a callee.
    OutArg,
}

impl SlotClass {
    /// All classes, in declaration order (used to export the full,
    /// stable set of `vm.stack_*` counters even when zero).
    pub const ALL: [SlotClass; 5] = [
        SlotClass::Param,
        SlotClass::Save,
        SlotClass::Spill,
        SlotClass::Temp,
        SlotClass::OutArg,
    ];
}

impl fmt::Display for SlotClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SlotClass::Param => "param",
            SlotClass::Save => "save",
            SlotClass::Spill => "spill",
            SlotClass::Temp => "temp",
            SlotClass::OutArg => "out",
        };
        f.write_str(s)
    }
}

/// A small immediate constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Imm {
    /// Integer.
    Fixnum(i64),
    /// Boolean.
    Bool(bool),
    /// Character.
    Char(char),
    /// `'()`.
    Nil,
    /// Unspecified value.
    Void,
}

/// Where a call transfers control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallTarget {
    /// A known function label.
    Func(FuncId),
    /// Through the closure in `cp` (code pointer read from the
    /// closure object).
    ClosureCp,
}

/// The largest operand count any [`Prim`] takes ([`Prim::arity`]'s
/// maximum, `vector-set!`).
pub const MAX_PRIM_ARGS: usize = 3;

/// A primitive's operand registers, held inline so that [`Instr`] is
/// `Copy` and fetching one never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrimArgs {
    len: u8,
    regs: [Reg; MAX_PRIM_ARGS],
}

impl PrimArgs {
    /// Packs an operand slice.
    ///
    /// # Panics
    ///
    /// Panics on more than [`MAX_PRIM_ARGS`] operands. No [`Prim`] takes
    /// more; codegen emits exactly [`Prim::arity`] operands, and the
    /// `.lbc` reader rejects any other count before building one.
    pub fn from_slice(args: &[Reg]) -> PrimArgs {
        assert!(
            args.len() <= MAX_PRIM_ARGS,
            "primitive with {} operands (max {MAX_PRIM_ARGS})",
            args.len()
        );
        let mut regs = [Reg(0); MAX_PRIM_ARGS];
        regs[..args.len()].copy_from_slice(args);
        PrimArgs {
            len: args.len() as u8,
            regs,
        }
    }

    /// The operands as a slice.
    pub fn as_slice(&self) -> &[Reg] {
        &self.regs[..self.len as usize]
    }

    /// The operands as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [Reg] {
        &mut self.regs[..self.len as usize]
    }
}

/// One VM instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    /// `dst ← immediate`.
    LoadImm {
        /// Destination.
        dst: Reg,
        /// The constant.
        imm: Imm,
    },
    /// `dst ← constants[idx]` (shared quoted data, strings, symbols).
    LoadConst {
        /// Destination.
        dst: Reg,
        /// Constant-pool index.
        idx: u32,
    },
    /// `dst ← src`.
    Mov {
        /// Destination.
        dst: Reg,
        /// Source.
        src: Reg,
    },
    /// `dst ← stack[fp + slot]` — a memory load with latency.
    StackLoad {
        /// Destination.
        dst: Reg,
        /// Frame offset.
        slot: u32,
        /// Instrumentation class.
        class: SlotClass,
    },
    /// `stack[fp + slot] ← src`.
    StackStore {
        /// Frame offset.
        slot: u32,
        /// Source.
        src: Reg,
        /// Instrumentation class.
        class: SlotClass,
    },
    /// `dst ← op(args…)`.
    Prim {
        /// The operation.
        op: Prim,
        /// Destination.
        dst: Reg,
        /// Operand registers.
        args: PrimArgs,
    },
    /// Unconditional intra-function jump.
    Jump {
        /// Target instruction index.
        target: u32,
    },
    /// Jump to `target` when `src` is `#f`; fall through otherwise.
    /// `likely` is the §6 static prediction of the *fallthrough*
    /// (`Some(true)` = fallthrough predicted; `None` defaults to
    /// fallthrough).
    BranchFalse {
        /// Condition register.
        src: Reg,
        /// Else-target instruction index.
        target: u32,
        /// Static prediction of the fallthrough path.
        likely: Option<bool>,
    },
    /// Jump to `target` when `src` is truthy; fall through otherwise.
    /// Emitted when branch layout is swapped so the likely (call-free)
    /// path falls through (§6).
    BranchTrue {
        /// Condition register.
        src: Reg,
        /// Then-target instruction index.
        target: u32,
        /// Static prediction of the fallthrough path.
        likely: Option<bool>,
    },
    /// Non-tail call: `ret ← return address; fp += frame_advance;
    /// jump target`.
    Call {
        /// Callee.
        target: CallTarget,
        /// Caller frame size (callee frame starts above it).
        frame_advance: u32,
    },
    /// Tail call: jump without touching `ret`/`fp`.
    TailCall {
        /// Callee.
        target: CallTarget,
    },
    /// Jump through the return address in `ret`, restoring the
    /// caller's `fp` from the activation `call` pushed.
    Return,
    /// Allocate a closure with `n_free` uninitialized slots.
    AllocClosure {
        /// Destination.
        dst: Reg,
        /// Code pointer.
        func: FuncId,
        /// Number of captured slots.
        n_free: u32,
    },
    /// `closure(clo).free[index] ← src` (captures and backpatching).
    ClosureSlotSet {
        /// Register holding the closure.
        clo: Reg,
        /// Slot index.
        index: u32,
        /// Value source.
        src: Reg,
    },
    /// `dst ← closure(cp).free[index]` — a memory load with latency.
    LoadFree {
        /// Destination.
        dst: Reg,
        /// Slot index.
        index: u32,
    },
    /// `dst ← globals[index]` — a memory load with latency.
    LoadGlobal {
        /// Destination.
        dst: Reg,
        /// Global slot.
        index: u32,
    },
    /// `globals[index] ← src`.
    StoreGlobal {
        /// Global slot.
        index: u32,
        /// Source.
        src: Reg,
    },
    /// Stop the machine; the program value is in `rv`.
    Halt,
}

impl Instr {
    /// The instruction index a `jump` or a conditional branch transfers
    /// control to; `None` for every other instruction.
    pub fn target(&self) -> Option<u32> {
        let mut copy = *self;
        copy.target_mut().copied()
    }

    /// The branch target as a mutable field, for patching and remapping.
    pub fn target_mut(&mut self) -> Option<&mut u32> {
        match self {
            Instr::Jump { target }
            | Instr::BranchFalse { target, .. }
            | Instr::BranchTrue { target, .. } => Some(target),
            _ => None,
        }
    }

    /// True if control can go on to the next instruction: false for
    /// `jump`, `return`, `tailcall` and `halt`, whose successors (if
    /// any) are elsewhere.
    pub fn falls_through(&self) -> bool {
        !matches!(
            self,
            Instr::Jump { .. } | Instr::Return | Instr::TailCall { .. } | Instr::Halt
        )
    }
}

// The largest variant, `LoadImm` (a 16-byte `Imm` beside its register),
// fills 24 bytes with the tag; a new variant must not grow the code's
// stride, which every fetch copies.
const _: () = assert!(size_of::<Instr>() <= 24);

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::LoadImm { dst, imm } => write!(f, "{dst} <- {imm:?}"),
            Instr::LoadConst { dst, idx } => write!(f, "{dst} <- const[{idx}]"),
            Instr::Mov { dst, src } => write!(f, "{dst} <- {src}"),
            Instr::StackLoad { dst, slot, class } => {
                write!(f, "{dst} <- fp[{slot}] ;{class}")
            }
            Instr::StackStore { slot, src, class } => {
                write!(f, "fp[{slot}] <- {src} ;{class}")
            }
            Instr::Prim { op, dst, args } => {
                write!(f, "{dst} <- {op}(")?;
                for (i, a) in args.as_slice().iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Instr::Jump { target } => write!(f, "jump {target}"),
            Instr::BranchFalse {
                src,
                target,
                likely,
            } => {
                write!(f, "brfalse {src} -> {target}")?;
                if let Some(l) = likely {
                    write!(f, " ;likely={l}")?;
                }
                Ok(())
            }
            Instr::BranchTrue {
                src,
                target,
                likely,
            } => {
                write!(f, "brtrue {src} -> {target}")?;
                if let Some(l) = likely {
                    write!(f, " ;likely={l}")?;
                }
                Ok(())
            }
            Instr::Call {
                target,
                frame_advance,
            } => {
                write!(f, "call {target:?} (+{frame_advance})")
            }
            Instr::TailCall { target } => write!(f, "tailcall {target:?}"),
            Instr::Return => write!(f, "return"),
            Instr::AllocClosure { dst, func, n_free } => {
                write!(f, "{dst} <- closure {func} [{n_free}]")
            }
            Instr::ClosureSlotSet { clo, index, src } => {
                write!(f, "{clo}.free[{index}] <- {src}")
            }
            Instr::LoadFree { dst, index } => write!(f, "{dst} <- cp.free[{index}]"),
            Instr::LoadGlobal { dst, index } => write!(f, "{dst} <- global[{index}]"),
            Instr::StoreGlobal { index, src } => write!(f, "global[{index}] <- {src}"),
            Instr::Halt => write!(f, "halt"),
        }
    }
}
