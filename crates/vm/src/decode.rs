//! Pre-decoding: translating linked bytecode into the flat form the
//! dispatch loop executes.
//!
//! The classic executor re-fetches and clones an [`Instr`] — operand
//! `Vec` included — on every iteration. [`DecodedProgram::decode`]
//! instead translates the whole program **once, at load time** into a
//! single flat `Vec<DecodedOp>`:
//!
//! * every function's code is laid out contiguously, exactly one slot
//!   per source instruction, with a [`DecodedOp::FuncEnd`] sentinel
//!   after each function (running off the end reproduces the classic
//!   "program counter out of range" error without a bounds check on
//!   the hot path);
//! * jump and branch targets are rewritten to **absolute** pcs into
//!   that array (call and return targets resolve through the
//!   [`FuncInfo`] base table so return addresses stay
//!   function-relative and engine-independent);
//! * operand lists become the fixed-size, `Copy` [`PrimArgs`], so the
//!   dispatch loop never allocates.
//!
//! Decoding is total for verifier-clean programs. The only divergence
//! for *unverifiable* code is that an out-of-function branch target is
//! clamped to the function's end sentinel (the classic engine would
//! report the original out-of-range pc; both still fail with the same
//! message).

use std::sync::Arc;

use lesgs_frontend::{Const, FuncId, Prim};
use lesgs_ir::Reg;
use lesgs_metrics::Registry;

use crate::instr::{CallTarget, Imm, Instr, SlotClass};
use crate::program::VmProgram;

/// The largest operand count a [`DecodedOp::Prim`] can carry —
/// [`Prim::arity`]'s maximum (`vector-set!`).
pub const MAX_DECODED_ARGS: usize = 3;

/// A fixed-capacity, `Copy` operand list (replaces the heap-allocated
/// `Vec<Reg>` of [`Instr::Prim`] on the hot path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrimArgs {
    len: u8,
    regs: [Reg; MAX_DECODED_ARGS],
}

impl PrimArgs {
    /// Packs an operand slice.
    ///
    /// # Panics
    ///
    /// Panics on more than [`MAX_DECODED_ARGS`] operands — no [`Prim`]
    /// takes more, and `verify_bytecode` rejects malformed arities
    /// before any decoded program reaches the dispatcher.
    pub fn from_slice(args: &[Reg]) -> PrimArgs {
        assert!(
            args.len() <= MAX_DECODED_ARGS,
            "primitive with {} operands (max {MAX_DECODED_ARGS})",
            args.len()
        );
        let mut regs = [Reg(0); MAX_DECODED_ARGS];
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
}

/// Per-function metadata: the base pc of the function's slice of the
/// flat array plus everything either engine needs for frames,
/// activation classification, and error reporting. Both engines read
/// one table of these ([`func_table`]); the classic engine ignores the
/// bases.
#[derive(Debug, Clone)]
pub struct FuncInfo {
    /// Diagnostic name (error locations, `--trace` lines).
    pub name: String,
    /// Absolute pc of the function's first decoded op.
    pub base: u32,
    /// Source instruction count (the sentinel sits at `base + code_len`).
    pub code_len: u32,
    /// Frame size in slots.
    pub frame_size: u32,
    /// Leading incoming-parameter slots (never poisoned).
    pub n_incoming: u32,
    /// Static leaf flag, for activation classification.
    pub syntactic_leaf: bool,
    /// Every path makes a call (`ret ∈ S_t ∩ S_f`).
    pub call_inevitable: bool,
}

/// What decoding did to one program — the static side of the
/// `vm.dispatch.*` metrics namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecodeStats {
    /// Source instructions across all functions.
    pub source_instructions: u64,
    /// Slots in the flat array (one per source instruction plus one end
    /// sentinel per function).
    pub decoded_ops: u64,
}

impl DecodeStats {
    /// Exports the counters under the stable `vm.dispatch.*` names
    /// documented in OBSERVABILITY.md. These are **load-time** facts
    /// about the program, recorded at compile time — run-time `vm.*`
    /// counters keep the exact key set they had before pre-decoding
    /// existed.
    pub fn record(&self, reg: &mut Registry) {
        reg.inc("vm.dispatch.source_instructions", self.source_instructions);
        reg.inc("vm.dispatch.decoded_ops", self.decoded_ops);
    }
}

/// One slot of the flat decoded array. All variants are `Copy`; jump
/// targets are absolute pcs; primitive operands are inline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecodedOp {
    /// `dst ← immediate`.
    Imm {
        /// Destination.
        dst: Reg,
        /// The constant.
        imm: Imm,
    },
    /// `dst ← constants[idx]`.
    Const {
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
    /// Unconditional jump to an absolute pc.
    Jump {
        /// Absolute target pc.
        target: u32,
    },
    /// Conditional branch to an absolute pc. `on_true` distinguishes
    /// `brtrue` (jump when truthy) from `brfalse` (jump when `#f`).
    Branch {
        /// Condition register.
        src: Reg,
        /// Absolute target pc.
        target: u32,
        /// Static prediction of the fallthrough path.
        likely: Option<bool>,
        /// True for `brtrue`, false for `brfalse`.
        on_true: bool,
    },
    /// Non-tail call of a known function.
    CallStatic {
        /// Callee.
        callee: FuncId,
        /// Caller frame size (callee frame starts above it).
        frame_advance: u32,
    },
    /// Non-tail call through the closure in `cp`.
    CallClosure {
        /// Caller frame size.
        frame_advance: u32,
    },
    /// Tail call of a known function.
    TailCallStatic {
        /// Callee.
        callee: FuncId,
    },
    /// Tail call through the closure in `cp`.
    TailCallClosure,
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
    /// `closure(clo).free[index] ← src`.
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
    /// End-of-function sentinel: executing it is the classic "program
    /// counter out of range" error.
    FuncEnd,
}

// The largest variant, `Imm` (a 16-byte `Imm` beside its register),
// fills 24 bytes with the tag; a new variant must not grow the op
// array's stride, which every dispatch copies.
const _: () = assert!(size_of::<DecodedOp>() <= 24);

impl DecodedOp {
    /// The absolute jump target this op may transfer to, if any (the
    /// fixture tests' jump-target table).
    pub fn jump_target(&self) -> Option<u32> {
        match *self {
            DecodedOp::Jump { target } | DecodedOp::Branch { target, .. } => Some(target),
            _ => None,
        }
    }
}

/// A fully decoded program: the flat op array, the per-function base
/// table, and everything a [`crate::Machine`] needs to start (constant
/// pool, entry point, global count). Build one with
/// [`DecodedProgram::decode`] — or let [`crate::Machine::new`] do it —
/// and share it across runs via [`crate::Machine::from_decoded`].
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    pub(crate) ops: Vec<DecodedOp>,
    pub(crate) funcs: Arc<[FuncInfo]>,
    pub(crate) entry: FuncId,
    pub(crate) constants: Vec<Const>,
    pub(crate) n_globals: u32,
    pub(crate) stats: DecodeStats,
}

/// Decodes one instruction. `base` is the function's first absolute
/// pc; `len` its source length — intra-function targets are rebased
/// and clamped to the end sentinel.
fn decode_one(instr: &Instr, base: u32, len: u32) -> DecodedOp {
    let abs = |t: u32| base + t.min(len);
    match instr {
        Instr::LoadImm { dst, imm } => DecodedOp::Imm {
            dst: *dst,
            imm: *imm,
        },
        Instr::LoadConst { dst, idx } => DecodedOp::Const {
            dst: *dst,
            idx: *idx,
        },
        Instr::Mov { dst, src } => DecodedOp::Mov {
            dst: *dst,
            src: *src,
        },
        Instr::StackLoad { dst, slot, class } => DecodedOp::StackLoad {
            dst: *dst,
            slot: *slot,
            class: *class,
        },
        Instr::StackStore { slot, src, class } => DecodedOp::StackStore {
            slot: *slot,
            src: *src,
            class: *class,
        },
        Instr::Prim { op, dst, args } => DecodedOp::Prim {
            op: *op,
            dst: *dst,
            args: PrimArgs::from_slice(args),
        },
        Instr::Jump { target } => DecodedOp::Jump {
            target: abs(*target),
        },
        Instr::BranchFalse {
            src,
            target,
            likely,
        } => DecodedOp::Branch {
            src: *src,
            target: abs(*target),
            likely: *likely,
            on_true: false,
        },
        Instr::BranchTrue {
            src,
            target,
            likely,
        } => DecodedOp::Branch {
            src: *src,
            target: abs(*target),
            likely: *likely,
            on_true: true,
        },
        Instr::Call {
            target,
            frame_advance,
        } => match target {
            CallTarget::Func(id) => DecodedOp::CallStatic {
                callee: *id,
                frame_advance: *frame_advance,
            },
            CallTarget::ClosureCp => DecodedOp::CallClosure {
                frame_advance: *frame_advance,
            },
        },
        Instr::TailCall { target } => match target {
            CallTarget::Func(id) => DecodedOp::TailCallStatic { callee: *id },
            CallTarget::ClosureCp => DecodedOp::TailCallClosure,
        },
        Instr::Return => DecodedOp::Return,
        Instr::AllocClosure { dst, func, n_free } => DecodedOp::AllocClosure {
            dst: *dst,
            func: *func,
            n_free: *n_free,
        },
        Instr::ClosureSlotSet { clo, index, src } => DecodedOp::ClosureSlotSet {
            clo: *clo,
            index: *index,
            src: *src,
        },
        Instr::LoadFree { dst, index } => DecodedOp::LoadFree {
            dst: *dst,
            index: *index,
        },
        Instr::LoadGlobal { dst, index } => DecodedOp::LoadGlobal {
            dst: *dst,
            index: *index,
        },
        Instr::StoreGlobal { index, src } => DecodedOp::StoreGlobal {
            index: *index,
            src: *src,
        },
        Instr::Halt => DecodedOp::Halt,
    }
}

/// The per-function header table of `program`: each function's base
/// leaves room for its code and one end sentinel after every function
/// before it.
pub(crate) fn func_table(program: &VmProgram) -> Arc<[FuncInfo]> {
    let mut base = 0;
    program
        .funcs
        .iter()
        .map(|f| {
            let code_len = f.code.len() as u32;
            let info = FuncInfo {
                name: f.name.clone(),
                base,
                code_len,
                frame_size: f.frame_size,
                n_incoming: f.n_incoming,
                syntactic_leaf: f.syntactic_leaf,
                call_inevitable: f.call_inevitable,
            };
            base += code_len + 1;
            info
        })
        .collect()
}

impl DecodedProgram {
    /// Decodes a linked program — see the module docs for the layout.
    ///
    /// # Panics
    ///
    /// Panics on a primitive with more than [`MAX_DECODED_ARGS`]
    /// operands — codegen never emits one and `verify_bytecode`
    /// rejects such programs.
    pub fn decode(program: &VmProgram) -> DecodedProgram {
        let funcs = func_table(program);
        let mut ops = Vec::with_capacity(program.code_size() + program.funcs.len());
        for (f, info) in program.funcs.iter().zip(funcs.iter()) {
            ops.extend(
                f.code
                    .iter()
                    .map(|instr| decode_one(instr, info.base, info.code_len)),
            );
            ops.push(DecodedOp::FuncEnd);
        }
        let stats = DecodeStats {
            source_instructions: program.code_size() as u64,
            decoded_ops: ops.len() as u64,
        };
        DecodedProgram {
            ops,
            funcs,
            entry: program.entry,
            constants: program.constants.clone(),
            n_globals: program.n_globals,
            stats,
        }
    }

    /// The flat op array.
    pub fn ops(&self) -> &[DecodedOp] {
        &self.ops
    }

    /// Per-function metadata, indexed by [`FuncId`].
    pub fn funcs(&self) -> &[FuncInfo] {
        &self.funcs
    }

    /// Looks up one function's metadata.
    pub fn func(&self, id: FuncId) -> &FuncInfo {
        &self.funcs[id.index()]
    }

    /// The entry function.
    pub fn entry(&self) -> FuncId {
        self.entry
    }

    /// What decoding did (the `vm.dispatch.*` counters).
    pub fn stats(&self) -> DecodeStats {
        self.stats
    }

    /// Renders the decoded layout — decode summary, function table,
    /// and the absolute jump-target table. This is the golden-fixture
    /// format of `tests/decoded_dispatch.rs`: deterministic, and
    /// line-diffable when codegen or the decoded layout changes.
    pub fn describe(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "source_instructions {} decoded_ops {}",
            self.stats.source_instructions, self.stats.decoded_ops
        );
        for (i, f) in self.funcs.iter().enumerate() {
            let _ = writeln!(
                out,
                "f{i} ({}): base {} len {} frame {}",
                f.name, f.base, f.code_len, f.frame_size
            );
        }
        let _ = writeln!(out, "jump targets:");
        for (pc, op) in self.ops.iter().enumerate() {
            if let Some(t) = op.jump_target() {
                let _ = writeln!(out, "  @{pc} -> @{t}");
            }
        }
        out
    }
}
