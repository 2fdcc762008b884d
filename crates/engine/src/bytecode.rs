//! The versioned serialized bytecode format (`.lbc`).
//!
//! Compiled programs are cacheable, persistable, and shippable: the
//! [`serialize_program`]/[`deserialize_program`] pair round-trips a
//! linked [`VmProgram`] plus the [`AllocConfig`] that produced it
//! through a compact, self-describing byte stream. The layout is
//! specified byte-for-byte in `BYTECODE.md` at the repository root;
//! this module is the reference implementation.
//!
//! Layout summary (all multi-byte integers little-endian):
//!
//! ```text
//! +0   magic            4 bytes  "LBC\0"
//! +4   format version   u32      bumped on any incompatible change
//! +8   config fingerprint 8 bytes  the AllocConfig, field-per-byte
//! +16  body             entry, globals, constant pool, functions
//! end  checksum         u64      FNV-1a over everything before it
//! ```
//!
//! Deserialization is **total**: any byte stream either produces a
//! structurally well-formed program or a typed [`BytecodeLoadError`]
//! naming the offset — it never panics and never over-allocates on
//! corrupt counts. Structural checks here (register indices, tag
//! ranges, function-id consistency) are deliberately shallow;
//! semantic validation is the bytecode verifier's job, which
//! [`crate::Engine::load_program`] re-runs on every load.

use std::fmt;

use lesgs_core::config::{Discipline, RestoreStrategy, SaveStrategy, ShuffleStrategy};
use lesgs_core::AllocConfig;
use lesgs_frontend::{Const, FuncId, Prim, DATUM_MAX_DEPTH};
use lesgs_ir::machine::NUM_REGS;
use lesgs_ir::{MachineConfig, Reg};
use lesgs_sexpr::Datum;
use lesgs_vm::instr::MAX_PRIM_ARGS;
use lesgs_vm::{CallTarget, Imm, Instr, PrimArgs, SlotClass, VmFunc, VmProgram};

/// The four magic bytes every serialized program starts with.
pub const MAGIC: [u8; 4] = *b"LBC\0";

/// Current format version. Bumped on any change that adds an encoding
/// or alters what an accepted byte means — readers reject every other
/// version rather than guessing. Retiring a code only narrows what a
/// reader accepts, so it keeps the version (BYTECODE.md).
pub const FORMAT_VERSION: u32 = 1;

/// Size of the fixed header: magic + version + config fingerprint.
pub const HEADER_LEN: usize = 16;

/// Why a byte stream was rejected. Every variant names enough context
/// to act on: the offending offset, the stored vs. computed value, or
/// the verifier's complaints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BytecodeLoadError {
    /// The stream does not start with [`MAGIC`] — not a serialized
    /// program at all.
    BadMagic {
        /// The first four bytes found (zero-padded if shorter).
        found: [u8; 4],
    },
    /// The stream's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion {
        /// Version stored in the stream.
        found: u32,
        /// The only version this reader accepts.
        supported: u32,
    },
    /// The stream ended before a field could be read.
    Truncated {
        /// Offset at which the read was attempted.
        offset: usize,
        /// What was being read.
        what: &'static str,
    },
    /// A field decoded to an impossible value (bad tag, bad register,
    /// invalid UTF-8, inconsistent function id, …).
    Corrupt {
        /// Offset of the offending field.
        offset: usize,
        /// Description of the violation.
        what: String,
    },
    /// The trailing checksum does not match the stream contents —
    /// bytes were flipped or dropped in storage or transit.
    ChecksumMismatch {
        /// Checksum stored in the trailer.
        stored: u64,
        /// Checksum computed over the received bytes.
        computed: u64,
    },
    /// The stream decoded structurally but the bytecode verifier
    /// rejected the program on load (see `BYTECODE.md`,
    /// "verify-on-load contract").
    VerifyFailed {
        /// All verifier complaints, rendered.
        errors: Vec<String>,
    },
}

impl std::fmt::Display for BytecodeLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BytecodeLoadError::BadMagic { found } => {
                write!(f, "not lesgs bytecode: bad magic {found:?}")
            }
            BytecodeLoadError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported bytecode format version {found} (this build reads version {supported})"
            ),
            BytecodeLoadError::Truncated { offset, what } => {
                write!(
                    f,
                    "truncated bytecode: stream ends at offset {offset} while reading {what}"
                )
            }
            BytecodeLoadError::Corrupt { offset, what } => {
                write!(f, "corrupt bytecode at offset {offset}: {what}")
            }
            BytecodeLoadError::ChecksumMismatch { stored, computed } => write!(
                f,
                "bytecode checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            BytecodeLoadError::VerifyFailed { errors } => write!(
                f,
                "loaded bytecode failed verification:\n{}",
                errors.join("\n")
            ),
        }
    }
}

impl std::error::Error for BytecodeLoadError {}

/// 64-bit FNV-1a over a byte slice — the stream's trailing checksum.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The 8-byte allocator-configuration fingerprint embedded in every
/// header: one byte per [`AllocConfig`] axis, so a loaded blob can
/// report exactly which configuration produced it.
pub fn config_fingerprint(config: &AllocConfig) -> [u8; 8] {
    [
        code(&SAVE_STRATEGIES, config.save),
        code(&RESTORE_STRATEGIES, config.restore),
        code(&SHUFFLE_STRATEGIES, config.shuffle),
        code(&DISCIPLINES, config.discipline),
        code(&BOOLS, config.branch_prediction),
        config.machine.num_arg_regs as u8,
        // Register homes: implied by byte 5, kept for the format.
        code(&BOOLS, config.machine.num_arg_regs > 0),
        0, // reserved
    ]
}

/// Decodes a header fingerprint that starts at stream offset `offset`
/// back into the [`AllocConfig`] it encodes.
///
/// # Errors
///
/// [`BytecodeLoadError::Corrupt`] on any out-of-range byte, naming
/// that byte's own offset. Shuffle code 2 is retired (see BYTECODE.md)
/// and rejected like any other unknown tag, and a register-homes byte
/// must be 1 exactly when the argument register count is non-zero.
pub fn config_from_fingerprint(
    bytes: &[u8; 8],
    offset: usize,
) -> Result<AllocConfig, BytecodeLoadError> {
    let bad = |byte: usize, what: String| BytecodeLoadError::Corrupt {
        offset: offset + byte,
        what,
    };
    let tag = |byte: usize| (bytes[byte], offset + byte);
    let save = decode(&SAVE_STRATEGIES, tag(0), "save strategy tag")?;
    let restore = decode(&RESTORE_STRATEGIES, tag(1), "restore strategy tag")?;
    let shuffle = decode(&SHUFFLE_STRATEGIES, tag(2), "shuffle strategy tag")?;
    let discipline = decode(&DISCIPLINES, tag(3), "discipline tag")?;
    let branch_prediction = decode(&BOOLS, tag(4), "branch-prediction flag")?;
    let num_arg_regs = bytes[5] as usize;
    if num_arg_regs > lesgs_ir::machine::MAX_ARG_REGS {
        return Err(bad(5, format!("argument register count {num_arg_regs}")));
    }
    if bytes[6] != code(&BOOLS, num_arg_regs > 0) {
        return Err(bad(
            6,
            format!(
                "register-homes flag {} with {num_arg_regs} argument registers",
                bytes[6]
            ),
        ));
    }
    if bytes[7] != 0 {
        return Err(bad(7, format!("reserved fingerprint byte {}", bytes[7])));
    }
    Ok(AllocConfig {
        machine: MachineConfig { num_arg_regs },
        save,
        restore,
        shuffle,
        discipline,
        branch_prediction,
    })
}

// ---------------------------------------------------------------------
// Tag tables. Every fieldless value the format stores is one byte: its
// position in its table, which the writer and the reader share.
// Appending to a table is compatible; reordering one is a format break
// (bump FORMAT_VERSION). A primitive's code is its position in
// [`Prim::ALL`].

const SAVE_STRATEGIES: [SaveStrategy; 3] =
    [SaveStrategy::Lazy, SaveStrategy::Early, SaveStrategy::Late];
const RESTORE_STRATEGIES: [RestoreStrategy; 2] = [RestoreStrategy::Eager, RestoreStrategy::Lazy];
// Shuffle code 2 is retired (BYTECODE.md).
const SHUFFLE_STRATEGIES: [ShuffleStrategy; 2] =
    [ShuffleStrategy::Greedy, ShuffleStrategy::FixedOrder];
const DISCIPLINES: [Discipline; 2] = [Discipline::CallerSave, Discipline::CalleeSave];
const BOOLS: [bool; 2] = [false, true];
const SLOT_CLASSES: [SlotClass; 5] = [
    SlotClass::Param,
    SlotClass::Save,
    SlotClass::Spill,
    SlotClass::Temp,
    SlotClass::OutArg,
];
/// A branch's static prediction of its fall-through: none, unlikely,
/// likely.
const BRANCH_HINTS: [Option<bool>; 3] = [None, Some(false), Some(true)];

/// The code of `value`: its position in `table`.
fn code<T: PartialEq>(table: &[T], value: T) -> u8 {
    table
        .iter()
        .position(|v| *v == value)
        .expect("every stored value has a code") as u8
}

/// The value whose code is `byte`, read at stream offset `at`. Any
/// other byte is corrupt at `at`, as `<what> <byte>`.
fn decode<T: Copy>(table: &[T], (byte, at): (u8, usize), what: impl fmt::Display) -> Decode<T> {
    table
        .get(usize::from(byte))
        .copied()
        .ok_or_else(|| BytecodeLoadError::Corrupt {
            offset: at,
            what: format!("{what} {byte}"),
        })
}

// ---------------------------------------------------------------------
// Writer

struct Writer {
    out: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.out.extend_from_slice(s.as_bytes());
    }
    fn reg(&mut self, r: Reg) {
        self.u8(r.0);
    }
    fn slot_class(&mut self, c: SlotClass) {
        self.u8(code(&SLOT_CLASSES, c));
    }
    fn bool(&mut self, b: bool) {
        self.u8(code(&BOOLS, b));
    }
    fn imm(&mut self, imm: &Imm) {
        match imm {
            Imm::Fixnum(n) => {
                self.u8(0);
                self.i64(*n);
            }
            Imm::Bool(b) => {
                self.u8(1);
                self.bool(*b);
            }
            Imm::Char(c) => {
                self.u8(2);
                self.u32(*c as u32);
            }
            Imm::Nil => self.u8(3),
            Imm::Void => self.u8(4),
        }
    }
    fn call_target(&mut self, t: &CallTarget) {
        match t {
            CallTarget::Func(id) => {
                self.u8(0);
                self.u32(id.0);
            }
            CallTarget::ClosureCp => self.u8(1),
        }
    }
    fn likely(&mut self, l: Option<bool>) {
        self.u8(code(&BRANCH_HINTS, l));
    }
    /// The target of the branch `ins`.
    fn target(&mut self, ins: &Instr) {
        self.u32(ins.target().expect("a branch has a target"));
    }
    fn datum(&mut self, d: &Datum) {
        match d {
            Datum::Fixnum(n) => {
                self.u8(0);
                self.i64(*n);
            }
            Datum::Bool(b) => {
                self.u8(1);
                self.bool(*b);
            }
            Datum::Symbol(s) => {
                self.u8(2);
                self.str(s);
            }
            Datum::Str(s) => {
                self.u8(3);
                self.str(s);
            }
            Datum::Char(c) => {
                self.u8(4);
                self.u32(*c as u32);
            }
            Datum::List(items) => {
                self.u8(5);
                self.u32(items.len() as u32);
                for item in items {
                    self.datum(item);
                }
            }
            Datum::Improper(items, tail) => {
                self.u8(6);
                self.u32(items.len() as u32);
                for item in items {
                    self.datum(item);
                }
                self.datum(tail);
            }
            Datum::Vector(items) => {
                self.u8(7);
                self.u32(items.len() as u32);
                for item in items {
                    self.datum(item);
                }
            }
        }
    }
    fn constant(&mut self, c: &Const) {
        match c {
            Const::Fixnum(n) => {
                self.u8(0);
                self.i64(*n);
            }
            Const::Bool(b) => {
                self.u8(1);
                self.bool(*b);
            }
            Const::Char(ch) => {
                self.u8(2);
                self.u32(*ch as u32);
            }
            Const::Str(s) => {
                self.u8(3);
                self.str(s);
            }
            Const::Nil => self.u8(4),
            Const::Void => self.u8(5),
            Const::Symbol(s) => {
                self.u8(6);
                self.str(s);
            }
            Const::Datum(d) => {
                self.u8(7);
                self.datum(d);
            }
        }
    }
    fn instr(&mut self, ins: &Instr) {
        match ins {
            Instr::LoadImm { dst, imm } => {
                self.u8(0);
                self.reg(*dst);
                self.imm(imm);
            }
            Instr::LoadConst { dst, idx } => {
                self.u8(1);
                self.reg(*dst);
                self.u32(*idx);
            }
            Instr::Mov { dst, src } => {
                self.u8(2);
                self.reg(*dst);
                self.reg(*src);
            }
            Instr::StackLoad { dst, slot, class } => {
                self.u8(3);
                self.reg(*dst);
                self.u32(*slot);
                self.slot_class(*class);
            }
            Instr::StackStore { slot, src, class } => {
                self.u8(4);
                self.u32(*slot);
                self.reg(*src);
                self.slot_class(*class);
            }
            Instr::Prim { op, dst, args } => {
                self.u8(5);
                self.u8(code(&Prim::ALL, *op));
                self.reg(*dst);
                self.u8(args.as_slice().len() as u8);
                for a in args.as_slice() {
                    self.reg(*a);
                }
            }
            Instr::Jump { .. } => {
                self.u8(6);
                self.target(ins);
            }
            Instr::BranchFalse { src, likely, .. } => {
                self.u8(7);
                self.reg(*src);
                self.target(ins);
                self.likely(*likely);
            }
            Instr::BranchTrue { src, likely, .. } => {
                self.u8(8);
                self.reg(*src);
                self.target(ins);
                self.likely(*likely);
            }
            Instr::Call {
                target,
                frame_advance,
            } => {
                self.u8(9);
                self.call_target(target);
                self.u32(*frame_advance);
            }
            Instr::TailCall { target } => {
                self.u8(10);
                self.call_target(target);
            }
            Instr::Return => self.u8(11),
            Instr::AllocClosure { dst, func, n_free } => {
                self.u8(12);
                self.reg(*dst);
                self.u32(func.0);
                self.u32(*n_free);
            }
            Instr::ClosureSlotSet { clo, index, src } => {
                self.u8(13);
                self.reg(*clo);
                self.u32(*index);
                self.reg(*src);
            }
            Instr::LoadFree { dst, index } => {
                self.u8(14);
                self.reg(*dst);
                self.u32(*index);
            }
            Instr::LoadGlobal { dst, index } => {
                self.u8(15);
                self.reg(*dst);
                self.u32(*index);
            }
            Instr::StoreGlobal { index, src } => {
                self.u8(16);
                self.u32(*index);
                self.reg(*src);
            }
            // 17 and 18 are retired opcodes (BYTECODE.md).
            Instr::Halt => self.u8(19),
        }
    }
}

/// Serializes a linked program and the allocator configuration that
/// produced it into the `.lbc` byte format.
pub fn serialize_program(prog: &VmProgram, config: &AllocConfig) -> Vec<u8> {
    let mut w = Writer {
        out: Vec::with_capacity(HEADER_LEN + 64 * prog.code_size()),
    };
    w.out.extend_from_slice(&MAGIC);
    w.u32(FORMAT_VERSION);
    w.out.extend_from_slice(&config_fingerprint(config));

    w.u32(prog.entry.0);
    w.u32(prog.n_globals);
    w.u32(prog.constants.len() as u32);
    for c in &prog.constants {
        w.constant(c);
    }
    w.u32(prog.funcs.len() as u32);
    for f in &prog.funcs {
        w.u32(f.id.0);
        w.str(&f.name);
        w.u32(f.frame_size);
        w.u32(f.n_incoming);
        w.u8(u8::from(f.syntactic_leaf) | (u8::from(f.call_inevitable) << 1));
        w.u32(f.code.len() as u32);
        for ins in &f.code {
            w.instr(ins);
        }
    }

    let checksum = fnv1a64(&w.out);
    w.u64(checksum);
    w.out
}

// ---------------------------------------------------------------------
// Reader

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

type Decode<T> = Result<T, BytecodeLoadError>;

impl<'a> Reader<'a> {
    fn truncated(&self, what: &'static str) -> BytecodeLoadError {
        BytecodeLoadError::Truncated {
            offset: self.pos,
            what,
        }
    }
    fn corrupt(&self, offset: usize, what: impl Into<String>) -> BytecodeLoadError {
        BytecodeLoadError::Corrupt {
            offset,
            what: what.into(),
        }
    }
    fn take(&mut self, n: usize, what: &'static str) -> Decode<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| self.truncated(what))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }
    fn u8(&mut self, what: &'static str) -> Decode<u8> {
        Ok(self.take(1, what)?[0])
    }
    fn u32(&mut self, what: &'static str) -> Decode<u32> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }
    fn i64(&mut self, what: &'static str) -> Decode<i64> {
        Ok(i64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }
    /// Reads an element count and sanity-checks it against the bytes
    /// remaining (each element takes at least `min_elem_bytes`), so a
    /// corrupt count cannot drive a giant allocation.
    fn count(&mut self, min_elem_bytes: usize, what: &'static str) -> Decode<usize> {
        let at = self.pos;
        let n = self.u32(what)? as usize;
        let remaining = self.bytes.len() - self.pos;
        if n.saturating_mul(min_elem_bytes.max(1)) > remaining {
            return Err(self.corrupt(
                at,
                format!("{what} count {n} exceeds the {remaining} bytes remaining"),
            ));
        }
        Ok(n)
    }
    fn str(&mut self, what: &'static str) -> Decode<String> {
        let n = self.count(1, what)?;
        let at = self.pos;
        let bytes = self.take(n, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| self.corrupt(at, format!("{what} is not valid UTF-8")))
    }
    fn reg(&mut self, what: &'static str) -> Decode<Reg> {
        let at = self.pos;
        let r = self.u8(what)?;
        if (r as usize) >= NUM_REGS {
            return Err(self.corrupt(at, format!("{what} register index {r} out of range")));
        }
        Ok(Reg(r))
    }
    fn char(&mut self, what: &'static str) -> Decode<char> {
        let at = self.pos;
        let v = self.u32(what)?;
        char::from_u32(v)
            .ok_or_else(|| self.corrupt(at, format!("{what} scalar value {v:#x} is not a char")))
    }
    /// Reads one byte as a code of `table` (see [`decode`]); a stream
    /// that ends first is truncated while reading `field`.
    fn tag<T: Copy>(
        &mut self,
        table: &[T],
        field: &'static str,
        what: impl fmt::Display,
    ) -> Decode<T> {
        let at = self.pos;
        decode(table, (self.u8(field)?, at), what)
    }
    fn slot_class(&mut self) -> Decode<SlotClass> {
        self.tag(&SLOT_CLASSES, "slot class", "slot class tag")
    }
    fn imm(&mut self) -> Decode<Imm> {
        let at = self.pos;
        match self.u8("immediate tag")? {
            0 => Ok(Imm::Fixnum(self.i64("immediate fixnum")?)),
            1 => Ok(Imm::Bool(self.bool("immediate boolean")?)),
            2 => Ok(Imm::Char(self.char("immediate char")?)),
            3 => Ok(Imm::Nil),
            4 => Ok(Imm::Void),
            t => Err(self.corrupt(at, format!("immediate tag {t}"))),
        }
    }
    fn bool(&mut self, what: &'static str) -> Decode<bool> {
        self.tag(&BOOLS, what, format_args!("{what} flag"))
    }
    fn call_target(&mut self) -> Decode<CallTarget> {
        let at = self.pos;
        match self.u8("call-target tag")? {
            0 => Ok(CallTarget::Func(FuncId(self.u32("call-target function")?))),
            1 => Ok(CallTarget::ClosureCp),
            t => Err(self.corrupt(at, format!("call-target tag {t}"))),
        }
    }
    fn likely(&mut self) -> Decode<Option<bool>> {
        self.tag(&BRANCH_HINTS, "branch prediction", "branch-prediction tag")
    }
    fn prim(&mut self) -> Decode<Prim> {
        self.tag(&Prim::ALL, "primitive code", "primitive code")
    }
    fn datum(&mut self, depth: usize) -> Decode<Datum> {
        let at = self.pos;
        // The desugarer's rule: real programs nest a handful of levels,
        // and the cap keeps corrupt input from driving the decoder into
        // unbounded recursion.
        if depth > DATUM_MAX_DEPTH {
            return Err(self.corrupt(at, "quoted datum nests too deep"));
        }
        match self.u8("datum tag")? {
            0 => Ok(Datum::Fixnum(self.i64("datum fixnum")?)),
            1 => Ok(Datum::Bool(self.bool("datum boolean")?)),
            2 => Ok(Datum::Symbol(self.str("datum symbol")?)),
            3 => Ok(Datum::Str(self.str("datum string")?)),
            4 => Ok(Datum::Char(self.char("datum char")?)),
            5 => {
                let n = self.count(1, "datum list")?;
                let items = (0..n)
                    .map(|_| self.datum(depth + 1))
                    .collect::<Decode<Vec<_>>>()?;
                Ok(Datum::List(items))
            }
            6 => {
                let at = self.pos - 1;
                let n = self.count(1, "datum improper list")?;
                if n == 0 {
                    return Err(self.corrupt(at, "improper list with no leading elements"));
                }
                let items = (0..n)
                    .map(|_| self.datum(depth + 1))
                    .collect::<Decode<Vec<_>>>()?;
                let tail = Box::new(self.datum(depth + 1)?);
                Ok(Datum::Improper(items, tail))
            }
            7 => {
                let n = self.count(1, "datum vector")?;
                let items = (0..n)
                    .map(|_| self.datum(depth + 1))
                    .collect::<Decode<Vec<_>>>()?;
                Ok(Datum::Vector(items))
            }
            t => Err(self.corrupt(at, format!("datum tag {t}"))),
        }
    }
    fn constant(&mut self) -> Decode<Const> {
        let at = self.pos;
        match self.u8("constant tag")? {
            0 => Ok(Const::Fixnum(self.i64("constant fixnum")?)),
            1 => Ok(Const::Bool(self.bool("constant boolean")?)),
            2 => Ok(Const::Char(self.char("constant char")?)),
            3 => Ok(Const::Str(self.str("constant string")?)),
            4 => Ok(Const::Nil),
            5 => Ok(Const::Void),
            6 => Ok(Const::Symbol(self.str("constant symbol")?)),
            7 => Ok(Const::Datum(self.datum(0)?)),
            t => Err(self.corrupt(at, format!("constant tag {t}"))),
        }
    }
    fn instr(&mut self) -> Decode<Instr> {
        let at = self.pos;
        match self.u8("opcode")? {
            0 => Ok(Instr::LoadImm {
                dst: self.reg("load-imm destination")?,
                imm: self.imm()?,
            }),
            1 => Ok(Instr::LoadConst {
                dst: self.reg("load-const destination")?,
                idx: self.u32("constant index")?,
            }),
            2 => Ok(Instr::Mov {
                dst: self.reg("mov destination")?,
                src: self.reg("mov source")?,
            }),
            3 => Ok(Instr::StackLoad {
                dst: self.reg("stack-load destination")?,
                slot: self.u32("stack slot")?,
                class: self.slot_class()?,
            }),
            4 => Ok(Instr::StackStore {
                slot: self.u32("stack slot")?,
                src: self.reg("stack-store source")?,
                class: self.slot_class()?,
            }),
            5 => {
                let op = self.prim()?;
                let dst = self.reg("primitive destination")?;
                let argc_at = self.pos;
                let argc = self.u8("primitive arg count")? as usize;
                if argc != op.arity() {
                    return Err(self.corrupt(
                        argc_at,
                        format!("{op} takes {} args, stream says {argc}", op.arity()),
                    ));
                }
                let mut args = [Reg(0); MAX_PRIM_ARGS];
                for a in &mut args[..argc] {
                    *a = self.reg("primitive argument")?;
                }
                Ok(Instr::Prim {
                    op,
                    dst,
                    args: PrimArgs::from_slice(&args[..argc]),
                })
            }
            6 => Ok(Instr::Jump {
                target: self.u32("jump target")?,
            }),
            7 => Ok(Instr::BranchFalse {
                src: self.reg("branch condition")?,
                target: self.u32("branch target")?,
                likely: self.likely()?,
            }),
            8 => Ok(Instr::BranchTrue {
                src: self.reg("branch condition")?,
                target: self.u32("branch target")?,
                likely: self.likely()?,
            }),
            9 => Ok(Instr::Call {
                target: self.call_target()?,
                frame_advance: self.u32("frame advance")?,
            }),
            10 => Ok(Instr::TailCall {
                target: self.call_target()?,
            }),
            11 => Ok(Instr::Return),
            12 => Ok(Instr::AllocClosure {
                dst: self.reg("closure destination")?,
                func: FuncId(self.u32("closure function")?),
                n_free: self.u32("closure free-slot count")?,
            }),
            13 => Ok(Instr::ClosureSlotSet {
                clo: self.reg("closure register")?,
                index: self.u32("closure slot index")?,
                src: self.reg("closure slot source")?,
            }),
            14 => Ok(Instr::LoadFree {
                dst: self.reg("free-load destination")?,
                index: self.u32("free slot index")?,
            }),
            15 => Ok(Instr::LoadGlobal {
                dst: self.reg("global-load destination")?,
                index: self.u32("global index")?,
            }),
            16 => Ok(Instr::StoreGlobal {
                index: self.u32("global index")?,
                src: self.reg("global-store source")?,
            }),
            // Retired opcodes 17 and 18 fall through to the error arm.
            19 => Ok(Instr::Halt),
            op => Err(self.corrupt(at, format!("opcode {op}"))),
        }
    }
}

/// Deserializes a `.lbc` byte stream back into the program and the
/// allocator configuration recorded in its header.
///
/// Total: never panics, never over-allocates, and validates magic,
/// version, checksum, and every structural field. The caller is
/// expected to re-run the bytecode verifier on the result —
/// [`crate::Engine::load_program`] does.
///
/// # Errors
///
/// A typed [`BytecodeLoadError`] naming what was wrong and where.
pub fn deserialize_program(bytes: &[u8]) -> Result<(VmProgram, AllocConfig), BytecodeLoadError> {
    // Header checks come before the checksum so a clean "wrong format"
    // answer survives even a stream too short to carry a trailer.
    let mut found = [0u8; 4];
    let head = bytes.get(..4).unwrap_or(bytes);
    found[..head.len()].copy_from_slice(head);
    if head.len() < 4 || found != MAGIC {
        return Err(BytecodeLoadError::BadMagic { found });
    }
    let mut r = Reader { bytes, pos: 4 };
    let version = r.u32("format version")?;
    if version != FORMAT_VERSION {
        return Err(BytecodeLoadError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let fp_at = r.pos;
    let fp: [u8; 8] = r.take(8, "config fingerprint")?.try_into().unwrap();
    let config = config_from_fingerprint(&fp, fp_at)?;

    // Verify the trailer before decoding the body: a checksum mismatch
    // is the honest answer for storage corruption, not whatever field
    // error the flipped byte happens to produce first.
    if bytes.len() < HEADER_LEN + 8 {
        return Err(BytecodeLoadError::Truncated {
            offset: bytes.len(),
            what: "checksum trailer",
        });
    }
    let body_end = bytes.len() - 8;
    let stored = u64::from_le_bytes(bytes[body_end..].try_into().unwrap());
    let computed = fnv1a64(&bytes[..body_end]);
    if stored != computed {
        return Err(BytecodeLoadError::ChecksumMismatch { stored, computed });
    }
    r.bytes = &bytes[..body_end];

    let entry = FuncId(r.u32("entry function")?);
    let n_globals = r.u32("global count")?;
    let n_constants = r.count(1, "constant pool")?;
    let constants = (0..n_constants)
        .map(|_| r.constant())
        .collect::<Decode<Vec<_>>>()?;
    let n_funcs = r.count(14, "function table")?;
    let mut funcs = Vec::with_capacity(n_funcs);
    for i in 0..n_funcs {
        let id_at = r.pos;
        let id = r.u32("function id")?;
        if id as usize != i {
            return Err(r.corrupt(id_at, format!("function id {id} at table position {i}")));
        }
        let name = r.str("function name")?;
        let frame_size = r.u32("frame size")?;
        let n_incoming = r.u32("incoming parameter count")?;
        let flags_at = r.pos;
        let flags = r.u8("function flags")?;
        if flags > 0b11 {
            return Err(r.corrupt(flags_at, format!("function flags {flags:#x}")));
        }
        let n_code = r.count(1, "instruction stream")?;
        let code = (0..n_code).map(|_| r.instr()).collect::<Decode<Vec<_>>>()?;
        funcs.push(VmFunc {
            id: FuncId(id),
            name,
            code,
            frame_size,
            n_incoming,
            syntactic_leaf: flags & 0b01 != 0,
            call_inevitable: flags & 0b10 != 0,
        });
    }
    if r.pos != body_end {
        return Err(r.corrupt(
            r.pos,
            format!(
                "{} trailing bytes after the function table",
                body_end - r.pos
            ),
        ));
    }
    if entry.index() >= funcs.len() {
        return Err(BytecodeLoadError::Corrupt {
            offset: HEADER_LEN,
            what: format!("entry function {} out of range", entry.index()),
        });
    }
    Ok((
        VmProgram {
            funcs,
            entry,
            constants,
            n_globals,
        },
        config,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lesgs_compiler::{compile, CompilerConfig};

    fn compiled(src: &str) -> VmProgram {
        compile(src, &CompilerConfig::default())
            .expect("compiles")
            .vm
    }

    fn blob(src: &str) -> Vec<u8> {
        serialize_program(&compiled(src), &AllocConfig::paper_default())
    }

    #[test]
    fn header_layout_is_pinned() {
        let bytes = blob("(+ 1 2)");
        assert_eq!(&bytes[..4], b"LBC\0");
        assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().unwrap()), 1);
        // Paper default: lazy/eager/greedy/caller-save, no prediction,
        // six argument registers with register homes.
        assert_eq!(&bytes[8..16], &[0, 0, 0, 0, 0, 6, 1, 0]);
    }

    #[test]
    fn round_trips_program_and_config() {
        for config in [
            AllocConfig::paper_default(),
            AllocConfig::baseline(),
            AllocConfig {
                shuffle: ShuffleStrategy::FixedOrder,
                branch_prediction: true,
                ..AllocConfig::default()
            },
        ] {
            let prog = compile(
                "(define (f a b c) (+ a (* b c))) (f 1 2 3)",
                &CompilerConfig::with_alloc(config),
            )
            .expect("compiles")
            .vm;
            let bytes = serialize_program(&prog, &config);
            let (back, config_back) = deserialize_program(&bytes).expect("round-trips");
            assert_eq!(config_back, config);
            assert_eq!(back.disassemble(), prog.disassemble());
            assert_eq!(format!("{back:?}"), format!("{prog:?}"));
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = blob("(+ 1 2)");
        bytes[0] = b'X';
        assert!(matches!(
            deserialize_program(&bytes),
            Err(BytecodeLoadError::BadMagic { .. })
        ));
        assert!(matches!(
            deserialize_program(b"xy"),
            Err(BytecodeLoadError::BadMagic { .. })
        ));
        assert!(matches!(
            deserialize_program(&[]),
            Err(BytecodeLoadError::BadMagic { .. })
        ));
    }

    #[test]
    fn wrong_version_is_rejected_with_both_versions_named() {
        let mut bytes = blob("(+ 1 2)");
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        match deserialize_program(&bytes) {
            Err(BytecodeLoadError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, 99);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_fingerprint_is_rejected() {
        let mut bytes = blob("(+ 1 2)");
        bytes[8] = 7; // no such save strategy
        let err = deserialize_program(&bytes).unwrap_err();
        assert!(matches!(err, BytecodeLoadError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("save strategy"), "{err}");
    }

    #[test]
    fn every_truncation_fails_cleanly() {
        // Chopping the stream at any point must produce a typed error,
        // never a panic or a bogus program. (Prefixes inside the body
        // surface as checksum mismatches; prefixes inside the header
        // keep their specific diagnoses.)
        let bytes = blob("(define (f x) (if (zero? x) 0 (f (- x 1)))) (display (f 3)) '(a (b) 7)");
        for len in 0..bytes.len() {
            assert!(
                deserialize_program(&bytes[..len]).is_err(),
                "prefix of {len} bytes was accepted"
            );
        }
    }

    #[test]
    fn body_bit_flips_fail_the_checksum() {
        let bytes = blob("(define (sq x) (* x x)) (sq 12)");
        for at in (HEADER_LEN..bytes.len() - 8).step_by(7) {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 0x40;
            assert!(
                matches!(
                    deserialize_program(&corrupt),
                    Err(BytecodeLoadError::ChecksumMismatch { .. })
                ),
                "flip at {at} not caught by the checksum"
            );
        }
    }

    #[test]
    fn structural_errors_caught_even_with_a_fixed_checksum() {
        // Re-stamping the checksum after corrupting a field must still
        // fail on the structural check itself.
        let bytes = blob("(+ 1 2)");
        let mut corrupt = bytes.clone();
        corrupt[HEADER_LEN] = 0xEE; // entry function id, low byte
        restamp(&mut corrupt);
        let err = deserialize_program(&corrupt).unwrap_err();
        assert!(
            matches!(
                err,
                BytecodeLoadError::Corrupt { .. } | BytecodeLoadError::Truncated { .. }
            ),
            "{err}"
        );
    }

    /// Re-stamps the trailing checksum after a patch.
    fn restamp(blob: &mut [u8]) {
        let end = blob.len() - 8;
        let sum = fnv1a64(&blob[..end]);
        blob[end..].copy_from_slice(&sum.to_le_bytes());
    }

    /// A paper-default blob with one function whose code is `instr`
    /// then `halt`, and the offset of `instr`'s opcode byte.
    fn hand_built(instr: &[u8]) -> (Vec<u8>, usize) {
        let mut b = MAGIC.to_vec();
        b.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        b.extend_from_slice(&config_fingerprint(&AllocConfig::paper_default()));
        // entry, globals, constants, functions; then function 0's id,
        // name, frame size and incoming count.
        for word in [0u32, 0, 0, 1, 0] {
            b.extend_from_slice(&word.to_le_bytes());
        }
        b.extend_from_slice(&4u32.to_le_bytes());
        b.extend_from_slice(b"main");
        for word in [0u32, 0] {
            b.extend_from_slice(&word.to_le_bytes());
        }
        b.push(0); // flags
        b.extend_from_slice(&2u32.to_le_bytes());
        let at = b.len();
        b.extend_from_slice(instr);
        b.push(19); // halt
        b.extend_from_slice(&[0; 8]);
        restamp(&mut b);
        (b, at)
    }

    /// Opcodes 17 (`swap`) and 18 (`permi`) and shuffle code 2 are
    /// retired: a version-1 blob that still uses one is corrupt at the
    /// offset of that byte, never misread.
    #[test]
    fn retired_codes_are_rejected_at_their_offset() {
        let (a0, a1) = (
            lesgs_ir::machine::arg_reg(0).0,
            lesgs_ir::machine::arg_reg(1).0,
        );
        let (mov, _) = hand_built(&[2, a0, a1]);
        deserialize_program(&mov).expect("the same blob with `mov a0, a1` loads");
        let mut shuffle_two = mov.clone();
        shuffle_two[10] = 2;
        restamp(&mut shuffle_two);
        for (what, (blob, at)) in [
            ("opcode 17", hand_built(&[17, a0, a1])),
            ("opcode 18", hand_built(&[18, 2, a0, a1, 1, 0])),
            ("shuffle code 2", (shuffle_two, 10)),
        ] {
            match deserialize_program(&blob) {
                Err(BytecodeLoadError::Corrupt { offset, .. }) => {
                    assert_eq!(offset, at, "{what}");
                }
                other => panic!("{what}: expected Corrupt at {at}, got {other:?}"),
            }
        }
    }

    /// Fingerprint byte 6 (register homes) follows from byte 5 (the
    /// argument register count): a blob whose two bytes disagree is
    /// corrupt at byte 6, not loaded as a configuration nothing builds.
    #[test]
    fn register_homes_byte_must_follow_the_register_count() {
        let (a0, a1) = (
            lesgs_ir::machine::arg_reg(0).0,
            lesgs_ir::machine::arg_reg(1).0,
        );
        let (mut blob, _) = hand_built(&[2, a0, a1]);
        assert_eq!(
            blob[13..16],
            [6, 1, 0],
            "paper default: six registers, homes on"
        );
        blob[14] = 0;
        restamp(&mut blob);
        match deserialize_program(&blob) {
            Err(BytecodeLoadError::Corrupt { offset, .. }) => assert_eq!(offset, 14),
            other => panic!("expected Corrupt at 14, got {other:?}"),
        }
    }

    #[test]
    fn fingerprint_round_trips_every_config() {
        for config in lesgs_compiler::config_matrix() {
            let fp = config_fingerprint(&config);
            assert_eq!(config_from_fingerprint(&fp, 8).unwrap(), config);
        }
    }

    #[test]
    fn error_messages_name_offsets_and_values() {
        let bytes = blob("(+ 1 2)");
        let truncated = deserialize_program(&bytes[..HEADER_LEN + 2]).unwrap_err();
        assert!(truncated.to_string().contains("offset"), "{truncated}");
        let mut wrong_sum = bytes.clone();
        let last = wrong_sum.len() - 1;
        wrong_sum[last] ^= 0xFF;
        let err = deserialize_program(&wrong_sum).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }
}
