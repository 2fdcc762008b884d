//! Every overwrite frees what it held, during the run.
//!
//! The machine replaces a value through one helper wherever a value is
//! replaced: a register, a stack slot, a global, a vector element, a
//! pair field, a box or a closure slot. It drops a value that points at
//! the heap and overwrites an immediate in place. A helper that forgot a
//! heap value instead of dropping it would leak every object a program
//! lets go of, while the run lasts, and on both engines. For each site,
//! this test runs a loop that replaces the only reference to a
//! 100,000-element vector a thousand times through that site, and
//! requires the live heap's high-water mark to stay within a few
//! vectors. `no_leak.rs` checks only what stays live across runs.
//!
//! The binary installs a counting global allocator and holds exactly one
//! test, so the peak it reads is this test's own.

use lesgs_frontend::{FuncId, Prim};
use lesgs_ir::machine::{arg_reg, scratch_reg};
use lesgs_ir::Reg;
use lesgs_testkit::counting::{live_bytes, peak_bytes, reset_peak, Counting};
use lesgs_vm::{
    ClassicMachine, CostModel, Imm, Instr, Machine, PrimArgs, SlotClass, Value, VmFunc, VmOutcome,
    VmProgram,
};

#[global_allocator]
static GLOBAL: Counting = Counting;

const LENGTH: i64 = 100_000;
const ROUNDS: i64 = 1_000;

/// The heap bytes of one vector of [`LENGTH`] values.
const VECTOR_BYTES: usize = LENGTH as usize * std::mem::size_of::<Value>();

/// Where each round's vector is stored.
#[derive(Debug, Clone, Copy)]
enum Site {
    Register,
    StackSlot,
    Global,
    VectorElement,
    Car,
    Cdr,
    Box,
    ClosureSlot,
}

const SITES: [Site; 8] = [
    Site::Register,
    Site::StackSlot,
    Site::Global,
    Site::VectorElement,
    Site::Car,
    Site::Cdr,
    Site::Box,
    Site::ClosureSlot,
];

fn prim(op: Prim, dst: Reg, args: &[Reg]) -> Instr {
    Instr::Prim {
        op,
        dst,
        args: PrimArgs::from_slice(args),
    }
}

fn load(dst: Reg, imm: Imm) -> Instr {
    Instr::LoadImm { dst, imm }
}

/// A program that makes a fresh vector [`ROUNDS`] times and stores it at
/// `site`, where it replaces the last round's vector; the register that
/// made it is cleared after the store, so the site holds the only
/// reference. At [`Site::Register`] the fresh vector replaces the last
/// one in the register that makes it.
fn program(site: Site) -> VmProgram {
    let (count, len, fresh, flag) = (
        scratch_reg(0),
        scratch_reg(1),
        scratch_reg(2),
        scratch_reg(3),
    );
    let (holder, zero, limit) = (arg_reg(0), arg_reg(1), arg_reg(2));
    let mut code = vec![
        load(count, Imm::Fixnum(0)),
        load(len, Imm::Fixnum(LENGTH)),
        load(zero, Imm::Fixnum(0)),
        load(limit, Imm::Fixnum(ROUNDS)),
    ];
    code.extend(match site {
        Site::VectorElement => vec![
            load(holder, Imm::Fixnum(1)),
            prim(Prim::MakeVector, holder, &[holder]),
        ],
        Site::Car | Site::Cdr => vec![prim(Prim::Cons, holder, &[zero, zero])],
        Site::Box => vec![prim(Prim::MakeCell, holder, &[zero])],
        Site::ClosureSlot => vec![Instr::AllocClosure {
            dst: holder,
            func: FuncId(0),
            n_free: 1,
        }],
        Site::Register | Site::StackSlot | Site::Global => vec![],
    });
    let top = code.len() as u32;
    code.push(prim(Prim::MakeVector, fresh, &[len]));
    code.extend(match site {
        Site::Register => vec![],
        Site::StackSlot => vec![Instr::StackStore {
            slot: 0,
            src: fresh,
            class: SlotClass::Spill,
        }],
        Site::Global => vec![Instr::StoreGlobal {
            index: 0,
            src: fresh,
        }],
        Site::VectorElement => vec![prim(Prim::VectorSet, flag, &[holder, zero, fresh])],
        Site::Car => vec![prim(Prim::SetCar, flag, &[holder, fresh])],
        Site::Cdr => vec![prim(Prim::SetCdr, flag, &[holder, fresh])],
        Site::Box => vec![prim(Prim::CellSet, flag, &[holder, fresh])],
        Site::ClosureSlot => vec![Instr::ClosureSlotSet {
            clo: holder,
            index: 0,
            src: fresh,
        }],
    });
    if !matches!(site, Site::Register) {
        code.push(load(fresh, Imm::Void));
    }
    code.extend([
        prim(Prim::Add1, count, &[count]),
        prim(Prim::Lt, flag, &[count, limit]),
        Instr::BranchTrue {
            src: flag,
            target: top,
            likely: Some(true),
        },
        Instr::Halt,
    ]);
    VmProgram {
        funcs: vec![VmFunc {
            id: FuncId(0),
            name: "entry".into(),
            code,
            frame_size: 1,
            n_incoming: 0,
            syntactic_leaf: true,
            call_inevitable: false,
        }],
        entry: FuncId(0),
        constants: vec![],
        n_globals: 1,
    }
}

/// How far the live heap rose above its level at the start of `run`.
fn peak_growth(run: impl FnOnce() -> VmOutcome) -> usize {
    let before = live_bytes();
    reset_peak();
    let outcome = run();
    let peak = peak_bytes();
    // Each round's `make-vector` is a heap operation.
    assert!(outcome.stats.heap_ops >= ROUNDS as u64);
    peak.saturating_sub(before)
}

#[test]
fn each_overwrite_frees_the_value_it_replaces() {
    let cost = CostModel::alpha_like();
    for site in SITES {
        let p = program(site);
        let fast = peak_growth(|| Machine::new(&p, cost).run().expect("fast run"));
        let reference = peak_growth(|| ClassicMachine::new(&p, cost).run().expect("reference run"));
        // Two vectors are live while a round makes its fresh one; a
        // value left unfreed would keep all thousand.
        for (engine, growth) in [("fast", fast), ("reference", reference)] {
            assert!(
                growth < 3 * VECTOR_BYTES,
                "{site:?} on the {engine} engine: the live heap peaked {growth} bytes up, \
                 {:.1} vectors",
                growth as f64 / VECTOR_BYTES as f64
            );
        }
    }
}
