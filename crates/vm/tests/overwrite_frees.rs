//! Every overwrite frees what it held, during the run.
//!
//! The machine replaces a value wherever a value lives: a register, a
//! stack slot, a global, a vector element, a pair field, a box or a
//! closure slot. A replacement that forgot a heap value instead of
//! dropping it would leak every object a program lets go of, while the
//! run lasts, and on both engines. For each site, this test runs a loop
//! that replaces the only reference to a 100,000-element vector a
//! thousand times through that site. For each other kind of value that
//! points at the heap (a string, a symbol, a box, a closure and a pair),
//! a loop replaces a value of that kind in a register a thousand times;
//! a box, closure or pair is made afresh each round and holds the only
//! reference to that round's vector. Each run's live heap must peak
//! within a few vectors of where it started, and come back to it when
//! the run ends. A string or symbol comes only from the constant
//! pool, which holds it for the whole run, so for those two the second
//! check is the one that bites: the pool's copy is freed at the end only
//! if every replacement gave back its count. `no_leak.rs` checks only
//! what stays live across runs.
//!
//! The binary installs a counting global allocator and holds exactly one
//! test, so the peak it reads is this test's own.

use lesgs_frontend::{Const, FuncId, Prim};
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

/// The kind of value each round of [`shape_program`] puts in a
/// register; a vector is [`Site::Register`]'s.
#[derive(Debug, Clone, Copy)]
enum Shape {
    String,
    Symbol,
    Box,
    Closure,
    Pair,
}

const SHAPES: [Shape; 5] = [
    Shape::String,
    Shape::Symbol,
    Shape::Box,
    Shape::Closure,
    Shape::Pair,
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
fn site_program(site: Site) -> VmProgram {
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
    close_loop(code, top, vec![])
}

/// Ends `code` with the round count's increment and the branch back to
/// `top`, and makes it a program with `constants`.
fn close_loop(mut code: Vec<Instr>, top: u32, constants: Vec<Const>) -> VmProgram {
    let (count, flag, limit) = (scratch_reg(0), scratch_reg(3), arg_reg(2));
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
        constants,
        n_globals: 1,
    }
}

/// A program that puts a value of `shape` in one register [`ROUNDS`]
/// times, each replacing the last. A box, closure or pair is made
/// afresh around a fresh vector, and the register that made the vector
/// is cleared. A string or symbol is loaded from the constant pool, as
/// a constant of [`VECTOR_BYTES`].
fn shape_program(shape: Shape) -> VmProgram {
    let (count, len, fresh) = (scratch_reg(0), scratch_reg(1), scratch_reg(2));
    let (holder, zero, limit) = (arg_reg(0), arg_reg(1), arg_reg(2));
    let mut code = vec![
        load(count, Imm::Fixnum(0)),
        load(len, Imm::Fixnum(LENGTH)),
        load(zero, Imm::Fixnum(0)),
        load(limit, Imm::Fixnum(ROUNDS)),
    ];
    let top = code.len() as u32;
    let make_fresh = prim(Prim::MakeVector, fresh, &[len]);
    let clear_fresh = load(fresh, Imm::Void);
    code.extend(match shape {
        Shape::String | Shape::Symbol => vec![Instr::LoadConst {
            dst: holder,
            idx: 0,
        }],
        Shape::Box => vec![
            make_fresh,
            prim(Prim::MakeCell, holder, &[fresh]),
            clear_fresh,
        ],
        Shape::Closure => vec![
            make_fresh,
            Instr::AllocClosure {
                dst: holder,
                func: FuncId(0),
                n_free: 1,
            },
            Instr::ClosureSlotSet {
                clo: holder,
                index: 0,
                src: fresh,
            },
            clear_fresh,
        ],
        Shape::Pair => vec![
            make_fresh,
            prim(Prim::Cons, holder, &[fresh, zero]),
            clear_fresh,
        ],
    });
    let text = "x".repeat(VECTOR_BYTES);
    let constants = match shape {
        Shape::String => vec![Const::Str(text)],
        Shape::Symbol => vec![Const::Symbol(text)],
        _ => vec![],
    };
    close_loop(code, top, constants)
}

/// How far the live heap rose above its level at the start of `run`
/// at its peak, and how far above it the run left it. `allocates` says
/// whether each round makes a vector.
fn growth(allocates: bool, run: impl FnOnce() -> VmOutcome) -> (usize, usize) {
    let before = live_bytes();
    reset_peak();
    let outcome = run();
    let peak = peak_bytes();
    if allocates {
        // Each round's `make-vector` is a heap operation.
        assert!(outcome.stats.heap_ops >= ROUNDS as u64);
    } else {
        // A round that loads a constant makes nothing, in four
        // instructions.
        assert!(outcome.stats.instructions >= 4 * ROUNDS as u64);
    }
    drop(outcome);
    (
        peak.saturating_sub(before),
        live_bytes().saturating_sub(before),
    )
}

#[test]
fn each_overwrite_frees_the_value_it_replaces() {
    let cost = CostModel::alpha_like();
    let sites = SITES.map(|site| (format!("{site:?}"), site_program(site), true));
    let shapes = SHAPES.map(|shape| {
        let what = format!("a {shape:?} in a register");
        // A string or symbol is loaded from the constant pool.
        let allocates = !matches!(shape, Shape::String | Shape::Symbol);
        (what, shape_program(shape), allocates)
    });
    for (what, p, allocates) in sites.into_iter().chain(shapes) {
        let fast = growth(allocates, || {
            Machine::new(&p, cost).run().expect("fast run")
        });
        let reference = growth(allocates, || {
            ClassicMachine::new(&p, cost).run().expect("reference run")
        });
        // Two vectors are live while a round makes its fresh one; a
        // value left unfreed would keep all thousand, and a string or
        // symbol would outlive the run.
        for (engine, (peak, left)) in [("fast", fast), ("reference", reference)] {
            assert!(
                peak < 3 * VECTOR_BYTES,
                "{what} on the {engine} engine: the live heap peaked {peak} bytes up, \
                 {:.1} vectors",
                peak as f64 / VECTOR_BYTES as f64
            );
            assert!(
                left < VECTOR_BYTES / 2,
                "{what} on the {engine} engine: the run left {left} bytes live"
            );
        }
    }
}
