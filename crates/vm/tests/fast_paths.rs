//! The machine's fast paths against the reference at every edge.
//!
//! [`Machine`] and [`ClassicMachine`] run one dispatch loop and differ
//! only in the machine's fast paths. Thirty-six primitives are evaluated
//! on operands peeked in place, and each declines to the shared
//! evaluator when its operands do not fit: on overflow, a non-fixnum, a
//! zero divisor, `abs` of the most negative fixnum, `car` or `set-car!`
//! of a non-pair, `unbox` or `set-box!` of a non-box, or an index that
//! is negative or past the end. This test applies each of those
//! primitives to every operand tuple drawn from eleven edge values, in a
//! hand-built program, and requires both engines to return the same
//! result: value, output and every counter, or the same error message at
//! the same place.

use std::collections::BTreeSet;

use lesgs_frontend::{FuncId, Prim};
use lesgs_ir::machine::{arg_reg, scratch_reg, RV};
use lesgs_ir::Reg;
use lesgs_vm::{ClassicMachine, CostModel, Imm, Instr, Machine, PrimArgs, VmFunc, VmProgram};

/// The primitives the machine evaluates on a fast path.
const FAST: [Prim; 36] = [
    Prim::Add,
    Prim::Sub,
    Prim::Mul,
    Prim::Add1,
    Prim::Sub1,
    Prim::NumEq,
    Prim::Lt,
    Prim::Le,
    Prim::Gt,
    Prim::Ge,
    Prim::IsZero,
    Prim::Quotient,
    Prim::Remainder,
    Prim::Modulo,
    Prim::Abs,
    Prim::Min,
    Prim::Max,
    Prim::IsPositive,
    Prim::IsNegative,
    Prim::IsEven,
    Prim::IsOdd,
    Prim::Not,
    Prim::IsPair,
    Prim::IsNull,
    Prim::IsEq,
    Prim::IsEqv,
    Prim::Car,
    Prim::Cdr,
    Prim::VectorRef,
    Prim::VectorSet,
    Prim::Cons,
    Prim::SetCar,
    Prim::SetCdr,
    Prim::MakeCell,
    Prim::CellRef,
    Prim::CellSet,
];

/// One operand value: an immediate, or the program's one pair, its one
/// two-element vector or its one box.
#[derive(Debug, Clone, Copy)]
enum Operand {
    Imm(Imm),
    Pair,
    Vector,
    Box,
}

const OPERANDS: [Operand; 11] = [
    Operand::Imm(Imm::Fixnum(i64::MIN)),
    Operand::Imm(Imm::Fixnum(i64::MIN + 1)),
    Operand::Imm(Imm::Fixnum(-1)),
    Operand::Imm(Imm::Fixnum(0)),
    Operand::Imm(Imm::Fixnum(1)),
    Operand::Imm(Imm::Fixnum(i64::MAX)),
    Operand::Imm(Imm::Bool(false)),
    Operand::Imm(Imm::Nil),
    Operand::Pair,
    Operand::Vector,
    Operand::Box,
];

fn prim(op: Prim, dst: Reg, args: &[Reg]) -> Instr {
    Instr::Prim {
        op,
        dst,
        args: PrimArgs::from_slice(args),
    }
}

fn fixnum(dst: Reg, n: i64) -> Instr {
    Instr::LoadImm {
        dst,
        imm: Imm::Fixnum(n),
    }
}

/// A program that builds the pair `(1 . 2)`, the vector `#(7 7)` and a
/// box holding 7, loads `operands` into argument registers, applies `op`
/// to them into `rv`, and halts. Before halting it writes each element
/// of the vector, the pair's car and cdr and the box's content, or `#t`
/// for one that is its container itself, so a mutation shows in the
/// output.
fn program(op: Prim, operands: &[Operand]) -> VmProgram {
    let (pair, vector, seven, sink, boxed) = (
        scratch_reg(0),
        scratch_reg(1),
        scratch_reg(2),
        scratch_reg(3),
        arg_reg(3),
    );
    let mut code = vec![
        fixnum(pair, 1),
        fixnum(vector, 2),
        prim(Prim::Cons, pair, &[pair, vector]),
        fixnum(seven, 7),
        prim(Prim::MakeVectorFill, vector, &[vector, seven]),
        prim(Prim::MakeCell, boxed, &[seven]),
    ];
    let args: Vec<Reg> = (0..operands.len()).map(arg_reg).collect();
    for (&dst, operand) in args.iter().zip(operands) {
        code.push(match *operand {
            Operand::Imm(imm) => Instr::LoadImm { dst, imm },
            Operand::Pair => Instr::Mov { dst, src: pair },
            Operand::Vector => Instr::Mov { dst, src: vector },
            Operand::Box => Instr::Mov { dst, src: boxed },
        });
    }
    code.push(prim(op, RV, &args));
    let (index, element, itself) = (arg_reg(0), arg_reg(1), arg_reg(2));
    let vector_ref = |i| {
        vec![
            fixnum(index, i),
            prim(Prim::VectorRef, element, &[vector, index]),
        ]
    };
    for (load, container) in [
        (vector_ref(0), vector),
        (vector_ref(1), vector),
        (vec![prim(Prim::Car, element, &[pair])], pair),
        (vec![prim(Prim::Cdr, element, &[pair])], pair),
        (vec![prim(Prim::CellRef, element, &[boxed])], boxed),
    ] {
        code.extend(load);
        code.push(prim(Prim::IsEq, itself, &[element, container]));
        code.push(prim(Prim::Write, sink, &[itself]));
        // A container holding itself would print without end.
        let after = code.len() as u32 + 2;
        code.push(Instr::BranchTrue {
            src: itself,
            target: after,
            likely: None,
        });
        code.push(prim(Prim::Write, sink, &[element]));
    }
    code.push(Instr::Halt);
    VmProgram {
        funcs: vec![VmFunc {
            id: FuncId(0),
            name: "entry".into(),
            code,
            frame_size: 0,
            n_incoming: 0,
            syntactic_leaf: true,
            call_inevitable: false,
        }],
        entry: FuncId(0),
        constants: vec![],
        n_globals: 0,
    }
}

/// Every tuple of `n` operands.
fn tuples(n: usize) -> Vec<Vec<Operand>> {
    (0..n).fold(vec![Vec::new()], |acc, _| {
        acc.iter()
            .flat_map(|t| {
                OPERANDS.iter().map(move |o| {
                    let mut t = t.clone();
                    t.push(*o);
                    t
                })
            })
            .collect()
    })
}

#[test]
fn fast_paths_match_the_reference_on_every_edge() {
    let (mut errors, mut succeeded) = (BTreeSet::new(), BTreeSet::new());
    let mut runs = 0;
    for op in FAST {
        for operands in tuples(op.arity()) {
            let p = program(op, &operands);
            assert_eq!(lesgs_vm::verify_bytecode(&p), [], "{op} {operands:?}");
            for cost in [CostModel::alpha_like(), CostModel::unit()] {
                let fast = Machine::new(&p, cost).with_poison(true).run();
                let reference = ClassicMachine::new(&p, cost).with_poison(true).run();
                assert_eq!(fast, reference, "{op} {operands:?}");
                runs += 1;
                match fast {
                    Ok(_) => {
                        succeeded.insert(op.name());
                    }
                    Err(e) => {
                        assert_eq!(e.at, Some(("entry".into(), 7 + operands.len() as u32)));
                        errors.insert(e.message);
                    }
                }
            }
        }
    }
    assert_eq!(runs, 2 * (20 * 121 + 15 * 11 + 1331));
    // Each fast path succeeded on some tuple.
    assert_eq!(succeeded.len(), FAST.len(), "only {succeeded:?} succeeded");
    // Each kind of fallback was reached.
    for message in [
        "+: fixnum overflow",
        "-: fixnum overflow",
        "*: fixnum overflow",
        "add1: fixnum overflow",
        "sub1: fixnum overflow",
        "abs: fixnum overflow",
        "quotient: division by zero",
        "quotient: fixnum overflow",
        "modulo: division by zero",
        "<: expected number, got #f",
        "car: expected pair, got ()",
        "cdr: expected pair, got 0",
        "vector-ref: index -1 out of range",
        "vector-ref: index 9223372036854775807 out of range",
        "vector-set!: index -1 out of range",
        "vector-set!: index 9223372036854775807 out of range",
        "vector-ref: expected vector, got (1 . 2)",
        "set-car!: expected pair, got 0",
        "set-cdr!: expected pair, got #<box>",
        "unbox: expected box, got (1 . 2)",
        "set-box!: expected box, got ()",
    ] {
        assert!(errors.contains(message), "{message} not among {errors:#?}");
    }
}
