//! The engines' public face: [`Machine`] and the reference
//! [`crate::ClassicMachine`], what a run returns, and the shims kept for
//! callers outside the workspace.
//!
//! Both engines are [`Dispatch`]: one machine over the program's own
//! code, running the one dispatch loop of the crate-private `machine`
//! module. [`Machine`] builds that loop with its fast paths, the
//! reference without them; see the `machine` module for what each
//! instantiation does. Differential tests hold the two to byte-identical
//! outcomes and [`RunStats`], so the fast paths are the part they check.

use std::fmt;

use crate::cost::CostModel;
use crate::machine::Vm;
use crate::program::VmProgram;
use crate::stats::RunStats;

/// A runtime failure (type error, fuel exhaustion, stack overflow, VM
/// invariant violation).
#[derive(Debug, Clone, PartialEq)]
pub struct VmError {
    /// Human-readable description.
    pub message: String,
    /// Function and instruction where it happened.
    pub at: Option<(String, u32)>,
}

/// The message every instruction-budget failure carries (the stable
/// marker behind [`VmError::is_fuel_exhausted`]).
pub(crate) const FUEL_MESSAGE: &str = "instruction budget exhausted";

impl VmError {
    /// Creates an error.
    pub fn new(message: impl Into<String>) -> VmError {
        VmError {
            message: message.into(),
            at: None,
        }
    }

    /// True when this error means the instruction budget ran out (as
    /// opposed to the program misbehaving) — differential drivers must
    /// not report a timeout as a miscompile.
    pub fn is_fuel_exhausted(&self) -> bool {
        self.message == FUEL_MESSAGE
    }
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.at {
            Some((name, pc)) => {
                write!(f, "vm error at {name}+{pc}: {}", self.message)
            }
            None => write!(f, "vm error: {}", self.message),
        }
    }
}

impl std::error::Error for VmError {}

/// The result of a successful run: the engine-independent observable
/// contract the engine-agreement tests pin.
#[derive(Debug, Clone, PartialEq)]
pub struct VmOutcome {
    /// Final value (in `rv`), rendered in `write` style.
    pub value: String,
    /// Program output (`display`/`write`/`newline`).
    pub output: String,
    /// Collected statistics.
    pub stats: RunStats,
}

/// A virtual machine over one program, running the dispatch loop with
/// its fast paths (`FAST = true`, [`Machine`]) or without them
/// (`FAST = false`, the reference [`crate::ClassicMachine`]).
pub struct Dispatch<'a, const FAST: bool> {
    vm: Vm<'a>,
}

/// The virtual machine: the dispatch loop with its fast paths.
pub type Machine<'a> = Dispatch<'a, true>;

impl<'a, const FAST: bool> Dispatch<'a, FAST> {
    /// Creates a machine for `program` with the given cost model. It
    /// executes the program's own code; nothing is translated first.
    pub fn new(program: &'a VmProgram, cost: CostModel) -> Dispatch<'a, FAST> {
        Dispatch {
            vm: Vm::new(program, cost),
        }
    }

    /// Sets the instruction budget.
    #[must_use]
    pub fn with_fuel(mut self, max_instructions: u64) -> Dispatch<'a, FAST> {
        self.vm.max_instructions = max_instructions;
        self
    }

    /// Enables frame poisoning: every callee frame starts as `Uninit`
    /// so reads of never-written slots fail loudly (used in tests).
    #[must_use]
    pub fn with_poison(mut self, poison: bool) -> Dispatch<'a, FAST> {
        self.vm.poison_frames = poison;
        self
    }

    /// Enables call-event tracing: every call, tail call, and return
    /// logs a `trace:` line to stderr (the `lesgsc --trace` backend).
    #[must_use]
    pub fn with_trace(mut self, trace: bool) -> Dispatch<'a, FAST> {
        self.vm.trace = trace;
        self
    }

    /// Runs the program to completion.
    ///
    /// # Errors
    ///
    /// Type errors, arity/stack violations, `(error …)`, stack
    /// overflow, or exceeding the instruction budget.
    pub fn run(self) -> Result<VmOutcome, VmError> {
        if FAST {
            self.vm.run_fast()
        } else {
            self.vm.run_reference()
        }
    }
}

impl<'a> Machine<'a> {
    /// Creates a machine over `program`'s copy of its code, like
    /// [`Machine::new`]. A shim: see [`DecodedProgram`].
    pub fn from_decoded(program: &'a DecodedProgram, cost: CostModel) -> Machine<'a> {
        Machine::new(&program.program, cost)
    }

    /// Ignored: the machine has no speculative dispatch, and every
    /// closure call resolves through `cp`. Kept only because
    /// `perfbench/src/programs.rs` still calls it; nothing in the
    /// workspace does.
    #[must_use]
    pub fn with_speculation(self, _speculate: bool) -> Machine<'a> {
        self
    }
}

/// A copy of a program, kept only because `perfbench/src/programs.rs`
/// still decodes before it runs; nothing in the workspace does. The VM
/// executes [`VmProgram`]s as they are, so "decoding" copies the
/// program and [`Machine::from_decoded`] runs the copy.
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    program: VmProgram,
}

/// What [`DecodedProgram::decode`] reports: a shim like it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecodeStats {
    /// The program's code size ([`VmProgram::code_size`]).
    pub decoded_ops: u64,
}

impl DecodedProgram {
    /// Copies `program`.
    pub fn decode(program: &VmProgram) -> DecodedProgram {
        DecodedProgram {
            program: program.clone(),
        }
    }

    /// The copy's code size, as [`DecodeStats::decoded_ops`].
    pub fn stats(&self) -> DecodeStats {
        DecodeStats {
            decoded_ops: self.program.code_size() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classic::ClassicMachine;
    use crate::instr::{CallTarget, Imm, Instr, PrimArgs, SlotClass};
    use crate::program::VmFunc;
    use crate::stats::ActivationClass;
    use lesgs_frontend::{FuncId, Prim};
    use lesgs_ir::machine::{arg_reg, scratch_reg, CP, RET, RV};
    use lesgs_ir::Reg;

    /// Hand-assembled program: computes (2 + 3) * 7 via a helper call.
    fn tiny_program() -> VmProgram {
        let a0 = arg_reg(0);
        let a1 = arg_reg(1);
        let s0 = scratch_reg(0);
        // f0: add(a, b) -> rv
        let add = VmFunc {
            id: FuncId(0),
            name: "add".into(),
            code: vec![
                Instr::Prim {
                    op: Prim::Add,
                    dst: RV,
                    args: PrimArgs::from_slice(&[a0, a1]),
                },
                Instr::Return,
            ],
            frame_size: 0,
            n_incoming: 0,
            syntactic_leaf: true,
            call_inevitable: false,
        };
        // f1: main — saves ret, calls add(2,3), multiplies by 7.
        let main = VmFunc {
            id: FuncId(1),
            name: "main".into(),
            code: vec![
                Instr::StackStore {
                    slot: 0,
                    src: RET,
                    class: SlotClass::Save,
                },
                Instr::LoadImm {
                    dst: a0,
                    imm: Imm::Fixnum(2),
                },
                Instr::LoadImm {
                    dst: a1,
                    imm: Imm::Fixnum(3),
                },
                Instr::Call {
                    target: CallTarget::Func(FuncId(0)),
                    frame_advance: 1,
                },
                Instr::StackLoad {
                    dst: RET,
                    slot: 0,
                    class: SlotClass::Save,
                },
                Instr::LoadImm {
                    dst: s0,
                    imm: Imm::Fixnum(7),
                },
                Instr::Prim {
                    op: Prim::Mul,
                    dst: RV,
                    args: PrimArgs::from_slice(&[RV, s0]),
                },
                Instr::Return,
            ],
            frame_size: 1,
            n_incoming: 0,
            syntactic_leaf: false,
            call_inevitable: true,
        };
        // f2: entry — call main, halt.
        let entry = VmFunc {
            id: FuncId(2),
            name: "entry".into(),
            code: vec![
                Instr::Call {
                    target: CallTarget::Func(FuncId(1)),
                    frame_advance: 0,
                },
                Instr::Halt,
            ],
            frame_size: 0,
            n_incoming: 0,
            syntactic_leaf: false,
            call_inevitable: true,
        };
        VmProgram {
            funcs: vec![add, main, entry],
            entry: FuncId(2),
            constants: vec![],
            n_globals: 0,
        }
    }

    #[test]
    fn hand_assembled_program_runs() {
        let p = tiny_program();
        let out = Machine::new(&p, CostModel::alpha_like())
            .with_poison(true)
            .run()
            .unwrap();
        assert_eq!(out.value, "35");
        assert_eq!(out.stats.calls, 2);
        assert_eq!(out.stats.saves(), 1);
        assert_eq!(out.stats.restores(), 1);
        // add is a syntactic leaf activation.
        assert_eq!(
            out.stats.activations[ActivationClass::SyntacticLeaf as usize],
            1
        );
    }

    #[test]
    fn stalls_accrue_on_immediate_use() {
        // Using a loaded value immediately stalls for the latency.
        let a0 = arg_reg(0);
        let f = VmFunc {
            id: FuncId(0),
            name: "entry".into(),
            code: vec![
                Instr::LoadImm {
                    dst: a0,
                    imm: Imm::Fixnum(5),
                },
                Instr::StackStore {
                    slot: 0,
                    src: a0,
                    class: SlotClass::Temp,
                },
                Instr::StackLoad {
                    dst: a0,
                    slot: 0,
                    class: SlotClass::Temp,
                },
                Instr::Prim {
                    op: Prim::Add1,
                    dst: RV,
                    args: PrimArgs::from_slice(&[a0]),
                },
                Instr::Halt,
            ],
            frame_size: 1,
            n_incoming: 0,
            syntactic_leaf: true,
            call_inevitable: false,
        };
        let p = VmProgram {
            funcs: vec![f],
            entry: FuncId(0),
            constants: vec![],
            n_globals: 0,
        };
        let out = Machine::new(&p, CostModel::alpha_like()).run().unwrap();
        assert_eq!(out.value, "6");
        assert!(out.stats.stall_cycles > 0, "{:?}", out.stats);
        let unit = Machine::new(&p, CostModel::unit()).run().unwrap();
        assert_eq!(unit.stats.stall_cycles, 0);
    }

    #[test]
    fn uninitialized_slot_read_fails() {
        let f = VmFunc {
            id: FuncId(0),
            name: "entry".into(),
            code: vec![
                Instr::StackLoad {
                    dst: RV,
                    slot: 3,
                    class: SlotClass::Spill,
                },
                Instr::Halt,
            ],
            frame_size: 4,
            n_incoming: 0,
            syntactic_leaf: true,
            call_inevitable: false,
        };
        let p = VmProgram {
            funcs: vec![f],
            entry: FuncId(0),
            constants: vec![],
            n_globals: 0,
        };
        let err = Machine::new(&p, CostModel::unit()).run().unwrap_err();
        assert!(err.message.contains("uninitialized"));
    }

    #[test]
    fn fuel_exhaustion() {
        let f = VmFunc {
            id: FuncId(0),
            name: "entry".into(),
            code: vec![Instr::Jump { target: 0 }],
            frame_size: 0,
            n_incoming: 0,
            syntactic_leaf: true,
            call_inevitable: false,
        };
        let p = VmProgram {
            funcs: vec![f],
            entry: FuncId(0),
            constants: vec![],
            n_globals: 0,
        };
        let err = Machine::new(&p, CostModel::unit())
            .with_fuel(100)
            .run()
            .unwrap_err();
        assert!(err.message.contains("budget"));
    }

    #[test]
    fn globals_load_and_store() {
        let a0 = arg_reg(0);
        let f = VmFunc {
            id: FuncId(0),
            name: "entry".into(),
            code: vec![
                Instr::LoadImm {
                    dst: a0,
                    imm: Imm::Fixnum(41),
                },
                Instr::StoreGlobal { index: 1, src: a0 },
                Instr::LoadGlobal { dst: RV, index: 1 },
                Instr::Prim {
                    op: Prim::Add1,
                    dst: RV,
                    args: PrimArgs::from_slice(&[RV]),
                },
                Instr::Halt,
            ],
            frame_size: 0,
            n_incoming: 0,
            syntactic_leaf: true,
            call_inevitable: false,
        };
        let p = VmProgram {
            funcs: vec![f],
            entry: FuncId(0),
            constants: vec![],
            n_globals: 2,
        };
        let out = Machine::new(&p, CostModel::alpha_like()).run().unwrap();
        assert_eq!(out.value, "42");
        // Global traffic counts as heap operations with load latency.
        assert!(out.stats.heap_ops >= 2);
    }

    #[test]
    fn global_index_out_of_range_fails() {
        let f = VmFunc {
            id: FuncId(0),
            name: "entry".into(),
            code: vec![Instr::LoadGlobal { dst: RV, index: 5 }, Instr::Halt],
            frame_size: 0,
            n_incoming: 0,
            syntactic_leaf: true,
            call_inevitable: false,
        };
        let p = VmProgram {
            funcs: vec![f],
            entry: FuncId(0),
            constants: vec![],
            n_globals: 1,
        };
        let err = Machine::new(&p, CostModel::unit()).run().unwrap_err();
        assert!(err.message.contains("global"));
    }

    #[test]
    fn branch_prediction_penalties() {
        // Branch falls through on #t: no penalty with default
        // prediction; penalty when hinted the other way.
        let mk = |likely: Option<bool>| {
            let f = VmFunc {
                id: FuncId(0),
                name: "entry".into(),
                code: vec![
                    Instr::LoadImm {
                        dst: RV,
                        imm: Imm::Bool(true),
                    },
                    Instr::BranchFalse {
                        src: RV,
                        target: 3,
                        likely,
                    },
                    Instr::LoadImm {
                        dst: RV,
                        imm: Imm::Fixnum(1),
                    },
                    Instr::Halt,
                ],
                frame_size: 0,
                n_incoming: 0,
                syntactic_leaf: true,
                call_inevitable: false,
            };
            let p = VmProgram {
                funcs: vec![f],
                entry: FuncId(0),
                constants: vec![],
                n_globals: 0,
            };
            Machine::new(&p, CostModel::alpha_like())
                .run()
                .unwrap()
                .stats
        };
        assert_eq!(mk(None).mispredicts, 0);
        assert_eq!(mk(Some(true)).mispredicts, 0);
        assert_eq!(mk(Some(false)).mispredicts, 1);
    }

    /// A counting loop (acc = 3 + 2 + 1) whose exit path jumps past the
    /// first of two adjacent moves, so a jump landing mid-sequence must
    /// land exactly where the classic engine does.
    fn loop_program() -> VmProgram {
        let a0 = arg_reg(0);
        let a1 = arg_reg(1);
        let s0 = scratch_reg(0);
        let f = VmFunc {
            id: FuncId(0),
            name: "entry".into(),
            code: vec![
                // 0/1: counter = 3, acc = 0.
                Instr::LoadImm {
                    dst: a0,
                    imm: Imm::Fixnum(3),
                },
                Instr::LoadImm {
                    dst: a1,
                    imm: Imm::Fixnum(0),
                },
                // 2/3: loop exit test.
                Instr::Prim {
                    op: Prim::IsZero,
                    dst: s0,
                    args: PrimArgs::from_slice(&[a0]),
                },
                Instr::BranchTrue {
                    src: s0,
                    target: 7,
                    likely: Some(true),
                },
                // 4: acc += counter
                Instr::Prim {
                    op: Prim::Add,
                    dst: a1,
                    args: PrimArgs::from_slice(&[a1, a0]),
                },
                // 5: counter -= 1
                Instr::Prim {
                    op: Prim::Sub1,
                    dst: a0,
                    args: PrimArgs::from_slice(&[a0]),
                },
                // 6: back to the test.
                Instr::Jump { target: 2 },
                // 7/8: executed in full: rv <- s0 <- acc.
                Instr::Mov { dst: s0, src: a1 },
                Instr::Mov { dst: RV, src: s0 },
                // 9: skip the first move of the next two.
                Instr::Jump { target: 11 },
                // 10/11: entered mid-sequence via the jump — only
                // `s0 <- rv` runs; slot 10 never executes.
                Instr::Mov { dst: RV, src: a0 },
                Instr::Mov { dst: s0, src: RV },
                Instr::Halt,
            ],
            frame_size: 0,
            n_incoming: 0,
            syntactic_leaf: true,
            call_inevitable: false,
        };
        VmProgram {
            funcs: vec![f],
            entry: FuncId(0),
            constants: vec![],
            n_globals: 0,
        }
    }

    /// Every tiny test program must agree with the classic engine in
    /// values, stats, output, and error coordinates. The closure-call
    /// program alternates callees at one `call cp` site, then repeats
    /// one.
    #[test]
    fn classic_and_decoded_agree_on_hand_programs() {
        let programs = [
            tiny_program(),
            loop_program(),
            poly_call_program(&[0, 1, 0, 1, 0, 0, 0, 0, 0]),
            tail_entered_call_program(),
        ];
        for p in &programs {
            for cost in [CostModel::alpha_like(), CostModel::unit()] {
                let d = Machine::new(p, cost).with_poison(true).run().unwrap();
                let c = ClassicMachine::new(p, cost)
                    .with_poison(true)
                    .run()
                    .unwrap();
                assert_eq!(d.value, c.value);
                assert_eq!(d.output, c.output);
                assert_eq!(d.stats, c.stats);
            }
        }
    }

    /// The frame pointer a return restores comes from the activation
    /// that `call` pushed: `h`, entered by a tail call at fp 1, calls
    /// from its two-slot frame and then reads both slots back. Poisoned
    /// frames make a wrong fp fail instead of reading stale slots.
    #[test]
    fn return_restores_the_callers_frame_after_a_tail_call() {
        let p = tail_entered_call_program();
        assert_eq!(crate::verify_bytecode(&p), []);
        let d = Machine::new(&p, CostModel::alpha_like())
            .with_poison(true)
            .run()
            .unwrap();
        assert_eq!(d.value, "11");
        assert_eq!((d.stats.calls, d.stats.tail_calls), (3, 1));
    }

    /// `f` reads free slot 3 of a closure that has none, and `entry`
    /// backpatches slot 1 of a closure with one. The verifier cannot
    /// know which closure a register holds, so it accepts both; each
    /// engine must fail with the same located error, not panic.
    #[test]
    fn out_of_range_closure_slots_are_errors_in_both_engines() {
        let cases = [
            (
                closure_slot_program(false),
                "closure slot 3 out of range (the closure has 0)",
                ("f", 1),
            ),
            (
                closure_slot_program(true),
                "closure slot 1 out of range (the closure has 1)",
                ("entry", 2),
            ),
        ];
        for (p, message, (name, pc)) in cases {
            assert_eq!(crate::verify_bytecode(&p), []);
            let d = Machine::new(&p, CostModel::unit()).run().unwrap_err();
            let c = ClassicMachine::new(&p, CostModel::unit())
                .run()
                .unwrap_err();
            assert_eq!(d, c);
            assert_eq!(d.message, message);
            assert_eq!(d.at, Some((name.into(), pc)));
        }
    }

    /// With `set` false, `entry` calls a closure over `f` with no free
    /// slots and `f` loads free slot 3; with `set` true, `entry` sets
    /// free slot 1 of a one-slot closure.
    fn closure_slot_program(set: bool) -> VmProgram {
        let s0 = scratch_reg(0);
        let f = VmFunc {
            id: FuncId(0),
            name: "f".into(),
            code: vec![Instr::LoadFree { dst: RV, index: 3 }, Instr::Return],
            frame_size: 0,
            n_incoming: 0,
            syntactic_leaf: true,
            call_inevitable: false,
        };
        let code = if set {
            vec![
                Instr::AllocClosure {
                    dst: s0,
                    func: FuncId(0),
                    n_free: 1,
                },
                Instr::ClosureSlotSet {
                    clo: s0,
                    index: 1,
                    src: s0,
                },
                Instr::Halt,
            ]
        } else {
            vec![
                Instr::AllocClosure {
                    dst: CP,
                    func: FuncId(0),
                    n_free: 0,
                },
                Instr::Call {
                    target: CallTarget::ClosureCp,
                    frame_advance: 0,
                },
                Instr::Halt,
            ]
        };
        let entry = VmFunc {
            id: FuncId(1),
            name: "entry".into(),
            code,
            frame_size: 0,
            n_incoming: 0,
            syntactic_leaf: set,
            call_inevitable: !set,
        };
        VmProgram {
            funcs: vec![f, entry],
            entry: FuncId(1),
            constants: vec![],
            n_globals: 0,
        }
    }

    /// `entry` calls `main` (frame 1), which calls `g` at fp 1; `g`
    /// tail-calls `h` (frame 2), which saves `ret` and its argument 5,
    /// calls `leaf` (5 + 1) at fp 3, restores both from fp 1 and returns
    /// 6 + 5 = 11.
    fn tail_entered_call_program() -> VmProgram {
        let a0 = arg_reg(0);
        let func = |id: u32, name: &str, code: Vec<Instr>, frame_size: u32, leaf: bool| VmFunc {
            id: FuncId(id),
            name: name.into(),
            code,
            frame_size,
            n_incoming: 0,
            syntactic_leaf: leaf,
            call_inevitable: !leaf,
        };
        let save = |slot: u32, src: Reg| Instr::StackStore {
            slot,
            src,
            class: SlotClass::Save,
        };
        let restore = |dst: Reg, slot: u32| Instr::StackLoad {
            dst,
            slot,
            class: SlotClass::Save,
        };
        let call = |callee: u32, frame_advance: u32| Instr::Call {
            target: CallTarget::Func(FuncId(callee)),
            frame_advance,
        };
        let leaf = vec![
            Instr::Prim {
                op: Prim::Add1,
                dst: RV,
                args: PrimArgs::from_slice(&[a0]),
            },
            Instr::Return,
        ];
        let h = vec![
            save(0, RET),
            save(1, a0),
            call(0, 2),
            restore(RET, 0),
            restore(a0, 1),
            Instr::Prim {
                op: Prim::Add,
                dst: RV,
                args: PrimArgs::from_slice(&[RV, a0]),
            },
            Instr::Return,
        ];
        let g = vec![
            Instr::LoadImm {
                dst: a0,
                imm: Imm::Fixnum(5),
            },
            Instr::TailCall {
                target: CallTarget::Func(FuncId(1)),
            },
        ];
        let main = vec![save(0, RET), call(2, 1), restore(RET, 0), Instr::Return];
        VmProgram {
            funcs: vec![
                func(0, "leaf", leaf, 0, true),
                func(1, "h", h, 2, false),
                func(2, "g", g, 0, true),
                func(3, "main", main, 1, false),
                func(4, "entry", vec![call(3, 0), Instr::Halt], 0, false),
            ],
            entry: FuncId(4),
            constants: vec![],
            n_globals: 0,
        }
    }

    #[test]
    fn fuel_error_location_matches_classic() {
        // Budget runs out after the first instruction: both engines
        // must report pc 1.
        let p = loop_program();
        let d = Machine::new(&p, CostModel::unit())
            .with_fuel(1)
            .run()
            .unwrap_err();
        let c = ClassicMachine::new(&p, CostModel::unit())
            .with_fuel(1)
            .run()
            .unwrap_err();
        assert_eq!(d, c);
        assert_eq!(d.at, Some(("entry".into(), 1)));
        assert!(d.is_fuel_exhausted());
    }

    #[test]
    fn pc_out_of_range_matches_classic() {
        // Running off the end of a function is reported at the pc past
        // its last instruction, in both engines.
        let f = VmFunc {
            id: FuncId(0),
            name: "entry".into(),
            code: vec![Instr::LoadImm {
                dst: RV,
                imm: Imm::Fixnum(1),
            }],
            frame_size: 0,
            n_incoming: 0,
            syntactic_leaf: true,
            call_inevitable: false,
        };
        let p = VmProgram {
            funcs: vec![f],
            entry: FuncId(0),
            constants: vec![],
            n_globals: 0,
        };
        let d = Machine::new(&p, CostModel::unit()).run().unwrap_err();
        let c = ClassicMachine::new(&p, CostModel::unit())
            .run()
            .unwrap_err();
        assert_eq!(d, c);
        assert_eq!(d.at, Some(("entry".into(), 1)));
    }

    /// Hand-assembled closure-call harness: one closure-call site (in
    /// `callit`) executed once per `pattern` element, with the closure
    /// in `cp` selecting `leaf0` (0) or `leaf1` (1). The per-call
    /// callee sequence is exactly `pattern`.
    fn poly_call_program(pattern: &[usize]) -> VmProgram {
        let s0 = scratch_reg(0);
        let s1 = scratch_reg(1);
        let leaf = |id: u32, value: i64| VmFunc {
            id: FuncId(id),
            name: format!("leaf{id}"),
            code: vec![
                Instr::LoadImm {
                    dst: RV,
                    imm: Imm::Fixnum(value),
                },
                Instr::Return,
            ],
            frame_size: 0,
            n_incoming: 0,
            syntactic_leaf: true,
            call_inevitable: false,
        };
        // f2: the single closure-call site every iteration goes through.
        let callit = VmFunc {
            id: FuncId(2),
            name: "callit".into(),
            code: vec![
                Instr::StackStore {
                    slot: 0,
                    src: RET,
                    class: SlotClass::Save,
                },
                Instr::Call {
                    target: CallTarget::ClosureCp,
                    frame_advance: 1,
                },
                Instr::StackLoad {
                    dst: RET,
                    slot: 0,
                    class: SlotClass::Save,
                },
                Instr::Return,
            ],
            frame_size: 1,
            n_incoming: 0,
            syntactic_leaf: false,
            call_inevitable: true,
        };
        let mut code = vec![
            Instr::AllocClosure {
                dst: s0,
                func: FuncId(0),
                n_free: 0,
            },
            Instr::AllocClosure {
                dst: s1,
                func: FuncId(1),
                n_free: 0,
            },
        ];
        for &which in pattern {
            code.push(Instr::Mov {
                dst: CP,
                src: if which == 0 { s0 } else { s1 },
            });
            code.push(Instr::Call {
                target: CallTarget::Func(FuncId(2)),
                frame_advance: 0,
            });
        }
        code.push(Instr::Halt);
        let entry = VmFunc {
            id: FuncId(3),
            name: "entry".into(),
            code,
            frame_size: 0,
            n_incoming: 0,
            syntactic_leaf: false,
            call_inevitable: true,
        };
        VmProgram {
            funcs: vec![leaf(0, 10), leaf(1, 20), callit, entry],
            entry: FuncId(3),
            constants: vec![],
            n_globals: 0,
        }
    }
}
