//! The stack and the activation stack are bounded.
//!
//! Growing either without bound ends in an allocation failure, which
//! aborts the whole process: a one-worker service runs its jobs on the
//! calling thread, so one such request would take the service down.
//! Past its bound each stack fails the run with the same located
//! `VmError` in both engines. Each program runs on a thread with an
//! explicit 2 MiB stack, the size of an ordinary spawned thread.

use lesgs_frontend::FuncId;
use lesgs_vm::{CallTarget, ClassicMachine, CostModel, Instr, Machine, VmError, VmFunc, VmProgram};

const STACK_BYTES: usize = 2 * 1024 * 1024;

/// The bound on either stack (2^24 slots, 2^24 activations).
const BOUND: u64 = 1 << 24;

/// A one-function program: `entry` with the given frame and code.
fn entry_only(frame_size: u32, code: Vec<Instr>) -> VmProgram {
    VmProgram {
        funcs: vec![VmFunc {
            id: FuncId(0),
            name: "entry".into(),
            code,
            frame_size,
            n_incoming: 0,
            syntactic_leaf: false,
            call_inevitable: true,
        }],
        entry: FuncId(0),
        constants: vec![],
        n_globals: 0,
    }
}

/// Runs `program` through both engines on a 2 MiB thread, poisoned and
/// with the given budget; both must fail with the same error, which is
/// returned.
fn both_fail(program: VmProgram, fuel: u64) -> VmError {
    std::thread::Builder::new()
        .stack_size(STACK_BYTES)
        .spawn(move || {
            let cost = CostModel::unit();
            let fast = Machine::new(&program, cost)
                .with_poison(true)
                .with_fuel(fuel)
                .run()
                .expect_err("the fast engine overflows");
            let classic = ClassicMachine::new(&program, cost)
                .with_poison(true)
                .with_fuel(fuel)
                .run()
                .expect_err("the classic engine overflows");
            assert_eq!(fast, classic);
            fast
        })
        .expect("spawn a 2 MiB thread")
        .join()
        .expect("the run does not panic")
}

/// A frame of `u32::MAX` slots is past the stack's bound: poisoning it
/// would allocate 64 GiB.
#[test]
fn a_frame_past_the_stack_bound_is_a_vm_error() {
    let e = both_fail(entry_only(u32::MAX, vec![Instr::Halt]), 100);
    assert_eq!(e.message, "stack overflow: more than 16777216 stack slots");
    assert_eq!(e.at, Some(("entry".into(), 0)));
}

/// A self-call that advances no frame grows only the activation
/// stack; it fails at the activation bound, before a budget a little
/// above it runs out.
#[test]
fn a_call_past_the_activation_bound_is_a_vm_error() {
    let self_call = Instr::Call {
        target: CallTarget::Func(FuncId(0)),
        frame_advance: 0,
    };
    let e = both_fail(entry_only(0, vec![self_call, Instr::Halt]), BOUND + 16);
    assert_eq!(e.message, "stack overflow: more than 16777216 activations");
    assert_eq!(e.at, Some(("entry".into(), 1)));
}
