//! An instrumented register-machine virtual machine.
//!
//! The VM stands in for the paper's Alpha 3000/600: it executes the
//! code produced by `lesgs-codegen` and counts exactly the events the
//! paper's evaluation measures — stack references (by kind: parameter,
//! save, restore, spill, temporary, outgoing argument), procedure
//! activations (classified as syntactic/effective leaves), and a cycle
//! count under a simple memory-latency cost model where loads complete
//! a few cycles after they issue and uses of not-yet-ready registers
//! stall. The latency model is what makes the eager-vs-lazy restore
//! trade-off of §2.2 observable.
//!
//! The VM executes the code codegen emits: each function's [`Instr`]s,
//! fetched by copy with function-relative pcs, through one dispatch
//! loop that owns the run's state, counts every event above, and bounds
//! the stack and the activation stack. The loop is built twice:
//! [`Machine`], with fast paths for the hottest primitives and for
//! peeking branch conditions and closure call targets in place, and the
//! reference [`ClassicMachine`] without them, which it is checked
//! against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classic;
pub mod cost;
pub mod exec;
pub mod instr;
mod machine;
mod prim;
pub mod program;
pub mod stats;
pub mod value;
pub mod verify;

pub use classic::ClassicMachine;
pub use cost::CostModel;
pub use exec::{DecodeStats, DecodedProgram, Dispatch, Machine, VmError, VmOutcome};
pub use instr::{CallTarget, Imm, Instr, PrimArgs, SlotClass};
pub use program::{VmFunc, VmProgram};
pub use stats::{ActivationClass, RunStats};
pub use value::Value;
pub use verify::{verify_bytecode, BytecodeError, BytecodeErrorKind};
