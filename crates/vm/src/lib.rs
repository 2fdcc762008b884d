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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classic;
pub mod cost;
pub mod decode;
pub mod exec;
pub mod instr;
mod prim;
pub mod program;
pub mod stats;
pub mod value;
pub mod verify;

pub use classic::ClassicMachine;
pub use cost::CostModel;
pub use decode::{DecodeStats, DecodedOp, DecodedProgram, FuncInfo, PrimArgs};
pub use exec::{Machine, VmError, VmOutcome};
pub use instr::{CallTarget, Imm, Instr, SlotClass};
pub use program::{VmFunc, VmProgram};
pub use stats::{ActivationClass, RunStats};
pub use value::Value;
pub use verify::{verify_bytecode, BytecodeError, BytecodeErrorKind};
