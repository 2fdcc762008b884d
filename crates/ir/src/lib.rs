//! Compiler IR for the lesgs register allocator.
//!
//! This crate defines:
//!
//! * [`machine`] — the abstract register machine the allocator targets:
//!   a return-address register, a closure-pointer register, a return
//!   value register, scratch registers for local (code-generator)
//!   allocation, and up to six argument registers, mirroring §3 of the
//!   paper ("two of these are used for the return address and closure
//!   pointer; the first `c` actual parameters are passed via these
//!   registers").
//! * [`regset`] — register sets as n-bit integers ("Liveness
//!   information is collected using a bit vector for the registers,
//!   implemented as an n-bit integer", §3).
//! * [`fold`] — constant folding and branch pruning.
//!
//! It re-exports the first-order expression language the allocator
//! runs on ([`Expr`], [`Func`], [`Program`]), which closure conversion
//! in [`lesgs_frontend::closure`] builds directly.

pub mod fold;
pub mod machine;
pub mod regset;

pub use lesgs_frontend::first_order::{Callee, Expr, Func, LocalId, Program};
pub use machine::{MachineConfig, Reg};
pub use regset::RegSet;

/// Returns a copy of the closure-converted program `p`.
///
/// Closure conversion already builds the allocator's IR, so there is
/// nothing left to lower. The function stays only because the
/// benchmark under `perfbench/` still calls it; it goes at the next
/// benchmark change.
pub fn lower_program(p: &Program) -> Program {
    p.clone()
}
