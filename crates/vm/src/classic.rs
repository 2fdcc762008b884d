//! The reference engine.
//!
//! [`ClassicMachine`] runs the same dispatch loop as [`crate::Machine`]
//! over the same code, built without the fast paths: every primitive
//! goes through the shared evaluator and every operand, branch
//! conditions and `cp` call targets included, is cloned out of its
//! register. It is kept for two jobs:
//!
//! * **cross-checking**: differential tests run both engines and
//!   require byte-identical values, output, error messages and
//!   locations, and [`crate::RunStats`], so the fast paths must not
//!   change a single counted event;
//! * **measuring**: the bench suite's dispatch-throughput table times
//!   the two builds of the loop, which is exactly the fast-path
//!   ablation.
//!
//! Fetch, control flow and accounting are one code path in both, so the
//! fast paths are the only part this check can see.

use crate::exec::Dispatch;

/// The reference virtual machine: the dispatch loop without its fast
/// paths (see the module docs for why it is kept).
pub type ClassicMachine<'a> = Dispatch<'a, false>;
