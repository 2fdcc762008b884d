//! Reference tree-walking interpreter for the lesgs mini-Scheme.
//!
//! The interpreter evaluates the *renamed* core AST directly (with
//! first-class `set!`, before assignment and closure conversion), so it
//! shares as little machinery as possible with the compiler pipeline.
//! Differential tests compare its answer and output against the
//! compiled VM under every allocator configuration.
//!
//! # Examples
//!
//! ```
//! use lesgs_interp::run_source;
//!
//! let outcome = run_source("(display (+ 40 2)) (* 6 7)", 1_000_000).unwrap();
//! assert_eq!(outcome.value, "42");
//! assert_eq!(outcome.output, "42");
//! ```

mod env;
mod eval;
mod value;

pub use env::Env;
pub use eval::{Interp, InterpError, InterpErrorKind, Outcome};
pub use value::Value;

/// Inert: does nothing. Evaluation no longer depends on the stack of
/// the thread it runs on, so there is nothing to declare. Kept only
/// because `perfbench/src/main.rs` still calls it; nothing in the
/// workspace does.
pub fn mark_wide_stack() {}

/// Inert: returns 64 MiB, the stack size interpreter threads once
/// needed, and nothing reads it to decide anything. Kept only because
/// `perfbench/src/main.rs` still sizes a thread with it; nothing in
/// the workspace calls it.
pub fn wide_stack_bytes() -> usize {
    64 * 1024 * 1024
}

/// Parses, desugars, renames, and interprets `src` with the given step
/// budget, on the calling thread.
///
/// Evaluation keeps its pending work on an explicit continuation
/// stack, and values are freed, compared and printed with worklists,
/// so neither deep recursion nor deeply nested values use the native
/// stack. The frontend passes still recurse once per level of program
/// nesting, as they do for the compiler.
///
/// # Errors
///
/// Returns an [`InterpError`] for frontend failures, runtime type
/// errors, calls to `error`, or budget exhaustion (steps or pending
/// non-tail evaluations).
pub fn run_source(src: &str, fuel: u64) -> Result<Outcome, InterpError> {
    let program = lesgs_frontend::program::SurfaceProgram::from_source(src)
        .map_err(|e| InterpError::new(e.to_string()))?;
    let (assembled, globals) = program.assemble();
    let mut renamer = lesgs_frontend::rename::Renamer::new();
    renamer.set_globals(&globals);
    let renamed = renamer
        .rename(&assembled)
        .map_err(|e| InterpError::new(e.to_string()))?;
    let mut interp = Interp::new(fuel).with_globals(globals.len() as u32);
    interp.run(&renamed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_budget_still_reports_as_fuel_exhaustion() {
        let e = run_source("(define (f) (+ (f) 0)) (f)", u64::MAX).unwrap_err();
        assert!(e.is_fuel_exhausted(), "{e}");
        assert!(e.message.contains("recursion too deep"), "{e}");
    }

    #[test]
    fn concurrent_callers_all_complete() {
        std::thread::scope(|s| {
            for i in 0..8u64 {
                s.spawn(move || {
                    let out = run_source(&format!("(* {i} {i})"), 10_000).unwrap();
                    assert_eq!(out.value, (i * i).to_string());
                });
            }
        });
    }
}
