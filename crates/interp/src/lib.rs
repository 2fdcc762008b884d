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

use std::cell::Cell;

use lesgs_frontend::pipeline;

/// Stack size for interpreter evaluation threads. Non-tail
/// subexpression evaluation is natively recursive, so a generous
/// dedicated stack guarantees [`eval::MAX_EVAL_DEPTH`] nested
/// evaluations fit in every build profile (unoptimized frames are the
/// largest) — runaway recursion is then always cut off by the depth
/// guard as a reportable budget error, never by a native stack
/// overflow. The memory is virtual; only pages actually touched are
/// committed.
const INTERP_STACK_BYTES: usize = 64 * 1024 * 1024;

thread_local! {
    /// Set on threads whose stack is known to fit
    /// [`eval::MAX_EVAL_DEPTH`] nested evaluations, so evaluation runs
    /// inline instead of on a wide-stack thread of its own.
    static ON_WIDE_STACK: Cell<bool> = const { Cell::new(false) };
}

/// Declares that the current thread's stack is at least
/// [`wide_stack_bytes`] — typically because it was spawned with
/// exactly that `stack_size`. Subsequent [`run_source`] /
/// [`run_source_converted`] calls from this thread evaluate inline
/// with zero thread handoff; this is what a `lesgs-exec` pool passes
/// as its `worker_init` so a fuzz campaign's thousands of oracle
/// evaluations stop paying per-call thread spawn/teardown.
pub fn mark_wide_stack() {
    ON_WIDE_STACK.with(|flag| flag.set(true));
}

/// The stack size (bytes) a thread needs before [`mark_wide_stack`] is
/// truthful: enough for [`eval::MAX_EVAL_DEPTH`] nested non-tail
/// evaluations in every build profile.
pub fn wide_stack_bytes() -> usize {
    INTERP_STACK_BYTES
}

/// Runs `f` on a stack of at least [`wide_stack_bytes`]: inline when
/// the current thread is already marked ([`mark_wide_stack`]),
/// otherwise on a scoped wide-stack thread spawned for this call, which
/// `f` then finds marked. Panics propagate to the caller either way.
///
/// Every benchmark and campaign path evaluates on marked threads; only
/// one-shot callers (tests, `lesgsc interp` and `check`) pay the spawn.
pub fn on_wide_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    if ON_WIDE_STACK.with(Cell::get) {
        return f();
    }
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .name("lesgs-interp".to_owned())
            .stack_size(INTERP_STACK_BYTES)
            .spawn_scoped(s, || {
                mark_wide_stack();
                f()
            })
            .expect("spawn a wide-stack interpreter thread")
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

/// Parses, desugars, renames, and interprets `src` with the given step
/// budget. Evaluation happens on a wide stack ([`on_wide_stack`]), so
/// the recursion-depth budget, not the native stack, is the binding
/// limit.
///
/// # Errors
///
/// Returns an [`InterpError`] for frontend failures, runtime type
/// errors, calls to `error`, or budget exhaustion (steps or recursion
/// depth).
pub fn run_source(src: &str, fuel: u64) -> Result<Outcome, InterpError> {
    on_wide_stack(|| {
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
    })
}

/// Like [`run_source`] but reuses the full frontend driver, exercising
/// assignment conversion as well (the interpreter handles `unbox` and
/// friends natively).
///
/// # Errors
///
/// Same as [`run_source`].
pub fn run_source_converted(src: &str, fuel: u64) -> Result<Outcome, InterpError> {
    on_wide_stack(|| {
        let (core, _names, n_globals) =
            pipeline::front_to_core_full(src).map_err(|e| InterpError::new(e.to_string()))?;
        let mut interp = Interp::new(fuel).with_globals(n_globals);
        interp.run(&core)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_calls_from_an_unmarked_thread_complete() {
        // Each call from an ordinary thread evaluates on a wide-stack
        // thread of its own, joined before the call returns.
        for i in 0..200 {
            let out = run_source(&format!("(+ {i} 1)"), 1_000).unwrap();
            assert_eq!(out.value, (i + 1).to_string());
        }
    }

    #[test]
    fn marked_thread_evaluates_inline() {
        std::thread::Builder::new()
            .stack_size(wide_stack_bytes())
            .spawn(|| {
                mark_wide_stack();
                // Deep non-tail recursion close to the depth budget
                // must fit this thread's own stack (no handoff).
                let src = "(define (f n) (if (zero? n) 0 (+ 1 (f (- n 1))))) (f 3000)";
                let out = run_source(src, 10_000_000).unwrap();
                assert_eq!(out.value, "3000");
            })
            .unwrap()
            .join()
            .unwrap();
    }

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

    #[test]
    fn panics_propagate_to_the_caller() {
        for _ in 0..3 {
            let err =
                std::panic::catch_unwind(|| on_wide_stack(|| -> u32 { panic!("deliberate") }))
                    .unwrap_err();
            let msg = err
                .downcast_ref::<&str>()
                .copied()
                .map(str::to_owned)
                .or_else(|| err.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(msg.contains("deliberate"), "{msg}");
            // Evaluation still works after a panic.
            assert_eq!(run_source("42", 100).unwrap().value, "42");
        }
    }
}
