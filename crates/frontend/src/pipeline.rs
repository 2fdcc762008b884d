//! Convenience drivers running the full frontend.
//!
//! Every driver is a thin wrapper over [`front_to_closed_observed`],
//! the instrumented pipeline that times each pass and counts AST sizes
//! into a [`lesgs_metrics::Registry`] (see OBSERVABILITY.md for the
//! instrument names). The plain entry points run the same code with a
//! discarding registry ([`Registry::discard`]), so they read no clock
//! and walk no tree just to count it.

use lesgs_metrics::Registry;
use lesgs_sexpr::read;

use crate::assignconv;
use crate::ast::Expr;
use crate::closure;
use crate::first_order::Program;
use crate::lift::LiftOptions;
use crate::names::{Interner, VarId};
use crate::program::SurfaceProgram;
use crate::rename::Renamer;
use crate::FrontError;

/// Runs the frontend through renaming and assignment conversion,
/// returning the assembled core expression and the interner.
///
/// # Errors
///
/// Returns [`FrontError`] on parse, desugar, or scoping failures.
///
/// # Examples
///
/// ```
/// use lesgs_frontend::pipeline::front_to_core;
/// let (expr, _names) = front_to_core("(+ 1 2)").unwrap();
/// assert_eq!(expr.to_string(), "(%+ 1 2)");
/// ```
pub fn front_to_core(src: &str) -> Result<(Expr<VarId>, Interner), FrontError> {
    let (e, i, _) = front_to_core_full(src)?;
    Ok((e, i))
}

/// Runs the frontend through renaming only: the core expression still
/// holds first-class `set!` (no assignment conversion), with its
/// interner and the number of global locations. The reference
/// interpreter evaluates this tree.
///
/// # Errors
///
/// Returns [`FrontError`] on parse, desugar, or scoping failures.
///
/// # Examples
///
/// ```
/// use lesgs_frontend::pipeline::front_to_renamed;
/// let (expr, _names, n_globals) = front_to_renamed("(define a 1) (set! a 2) a").unwrap();
/// assert_eq!(expr.to_string(), "(begin (global-set! 0 1) (global-set! 0 2) (global 0))");
/// assert_eq!(n_globals, 1);
/// ```
pub fn front_to_renamed(src: &str) -> Result<(Expr<VarId>, Interner, u32), FrontError> {
    renamed_observed(src, &mut Registry::discard())
}

/// Like [`front_to_core`], also returning the number of global
/// locations the program uses.
///
/// # Errors
///
/// Returns [`FrontError`] on parse, desugar, or scoping failures.
pub fn front_to_core_full(src: &str) -> Result<(Expr<VarId>, Interner, u32), FrontError> {
    front_to_core_observed(src, None, &mut Registry::discard())
}

/// Runs the full frontend, producing the closure-converted,
/// first-order program the allocator runs on.
///
/// # Errors
///
/// Returns [`FrontError`] on parse, desugar, or scoping failures.
///
/// # Examples
///
/// ```
/// use lesgs_frontend::pipeline::front_to_closed;
///
/// let program = front_to_closed("(define (f x) (+ x 1)) (f 1)").unwrap();
/// let f = program.funcs.iter().find(|f| f.name == "f").unwrap();
/// assert_eq!(f.n_params, 1);
/// assert_eq!(f.to_string(), "(define (f x0) (%+ x0 1))");
/// ```
pub fn front_to_closed(src: &str) -> Result<Program, FrontError> {
    front_to_closed_observed(src, None, &mut Registry::discard())
}

/// The instrumented frontend pipeline.
///
/// Each pass runs under a span recorded in `reg` (`pass.read`,
/// `pass.parse` for desugaring and prelude pruning, `pass.rename`,
/// `pass.assignconv`, `pass.lift` when lifting, `pass.closure` — each
/// as a `<name>.wall_ns` histogram), together
/// with the size counters `frontend.ast_nodes_in` (core AST after
/// renaming), `frontend.ast_nodes_out` (after assignment conversion
/// and lifting), and `frontend.funcs` (closure-converted functions).
///
/// # Errors
///
/// Returns [`FrontError`] on parse, desugar, or scoping failures.
pub fn front_to_closed_observed(
    src: &str,
    lift: Option<LiftOptions>,
    reg: &mut Registry,
) -> Result<Program, FrontError> {
    let (core, mut interner, n_globals) = front_to_core_observed(src, lift, reg)?;
    let closed = reg.time("pass.closure", || {
        closure::close_program(&core, &mut interner, n_globals)
    });
    reg.inc("frontend.funcs", closed.funcs.len() as u64);
    Ok(closed)
}

/// Reads, desugars and renames `src`. A variable's name stays lent
/// from `src` until the renamer copies each binding's into the
/// interner.
fn renamed_observed(
    src: &str,
    reg: &mut Registry,
) -> Result<(Expr<VarId>, Interner, u32), FrontError> {
    let forms = reg
        .time("pass.read", || read(src))
        .map_err(|e| FrontError::Parse(e.to_string()))?;
    let program = reg.time("pass.parse", || SurfaceProgram::from_forms(&forms))?;
    let (assembled, globals) = program.assemble();
    let mut renamer = Renamer::new();
    renamer.set_globals(&globals);
    let renamed = reg.time("pass.rename", || renamer.rename(&assembled))?;
    Ok((renamed, renamer.interner, globals.len() as u32))
}

fn front_to_core_observed(
    src: &str,
    lift: Option<LiftOptions>,
    reg: &mut Registry,
) -> Result<(Expr<VarId>, Interner, u32), FrontError> {
    let (mut converted, mut interner, n_globals) = renamed_observed(src, reg)?;
    if reg.is_recording() {
        reg.inc("frontend.ast_nodes_in", converted.size() as u64);
    }
    reg.time("pass.assignconv", || {
        assignconv::convert(&mut converted, &mut interner)
    });
    debug_assert!(assignconv::is_assignment_free(&converted));
    if let Some(options) = lift {
        reg.time("pass.lift", || {
            crate::lift::lift(&mut converted, &mut interner, options)
        });
    }
    if reg.is_recording() {
        reg.inc("frontend.ast_nodes_out", converted.size() as u64);
    }
    Ok((converted, interner, n_globals))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_smoke() {
        let p = front_to_closed(
            "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
             (fib 10)",
        )
        .unwrap();
        assert!(p.funcs.iter().any(|f| f.name == "fib"));
    }

    #[test]
    fn parse_error_propagates() {
        assert!(matches!(
            front_to_core("(unclosed"),
            Err(FrontError::Parse(_))
        ));
    }

    #[test]
    fn unbound_error_propagates() {
        assert!(matches!(
            front_to_core("(frobnicate 1)"),
            Err(FrontError::Rename(_))
        ));
    }

    #[test]
    fn prelude_functions_available() {
        let p = front_to_closed("(length (list 1 2 3))").unwrap();
        assert!(p.funcs.iter().any(|f| f.name == "length"));
    }

    #[test]
    fn observed_pipeline_records_passes_and_sizes() {
        let mut reg = Registry::new();
        let p = front_to_closed_observed("(define (f x) (+ x 1)) (f 41)", None, &mut reg).unwrap();
        assert!(p.funcs.iter().any(|f| f.name == "f"));
        for pass in [
            "pass.read",
            "pass.parse",
            "pass.rename",
            "pass.assignconv",
            "pass.closure",
        ] {
            let h = reg
                .histogram(&format!("{pass}.wall_ns"))
                .unwrap_or_else(|| panic!("missing {pass}"));
            assert_eq!(h.count, 1, "{pass}");
        }
        assert!(reg.counter("frontend.ast_nodes_in") > 0);
        assert!(reg.counter("frontend.ast_nodes_out") > 0);
        assert!(reg.counter("frontend.funcs") >= 2, "f + main");
        assert!(
            reg.histogram("pass.lift.wall_ns").is_none(),
            "no lifting requested"
        );
    }

    #[test]
    fn observed_matches_plain_pipeline() {
        let src = "(define (g x) (* x 3)) (g 5)";
        let plain = front_to_closed(src).unwrap();
        let observed = front_to_closed_observed(src, None, &mut Registry::new()).unwrap();
        assert_eq!(plain.funcs.len(), observed.funcs.len());
        assert_eq!(plain.n_globals, observed.n_globals);
    }
}
