//! Mini-Scheme frontend for the lesgs compiler.
//!
//! The frontend turns parsed S-expressions into progressively more
//! explicit representations:
//!
//! 1. [`desugar`] expands derived forms (`let*`, named `let`, `cond`,
//!    `and`, `or`, `when`, `unless`, `do`, `list`, `vector`, …) into the
//!    small core language of [`ast::Expr`].
//! 2. [`rename`] alpha-renames every binding to a unique [`VarId`],
//!    resolves primitive names, and assembles top-level `define`s into a
//!    single expression.
//! 3. [`assignconv`] performs the assignment conversion the paper
//!    assumes ("we assume that assignment conversion has already been
//!    done, so there are no assignment expressions", §2) by boxing
//!    mutable variables.
//! 4. [`closure`] computes free variables and closure-converts the
//!    program into the allocator's [`first_order`] IR: a set of
//!    top-level functions whose variables are dense per-function
//!    [`LocalId`](first_order::LocalId)s.
//!
//! # Examples
//!
//! ```
//! use lesgs_frontend::pipeline;
//!
//! let program = pipeline::front_to_closed(
//!     "(define (double x) (+ x x)) (double 21)",
//! ).unwrap();
//! assert!(program.funcs.len() >= 2); // `double` + main
//! ```

pub mod assignconv;
pub mod ast;
pub mod closure;
pub mod desugar;
pub mod first_order;
pub mod lift;
pub mod names;
pub mod pipeline;
pub mod prim;
pub mod print;
pub mod program;
pub mod rename;
pub mod value;

pub use ast::{Const, Expr, Lambda, DATUM_MAX_DEPTH};
pub use desugar::DesugarError;
pub use first_order::FuncId;
pub use names::{Interner, VarId};
pub use prim::{make_vector, FixnumError, FixnumValue, Prim, PrimArity};
pub use rename::RenameError;

/// Any error the frontend can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum FrontError {
    /// Reader-level failure.
    Parse(String),
    /// Structural failure while expanding derived forms.
    Desugar(DesugarError),
    /// Scoping failure (unbound variable, bad `define` placement, …).
    Rename(RenameError),
}

impl std::fmt::Display for FrontError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrontError::Parse(m) => write!(f, "{m}"),
            FrontError::Desugar(e) => write!(f, "{e}"),
            FrontError::Rename(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FrontError {}

impl From<DesugarError> for FrontError {
    fn from(e: DesugarError) -> Self {
        FrontError::Desugar(e)
    }
}

impl From<RenameError> for FrontError {
    fn from(e: RenameError) -> Self {
        FrontError::Rename(e)
    }
}
