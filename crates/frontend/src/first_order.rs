//! The first-order expression language the allocator operates on.
//!
//! This is the paper's simplified language (§2) grown to a full
//! compiler IR: trivials, `seq`, `if`, and calls, plus `let` bindings,
//! primitive applications, and explicit closure construction. Lambdas
//! are gone — every function is a top-level [`Func`] and variables are
//! dense per-function [`LocalId`]s. [`closure`](crate::closure)
//! conversion builds it directly.

use std::fmt;

use crate::ast::Const;
use crate::prim::Prim;

/// Identifies a first-order function in a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

impl FuncId {
    /// Index into [`Program::funcs`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// A per-function variable index. Parameters occupy `0..n_params`;
/// `let`-bound variables follow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LocalId(pub u32);

impl LocalId {
    /// Index into per-function side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LocalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// How a call site reaches its target.
#[derive(Debug, Clone, PartialEq)]
pub enum Callee {
    /// A known function with no closure: a plain jump/call to a label.
    Direct(FuncId),
    /// A known function whose closure (for its free variables) is the
    /// given expression; the code label is still static.
    KnownClosure(FuncId, Box<Expr>),
    /// An unknown procedure value; both code and environment come from
    /// the closure object.
    Computed(Box<Expr>),
}

impl Callee {
    /// The closure expression, if this callee carries one.
    pub fn closure_expr(&self) -> Option<&Expr> {
        match self {
            Callee::Direct(_) => None,
            Callee::KnownClosure(_, e) | Callee::Computed(e) => Some(e),
        }
    }
}

/// An IR expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A constant.
    Const(Const),
    /// A parameter or `let`-bound variable.
    Var(LocalId),
    /// The `i`-th captured value, read through the closure pointer.
    FreeRef(u32),
    /// A top-level global location (a memory read, not a register).
    Global(u32),
    /// Assignment to a global location.
    GlobalSet(u32, Box<Expr>),
    /// Two-way conditional.
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Sequencing (non-empty).
    Seq(Vec<Expr>),
    /// A single binding.
    Let {
        /// Bound variable.
        var: LocalId,
        /// Its value.
        rhs: Box<Expr>,
        /// Scope of the binding.
        body: Box<Expr>,
    },
    /// A primitive application.
    PrimApp(Prim, Vec<Expr>),
    /// A procedure call; `tail` calls are jumps, not calls (§2 fn 1).
    Call {
        /// Call target.
        callee: Callee,
        /// Unordered argument expressions (the shuffler picks the
        /// evaluation order).
        args: Vec<Expr>,
        /// Tail-position flag.
        tail: bool,
    },
    /// Heap-allocates a closure.
    MakeClosure {
        /// Code pointer.
        func: FuncId,
        /// Captured values in free-list order.
        free: Vec<Expr>,
    },
    /// Backpatches a closure slot (recursive closure groups).
    ClosureSet {
        /// The closure to patch.
        clo: Box<Expr>,
        /// Slot index.
        index: u32,
        /// New slot value.
        value: Box<Expr>,
    },
}

impl Expr {
    /// Visits every direct subexpression.
    pub fn for_each_child<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        match self {
            Expr::Const(_) | Expr::Var(_) | Expr::FreeRef(_) | Expr::Global(_) => {}
            Expr::GlobalSet(_, rhs) => f(rhs),
            Expr::If(c, t, e) => {
                f(c);
                f(t);
                f(e);
            }
            Expr::Seq(es) => es.iter().for_each(f),
            Expr::Let { rhs, body, .. } => {
                f(rhs);
                f(body);
            }
            Expr::PrimApp(_, args) => args.iter().for_each(f),
            Expr::Call { callee, args, .. } => {
                if let Some(e) = callee.closure_expr() {
                    f(e);
                }
                args.iter().for_each(f);
            }
            Expr::MakeClosure { free, .. } => free.iter().for_each(f),
            Expr::ClosureSet { clo, value, .. } => {
                f(clo);
                f(value);
            }
        }
    }

    /// True if the subtree contains a non-tail call. Tail calls do not
    /// count: "Because tail calls in Scheme are essentially jumps, they
    /// are not considered calls" (§2 footnote 1).
    pub fn contains_call(&self) -> bool {
        if let Expr::Call { tail: false, .. } = self {
            return true;
        }
        let mut found = false;
        self.for_each_child(&mut |c| found = found || c.contains_call());
        found
    }

    /// Counts non-tail call sites in the subtree.
    pub fn count_calls(&self) -> usize {
        let mut n = usize::from(matches!(self, Expr::Call { tail: false, .. }));
        self.for_each_child(&mut |c| n += c.count_calls());
        n
    }

    /// Counts AST nodes.
    pub fn size(&self) -> usize {
        let mut n = 1;
        self.for_each_child(&mut |c| n += c.size());
        n
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Var(v) => write!(f, "{v}"),
            Expr::FreeRef(i) => write!(f, "(free {i})"),
            Expr::Global(g) => write!(f, "(global {g})"),
            Expr::GlobalSet(g, rhs) => write!(f, "(global-set! {g} {rhs})"),
            Expr::If(c, t, e) => write!(f, "(if {c} {t} {e})"),
            Expr::Seq(es) => {
                write!(f, "(seq")?;
                for e in es {
                    write!(f, " {e}")?;
                }
                write!(f, ")")
            }
            Expr::Let { var, rhs, body } => {
                write!(f, "(let (({var} {rhs})) {body})")
            }
            Expr::PrimApp(p, args) => {
                write!(f, "(%{p}")?;
                for a in args {
                    write!(f, " {a}")?;
                }
                write!(f, ")")
            }
            Expr::Call { callee, args, tail } => {
                write!(f, "({}", if *tail { "tailcall" } else { "call" })?;
                match callee {
                    Callee::Direct(id) => write!(f, " {id}")?,
                    Callee::KnownClosure(id, e) => write!(f, " {id}[{e}]")?,
                    Callee::Computed(e) => write!(f, " [{e}]")?,
                }
                for a in args {
                    write!(f, " {a}")?;
                }
                write!(f, ")")
            }
            Expr::MakeClosure { func, free } => {
                write!(f, "(closure {func}")?;
                for e in free {
                    write!(f, " {e}")?;
                }
                write!(f, ")")
            }
            Expr::ClosureSet { clo, index, value } => {
                write!(f, "(closure-set! {clo} {index} {value})")
            }
        }
    }
}

/// A first-order function in the IR.
#[derive(Debug, Clone)]
pub struct Func {
    /// Function id (index into [`Program::funcs`]).
    pub id: FuncId,
    /// Diagnostic name.
    pub name: String,
    /// Number of parameters (locals `0..n_params`).
    pub n_params: usize,
    /// Total number of locals including parameters.
    pub n_locals: usize,
    /// Number of captured values.
    pub n_free: usize,
    /// The body.
    pub body: Expr,
}

impl Func {
    /// True if the function body contains no non-tail calls — a
    /// *syntactic leaf* routine in the paper's terminology.
    pub fn is_syntactic_leaf(&self) -> bool {
        !self.body.contains_call()
    }

    /// Parameter locals.
    pub fn params(&self) -> impl Iterator<Item = LocalId> {
        (0..self.n_params as u32).map(LocalId)
    }
}

impl fmt::Display for Func {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(define ({}", self.name)?;
        for p in self.params() {
            write!(f, " {p}")?;
        }
        write!(f, ") {})", self.body)
    }
}

/// A whole IR program.
#[derive(Debug, Clone)]
pub struct Program {
    /// All functions; `FuncId(i)` is `funcs[i]`.
    pub funcs: Vec<Func>,
    /// Entry function.
    pub main: FuncId,
    /// Number of top-level global locations.
    pub n_globals: u32,
}

impl Program {
    /// Looks up a function.
    pub fn func(&self, id: FuncId) -> &Func {
        &self.funcs[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(tail: bool) -> Expr {
        Expr::Call {
            callee: Callee::Direct(FuncId(0)),
            args: vec![],
            tail,
        }
    }

    #[test]
    fn contains_call_ignores_tail_calls() {
        assert!(!call(true).contains_call());
        assert!(call(false).contains_call());
        let e = Expr::Seq(vec![Expr::Var(LocalId(0)), call(true)]);
        assert!(!e.contains_call());
        let e = Expr::If(
            Box::new(Expr::Var(LocalId(0))),
            Box::new(call(false)),
            Box::new(call(true)),
        );
        assert!(e.contains_call());
        assert_eq!(e.count_calls(), 1);
    }

    #[test]
    fn callee_in_computed_position_is_searched() {
        let e = Expr::Call {
            callee: Callee::Computed(Box::new(call(false))),
            args: vec![],
            tail: true,
        };
        assert!(e.contains_call());
    }

    #[test]
    fn display_smoke() {
        let e = Expr::Let {
            var: LocalId(1),
            rhs: Box::new(Expr::Const(Const::Fixnum(1))),
            body: Box::new(Expr::Var(LocalId(1))),
        };
        assert_eq!(e.to_string(), "(let ((x1 1)) x1)");
    }

    #[test]
    fn size_counts() {
        let e = Expr::Seq(vec![Expr::Var(LocalId(0)), call(false)]);
        assert_eq!(e.size(), 3);
    }
}
