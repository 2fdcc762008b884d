//! The core abstract syntax shared by all frontend passes.
//!
//! [`Expr`] is generic over the variable representation `V`: the
//! desugarer produces `Expr<String>` (source names) and the renamer
//! produces `Expr<VarId>` (unique ids). Primitive applications only
//! appear after renaming.

use std::fmt;

use lesgs_sexpr::Datum;

use crate::prim::Prim;

/// A self-evaluating constant.
#[derive(Debug, Clone, PartialEq)]
pub enum Const {
    /// An integer.
    Fixnum(i64),
    /// `#t` / `#f`.
    Bool(bool),
    /// A character.
    Char(char),
    /// A string literal.
    Str(String),
    /// The empty list `'()`.
    Nil,
    /// The unspecified value.
    Void,
    /// A quoted symbol.
    Symbol(String),
    /// Quoted structured data (lists and vectors), built once at
    /// program start and shared.
    Datum(Datum),
}

impl Const {
    /// The boolean interpretation: everything except `#f` is true.
    pub fn is_truthy(&self) -> bool {
        !matches!(self, Const::Bool(false))
    }
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Const::Fixnum(n) => write!(f, "{n}"),
            Const::Bool(true) => write!(f, "#t"),
            Const::Bool(false) => write!(f, "#f"),
            Const::Char(c) => write!(f, "{}", Datum::Char(*c)),
            Const::Str(s) => write!(f, "{}", Datum::Str(s.clone())),
            Const::Nil => write!(f, "'()"),
            Const::Void => write!(f, "#<void>"),
            Const::Symbol(s) => write!(f, "'{s}"),
            Const::Datum(d) => write!(f, "'{d}"),
        }
    }
}

/// A lambda abstraction with fixed arity.
#[derive(Debug, Clone, PartialEq)]
pub struct Lambda<V> {
    /// Formal parameters, left to right.
    pub params: Vec<V>,
    /// The body (a single expression after desugaring).
    pub body: Box<Expr<V>>,
    /// Source name when the lambda came from a `define` or a named
    /// binding; used for diagnostics and activation statistics.
    pub name: Option<String>,
}

/// A core-language expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr<V> {
    /// A constant.
    Const(Const),
    /// A variable reference.
    Var(V),
    /// A top-level global location (value defines live here, not in
    /// closures — mirroring Chez's global cells).
    Global(u32),
    /// An assignment; eliminated by assignment conversion.
    Set(V, Box<Expr<V>>),
    /// Assignment to a global location (initialization and `set!` of
    /// top-level defines).
    GlobalSet(u32, Box<Expr<V>>),
    /// `(if c t e)`.
    If(Box<Expr<V>>, Box<Expr<V>>, Box<Expr<V>>),
    /// `(begin e ...)`, at least one subexpression.
    Seq(Vec<Expr<V>>),
    /// An anonymous procedure.
    Lambda(Lambda<V>),
    /// Parallel `let`.
    Let(Vec<(V, Expr<V>)>, Box<Expr<V>>),
    /// `letrec` restricted to lambda right-hand sides, enabling direct
    /// calls to local recursive procedures.
    Letrec(Vec<(V, Lambda<V>)>, Box<Expr<V>>),
    /// A procedure call.
    App(Box<Expr<V>>, Vec<Expr<V>>),
    /// A fully-resolved primitive application (post-rename only).
    PrimApp(Prim, Vec<Expr<V>>),
}

impl<V> Expr<V> {
    /// Wraps `exprs` in a `Seq`, collapsing the single-element case.
    ///
    /// # Panics
    ///
    /// Panics if `exprs` is empty.
    pub fn seq(mut exprs: Vec<Expr<V>>) -> Expr<V> {
        assert!(!exprs.is_empty(), "Seq requires at least one expression");
        if exprs.len() == 1 {
            exprs.pop().expect("one element")
        } else {
            Expr::Seq(exprs)
        }
    }

    /// Counts AST nodes (used in tests and statistics).
    pub fn size(&self) -> usize {
        let children: usize = match self {
            Expr::Const(_) | Expr::Var(_) | Expr::Global(_) => 0,
            Expr::Set(_, e) | Expr::GlobalSet(_, e) => e.size(),
            Expr::If(c, t, e) => c.size() + t.size() + e.size(),
            Expr::Seq(es) => es.iter().map(Expr::size).sum(),
            Expr::Lambda(l) => l.body.size(),
            Expr::Let(bs, b) => bs.iter().map(|(_, e)| e.size()).sum::<usize>() + b.size(),
            Expr::Letrec(bs, b) => bs.iter().map(|(_, l)| l.body.size()).sum::<usize>() + b.size(),
            Expr::App(f, args) => f.size() + args.iter().map(Expr::size).sum::<usize>(),
            Expr::PrimApp(_, args) => args.iter().map(Expr::size).sum(),
        };
        children + 1
    }
}

fn fmt_lambda<V: fmt::Display>(l: &Lambda<V>, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "(lambda (")?;
    for (i, p) in l.params.iter().enumerate() {
        if i > 0 {
            write!(f, " ")?;
        }
        write!(f, "{p}")?;
    }
    write!(f, ") {})", l.body)
}

impl<V: fmt::Display> fmt::Display for Expr<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Var(v) => write!(f, "{v}"),
            Expr::Global(g) => write!(f, "(global {g})"),
            Expr::Set(v, e) => write!(f, "(set! {v} {e})"),
            Expr::GlobalSet(g, e) => write!(f, "(global-set! {g} {e})"),
            Expr::If(c, t, e) => write!(f, "(if {c} {t} {e})"),
            Expr::Seq(es) => {
                write!(f, "(begin")?;
                for e in es {
                    write!(f, " {e}")?;
                }
                write!(f, ")")
            }
            Expr::Lambda(l) => fmt_lambda(l, f),
            Expr::Let(bs, b) => {
                write!(f, "(let (")?;
                for (i, (v, e)) in bs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "({v} {e})")?;
                }
                write!(f, ") {b})")
            }
            Expr::Letrec(bs, b) => {
                write!(f, "(letrec (")?;
                for (i, (v, l)) in bs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "({v} ")?;
                    fmt_lambda(l, f)?;
                    write!(f, ")")?;
                }
                write!(f, ") {b})")
            }
            Expr::App(head, args) => {
                write!(f, "({head}")?;
                for a in args {
                    write!(f, " {a}")?;
                }
                write!(f, ")")
            }
            Expr::PrimApp(p, args) => {
                write!(f, "(%{p}")?;
                for a in args {
                    write!(f, " {a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(name: &str) -> Expr<String> {
        Expr::Var(name.to_owned())
    }

    #[test]
    fn seq_collapses_singletons() {
        let e = Expr::<String>::seq(vec![var("x")]);
        assert_eq!(e, var("x"));
        let e = Expr::<String>::seq(vec![var("x"), var("y")]);
        assert!(matches!(e, Expr::Seq(_)));
    }

    #[test]
    #[should_panic(expected = "at least one expression")]
    fn seq_rejects_empty() {
        let _ = Expr::<String>::seq(vec![]);
    }

    #[test]
    fn display_forms() {
        let e: Expr<String> = Expr::If(
            Box::new(var("a")),
            Box::new(Expr::Const(Const::Fixnum(1))),
            Box::new(Expr::PrimApp(Prim::Add, vec![var("b"), var("c")])),
        );
        assert_eq!(e.to_string(), "(if a 1 (%+ b c))");
    }

    #[test]
    fn size_counts_nodes() {
        let e: Expr<String> = Expr::App(
            Box::new(var("f")),
            vec![var("x"), Expr::Const(Const::Fixnum(1))],
        );
        assert_eq!(e.size(), 4);
    }

    #[test]
    fn const_truthiness() {
        assert!(Const::Fixnum(0).is_truthy());
        assert!(Const::Bool(true).is_truthy());
        assert!(!Const::Bool(false).is_truthy());
        assert!(Const::Nil.is_truthy());
    }
}
