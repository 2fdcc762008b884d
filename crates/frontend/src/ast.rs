//! The core abstract syntax shared by all frontend passes.
//!
//! [`Expr`] is generic over the variable representation `V`: the
//! desugarer produces `Expr<&str>` (names lent from the program text)
//! and the renamer produces `Expr<VarId>` (unique ids). Primitive
//! applications only appear after renaming.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;

use lesgs_sexpr::Datum;

use crate::names::{FxBuildHasher, VarId};
use crate::prim::Prim;

/// A variable representation whose sets an analysis can hash.
pub trait Variable {
    /// The hasher for sets of these variables: std's seeded hasher for
    /// source names, which come from untrusted text, and
    /// [`FxBuildHasher`] for the identifiers the renamer hands out.
    type Hasher: BuildHasher + Default;
}

impl Variable for &str {
    type Hasher = RandomState;
}

impl Variable for VarId {
    type Hasher = FxBuildHasher;
}

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
            Const::Char(c) => write!(f, "{}", Datum::<&str>::Char(*c)),
            Const::Str(s) => write!(f, "{}", Datum::<&str>::Str(s.clone())),
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

    /// Calls `f` on each direct subexpression, in evaluation order: the
    /// right-hand side of `Set`/`GlobalSet`; `If` test, then, else;
    /// `Seq` elements; a `Lambda` body; `Let` right-hand sides, then the
    /// body; `Letrec` lambda bodies, then the body; the `App` operator,
    /// then its arguments; `PrimApp` arguments.
    ///
    /// Structural walkers recurse through this (or
    /// [`for_each_child_mut`](Expr::for_each_child_mut)) and match only
    /// the variants they act on. Passes that number what they meet —
    /// assignment conversion's fresh cell names — depend on the order.
    pub fn for_each_child<'a>(&'a self, f: &mut dyn FnMut(&'a Expr<V>)) {
        match self {
            Expr::Const(_) | Expr::Var(_) | Expr::Global(_) => {}
            Expr::Set(_, e) | Expr::GlobalSet(_, e) => f(e),
            Expr::If(c, t, e) => {
                f(c);
                f(t);
                f(e);
            }
            Expr::Seq(es) | Expr::PrimApp(_, es) => es.iter().for_each(f),
            Expr::Lambda(l) => f(&l.body),
            Expr::Let(bs, b) => {
                bs.iter().for_each(|(_, e)| f(e));
                f(b);
            }
            Expr::Letrec(bs, b) => {
                bs.iter().for_each(|(_, l)| f(&l.body));
                f(b);
            }
            Expr::App(head, args) => {
                f(head);
                args.iter().for_each(f);
            }
        }
    }

    /// [`for_each_child`](Expr::for_each_child) with mutable access, in
    /// the same order.
    pub fn for_each_child_mut(&mut self, f: &mut dyn FnMut(&mut Expr<V>)) {
        match self {
            Expr::Const(_) | Expr::Var(_) | Expr::Global(_) => {}
            Expr::Set(_, e) | Expr::GlobalSet(_, e) => f(e),
            Expr::If(c, t, e) => {
                f(c);
                f(t);
                f(e);
            }
            Expr::Seq(es) | Expr::PrimApp(_, es) => es.iter_mut().for_each(f),
            Expr::Lambda(l) => f(&mut l.body),
            Expr::Let(bs, b) => {
                bs.iter_mut().for_each(|(_, e)| f(e));
                f(b);
            }
            Expr::Letrec(bs, b) => {
                bs.iter_mut().for_each(|(_, l)| f(&mut l.body));
                f(b);
            }
            Expr::App(head, args) => {
                f(head);
                args.iter_mut().for_each(f);
            }
        }
    }

    /// Counts AST nodes (used in tests and statistics).
    pub fn size(&self) -> usize {
        let mut n = 1;
        self.for_each_child(&mut |c| n += c.size());
        n
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

    /// A surface tree over static names.
    type E = Expr<&'static str>;

    fn var(name: &'static str) -> E {
        Expr::Var(name)
    }

    #[test]
    fn seq_collapses_singletons() {
        let e = E::seq(vec![var("x")]);
        assert_eq!(e, var("x"));
        let e = E::seq(vec![var("x"), var("y")]);
        assert!(matches!(e, Expr::Seq(_)));
    }

    #[test]
    #[should_panic(expected = "at least one expression")]
    fn seq_rejects_empty() {
        let _ = E::seq(vec![]);
    }

    #[test]
    fn display_forms() {
        let e: E = Expr::If(
            Box::new(var("a")),
            Box::new(Expr::Const(Const::Fixnum(1))),
            Box::new(Expr::PrimApp(Prim::Add, vec![var("b"), var("c")])),
        );
        assert_eq!(e.to_string(), "(if a 1 (%+ b c))");
    }

    #[test]
    fn size_counts_nodes() {
        let e: E = Expr::App(
            Box::new(var("f")),
            vec![var("x"), Expr::Const(Const::Fixnum(1))],
        );
        assert_eq!(e.size(), 4);
    }

    /// One tree holding every variant, its `Fixnum` leaves numbered in
    /// the documented child order.
    fn every_variant() -> E {
        let mut next = -1;
        let mut leaf = || {
            next += 1;
            Box::new(Expr::Const(Const::Fixnum(next)))
        };
        let lambda = |body| Lambda {
            params: vec!["p"],
            body,
            name: None,
        };
        Expr::Seq(vec![
            Expr::Set("x", leaf()),
            Expr::GlobalSet(0, leaf()),
            Expr::If(leaf(), leaf(), leaf()),
            Expr::Lambda(lambda(leaf())),
            Expr::Let(vec![("a", *leaf()), ("b", *leaf())], leaf()),
            Expr::Letrec(vec![("f", lambda(leaf())), ("g", lambda(leaf()))], leaf()),
            Expr::App(leaf(), vec![*leaf(), *leaf()]),
            Expr::PrimApp(Prim::Add, vec![*leaf(), *leaf()]),
            var("x"),
            Expr::Global(0),
        ])
    }

    #[test]
    fn mutable_traversal_reaches_the_same_children_in_order() {
        fn reached_mut(e: &mut E, out: &mut Vec<*const E>) {
            e.for_each_child_mut(&mut |c| {
                out.push(c);
                reached_mut(c, out);
            });
        }
        fn reached<'a>(e: &'a E, out: &mut Vec<&'a E>) {
            e.for_each_child(&mut |c| {
                out.push(c);
                reached(c, out);
            });
        }
        let mut e = every_variant();
        let mut unique = Vec::new();
        reached_mut(&mut e, &mut unique);
        let mut shared = Vec::new();
        reached(&e, &mut shared);
        let shared_ptrs: Vec<*const E> = shared.iter().map(|&c| c as *const _).collect();
        assert_eq!(shared_ptrs, unique);
        let variants: std::collections::HashSet<_> = std::iter::once(&e)
            .chain(shared.iter().copied())
            .map(std::mem::discriminant)
            .collect();
        assert_eq!(variants.len(), 12, "every variant is in the tree");
        let leaves: Vec<i64> = shared
            .iter()
            .filter_map(|c| match c {
                Expr::Const(Const::Fixnum(n)) => Some(*n),
                _ => None,
            })
            .collect();
        assert_eq!(leaves, (0..17).collect::<Vec<_>>());
    }

    #[test]
    fn const_truthiness() {
        assert!(Const::Fixnum(0).is_truthy());
        assert!(Const::Bool(true).is_truthy());
        assert!(!Const::Bool(false).is_truthy());
        assert!(Const::Nil.is_truthy());
    }
}
