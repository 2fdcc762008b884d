//! The generated-program AST.
//!
//! Programs are two-sorted: [`Expr`] always evaluates to a fixnum and
//! [`Pred`] always evaluates to a boolean, so every tree this module
//! can represent is a well-typed LANGUAGE.md program. The shrinker
//! relies on this: any sort-preserving rewrite yields another program
//! the oracle can run, which keeps the shrink predicate about
//! *miscompiles* rather than about accidental type errors.
//!
//! Termination is likewise structural: every top-level procedure takes
//! the depth guard `d` as its first parameter, its body is
//! `(if (<= d 0) base recur)`, and every recursive call passes
//! `(- d 1)` — see the generator for the full argument.

use std::fmt;

/// A numeric expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A fixnum literal.
    Num(i64),
    /// A variable reference.
    Var(String),
    /// `(if p t e)` — the branches are numeric, the test boolean.
    If(Box<Pred>, Box<Expr>, Box<Expr>),
    /// `(let ((v e)…) body)`.
    Let(Vec<(String, Expr)>, Box<Expr>),
    /// A primitive application rendered as `(op args…)`. The generator
    /// only emits total numeric operators (wrapped division and
    /// modulus by positive literals).
    Prim(&'static str, Vec<Expr>),
    /// A call to a top-level or let-bound procedure.
    Call(String, Vec<Expr>),
    /// `(let ((f (lambda (params…) fbody))) body)` — a local closure,
    /// exercising `cp` shuffling at its call sites inside `body`.
    LetFun {
        /// The bound procedure name.
        name: String,
        /// Its parameters.
        params: Vec<String>,
        /// The (pure, non-recursive) procedure body.
        fbody: Box<Expr>,
        /// The expression the binding scopes over.
        body: Box<Expr>,
    },
    /// A bounded named-`let` accumulator loop:
    /// `(let name ((i init) (acc acc0))
    ///    (if (<= i 0) acc (name (- i 1) (remainder (+ acc step) 99991))))`.
    /// Proper tail calls by construction; terminates because `i`
    /// strictly decreases.
    Loop {
        /// The loop (and iteration variable) base name; `i`/`acc`
        /// variables derive from it.
        name: String,
        /// Initial counter value (any value; non-positive exits
        /// immediately).
        init: Box<Expr>,
        /// Initial accumulator.
        acc0: Box<Expr>,
        /// Step expression, evaluated with `i` and `acc` in scope.
        step: Box<Expr>,
    },
    /// `(begin (display e) (newline) k)` — output followed by a
    /// continuation. Only generated on main's spine, never inside
    /// procedures, so output order is identical across backends even
    /// though argument evaluation order is unspecified.
    Display(Box<Expr>, Box<Expr>),
}

/// A boolean expression (only ever in test position).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pred {
    /// A unary numeric predicate: `zero?`, `odd?`, `even?`,
    /// `positive?`, `negative?`.
    Test(&'static str, Box<Expr>),
    /// A binary comparison: `<`, `<=`, `>`, `>=`, `=`.
    Cmp(&'static str, Box<Expr>, Box<Expr>),
    /// `(not p)`.
    Not(Box<Pred>),
    /// `(and p q)`.
    And(Box<Pred>, Box<Pred>),
    /// `(or p q)`.
    Or(Box<Pred>, Box<Pred>),
}

/// A top-level procedure definition. The first parameter is always the
/// termination guard `d`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Def {
    /// The procedure name.
    pub name: String,
    /// All parameters, depth guard first.
    pub params: Vec<String>,
    /// The body (shaped `(if (<= d 0) base recur)` by the generator).
    pub body: Expr,
}

/// A complete generated program: procedure definitions (adjacent
/// definitions become a `letrec`, so groups of mutually recursive
/// procedures keep direct calls) followed by a main expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Top-level definitions, in order.
    pub defs: Vec<Def>,
    /// The program's final expression.
    pub main: Expr,
}

fn write_app(f: &mut fmt::Formatter<'_>, op: &str, args: &[Expr]) -> fmt::Result {
    write!(f, "({op}")?;
    for a in args {
        write!(f, " {a}")?;
    }
    write!(f, ")")
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Num(n) => write!(f, "{n}"),
            Expr::Var(v) => write!(f, "{v}"),
            Expr::If(p, t, e) => write!(f, "(if {p} {t} {e})"),
            Expr::Let(binds, body) => {
                write!(f, "(let (")?;
                for (i, (v, e)) in binds.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "({v} {e})")?;
                }
                write!(f, ") {body})")
            }
            Expr::Prim(op, args) => write_app(f, op, args),
            Expr::Call(op, args) => write_app(f, op, args),
            Expr::LetFun {
                name,
                params,
                fbody,
                body,
            } => write!(
                f,
                "(let (({name} (lambda ({}) {fbody}))) {body})",
                params.join(" ")
            ),
            Expr::Loop {
                name,
                init,
                acc0,
                step,
            } => {
                let (i, acc) = (format!("{name}i"), format!("{name}a"));
                write!(
                    f,
                    "(let {name} (({i} {init}) ({acc} {acc0})) \
                     (if (<= {i} 0) {acc} ({name} (- {i} 1) \
                     (remainder (+ {acc} {step}) 99991))))"
                )
            }
            Expr::Display(e, k) => write!(f, "(begin (display {e}) (newline) {k})"),
        }
    }
}

impl Expr {
    /// Number of AST nodes (both sorts) in this expression.
    pub fn size(&self) -> usize {
        let mut n = 0usize;
        let mut m = 0usize;
        self.visit(&mut |_| n += 1, &mut |_| m += 1);
        n + m
    }

    /// Calls `fe` on every [`Expr`] and `fp` on every [`Pred`] in the
    /// tree, pre-order.
    pub fn visit<'a>(&'a self, fe: &mut impl FnMut(&'a Expr), fp: &mut impl FnMut(&'a Pred)) {
        fe(self);
        match self {
            Expr::Num(_) | Expr::Var(_) => {}
            Expr::If(p, t, e) => {
                p.visit(fe, fp);
                t.visit(fe, fp);
                e.visit(fe, fp);
            }
            Expr::Let(binds, body) => {
                for (_, e) in binds {
                    e.visit(fe, fp);
                }
                body.visit(fe, fp);
            }
            Expr::Prim(_, args) | Expr::Call(_, args) => {
                for a in args {
                    a.visit(fe, fp);
                }
            }
            Expr::LetFun { fbody, body, .. } => {
                fbody.visit(fe, fp);
                body.visit(fe, fp);
            }
            Expr::Loop {
                init, acc0, step, ..
            } => {
                init.visit(fe, fp);
                acc0.visit(fe, fp);
                step.visit(fe, fp);
            }
            Expr::Display(e, k) => {
                e.visit(fe, fp);
                k.visit(fe, fp);
            }
        }
    }

    /// [`visit`](Expr::visit) with mutable access, in the same
    /// pre-order. A node is visited before its children, so the
    /// children visited are those `fe` or `fp` leaves in place.
    pub fn visit_mut(&mut self, fe: &mut impl FnMut(&mut Expr), fp: &mut impl FnMut(&mut Pred)) {
        fe(self);
        match self {
            Expr::Num(_) | Expr::Var(_) => {}
            Expr::If(p, t, e) => {
                p.visit_mut(fe, fp);
                t.visit_mut(fe, fp);
                e.visit_mut(fe, fp);
            }
            Expr::Let(binds, body) => {
                for (_, e) in binds {
                    e.visit_mut(fe, fp);
                }
                body.visit_mut(fe, fp);
            }
            Expr::Prim(_, args) | Expr::Call(_, args) => {
                for a in args {
                    a.visit_mut(fe, fp);
                }
            }
            Expr::LetFun { fbody, body, .. } => {
                fbody.visit_mut(fe, fp);
                body.visit_mut(fe, fp);
            }
            Expr::Loop {
                init, acc0, step, ..
            } => {
                init.visit_mut(fe, fp);
                acc0.visit_mut(fe, fp);
                step.visit_mut(fe, fp);
            }
            Expr::Display(e, k) => {
                e.visit_mut(fe, fp);
                k.visit_mut(fe, fp);
            }
        }
    }
}

impl Pred {
    fn visit<'a>(&'a self, fe: &mut impl FnMut(&'a Expr), fp: &mut impl FnMut(&'a Pred)) {
        fp(self);
        match self {
            Pred::Test(_, e) => e.visit(fe, fp),
            Pred::Cmp(_, a, b) => {
                a.visit(fe, fp);
                b.visit(fe, fp);
            }
            Pred::Not(p) => p.visit(fe, fp),
            Pred::And(a, b) | Pred::Or(a, b) => {
                a.visit(fe, fp);
                b.visit(fe, fp);
            }
        }
    }

    fn visit_mut(&mut self, fe: &mut impl FnMut(&mut Expr), fp: &mut impl FnMut(&mut Pred)) {
        fp(self);
        match self {
            Pred::Test(_, e) => e.visit_mut(fe, fp),
            Pred::Cmp(_, a, b) => {
                a.visit_mut(fe, fp);
                b.visit_mut(fe, fp);
            }
            Pred::Not(p) => p.visit_mut(fe, fp),
            Pred::And(a, b) | Pred::Or(a, b) => {
                a.visit_mut(fe, fp);
                b.visit_mut(fe, fp);
            }
        }
    }
}

impl Program {
    /// Total AST size (defs + main).
    pub fn size(&self) -> usize {
        self.defs.iter().map(|d| d.body.size()).sum::<usize>() + self.main.size()
    }

    /// Renders the program as source text, one definition per line.
    pub fn render(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        for d in &self.defs {
            let _ = writeln!(
                out,
                "(define ({} {}) {})",
                d.name,
                d.params.join(" "),
                d.body
            );
        }
        let _ = writeln!(out, "{}", self.main);
        out
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::Test(op, e) => write!(f, "({op} {e})"),
            Pred::Cmp(op, a, b) => write!(f, "({op} {a} {b})"),
            Pred::Not(p) => write!(f, "(not {p})"),
            Pred::And(a, b) => write!(f, "(and {a} {b})"),
            Pred::Or(a, b) => write!(f, "(or {a} {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::collections::HashSet;
    use std::mem::discriminant;

    #[test]
    fn mutable_walk_meets_the_same_nodes_in_pre_order() {
        // Every variant of both sorts; `Num` leaves numbered in
        // pre-order.
        let mut next = -1;
        let mut num = || {
            next += 1;
            Box::new(Expr::Num(next))
        };
        let mut e = Expr::Display(
            Box::new(Expr::If(
                Box::new(Pred::And(
                    Box::new(Pred::Test("zero?", num())),
                    Box::new(Pred::Or(
                        Box::new(Pred::Not(Box::new(Pred::Cmp("<", num(), num())))),
                        Box::new(Pred::Test("odd?", num())),
                    )),
                )),
                Box::new(Expr::Let(vec![("a".into(), *num())], num())),
                Box::new(Expr::Prim(
                    "+",
                    vec![*num(), Expr::Call("f".into(), vec![*num()])],
                )),
            )),
            Box::new(Expr::LetFun {
                name: "g".into(),
                params: vec!["x".into()],
                fbody: Box::new(Expr::Var("x".into())),
                body: Box::new(Expr::Loop {
                    name: "l".into(),
                    init: num(),
                    acc0: num(),
                    step: num(),
                }),
            }),
        );
        // Each node met, as (is an `Expr`, address).
        let unique = RefCell::new(Vec::new());
        e.visit_mut(
            &mut |x| unique.borrow_mut().push((true, x as *const Expr as usize)),
            &mut |p| unique.borrow_mut().push((false, p as *const Pred as usize)),
        );
        let (shared, exprs, preds) = (
            RefCell::new(Vec::new()),
            RefCell::new(Vec::new()),
            RefCell::new(Vec::new()),
        );
        e.visit(
            &mut |x| {
                shared.borrow_mut().push((true, x as *const Expr as usize));
                exprs.borrow_mut().push(x);
            },
            &mut |p| {
                shared.borrow_mut().push((false, p as *const Pred as usize));
                preds.borrow_mut().push(p);
            },
        );
        assert_eq!(shared.into_inner(), unique.into_inner());
        let (exprs, preds) = (exprs.into_inner(), preds.into_inner());
        let expr_kinds: HashSet<_> = exprs.iter().map(|x| discriminant(*x)).collect();
        let pred_kinds: HashSet<_> = preds.iter().map(|p| discriminant(*p)).collect();
        assert_eq!(
            (expr_kinds.len(), pred_kinds.len()),
            (9, 5),
            "every variant"
        );
        let leaves: Vec<i64> = exprs
            .iter()
            .filter_map(|x| match x {
                Expr::Num(n) => Some(*n),
                _ => None,
            })
            .collect();
        assert_eq!(leaves, (0..11).collect::<Vec<_>>());
    }
}
