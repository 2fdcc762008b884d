//! Alpha renaming and primitive resolution.
//!
//! Every binding gets a fresh [`VarId`]. References to unbound names
//! are resolved against the primitive table: in operator position they
//! become [`Expr::PrimApp`] (with variadic surface forms expanded to
//! fixed arity), elsewhere they are eta-expanded into lambdas so
//! primitives remain first-class.
//!
//! The renamer's tables are keyed by the `&str` names the surface tree
//! lends from the source text, so looking a name up or binding it
//! copies nothing; each binding's name is copied once, into the
//! [`Interner`].

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::ast::{Const, Expr, Lambda};
use crate::desugar::SurfaceExpr;
use crate::names::{Interner, VarId};
use crate::prim::{Prim, PrimArity};

/// A scoping error.
#[derive(Debug, Clone, PartialEq)]
pub struct RenameError {
    /// Human-readable description.
    pub message: String,
}

impl RenameError {
    fn new(message: impl Into<String>) -> RenameError {
        RenameError {
            message: message.into(),
        }
    }
}

impl fmt::Display for RenameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rename error: {}", self.message)
    }
}

impl std::error::Error for RenameError {}

type Result<T> = std::result::Result<T, RenameError>;

/// The renamer state: the interner allocating ids plus the current
/// lexical environment, keyed by names lent from the source text.
#[derive(Debug, Default)]
pub struct Renamer<'a> {
    /// Allocates fresh ids and remembers source names.
    pub interner: Interner,
    /// The innermost binding of each name in scope.
    env: HashMap<&'a str, VarId>,
    /// Every binding in scope, innermost last, with the binding of the
    /// same name it shadows.
    scope: Vec<(&'a str, Option<VarId>)>,
    globals: HashMap<&'a str, u32>,
    /// The names of the binding group being checked, kept between
    /// groups so each check reuses the table's storage.
    group: HashSet<&'a str>,
}

impl<'a> Renamer<'a> {
    /// Creates a renamer with an empty environment.
    pub fn new() -> Renamer<'a> {
        Renamer::default()
    }

    /// Registers the top-level global names (slot = list position).
    /// Unbound references to these names become [`Expr::Global`] /
    /// [`Expr::GlobalSet`]; lexical bindings still shadow them.
    pub fn set_globals(&mut self, names: &[&'a str]) {
        self.globals = names
            .iter()
            .enumerate()
            .map(|(i, n)| (*n, i as u32))
            .collect();
    }

    /// Binds `name`, shadowing any previous binding, and returns its id.
    pub fn bind(&mut self, name: &'a str) -> VarId {
        let id = self.interner.fresh(name);
        let shadowed = self.env.insert(name, id);
        self.scope.push((name, shadowed));
        id
    }

    /// Ends the scope of the `n` innermost bindings.
    fn unbind(&mut self, n: usize) {
        for _ in 0..n {
            let (name, shadowed) = self.scope.pop().expect("unbind of an empty scope");
            match shadowed {
                Some(outer) => self.env.insert(name, outer),
                None => self.env.remove(name),
            };
        }
    }

    /// Current binding of `name`, if any.
    pub fn lookup(&self, name: &str) -> Option<VarId> {
        self.env.get(name).copied()
    }

    /// Rejects a binding group that names a variable twice, reporting
    /// the first name that repeats an earlier one. A group of n names
    /// costs O(n).
    fn check_distinct(
        &mut self,
        mut names: impl Iterator<Item = &'a str>,
        what: &str,
    ) -> Result<()> {
        self.group.clear();
        match names.find(|n| !self.group.insert(n)) {
            Some(n) => Err(RenameError::new(format!("duplicate {what} `{n}`"))),
            None => Ok(()),
        }
    }

    fn rename_lambda(&mut self, lam: &Lambda<&'a str>) -> Result<Lambda<VarId>> {
        self.check_distinct(lam.params.iter().copied(), "parameter")?;
        let params: Vec<VarId> = lam.params.iter().map(|p| self.bind(p)).collect();
        let body = self.rename(&lam.body);
        self.unbind(params.len());
        Ok(Lambda {
            params,
            body: Box::new(body?),
            name: lam.name.clone(),
        })
    }

    /// Expands a surface primitive application to fixed arity.
    fn prim_app(
        &mut self,
        prim: Prim,
        arity: PrimArity,
        name: &str,
        args: Vec<Expr<VarId>>,
    ) -> Result<Expr<VarId>> {
        match arity {
            PrimArity::Fixed(_) if name == "make-vector" && args.len() == 2 => {
                Ok(Expr::PrimApp(Prim::MakeVectorFill, args))
            }
            PrimArity::Fixed(n) => {
                if args.len() != n as usize {
                    return Err(RenameError::new(format!(
                        "`{name}` expects {n} argument(s), got {}",
                        args.len()
                    )));
                }
                Ok(Expr::PrimApp(prim, args))
            }
            PrimArity::FoldLeft { identity } => {
                let mut it = args.into_iter();
                let first = it.next().unwrap_or(Expr::Const(Const::Fixnum(identity)));
                Ok(it.fold(first, |acc, a| Expr::PrimApp(prim, vec![acc, a])))
            }
            PrimArity::SubLike => match args.len() {
                0 => Err(RenameError::new("`-` expects at least one argument")),
                1 => Ok(Expr::PrimApp(
                    prim,
                    vec![
                        Expr::Const(Const::Fixnum(0)),
                        args.into_iter().next().expect("one arg"),
                    ],
                )),
                _ => {
                    let mut it = args.into_iter();
                    let first = it.next().expect("nonempty");
                    Ok(it.fold(first, |acc, a| Expr::PrimApp(prim, vec![acc, a])))
                }
            },
            PrimArity::Chain => {
                if args.len() < 2 {
                    return Err(RenameError::new(format!(
                        "`{name}` expects at least two arguments"
                    )));
                }
                if args.len() == 2 {
                    return Ok(Expr::PrimApp(prim, args));
                }
                // (< a b c) => (let ((t0 a) (t1 b) (t2 c))
                //                (if (< t0 t1) (< t1 t2) #f))
                // Bind all operands first to preserve left-to-right
                // evaluation exactly once.
                let temps: Vec<VarId> = (0..args.len())
                    .map(|i| self.interner.fresh(format!("%cmp{i}")))
                    .collect();
                let mut cond = Expr::PrimApp(
                    prim,
                    vec![
                        Expr::Var(temps[args.len() - 2]),
                        Expr::Var(temps[args.len() - 1]),
                    ],
                );
                for w in (0..args.len() - 2).rev() {
                    cond = Expr::If(
                        Box::new(Expr::PrimApp(
                            prim,
                            vec![Expr::Var(temps[w]), Expr::Var(temps[w + 1])],
                        )),
                        Box::new(cond),
                        Box::new(Expr::Const(Const::Bool(false))),
                    );
                }
                Ok(Expr::Let(
                    temps.into_iter().zip(args).collect(),
                    Box::new(cond),
                ))
            }
        }
    }

    /// Eta-expands a primitive used as a value: `car` becomes
    /// `(lambda (p) (car p))`.
    fn eta_expand(&mut self, prim: Prim, arity: PrimArity) -> Expr<VarId> {
        let n = match arity {
            PrimArity::Fixed(n) => n as usize,
            // Variadic primitives close over their binary form.
            PrimArity::FoldLeft { .. } | PrimArity::SubLike | PrimArity::Chain => 2,
        };
        let params: Vec<VarId> = (0..n)
            .map(|i| self.interner.fresh(format!("%eta{i}")))
            .collect();
        Expr::Lambda(Lambda {
            params: params.clone(),
            body: Box::new(Expr::PrimApp(
                prim,
                params.into_iter().map(Expr::Var).collect(),
            )),
            name: Some(prim.name().to_owned()),
        })
    }

    /// Renames an expression.
    ///
    /// # Errors
    ///
    /// Returns a [`RenameError`] on unbound variables, duplicate
    /// bindings, primitive arity mismatches, or `set!` of a primitive.
    pub fn rename(&mut self, e: &SurfaceExpr<'a>) -> Result<Expr<VarId>> {
        match e {
            Expr::Const(c) => Ok(Expr::Const(c.clone())),
            Expr::Var(name) => match self.lookup(name) {
                Some(id) => Ok(Expr::Var(id)),
                None => match self.globals.get(name) {
                    Some(slot) => Ok(Expr::Global(*slot)),
                    None => match Prim::lookup(name) {
                        Some((p, ar)) => Ok(self.eta_expand(p, ar)),
                        None => Err(RenameError::new(format!("unbound variable `{name}`"))),
                    },
                },
            },
            Expr::Global(g) => Ok(Expr::Global(*g)),
            Expr::Set(name, rhs) => {
                let rhs = self.rename(rhs)?;
                match self.lookup(name) {
                    Some(id) => Ok(Expr::Set(id, Box::new(rhs))),
                    None => match self.globals.get(name) {
                        Some(slot) => Ok(Expr::GlobalSet(*slot, Box::new(rhs))),
                        None => Err(RenameError::new(format!(
                            "set! of unbound variable `{name}`"
                        ))),
                    },
                }
            }
            Expr::GlobalSet(g, rhs) => Ok(Expr::GlobalSet(*g, Box::new(self.rename(rhs)?))),
            Expr::If(c, t, e) => Ok(Expr::If(
                Box::new(self.rename(c)?),
                Box::new(self.rename(t)?),
                Box::new(self.rename(e)?),
            )),
            Expr::Seq(es) => Ok(Expr::Seq(self.rename_all(es)?)),
            Expr::Lambda(lam) => Ok(Expr::Lambda(self.rename_lambda(lam)?)),
            Expr::Let(bindings, body) => self.rename_let(bindings, body),
            Expr::Letrec(bindings, body) => self.rename_letrec(bindings, body),
            Expr::App(head, args) => {
                // Primitive in operator position?
                if let Expr::Var(name) = head.as_ref() {
                    if self.lookup(name).is_none() {
                        if let Some((p, ar)) = Prim::lookup(name) {
                            let args = self.rename_all(args)?;
                            return self.prim_app(p, ar, name, args);
                        }
                    }
                }
                let head = self.rename(head)?;
                Ok(Expr::App(Box::new(head), self.rename_all(args)?))
            }
            Expr::PrimApp(p, args) => Ok(Expr::PrimApp(*p, self.rename_all(args)?)),
        }
    }

    /// Renames each of `es`, in order.
    fn rename_all(&mut self, es: &[SurfaceExpr<'a>]) -> Result<Vec<Expr<VarId>>> {
        let mut out = Vec::with_capacity(es.len());
        for e in es {
            out.push(self.rename(e)?);
        }
        Ok(out)
    }

    // `rename_let` and `rename_letrec` stay out of line so that their
    // locals do not widen `rename`'s frame, which the recursion
    // through every other form pays once per level of nesting.

    #[inline(never)]
    fn rename_let(
        &mut self,
        bindings: &[(&'a str, SurfaceExpr<'a>)],
        body: &SurfaceExpr<'a>,
    ) -> Result<Expr<VarId>> {
        self.check_distinct(bindings.iter().map(|(n, _)| *n), "let binding")?;
        let mut rhss = Vec::with_capacity(bindings.len());
        for (_, rhs) in bindings {
            rhss.push(self.rename(rhs)?);
        }
        let ids: Vec<VarId> = bindings.iter().map(|(n, _)| self.bind(n)).collect();
        let body = self.rename(body);
        self.unbind(ids.len());
        Ok(Expr::Let(
            ids.into_iter().zip(rhss).collect(),
            Box::new(body?),
        ))
    }

    #[inline(never)]
    fn rename_letrec(
        &mut self,
        bindings: &[(&'a str, Lambda<&'a str>)],
        body: &SurfaceExpr<'a>,
    ) -> Result<Expr<VarId>> {
        self.check_distinct(bindings.iter().map(|(n, _)| *n), "letrec binding")?;
        let ids: Vec<VarId> = bindings.iter().map(|(n, _)| self.bind(n)).collect();
        let result = (|| {
            let lams: Vec<Lambda<VarId>> = bindings
                .iter()
                .map(|(_, l)| self.rename_lambda(l))
                .collect::<Result<_>>()?;
            let body = self.rename(body)?;
            Ok(Expr::Letrec(
                ids.iter().copied().zip(lams).collect(),
                Box::new(body),
            ))
        })();
        self.unbind(ids.len());
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::desugar;
    use lesgs_sexpr::read;

    fn rn(src: &str) -> Result<Expr<VarId>> {
        let surface = desugar::expr(&read(src).unwrap()[0]).unwrap();
        Renamer::new().rename(&surface)
    }

    #[test]
    fn shadowing() {
        let e = rn("(let ((x 1)) (let ((x x)) x))").unwrap();
        let Expr::Let(outer, body) = e else {
            panic!("{e}")
        };
        let outer_x = outer[0].0;
        let Expr::Let(inner, inner_body) = *body else {
            panic!()
        };
        let inner_x = inner[0].0;
        assert_ne!(outer_x, inner_x);
        assert_eq!(inner[0].1, Expr::Var(outer_x));
        assert_eq!(*inner_body, Expr::Var(inner_x));
    }

    #[test]
    fn unbound_variable() {
        let err = rn("nope").unwrap_err();
        assert!(err.message.contains("unbound variable `nope`"));
    }

    #[test]
    fn prims_resolve_in_operator_position() {
        let e = rn("(car x)").unwrap_err(); // x unbound
        assert!(e.message.contains("`x`"));
        let e = rn("(let ((x '(1))) (car x))").unwrap();
        assert!(e.to_string().contains("%car"), "{e}");
    }

    #[test]
    fn shadowed_prims_are_variables() {
        let e = rn("(let ((car 1)) car)").unwrap();
        let Expr::Let(_, body) = e else { panic!() };
        assert!(matches!(*body, Expr::Var(_)));
    }

    #[test]
    fn prims_as_values_eta_expand() {
        let e = rn("car").unwrap();
        let Expr::Lambda(l) = e else { panic!("{e}") };
        assert_eq!(l.params.len(), 1);
        assert!(matches!(*l.body, Expr::PrimApp(Prim::Car, _)));
    }

    #[test]
    fn variadic_add_folds() {
        assert_eq!(rn("(+)").unwrap().to_string(), "0");
        assert_eq!(rn("(+ 1)").unwrap().to_string(), "1");
        assert_eq!(rn("(+ 1 2 3)").unwrap().to_string(), "(%+ (%+ 1 2) 3)");
    }

    #[test]
    fn unary_minus_negates() {
        assert_eq!(rn("(- 5)").unwrap().to_string(), "(%- 0 5)");
        assert_eq!(rn("(- 5 2 1)").unwrap().to_string(), "(%- (%- 5 2) 1)");
    }

    #[test]
    fn chained_comparison() {
        let e = rn("(< 1 2 3)").unwrap().to_string();
        assert!(e.contains("(%< "), "{e}");
        assert!(e.contains("(if "), "{e}");
        assert!(rn("(< 1)").is_err());
    }

    #[test]
    fn make_vector_two_forms() {
        let e = rn("(make-vector 3)").unwrap();
        assert!(matches!(e, Expr::PrimApp(Prim::MakeVector, _)));
        let e = rn("(make-vector 3 0)").unwrap();
        assert!(matches!(e, Expr::PrimApp(Prim::MakeVectorFill, _)));
    }

    #[test]
    fn arity_errors() {
        assert!(rn("(car)").is_err());
        assert!(rn("(cons 1)").is_err());
        assert!(rn("(-)").is_err());
    }

    #[test]
    fn duplicate_bindings_rejected() {
        assert!(rn("(lambda (x x) x)").is_err());
        assert!(rn("(let ((x 1) (x 2)) x)").is_err());
    }

    /// A group of `n` parameters `p0 … p{n-1}` followed by `extra`.
    fn params_source(n: usize, extra: &str) -> String {
        let params: Vec<String> = (0..n).map(|i| format!("p{i}")).collect();
        format!("(lambda ({} {extra}) p0)", params.join(" "))
    }

    /// The first name that repeats an earlier one is reported, whether
    /// the group is scanned (small) or hashed (large).
    #[test]
    fn duplicate_message_names_the_first_repeat() {
        let message = |src: &str| rn(src).unwrap_err().to_string();
        assert_eq!(
            message("(lambda (a b c b a) 1)"),
            "rename error: duplicate parameter `b`"
        );
        assert_eq!(
            message("(let ((x 1) (y 2) (y 3) (x 4)) x)"),
            "rename error: duplicate let binding `y`"
        );
        assert_eq!(
            message("(letrec ((f (lambda () 1)) (f (lambda () 2))) 1)"),
            "rename error: duplicate letrec binding `f`"
        );
        assert_eq!(
            message(&params_source(1_000, "p7 p3")),
            "rename error: duplicate parameter `p7`"
        );
    }

    /// Checking a binding group is linear: 200,000 parameters rename
    /// in well under a second even unoptimized (the pairwise check took
    /// seconds at a tenth of that).
    #[test]
    fn a_huge_parameter_list_renames_in_linear_time() {
        let src = params_source(200_000, "");
        let start = std::time::Instant::now();
        let Expr::Lambda(l) = rn(&src).unwrap() else {
            panic!("not a lambda")
        };
        assert_eq!(l.params.len(), 200_000);
        assert_eq!(*l.body, Expr::Var(l.params[0]));
        let elapsed = start.elapsed();
        assert!(elapsed.as_secs() < 20, "took {elapsed:?}");
    }

    #[test]
    fn set_of_primitive_rejected() {
        assert!(rn("(set! car 1)").is_err());
    }

    #[test]
    fn globals_resolve_when_unbound() {
        let surface = desugar::expr(&read("(+ g1 g2)").unwrap()[0]).unwrap();
        let mut r = Renamer::new();
        r.set_globals(&["g1", "g2"]);
        let e = r.rename(&surface).unwrap();
        assert_eq!(e.to_string(), "(%+ (global 0) (global 1))");
    }

    #[test]
    fn lexical_bindings_shadow_globals() {
        let surface = desugar::expr(&read("(let ((g1 5)) g1)").unwrap()[0]).unwrap();
        let mut r = Renamer::new();
        r.set_globals(&["g1"]);
        let e = r.rename(&surface).unwrap();
        assert!(!e.to_string().contains("global"), "{e}");
    }

    #[test]
    fn set_of_global_becomes_global_set() {
        let surface = desugar::expr(&read("(set! g1 7)").unwrap()[0]).unwrap();
        let mut r = Renamer::new();
        r.set_globals(&["g1"]);
        let e = r.rename(&surface).unwrap();
        assert_eq!(e.to_string(), "(global-set! 0 7)");
    }

    #[test]
    fn globals_do_not_mask_primitives_of_other_names() {
        let surface = desugar::expr(&read("(car '(1))").unwrap()[0]).unwrap();
        let mut r = Renamer::new();
        r.set_globals(&["g1"]);
        let e = r.rename(&surface).unwrap();
        assert!(e.to_string().contains("%car"), "{e}");
    }

    #[test]
    fn letrec_sees_itself() {
        let e = rn("(letrec ((f (lambda (n) (f n)))) (f 0))").unwrap();
        let Expr::Letrec(bindings, _) = &e else {
            panic!()
        };
        let f_id = bindings[0].0;
        let body_ref = bindings[0].1.body.to_string();
        assert!(body_ref.contains(&f_id.to_string()));
    }
}
