//! Assignment conversion.
//!
//! The paper assumes "assignment conversion has already been done, so
//! there are no assignment expressions" (§2) — this pass establishes
//! that invariant. Every variable that is the target of a `set!` is
//! rebound to a heap cell; references become `unbox` and assignments
//! become `set-box!`. Afterwards a variable's value never changes, so
//! "variables need to be saved only once" holds for the allocator.

use crate::ast::{Const, Expr, Lambda};
use crate::names::{Interner, VarId, VarMap, VarSet};
use crate::prim::Prim;

/// Collects all `set!` targets in `e`.
pub fn mutated_vars(e: &Expr<VarId>) -> VarSet {
    fn walk(e: &Expr<VarId>, out: &mut VarSet) {
        if let Expr::Set(v, _) = e {
            out.insert(*v);
        }
        e.for_each_child(&mut |c| walk(c, out));
    }
    let mut out = VarSet::default();
    walk(e, &mut out);
    out
}

struct Converter<'a> {
    interner: &'a mut Interner,
    mutated: VarSet,
    /// Maps a mutated variable to the variable holding its cell.
    cells: VarMap<VarId>,
}

/// Moves `e` out, leaving a placeholder to be overwritten.
fn take(e: &mut Expr<VarId>) -> Expr<VarId> {
    std::mem::replace(e, Expr::Const(Const::Void))
}

impl Converter<'_> {
    fn cell_for(&mut self, v: VarId) -> VarId {
        if let Some(&c) = self.cells.get(&v) {
            return c;
        }
        let name = format!("{}%cell", self.interner.name(v));
        let c = self.interner.fresh(name);
        self.cells.insert(v, c);
        c
    }

    fn convert_lambda(&mut self, l: &mut Lambda<VarId>) {
        self.convert(&mut l.body);
        // Mutated parameters: keep the parameter, bind a cell around
        // the body: (lambda (x) body) => (lambda (x) (let ((xc (box x))) body)).
        for p in l.params.iter().rev() {
            if self.mutated.contains(p) {
                let cell = self.cell_for(*p);
                *l.body = Expr::Let(
                    vec![(cell, Expr::PrimApp(Prim::MakeCell, vec![Expr::Var(*p)]))],
                    Box::new(take(&mut l.body)),
                );
            }
        }
    }

    fn convert(&mut self, e: &mut Expr<VarId>) {
        match e {
            Expr::Var(v) if self.mutated.contains(v) => {
                let cell = self.cell_for(*v);
                *e = Expr::PrimApp(Prim::CellRef, vec![Expr::Var(cell)]);
            }
            Expr::Set(v, rhs) => {
                self.convert(rhs);
                let cell = self.cell_for(*v);
                *e = Expr::PrimApp(Prim::CellSet, vec![Expr::Var(cell), take(rhs)]);
            }
            Expr::Lambda(l) => self.convert_lambda(l),
            Expr::Let(bs, b) => {
                // Mutated let-bound variables bind the cell directly:
                // (let ((x e)) body) => (let ((xc (box e))) body).
                for (v, rhs) in bs.iter_mut() {
                    self.convert(rhs);
                    if self.mutated.contains(v) {
                        *v = self.cell_for(*v);
                        *rhs = Expr::PrimApp(Prim::MakeCell, vec![take(rhs)]);
                    }
                }
                self.convert(b);
            }
            Expr::Letrec(bs, b) => {
                // Desugaring guarantees letrec-bound names are never
                // assigned (assigned defines are demoted to values).
                for (v, l) in bs.iter_mut() {
                    assert!(
                        !self.mutated.contains(v),
                        "letrec-bound variable cannot be assigned"
                    );
                    self.convert_lambda(l);
                }
                self.convert(b);
            }
            // Globals live in dedicated locations; no boxing needed.
            _ => e.for_each_child_mut(&mut |c| self.convert(c)),
        }
    }
}

/// Eliminates every `set!` in `e` by boxing mutated variables.
///
/// After this pass the expression contains no [`Expr::Set`] nodes.
///
/// # Examples
///
/// ```
/// use lesgs_frontend::{assignconv, desugar, rename::Renamer};
/// use lesgs_sexpr::read;
///
/// let surface = desugar::expr(&read(
///     "(let ((x 1)) (begin (set! x 2) x))").unwrap()[0]).unwrap();
/// let mut r = Renamer::new();
/// let mut converted = r.rename(&surface).unwrap();
/// assignconv::convert(&mut converted, &mut r.interner);
/// let s = converted.to_string();
/// assert!(s.contains("%box"));
/// assert!(s.contains("%set-box!"));
/// assert!(s.contains("%unbox"));
/// ```
pub fn convert(e: &mut Expr<VarId>, interner: &mut Interner) {
    let mutated = mutated_vars(e);
    if mutated.is_empty() {
        return;
    }
    let mut c = Converter {
        interner,
        mutated,
        cells: VarMap::default(),
    };
    c.convert(e)
}

/// Returns true if the expression contains no assignments (the
/// invariant this pass establishes).
pub fn is_assignment_free(e: &Expr<VarId>) -> bool {
    mutated_vars(e).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::desugar;
    use crate::rename::Renamer;
    use lesgs_sexpr::read;

    fn conv(src: &str) -> (Expr<VarId>, String) {
        let surface = desugar::expr(&read(src).unwrap()[0]).unwrap();
        let mut r = Renamer::new();
        let mut converted = r.rename(&surface).unwrap();
        convert(&mut converted, &mut r.interner);
        let s = converted.to_string();
        (converted, s)
    }

    #[test]
    fn unmutated_is_untouched() {
        let (_, s) = conv("(let ((x 1)) x)");
        assert!(!s.contains("box"), "{s}");
    }

    #[test]
    fn let_bound_mutation_boxes() {
        let (e, s) = conv("(let ((x 1)) (begin (set! x 2) x))");
        assert!(is_assignment_free(&e));
        assert!(s.contains("(%box 1)"), "{s}");
        assert!(s.contains("%set-box!"), "{s}");
        assert!(s.contains("%unbox"), "{s}");
    }

    #[test]
    fn parameter_mutation_wraps_body() {
        let (e, s) = conv("(lambda (x) (begin (set! x 2) x))");
        assert!(is_assignment_free(&e));
        // Body must start with a let binding the cell over the raw param.
        assert!(s.contains("(%box v0)"), "{s}");
    }

    #[test]
    fn unmutated_siblings_stay_plain() {
        let (e, s) = conv("(let ((x 1) (y 2)) (begin (set! x y) x))");
        assert!(is_assignment_free(&e));
        // Only `x` is boxed; `y` stays a plain binding.
        assert_eq!(s.matches("%box").count(), 1, "{s}");
        assert_eq!(s.matches("%unbox").count(), 1, "{s}");
    }

    #[test]
    fn general_letrec_via_desugar_is_convertible() {
        // (letrec ((x 1)) x) desugars to let + set!, which this pass boxes.
        let (e, s) = conv("(letrec ((x 1) (f (lambda () x))) x)");
        assert!(is_assignment_free(&e));
        assert!(s.contains("%box"), "{s}");
    }

    #[test]
    fn set_result_is_cellset_value() {
        let (e, _) = conv("(let ((x 1)) (set! x 2))");
        assert!(is_assignment_free(&e));
    }
}
