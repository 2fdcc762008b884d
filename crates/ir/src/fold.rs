//! Constant folding and branch pruning on the IR.
//!
//! A conservative simplifier run before register allocation:
//!
//! * scalar primitives applied to constants are evaluated at compile
//!   time — but **only when they succeed**: `(quotient 1 0)` keeps its
//!   runtime error, and overflow is never folded;
//! * `(if <constant> t e)` selects its branch (constants are
//!   effect-free);
//! * effect-free expressions in non-final `seq` position disappear.
//!
//! Heap-identity-sensitive operations (`cons`, `eq?` on strings, …) are
//! left alone.

use lesgs_frontend::{Const, FixnumValue, Prim};

use crate::{Expr, Func, Program};

/// Folding statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FoldStats {
    /// Primitive applications evaluated at compile time.
    pub prims_folded: usize,
    /// Conditional branches pruned.
    pub branches_pruned: usize,
    /// Effect-free sequence elements dropped.
    pub seq_dropped: usize,
}

fn const_fixnum(e: &Expr) -> Option<i64> {
    match e {
        Expr::Const(Const::Fixnum(n)) => Some(*n),
        _ => None,
    }
}

/// Evaluates a scalar primitive over constants; `None` when the
/// operation does not apply, fails, or has identity semantics we must
/// not decide at compile time.
fn eval_prim(p: Prim, args: &[Expr]) -> Option<Const> {
    use Prim::*;
    let fixnum = |i: usize| args.get(i).map_or(Some(0), const_fixnum);
    if let (Some(a), Some(b)) = (fixnum(0), fixnum(1)) {
        if let Some(result) = p.apply_fixnum(a, b) {
            // An error stays a run-time error: leave it unfolded.
            return Some(match result.ok()? {
                FixnumValue::Fixnum(n) => Const::Fixnum(n),
                FixnumValue::Bool(b) => Const::Bool(b),
            });
        }
    }
    Some(match p {
        Not => match &args[0] {
            Expr::Const(c) => Const::Bool(!c.is_truthy()),
            _ => return None,
        },
        IsEq | IsEqv => match (&args[0], &args[1]) {
            (Expr::Const(Const::Fixnum(x)), Expr::Const(Const::Fixnum(y))) => Const::Bool(x == y),
            (Expr::Const(Const::Symbol(x)), Expr::Const(Const::Symbol(y))) => Const::Bool(x == y),
            (Expr::Const(Const::Bool(x)), Expr::Const(Const::Bool(y))) => Const::Bool(x == y),
            (Expr::Const(Const::Nil), Expr::Const(Const::Nil)) => Const::Bool(true),
            _ => return None,
        },
        IsNull => match &args[0] {
            Expr::Const(Const::Nil) => Const::Bool(true),
            Expr::Const(_) => Const::Bool(false),
            _ => return None,
        },
        IsNumber => match &args[0] {
            Expr::Const(Const::Fixnum(_)) => Const::Bool(true),
            Expr::Const(c) if !matches!(c, Const::Datum(_)) => Const::Bool(false),
            _ => return None,
        },
        IsBoolean => match &args[0] {
            Expr::Const(Const::Bool(_)) => Const::Bool(true),
            Expr::Const(c) if !matches!(c, Const::Datum(_)) => Const::Bool(false),
            _ => return None,
        },
        _ => return None,
    })
}

/// True when evaluating `e` has no observable effect (so it can be
/// dropped from non-final sequence positions).
fn effect_free(e: &Expr) -> bool {
    matches!(
        e,
        Expr::Const(_) | Expr::Var(_) | Expr::FreeRef(_) | Expr::Global(_)
    )
}

struct Folder {
    stats: FoldStats,
}

impl Folder {
    fn fold(&mut self, e: &mut Expr) {
        match e {
            Expr::If(c, t, el) => {
                self.fold(c);
                if let Expr::Const(k) = c.as_ref() {
                    self.stats.branches_pruned += 1;
                    let taken = if k.is_truthy() { t } else { el };
                    *e = std::mem::replace(taken, Expr::Const(Const::Void));
                    self.fold(e);
                } else {
                    self.fold(t);
                    self.fold(el);
                }
            }
            Expr::Seq(es) => {
                es.iter_mut().for_each(|e| self.fold(e));
                // Effect-free elements before the last one are dropped.
                let n = es.len();
                let mut position = 0;
                es.retain(|e| {
                    position += 1;
                    position == n || !effect_free(e)
                });
                self.stats.seq_dropped += n - es.len();
                if es.len() == 1 {
                    *e = es.pop().expect("one element");
                }
            }
            Expr::PrimApp(p, args) => {
                args.iter_mut().for_each(|a| self.fold(a));
                if args.iter().all(|a| matches!(a, Expr::Const(_))) {
                    if let Some(c) = eval_prim(*p, args) {
                        self.stats.prims_folded += 1;
                        *e = Expr::Const(c);
                    }
                }
            }
            _ => e.for_each_child_mut(&mut |c| self.fold(c)),
        }
    }
}

/// Folds one function, returning statistics.
pub fn fold_func(func: &mut Func) -> FoldStats {
    let mut folder = Folder {
        stats: FoldStats::default(),
    };
    folder.fold(&mut func.body);
    folder.stats
}

/// Folds a whole program in place, returning aggregate statistics.
pub fn fold_program(program: &mut Program) -> FoldStats {
    let mut total = FoldStats::default();
    for f in &mut program.funcs {
        let s = fold_func(f);
        total.prims_folded += s.prims_folded;
        total.branches_pruned += s.branches_pruned;
        total.seq_dropped += s.seq_dropped;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use lesgs_frontend::pipeline;

    fn folded(src: &str, name: &str) -> (Expr, FoldStats) {
        let mut p = pipeline::front_to_closed(src).unwrap();
        let stats = fold_program(&mut p);
        let f = p.funcs.iter().find(|f| f.name == name).unwrap();
        (f.body.clone(), stats)
    }

    #[test]
    fn arithmetic_folds() {
        let (body, stats) = folded("(define (f) (+ 1 (* 2 3))) (f)", "f");
        assert_eq!(body.to_string(), "7");
        assert_eq!(stats.prims_folded, 2);
    }

    #[test]
    fn branches_prune() {
        let (body, stats) = folded("(define (f x) (if (< 1 2) x 99)) (f 5)", "f");
        assert_eq!(body.to_string(), "x0");
        assert!(stats.branches_pruned >= 1);
    }

    #[test]
    fn division_by_zero_not_folded() {
        let (body, _) = folded("(define (f) (quotient 1 0)) (f)", "f");
        assert!(body.to_string().contains("quotient"), "{body}");
    }

    #[test]
    fn overflow_not_folded() {
        let max = i64::MAX;
        let (body, _) = folded(&format!("(define (f) (+ {max} 1)) (f)"), "f");
        assert!(body.to_string().contains("%+"), "{body}");
    }

    #[test]
    fn heap_identity_not_decided() {
        let (body, _) = folded("(define (f) (eq? \"a\" \"a\")) (f)", "f");
        assert!(body.to_string().contains("eq?"), "{body}");
    }

    #[test]
    fn symbol_eq_folds() {
        let (body, _) = folded("(define (f) (eq? 'a 'a)) (f)", "f");
        assert_eq!(body.to_string(), "#t");
        let (body, _) = folded("(define (f) (eq? 'a 'b)) (f)", "f");
        assert_eq!(body.to_string(), "#f");
    }

    #[test]
    fn effect_free_seq_elements_drop() {
        let (body, stats) = folded("(define (f x) (begin x 1 (+ x 1))) (f 3)", "f");
        assert_eq!(body.to_string(), "(%+ x0 1)");
        assert_eq!(stats.seq_dropped, 2);
    }

    #[test]
    fn effects_preserved() {
        let (body, _) = folded("(define (f x) (begin (display x) (+ 1 2))) (f 3)", "f");
        assert!(body.to_string().contains("display"), "{body}");
        assert!(body.to_string().contains('3'), "folded sum remains");
    }

    #[test]
    fn not_folds_through() {
        let (body, _) = folded("(define (f x) (if (not #f) x 9)) (f 1)", "f");
        assert_eq!(body.to_string(), "x0");
    }
}
