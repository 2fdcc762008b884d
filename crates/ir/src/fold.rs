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

use lesgs_frontend::{Const, Prim};

use crate::{Callee, Expr, Func, Program};

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
    let a = || const_fixnum(&args[0]);
    let b = || const_fixnum(&args[1]);
    Some(match p {
        Add => Const::Fixnum(a()?.checked_add(b()?)?),
        Sub => Const::Fixnum(a()?.checked_sub(b()?)?),
        Mul => Const::Fixnum(a()?.checked_mul(b()?)?),
        Quotient => {
            let d = b()?;
            if d == 0 {
                return None; // keep the runtime error
            }
            Const::Fixnum(a()?.checked_div(d)?)
        }
        Remainder => {
            let d = b()?;
            if d == 0 {
                return None;
            }
            Const::Fixnum(a()?.checked_rem(d)?)
        }
        Modulo => {
            let d = b()?;
            if d == 0 {
                return None;
            }
            // The floor remainder; never overflows for a nonzero `d`.
            let r = a()?.wrapping_rem(d);
            Const::Fixnum(if r != 0 && (r < 0) != (d < 0) {
                r + d
            } else {
                r
            })
        }
        Min => Const::Fixnum(a()?.min(b()?)),
        Max => Const::Fixnum(a()?.max(b()?)),
        Abs => Const::Fixnum(a()?.checked_abs()?),
        Add1 => Const::Fixnum(a()?.checked_add(1)?),
        Sub1 => Const::Fixnum(a()?.checked_sub(1)?),
        IsZero => Const::Bool(a()? == 0),
        IsPositive => Const::Bool(a()? > 0),
        IsNegative => Const::Bool(a()? < 0),
        IsEven => Const::Bool(a()? % 2 == 0),
        IsOdd => Const::Bool(a()? % 2 != 0),
        NumEq => Const::Bool(a()? == b()?),
        Lt => Const::Bool(a()? < b()?),
        Le => Const::Bool(a()? <= b()?),
        Gt => Const::Bool(a()? > b()?),
        Ge => Const::Bool(a()? >= b()?),
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
    fn fold(&mut self, e: Expr) -> Expr {
        match e {
            Expr::Const(_) | Expr::Var(_) | Expr::FreeRef(_) | Expr::Global(_) => e,
            Expr::GlobalSet(g, rhs) => Expr::GlobalSet(g, Box::new(self.fold(*rhs))),
            Expr::If(c, t, el) => {
                let c = self.fold(*c);
                if let Expr::Const(k) = &c {
                    self.stats.branches_pruned += 1;
                    return if k.is_truthy() {
                        self.fold(*t)
                    } else {
                        self.fold(*el)
                    };
                }
                Expr::If(
                    Box::new(c),
                    Box::new(self.fold(*t)),
                    Box::new(self.fold(*el)),
                )
            }
            Expr::Seq(es) => {
                let n = es.len();
                let mut out: Vec<Expr> = Vec::with_capacity(n);
                for (i, e) in es.into_iter().enumerate() {
                    let e = self.fold(e);
                    if i + 1 < n && effect_free(&e) {
                        self.stats.seq_dropped += 1;
                        continue;
                    }
                    out.push(e);
                }
                if out.len() == 1 {
                    out.pop().expect("one element")
                } else {
                    Expr::Seq(out)
                }
            }
            Expr::Let { var, rhs, body } => Expr::Let {
                var,
                rhs: Box::new(self.fold(*rhs)),
                body: Box::new(self.fold(*body)),
            },
            Expr::PrimApp(p, args) => {
                let args: Vec<Expr> = args.into_iter().map(|a| self.fold(a)).collect();
                if args.iter().all(|a| matches!(a, Expr::Const(_))) {
                    if let Some(c) = eval_prim(p, &args) {
                        self.stats.prims_folded += 1;
                        return Expr::Const(c);
                    }
                }
                Expr::PrimApp(p, args)
            }
            Expr::Call { callee, args, tail } => Expr::Call {
                callee: match callee {
                    Callee::Direct(f) => Callee::Direct(f),
                    Callee::KnownClosure(f, e) => Callee::KnownClosure(f, Box::new(self.fold(*e))),
                    Callee::Computed(e) => Callee::Computed(Box::new(self.fold(*e))),
                },
                args: args.into_iter().map(|a| self.fold(a)).collect(),
                tail,
            },
            Expr::MakeClosure { func, free } => Expr::MakeClosure {
                func,
                free: free.into_iter().map(|a| self.fold(a)).collect(),
            },
            Expr::ClosureSet { clo, index, value } => Expr::ClosureSet {
                clo: Box::new(self.fold(*clo)),
                index,
                value: Box::new(self.fold(*value)),
            },
        }
    }
}

/// Folds one function, returning statistics.
pub fn fold_func(func: &mut Func) -> FoldStats {
    let mut folder = Folder {
        stats: FoldStats::default(),
    };
    let body = std::mem::replace(&mut func.body, Expr::Const(Const::Void));
    func.body = folder.fold(body);
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
