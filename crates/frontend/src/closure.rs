//! Closure conversion: from lexically-scoped lambdas to the
//! first-order IR the allocator runs on.
//!
//! Every lambda becomes a [`Func`] whose body refers to captured
//! variables through an explicit free list (`FreeRef` indices resolved
//! via the closure-pointer register at run time, mirroring the paper's
//! run-time model).
//!
//! Each function's variables are numbered into dense [`LocalId`]s as
//! conversion binds them: parameters first, in order; each `let`
//! variable right after its own right-hand side; each `letrec` closure
//! variable where its group binds it.
//!
//! `letrec`-bound procedures are analyzed as a group:
//!
//! * procedures with no captured variables that are only used in
//!   operator position compile to **direct calls** with no closure at
//!   all (typical for top-level defines);
//! * procedures that capture variables or escape as values get heap
//!   closures; mutually recursive closures are created with placeholder
//!   slots and backpatched (`ClosureSet`).

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;

use crate::ast::{Const, Expr, Lambda, Variable};
use crate::first_order::{self as ir, Callee, Func, FuncId, LocalId, Program};
use crate::names::{Interner, VarId, VarMap, VarSet};

/// Computes the free variables of `e` in deterministic order. One
/// analysis serves the surface AST (`V = &str`, where inner binders
/// may shadow outer ones) and the renamed AST (`V = VarId`).
pub fn free_vars<V: Variable + Ord + Hash + Clone>(e: &Expr<V>) -> BTreeSet<V> {
    let mut out = BTreeSet::new();
    walk_free(
        e,
        &mut Unbound::new(|v: &V| {
            out.insert(v.clone());
        }),
    );
    out
}

/// Computes the free variables of a lambda in deterministic order
/// (the same set as [`free_vars`] of `Expr::Lambda(l)`).
pub(crate) fn free_vars_lambda(l: &Lambda<VarId>) -> BTreeSet<VarId> {
    let mut out = BTreeSet::new();
    walk_free_lambda(
        l,
        &mut Unbound::new(|v: &VarId| {
            out.insert(*v);
        }),
    );
    out
}

/// What a free-variable walk keeps of the binders around its position,
/// and what it does with each reference.
///
/// The walk calls [`Scope::bind`] as a binder's scope opens and
/// [`Scope::unbind`] with the same variable as it closes, so bindings
/// nest; a variable is free at a reference when no binder of it is
/// open.
pub(crate) trait Scope<'e, V> {
    /// A binder of `v` opens.
    fn bind(&mut self, v: &'e V);
    /// The innermost open binder of `v` closes.
    fn unbind(&mut self, v: &'e V);
    /// A variable read or `set!` target names `v`.
    fn reference(&mut self, v: &'e V);
}

/// The [`Scope`] of [`free_vars`]: counts the open binders of every
/// variable and calls `f` on each reference to a variable with none.
struct Unbound<'e, V: Variable, F> {
    open: HashMap<&'e V, u32, V::Hasher>,
    f: F,
}

impl<'e, V: Variable, F> Unbound<'e, V, F> {
    fn new(f: F) -> Self {
        Unbound {
            open: HashMap::default(),
            f,
        }
    }
}

impl<'e, V: Variable + Hash + Eq, F: FnMut(&'e V)> Scope<'e, V> for Unbound<'e, V, F> {
    fn bind(&mut self, v: &'e V) {
        *self.open.entry(v).or_insert(0) += 1;
    }

    fn unbind(&mut self, v: &'e V) {
        if let Entry::Occupied(mut open) = self.open.entry(v) {
            *open.get_mut() -= 1;
            if *open.get() == 0 {
                open.remove();
            }
        }
    }

    fn reference(&mut self, v: &'e V) {
        if !self.open.contains_key(v) {
            (self.f)(v);
        }
    }
}

/// Walks `e` in evaluation order, telling `scope` of every binder and
/// every reference; the scoping rules of the language live here once.
pub(crate) fn walk_free<'e, V, S: Scope<'e, V>>(e: &'e Expr<V>, scope: &mut S) {
    match e {
        Expr::Lambda(l) => walk_free_lambda(l, scope),
        Expr::Let(bs, b) => {
            for (_, rhs) in bs {
                walk_free(rhs, scope);
            }
            bs.iter().for_each(|(v, _)| scope.bind(v));
            walk_free(b, scope);
            bs.iter().for_each(|(v, _)| scope.unbind(v));
        }
        Expr::Letrec(bs, b) => {
            bs.iter().for_each(|(v, _)| scope.bind(v));
            for (_, l) in bs {
                walk_free_lambda(l, scope);
            }
            walk_free(b, scope);
            bs.iter().for_each(|(v, _)| scope.unbind(v));
        }
        _ => {
            if let Expr::Var(v) | Expr::Set(v, _) = e {
                scope.reference(v);
            }
            e.for_each_child(&mut |c| walk_free(c, scope));
        }
    }
}

fn walk_free_lambda<'e, V, S: Scope<'e, V>>(l: &'e Lambda<V>, scope: &mut S) {
    l.params.iter().for_each(|v| scope.bind(v));
    walk_free(&l.body, scope);
    l.params.iter().for_each(|v| scope.unbind(v));
}

/// Collects value-position and operator-position references to `names`.
pub(crate) fn reference_kinds(
    e: &Expr<VarId>,
    names: &VarSet,
    operator: &mut VarSet,
    value: &mut VarSet,
) {
    match e {
        Expr::Var(v) if names.contains(v) => {
            value.insert(*v);
        }
        Expr::App(f, args) => {
            match f.as_ref() {
                Expr::Var(v) if names.contains(v) => {
                    operator.insert(*v);
                }
                other => reference_kinds(other, names, operator, value),
            }
            for a in args {
                reference_kinds(a, names, operator, value);
            }
        }
        _ => e.for_each_child(&mut |c| reference_kinds(c, names, operator, value)),
    }
}

/// How a known (letrec-bound) procedure is reached.
#[derive(Debug, Clone, Copy)]
struct KnownBinding {
    func: FuncId,
    /// The local variable holding the procedure's closure, when it has
    /// one; `None` means pure direct calls.
    closure_var: Option<VarId>,
}

struct Convert<'a> {
    funcs: Vec<Option<Func>>,
    known: VarMap<KnownBinding>,
    interner: &'a mut Interner,
}

/// Per-function conversion context: the function's locals, numbered as
/// they are bound, and its captures.
struct FnCtx {
    locals: VarMap<LocalId>,
    free_map: VarMap<u32>,
    free_list: Vec<VarId>,
}

impl FnCtx {
    fn new(params: &[VarId]) -> FnCtx {
        let mut ctx = FnCtx {
            locals: VarMap::default(),
            free_map: VarMap::default(),
            free_list: Vec::new(),
        };
        for p in params {
            ctx.bind(*p);
        }
        ctx
    }

    /// Numbers `v` as the function's next local.
    fn bind(&mut self, v: VarId) -> LocalId {
        let local = LocalId(self.locals.len() as u32);
        let previous = self.locals.insert(v, local);
        // A second binding would give the next local this number too.
        assert!(
            previous.is_none(),
            "alpha renaming binds each variable once"
        );
        local
    }

    fn resolve(&mut self, v: VarId) -> ir::Expr {
        if let Some(&local) = self.locals.get(&v) {
            ir::Expr::Var(local)
        } else {
            let idx = *self.free_map.entry(v).or_insert_with(|| {
                self.free_list.push(v);
                (self.free_list.len() - 1) as u32
            });
            ir::Expr::FreeRef(idx)
        }
    }
}

impl Convert<'_> {
    fn fresh_func_id(&mut self) -> FuncId {
        let id = FuncId(self.funcs.len() as u32);
        self.funcs.push(None);
        id
    }

    /// Converts a function with the given parameters and body; returns
    /// its free list.
    fn convert_function(
        &mut self,
        id: FuncId,
        name: String,
        params: &[VarId],
        body: &Expr<VarId>,
    ) -> Vec<VarId> {
        let mut ctx = FnCtx::new(params);
        let body = self.convert(body, &mut ctx, true);
        self.funcs[id.index()] = Some(Func {
            id,
            name,
            n_params: params.len(),
            n_locals: ctx.locals.len(),
            n_free: ctx.free_list.len(),
            body,
        });
        ctx.free_list
    }

    fn convert_letrec(
        &mut self,
        bindings: &[(VarId, Lambda<VarId>)],
        body: &Expr<VarId>,
        ctx: &mut FnCtx,
        tail: bool,
    ) -> ir::Expr {
        let group: VarSet = bindings.iter().map(|(v, _)| *v).collect();

        // --- analysis -------------------------------------------------
        // refs_in[i] = brothers referenced from i's body (any position);
        // value_refs = brothers referenced as values anywhere.
        let mut value_refs = VarSet::default();
        let mut refs_in: VarMap<BTreeSet<VarId>> = VarMap::default();
        for (v, l) in bindings {
            let mut op = VarSet::default();
            let mut val = VarSet::default();
            reference_kinds(&l.body, &group, &mut op, &mut val);
            value_refs.extend(val.iter().copied());
            refs_in.insert(*v, op.union(&val).copied().collect());
        }
        reference_kinds(body, &group, &mut VarSet::default(), &mut value_refs);

        // needs_closure fixpoint: seed with escaping-or-capturing
        // procedures, propagate to everything that references them.
        let mut needs: VarMap<bool> = VarMap::default();
        let mut outer_free: VarMap<BTreeSet<VarId>> = VarMap::default();
        for (v, l) in bindings {
            let mut fv = free_vars_lambda(l);
            // Neither group members nor enclosing *direct* procedures
            // are real captures: a direct call needs no environment.
            // (References to enclosing procedures that do have closures
            // stay: their closure variable must be captured.)
            fv.retain(|x| {
                !group.contains(x)
                    && !matches!(
                        self.known.get(x),
                        Some(KnownBinding {
                            closure_var: None,
                            ..
                        })
                    )
            });
            let seed = !fv.is_empty() || value_refs.contains(v);
            outer_free.insert(*v, fv);
            needs.insert(*v, seed);
        }
        loop {
            let mut changed = false;
            for (v, _) in bindings {
                if needs[v] {
                    continue;
                }
                if refs_in[v].iter().any(|b| needs[b]) {
                    needs.insert(*v, true);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // --- register known bindings -----------------------------------
        let mut ids: VarMap<FuncId> = VarMap::default();
        let mut clo_vars: VarMap<VarId> = VarMap::default();
        for (v, _) in bindings {
            let id = self.fresh_func_id();
            ids.insert(*v, id);
            let closure_var = if needs[v] {
                let cv = self
                    .interner
                    .fresh(format!("{}%clo", self.interner.name(*v)));
                clo_vars.insert(*v, cv);
                Some(cv)
            } else {
                None
            };
            self.known.insert(
                *v,
                KnownBinding {
                    func: id,
                    closure_var,
                },
            );
        }

        // --- convert the group's bodies --------------------------------
        // Inside the lambdas, references to a brother's closure variable
        // resolve through the normal capture machinery because the
        // closure variables are locals of the *enclosing* function.
        let mut free_lists: VarMap<Vec<VarId>> = VarMap::default();
        for (v, l) in bindings {
            let name = l
                .name
                .clone()
                .unwrap_or_else(|| self.interner.name(*v).to_owned());
            let free = self.convert_function(ids[v], name, &l.params, &l.body);
            free_lists.insert(*v, free);
        }

        // --- emit closure creation + backpatching ----------------------
        let clo_var_set: VarSet = clo_vars.values().copied().collect();
        let mut patches: Vec<(VarId, u32, VarId)> = Vec::new(); // (clo, slot, brother clo)
        let mut creations: Vec<(LocalId, ir::Expr)> = Vec::new();
        for (v, _) in bindings {
            if !needs[v] {
                continue;
            }
            let cv = clo_vars[v];
            let mut free_values = Vec::new();
            for (slot, fv) in free_lists[v].iter().enumerate() {
                if clo_var_set.contains(fv) {
                    // Brother closure: placeholder now, patch below.
                    free_values.push(ir::Expr::Const(Const::Void));
                    patches.push((cv, slot as u32, *fv));
                } else {
                    free_values.push(ctx.resolve(*fv));
                }
            }
            let make = ir::Expr::MakeClosure {
                func: ids[v],
                free: free_values,
            };
            creations.push((ctx.bind(cv), make));
        }

        let converted_body = self.convert(body, ctx, tail);

        let mut result = if patches.is_empty() {
            converted_body
        } else {
            let mut seq: Vec<ir::Expr> = patches
                .into_iter()
                .map(|(cv, slot, brother)| ir::Expr::ClosureSet {
                    clo: Box::new(ctx.resolve(cv)),
                    index: slot,
                    value: Box::new(ctx.resolve(brother)),
                })
                .collect();
            seq.push(converted_body);
            ir::Expr::Seq(seq)
        };
        for (var, make) in creations.into_iter().rev() {
            result = ir::Expr::Let {
                var,
                rhs: Box::new(make),
                body: Box::new(result),
            };
        }
        result
    }

    /// Converts `let` bindings and their body.
    fn convert_let<'e>(
        &mut self,
        bindings: impl Iterator<Item = (VarId, &'e Expr<VarId>)>,
        body: &Expr<VarId>,
        ctx: &mut FnCtx,
        tail: bool,
    ) -> ir::Expr {
        // Parallel by construction: after alpha renaming no RHS can see
        // a sibling, so nested single lets are equivalent, and each
        // variable can be bound right after its own RHS.
        let rhss: Vec<(LocalId, ir::Expr)> = bindings
            .map(|(v, rhs)| {
                let rhs = self.convert(rhs, ctx, false);
                (ctx.bind(v), rhs)
            })
            .collect();
        let body = self.convert(body, ctx, tail);
        rhss.into_iter()
            .rev()
            .fold(body, |acc, (var, rhs)| ir::Expr::Let {
                var,
                rhs: Box::new(rhs),
                body: Box::new(acc),
            })
    }

    fn convert(&mut self, e: &Expr<VarId>, ctx: &mut FnCtx, tail: bool) -> ir::Expr {
        match e {
            Expr::Const(c) => ir::Expr::Const(c.clone()),
            Expr::Var(v) => {
                if let Some(k) = self.known.get(v).copied() {
                    // A known procedure escaping as a value: use its
                    // closure (the analysis guarantees it has one).
                    let cv = k
                        .closure_var
                        .expect("escaping known procedure must have a closure");
                    ctx.resolve(cv)
                } else {
                    ctx.resolve(*v)
                }
            }
            Expr::Global(g) => ir::Expr::Global(*g),
            Expr::GlobalSet(g, rhs) => {
                ir::Expr::GlobalSet(*g, Box::new(self.convert(rhs, ctx, false)))
            }
            Expr::Set(..) => {
                unreachable!("assignment conversion must run before closure conversion")
            }
            Expr::If(c, t, el) => ir::Expr::If(
                Box::new(self.convert(c, ctx, false)),
                Box::new(self.convert(t, ctx, tail)),
                Box::new(self.convert(el, ctx, tail)),
            ),
            Expr::Seq(es) => {
                let n = es.len();
                ir::Expr::Seq(
                    es.iter()
                        .enumerate()
                        .map(|(i, e)| self.convert(e, ctx, tail && i + 1 == n))
                        .collect(),
                )
            }
            Expr::Lambda(l) => {
                let id = self.fresh_func_id();
                let name = l.name.clone().unwrap_or_else(|| format!("lambda@{id}"));
                let free = self.convert_function(id, name, &l.params, &l.body);
                let free_values = free.iter().map(|v| ctx.resolve(*v)).collect();
                ir::Expr::MakeClosure {
                    func: id,
                    free: free_values,
                }
            }
            Expr::Let(bs, b) => self.convert_let(bs.iter().map(|(v, rhs)| (*v, rhs)), b, ctx, tail),
            Expr::Letrec(bs, b) => self.convert_letrec(bs, b, ctx, tail),
            Expr::App(f, args) => {
                // Immediate application of a lambda: beta-reduce to let.
                if let Expr::Lambda(l) = f.as_ref() {
                    if l.params.len() == args.len() {
                        let bindings = l.params.iter().copied().zip(args);
                        return self.convert_let(bindings, &l.body, ctx, tail);
                    }
                }
                let callee = match f.as_ref() {
                    Expr::Var(v) => match self.known.get(v).copied() {
                        Some(KnownBinding {
                            func,
                            closure_var: None,
                        }) => Callee::Direct(func),
                        Some(KnownBinding {
                            func,
                            closure_var: Some(cv),
                        }) => Callee::KnownClosure(func, Box::new(ctx.resolve(cv))),
                        None => Callee::Computed(Box::new(ctx.resolve(*v))),
                    },
                    other => Callee::Computed(Box::new(self.convert(other, ctx, false))),
                };
                ir::Expr::Call {
                    callee,
                    args: args.iter().map(|a| self.convert(a, ctx, false)).collect(),
                    tail,
                }
            }
            Expr::PrimApp(p, args) => ir::Expr::PrimApp(
                *p,
                args.iter().map(|a| self.convert(a, ctx, false)).collect(),
            ),
        }
    }
}

/// Closure-converts a whole program (the assembled, assignment-free
/// core expression). `interner` names the closure variables conversion
/// introduces.
///
/// # Panics
///
/// Panics if `e` still contains assignments (run
/// [`assignconv`](crate::assignconv) first), or, in a debug build, free
/// variables. (The renamer resolves every name it accepts, so a
/// release build skips that walk over the whole program.)
pub fn close_program(e: &Expr<VarId>, interner: &mut Interner, n_globals: u32) -> Program {
    debug_assert!(free_vars(e).is_empty(), "program expression must be closed");
    let mut c = Convert {
        funcs: Vec::new(),
        known: VarMap::default(),
        interner,
    };
    let main_id = c.fresh_func_id();
    let free = c.convert_function(main_id, "main".to_owned(), &[], e);
    assert!(free.is_empty(), "main cannot capture");
    let funcs = c
        .funcs
        .into_iter()
        .map(|f| f.expect("every allocated function is filled"))
        .collect();
    Program {
        funcs,
        main: main_id,
        n_globals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline;

    fn close(src: &str) -> Program {
        pipeline::front_to_closed(src).unwrap()
    }

    fn find<'a>(p: &'a Program, name: &str) -> &'a Func {
        p.funcs
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("no function named {name}"))
    }

    /// Every node of `e`, in pre-order.
    fn nodes(e: &ir::Expr) -> Vec<&ir::Expr> {
        let mut out = vec![e];
        e.for_each_child(&mut |c| out.extend(nodes(c)));
        out
    }

    /// The callee and tail flag of every call in `e`, in pre-order.
    fn calls(e: &ir::Expr) -> Vec<(&Callee, bool)> {
        nodes(e)
            .into_iter()
            .filter_map(|n| match n {
                ir::Expr::Call { callee, tail, .. } => Some((callee, *tail)),
                _ => None,
            })
            .collect()
    }

    fn tails(e: &ir::Expr) -> Vec<bool> {
        calls(e).into_iter().map(|(_, tail)| tail).collect()
    }

    #[test]
    fn top_level_defines_become_direct_calls() {
        let p = close("(define (f x) (+ x 1)) (f 41)");
        let f = find(&p, "f");
        assert_eq!(f.n_free, 0);
        let main = p.func(p.main);
        let directs = calls(&main.body)
            .into_iter()
            .filter(|(c, _)| matches!(c, Callee::Direct(_)))
            .count();
        assert_eq!(directs, 1);
    }

    #[test]
    fn capturing_loop_gets_closure() {
        let p = close("(define (f a) (let loop ((i 0)) (if (= i a) i (loop (+ i 1))))) (f 3)");
        let loop_fn = find(&p, "loop");
        assert_ne!(loop_fn.n_free, 0, "loop captures `a`");
        let f = find(&p, "f");
        let known_closure = calls(&f.body)
            .into_iter()
            .filter(|(c, _)| matches!(c, Callee::KnownClosure(..)))
            .count();
        assert!(known_closure >= 1);
    }

    #[test]
    fn escaping_procedure_gets_closure() {
        let p = close("(define (apply1 f x) (f x)) (define (g y) y) (apply1 g 5)");
        let g = find(&p, "g");
        assert_eq!(g.n_free, 0, "g captures nothing");
        // g escapes as a value, so main must build a closure for it.
        let main = p.func(p.main);
        let makes = nodes(&main.body)
            .into_iter()
            .filter(|n| matches!(n, ir::Expr::MakeClosure { .. }))
            .count();
        assert!(makes >= 1, "closure for g must be allocated");
    }

    #[test]
    fn mutual_recursion_direct_when_closed() {
        let p = close(
            "(define (even2? n) (if (zero? n) #t (odd2? (- n 1))))
             (define (odd2? n) (if (zero? n) #f (even2? (- n 1))))
             (even2? 10)",
        );
        assert_eq!(find(&p, "even2?").n_free, 0);
        assert_eq!(find(&p, "odd2?").n_free, 0);
    }

    #[test]
    fn mutual_recursion_with_capture_backpatches() {
        let p = close(
            "(define (f k)
               (letrec ((ping (lambda (n) (if (zero? n) k (pong (- n 1)))))
                        (pong (lambda (n) (ping n))))
                 (ping 4)))
             (f 7)",
        );
        // ping captures k (outer) and pong; pong captures ping.
        let ping = find(&p, "ping");
        assert_ne!(ping.n_free, 0);
        let f = find(&p, "f");
        let saw_patch = nodes(&f.body)
            .into_iter()
            .any(|n| matches!(n, ir::Expr::ClosureSet { .. }));
        assert!(saw_patch, "mutual closures require backpatching");
    }

    #[test]
    fn tail_positions_marked() {
        let p = close("(define (f n) (if (zero? n) 0 (f (- n 1)))) (f 5)");
        let f = find(&p, "f");
        assert_eq!(tails(&f.body), vec![true], "self call is a tail call");
        let main = p.func(p.main);
        assert_eq!(tails(&main.body), vec![true], "final call in main is tail");
    }

    #[test]
    fn non_tail_marked() {
        let p = close("(define (f n) (if (zero? n) 0 (+ 1 (f (- n 1))))) (f 5)");
        let f = find(&p, "f");
        assert_eq!(tails(&f.body), vec![false]);
    }

    #[test]
    fn immediate_lambda_application_is_let() {
        let p = close("((lambda (x) (+ x 1)) 41)");
        // No closure should be allocated for the immediate lambda.
        assert_eq!(
            p.funcs.len(),
            1,
            "only main exists: {:?}",
            p.funcs.iter().map(|f| &f.name).collect::<Vec<_>>()
        );
    }

    #[test]
    fn anonymous_lambda_as_value() {
        let p = close("(define (call f) (f 1)) (call (lambda (x) (* x 2)))");
        assert!(p.funcs.iter().any(|f| f.name.starts_with("lambda@")));
        let call = find(&p, "call");
        let computed = calls(&call.body)
            .into_iter()
            .filter(|(c, _)| matches!(c, Callee::Computed(_)))
            .count();
        assert_eq!(computed, 1);
    }

    #[test]
    fn params_get_low_indices() {
        let p = close("(define (f a b) (+ a b)) (f 1 2)");
        let f = p.funcs.iter().find(|f| f.name == "f").unwrap();
        assert_eq!(f.n_params, 2);
        assert_eq!(f.n_locals, 2);
        assert_eq!(f.body.to_string(), "(%+ x0 x1)");
    }

    #[test]
    fn let_vars_follow_params() {
        let p = close("(define (f a) (let ((t (+ a 1))) (* t t))) (f 1)");
        let f = p.funcs.iter().find(|f| f.name == "f").unwrap();
        assert_eq!(f.n_params, 1);
        assert_eq!(f.n_locals, 2);
    }

    #[test]
    fn let_var_numbered_right_after_its_own_rhs() {
        let p =
            close("(define (f p) (let ((a (let ((b p)) b)) (c (let ((d p)) d))) (+ a c))) (f 1)");
        assert_eq!(
            find(&p, "f").to_string(),
            "(define (f x0) (let ((x2 (let ((x1 x0)) x1))) \
             (let ((x4 (let ((x3 x0)) x3))) (%+ x2 x4))))"
        );
    }

    #[test]
    fn syntactic_leaf_detection() {
        let p = close(
            "(define (leaf x) (+ x 1))
             (define (internal x) (+ (leaf x) 1))
             (define (tail-only x) (leaf x))
             (internal (tail-only 1))",
        );
        let find = |n: &str| p.funcs.iter().find(|f| f.name == n).unwrap();
        assert!(find("leaf").is_syntactic_leaf());
        assert!(!find("internal").is_syntactic_leaf());
        // Tail calls are jumps, not calls.
        assert!(find("tail-only").is_syntactic_leaf());
    }

    #[test]
    fn free_refs_survive() {
        let p = close("(define (f a) (lambda (x) (+ x a))) ((f 1) 2)");
        let lam = p
            .funcs
            .iter()
            .find(|f| f.name.starts_with("lambda@"))
            .unwrap();
        assert_eq!(lam.n_free, 1);
        assert!(lam.body.to_string().contains("(free 0)"));
    }

    #[test]
    fn free_vars_basic() {
        use crate::desugar;
        use crate::rename::Renamer;
        use lesgs_sexpr::read;
        let surface = desugar::expr(&read("(lambda (x) (+ x y))").unwrap()[0]).unwrap();
        let mut r = Renamer::new();
        let y = r.bind("y");
        let renamed = r.rename(&surface).unwrap();
        let fv = free_vars(&renamed);
        assert_eq!(fv.into_iter().collect::<Vec<_>>(), vec![y]);
    }

    /// The one analysis over both ASTs: binders shadow, a name stays
    /// bound after an inner binder of the same name goes out of scope,
    /// and `set!` of an unbound name makes it free.
    #[test]
    fn free_vars_respects_shadowing_on_both_asts() {
        use crate::desugar;
        use crate::rename::Renamer;
        use lesgs_sexpr::read;
        let src = "(begin \
                     (let ((y y)) y) \
                     (lambda (x) (begin (lambda (x) x) x (set! u x))) \
                     (letrec ((f (lambda (a) (g a))) (g (lambda (b) (f b k)))) (f x)) \
                     (let ((w 1)) (set! w 2)))";
        let surface = desugar::expr(&read(src).unwrap()[0]).unwrap();
        let free = ["k", "u", "x", "y"];
        assert_eq!(free_vars(&surface), BTreeSet::from(free));
        let mut r = Renamer::new();
        let ids: BTreeSet<VarId> = free.iter().map(|n| r.bind(n)).collect();
        let renamed = r.rename(&surface).unwrap();
        assert_eq!(free_vars(&renamed), ids);
    }
}
