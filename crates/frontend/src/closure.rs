//! Closure conversion: from lexically-scoped lambdas to a first-order
//! program.
//!
//! Every lambda becomes a [`ClosedFunc`] whose body refers to captured
//! variables through an explicit free list (`FreeRef` indices resolved
//! via the closure-pointer register at run time, mirroring the paper's
//! run-time model).
//!
//! `letrec`-bound procedures are analyzed as a group:
//!
//! * procedures with no captured variables that are only used in
//!   operator position compile to **direct calls** with no closure at
//!   all (typical for top-level defines);
//! * procedures that capture variables or escape as values get heap
//!   closures; mutually recursive closures are created with placeholder
//!   slots and backpatched (`ClosureSet`).

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;

use crate::ast::{Const, Expr, Lambda};
use crate::names::{Interner, VarId};
use crate::prim::Prim;

/// Identifies a first-order function in a [`ClosedProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

impl FuncId {
    /// Index into [`ClosedProgram::funcs`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// How a call site reaches its target.
#[derive(Debug, Clone, PartialEq)]
pub enum Callee {
    /// A known function with no closure: a plain jump/call to a label.
    Direct(FuncId),
    /// A known function whose closure (for its free variables) is the
    /// given expression; the code label is still static.
    KnownClosure(FuncId, Box<CExpr>),
    /// An unknown procedure value; both code and environment come from
    /// the closure object.
    Computed(Box<CExpr>),
}

/// A closure-converted expression.
#[derive(Debug, Clone, PartialEq)]
pub enum CExpr {
    /// A constant.
    Const(Const),
    /// A parameter or let-bound variable of the current function.
    Local(VarId),
    /// The `i`-th captured variable, read through the closure pointer.
    FreeRef(u32),
    /// A top-level global location.
    Global(u32),
    /// Assignment to a global location.
    GlobalSet(u32, Box<CExpr>),
    /// Two-way conditional.
    If(Box<CExpr>, Box<CExpr>, Box<CExpr>),
    /// Sequencing; at least one expression.
    Seq(Vec<CExpr>),
    /// A single local binding.
    Let(VarId, Box<CExpr>, Box<CExpr>),
    /// Primitive application.
    PrimApp(Prim, Vec<CExpr>),
    /// A procedure call. `tail` is true when the call is in tail
    /// position (a jump in the paper's model, not a call).
    Call {
        /// Call target.
        callee: Callee,
        /// Argument expressions, unevaluated and unordered — the
        /// allocator's greedy shuffler picks the order.
        args: Vec<CExpr>,
        /// Tail position flag.
        tail: bool,
    },
    /// Heap-allocates a closure for `func`, capturing the given values
    /// (which line up with the function's free list).
    MakeClosure {
        /// Target function.
        func: FuncId,
        /// Captured values in free-list order.
        free: Vec<CExpr>,
    },
    /// Backpatches slot `index` of a closure (used to tie recursive
    /// knots among mutually recursive closures).
    ClosureSet {
        /// Expression yielding the closure to patch.
        clo: Box<CExpr>,
        /// Slot index in the closure's free list.
        index: u32,
        /// New value for the slot.
        value: Box<CExpr>,
    },
}

/// A first-order function produced by closure conversion.
#[derive(Debug, Clone)]
pub struct ClosedFunc {
    /// This function's id (equal to its index in the program).
    pub id: FuncId,
    /// Diagnostic name.
    pub name: String,
    /// Parameters, left to right.
    pub params: Vec<VarId>,
    /// Captured variables, in `FreeRef` index order.
    pub free: Vec<VarId>,
    /// The body, with `tail` flags set.
    pub body: CExpr,
}

impl ClosedFunc {
    /// True if the function captures nothing and therefore needs no
    /// closure object.
    pub fn is_closed(&self) -> bool {
        self.free.is_empty()
    }
}

/// A complete closure-converted program.
#[derive(Debug, Clone)]
pub struct ClosedProgram {
    /// All functions; `FuncId(i)` is `funcs[i]`.
    pub funcs: Vec<ClosedFunc>,
    /// The entry function (zero parameters, no free variables).
    pub main: FuncId,
    /// Variable names for diagnostics.
    pub interner: Interner,
    /// Number of top-level global locations.
    pub n_globals: u32,
}

impl ClosedProgram {
    /// Looks up a function by id.
    pub fn func(&self, id: FuncId) -> &ClosedFunc {
        &self.funcs[id.index()]
    }
}

/// Computes the free variables of `e` in deterministic order.
pub fn free_vars(e: &Expr<VarId>) -> BTreeSet<VarId> {
    let mut out = BTreeSet::new();
    walk_free(e, &mut HashSet::new(), &mut out);
    out
}

/// Computes the free variables of a lambda in deterministic order
/// (the same set as [`free_vars`] of `Expr::Lambda(l)`).
pub(crate) fn free_vars_lambda(l: &Lambda<VarId>) -> BTreeSet<VarId> {
    let mut out = BTreeSet::new();
    walk_free_lambda(l, &mut HashSet::new(), &mut out);
    out
}

fn walk_free_lambda(l: &Lambda<VarId>, bound: &mut HashSet<VarId>, out: &mut BTreeSet<VarId>) {
    let added: Vec<VarId> = l
        .params
        .iter()
        .filter(|p| bound.insert(**p))
        .copied()
        .collect();
    walk_free(&l.body, bound, out);
    for p in added {
        bound.remove(&p);
    }
}

fn walk_free(e: &Expr<VarId>, bound: &mut HashSet<VarId>, out: &mut BTreeSet<VarId>) {
    match e {
        Expr::Const(_) | Expr::Global(_) => {}
        Expr::Var(v) => {
            if !bound.contains(v) {
                out.insert(*v);
            }
        }
        Expr::Set(v, rhs) => {
            if !bound.contains(v) {
                out.insert(*v);
            }
            walk_free(rhs, bound, out);
        }
        Expr::GlobalSet(_, rhs) => walk_free(rhs, bound, out),
        Expr::If(c, t, el) => {
            walk_free(c, bound, out);
            walk_free(t, bound, out);
            walk_free(el, bound, out);
        }
        Expr::Seq(es) => es.iter().for_each(|e| walk_free(e, bound, out)),
        Expr::Lambda(l) => walk_free_lambda(l, bound, out),
        Expr::Let(bs, b) => {
            for (_, rhs) in bs {
                walk_free(rhs, bound, out);
            }
            let added: Vec<VarId> = bs
                .iter()
                .filter(|(v, _)| bound.insert(*v))
                .map(|(v, _)| *v)
                .collect();
            walk_free(b, bound, out);
            for v in added {
                bound.remove(&v);
            }
        }
        Expr::Letrec(bs, b) => {
            let added: Vec<VarId> = bs
                .iter()
                .filter(|(v, _)| bound.insert(*v))
                .map(|(v, _)| *v)
                .collect();
            for (_, l) in bs {
                walk_free_lambda(l, bound, out);
            }
            walk_free(b, bound, out);
            for v in added {
                bound.remove(&v);
            }
        }
        Expr::App(f, args) => {
            walk_free(f, bound, out);
            args.iter().for_each(|a| walk_free(a, bound, out));
        }
        Expr::PrimApp(_, args) => args.iter().for_each(|a| walk_free(a, bound, out)),
    }
}

/// Collects value-position and operator-position references to `names`.
pub(crate) fn reference_kinds(
    e: &Expr<VarId>,
    names: &HashSet<VarId>,
    operator: &mut HashSet<VarId>,
    value: &mut HashSet<VarId>,
) {
    match e {
        Expr::Const(_) | Expr::Global(_) => {}
        Expr::Var(v) => {
            if names.contains(v) {
                value.insert(*v);
            }
        }
        Expr::Set(_, rhs) | Expr::GlobalSet(_, rhs) => reference_kinds(rhs, names, operator, value),
        Expr::If(c, t, el) => {
            reference_kinds(c, names, operator, value);
            reference_kinds(t, names, operator, value);
            reference_kinds(el, names, operator, value);
        }
        Expr::Seq(es) => es
            .iter()
            .for_each(|e| reference_kinds(e, names, operator, value)),
        Expr::Lambda(l) => reference_kinds(&l.body, names, operator, value),
        Expr::Let(bs, b) => {
            bs.iter()
                .for_each(|(_, rhs)| reference_kinds(rhs, names, operator, value));
            reference_kinds(b, names, operator, value);
        }
        Expr::Letrec(bs, b) => {
            bs.iter()
                .for_each(|(_, l)| reference_kinds(&l.body, names, operator, value));
            reference_kinds(b, names, operator, value);
        }
        Expr::App(f, args) => {
            match f.as_ref() {
                Expr::Var(v) if names.contains(v) => {
                    operator.insert(*v);
                }
                other => reference_kinds(other, names, operator, value),
            }
            args.iter()
                .for_each(|a| reference_kinds(a, names, operator, value));
        }
        Expr::PrimApp(_, args) => args
            .iter()
            .for_each(|a| reference_kinds(a, names, operator, value)),
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
    funcs: Vec<Option<ClosedFunc>>,
    known: HashMap<VarId, KnownBinding>,
    interner: &'a mut Interner,
}

/// Per-function conversion context tracking locals and captures.
struct FnCtx {
    locals: HashSet<VarId>,
    free_map: HashMap<VarId, u32>,
    free_list: Vec<VarId>,
}

impl FnCtx {
    fn new(params: &[VarId]) -> FnCtx {
        FnCtx {
            locals: params.iter().copied().collect(),
            free_map: HashMap::new(),
            free_list: Vec::new(),
        }
    }

    fn resolve(&mut self, v: VarId) -> CExpr {
        if self.locals.contains(&v) {
            CExpr::Local(v)
        } else {
            let idx = *self.free_map.entry(v).or_insert_with(|| {
                self.free_list.push(v);
                (self.free_list.len() - 1) as u32
            });
            CExpr::FreeRef(idx)
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
        let free = ctx.free_list;
        self.funcs[id.index()] = Some(ClosedFunc {
            id,
            name,
            params: params.to_vec(),
            free: free.clone(),
            body,
        });
        free
    }

    fn convert_letrec(
        &mut self,
        bindings: &[(VarId, Lambda<VarId>)],
        body: &Expr<VarId>,
        ctx: &mut FnCtx,
        tail: bool,
    ) -> CExpr {
        let group: HashSet<VarId> = bindings.iter().map(|(v, _)| *v).collect();

        // --- analysis -------------------------------------------------
        // refs_in[i] = brothers referenced from i's body (any position);
        // value_refs = brothers referenced as values anywhere.
        let mut value_refs = HashSet::new();
        let mut refs_in: HashMap<VarId, BTreeSet<VarId>> = HashMap::new();
        for (v, l) in bindings {
            let mut op = HashSet::new();
            let mut val = HashSet::new();
            reference_kinds(&l.body, &group, &mut op, &mut val);
            value_refs.extend(val.iter().copied());
            refs_in.insert(*v, op.union(&val).copied().collect());
        }
        reference_kinds(body, &group, &mut HashSet::new(), &mut value_refs);

        // needs_closure fixpoint: seed with escaping-or-capturing
        // procedures, propagate to everything that references them.
        let mut needs: HashMap<VarId, bool> = HashMap::new();
        let mut outer_free: HashMap<VarId, BTreeSet<VarId>> = HashMap::new();
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
        let mut ids: HashMap<VarId, FuncId> = HashMap::new();
        let mut clo_vars: HashMap<VarId, VarId> = HashMap::new();
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
        let mut free_lists: HashMap<VarId, Vec<VarId>> = HashMap::new();
        for (v, l) in bindings {
            let name = l
                .name
                .clone()
                .unwrap_or_else(|| self.interner.name(*v).to_owned());
            let free = self.convert_function(ids[v], name, &l.params, &l.body);
            free_lists.insert(*v, free);
        }

        // --- emit closure creation + backpatching ----------------------
        let clo_var_set: HashSet<VarId> = clo_vars.values().copied().collect();
        let mut patches: Vec<(VarId, u32, VarId)> = Vec::new(); // (clo, slot, brother clo)
        let mut creations: Vec<(VarId, CExpr)> = Vec::new();
        for (v, _) in bindings {
            if !needs[v] {
                continue;
            }
            let cv = clo_vars[v];
            let mut free_values = Vec::new();
            for (slot, fv) in free_lists[v].iter().enumerate() {
                if clo_var_set.contains(fv) {
                    // Brother closure: placeholder now, patch below.
                    free_values.push(CExpr::Const(Const::Void));
                    patches.push((cv, slot as u32, *fv));
                } else {
                    free_values.push(ctx.resolve(*fv));
                }
            }
            creations.push((
                cv,
                CExpr::MakeClosure {
                    func: ids[v],
                    free: free_values,
                },
            ));
            ctx.locals.insert(cv);
        }

        let converted_body = self.convert(body, ctx, tail);

        let mut result = if patches.is_empty() {
            converted_body
        } else {
            let mut seq: Vec<CExpr> = patches
                .into_iter()
                .map(|(cv, slot, brother)| CExpr::ClosureSet {
                    clo: Box::new(CExpr::Local(cv)),
                    index: slot,
                    value: Box::new(CExpr::Local(brother)),
                })
                .collect();
            seq.push(converted_body);
            CExpr::Seq(seq)
        };
        for (cv, mk) in creations.into_iter().rev() {
            result = CExpr::Let(cv, Box::new(mk), Box::new(result));
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
    ) -> CExpr {
        // Parallel by construction: after alpha renaming no RHS can see
        // a sibling, so nested single lets are equivalent.
        let rhss: Vec<(VarId, CExpr)> = bindings
            .map(|(v, rhs)| (v, self.convert(rhs, ctx, false)))
            .collect();
        for (v, _) in &rhss {
            ctx.locals.insert(*v);
        }
        let body = self.convert(body, ctx, tail);
        rhss.into_iter().rev().fold(body, |acc, (v, rhs)| {
            CExpr::Let(v, Box::new(rhs), Box::new(acc))
        })
    }

    fn convert(&mut self, e: &Expr<VarId>, ctx: &mut FnCtx, tail: bool) -> CExpr {
        match e {
            Expr::Const(c) => CExpr::Const(c.clone()),
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
            Expr::Global(g) => CExpr::Global(*g),
            Expr::GlobalSet(g, rhs) => {
                CExpr::GlobalSet(*g, Box::new(self.convert(rhs, ctx, false)))
            }
            Expr::Set(..) => {
                unreachable!("assignment conversion must run before closure conversion")
            }
            Expr::If(c, t, el) => CExpr::If(
                Box::new(self.convert(c, ctx, false)),
                Box::new(self.convert(t, ctx, tail)),
                Box::new(self.convert(el, ctx, tail)),
            ),
            Expr::Seq(es) => {
                let n = es.len();
                CExpr::Seq(
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
                CExpr::MakeClosure {
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
                CExpr::Call {
                    callee,
                    args: args.iter().map(|a| self.convert(a, ctx, false)).collect(),
                    tail,
                }
            }
            Expr::PrimApp(p, args) => CExpr::PrimApp(
                *p,
                args.iter().map(|a| self.convert(a, ctx, false)).collect(),
            ),
        }
    }
}

/// Closure-converts a whole program (the assembled, assignment-free
/// core expression).
///
/// # Panics
///
/// Panics if `e` still contains assignments (run
/// [`assignconv`](crate::assignconv) first) or free variables.
pub fn close_program(e: &Expr<VarId>, mut interner: Interner, n_globals: u32) -> ClosedProgram {
    assert!(free_vars(e).is_empty(), "program expression must be closed");
    let mut c = Convert {
        funcs: Vec::new(),
        known: HashMap::new(),
        interner: &mut interner,
    };
    let main_id = c.fresh_func_id();
    let free = c.convert_function(main_id, "main".to_owned(), &[], e);
    assert!(free.is_empty(), "main cannot capture");
    let funcs = c
        .funcs
        .into_iter()
        .map(|f| f.expect("every allocated function is filled"))
        .collect();
    ClosedProgram {
        funcs,
        main: main_id,
        interner,
        n_globals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline;

    fn close(src: &str) -> ClosedProgram {
        pipeline::front_to_closed(src).unwrap()
    }

    fn find<'a>(p: &'a ClosedProgram, name: &str) -> &'a ClosedFunc {
        p.funcs
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("no function named {name}"))
    }

    fn count_calls(e: &CExpr, pred: &mut dyn FnMut(&Callee, bool)) {
        match e {
            CExpr::Const(_) | CExpr::Local(_) | CExpr::FreeRef(_) | CExpr::Global(_) => {}
            CExpr::GlobalSet(_, rhs) => count_calls(rhs, pred),
            CExpr::If(c, t, el) => {
                count_calls(c, pred);
                count_calls(t, pred);
                count_calls(el, pred);
            }
            CExpr::Seq(es) => es.iter().for_each(|e| count_calls(e, pred)),
            CExpr::Let(_, r, b) => {
                count_calls(r, pred);
                count_calls(b, pred);
            }
            CExpr::PrimApp(_, args) => args.iter().for_each(|a| count_calls(a, pred)),
            CExpr::Call { callee, args, tail } => {
                pred(callee, *tail);
                if let Callee::Computed(e) | Callee::KnownClosure(_, e) = callee {
                    count_calls(e, pred);
                }
                args.iter().for_each(|a| count_calls(a, pred));
            }
            CExpr::MakeClosure { free, .. } => free.iter().for_each(|f| count_calls(f, pred)),
            CExpr::ClosureSet { clo, value, .. } => {
                count_calls(clo, pred);
                count_calls(value, pred);
            }
        }
    }

    #[test]
    fn top_level_defines_become_direct_calls() {
        let p = close("(define (f x) (+ x 1)) (f 41)");
        let f = find(&p, "f");
        assert!(f.is_closed());
        let main = p.func(p.main);
        let mut directs = 0;
        count_calls(&main.body, &mut |c, _| {
            if matches!(c, Callee::Direct(_)) {
                directs += 1;
            }
        });
        assert_eq!(directs, 1);
    }

    #[test]
    fn capturing_loop_gets_closure() {
        let p = close("(define (f a) (let loop ((i 0)) (if (= i a) i (loop (+ i 1))))) (f 3)");
        let loop_fn = find(&p, "loop");
        assert!(!loop_fn.is_closed(), "loop captures `a`");
        let f = find(&p, "f");
        let mut known_closure = 0;
        count_calls(&f.body, &mut |c, _| {
            if matches!(c, Callee::KnownClosure(..)) {
                known_closure += 1;
            }
        });
        assert!(known_closure >= 1);
    }

    #[test]
    fn escaping_procedure_gets_closure() {
        let p = close("(define (apply1 f x) (f x)) (define (g y) y) (apply1 g 5)");
        let g = find(&p, "g");
        assert!(g.is_closed(), "g captures nothing");
        // g escapes as a value, so main must build a closure for it.
        let main = p.func(p.main);
        let mut makes = 0;
        fn walk(e: &CExpr, makes: &mut usize) {
            match e {
                CExpr::MakeClosure { .. } => *makes += 1,
                CExpr::If(a, b, c) => {
                    walk(a, makes);
                    walk(b, makes);
                    walk(c, makes);
                }
                CExpr::Seq(es) => es.iter().for_each(|e| walk(e, makes)),
                CExpr::Let(_, r, b) => {
                    walk(r, makes);
                    walk(b, makes);
                }
                CExpr::PrimApp(_, args) => args.iter().for_each(|a| walk(a, makes)),
                CExpr::Call { args, callee, .. } => {
                    if let Callee::Computed(e) | Callee::KnownClosure(_, e) = callee {
                        walk(e, makes);
                    }
                    args.iter().for_each(|a| walk(a, makes));
                }
                CExpr::ClosureSet { clo, value, .. } => {
                    walk(clo, makes);
                    walk(value, makes);
                }
                _ => {}
            }
        }
        walk(&main.body, &mut makes);
        assert!(makes >= 1, "closure for g must be allocated");
    }

    #[test]
    fn mutual_recursion_direct_when_closed() {
        let p = close(
            "(define (even2? n) (if (zero? n) #t (odd2? (- n 1))))
             (define (odd2? n) (if (zero? n) #f (even2? (- n 1))))
             (even2? 10)",
        );
        assert!(find(&p, "even2?").is_closed());
        assert!(find(&p, "odd2?").is_closed());
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
        assert!(!ping.is_closed());
        let f = find(&p, "f");
        let mut saw_patch = false;
        fn walk(e: &CExpr, saw: &mut bool) {
            match e {
                CExpr::ClosureSet { .. } => *saw = true,
                CExpr::If(a, b, c) => {
                    walk(a, saw);
                    walk(b, saw);
                    walk(c, saw);
                }
                CExpr::Seq(es) => es.iter().for_each(|e| walk(e, saw)),
                CExpr::Let(_, r, b) => {
                    walk(r, saw);
                    walk(b, saw);
                }
                _ => {}
            }
        }
        walk(&f.body, &mut saw_patch);
        assert!(saw_patch, "mutual closures require backpatching");
    }

    #[test]
    fn tail_positions_marked() {
        let p = close("(define (f n) (if (zero? n) 0 (f (- n 1)))) (f 5)");
        let f = find(&p, "f");
        let mut tails = Vec::new();
        count_calls(&f.body, &mut |_, t| tails.push(t));
        assert_eq!(tails, vec![true], "self call is a tail call");
        let main = p.func(p.main);
        let mut main_tails = Vec::new();
        count_calls(&main.body, &mut |_, t| main_tails.push(t));
        assert_eq!(main_tails, vec![true], "final call in main is tail");
    }

    #[test]
    fn non_tail_marked() {
        let p = close("(define (f n) (if (zero? n) 0 (+ 1 (f (- n 1))))) (f 5)");
        let f = find(&p, "f");
        let mut tails = Vec::new();
        count_calls(&f.body, &mut |_, t| tails.push(t));
        assert_eq!(tails, vec![false]);
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
        let mut computed = 0;
        count_calls(&call.body, &mut |c, _| {
            if matches!(c, Callee::Computed(_)) {
                computed += 1;
            }
        });
        assert_eq!(computed, 1);
    }

    #[test]
    fn free_vars_basic() {
        use crate::desugar;
        use crate::rename::Renamer;
        use lesgs_sexpr::parse_one;
        let surface = desugar::expr(&parse_one("(lambda (x) (+ x y))").unwrap()).unwrap();
        let mut r = Renamer::new();
        let y = r.bind("y");
        let renamed = r.rename(&surface).unwrap();
        let fv = free_vars(&renamed);
        assert_eq!(fv.into_iter().collect::<Vec<_>>(), vec![y]);
    }
}
