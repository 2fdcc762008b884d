//! The seeded program generator.
//!
//! Emits closed, well-typed, *terminating* programs over the
//! LANGUAGE.md subset, biased toward what the paper's allocator has to
//! get right: deep trees of calls, many-argument calls (beyond the six
//! argument registers, so arguments spill to the stack), `letrec`
//! cycles of mutually recursive procedures, and mixes of tail and
//! non-tail calls.
//!
//! # Why every generated program terminates
//!
//! * Every top-level procedure takes the depth guard `d` first, its
//!   body is `(if (<= d 0) base recur)`, and same-group (recursive)
//!   calls always pass `(- d 1)`.
//! * Calls *across* groups only target earlier groups (a DAG), with the
//!   depth argument bounded by a small literal or `(remainder … k)`.
//! * Named-`let` loops run at most a small bounded iteration count and
//!   local lambdas contain no calls at all.
//!
//! # Why outputs are comparable across backends
//!
//! Argument evaluation order is unspecified (the greedy shuffler picks
//! it per call site), so `display` must never execute inside a call
//! argument. The generator therefore keeps every procedure pure and
//! emits `display` only on the spine of the main expression.
//!
//! # Why arithmetic cannot overflow
//!
//! Multiplication is always wrapped in `(remainder … 9973)`, divisors
//! are positive literals, and loop accumulators reduce modulo `99991`,
//! so values stay far below `i64::MAX` even through deep sum trees.

use lesgs_testkit::Rng;

use crate::ast::{Def, Expr, Pred, Program};

/// Bump whenever generation changes for a given seed: a reproduction
/// recipe is only valid for the generator version it names.
///
/// Version history: 2 added permuted tail calls (recursive calls that
/// pass the caller's own parameters rotated, producing register
/// permutation cycles at the shuffle).
pub const GENERATOR_VERSION: u32 = 2;

/// Generator tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Approximate AST-node budget per program.
    pub max_size: usize,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig { max_size: 160 }
    }
}

/// A callable procedure signature.
#[derive(Debug, Clone)]
struct FuncSig {
    name: String,
    /// Parameters beyond the depth guard.
    extra: usize,
}

/// Everything visible at a generation site.
#[derive(Debug, Clone, Default)]
struct Scope {
    /// Numeric variables in scope.
    vars: Vec<String>,
    /// The depth-guard variable, inside a procedure body.
    depth_var: Option<String>,
    /// Same-group procedures (recursive targets; calls decrement `d`).
    rec: Vec<FuncSig>,
    /// Earlier-group procedures (calls pass a small bounded depth).
    cross: Vec<FuncSig>,
    /// Let-bound lambdas: name and arity.
    locals: Vec<(String, usize)>,
}

struct GenState<'a> {
    rng: &'a mut Rng,
    budget: isize,
    fresh: usize,
    /// Remaining call sites allowed in the current procedure body —
    /// bounds the activation tree (branching^depth) and with it the
    /// fuel a generated program can consume.
    calls_left: i32,
}

impl GenState<'_> {
    fn fresh(&mut self, prefix: &str) -> String {
        self.fresh += 1;
        format!("{prefix}{}", self.fresh)
    }

    fn spend(&mut self) {
        self.budget -= 1;
    }

    fn small_num(&mut self) -> Expr {
        Expr::Num(self.rng.range_i64(-9, 9))
    }

    fn leaf(&mut self, scope: &Scope) -> Expr {
        self.spend();
        if scope.vars.is_empty() || self.rng.chance(2, 5) {
            self.small_num()
        } else {
            Expr::Var(self.rng.pick(&scope.vars).clone())
        }
    }

    fn gen_pred(&mut self, scope: &Scope, depth: u32) -> Pred {
        self.spend();
        let d = depth.saturating_sub(1);
        if depth == 0 || self.budget <= 0 {
            return Pred::Test("odd?", Box::new(self.leaf(scope)));
        }
        match self.rng.weighted(&[4, 4, 1, 1, 1]) {
            0 => {
                let op = *self
                    .rng
                    .pick(&["zero?", "odd?", "even?", "positive?", "negative?"]);
                Pred::Test(op, Box::new(self.gen_expr(scope, d)))
            }
            1 => {
                let op = *self.rng.pick(&["<", "<=", ">", ">=", "="]);
                Pred::Cmp(
                    op,
                    Box::new(self.gen_expr(scope, d)),
                    Box::new(self.gen_expr(scope, d)),
                )
            }
            2 => Pred::Not(Box::new(self.gen_pred(scope, d))),
            3 => Pred::And(
                Box::new(self.gen_pred(scope, d)),
                Box::new(self.gen_pred(scope, d)),
            ),
            _ => Pred::Or(
                Box::new(self.gen_pred(scope, d)),
                Box::new(self.gen_pred(scope, d)),
            ),
        }
    }

    fn gen_arith(&mut self, scope: &Scope, depth: u32) -> Expr {
        self.spend();
        let d = depth.saturating_sub(1);
        match self.rng.weighted(&[4, 3, 2, 2, 2]) {
            0 => {
                let op = if self.rng.chance(1, 2) { "+" } else { "-" };
                let n = 2 + self.rng.below(2); // binary or ternary (folded)
                Expr::Prim(op, (0..n).map(|_| self.gen_expr(scope, d)).collect())
            }
            1 => Expr::Prim(
                "remainder",
                vec![
                    Expr::Prim("*", vec![self.gen_expr(scope, d), self.gen_expr(scope, d)]),
                    Expr::Num(9973),
                ],
            ),
            2 => {
                let op = *self.rng.pick(&["quotient", "remainder", "modulo"]);
                let divisor = 2 + self.rng.below(96) as i64;
                Expr::Prim(op, vec![self.gen_expr(scope, d), Expr::Num(divisor)])
            }
            3 => {
                let op = *self.rng.pick(&["add1", "sub1", "abs"]);
                Expr::Prim(op, vec![self.gen_expr(scope, d)])
            }
            _ => {
                let op = if self.rng.chance(1, 2) { "min" } else { "max" };
                Expr::Prim(op, vec![self.gen_expr(scope, d), self.gen_expr(scope, d)])
            }
        }
    }

    /// A call to anything callable here; `None` when nothing is (or the
    /// per-body call budget ran out).
    fn gen_call(&mut self, scope: &Scope, depth: u32) -> Option<Expr> {
        if self.calls_left <= 0 {
            return None;
        }
        let d = depth.saturating_sub(1);
        // Candidate classes with at least one member.
        let mut classes: Vec<u8> = Vec::new();
        if !scope.rec.is_empty() && scope.depth_var.is_some() {
            classes.push(0);
        }
        if !scope.cross.is_empty() {
            classes.push(1);
        }
        if !scope.locals.is_empty() {
            classes.push(2);
        }
        if classes.is_empty() {
            return None;
        }
        let class = *self.rng.pick(&classes);
        self.calls_left -= 1;
        self.spend();
        Some(match class {
            0 => {
                let sig = self.rng.pick(&scope.rec).clone();
                let guard = scope.depth_var.clone().expect("checked above");
                let mut args = vec![Expr::Prim("-", vec![Expr::Var(guard), Expr::Num(1)])];
                args.extend((0..sig.extra).map(|_| self.gen_expr(scope, d)));
                Expr::Call(sig.name, args)
            }
            1 => {
                let sig = self.rng.pick(&scope.cross).clone();
                // A small bounded depth: literal, or any value squashed
                // into -2..=2.
                let first = if self.rng.chance(2, 3) {
                    Expr::Num(self.rng.range_i64(0, 3))
                } else {
                    Expr::Prim("remainder", vec![self.gen_expr(scope, d), Expr::Num(3)])
                };
                let mut args = vec![first];
                args.extend((0..sig.extra).map(|_| self.gen_expr(scope, d)));
                Expr::Call(sig.name, args)
            }
            _ => {
                let (name, arity) = self.rng.pick(&scope.locals).clone();
                Expr::Call(name, (0..arity).map(|_| self.gen_expr(scope, d)).collect())
            }
        })
    }

    fn gen_expr(&mut self, scope: &Scope, depth: u32) -> Expr {
        if depth == 0 || self.budget <= 0 {
            return self.leaf(scope);
        }
        let d = depth - 1;
        match self.rng.weighted(&[3, 5, 2, 2, 5, 1, 1]) {
            0 => self.leaf(scope),
            1 => self.gen_arith(scope, depth),
            2 => {
                self.spend();
                let p = self.gen_pred(scope, d.min(2));
                Expr::If(
                    Box::new(p),
                    Box::new(self.gen_expr(scope, d)),
                    Box::new(self.gen_expr(scope, d)),
                )
            }
            3 => {
                self.spend();
                let n = 1 + self.rng.below(3);
                let mut inner = scope.clone();
                let binds: Vec<(String, Expr)> = (0..n)
                    .map(|_| {
                        // RHS sees the outer scope only (parallel let).
                        let rhs = self.gen_expr(scope, d);
                        (self.fresh("v"), rhs)
                    })
                    .collect();
                inner.vars.extend(binds.iter().map(|(v, _)| v.clone()));
                Expr::Let(binds, Box::new(self.gen_expr(&inner, d)))
            }
            4 => self
                .gen_call(scope, depth)
                .unwrap_or_else(|| self.gen_arith(scope, depth)),
            5 => {
                self.spend();
                let name = self.fresh("g");
                let arity = 1 + self.rng.below(3);
                let params: Vec<String> = (0..arity).map(|_| self.fresh("q")).collect();
                // The lambda body is pure arithmetic over its params
                // and captured variables (captures force a closure).
                let mut lam_scope = Scope {
                    vars: scope
                        .vars
                        .iter()
                        .cloned()
                        .chain(params.iter().cloned())
                        .collect(),
                    ..Scope::default()
                };
                lam_scope.vars.truncate(12);
                let fbody = self.gen_arith(&lam_scope, d.min(2));
                let mut inner = scope.clone();
                inner.locals.push((name.clone(), arity));
                Expr::LetFun {
                    name,
                    params,
                    fbody: Box::new(fbody),
                    body: Box::new(self.gen_expr(&inner, d)),
                }
            }
            _ => {
                self.spend();
                let name = self.fresh("lp");
                // Bounded iteration count.
                let init = if self.rng.chance(1, 2) {
                    Expr::Num(self.rng.range_i64(0, 12))
                } else {
                    Expr::Prim("remainder", vec![self.gen_expr(scope, d), Expr::Num(13)])
                };
                let acc0 = self.gen_expr(scope, d.min(2));
                let mut inner = scope.clone();
                inner.vars.push(format!("{name}i"));
                inner.vars.push(format!("{name}a"));
                let step = self.gen_expr(&inner, d.min(3));
                Expr::Loop {
                    name,
                    init: Box::new(init),
                    acc0: Box::new(acc0),
                    step: Box::new(step),
                }
            }
        }
    }

    /// The `recur` branch of a procedure body: always embeds at least
    /// one same-group call so recursion (and save placement around it)
    /// is actually exercised.
    fn gen_recur(&mut self, scope: &Scope, depth: u32) -> Expr {
        let forced = self
            .gen_call_forced_rec(scope, depth)
            .unwrap_or_else(|| self.leaf(scope));
        match self.rng.weighted(&[3, 3, 2, 2]) {
            // Direct tail call.
            0 => forced,
            // Non-tail: the call's result feeds arithmetic.
            1 => Expr::Prim("+", vec![forced, self.gen_expr(scope, depth.min(3))]),
            // Non-tail via let binding.
            2 => {
                let v = self.fresh("r");
                let mut inner = scope.clone();
                inner.vars.push(v.clone());
                let body = self.gen_expr(&inner, depth.min(3));
                Expr::Let(
                    vec![(v.clone(), forced)],
                    Box::new(Expr::Prim("+", vec![Expr::Var(v), body])),
                )
            }
            // Conditional: tail call on one arm.
            _ => {
                let p = self.gen_pred(scope, 2);
                let other = self.gen_expr(scope, depth.min(3));
                if self.rng.chance(1, 2) {
                    Expr::If(Box::new(p), Box::new(forced), Box::new(other))
                } else {
                    Expr::If(Box::new(p), Box::new(other), Box::new(forced))
                }
            }
        }
    }

    fn gen_call_forced_rec(&mut self, scope: &Scope, depth: u32) -> Option<Expr> {
        if scope.rec.is_empty() {
            return None;
        }
        self.calls_left -= 1;
        self.spend();
        let d = depth.saturating_sub(1);
        let sig = self.rng.pick(&scope.rec).clone();
        let guard = scope.depth_var.clone()?;
        let mut args = vec![Expr::Prim(
            "-",
            vec![Expr::Var(guard.clone()), Expr::Num(1)],
        )];
        // Shuffle-heavy shape: pass the caller's own variables rotated,
        // so every argument is a register-resident variable and the
        // call's shuffle is a genuine permutation cycle (the case
        // greedy shuffling must break with a temporary).
        let own: Vec<&String> = scope.vars.iter().filter(|v| **v != guard).collect();
        if sig.extra >= 2 && own.len() >= sig.extra && self.rng.chance(1, 3) {
            let offset = 1 + self.rng.below(sig.extra - 1);
            for i in 0..sig.extra {
                args.push(Expr::Var(own[(i + offset) % sig.extra].clone()));
            }
        } else {
            args.extend((0..sig.extra).map(|_| self.gen_expr(scope, d)));
        }
        Some(Expr::Call(sig.name, args))
    }
}

/// Generates one program from the given seed stream.
pub fn generate(rng: &mut Rng, cfg: &GenConfig) -> Program {
    let mut st = GenState {
        rng,
        budget: cfg.max_size as isize,
        fresh: 0,
        calls_left: 0,
    };
    let n_groups = 1 + st.rng.below(3);
    let mut defs: Vec<Def> = Vec::new();
    let mut cross: Vec<FuncSig> = Vec::new();
    let mut fidx = 0usize;
    for gi in 0..n_groups {
        // Respect small budgets: later groups only start while budget
        // remains. (Safe at group boundaries only — inside a group the
        // signatures already cross-reference each other.)
        if gi > 0 && st.budget <= 0 {
            break;
        }
        // Group size > 1 makes the defines a letrec cycle.
        let group_size = 1 + st.rng.weighted(&[3, 3, 2]);
        let group: Vec<FuncSig> = (0..group_size)
            .map(|_| {
                // Extra params beyond `d`; 6-7 exceed the six argument
                // registers, forcing stack-passed arguments.
                let extra = st.rng.weighted(&[1, 3, 4, 4, 3, 2, 2, 1]);
                let sig = FuncSig {
                    name: format!("f{fidx}"),
                    extra,
                };
                fidx += 1;
                sig
            })
            .collect();
        for sig in &group {
            let params: Vec<String> = std::iter::once("d".to_owned())
                .chain((0..sig.extra).map(|i| format!("p{i}")))
                .collect();
            let scope = Scope {
                vars: params.clone(),
                depth_var: Some("d".to_owned()),
                rec: group.clone(),
                cross: cross.clone(),
                locals: Vec::new(),
            };
            st.calls_left = 3;
            let base_scope = Scope {
                rec: Vec::new(),
                depth_var: None,
                ..scope.clone()
            };
            let base = st.gen_expr(&base_scope, 3);
            let recur = st.gen_recur(&scope, 5);
            let body = Expr::If(
                Box::new(Pred::Cmp(
                    "<=",
                    Box::new(Expr::Var("d".to_owned())),
                    Box::new(Expr::Num(0)),
                )),
                Box::new(base),
                Box::new(recur),
            );
            defs.push(Def {
                name: sig.name.clone(),
                params,
                body,
            });
        }
        cross.extend(group);
    }

    // Main: a display spine over call-heavy pure expressions. Calls
    // from main get literal depths, the roots of the activation trees.
    let main_scope = Scope {
        cross,
        ..Scope::default()
    };
    st.calls_left = 4;
    let mut main = {
        // Bias the final expression toward a call.
        let sig = st.rng.pick(&main_scope.cross).clone();
        let mut args = vec![Expr::Num(st.rng.range_i64(2, 5))];
        args.extend((0..sig.extra).map(|_| st.gen_expr(&main_scope, 3)));
        Expr::Call(sig.name, args)
    };
    let n_stmts = st.rng.below(3);
    for _ in 0..n_stmts {
        st.calls_left = 2;
        let shown = st.gen_expr(&main_scope, 4);
        main = Expr::Display(Box::new(shown), Box::new(main));
    }
    Program { defs, main }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_a_seed() {
        for seed in 0..32 {
            let a = generate(&mut Rng::new(seed), &GenConfig::default());
            let b = generate(&mut Rng::new(seed), &GenConfig::default());
            assert_eq!(a.render(), b.render(), "seed {seed}");
        }
    }

    #[test]
    fn respects_size_budget_roughly() {
        let cfg = GenConfig { max_size: 40 };
        for seed in 0..32 {
            let p = generate(&mut Rng::new(seed), &cfg);
            // The budget is approximate (a node in flight may finish
            // its children), but it cannot be blown past wholesale.
            assert!(p.size() < 40 * 4, "seed {seed}: size {}", p.size());
        }
    }

    #[test]
    fn some_recursive_calls_are_pure_permutations() {
        // The permuted-tail-call shape must actually appear: calls
        // whose every argument past the depth guard is a bare variable.
        let mut permuted = 0;
        for seed in 0..64 {
            let p = generate(&mut Rng::new(seed), &GenConfig::default());
            let mut found = false;
            let mut check = |e: &Expr| {
                if let Expr::Call(_, args) = e {
                    if args.len() >= 3 && args[1..].iter().all(|a| matches!(a, Expr::Var(_))) {
                        found = true;
                    }
                }
            };
            for d in &p.defs {
                d.body.visit(&mut check, &mut |_| {});
            }
            permuted += usize::from(found);
        }
        assert!(permuted >= 12, "only {permuted}/64 had permuted calls");
    }

    #[test]
    fn programs_are_call_heavy() {
        let mut with_calls = 0;
        for seed in 0..64 {
            let p = generate(&mut Rng::new(seed), &GenConfig::default());
            let mut calls = 0;
            let count = |e: &Expr| {
                if matches!(e, Expr::Call(..)) {
                    return true;
                }
                false
            };
            p.main
                .visit(&mut |e| calls += usize::from(count(e)), &mut |_| {});
            for d in &p.defs {
                d.body
                    .visit(&mut |e| calls += usize::from(count(e)), &mut |_| {});
            }
            if calls >= 2 {
                with_calls += 1;
            }
        }
        assert!(with_calls >= 56, "only {with_calls}/64 were call-heavy");
    }
}
