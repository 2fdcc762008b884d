//! The greedy shrinker.
//!
//! Given a failing program and a predicate ("does this still fail?"),
//! repeatedly applies the first size-reducing rewrite that keeps the
//! failure alive, until no rewrite helps or the attempt budget runs
//! out. Rewrites are purely structural and sort-preserving, so every
//! candidate is a well-formed numeric program; candidates that break
//! scoping (e.g. removing a still-referenced definition) make the
//! oracle fail and are rejected by the predicate automatically.
//!
//! Rewrites, tried biggest-win first each round:
//!
//! 1. remove a whole definition;
//! 2. remove one parameter of a definition (and the matching argument
//!    at every call site);
//! 3. replace an expression with `0`, `1`, or one of its own
//!    subexpressions (pre-order, so roots shrink before leaves).
//!
//! Everything is deterministic: same input program + same predicate
//! behavior ⇒ same shrunk program.

use crate::ast::{Expr, Program};

/// Shrink-loop accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShrinkStats {
    /// Candidate programs evaluated.
    pub attempts: usize,
    /// Candidates accepted (size-reducing and still failing).
    pub accepted: usize,
}

/// Greedily minimizes `prog` while `still_fails` holds on the rendered
/// source. Returns the shrunk program and accounting.
pub fn shrink(
    prog: &Program,
    mut still_fails: impl FnMut(&str) -> bool,
    max_attempts: usize,
) -> (Program, ShrinkStats) {
    let mut current = prog.clone();
    let mut stats = ShrinkStats::default();
    'outer: loop {
        for cand in candidates(&current) {
            if stats.attempts >= max_attempts {
                break 'outer;
            }
            stats.attempts += 1;
            if still_fails(&cand.render()) {
                current = cand;
                stats.accepted += 1;
                continue 'outer;
            }
        }
        break;
    }
    (current, stats)
}

/// All single-step rewrites of `prog`, biggest wins first. Each is
/// strictly smaller than `prog`.
fn candidates(prog: &Program) -> Vec<Program> {
    let mut out = Vec::new();
    // 1. Drop a definition.
    for i in 0..prog.defs.len() {
        let mut p = prog.clone();
        p.defs.remove(i);
        out.push(p);
    }
    // 2. Drop a parameter (and its argument at every call site).
    for (i, def) in prog.defs.iter().enumerate() {
        for j in 0..def.params.len() {
            out.push(remove_param(prog, i, j));
        }
    }
    // 3. Rewrite one expression node.
    let nodes = collect_exprs(prog);
    for (k, node) in nodes.iter().enumerate() {
        for repl in node_replacements(node) {
            out.push(replace_expr(prog, k, &repl));
        }
    }
    out
}

/// Smaller stand-ins for one node: constants, then each direct numeric
/// subexpression (hoisting).
fn node_replacements(e: &Expr) -> Vec<Expr> {
    let mut out = Vec::new();
    if *e != Expr::Num(0) {
        out.push(Expr::Num(0));
    }
    if *e != Expr::Num(1) && !matches!(e, Expr::Num(_)) {
        out.push(Expr::Num(1));
    }
    if let Expr::Num(n) = e {
        if n.abs() > 1 {
            out.push(Expr::Num(n / 2));
        }
    }
    for child in direct_children(e) {
        out.push(child.clone());
    }
    out
}

fn direct_children(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::Num(_) | Expr::Var(_) => Vec::new(),
        Expr::If(_, t, el) => vec![t, el],
        Expr::Let(binds, body) => binds
            .iter()
            .map(|(_, e)| e)
            .chain(std::iter::once(&**body))
            .collect(),
        Expr::Prim(_, args) | Expr::Call(_, args) => args.iter().collect(),
        Expr::LetFun { body, .. } => vec![body],
        Expr::Loop { init, acc0, .. } => vec![init, acc0],
        Expr::Display(e, k) => vec![e, k],
    }
}

/// Clones `prog` with parameter `j` of definition `i` removed, along
/// with the `j`-th argument of every call to it. Call sites with a
/// different argument count are left alone (the predicate rejects the
/// candidate if that breaks the program).
fn remove_param(prog: &Program, i: usize, j: usize) -> Program {
    let mut p = prog.clone();
    let name = p.defs[i].name.clone();
    let arity = p.defs[i].params.len();
    visit_exprs_mut(&mut p, &mut |e| {
        if let Expr::Call(n, args) = e {
            if *n == name && args.len() == arity {
                args.remove(j);
            }
        }
    });
    p.defs[i].params.remove(j);
    p
}

/// Pre-order list of every [`Expr`] node (descending through predicate
/// operands). The index order matches [`replace_expr`].
fn collect_exprs(prog: &Program) -> Vec<&Expr> {
    let mut out = Vec::new();
    for body in prog.defs.iter().map(|d| &d.body).chain([&prog.main]) {
        body.visit(&mut |e| out.push(e), &mut |_| {});
    }
    out
}

/// Clones `prog` with pre-order expression node `k` replaced.
fn replace_expr(prog: &Program, k: usize, replacement: &Expr) -> Program {
    let mut p = prog.clone();
    let mut counter = 0;
    visit_exprs_mut(&mut p, &mut |e| {
        if counter == k {
            *e = replacement.clone();
        }
        counter += 1;
    });
    p
}

/// Calls `f` on every [`Expr`] node of `prog` in the pre-order of
/// [`collect_exprs`]: definition bodies in order, then main.
fn visit_exprs_mut(prog: &mut Program, f: &mut impl FnMut(&mut Expr)) {
    let bodies = prog.defs.iter_mut().map(|d| &mut d.body);
    for body in bodies.chain([&mut prog.main]) {
        body.visit_mut(f, &mut |_| {});
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use lesgs_testkit::Rng;

    /// A synthetic failure: "the source mentions f0 applied to
    /// something". The shrinker must cut everything else away.
    #[test]
    fn shrinks_synthetic_failure_to_a_tiny_program() {
        let prog = generate(&mut Rng::new(7), &GenConfig::default());
        assert!(prog.render().contains("(f0"), "seed 7 calls f0");
        let (small, stats) = shrink(&prog, |src| src.contains("(f0"), 20_000);
        assert!(stats.accepted > 0, "some rewrite must land");
        assert!(small.render().contains("(f0"));
        assert!(
            small.size() <= 12,
            "shrunk to {} nodes:\n{}",
            small.size(),
            small.render()
        );
    }

    #[test]
    fn shrinking_is_deterministic() {
        let prog = generate(&mut Rng::new(11), &GenConfig::default());
        let (a, _) = shrink(&prog, |src| src.contains("remainder"), 5_000);
        let (b, _) = shrink(&prog, |src| src.contains("remainder"), 5_000);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn replace_expr_hits_every_index_once() {
        let prog = generate(&mut Rng::new(3), &GenConfig::default());
        let nodes = collect_exprs(&prog);
        // Replacing node k with a sentinel puts exactly one sentinel in
        // the program.
        for k in [0, nodes.len() / 2, nodes.len() - 1] {
            let p = replace_expr(&prog, k, &Expr::Num(424_242));
            let mut hits = 0;
            let count = |e: &Expr| {
                if *e == Expr::Num(424_242) {
                    return 1;
                }
                0
            };
            p.main.visit(&mut |e| hits += count(e), &mut |_| {});
            for d in &p.defs {
                d.body.visit(&mut |e| hits += count(e), &mut |_| {});
            }
            assert_eq!(hits, 1, "index {k}");
        }
    }
}
