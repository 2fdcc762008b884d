//! Greedy argument shuffling (§2.3, §3.1).
//!
//! Setting up a call must move new argument values into argument
//! registers whose *old* values other arguments may still need. The
//! algorithm:
//!
//! 1. Partition arguments into *complex* (containing non-tail calls)
//!    and *simple*.
//! 2. Evaluate all but one complex argument into stack temporaries
//!    ("making a call would cause the previous arguments to be saved on
//!    the stack anyway"); pick as the directly-evaluated complex
//!    argument one on which no simple argument depends.
//! 3. Topologically order the simple arguments (and the temp-to-target
//!    moves) by register dependencies.
//! 4. On a cycle, greedily evaluate the argument causing the most
//!    dependencies into a temporary — a free argument register when
//!    possible, the stack otherwise.
//!
//! Finding the minimum number of temporaries is NP-complete (minimum
//! feedback vertex set); [`optimal_temp_count`] computes it by
//! exhaustive search for the §3.1 greedy-vs-optimal comparison.

use lesgs_ir::{Reg, RegSet};

use crate::alloc::{ArgRef, Dest, ShufflePlan, Step, TempLoc};

/// A shuffle destination before temp assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// An argument register (or `cp`).
    Reg(Reg),
    /// Outgoing stack argument `i` (callee's param `c + i`); tail
    /// calls copy these down into their parameter slots after the
    /// shuffle.
    Out(u32),
}

impl Target {
    fn dest(self) -> Dest {
        match self {
            Target::Reg(r) => Dest::Reg(r),
            Target::Out(i) => Dest::Out(i),
        }
    }
}

/// One argument of the shuffle problem.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Which argument this is.
    pub arg: ArgRef,
    /// Where its value must end up.
    pub target: Target,
    /// Argument registers (and `cp`) whose old values the expression
    /// reads.
    pub reads_regs: RegSet,
    /// True if the expression contains a non-tail call.
    pub complex: bool,
}

/// The full shuffle problem at one call site.
#[derive(Debug, Clone, Default)]
pub struct Problem {
    /// All arguments (including the closure targeting `cp`, if any).
    pub nodes: Vec<NodeSpec>,
    /// Registers usable as cycle-breaking temporaries (free argument
    /// registers).
    pub temp_regs: RegSet,
}

#[derive(Debug, Clone)]
enum GraphNode {
    Eval(usize), // index into problem.nodes
    Move { from: TempLoc, target: Target },
}

fn node_target(problem: &Problem, g: &GraphNode) -> Target {
    match g {
        GraphNode::Eval(i) => problem.nodes[*i].target,
        GraphNode::Move { target, .. } => *target,
    }
}

fn node_reads(problem: &Problem, g: &GraphNode) -> RegSet {
    match g {
        GraphNode::Eval(i) => problem.nodes[*i].reads_regs,
        GraphNode::Move {
            from: TempLoc::Reg(r),
            ..
        } => RegSet::single(*r),
        GraphNode::Move {
            from: TempLoc::Frame(_),
            ..
        } => RegSet::EMPTY,
    }
}

/// Does a reader of `reads` read `target`? Nothing reads an `Out`
/// slot.
fn reads_target(reads: RegSet, target: Target) -> bool {
    match target {
        Target::Reg(r) => reads.contains(r),
        Target::Out(_) => false,
    }
}

fn emit(problem: &Problem, g: &GraphNode) -> Step {
    match g {
        GraphNode::Eval(i) => Step::Eval {
            arg: problem.nodes[*i].arg,
            dst: problem.nodes[*i].target.dest(),
        },
        GraphNode::Move { from, target } => Step::Move {
            from: *from,
            dst: target.dest(),
        },
    }
}

/// Runs the greedy shuffling algorithm, producing an executable plan.
pub fn greedy(problem: &Problem) -> ShufflePlan {
    let mut plan = ShufflePlan {
        reg_args: problem
            .nodes
            .iter()
            .filter(|n| matches!(n.target, Target::Reg(_)))
            .count() as u32,
        ..ShufflePlan::default()
    };
    let mut frame_temps = 0u32;
    let mut graph: Vec<GraphNode> = Vec::new();
    let mut pre_steps: Vec<Step> = Vec::new();

    // --- steps 1-3: complex arguments ---------------------------------
    let complex: Vec<usize> = (0..problem.nodes.len())
        .filter(|&i| problem.nodes[i].complex)
        .collect();
    // Choose the directly-evaluated complex argument: one whose target
    // no simple argument reads.
    let direct = complex.iter().copied().find(|&i| {
        let t = problem.nodes[i].target;
        problem
            .nodes
            .iter()
            .enumerate()
            .all(|(j, n)| j == i || n.complex || !reads_target(n.reads_regs, t))
    });
    for &i in &complex {
        if Some(i) == direct {
            continue;
        }
        let t = TempLoc::Frame(frame_temps);
        frame_temps += 1;
        pre_steps.push(Step::Eval {
            arg: problem.nodes[i].arg,
            dst: Dest::Temp(t),
        });
        graph.push(GraphNode::Move {
            from: t,
            target: problem.nodes[i].target,
        });
    }
    if let Some(i) = direct {
        pre_steps.push(Step::Eval {
            arg: problem.nodes[i].arg,
            dst: problem.nodes[i].target.dest(),
        });
    }

    // --- step 4: dependency-ordered simples ----------------------------
    for (i, n) in problem.nodes.iter().enumerate() {
        if !n.complex {
            graph.push(GraphNode::Eval(i));
        }
    }

    // Registers that may serve as cycle-breaking temps: free argument
    // registers not read by anything and not targeted by anything.
    let mut all_reads = RegSet::EMPTY;
    let mut all_targets = RegSet::EMPTY;
    for n in &problem.nodes {
        all_reads = all_reads | n.reads_regs;
        if let Target::Reg(r) = n.target {
            all_targets = all_targets.insert(r);
        }
    }
    let mut temp_pool = problem.temp_regs - all_reads - all_targets;

    let mut break_steps: Vec<Step> = Vec::new();
    let mut stack: Vec<GraphNode> = Vec::new();
    while !graph.is_empty() {
        // A node with no dependencies on the remaining targets can be
        // done last.
        let pick = (0..graph.len()).find(|&j| {
            let reads = node_reads(problem, &graph[j]);
            graph
                .iter()
                .enumerate()
                .all(|(k, other)| k == j || !reads_target(reads, node_target(problem, other)))
        });
        match pick {
            Some(j) => {
                let node = graph.swap_remove(j);
                stack.push(node);
            }
            None => {
                // Cycle: evaluate the argument causing the most
                // dependencies into a temporary.
                plan.had_cycle = true;
                plan.cycle_temps += 1;
                let v = (0..graph.len())
                    .max_by_key(|&j| {
                        let t = node_target(problem, &graph[j]);
                        graph
                            .iter()
                            .enumerate()
                            .filter(|(k, other)| {
                                *k != j && reads_target(node_reads(problem, other), t)
                            })
                            .count()
                    })
                    .expect("graph is non-empty");
                let node = graph.swap_remove(v);
                let temp = match temp_pool.iter().next() {
                    Some(r) => {
                        temp_pool = temp_pool.remove(r);
                        TempLoc::Reg(r)
                    }
                    None => {
                        let t = TempLoc::Frame(frame_temps);
                        frame_temps += 1;
                        t
                    }
                };
                let target = node_target(problem, &node);
                match node {
                    GraphNode::Eval(i) => break_steps.push(Step::Eval {
                        arg: problem.nodes[i].arg,
                        dst: Dest::Temp(temp),
                    }),
                    GraphNode::Move { from, .. } => break_steps.push(Step::Move {
                        from,
                        dst: Dest::Temp(temp),
                    }),
                }
                graph.push(GraphNode::Move { from: temp, target });
            }
        }
    }

    plan.steps = pre_steps;
    plan.steps.extend(break_steps);
    plan.steps
        .extend(stack.iter().rev().map(|g| emit(problem, g)));
    plan.frame_temps = frame_temps;
    // Without a cycle the optimum is zero: skip the exhaustive search.
    if plan.had_cycle {
        plan.optimal_temps = optimal_temp_count(problem) as u32;
    }
    plan
}

/// The fixed left-to-right baseline (§4: before greedy shuffling was
/// installed, "performance actually decreased after two argument
/// registers"). Complex arguments always go to stack temporaries; a
/// simple argument takes a temporary whenever a *later* argument still
/// reads its target.
pub fn fixed_order(problem: &Problem) -> ShufflePlan {
    let mut plan = ShufflePlan {
        reg_args: problem
            .nodes
            .iter()
            .filter(|n| matches!(n.target, Target::Reg(_)))
            .count() as u32,
        ..ShufflePlan::default()
    };
    let mut frame_temps = 0u32;
    let mut moves: Vec<Step> = Vec::new();
    for (i, n) in problem.nodes.iter().enumerate() {
        // A later argument conflicts if it still reads this target's
        // old value, or if it contains a call — a call clobbers every
        // register AND the outgoing-argument area (callee frames are
        // built on top of it).
        let conflict = problem.nodes[i + 1..]
            .iter()
            .any(|later| reads_target(later.reads_regs, n.target) || later.complex);
        if n.complex || conflict {
            let t = TempLoc::Frame(frame_temps);
            frame_temps += 1;
            plan.steps.push(Step::Eval {
                arg: n.arg,
                dst: Dest::Temp(t),
            });
            moves.push(Step::Move {
                from: t,
                dst: n.target.dest(),
            });
        } else {
            plan.steps.push(Step::Eval {
                arg: n.arg,
                dst: n.target.dest(),
            });
        }
    }
    plan.steps.extend(moves);
    plan.frame_temps = frame_temps;
    plan
}

/// The minimum number of temporaries any ordering could achieve —
/// minimum feedback vertex set of the simple-argument dependency
/// graph, by exhaustive search (§3.1: "We tried an exhaustive search
/// and found that our greedy approach works optimally for the vast
/// majority of all cases").
///
/// # Panics
///
/// Panics if 32 or more arguments have a target that another argument
/// reads. The allocator's problems have at most seven: the argument
/// registers and `cp`.
pub fn optimal_temp_count(problem: &Problem) -> usize {
    // Only simple arguments participate; complex ones are temped by
    // construction.
    let simples: Vec<&NodeSpec> = problem.nodes.iter().filter(|n| !n.complex).collect();
    // edge u -> v: u reads v's target, so eval(u) must precede
    // assign(v); deleting (temping) vertices must leave a DAG.
    let edge = |u: usize, v: usize| {
        let (nu, nv) = (simples[u], simples[v]);
        u != v && reads_target(nu.reads_regs, nv.target)
    };
    // Only an argument whose target another one reads can lie on a
    // cycle. The allocator targets registers and `Out` slots, and
    // nothing reads an `Out` slot, so however many arguments a call
    // passes, the search sees at most the few register targets.
    let on_cycle: Vec<usize> = (0..simples.len())
        .filter(|&v| (0..simples.len()).any(|u| edge(u, v)))
        .collect();
    let n = on_cycle.len();
    if n == 0 {
        return 0;
    }
    assert!(n < 32, "{n} cycle candidates exceed the exhaustive search");
    let mut adj = vec![0u32; n];
    for (a, &u) in on_cycle.iter().enumerate() {
        for (b, &v) in on_cycle.iter().enumerate() {
            if edge(u, v) {
                adj[a] |= 1 << b;
            }
        }
    }
    #[allow(clippy::needless_range_loop)] // adjacency bitsets are index-driven
    let is_acyclic = |kept: u32| -> bool {
        // Kahn's algorithm over the kept subset.
        let mut in_deg = vec![0u32; n];
        for u in 0..n {
            if kept & (1 << u) == 0 {
                continue;
            }
            for v in 0..n {
                if kept & (1 << v) != 0 && adj[u] & (1 << v) != 0 {
                    in_deg[v] += 1;
                }
            }
        }
        let mut queue: Vec<usize> = (0..n)
            .filter(|&u| kept & (1 << u) != 0 && in_deg[u] == 0)
            .collect();
        let mut removed = 0;
        while let Some(u) = queue.pop() {
            removed += 1;
            for v in 0..n {
                if kept & (1 << v) != 0 && adj[u] & (1 << v) != 0 {
                    in_deg[v] -= 1;
                    if in_deg[v] == 0 {
                        queue.push(v);
                    }
                }
            }
        }
        removed == (kept.count_ones() as usize)
    };
    let full = (1u32 << n) - 1;
    for k in 0..=n {
        // All subsets of size k to delete.
        let mut found = false;
        let subset_of_size = |k: usize, f: &mut dyn FnMut(u32) -> bool| {
            fn rec(
                start: usize,
                left: usize,
                n: usize,
                acc: u32,
                f: &mut dyn FnMut(u32) -> bool,
            ) -> bool {
                if left == 0 {
                    return f(acc);
                }
                for i in start..n {
                    if rec(i + 1, left - 1, n, acc | (1 << i), f) {
                        return true;
                    }
                }
                false
            }
            rec(0, k, n, 0, f)
        };
        if subset_of_size(k, &mut |deleted| {
            if is_acyclic(full & !deleted) {
                found = true;
                true
            } else {
                false
            }
        }) || found
        {
            return k;
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use lesgs_ir::machine::arg_reg;

    fn spec(i: u16, target: Target, reads: &[Reg], complex: bool) -> NodeSpec {
        NodeSpec {
            arg: ArgRef::Arg(i),
            target,
            reads_regs: reads.iter().copied().collect(),
            complex,
        }
    }

    /// Simulates a plan over register values to verify correctness:
    /// each argument's value is a function of the old values it reads.
    pub(crate) fn check_plan(problem: &Problem, plan: &ShufflePlan) {
        use std::collections::HashMap;
        // Model: value of arg i = ("argi", old values of its reads).
        let mut regs: HashMap<Reg, String> = HashMap::new();
        for n in &problem.nodes {
            for r in n.reads_regs.iter() {
                regs.entry(r).or_insert_with(|| format!("old-{r}"));
            }
            if let Target::Reg(r) = n.target {
                regs.entry(r).or_insert_with(|| format!("old-{r}"));
            }
        }
        let old = regs.clone();
        let mut temps: HashMap<u32, String> = HashMap::new();
        let mut outs: HashMap<u32, String> = HashMap::new();
        let eval = |node: &NodeSpec, regs: &HashMap<Reg, String>| -> String {
            let mut parts: Vec<String> = node
                .reads_regs
                .iter()
                .map(|r| regs.get(&r).cloned().unwrap_or_default())
                .collect();
            parts.sort();
            let ArgRef::Arg(i) = node.arg else { panic!() };
            format!("arg{i}({})", parts.join(","))
        };
        let write = |dst: &Dest,
                     val: String,
                     regs: &mut HashMap<Reg, String>,
                     temps: &mut HashMap<u32, String>,
                     outs: &mut HashMap<u32, String>| {
            match dst {
                Dest::Reg(r) => {
                    regs.insert(*r, val);
                }
                Dest::Out(i) => {
                    outs.insert(*i, val);
                }
                Dest::Temp(TempLoc::Reg(r)) => {
                    regs.insert(*r, val);
                }
                Dest::Temp(TempLoc::Frame(i)) => {
                    temps.insert(*i, val);
                }
            }
        };
        for step in &plan.steps {
            match step {
                Step::Eval { arg, dst } => {
                    let ArgRef::Arg(i) = arg else { panic!() };
                    let node = &problem.nodes[*i as usize];
                    let val = eval(node, &regs);
                    write(dst, val, &mut regs, &mut temps, &mut outs);
                }
                Step::Move { from, dst } => {
                    let val = match from {
                        TempLoc::Reg(r) => regs[r].clone(),
                        TempLoc::Frame(i) => temps[i].clone(),
                    };
                    write(dst, val, &mut regs, &mut temps, &mut outs);
                }
            }
        }
        // Every target must hold the value computed from OLD reads.
        for n in &problem.nodes {
            if n.complex {
                continue; // complex args modeled separately
            }
            let mut parts: Vec<String> = n
                .reads_regs
                .iter()
                .map(|r| old.get(&r).cloned().unwrap_or_default())
                .collect();
            parts.sort();
            let ArgRef::Arg(i) = n.arg else { panic!() };
            let expect = format!("arg{i}({})", parts.join(","));
            let got = match n.target {
                Target::Reg(r) => regs.get(&r),
                Target::Out(i) => outs.get(&i),
            };
            assert_eq!(got, Some(&expect), "target {:?}", n.target);
        }
    }

    #[test]
    fn no_conflicts_is_direct() {
        let p = Problem {
            nodes: vec![
                spec(0, Target::Reg(arg_reg(0)), &[], false),
                spec(1, Target::Reg(arg_reg(1)), &[], false),
            ],
            temp_regs: RegSet::EMPTY,
        };
        let plan = greedy(&p);
        assert!(!plan.had_cycle);
        assert_eq!(plan.frame_temps, 0);
        assert_eq!(plan.steps.len(), 2);
        check_plan(&p, &plan);
    }

    #[test]
    fn paper_swap_example() {
        // f(y, x) with x in a0 and y in a1: a genuine swap cycle.
        let p = Problem {
            nodes: vec![
                spec(0, Target::Reg(arg_reg(0)), &[arg_reg(1)], false),
                spec(1, Target::Reg(arg_reg(1)), &[arg_reg(0)], false),
            ],
            temp_regs: RegSet::single(arg_reg(2)),
        };
        let plan = greedy(&p);
        assert!(plan.had_cycle);
        assert_eq!(plan.cycle_temps, 1);
        assert_eq!(plan.optimal_temps, 1, "swap needs exactly one temp");
        // Free register a2 used, no stack traffic.
        assert_eq!(plan.frame_temps, 0);
        check_plan(&p, &plan);
    }

    #[test]
    fn paper_reorder_example() {
        // f(x+y, y+1, y+z), x in a0, y in a1, z in a2 (§2.3): evaluating
        // y+1 last avoids all temporaries.
        let p = Problem {
            nodes: vec![
                spec(0, Target::Reg(arg_reg(0)), &[arg_reg(0), arg_reg(1)], false),
                spec(1, Target::Reg(arg_reg(1)), &[arg_reg(1)], false),
                spec(2, Target::Reg(arg_reg(2)), &[arg_reg(1), arg_reg(2)], false),
            ],
            temp_regs: RegSet::EMPTY,
        };
        let plan = greedy(&p);
        assert!(!plan.had_cycle, "reordering avoids the temp");
        assert_eq!(plan.frame_temps, 0);
        assert_eq!(plan.optimal_temps, 0);
        check_plan(&p, &plan);
        // The a1 argument must be the final eval.
        let last = plan.steps.last().unwrap();
        assert_eq!(
            *last,
            Step::Eval {
                arg: ArgRef::Arg(1),
                dst: Dest::Reg(arg_reg(1))
            }
        );
    }

    #[test]
    fn fixed_order_needs_temp_where_greedy_does_not() {
        let p = Problem {
            nodes: vec![
                spec(0, Target::Reg(arg_reg(0)), &[arg_reg(0), arg_reg(1)], false),
                spec(1, Target::Reg(arg_reg(1)), &[arg_reg(1)], false),
                spec(2, Target::Reg(arg_reg(2)), &[arg_reg(1), arg_reg(2)], false),
            ],
            temp_regs: RegSet::EMPTY,
        };
        let naive = fixed_order(&p);
        assert!(naive.frame_temps > 0, "left-to-right needs a temporary");
        check_plan(&p, &naive);
        let smart = greedy(&p);
        assert_eq!(smart.frame_temps, 0);
    }

    #[test]
    fn three_cycle_one_temp() {
        // a0 <- f(a1), a1 <- f(a2), a2 <- f(a0): one temp breaks it.
        let p = Problem {
            nodes: vec![
                spec(0, Target::Reg(arg_reg(0)), &[arg_reg(1)], false),
                spec(1, Target::Reg(arg_reg(1)), &[arg_reg(2)], false),
                spec(2, Target::Reg(arg_reg(2)), &[arg_reg(0)], false),
            ],
            temp_regs: RegSet::single(arg_reg(3)),
        };
        let plan = greedy(&p);
        assert!(plan.had_cycle);
        assert_eq!(plan.cycle_temps, 1);
        assert_eq!(plan.optimal_temps, 1);
        check_plan(&p, &plan);
    }

    #[test]
    fn two_disjoint_swaps_two_temps() {
        let p = Problem {
            nodes: vec![
                spec(0, Target::Reg(arg_reg(0)), &[arg_reg(1)], false),
                spec(1, Target::Reg(arg_reg(1)), &[arg_reg(0)], false),
                spec(2, Target::Reg(arg_reg(2)), &[arg_reg(3)], false),
                spec(3, Target::Reg(arg_reg(3)), &[arg_reg(2)], false),
            ],
            temp_regs: RegSet::single(arg_reg(4)).insert(arg_reg(5)),
        };
        let plan = greedy(&p);
        assert_eq!(plan.cycle_temps, 2);
        assert_eq!(plan.optimal_temps, 2);
        check_plan(&p, &plan);
    }

    #[test]
    fn temps_spill_to_frame_when_no_free_register() {
        let p = Problem {
            nodes: vec![
                spec(0, Target::Reg(arg_reg(0)), &[arg_reg(1)], false),
                spec(1, Target::Reg(arg_reg(1)), &[arg_reg(0)], false),
            ],
            temp_regs: RegSet::EMPTY,
        };
        let plan = greedy(&p);
        assert_eq!(plan.cycle_temps, 1);
        assert_eq!(plan.frame_temps, 1);
        check_plan(&p, &plan);
    }

    #[test]
    fn complex_args_go_to_temps_except_direct() {
        let p = Problem {
            nodes: vec![
                spec(0, Target::Reg(arg_reg(0)), &[], true),
                spec(1, Target::Reg(arg_reg(1)), &[], true),
                spec(2, Target::Reg(arg_reg(2)), &[], false),
            ],
            temp_regs: RegSet::EMPTY,
        };
        let plan = greedy(&p);
        // One complex goes to a temp, one is direct.
        assert_eq!(plan.frame_temps, 1);
        let evals_to_temp = plan
            .steps
            .iter()
            .filter(|s| {
                matches!(
                    s,
                    Step::Eval {
                        dst: Dest::Temp(_),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(evals_to_temp, 1);
    }

    #[test]
    fn direct_complex_avoided_when_simple_reads_its_register() {
        // Complex arg targets a0, and a simple arg reads a0: the complex
        // one must not be evaluated directly into a0 first.
        let p = Problem {
            nodes: vec![
                spec(0, Target::Reg(arg_reg(0)), &[], true),
                spec(1, Target::Reg(arg_reg(1)), &[arg_reg(0)], false),
            ],
            temp_regs: RegSet::EMPTY,
        };
        let plan = greedy(&p);
        // The complex argument was evaluated to a temp instead.
        assert_eq!(plan.frame_temps, 1);
    }

    #[test]
    fn optimal_counts() {
        // Complete bidirectional triangle: every pair swaps → FVS = 2.
        let p = Problem {
            nodes: vec![
                spec(0, Target::Reg(arg_reg(0)), &[arg_reg(1), arg_reg(2)], false),
                spec(1, Target::Reg(arg_reg(1)), &[arg_reg(0), arg_reg(2)], false),
                spec(2, Target::Reg(arg_reg(2)), &[arg_reg(0), arg_reg(1)], false),
            ],
            temp_regs: RegSet::EMPTY,
        };
        assert_eq!(optimal_temp_count(&p), 2);
        let plan = greedy(&p);
        assert!(plan.cycle_temps >= 2);
        check_plan(&p, &plan);
    }

    #[test]
    fn self_reference_needs_no_temp() {
        // a0 <- f(a0) is fine: evaluate then assign.
        let p = Problem {
            nodes: vec![spec(0, Target::Reg(arg_reg(0)), &[arg_reg(0)], false)],
            temp_regs: RegSet::EMPTY,
        };
        let plan = greedy(&p);
        assert!(!plan.had_cycle);
        assert_eq!(optimal_temp_count(&p), 0);
        check_plan(&p, &plan);
    }

    #[test]
    fn forty_argument_call_searches_only_register_targets() {
        // Six register arguments rotate (one cycle); 34 stack arguments
        // read every register, but nothing reads their `Out` targets.
        let regs: Vec<Reg> = (0..6).map(arg_reg).collect();
        let nodes = (0..40u16)
            .map(|i| match usize::from(i) {
                r @ 0..=5 => spec(i, Target::Reg(regs[r]), &[regs[(r + 1) % 6]], false),
                _ => spec(i, Target::Out(u32::from(i) - 6), &regs, false),
            })
            .collect();
        let p = Problem {
            nodes,
            temp_regs: RegSet::EMPTY,
        };
        let plan = greedy(&p);
        check_plan(&p, &plan);
        assert!(plan.had_cycle);
        assert_eq!(plan.optimal_temps, 1);
        assert!(plan.optimal_temps <= plan.cycle_temps);
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use lesgs_ir::machine::arg_reg;
    use lesgs_testkit::{run_cases, Rng};

    // Up to 6 simple args with random read sets over the 6 arg regs.
    fn gen_problem(rng: &mut Rng) -> Problem {
        let n = 1 + rng.below(6);
        Problem {
            nodes: (0..n)
                .map(|i| {
                    let bits = rng.below(64);
                    NodeSpec {
                        arg: ArgRef::Arg(i as u16),
                        target: Target::Reg(arg_reg(i)),
                        reads_regs: (0..6)
                            .filter(|b| bits & (1 << b) != 0)
                            .map(arg_reg)
                            .collect(),
                        complex: false,
                    }
                })
                .collect(),
            temp_regs: RegSet::EMPTY,
        }
    }

    /// Every greedy plan computes the correct final register state.
    #[test]
    fn greedy_plans_are_correct() {
        run_cases(512, |rng| {
            let p = gen_problem(rng);
            let plan = greedy(&p);
            super::tests::check_plan(&p, &plan);
        });
    }

    /// The fixed-order baseline is also correct (just slower).
    #[test]
    fn fixed_order_plans_are_correct() {
        run_cases(512, |rng| {
            let p = gen_problem(rng);
            let plan = fixed_order(&p);
            super::tests::check_plan(&p, &plan);
        });
    }

    /// Greedy never beats the optimal and uses at most a few more.
    #[test]
    fn greedy_at_least_optimal() {
        run_cases(512, |rng| {
            let p = gen_problem(rng);
            let plan = greedy(&p);
            assert!(plan.cycle_temps as usize >= optimal_temp_count(&p), "{p:?}");
        });
    }

    /// Greedy uses no temporaries whenever none are needed.
    #[test]
    fn greedy_optimal_when_acyclic() {
        run_cases(512, |rng| {
            let p = gen_problem(rng);
            if optimal_temp_count(&p) == 0 {
                let plan = greedy(&p);
                assert_eq!(plan.cycle_temps, 0, "{p:?}");
            }
        });
    }

    /// Fewest temporaries over *every* evaluation order, by brute
    /// force. In a fixed order, argument `i` needs a temporary exactly
    /// when some later argument still reads `i`'s target; minimizing
    /// that count over all `n!` orders is an independent (and much
    /// slower) formulation of the minimum feedback vertex set that
    /// [`optimal_temp_count`] finds by subset search.
    fn permutation_optimum(p: &Problem) -> usize {
        fn temps_for(p: &Problem, order: &[usize]) -> usize {
            (0..order.len())
                .filter(|&k| {
                    let t = p.nodes[order[k]].target;
                    order[k + 1..]
                        .iter()
                        .any(|&j| reads_target(p.nodes[j].reads_regs, t))
                })
                .count()
        }
        fn rec(p: &Problem, perm: &mut Vec<usize>, rest: &mut Vec<usize>, best: &mut usize) {
            if rest.is_empty() {
                *best = (*best).min(temps_for(p, perm));
                return;
            }
            for i in 0..rest.len() {
                let x = rest.swap_remove(i);
                perm.push(x);
                rec(p, perm, rest, best);
                perm.pop();
                rest.push(x);
                let last = rest.len() - 1;
                rest.swap(i, last);
            }
        }
        let mut best = p.nodes.len();
        let mut rest: Vec<usize> = (0..p.nodes.len()).collect();
        rec(p, &mut Vec::new(), &mut rest, &mut best);
        best
    }

    /// Builds the ≤5-argument problem whose dependency graph is the
    /// given adjacency matrix (bit `u*n+v` set = argument `u` reads
    /// argument `v`'s target register).
    fn problem_from_adjacency(n: usize, adj: u32) -> Problem {
        Problem {
            nodes: (0..n)
                .map(|u| NodeSpec {
                    arg: ArgRef::Arg(u as u16),
                    target: Target::Reg(arg_reg(u)),
                    reads_regs: (0..n)
                        .filter(|v| adj & (1 << (u * n + v)) != 0)
                        .map(arg_reg)
                        .collect(),
                    complex: false,
                })
                .collect(),
            temp_regs: RegSet::EMPTY,
        }
    }

    /// §3.1's optimality claim, settled exhaustively for small calls.
    /// Over *every* dependency graph on up to 4 arguments:
    ///
    /// * the permutation brute force agrees with the
    ///   feedback-vertex-set search (two independent formulations of
    ///   the optimum);
    /// * greedy never beats the optimum, never exceeds it by more than
    ///   2, and matches it for the "vast majority of all cases" — 100%
    ///   at n ≤ 2, ≥95% at n = 3, ≥85% at n = 4 (measured: 488/512 and
    ///   55984/65536). Exact optimality everywhere is impossible for a
    ///   polynomial heuristic (minimum FVS is NP-complete), which is
    ///   the paper's reason for settling for greedy.
    #[test]
    fn greedy_near_optimal_for_small_calls_exhaustively() {
        for n in 1..=4usize {
            let (mut total, mut optimal) = (0usize, 0usize);
            for adj in 0..1u32 << (n * n) {
                let p = problem_from_adjacency(n, adj);
                let brute = permutation_optimum(&p);
                assert_eq!(
                    brute,
                    optimal_temp_count(&p),
                    "n={n} adj={adj:b}: permutation optimum disagrees with FVS"
                );
                let plan = greedy(&p);
                let got = plan.cycle_temps as usize;
                assert!(got >= brute, "n={n} adj={adj:b}: greedy beat the optimum");
                assert!(
                    got <= brute + 2,
                    "n={n} adj={adj:b}: greedy used {got} temps, optimum is {brute}"
                );
                total += 1;
                optimal += usize::from(got == brute);
            }
            let pct_floor = match n {
                1 | 2 => 100,
                3 => 95,
                _ => 85,
            };
            assert!(
                optimal * 100 >= total * pct_floor,
                "n={n}: greedy optimal in only {optimal}/{total} graphs"
            );
        }
    }

    /// The same bounds on sampled 5-argument calls (all `2^25` graphs
    /// would take too long; sampling keeps the tier-1 suite fast).
    #[test]
    fn greedy_near_optimal_for_sampled_five_arg_calls() {
        let (mut total, mut optimal) = (0usize, 0usize);
        run_cases(256, |rng| {
            let adj = (rng.next_u64() & ((1 << 25) - 1)) as u32;
            let p = problem_from_adjacency(5, adj);
            let brute = permutation_optimum(&p);
            assert_eq!(brute, optimal_temp_count(&p), "adj={adj:b}");
            let plan = greedy(&p);
            let got = plan.cycle_temps as usize;
            assert!(got >= brute, "adj={adj:b}: greedy beat the optimum");
            assert!(
                got <= brute + 2,
                "adj={adj:b}: greedy used {got} temps, optimum is {brute}"
            );
            total += 1;
            optimal += usize::from(got == brute);
        });
        // Uniform 25-bit adjacency is far denser than real call sites
        // (~50% edge probability), so the optimal fraction is lower
        // than the exhaustive small-n numbers; measured 181/256.
        assert!(
            optimal * 100 >= total * 65,
            "greedy optimal in only {optimal}/{total} sampled graphs"
        );
    }
}
