//! Greedy argument shuffling on the paper's §2.3 examples.
//!
//! Run with: `cargo run --example shuffle`

use lesgs::allocator::alloc::ArgRef;
use lesgs::allocator::shuffle::{
    fixed_order, greedy, optimal_temp_count, NodeSpec, Problem, Target,
};
use lesgs::ir::machine::arg_reg;
use lesgs::ir::RegSet;

fn spec(i: u16, target: usize, reads: &[usize]) -> NodeSpec {
    NodeSpec {
        arg: ArgRef::Arg(i),
        target: Target::Reg(arg_reg(target)),
        reads_regs: reads.iter().map(|&r| arg_reg(r)).collect(),
        complex: false,
    }
}

fn show(title: &str, problem: &Problem) {
    println!("== {title} ==");
    let plan = greedy(problem);
    println!("greedy plan ({} steps):", plan.steps.len());
    for s in &plan.steps {
        println!("  {s:?}");
    }
    println!(
        "cycle: {}, greedy temps: {}, optimal temps: {}",
        plan.had_cycle,
        plan.cycle_temps,
        optimal_temp_count(problem)
    );
    let naive = fixed_order(problem);
    println!(
        "fixed left-to-right would use {} stack temporaries\n",
        naive.frame_temps
    );
}

fn main() {
    // §2.3: "consider the call f(y, x), where at the time of the call x
    // is in argument register a1 and y in a2 … requiring a swap".
    let swap = Problem {
        nodes: vec![spec(0, 0, &[1]), spec(1, 1, &[0])],
        temp_regs: RegSet::single(arg_reg(2)),
    };
    show(
        "f(y, x) — a genuine swap; one temporary is unavoidable",
        &swap,
    );

    // §2.3: "the call f(x+y, y+1, y+z), where x is in register a1, y in
    // a2, z in a3, can be set up without shuffling by evaluating y+1
    // last."
    let reorder = Problem {
        nodes: vec![
            spec(0, 0, &[0, 1]), // x+y -> a0, reads x(a0), y(a1)
            spec(1, 1, &[1]),    // y+1 -> a1, reads y(a1)
            spec(2, 2, &[1, 2]), // y+z -> a2, reads y(a1), z(a2)
        ],
        temp_regs: RegSet::EMPTY,
    };
    show(
        "f(x+y, y+1, y+z) — reordering avoids every temporary",
        &reorder,
    );

    // A three-cycle: a0 <- a1, a1 <- a2, a2 <- a0.
    let rotation = Problem {
        nodes: vec![spec(0, 0, &[1]), spec(1, 1, &[2]), spec(2, 2, &[0])],
        temp_regs: RegSet::single(arg_reg(3)),
    };
    show(
        "three-register rotation — one temp breaks the cycle",
        &rotation,
    );
}
