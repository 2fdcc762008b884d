//! Benches for the allocator's hot kernels: the two linear passes
//! (§3), greedy vs exhaustive shuffling (§3.1), and full compilation.
//!
//! Gated behind the `bench-harness` feature; run with
//! `cargo bench -p lesgs-bench --features bench-harness`.

use lesgs_bench::harness;
use lesgs_core::alloc::ArgRef;
use lesgs_core::config::SaveStrategy;
use lesgs_core::shuffle::{self, NodeSpec, Problem, Target};
use lesgs_core::{allocate_program, AllocConfig};
use lesgs_frontend::pipeline;
use lesgs_ir::machine::arg_reg;
use lesgs_ir::{lower_program, RegSet};
use lesgs_suite::programs::{benchmark, Scale};

fn bench_passes() {
    let mut group = harness::group("allocation-passes");
    for name in ["tak", "deriv", "queens"] {
        let b = benchmark(name).expect("benchmark exists");
        let ir =
            lower_program(&pipeline::front_to_closed(b.source(Scale::Standard)).expect("compiles"));
        for (label, save) in [
            ("lazy", SaveStrategy::Lazy),
            ("early", SaveStrategy::Early),
            ("late", SaveStrategy::Late),
        ] {
            let cfg = AllocConfig {
                save,
                ..AllocConfig::paper_default()
            };
            group.bench(&format!("{label}/{name}"), || allocate_program(&ir, &cfg));
        }
    }
}

fn swap_heavy_problem(n: usize) -> Problem {
    // Rotation: every argument reads its neighbour's register.
    Problem {
        nodes: (0..n)
            .map(|i| NodeSpec {
                arg: ArgRef::Arg(i as u16),
                target: Target::Reg(arg_reg(i)),
                reads_regs: RegSet::single(arg_reg((i + 1) % n)),
                reads_params: 0,
                complex: false,
                move_of: Some(arg_reg((i + 1) % n)),
            })
            .collect(),
        temp_regs: RegSet::EMPTY,
    }
}

fn bench_shuffle() {
    let mut group = harness::group("shuffle");
    for n in [3usize, 6] {
        let p = swap_heavy_problem(n);
        group.bench(&format!("greedy/{n}"), || shuffle::greedy(&p));
        group.bench(&format!("optimal-exhaustive/{n}"), || {
            shuffle::optimal_temp_count(&p)
        });
        group.bench(&format!("fixed-order/{n}"), || shuffle::fixed_order(&p));
    }
}

fn bench_compile() {
    let mut group = harness::group("full-compile");
    for name in ["tak", "dderiv", "takr"] {
        let b = benchmark(name).expect("benchmark exists");
        let src = b.source(Scale::Standard).to_owned();
        group.bench(name, || {
            lesgs_compiler::compile(&src, &lesgs_compiler::CompilerConfig::default())
                .expect("compiles")
        });
    }
}

fn main() {
    bench_passes();
    bench_shuffle();
    bench_compile();
}
