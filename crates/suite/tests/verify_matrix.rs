//! The bytecode verifier accepts every benchmark under every allocator
//! configuration, with and without the peephole pass — and the
//! peephole pass preserves observable behaviour.

use lesgs_compiler::{compile, config_matrix, CompilerConfig};
use lesgs_suite::programs::{all_benchmarks, Scale};
use lesgs_vm::{verify_bytecode, CostModel, Machine};

/// Every benchmark × allocator configuration × peephole on/off
/// compiles to bytecode the abstract interpreter accepts.
#[test]
fn verifier_accepts_benchmark_config_matrix() {
    for b in all_benchmarks() {
        for (i, alloc) in config_matrix().into_iter().enumerate() {
            for no_peephole in [false, true] {
                let cfg = CompilerConfig {
                    alloc,
                    no_peephole,
                    ..CompilerConfig::default()
                };
                let compiled = compile(b.source(Scale::Small), &cfg)
                    .unwrap_or_else(|e| panic!("{}: {e}", b.name));
                let errors = verify_bytecode(&compiled.vm);
                assert!(
                    errors.is_empty(),
                    "{} under config #{i} (peephole {}): {}",
                    b.name,
                    if no_peephole { "off" } else { "on" },
                    errors
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join("\n")
                );
            }
        }
    }
}

/// The peephole pass is behaviour-preserving: with it on and off, both
/// programs verify, produce identical values and output, and the
/// optimized program never makes *more* stack references (store-load
/// forwarding and self-move elimination can only remove them).
#[test]
fn peephole_preserves_behaviour_and_verification() {
    for b in all_benchmarks() {
        let run = |no_peephole: bool| {
            let cfg = CompilerConfig {
                no_peephole,
                ..CompilerConfig::default()
            };
            let compiled = compile(b.source(Scale::Small), &cfg).expect("compiles");
            assert!(
                verify_bytecode(&compiled.vm).is_empty(),
                "{} (peephole {}) fails verification",
                b.name,
                if no_peephole { "off" } else { "on" }
            );
            Machine::new(&compiled.vm, CostModel::alpha_like())
                .run()
                .expect("runs")
        };
        let on = run(false);
        let off = run(true);
        assert_eq!(on.value, off.value, "{}: final value differs", b.name);
        assert_eq!(on.output, off.output, "{}: output differs", b.name);
        let refs = |o: &lesgs_vm::VmOutcome| o.stats.stack_refs();
        assert!(
            refs(&on) <= refs(&off),
            "{}: peephole increased stack references ({} > {})",
            b.name,
            refs(&on),
            refs(&off)
        );
    }
}
