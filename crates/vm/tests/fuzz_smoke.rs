//! Bounded generative smoke test from the VM's side.
//!
//! Generated programs (a different seed and a smaller size budget than
//! the compiler crate's campaign, biasing toward deeper per-program
//! coverage) run through the differential oracle; the VM must verify
//! and agree with the reference interpreter under every configuration.

use lesgs_fuzz::{case_seed, generate, run_fuzz, FuzzOptions, GenConfig};

#[test]
fn generated_programs_execute_faithfully() {
    let opts = FuzzOptions {
        seed: 0x7A11E5,
        cases: 40,
        gen: GenConfig { max_size: 100 },
        ..Default::default()
    };
    let report = run_fuzz(&opts);
    assert_eq!(report.cases, opts.cases);
    assert!(
        report.finds.is_empty(),
        "VM disagreed with the interpreter:\n{}",
        report
            .finds
            .iter()
            .map(|f| format!("{}\n  repro: {}", f.failure, f.repro_command(&opts)))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The `vm.*` metrics a run exports, keyed for key-set comparison.
fn exported_counters(stats: &lesgs_vm::RunStats) -> Vec<(String, u64)> {
    let mut reg = lesgs_metrics::Registry::new();
    stats.record(&mut reg);
    let mut counters: Vec<_> = reg.counters().map(|(k, v)| (k.to_owned(), v)).collect();
    counters.sort();
    counters
}

/// The fast paths must be invisible to the metrics layer: on generated
/// programs, under every allocator configuration, the classic and the
/// fast engine must export the *same `vm.*` counter key set with the
/// same values* (and agree on the result).
#[test]
fn fast_paths_preserve_counter_streams_on_generated_programs() {
    use lesgs_compiler::{compile, config_matrix, CompilerConfig};
    use lesgs_vm::{ClassicMachine, Machine};

    const SEED: u64 = 0xDEC0DE;
    const CASES: u64 = 12;
    const FUEL: u64 = 2_000_000;

    let gen = GenConfig { max_size: 80 };
    let configs = config_matrix();
    for index in 0..CASES {
        let seed = case_seed(SEED, index);
        let prog = generate(&mut lesgs_testkit::Rng::new(seed), &gen);
        let src = prog.render();
        for (i, alloc) in configs.iter().enumerate() {
            let config = CompilerConfig {
                alloc: *alloc,
                fuel: FUEL,
                ..CompilerConfig::default()
            };
            let compiled = match compile(&src, &config) {
                Ok(c) => c,
                Err(e) => panic!("case {index} cfg {i}: compile failed: {e}"),
            };
            let classic = ClassicMachine::new(&compiled.vm, config.cost)
                .with_fuel(FUEL)
                .with_poison(config.poison)
                .run();
            let fast = Machine::new(&compiled.vm, config.cost)
                .with_fuel(FUEL)
                .with_poison(config.poison)
                .run();
            match (classic, fast) {
                (Ok(c), Ok(d)) => {
                    assert_eq!(c.value, d.value, "case {index} cfg {i}: value");
                    assert_eq!(c.output, d.output, "case {index} cfg {i}: output");
                    assert_eq!(
                        exported_counters(&c.stats),
                        exported_counters(&d.stats),
                        "case {index} cfg {i}: vm.* counters must not \
                         depend on the fast paths"
                    );
                }
                // Errors (fuel exhaustion included) must also agree,
                // message and location both.
                (Err(c), Err(d)) => {
                    assert_eq!(c.to_string(), d.to_string(), "case {index} cfg {i}: error");
                }
                (c, d) => {
                    panic!("case {index} cfg {i}: engines split: classic {c:?} vs fast {d:?}")
                }
            }
        }
    }
}
