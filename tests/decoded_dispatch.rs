//! The pre-decoded dispatch pipeline over `scheme-examples/`: golden
//! decoded-program fixtures plus the classic-vs-decoded differential
//! under the full configuration matrix.
//!
//! The fixture (`tests/fixtures/decoded_programs.txt`) pins the decode
//! summary of each example — instruction and decoded-op counts,
//! per-function layout, and the absolute jump-target table — so a
//! codegen or decode change that silently shifts decoded shape fails
//! loudly. To regenerate after an *intentional* change:
//!
//! ```text
//! LESGS_UPDATE_FIXTURES=1 cargo test --test decoded_dispatch
//! ```

use lesgs::compiler::{compile, config_matrix, CompilerConfig};
use lesgs::vm::{ClassicMachine, Machine};

const FUEL: u64 = 60_000_000;
const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/decoded_programs.txt"
);

/// The four representative examples: a loop-heavy program with
/// assignment (counter), rotating tail calls (permute), a vector/list
/// workload (sieve), and deep non-tail recursion (tak).
const EXAMPLES: [&str; 4] = ["counter.scm", "permute.scm", "sieve.scm", "tak.scm"];

fn example_source(name: &str) -> String {
    let path = format!("{}/scheme-examples/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn decoded_programs_match_golden_fixture() {
    let config = CompilerConfig::default();
    let mut got = String::new();
    for name in EXAMPLES {
        let compiled = compile(&example_source(name), &config)
            .unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
        got.push_str(&format!("== {name}\n{}", compiled.decoded.describe()));
    }
    if std::env::var("LESGS_UPDATE_FIXTURES").is_ok() {
        std::fs::write(FIXTURE, &got).expect("write fixture");
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("fixture exists; regenerate with LESGS_UPDATE_FIXTURES=1");
    assert_eq!(
        got, want,
        "decoded-program shapes drifted from the checked-in fixture; \
         if the change is intentional, regenerate with \
         LESGS_UPDATE_FIXTURES=1"
    );
}

#[test]
fn classic_and_decoded_agree_under_full_config_matrix() {
    for name in EXAMPLES {
        let src = example_source(name);
        for (i, alloc) in config_matrix().into_iter().enumerate() {
            let config = CompilerConfig {
                alloc,
                fuel: FUEL,
                ..CompilerConfig::default()
            };
            let compiled = compile(&src, &config)
                .unwrap_or_else(|e| panic!("{name}[{i}]: compile failed: {e}"));
            let classic = ClassicMachine::new(&compiled.vm, config.cost)
                .with_fuel(FUEL)
                .with_poison(config.poison)
                .run()
                .unwrap_or_else(|e| panic!("{name}[{i}]: classic run failed: {e}"));
            let decoded = Machine::from_decoded(&compiled.decoded, config.cost)
                .with_fuel(FUEL)
                .with_poison(config.poison)
                .run()
                .unwrap_or_else(|e| panic!("{name}[{i}]: decoded run failed: {e}"));
            assert_eq!(classic.value, decoded.value, "{name}[{i}]: value");
            assert_eq!(classic.output, decoded.output, "{name}[{i}]: output");
            assert_eq!(
                classic.stats, decoded.stats,
                "{name}[{i}]: every counter must be dispatch-invariant"
            );
        }
    }
}
