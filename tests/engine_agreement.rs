//! The machine against the reference engine over `scheme-examples/`,
//! under the full configuration matrix.
//!
//! Both engines run one dispatch loop over the same code; the machine
//! adds fast paths for the hottest primitives and peeks branch
//! conditions and closure call targets in place. Value, output and
//! every counter must agree, so the fast paths may not change a single
//! counted event. The emitted code itself is pinned by
//! `tests/fixtures/emitted_lbc.txt`.

use lesgs::compiler::{compile, config_matrix, CompilerConfig};

const FUEL: u64 = 60_000_000;

/// The four representative examples: a loop-heavy program with
/// assignment (counter), rotating tail calls (permute), a vector/list
/// workload (sieve), and deep non-tail recursion (tak).
const EXAMPLES: [&str; 4] = ["counter.scm", "permute.scm", "sieve.scm", "tak.scm"];

fn example_source(name: &str) -> String {
    let path = format!("{}/scheme-examples/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn classic_and_fast_engines_agree_under_full_config_matrix() {
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
            let classic = config
                .classic_machine(&compiled.vm)
                .run()
                .unwrap_or_else(|e| panic!("{name}[{i}]: classic run failed: {e}"));
            let fast = config
                .machine(&compiled.vm)
                .run()
                .unwrap_or_else(|e| panic!("{name}[{i}]: fast run failed: {e}"));
            assert_eq!(classic.value, fast.value, "{name}[{i}]: value");
            assert_eq!(classic.output, fast.output, "{name}[{i}]: output");
            assert_eq!(
                classic.stats, fast.stats,
                "{name}[{i}]: every counter must be independent of the fast paths"
            );
        }
    }
}
