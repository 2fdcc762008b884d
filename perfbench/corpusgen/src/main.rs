//! Writes perfbench's compile-lbc corpus: the first [`COUNT`] programs
//! of a `lesgs-fuzz` campaign with base seed [`BASE_SEED`] that the
//! fuzz oracle judges clean (every allocator configuration verifies
//! and agrees with the reference interpreter).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/corpusgen/Cargo.toml \
//!     > perfbench/corpus/lbc.scm
//! ```
//!
//! Each program follows a `;;; case <index> seed <seed>` line, so
//! `lesgs-fuzz --seed <seed> --cases 1` regenerates it (at the
//! generator version the file's first line names).

use lesgs_fuzz::{
    case_seed, check_source, generate, CaseOutcome, GenConfig, OracleConfig, GENERATOR_VERSION,
};
use lesgs_testkit::Rng;

/// Base seed of the campaign, as `lesgs-fuzz --seed`.
const BASE_SEED: u64 = 0;
/// Programs in the corpus.
const COUNT: usize = 256;

fn main() {
    let oracle = OracleConfig::default();
    println!(";;; lesgs-fuzz generator version {GENERATOR_VERSION}, base seed {BASE_SEED}");
    let (mut kept, mut skipped) = (0, 0);
    let mut index = 0;
    while kept < COUNT {
        let seed = case_seed(BASE_SEED, index);
        let src = generate(&mut Rng::new(seed), &GenConfig::default()).render();
        if matches!(check_source(&src, &oracle), CaseOutcome::Pass) {
            println!(";;; case {index} seed {seed:#x}");
            println!("{}", src.trim_end());
            kept += 1;
        } else {
            skipped += 1;
        }
        index += 1;
    }
    eprintln!("corpusgen: kept {kept} of {index} cases ({skipped} not clean)");
}
