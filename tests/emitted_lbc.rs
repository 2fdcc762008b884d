//! Golden hashes of the emitted `.lbc` bytes.
//!
//! Every standard-scale suite benchmark and every `scheme-examples/`
//! program is compiled with [`Engine::emit_program`] under each of the
//! 22 `config_matrix` configurations plus lambda lifting; the
//! FNV-1a-64 of each blob is pinned by
//! `tests/fixtures/emitted_lbc.txt`, one line per (program, config).
//! A frontend or backend refactor that claims to change no emitted
//! byte must pass this test with the fixture unchanged.
//!
//! To regenerate after an *intentional* change:
//!
//! ```text
//! LESGS_UPDATE_FIXTURES=1 cargo test --test emitted_lbc
//! ```

use lesgs::compiler::{config_matrix, CompilerConfig};
use lesgs::engine::{fnv1a64, Engine};
use lesgs::suite::{all_benchmarks, Scale};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/emitted_lbc.txt"
);

/// `(label, source)` for every program the fixture covers.
fn programs() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = all_benchmarks()
        .into_iter()
        .map(|b| {
            (
                format!("suite/{}", b.name),
                b.source(Scale::Standard).to_owned(),
            )
        })
        .collect();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scheme-examples");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("scheme-examples exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "scm"))
        .collect();
    files.sort();
    for path in files {
        let name = path.file_name().expect("file name").to_string_lossy();
        let src = std::fs::read_to_string(&path).expect("readable example");
        out.push((format!("examples/{name}"), src));
    }
    out
}

/// `(label, config)`: the matrix by index, then lambda lifting.
fn configs() -> Vec<(String, CompilerConfig)> {
    let mut out: Vec<(String, CompilerConfig)> = config_matrix()
        .into_iter()
        .enumerate()
        .map(|(i, alloc)| (format!("m{i:02}"), CompilerConfig::with_alloc(alloc)))
        .collect();
    out.push((
        "lift".to_owned(),
        CompilerConfig {
            lambda_lift: true,
            ..CompilerConfig::default()
        },
    ));
    out
}

#[test]
fn emitted_bytes_match_golden_hashes() {
    let configs = configs();
    assert_eq!(configs.len(), 23, "22 matrix configurations plus lifting");
    let mut got = String::new();
    for (program, src) in programs() {
        for (label, config) in &configs {
            let bytes = Engine::with_config(*config)
                .emit_program(&src)
                .unwrap_or_else(|e| panic!("{program} {label}: {e}"));
            got.push_str(&format!("{program} {label} {:016x}\n", fnv1a64(&bytes)));
        }
    }
    if std::env::var("LESGS_UPDATE_FIXTURES").is_ok() {
        std::fs::write(FIXTURE, &got).expect("write fixture");
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("fixture exists; regenerate with LESGS_UPDATE_FIXTURES=1");
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "emitted bytes drifted from the checked-in fixture");
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "fixture covers a different set of (program, config) pairs"
    );
}
