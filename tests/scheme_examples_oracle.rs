//! Interpreter-vs-VM oracle over the runnable `scheme-examples/`
//! programs, pinned by a golden fixture.
//!
//! Each example is executed by the reference interpreter and by the
//! compiled VM under the full configuration matrix; the interpreter's
//! value and output are then compared byte-for-byte against
//! `tests/fixtures/scheme_examples_oracle.txt`, so an unintentional
//! semantic change to either backend (or to an example) fails loudly.
//!
//! To regenerate after an *intentional* change:
//!
//! ```text
//! LESGS_UPDATE_FIXTURES=1 cargo test --test scheme_examples_oracle
//! ```

use lesgs::compiler::{config_matrix, differential_check};

const FUEL: u64 = 60_000_000;
const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/scheme_examples_oracle.txt"
);

fn example_files() -> Vec<std::path::PathBuf> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scheme-examples");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("scheme-examples exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "scm"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "scheme-examples should not be empty");
    files
}

#[test]
fn examples_agree_with_interpreter_under_all_configs() {
    let configs = config_matrix();
    for path in example_files() {
        let src = std::fs::read_to_string(&path).expect("readable example");
        differential_check(&src, &configs, FUEL)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
}

#[test]
fn example_outcomes_match_golden_fixture() {
    let mut got = String::new();
    for path in example_files() {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&path).expect("readable example");
        let out = lesgs::interp::run_source(&src, FUEL).unwrap_or_else(|e| panic!("{name}: {e}"));
        got.push_str(&format!("== {name}\nvalue: {}\n", out.value));
        if out.output.is_empty() {
            got.push_str("output: (none)\n");
        } else {
            got.push_str("output:\n");
            for line in out.output.lines() {
                got.push_str(&format!("  | {line}\n"));
            }
        }
    }
    if std::env::var("LESGS_UPDATE_FIXTURES").is_ok() {
        std::fs::write(FIXTURE, &got).expect("write fixture");
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("fixture exists; regenerate with LESGS_UPDATE_FIXTURES=1");
    assert_eq!(
        got, want,
        "scheme-examples outcomes drifted from the checked-in fixture; \
         if the change is intentional, regenerate with \
         LESGS_UPDATE_FIXTURES=1"
    );
}
