//! Golden renderings of what the reader reads.
//!
//! The prelude, every `scheme-examples/` program and every
//! `tests/corpus/` case are read with [`read`]; the forms of each are
//! printed both structurally (`{:?}`) and as source text (`{}`), and
//! the FNV-1a-64 of that rendering is pinned by
//! `tests/fixtures/read_renderings.txt`, one line per source, beside
//! the exact error of each malformed input in [`MALFORMED`]. The
//! fixture was generated by the owning parser that the borrowing
//! reader replaced, so it pins that lending names from the source text
//! reads every shipped source, and words every error, as before.
//!
//! To regenerate after an *intentional* change:
//!
//! ```text
//! LESGS_UPDATE_FIXTURES=1 cargo test --test read_renderings
//! ```

use std::fmt::Write as _;

use lesgs::engine::fnv1a64;
use lesgs::frontend::program::PRELUDE;
use lesgs::sexpr::read;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/read_renderings.txt"
);

/// Inputs the reader must reject, each with its own error.
const MALFORMED: &[&str] = &[
    "(a",
    ")",
    "(.)",
    "(a .)",
    "(a . b c)",
    "(x . )",
    "'",
    "#q",
    "\"open",
    "#\\",
    "(1\n(2\n",
];

/// `(label, source)` for every program the fixture covers, sorted
/// within each directory.
fn sources() -> Vec<(String, String)> {
    let mut out = vec![("prelude".to_owned(), PRELUDE.to_owned())];
    for dir in ["scheme-examples", "tests/corpus"] {
        let path = format!("{}/{dir}", env!("CARGO_MANIFEST_DIR"));
        let mut files: Vec<_> = std::fs::read_dir(&path)
            .unwrap_or_else(|e| panic!("{path}: {e}"))
            .map(|e| e.expect("readable entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "scm"))
            .collect();
        files.sort();
        for f in files {
            let name = f.file_name().expect("file name").to_string_lossy();
            let src = std::fs::read_to_string(&f).expect("readable source");
            out.push((format!("{dir}/{name}"), src));
        }
    }
    out
}

#[test]
fn reader_output_matches_golden_renderings() {
    let mut got = String::new();
    for (label, src) in sources() {
        let forms = read(&src).unwrap_or_else(|e| panic!("{label}: {e}"));
        let mut rendering = String::new();
        for d in &forms {
            writeln!(rendering, "{d:?}\n{d}").expect("write to a String");
        }
        writeln!(
            got,
            "{label} {} {:016x}",
            forms.len(),
            fnv1a64(rendering.as_bytes())
        )
        .expect("write to a String");
    }
    for bad in MALFORMED {
        let e = read(bad).expect_err(bad);
        writeln!(got, "{bad:?} {e}").expect("write to a String");
    }
    if std::env::var("LESGS_UPDATE_FIXTURES").is_ok() {
        std::fs::write(FIXTURE, &got).expect("write fixture");
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("fixture exists; regenerate with LESGS_UPDATE_FIXTURES=1");
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "reader output drifted from the checked-in fixture");
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "fixture covers a different set of sources"
    );
}
