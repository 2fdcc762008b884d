//! Golden tests for the shared JSON report schema.
//!
//! The run-record side of the schema is deterministic: a fixed small
//! benchmark (tak at `Scale::Small`) under the paper-default allocator
//! and the pinned `alpha_like` cost model always produces the same
//! counters, and `run_record` excludes wall times. The serialized
//! document is compared byte-for-byte against a checked-in fixture.
//!
//! To regenerate after an *intentional* schema change (bump
//! `SCHEMA_VERSION` first):
//!
//! ```text
//! LESGS_UPDATE_FIXTURES=1 cargo test -p lesgs-bench --test report_schema
//! ```

use lesgs_bench::report::{run_record, Report, SCHEMA_VERSION};
use lesgs_compiler::CompilerConfig;
use lesgs_metrics::parse_json;
use lesgs_suite::programs::benchmark;
use lesgs_suite::tables::Table;
use lesgs_suite::{measure, Scale};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_report.json"
);

fn golden_report() -> String {
    let tak = benchmark("tak").expect("tak exists");
    let run = measure(&tak, Scale::Small, CompilerConfig::default())
        .expect("tak runs under paper defaults");
    let mut table = Table::new(vec!["benchmark".into(), "stack refs".into()]);
    table.row(vec![run.name.clone(), run.stats.stack_refs().to_string()]);
    let mut report = Report::new("golden", "Report-schema golden fixture", Scale::Small);
    report.add_table("main", &table);
    report.add_run(run_record("paper_default", &run));
    report.note("Fixture for the schema golden test; see tests/report_schema.rs.");
    report.to_json().pretty()
}

#[test]
fn schema_version_is_pinned() {
    assert_eq!(
        SCHEMA_VERSION, 1,
        "schema version changed: regenerate the fixture and update \
         OBSERVABILITY.md's schema section"
    );
}

#[test]
fn report_matches_checked_in_fixture() {
    let got = golden_report();
    if std::env::var("LESGS_UPDATE_FIXTURES").is_ok() {
        std::fs::write(FIXTURE, &got).expect("write fixture");
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("fixture exists; regenerate with LESGS_UPDATE_FIXTURES=1");
    assert_eq!(
        got, want,
        "JSON report schema drifted from the checked-in fixture; if the \
         change is intentional, bump SCHEMA_VERSION and regenerate with \
         LESGS_UPDATE_FIXTURES=1"
    );
}

#[test]
fn committed_bench_report_is_valid() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_report.json");
    let text = std::fs::read_to_string(path)
        .expect("BENCH_report.json exists at the repo root (run bench-report)");
    let doc = parse_json(&text).expect("BENCH_report.json parses");
    assert_eq!(
        doc.get("schema_version").and_then(|v| v.as_u64()),
        Some(SCHEMA_VERSION)
    );
    assert_eq!(
        doc.get("tool").and_then(|v| v.as_str()),
        Some("lesgs-bench")
    );
    let runs = doc.get("runs").and_then(|r| r.as_array()).expect("runs");
    // Every suite benchmark appears under the full-optimization config.
    for b in lesgs_suite::all_benchmarks() {
        assert!(
            runs.iter().any(|r| {
                r.get("benchmark").and_then(|v| v.as_str()) == Some(b.name)
                    && r.get("config").and_then(|v| v.as_str()) == Some("paper_default")
            }),
            "{} missing from BENCH_report.json runs",
            b.name
        );
    }
}
