//! The `bench-report` command line: the default output file follows the
//! scale, and any argument outside `--small`, `--jobs N`, `--out=PATH`
//! and `--check PATH` is rejected before anything runs.

use std::path::PathBuf;
use std::process::Command;

use lesgs_metrics::parse_json;

/// A fresh empty directory for one test, so each run's files are its own.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-report-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn bench_report(dir: &PathBuf, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bench-report"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("bench-report runs")
}

fn files_in(dir: &PathBuf) -> Vec<String> {
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .expect("read scratch dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

#[test]
fn unknown_arguments_exit_2_with_usage_and_write_nothing() {
    let dir = scratch_dir("unknown");
    for args in [
        &["--smal"][..],
        &["--small", "--jobs=4"],
        &["--small", "--json"],
        &["--jobs", "0"],
        &["--check"],
    ] {
        let out = bench_report(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: bench-report"), "{args:?}: {stderr}");
    }
    assert!(files_in(&dir).is_empty(), "rejected runs wrote files");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn small_scale_writes_the_small_baseline_not_the_standard_report() {
    let dir = scratch_dir("small");
    let out = bench_report(&dir, &["--small", "--jobs", "2"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(files_in(&dir), ["BENCH_baseline_small.json"]);
    let text = std::fs::read_to_string(dir.join("BENCH_baseline_small.json")).unwrap();
    let doc = parse_json(&text).expect("the report parses");
    assert_eq!(doc.get("scale").and_then(|s| s.as_str()), Some("small"));
    std::fs::remove_dir_all(&dir).ok();
}
