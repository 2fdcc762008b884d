//! `bench-report` — every paper result and the suite-wide measurements
//! as one report document.
//!
//! Prints each section of the paper's evaluation (Tables 1–5, Figures
//! 1–2, the §3.1/§4/§6 statistics and the ablations) on stdout and
//! writes them, with per-run records for the whole suite, as one JSON
//! document in the shared report schema (OBSERVABILITY.md). The default
//! file follows the scale — `BENCH_report.json`, or
//! `BENCH_baseline_small.json` with `--small` — and `--out=PATH` picks
//! another. `--jobs N` fans the runs across N workers; only the
//! wall-clock tables (`lesgs_bench::check::WALL_CLOCK_TABLES`) depend
//! on it. `--check BASELINE` is the CI perf-regression gate: it compares
//! everything but the wall-clock tables with the baseline, writes
//! nothing unless `--out=` is given, and exits 1 with the first
//! divergent line on drift. Any other argument exits 2 with a usage
//! line.

use lesgs_bench::check::check_reports;
use lesgs_bench::suite_report::build_suite_report;
use lesgs_suite::{all_benchmarks, Scale};

const USAGE: &str = "usage: bench-report [--small] [--jobs N] [--out=PATH] [--check PATH]";

struct Args {
    scale: Scale,
    jobs: usize,
    out: Option<String>,
    check: Option<String>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        scale: Scale::Standard,
        jobs: 1,
        out: None,
        check: None,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--small" => parsed.scale = Scale::Small,
            "--jobs" => {
                parsed.jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--jobs requires a number >= 1")?;
            }
            "--check" => {
                parsed.check = Some(args.next().ok_or("--check requires a baseline path")?)
            }
            _ => match a.strip_prefix("--out=").filter(|p| !p.is_empty()) {
                Some(path) => parsed.out = Some(path.to_owned()),
                None => return Err(format!("unknown argument `{a}`")),
            },
        }
    }
    Ok(parsed)
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("bench-report: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let default = match args.scale {
        Scale::Standard => "BENCH_report.json",
        Scale::Small => "BENCH_baseline_small.json",
    };
    // In --check mode nothing is written unless --out= asks for it.
    let path = args
        .out
        .or_else(|| args.check.is_none().then(|| default.to_owned()));

    let built = build_suite_report(all_benchmarks(), args.scale, args.jobs, |name| {
        eprintln!("{name}: done");
    });
    if args.jobs > 1 {
        eprintln!("bench-report: exec: {}", built.stats.summary());
    }

    println!("Full-suite benchmark report ({:?} scale)\n", args.scale);
    println!("{}", built.text.join("\n"));
    if let Some(path) = &path {
        std::fs::write(path, built.report.to_json().pretty())
            .unwrap_or_else(|e| panic!("{path}: {e}"));
        println!("wrote {path}");
    }

    if let Some(baseline_path) = args.check {
        let text = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("{baseline_path}: {e}"));
        let baseline = lesgs_metrics::parse_json(&text)
            .unwrap_or_else(|e| panic!("{baseline_path}: not valid JSON: {e}"));
        match check_reports(&baseline, &built.report.to_json()) {
            Ok(()) => println!("perf gate: deterministic fields match {baseline_path}"),
            Err(diff) => {
                eprintln!("perf gate: report drifted from {baseline_path}\n{diff}");
                std::process::exit(1);
            }
        }
    }
}
