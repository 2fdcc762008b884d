//! `lesgs-perfbench`: the repository's end-to-end and per-layer
//! benchmark (see `perfbench/README.md`).
//!
//! ```text
//! lesgs-perfbench --workload <suite-run|compile-lbc|svc-skewed> \
//!                 --seed <n> --seconds <s> --trace <0|1>
//! lesgs-perfbench refs > perfbench/suite/expected.txt
//! ```
//!
//! A run sets the workload up [`SETUPS`] times (build inputs, construct
//! the engine or service, one untimed warm-up pass), then times whole
//! passes over its inputs for `--seconds`, checks every answer, and
//! prints one JSON object as the last line of standard output. With
//! `--trace 0` it reports the end-to-end metrics, its times scaled to a
//! reference host speed (`calib.rs`); with `--trace 1` it alternates
//! ordinary passes with passes that record a span around every layer
//! call, and reports the per-layer metrics.

mod calib;
mod gen;
mod programs;
mod service;
mod suite;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use trace::Tracer;

/// Setups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Step budget of the reference interpreter.
const INTERP_FUEL: u64 = 1_000_000_000;

/// `(name, unit)` of every end-to-end metric, as in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("code_instrs", "count"),
    ("stack_refs", "count"),
    ("modeled_cycles", "count"),
];

/// `(name, unit)` of every per-layer metric, as in `BENCHMARK.json`.
/// A layer that a workload does not call reports 0.
const PER_LAYER: [(&str, &str); 36] = [
    ("frontend.ms", "ms"),
    ("frontend.share", "ratio"),
    ("frontend.src_kb_per_ms", "KiB/ms"),
    ("ir.ms", "ms"),
    ("ir.nodes", "count"),
    ("core.ms", "ms"),
    ("core.share", "ratio"),
    ("core.save_sites", "count"),
    ("core.greedy_temps", "count"),
    ("codegen.ms", "ms"),
    ("codegen.instrs", "count"),
    ("engine.serialize_ms", "ms"),
    ("engine.deserialize_ms", "ms"),
    ("engine.blob_kb", "KiB"),
    ("vm.verify_ms", "ms"),
    ("vm.decode_ms", "ms"),
    ("vm.decoded_ops", "count"),
    ("vm.exec_ms", "ms"),
    ("vm.exec_share", "ratio"),
    ("vm.exec_mips", "Minstr/s"),
    ("vm.instrs", "count"),
    ("vm.stall_cycles", "count"),
    ("svc.hit_ratio", "ratio"),
    ("svc.misses", "count"),
    ("svc.evictions", "count"),
    ("svc.overhead_ms", "ms"),
    ("svc.compile_share", "ratio"),
    ("svc.exec_share", "ratio"),
    ("exec.queue_wait_ms", "ms"),
    ("exec.utilization", "ratio"),
    ("host.cpu_s", "s"),
    ("host.runq_wait_ms", "ms"),
    ("host.speed", "ratio"),
    ("trace.job_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.attributed_share", "ratio"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkloadKind {
    SuiteRun,
    CompileLbc,
    SvcSkewed,
}

impl WorkloadKind {
    const ALL: [(&'static str, WorkloadKind); 3] = [
        ("suite-run", WorkloadKind::SuiteRun),
        ("compile-lbc", WorkloadKind::CompileLbc),
        ("svc-skewed", WorkloadKind::SvcSkewed),
    ];

    fn name(self) -> &'static str {
        let (name, _) = WorkloadKind::ALL
            .into_iter()
            .find(|&(_, kind)| kind == self)
            .expect("every workload is listed");
        name
    }
}

struct Args {
    workload: WorkloadKind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Jobs attempted and failed, and whether every check held.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl Tally {
    fn job(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    fn fail(&mut self, why: &str) {
        eprintln!("perfbench: {why}");
        self.correct = false;
    }
}

/// Per-pass counts over a workload's distinct programs.
#[derive(Default)]
struct Counts {
    code_instrs: u64,
    stack_refs: u64,
    modeled_cycles: u64,
}

/// What a workload does; the run loop in [`run`] is shared.
trait Workload: Sized {
    fn setup(kind: WorkloadKind, seed: u64) -> Self;
    /// One pass over the inputs, pushing each job's latency in ms.
    /// Returns the number of jobs (programs, or service requests).
    fn pass(&mut self, latencies: &mut Vec<f64>, tally: &mut Tally) -> u64;
    /// The same pass with a span around every layer call.
    fn traced_pass(&mut self, tracer: &mut Tracer, tally: &mut Tally);
    /// After the timed phase: checks every distinct program against its
    /// reference and returns the per-pass counts.
    fn check(&mut self, tally: &mut Tally) -> Counts;
    /// The per-layer metrics of the traced passes.
    fn layer_metrics(&mut self, tracer: &Tracer, metrics: &mut BTreeMap<&'static str, f64>);
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("refs") {
        let sources: Vec<String> = suite::PROGRAMS.iter().map(|p| p.1.to_owned()).collect();
        for ((name, _), reference) in suite::PROGRAMS.iter().zip(interp_refs(&sources)) {
            let Some((value, output)) = reference else {
                eprintln!("perfbench: the interpreter failed on {name}");
                return ExitCode::FAILURE;
            };
            println!("{}", suite::expected_line(name, &value, &output));
        }
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: lesgs-perfbench --workload <suite-run|compile-lbc|svc-skewed> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match args.workload {
        WorkloadKind::SuiteRun | WorkloadKind::CompileLbc => run::<programs::Programs>(&args),
        WorkloadKind::SvcSkewed => run::<service::Svc>(&args),
    }
    ExitCode::SUCCESS
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let (_, kind) = WorkloadKind::ALL
                    .into_iter()
                    .find(|(name, _)| name == value)
                    .ok_or_else(|| format!("unknown workload {value:?}"))?;
                workload = Some(kind);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("trace must be 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn run<W: Workload>(args: &Args) {
    let mut tally = Tally {
        correct: true,
        ..Tally::default()
    };
    // Every setup and every timed pass lies between two runs of the
    // calibration kernel; the end-to-end times are scaled to the
    // reference host speed (see `calib.rs`).
    let mut calibrator = calib::Calibrator::new();
    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut workload: Option<W> = None;
    for _ in 0..setups {
        // Drop the previous setup first, so peak memory holds one.
        drop(workload.take());
        let t = Instant::now();
        workload = Some(W::setup(args.workload, args.seed));
        let raw_s = t.elapsed().as_secs_f64();
        setup_s.push(raw_s * calibrator.factor());
    }
    let mut workload = workload.expect("at least one setup");
    // Peak memory after a fixed amount of work: the resident set grows
    // with every VM execution, so a mark taken at exit would rise with
    // the passes a run completes. The calibration kernel's tables are
    // resident throughout; they are the benchmark's, not the program's.
    let peak_rss_mb = host::peak_rss_mb() - calib::RESIDENT_BYTES as f64 / (1 << 20) as f64;

    let deadline = Duration::from_secs_f64(args.seconds);
    let host_before = host::snapshot();
    let mut latencies = Vec::new();
    let mut tracer = Tracer::new();
    let start = Instant::now();
    let (mut jobs, mut raw_s, mut scaled_s) = (0, 0.0, 0.0);
    loop {
        let first = latencies.len();
        let t = Instant::now();
        jobs += workload.pass(&mut latencies, &mut tally);
        let pass_s = t.elapsed().as_secs_f64();
        if args.trace {
            // Traced and untraced passes alternate and are compared
            // unscaled; the factor only feeds `host.speed`.
            workload.traced_pass(&mut tracer, &mut tally);
            calibrator.factor();
        } else {
            let factor = calibrator.factor();
            for latency in &mut latencies[first..] {
                *latency *= factor;
            }
            raw_s += pass_s;
            scaled_s += pass_s * factor;
        }
        if start.elapsed() >= deadline {
            break;
        }
    }
    let host_after = host::snapshot();

    let counts = workload.check(&mut tally);
    let mut metrics = BTreeMap::new();
    if args.trace {
        for (name, _) in PER_LAYER {
            metrics.insert(name, 0.0);
        }
        workload.layer_metrics(&tracer, &mut metrics);
        let untraced_ms = latencies.iter().sum::<f64>() / latencies.len() as f64;
        let traced_ms = metrics["trace.job_ms"];
        metrics.insert(
            "trace.overhead_pct",
            100.0 * (traced_ms / untraced_ms - 1.0),
        );
        metrics.insert("host.cpu_s", host_after.cpu_s - host_before.cpu_s);
        metrics.insert(
            "host.runq_wait_ms",
            host_after.runq_wait_ms - host_before.runq_wait_ms,
        );
        metrics.insert("host.speed", calibrator.median_factor());
        write_spans(
            &tracer,
            &format!("spans-{}-{}.tsv", args.workload.name(), args.seed),
        );
    } else {
        eprintln!(
            "perfbench: host speed {:.3} of reference (median over {} kernel runs); \
             unscaled throughput {:.4}/s",
            calibrator.median_factor(),
            calibrator.runs(),
            jobs as f64 / raw_s
        );
        latencies.sort_by(f64::total_cmp);
        metrics.insert("setup_s", median(&mut setup_s));
        metrics.insert("latency_ms_p50", quantile(&latencies, 0.5));
        metrics.insert("latency_ms_p90", quantile(&latencies, 0.9));
        metrics.insert("throughput_per_s", jobs as f64 / scaled_s);
        metrics.insert("peak_rss_mb", peak_rss_mb);
        metrics.insert("code_instrs", counts.code_instrs as f64);
        metrics.insert("stack_refs", counts.stack_refs as f64);
        metrics.insert("modeled_cycles", counts.modeled_cycles as f64);
    }
    if tally.failed > 0 {
        tally.correct = false;
    }
    let units: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", result_json(&tally, units, &metrics));
}

/// Writes the traced run's spans next to the benchmark binary (inside
/// the build directory).
fn write_spans(tracer: &Tracer, file: &str) {
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.to_path_buf()))
    else {
        return;
    };
    if let Err(e) = tracer.write_tsv(&dir.join(file)) {
        eprintln!("perfbench: could not write spans: {e}");
    }
}

fn result_json(tally: &Tally, units: &[(&str, &str)], metrics: &BTreeMap<&str, f64>) -> String {
    let fields: Vec<String> = units
        .iter()
        .map(|(name, unit)| {
            let value = metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct,
        tally.attempted,
        tally.failed,
        fields.join(", ")
    )
}

/// Quantile `p` of ascending `sorted` samples by the Harrell–Davis
/// estimator: a weighted mean of all order statistics, sample `i` of
/// `n` weighted by the Beta(p(n+1), (1-p)(n+1)) probability of
/// `((i-1)/n, i/n]`. The beta is replaced by the normal of the same
/// mean and variance, which is close for the hundreds of samples every
/// run has. One order statistic would jump between the suite's
/// programs, whose latencies cluster with gaps between them; this
/// estimate moves smoothly.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len() as f64;
    let var = p * (1.0 - p) / (n + 2.0);
    let cdf = |x: f64| 0.5 * (1.0 + erf((x - p) / (2.0 * var).sqrt()));
    let (mut sum, mut weights) = (0.0, 0.0);
    for (i, x) in sorted.iter().enumerate() {
        let w = cdf((i + 1) as f64 / n) - cdf(i as f64 / n);
        sum += w * x;
        weights += w;
    }
    if weights > 0.0 {
        sum / weights
    } else {
        0.0
    }
}

/// The error function (Abramowitz and Stegun 7.1.26, error below
/// 1.5e-7).
fn erf(x: f64) -> f64 {
    let t = 1.0 / (1.0 + 0.327_591_1 * x.abs());
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    (1.0 - poly * (-x * x).exp()).copysign(x)
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Reference answers `(value, output)` from the tree-walking
/// interpreter, evaluated on one wide-stack thread that is joined
/// before this returns.
fn interp_refs(sources: &[String]) -> Vec<Option<(String, String)>> {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(lesgs_interp::wide_stack_bytes())
            .spawn_scoped(s, || {
                lesgs_interp::mark_wide_stack();
                sources
                    .iter()
                    .map(|src| {
                        lesgs_interp::run_source(src, INTERP_FUEL)
                            .ok()
                            .map(|out| (out.value, out.output))
                    })
                    .collect()
            })
            .expect("spawn the interpreter thread")
            .join()
            .expect("the interpreter thread panicked")
    })
}

/// Linux `/proc` readings for the diagnostic `host.*` metrics.
mod host {
    pub struct Snapshot {
        pub cpu_s: f64,
        pub runq_wait_ms: f64,
    }

    /// Process CPU time (`/proc/self/stat` utime + stime, all threads
    /// including exited ones) and run-queue wait summed over the live
    /// threads (`/proc/self/task/*/schedstat`).
    pub fn snapshot() -> Snapshot {
        // USER_HZ is 100 on every Linux ABI that exposes /proc.
        const TICKS_PER_S: f64 = 100.0;
        let cpu_s = std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|stat| {
                let fields: Vec<u64> = stat
                    .rsplit_once(')')?
                    .1
                    .split_whitespace()
                    .skip(11)
                    .take(2)
                    .map(|f| f.parse().unwrap_or(0))
                    .collect();
                Some(fields.iter().sum::<u64>() as f64 / TICKS_PER_S)
            })
            .unwrap_or(0.0);
        let mut wait_ns = 0u64;
        if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                let line =
                    std::fs::read_to_string(task.path().join("schedstat")).unwrap_or_default();
                wait_ns += line
                    .split_whitespace()
                    .nth(1)
                    .and_then(|f| f.parse::<u64>().ok())
                    .unwrap_or(0);
            }
        }
        Snapshot {
            cpu_s,
            runq_wait_ms: wait_ns as f64 / 1e6,
        }
    }

    /// The process's resident-set high-water mark (`VmHWM`), in MiB.
    pub fn peak_rss_mb() -> f64 {
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|status| {
                let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
                let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
                Some(kb / 1024.0)
            })
            .unwrap_or(0.0)
    }
}
