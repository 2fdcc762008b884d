//! Parallel construction of the full-suite benchmark report.
//!
//! [`build_suite_report`] is the library form of the `bench-report`
//! binary: every section of the paper's evaluation
//! ([`crate::sections`]), per-run records of the baseline and the paper
//! default, the classic-vs-decoded dispatch tables, and a replay of a
//! seeded compile-and-run workload through the [`lesgs_svc`] batch
//! service. Runs fan out across a worker pool ([`Runs`]) and merge in
//! benchmark order, so everything but the wall-clock tables
//! ([`crate::check::WALL_CLOCK_TABLES`]) is byte-identical whatever the
//! job count.

use std::collections::HashMap;
use std::time::Instant;

use lesgs_compiler::{compile, CompilerConfig};
use lesgs_core::AllocConfig;
use lesgs_exec::PoolStats;
use lesgs_metrics::{ratio, Histogram, Registry};
use lesgs_suite::programs::Benchmark;
use lesgs_suite::tables::{pct, Table};
use lesgs_suite::Scale;
use lesgs_svc::loadgen::{programs, requests, WorkloadConfig};
use lesgs_svc::{BatchStats, Request, Response, Service, ServiceConfig};
use lesgs_vm::{ClassicMachine, CostModel, DecodeStats, Machine};

use crate::report::{run_record, Report};
use crate::runs::Runs;
use crate::sections::{self, table};

/// Name of the sequential-vs-parallel wall-clock table (values are
/// timing-dependent; the shape is not).
pub const TIMING_TABLE: &str = "timing";

/// Name of the deterministic per-benchmark static code-size table
/// (source instructions and decoded ops): the counts only move when
/// codegen or the decoded layout changes.
pub const DISPATCH_TABLE: &str = "dispatch";

/// Name of the classic-vs-decoded throughput table (wall-clock).
pub const DISPATCH_THROUGHPUT_TABLE: &str = "dispatch_throughput";

/// Name of the deterministic service-cache accounting table: every
/// counter (requests, hits, misses, evictions) is a pure function of
/// the seeded workload.
pub const SERVICE_CACHE_TABLE: &str = "service_cache";

/// Name of the service throughput/latency table for the same workload
/// (wall-clock).
pub const SERVICE_THROUGHPUT_TABLE: &str = "service_throughput";

/// A built suite report plus the pool accounting behind it.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// The full report document.
    pub report: Report,
    /// What `bench-report` prints: each section's heading, table and
    /// notes, in report order.
    pub text: Vec<String>,
    /// Worker-pool accounting summed over every fan-out.
    pub stats: PoolStats,
}

/// Runs `benchmarks` at `scale` on `jobs` workers and builds the
/// `bench-report` document. `progress` is called with each section's
/// name, in report order, once the section is built.
///
/// # Panics
///
/// Panics when a benchmark fails to run or a worker job panics —
/// harnesses have no useful way to continue.
pub fn build_suite_report(
    benchmarks: Vec<Benchmark>,
    scale: Scale,
    jobs: usize,
    mut progress: impl FnMut(&str),
) -> SuiteReport {
    // Dispatch timing runs serially and first, before the worker pool
    // touches the heap: the classic-vs-decoded ratio is a wall-clock
    // measurement, and both concurrent jobs and a suite-worn allocator
    // skew it.
    let dispatches: Vec<(String, DispatchMeasurement)> = benchmarks
        .iter()
        .map(|b| (b.name.to_owned(), measure_dispatch(b, scale)))
        .collect();

    // The service workload also runs before the benchmark fan-out so
    // its throughput numbers see a quiet machine. Its cache counters
    // are worker-count-invariant by construction, so only the
    // SERVICE_THROUGHPUT_TABLE values are wall-clock-dependent.
    let service = measure_service(scale);

    let mut runs = Runs::new(benchmarks, scale, jobs);
    let mut report = Report::new("bench-report", "Full-suite benchmark report", scale);
    let mut text = Vec::new();
    // Each section's table joins the report under the section's name.
    macro_rules! add {
        ($($section:expr),* $(,)?) => {$(
            let s = $section;
            report.add_table(s.name, &s.table);
            text.push(s.to_string());
            progress(s.name);
        )*};
    }
    add!(sections::comparisons(&mut runs));
    for b in runs.benchmarks() {
        let [base, paper] = [AllocConfig::baseline(), AllocConfig::paper_default()];
        report.add_run(run_record("baseline", runs.get(b, base.into())));
        report.add_run(run_record("paper_default", runs.get(b, paper.into())));
    }
    report.add_table(DISPATCH_TABLE, &dispatch_table(&dispatches));
    report.add_table(
        DISPATCH_THROUGHPUT_TABLE,
        &dispatch_throughput_table(&dispatches),
    );
    report.add_table(SERVICE_CACHE_TABLE, &service_cache_table(&service));
    report.add_table(
        SERVICE_THROUGHPUT_TABLE,
        &service_throughput_table(&service),
    );
    add!(
        sections::table1(&mut runs),
        sections::table2(&mut runs),
        sections::table3(&mut runs),
        sections::table4(&mut runs),
        sections::table5(&mut runs),
        sections::figure1(),
        sections::figure2(&mut runs),
        sections::shuffle_stats(&mut runs),
        sections::register_sweep(&mut runs),
        sections::latency_ablation(&mut runs),
        sections::peephole_ablation(&mut runs),
        sections::lambda_lift(&mut runs),
        sections::branch_prediction(&mut runs),
        sections::compile_time(&mut runs),
    );
    report.add_table(TIMING_TABLE, &timing_table(jobs, runs.stats()));
    for note in [
        "Full optimization (lazy saves, eager restores, greedy shuffling, six \
         argument registers) vs the no-register baseline.",
        "Dispatch throughput compares the classic per-function interpreter \
         against the pre-decoded threaded dispatch loop on the paper-default \
         configuration; both engines observed identical counters and values \
         on every benchmark in this report.",
        "The service tables replay a fixed seeded compile-and-run workload \
         (lesgs-svc loadgen) through the batch service with its \
         content-keyed LRU program cache. Cache accounting is a pure \
         function of the workload (gated); throughput and latency are \
         wall-clock for the current machine (not gated). Every response \
         matched direct, uncached execution of its program.",
    ] {
        report.note(note);
    }
    SuiteReport {
        report,
        text,
        stats: runs.stats().clone(),
    }
}

/// The batch service replayed over a fixed seeded workload: the
/// deterministic cache accounting plus the wall-clock throughput and
/// latency of the replay.
struct ServiceMeasurement {
    workload: WorkloadConfig,
    cache_capacity: usize,
    workers: usize,
    compile_requests: u64,
    run_requests: u64,
    totals: BatchStats,
    latency: Histogram,
    wall_ns: f64,
}

/// The service workload per report scale. Small keeps test-time replay
/// fast; standard matches the published EXPERIMENTS.md numbers. The
/// worker count is fixed (independent of the report's `--jobs`): the
/// cache counters are worker-invariant anyway, and a fixed pool keeps
/// the throughput values comparable across report runs.
fn service_workload(scale: Scale) -> (WorkloadConfig, usize) {
    match scale {
        Scale::Small => (
            WorkloadConfig {
                programs: 16,
                requests: 600,
            },
            12,
        ),
        Scale::Standard => (
            WorkloadConfig {
                programs: 96,
                requests: 20_000,
            },
            64,
        ),
    }
}

/// Replays the scale's seeded workload through a fresh service in
/// batches of 256 and collects both sides of the measurement. The
/// request stream, and therefore every cache counter, is a pure
/// function of `scale`.
///
/// Every build doubles as a check of the service: the replay must
/// agree with direct execution ([`check_replay`]), or the build panics.
fn measure_service(scale: Scale) -> ServiceMeasurement {
    let (workload, cache_capacity) = service_workload(scale);
    let workers = 4;
    let pool = programs(&workload);
    let stream = requests(&workload, &pool);
    let mut service = Service::new(ServiceConfig {
        workers,
        cache_capacity,
        ..ServiceConfig::default()
    });
    let mut reg = Registry::new();
    let mut totals = BatchStats::default();
    let mut responses = Vec::with_capacity(stream.len());
    let start = Instant::now();
    for batch in stream.chunks(256) {
        let (rs, stats) = service.process_batch(batch, &mut reg);
        responses.extend(rs);
        totals.merge(&stats);
    }
    let wall_ns = start.elapsed().as_nanos() as f64;
    if let Err(e) = check_replay(&service, &pool, &stream, &responses) {
        panic!("service replay disagrees with direct execution: {e}");
    }
    let compile_requests = stream
        .iter()
        .filter(|r| matches!(r, Request::Compile { .. }))
        .count() as u64;
    ServiceMeasurement {
        workload,
        cache_capacity,
        workers,
        compile_requests,
        run_requests: stream.len() as u64 - compile_requests,
        totals,
        latency: reg
            .histogram("svc.request_latency_ns")
            .copied()
            .unwrap_or_default(),
        wall_ns,
    }
}

/// Checks `service`'s replay of `stream` over `pool` against direct
/// execution under the service's compiler configuration: each `Ran`
/// response must equal an uncached compile and run of its source, each
/// `Compiled` response must carry that program's code size, and no
/// request may fail. Returns the first disagreement.
fn check_replay(
    service: &Service,
    pool: &[String],
    stream: &[Request],
    responses: &[Response],
) -> Result<(), String> {
    // One direct compile and run per distinct program, not per request.
    let engine = service.engine();
    let mut direct = HashMap::new();
    for source in pool {
        let program = engine.compile(source).map_err(|e| e.to_string())?;
        let outcome = engine.execute(&program).map_err(|e| e.to_string())?;
        direct.insert(source.as_str(), (program.code_size(), outcome));
    }
    if responses.len() != stream.len() {
        return Err(format!(
            "{} responses to {} requests",
            responses.len(),
            stream.len()
        ));
    }
    for (i, (request, response)) in stream.iter().zip(responses).enumerate() {
        let (code_size, outcome) = &direct[request.source()];
        let agrees = match (request, response) {
            (Request::Compile { .. }, Response::Compiled { code_size: got, .. }) => {
                got == code_size
            }
            (Request::Run { .. }, Response::Ran { outcome: got, .. }) => **got == *outcome,
            _ => false,
        };
        if !agrees {
            return Err(format!("request {i} ({request:?}) got {response:?}"));
        }
    }
    Ok(())
}

/// The deterministic service-cache accounting table. Every value is a
/// pure function of the seeded workload and the cache capacity, so the
/// perf-regression gate covers it: a hit-rate or eviction drift means
/// the cache policy, the content keys, or the workload changed.
fn service_cache_table(m: &ServiceMeasurement) -> Table {
    let mut t = table("metric, value");
    t.row(vec!["requests".into(), m.totals.requests.to_string()]);
    t.row(vec!["programs".into(), m.workload.programs.to_string()]);
    t.row(vec![
        "compile requests".into(),
        m.compile_requests.to_string(),
    ]);
    t.row(vec!["run requests".into(), m.run_requests.to_string()]);
    t.row(vec!["cache capacity".into(), m.cache_capacity.to_string()]);
    t.row(vec!["cache hits".into(), m.totals.hits.to_string()]);
    t.row(vec!["cache misses".into(), m.totals.misses.to_string()]);
    t.row(vec!["evictions".into(), m.totals.evictions.to_string()]);
    t.row(vec!["hit rate".into(), pct(100.0 * m.totals.hit_rate())]);
    t.row(vec!["errors".into(), m.totals.errors.to_string()]);
    t
}

/// Service throughput and latency for the same replay — wall-clock
/// values, excluded from the perf-regression gate. Shape is fixed;
/// only the values vary run to run.
fn service_throughput_table(m: &ServiceMeasurement) -> Table {
    let per_sec = ratio(m.totals.requests as f64 * 1e9, m.wall_ns, 0.0);
    let mut t = table("metric, value");
    t.row(vec!["workers".into(), m.workers.to_string()]);
    t.row(vec!["wall (ms)".into(), format!("{:.1}", m.wall_ns / 1e6)]);
    t.row(vec!["throughput (req/s)".into(), format!("{per_sec:.0}")]);
    t.row(vec![
        "latency mean (us)".into(),
        format!("{:.1}", m.latency.mean() / 1e3),
    ]);
    t.row(vec![
        "latency max (us)".into(),
        format!("{:.1}", m.latency.max / 1e3),
    ]);
    t
}

/// One benchmark's classic-vs-decoded dispatch comparison: the static
/// decode statistics (deterministic) plus the wall time each engine
/// took to retire the same instruction stream.
struct DispatchMeasurement {
    stats: DecodeStats,
    instructions: u64,
    classic_ns: f64,
    decoded_ns: f64,
}

/// Compiles `b` once under the paper-default configuration and runs it
/// on both engines, timing each. Every report build doubles as a
/// differential check: the engines must agree on the final value and on
/// every [`lesgs_vm::RunStats`] counter, or the build panics.
///
/// Timing methodology: one untimed warm-up run per engine (which also
/// feeds the differential assertions), then [`TIMED_RUNS`] rounds in
/// which the two engines are timed back to back, keeping the minimum
/// per engine. The warm-up pays one-off costs (page-in, branch-predictor
/// training) outside the measurement; interleaving exposes both engines
/// to the same machine conditions, and min-of-N rejects scheduler and
/// hypervisor-steal noise without averaging it in.
const TIMED_RUNS: usize = 5;

fn measure_dispatch(b: &Benchmark, scale: Scale) -> DispatchMeasurement {
    let config = CompilerConfig {
        alloc: AllocConfig::paper_default(),
        cost: CostModel::alpha_like(),
        fuel: 4_000_000_000,
        ..CompilerConfig::default()
    };
    let compiled = compile(b.source(scale), &config)
        .unwrap_or_else(|e| panic!("{}: compile failed: {e}", b.name));
    let run_classic = || {
        ClassicMachine::new(&compiled.vm, config.cost)
            .with_fuel(config.fuel)
            .run()
            .unwrap_or_else(|e| panic!("{}: classic run failed: {e}", b.name))
    };
    let run_decoded = || {
        Machine::from_decoded(&compiled.decoded, config.cost)
            .with_fuel(config.fuel)
            .run()
            .unwrap_or_else(|e| panic!("{}: decoded run failed: {e}", b.name))
    };
    let classic = run_classic();
    let decoded = run_decoded();
    assert_eq!(
        classic.value, decoded.value,
        "{}: engines must agree on the result",
        b.name
    );
    assert_eq!(
        classic.stats, decoded.stats,
        "{}: counted events must be dispatch-invariant",
        b.name
    );
    let time_one = |run: &dyn Fn()| {
        let start = Instant::now();
        run();
        start.elapsed().as_nanos() as f64
    };
    let mut classic_ns = f64::INFINITY;
    let mut decoded_ns = f64::INFINITY;
    for _ in 0..TIMED_RUNS {
        classic_ns = classic_ns.min(time_one(&|| {
            run_classic();
        }));
        decoded_ns = decoded_ns.min(time_one(&|| {
            run_decoded();
        }));
    }
    DispatchMeasurement {
        stats: compiled.decoded.stats(),
        instructions: decoded.stats.instructions,
        classic_ns,
        decoded_ns,
    }
}

/// The deterministic static code-size table (one row per benchmark
/// plus a total row).
fn dispatch_table(dispatches: &[(String, DispatchMeasurement)]) -> Table {
    let mut t = table("benchmark, source instrs, decoded ops");
    let mut total = DecodeStats::default();
    let row = |name: &str, s: &DecodeStats| {
        vec![
            name.to_owned(),
            s.source_instructions.to_string(),
            s.decoded_ops.to_string(),
        ]
    };
    for (name, d) in dispatches {
        total.source_instructions += d.stats.source_instructions;
        total.decoded_ops += d.stats.decoded_ops;
        t.row(row(name, &d.stats));
    }
    t.row(row("Total", &total));
    t
}

/// Instructions retired per wall-clock second on each engine, per
/// benchmark, with an aggregate row computed from the summed totals.
/// Wall-clock values — excluded from the perf-regression gate.
fn dispatch_throughput_table(dispatches: &[(String, DispatchMeasurement)]) -> Table {
    let mops = |instructions: u64, ns: f64| {
        let per_sec = ratio(instructions as f64 * 1e9, ns, 0.0);
        format!("{:.1}", per_sec / 1e6)
    };
    let mut t = table("benchmark, instructions, classic (Mops/s), decoded (Mops/s), speedup");
    let (mut instr_total, mut classic_total, mut decoded_total) = (0u64, 0.0f64, 0.0f64);
    for (name, d) in dispatches {
        instr_total += d.instructions;
        classic_total += d.classic_ns;
        decoded_total += d.decoded_ns;
        t.row(vec![
            name.clone(),
            d.instructions.to_string(),
            mops(d.instructions, d.classic_ns),
            mops(d.instructions, d.decoded_ns),
            format!("{:.2}x", ratio(d.classic_ns, d.decoded_ns, 0.0)),
        ]);
    }
    t.row(vec![
        "Total".into(),
        instr_total.to_string(),
        mops(instr_total, classic_total),
        mops(instr_total, decoded_total),
        format!("{:.2}x", ratio(classic_total, decoded_total, 0.0)),
    ]);
    t
}

/// The sequential-vs-parallel wall-time comparison for one pool run.
/// "Sequential-equivalent" is the sum of per-benchmark job times — what
/// one worker would have spent — against the pool's actual wall time.
/// Row labels and shape are fixed; only the values vary run to run.
/// Times are reported in microseconds: small-scale suite runs finish in
/// well under a millisecond per benchmark, which the old millisecond
/// rendering rounded to an unreadable "0.0".
fn timing_table(jobs: usize, stats: &PoolStats) -> Table {
    let seq_us = stats.job_run.sum / 1e3;
    let wall_us = stats.wall_ns / 1e3;
    // `ratio` guards the idle-pool case (zero wall time) with 0.00x
    // rather than a NaN/inf leaking into the report.
    let speedup = ratio(stats.job_run.sum, stats.wall_ns, 0.0);
    let mut t = table("metric, value");
    t.row(vec!["jobs".into(), jobs.to_string()]);
    t.row(vec!["workers".into(), stats.workers.to_string()]);
    t.row(vec![
        "sequential-equivalent (us)".into(),
        format!("{seq_us:.1}"),
    ]);
    t.row(vec!["parallel wall (us)".into(), format!("{wall_us:.1}")]);
    t.row(vec!["speedup".into(), format!("{speedup:.2}x")]);
    t.row(vec![
        "worker utilization".into(),
        pct(stats.utilization() * 100.0),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use lesgs_metrics::Json;
    use lesgs_suite::all_benchmarks;

    #[test]
    fn parallel_report_is_identical_to_sequential_modulo_timing() {
        let benchmarks: Vec<_> = all_benchmarks().into_iter().take(4).collect();
        let seq = build_suite_report(benchmarks.clone(), Scale::Small, 1, |_| {});
        let par = build_suite_report(benchmarks, Scale::Small, 4, |_| {});
        // The perf gate's projection: everything but the wall-clock tables.
        let deterministic =
            |r: &SuiteReport| crate::check::deterministic_projection(&r.report.to_json()).pretty();
        assert_eq!(deterministic(&seq), deterministic(&par));
        assert_eq!(seq.text[0], par.text[0], "the comparisons section");
        assert_eq!(par.stats.workers, 4);
        assert_eq!(par.stats.panicked, 0);
    }

    #[test]
    fn timing_table_shape_is_fixed() {
        let a = timing_table(1, &PoolStats::new(1));
        let b = timing_table(4, &PoolStats::new(4));
        assert_eq!(a.headers(), b.headers());
        assert_eq!(a.rows().len(), b.rows().len());
        for (ra, rb) in a.rows().iter().zip(b.rows()) {
            assert_eq!(ra[0], rb[0], "metric labels must not vary");
        }
        assert!(
            a.headers()
                .iter()
                .chain(a.rows().iter().flatten())
                .all(|c| !c.contains("(ms)")),
            "timing is reported in microseconds"
        );
    }

    #[test]
    fn timing_table_guards_zero_wall_time() {
        // A pool that recorded no wall time (degenerate, but possible
        // on a coarse clock) must not emit NaN or inf.
        let t = timing_table(1, &PoolStats::new(1));
        let speedup = &t.rows()[4];
        assert_eq!(speedup[0], "speedup");
        assert_eq!(speedup[1], "0.00x");
    }

    #[test]
    fn service_cache_table_is_deterministic_and_sums() {
        let a = measure_service(Scale::Small);
        let b = measure_service(Scale::Small);
        // The accounting side is a pure function of the scale's seeded
        // workload — only the wall-clock side may differ between runs.
        assert_eq!(
            format!("{}", service_cache_table(&a)),
            format!("{}", service_cache_table(&b))
        );
        assert_eq!(a.totals.requests, a.compile_requests + a.run_requests);
        assert_eq!(a.totals.hits + a.totals.misses, a.totals.requests);
        assert!(a.totals.hits > 0, "skewed workload must hit the cache");
        assert!(
            a.totals.evictions > 0,
            "pool larger than the cache must evict"
        );
    }

    #[test]
    fn service_throughput_table_shape_is_fixed() {
        let zero = ServiceMeasurement {
            workload: WorkloadConfig {
                programs: 0,
                requests: 0,
            },
            cache_capacity: 0,
            workers: 1,
            compile_requests: 0,
            run_requests: 0,
            totals: BatchStats::default(),
            latency: Histogram::default(),
            wall_ns: 0.0,
        };
        let live = measure_service(Scale::Small);
        let (a, b) = (
            service_throughput_table(&zero),
            service_throughput_table(&live),
        );
        assert_eq!(a.headers(), b.headers());
        assert_eq!(a.rows().len(), b.rows().len());
        for (ra, rb) in a.rows().iter().zip(b.rows()) {
            assert_eq!(ra[0], rb[0], "metric labels must not vary");
        }
        // The zero-wall degenerate case must not leak NaN/inf.
        assert_eq!(a.rows()[2][1], "0");
    }

    #[test]
    fn replay_check_rejects_an_altered_outcome_and_a_failure() {
        let workload = WorkloadConfig {
            programs: 6,
            requests: 48,
        };
        let pool = programs(&workload);
        let stream = requests(&workload, &pool);
        let mut service = Service::new(ServiceConfig::default());
        let (responses, _) = service.process_batch(&stream, &mut Registry::new());
        check_replay(&service, &pool, &stream, &responses).expect("a faithful replay passes");

        let ran = responses
            .iter()
            .position(|r| matches!(r, Response::Ran { .. }))
            .expect("the workload has run requests");
        let mut altered = responses.clone();
        if let Response::Ran { outcome, .. } = &mut altered[ran] {
            outcome.value.push('0');
        }
        assert!(check_replay(&service, &pool, &stream, &altered).is_err());

        let mut failed = responses;
        failed[ran] = Response::Failed {
            key: 0,
            message: "injected".to_owned(),
        };
        assert!(check_replay(&service, &pool, &stream, &failed).is_err());
    }

    #[test]
    fn sections_arrive_in_report_order_and_tables_close_with_totals() {
        let benchmarks: Vec<_> = all_benchmarks().into_iter().take(2).collect();
        let mut seen = Vec::new();
        let built = build_suite_report(benchmarks, Scale::Small, 2, |name| {
            seen.push(name.to_owned());
        });
        let json = built.report.to_json();
        let tables = json.get("tables").and_then(|t| t.as_array()).unwrap();
        let name = |t: &Json| t.get("name").and_then(|n| n.as_str()).unwrap().to_owned();
        // Every table but the dispatch, service and timing ones is a section.
        let sections: Vec<_> = tables
            .iter()
            .map(name)
            .filter(|n| {
                !["dispatch", "service_", TIMING_TABLE]
                    .iter()
                    .any(|t| n.starts_with(t))
            })
            .collect();
        assert_eq!(sections, seen, "progress names every section in order");
        assert_eq!((seen.len(), built.text.len()), (15, 15));
        for table in tables.iter().filter(|t| name(t).starts_with("dispatch")) {
            let rows = table.get("rows").and_then(|r| r.as_array()).unwrap();
            assert_eq!(rows.len(), 3, "{}: 2 benchmarks + total", name(table));
            assert_eq!(rows[2].as_array().unwrap()[0].as_str(), Some("Total"));
        }
    }
}
