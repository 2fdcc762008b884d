//! Every (benchmark, configuration) run the report's sections read,
//! made once per build.
//!
//! A section asks [`Runs`] for the runs it needs. The ones not made yet
//! fan out over a [`lesgs_exec`] worker pool and merge back in request
//! order, so what a section reads never depends on the job count. A run
//! that several sections read — nearly every section reads the
//! paper-default configuration — is made by the first and reused by the
//! rest. Every run of one benchmark must produce the same value, whatever
//! its configuration.

use lesgs_exec::{map_ordered, PoolConfig, PoolStats};
use lesgs_suite::{measure, Benchmark, BenchmarkRun, RunConfig, Scale};

/// The runs made so far for one report build, keyed by benchmark name
/// and configuration.
#[derive(Debug)]
pub struct Runs {
    scale: Scale,
    pool: PoolConfig,
    benchmarks: Vec<Benchmark>,
    made: Vec<(&'static str, RunConfig, BenchmarkRun)>,
    stats: PoolStats,
}

impl Runs {
    /// An empty set of runs of `benchmarks` at `scale`, made on `jobs`
    /// wide-stack workers (compilation recurses over program structure).
    pub fn new(benchmarks: Vec<Benchmark>, scale: Scale, jobs: usize) -> Runs {
        Runs {
            scale,
            pool: PoolConfig {
                workers: jobs.max(1),
                stack_bytes: lesgs_interp::wide_stack_bytes(),
                name: "lesgs-bench".to_owned(),
                worker_init: Some(lesgs_interp::mark_wide_stack),
            },
            benchmarks,
            made: Vec::new(),
            stats: PoolStats::default(),
        }
    }

    /// The problem size every run uses.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The suite the per-benchmark sections cover, in report order.
    pub fn benchmarks(&self) -> &[Benchmark] {
        &self.benchmarks
    }

    /// Pool accounting summed over every fan-out so far.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// Makes the run of every suite benchmark under each of `configs`.
    pub(crate) fn run_suite(&mut self, configs: &[RunConfig]) {
        let benchmarks = std::mem::take(&mut self.benchmarks);
        let wanted = benchmarks
            .iter()
            .flat_map(|b| configs.iter().map(move |&c| (b, c)));
        self.run(wanted);
        self.benchmarks = benchmarks;
    }

    /// Makes each run in `wanted` that is not made yet. The benchmark
    /// need not be in the suite (Tables 4 and 5 always read tak).
    ///
    /// # Panics
    ///
    /// Panics when a run fails, or when two runs of one benchmark
    /// disagree on its value.
    pub(crate) fn run<'a>(&mut self, wanted: impl IntoIterator<Item = (&'a Benchmark, RunConfig)>) {
        let mut jobs: Vec<(&Benchmark, RunConfig)> = Vec::new();
        for (b, config) in wanted {
            let queued = jobs.iter().any(|(j, c)| j.name == b.name && *c == config);
            if !queued && self.find(b.name, config).is_none() {
                jobs.push((b, config));
            }
        }
        let scale = self.scale;
        let run = |(b, config): (&Benchmark, RunConfig)| {
            let made = measure(b, scale, config)
                .unwrap_or_else(|e| panic!("benchmark {} failed: {e}", b.name));
            (b.name, config, made)
        };
        for made in self.fan_out(jobs, run) {
            if let Some((name, other, first)) = self.made.iter().find(|(n, ..)| *n == made.0) {
                assert_eq!(
                    first.value, made.2.value,
                    "{name}: {other:?} and {:?} must agree on the answer",
                    made.1
                );
            }
            self.made.push(made);
        }
    }

    /// The run of `b` under `config`.
    ///
    /// # Panics
    ///
    /// Panics when that run was never made.
    pub fn get(&self, b: &Benchmark, config: RunConfig) -> &BenchmarkRun {
        self.find(b.name, config)
            .unwrap_or_else(|| panic!("{}: no run made under {config:?}", b.name))
    }

    fn find(&self, name: &str, config: RunConfig) -> Option<&BenchmarkRun> {
        let made = self
            .made
            .iter()
            .find(|(n, c, _)| *n == name && *c == config);
        made.map(|(.., run)| run)
    }

    /// Runs `f` over `items` on the pool and returns the results in item
    /// order; the pool's accounting joins [`Runs::stats`].
    ///
    /// # Panics
    ///
    /// Panics when a job panics.
    pub(crate) fn fan_out<I: Send, T: Send>(
        &mut self,
        items: Vec<I>,
        f: impl Fn(I) -> T + Sync,
    ) -> Vec<T> {
        if items.is_empty() {
            return Vec::new();
        }
        let outcome = map_ordered(&self.pool, items, |_, item| f(item));
        self.stats.merge(&outcome.stats);
        outcome
            .results
            .into_iter()
            .map(|slot| slot.unwrap_or_else(|p| panic!("benchmark job panicked: {p}")))
            .collect()
    }
}
