//! Running benchmarks under configurations and deriving the paper's
//! comparison metrics.

use lesgs_compiler::{compile, CompilerConfig};
use lesgs_core::AllocConfig;
use lesgs_metrics::ratio;
use lesgs_vm::{CostModel, RunStats};

use crate::programs::{Benchmark, Scale};

/// One benchmark executed under one configuration.
#[derive(Debug, Clone)]
pub struct BenchmarkRun {
    /// Benchmark name.
    pub name: String,
    /// Final value (write-rendered).
    pub value: String,
    /// Runtime counters.
    pub stats: RunStats,
    /// Static shuffle statistics of the compiled program.
    pub shuffle: lesgs_core::stats::ShuffleStats,
}

/// What one run varies: the allocator, the cost model, and the two
/// compiler switches the ablations turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Register allocator configuration.
    pub alloc: AllocConfig,
    /// VM cost model.
    pub cost: CostModel,
    /// Selective lambda lifting before closure conversion (§6).
    pub lambda_lift: bool,
    /// The backend peephole optimizer switched off.
    pub no_peephole: bool,
}

impl From<AllocConfig> for RunConfig {
    fn from(alloc: AllocConfig) -> RunConfig {
        RunConfig {
            alloc,
            cost: CostModel::alpha_like(),
            lambda_lift: false,
            no_peephole: false,
        }
    }
}

impl RunConfig {
    /// The paper's configuration: lazy saves, eager restores, greedy
    /// shuffling, six argument registers, the `alpha_like` cost model.
    pub fn paper_default() -> RunConfig {
        AllocConfig::paper_default().into()
    }
}

/// Compiles and runs `bench` under `config`, checking the value against
/// the benchmark's known answer at standard scale.
///
/// # Errors
///
/// Compile or runtime failures and wrong answers, stringified.
pub fn measure(bench: &Benchmark, scale: Scale, config: RunConfig) -> Result<BenchmarkRun, String> {
    let compiler = CompilerConfig {
        alloc: config.alloc,
        cost: config.cost,
        fuel: 4_000_000_000,
        lambda_lift: config.lambda_lift,
        no_peephole: config.no_peephole,
        ..CompilerConfig::default()
    };
    let compiled = compile(bench.source(scale), &compiler).map_err(|e| e.to_string())?;
    let out = compiled.run(&compiler).map_err(|e| e.to_string())?;
    if let (Scale::Standard, Some(expected)) = (scale, bench.expected) {
        if out.value != expected {
            return Err(format!(
                "{}: produced {}, expected {expected}",
                bench.name, out.value
            ));
        }
    }
    Ok(BenchmarkRun {
        name: bench.name.to_owned(),
        value: out.value,
        stats: out.stats,
        shuffle: compiled.shuffle_stats(),
    })
}

/// A baseline-vs-optimized comparison (one Table 3 cell pair).
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Stack references in the baseline run.
    pub base_stack_refs: u64,
    /// Stack references in the optimized run.
    pub opt_stack_refs: u64,
    /// Cycles in the baseline run.
    pub base_cycles: u64,
    /// Cycles in the optimized run.
    pub opt_cycles: u64,
}

impl Measurement {
    /// Builds the comparison from two runs.
    pub fn compare(base: &BenchmarkRun, opt: &BenchmarkRun) -> Measurement {
        Measurement {
            base_stack_refs: base.stats.stack_refs(),
            opt_stack_refs: opt.stats.stack_refs(),
            base_cycles: base.stats.cycles,
            opt_cycles: opt.stats.cycles,
        }
    }

    /// Percentage reduction in stack references (the paper's "stack
    /// ref reduction" column). A baseline with zero stack references
    /// cannot be reduced: `0.0`.
    pub fn stack_ref_reduction(&self) -> f64 {
        100.0 * (1.0 - ratio(self.opt_stack_refs as f64, self.base_stack_refs as f64, 1.0))
    }

    /// Percentage run-time improvement (the paper's "performance
    /// increase" column): `base/opt - 1`. An empty optimized run is
    /// treated as no improvement: `0.0`.
    pub fn speedup_percent(&self) -> f64 {
        100.0 * (ratio(self.base_cycles as f64, self.opt_cycles as f64, 1.0) - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::benchmark;

    #[test]
    fn measure_small_tak() {
        let b = benchmark("tak").unwrap();
        let run = measure(&b, Scale::Small, RunConfig::paper_default()).unwrap();
        assert_eq!(run.value, "3"); // tak(8,4,2) = 3
        assert!(run.stats.calls > 0);
    }

    #[test]
    fn comparison_math() {
        let m = Measurement {
            base_stack_refs: 100,
            opt_stack_refs: 28,
            base_cycles: 143,
            opt_cycles: 100,
        };
        assert!((m.stack_ref_reduction() - 72.0).abs() < 1e-9);
        assert!((m.speedup_percent() - 43.0).abs() < 1e-9);
    }

    #[test]
    fn comparison_zero_denominators() {
        let m = Measurement {
            base_stack_refs: 0,
            opt_stack_refs: 0,
            base_cycles: 0,
            opt_cycles: 0,
        };
        assert_eq!(m.stack_ref_reduction(), 0.0);
        assert_eq!(m.speedup_percent(), 0.0);
    }

    #[test]
    fn lazy_beats_baseline_on_small_tak() {
        let b = benchmark("tak").unwrap();
        let base = measure(&b, Scale::Small, AllocConfig::baseline().into()).unwrap();
        let opt = measure(&b, Scale::Small, RunConfig::paper_default()).unwrap();
        let m = Measurement::compare(&base, &opt);
        assert!(m.stack_ref_reduction() > 30.0, "{m:?}");
        assert!(m.speedup_percent() > 0.0, "{m:?}");
    }
}
