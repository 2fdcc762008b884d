//! The benchmark suite and experiment machinery.
//!
//! [`programs`] holds mini-Scheme versions of the Gabriel-style kernels
//! the paper's evaluation uses (tak, takl, takr, cpstak, deriv, dderiv,
//! destruct, div-iter, div-rec, …) plus a few additional call-heavy
//! workloads. Every program comes in two sizes: `Small` for the
//! differential tests (which also run the slow reference interpreter)
//! and `Standard` for the experiments.
//!
//! [`measure()`] runs benchmarks under allocator configurations and
//! [`tables`] renders the paper's tables from the measurements.

pub mod measure;
pub mod programs;
pub mod tables;

pub use measure::{measure, BenchmarkRun, Measurement, RunConfig};
pub use programs::{all_benchmarks, Benchmark, Scale};
