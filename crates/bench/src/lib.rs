//! The paper's evaluation as one gated report.
//!
//! The `bench-report` binary builds every table and figure of the paper,
//! the ablations, and the suite-wide dispatch and service measurements
//! into one report document (see DESIGN.md's experiment index). [`runs`]
//! makes each (benchmark, configuration) run once per build on a worker
//! pool, [`sections`] turns the runs into the paper's tables,
//! [`suite_report`] assembles the document, and [`check`] is the
//! perf-regression gate behind `bench-report --check`.

pub mod check;
pub mod report;
pub mod runs;
pub mod sections;
pub mod suite_report;
