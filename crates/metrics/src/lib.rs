//! Observability primitives for the lesgs workspace.
//!
//! The paper's entire evaluation is measurement — dynamic stack
//! references, save/restore counts, shuffle temporaries — so this
//! crate makes metrics a first-class subsystem rather than ad-hoc
//! printing. It provides, with zero third-party dependencies:
//!
//! * [`Registry`] — a lightweight ordered registry of counters,
//!   gauges, and histograms, plus span-based wall-time measurement
//!   ([`Registry::time`]) with optional trace logging of span
//!   boundaries,
//! * [`json`] — a minimal JSON document model (writer **and** parser)
//!   used by `lesgsc --profile=json`, `bench-report`'s JSON report,
//!   and the golden schema tests,
//! * [`ratio`] — the single shared zero-denominator-safe division all
//!   derived fractions in the workspace go through.
//!
//! Instrument names, units, and the exported JSON schema are
//! documented in `OBSERVABILITY.md` at the repository root.
//!
//! # Examples
//!
//! ```
//! use lesgs_metrics::Registry;
//!
//! let mut reg = Registry::new();
//! let sum = reg.time("pass.demo", || (1..=10).sum::<u64>());
//! reg.inc("demo.events", sum);
//! assert_eq!(reg.counter("demo.events"), 55);
//! let json = reg.to_json(true).pretty();
//! assert!(json.contains("pass.demo.wall_ns"));
//! ```

#![warn(missing_docs)]

pub mod json;
pub mod registry;

pub use json::{parse as parse_json, Json, JsonError};
pub use registry::{Histogram, Registry, Span};

/// Divides `num` by `den`, returning `if_zero` when the denominator is
/// zero (or so small the quotient would not be finite).
///
/// Every derived fraction in the workspace routes through this helper
/// so zero-denominator behavior is consistent and explicit at the call
/// site: rates and fractions of "nothing happened" use `0.0`, while
/// vacuously-true proportions (e.g. "greedy matched the optimum at
/// every site" when there are no sites) use `1.0`.
///
/// # Examples
///
/// ```
/// use lesgs_metrics::ratio;
/// assert_eq!(ratio(3.0, 4.0, 0.0), 0.75);
/// assert_eq!(ratio(3.0, 0.0, 0.0), 0.0);
/// assert_eq!(ratio(0.0, 0.0, 1.0), 1.0);
/// ```
pub fn ratio(num: f64, den: f64, if_zero: f64) -> f64 {
    let q = num / den;
    if q.is_finite() {
        q
    } else {
        if_zero
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_zero_denominator() {
        assert_eq!(ratio(5.0, 0.0, 0.0), 0.0);
        assert_eq!(ratio(0.0, 0.0, 1.0), 1.0);
        assert_eq!(ratio(-2.0, 0.0, 0.5), 0.5);
    }

    #[test]
    fn ratio_ordinary_division() {
        assert_eq!(ratio(1.0, 2.0, 9.0), 0.5);
        assert_eq!(ratio(0.0, 2.0, 9.0), 0.0);
        assert_eq!(ratio(-1.0, 4.0, 9.0), -0.25);
    }

    #[test]
    fn ratio_guards_nonfinite_quotients() {
        // Tiny denominators that overflow to infinity also fall back.
        assert_eq!(ratio(f64::MAX, f64::MIN_POSITIVE, 7.0), 7.0);
    }
}
