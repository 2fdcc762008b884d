//! The cross-backend differential oracle.
//!
//! One generated program is judged by running it through the reference
//! interpreter (`lesgs-interp`) and through the compiled VM under every
//! allocator configuration of [`config_matrix`], with the bytecode
//! verifier as a must-pass gate before execution. The outcome taxonomy
//! keeps timeouts and generator artifacts out of the bug bucket:
//!
//! * **Pass** — every configuration verified and agreed with the
//!   interpreter on value and output.
//! * **Skip** — no verdict: a fuel budget ran out, or the oracle itself
//!   failed (e.g. fixnum overflow the generator failed to prevent).
//!   Skips are counted, never reported as finds.
//! * **Find** — evidence of a compiler bug: a compile error on a
//!   well-formed program, a bytecode-verification failure, a VM runtime
//!   error, or an outcome mismatch. The offending [`AllocConfig`] rides
//!   along in the [`DiffFailure`].

use lesgs_compiler::{config_matrix, differential_check, DiffFailure, DiffKind};
use lesgs_core::AllocConfig;

/// Oracle settings: the shared fuel budget (interpreter steps and VM
/// instructions). Every case is checked under the whole
/// [`config_matrix`].
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Step/instruction budget per execution.
    pub fuel: u64,
}

impl Default for OracleConfig {
    fn default() -> OracleConfig {
        OracleConfig { fuel: 20_000_000 }
    }
}

/// Why a case produced no verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SkipReason {
    /// A fuel budget ran out (in the oracle or in one configuration).
    Fuel,
    /// The reference interpreter failed the program, so there is
    /// nothing to compare against. On generated programs this points
    /// at a generator bug, not a compiler bug.
    OracleError(String),
}

/// The oracle's verdict on one program.
#[derive(Debug, Clone)]
pub enum CaseOutcome {
    /// All configurations verified and agreed with the interpreter.
    Pass,
    /// No verdict (see [`SkipReason`]).
    Skip(SkipReason),
    /// Evidence of a compiler bug under the failure's configuration.
    Find(DiffFailure),
}

/// Judges one program source under every configuration of the matrix.
pub fn check_source(src: &str, oc: &OracleConfig) -> CaseOutcome {
    match differential_check(src, &config_matrix(), oc.fuel) {
        Ok(()) => CaseOutcome::Pass,
        Err(f) => match &f.kind {
            DiffKind::FuelExhausted => CaseOutcome::Skip(SkipReason::Fuel),
            DiffKind::OracleError { message } => {
                CaseOutcome::Skip(SkipReason::OracleError(message.clone()))
            }
            _ => CaseOutcome::Find(f),
        },
    }
}

/// True when `src` still fails (with any miscompile kind) under the
/// single given configuration — the fast predicate the shrinker runs
/// per candidate, checking only the configuration the original find
/// implicated.
pub fn still_fails_under(src: &str, config: &AllocConfig, fuel: u64) -> bool {
    match differential_check(src, std::slice::from_ref(config), fuel) {
        Ok(()) => false,
        Err(f) => f.is_miscompile(),
    }
}
