//! Deterministic randomness for tests and benches, with no external
//! dependencies.
//!
//! The workspace must build and test in fully offline environments, so
//! the property-style tests cannot depend on `proptest`/`rand`. This
//! crate provides the two pieces they actually need:
//!
//! * [`Rng`] — a tiny, fast, seedable generator (SplitMix64), good
//!   enough for structural test-case generation (not cryptography).
//! * [`run_cases`] — a fixed-seed case loop that reports the failing
//!   case's seed so a failure reproduces exactly with
//!   `Rng::new(seed)`.
//!
//! Generators are ordinary functions `fn(&mut Rng) -> T`; shrinking is
//! traded away for zero dependencies and perfect reproducibility.
//!
//! [`counting`] is the counting global allocator of the tests that bound
//! allocations or live heap.

use std::fmt;

pub mod counting;

/// A deterministic 64-bit generator (SplitMix64, Steele et al. 2014).
///
/// # Examples
///
/// ```
/// use lesgs_testkit::Rng;
/// let mut a = Rng::new(7);
/// let mut b = Rng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        // Multiply-shift rejection-free mapping; bias is negligible for
        // the small ranges tests use.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// A uniform `i64` in the inclusive range `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let span = (hi as i128 - lo as i128 + 1) as u128;
        lo + ((self.next_u64() as u128 % span) as i64)
    }

    /// A uniform `u32` in `0..n`.
    pub fn below_u32(&mut self, n: u32) -> u32 {
        self.below(n as usize) as u32
    }

    /// True with probability `num/den`.
    pub fn chance(&mut self, num: u32, den: u32) -> bool {
        self.below_u32(den) < num
    }

    /// A uniformly chosen element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// Chooses an index with probability proportional to its weight.
    ///
    /// # Panics
    ///
    /// Panics if all weights are zero or `weights` is empty.
    pub fn weighted(&mut self, weights: &[u32]) -> usize {
        let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
        assert!(total > 0, "weighted() needs a positive total weight");
        let mut roll = self.next_u64() % total;
        for (i, &w) in weights.iter().enumerate() {
            let w = u64::from(w);
            if roll < w {
                return i;
            }
            roll -= w;
        }
        unreachable!("roll below total")
    }
}

/// The panic payload [`run_cases`] raises around a failing case, so the
/// report carries the reproducing seed.
#[derive(Debug)]
pub struct CaseFailure {
    /// Seed of the failing case: `Rng::new(seed)` reproduces it.
    pub seed: u64,
    /// Case index within the run.
    pub case: u32,
    /// The inner panic, rendered.
    pub message: String,
    /// An exact shell command reproducing the case (when the property
    /// has a CLI entry point, e.g. `lesgs-fuzz --seed N`).
    pub repro: Option<String>,
}

impl fmt::Display for CaseFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.repro {
            Some(cmd) => write!(
                f,
                "property failed at case {} (reproduce with: {cmd}): {}",
                self.case, self.message
            ),
            None => write!(
                f,
                "property failed at case {} (reproduce with Rng::new({})): {}",
                self.case, self.seed, self.message
            ),
        }
    }
}

fn payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic".to_owned()
    }
}

/// Runs `body` for `cases` deterministic seeds, panicking with the
/// failing seed on the first failure.
///
/// Seeds are derived from the case index (never from time), so every
/// run of the suite exercises the identical case set.
///
/// # Panics
///
/// Re-raises the first failing case as a [`CaseFailure`]-formatted
/// panic.
pub fn run_cases(cases: u32, body: impl FnMut(&mut Rng)) {
    run_cases_impl(cases, None, body);
}

/// Like [`run_cases`], but the failure report prints an exact shell
/// command (built from the failing seed by `repro`) instead of the raw
/// seed — e.g. `|seed| format!("lesgs-fuzz --seed {seed} --cases 1")`.
///
/// # Panics
///
/// Re-raises the first failing case as a [`CaseFailure`]-formatted
/// panic carrying the reproduction command.
pub fn run_cases_repro(cases: u32, repro: impl Fn(u64) -> String, body: impl FnMut(&mut Rng)) {
    run_cases_impl(cases, Some(&repro), body);
}

fn run_cases_impl(
    cases: u32,
    repro: Option<&dyn Fn(u64) -> String>,
    mut body: impl FnMut(&mut Rng),
) {
    for case in 0..cases {
        // Golden-ratio stride decorrelates neighbouring case seeds.
        let seed = (u64::from(case)).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x00C0_FFEE;
        let mut rng = Rng::new(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(payload) = result {
            panic!(
                "{}",
                CaseFailure {
                    seed,
                    case,
                    message: payload_to_string(&*payload),
                    repro: repro.map(|r| r(seed)),
                }
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(1);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn range_inclusive_bounds() {
        let mut r = Rng::new(2);
        let (mut saw_lo, mut saw_hi) = (false, false);
        for _ in 0..2000 {
            let v = r.range_i64(-3, 3);
            assert!((-3..=3).contains(&v));
            saw_lo |= v == -3;
            saw_hi |= v == 3;
        }
        assert!(saw_lo && saw_hi, "range endpoints reachable");
    }

    #[test]
    fn weighted_respects_zero_weights() {
        let mut r = Rng::new(3);
        for _ in 0..500 {
            let i = r.weighted(&[0, 5, 0, 1]);
            assert!(i == 1 || i == 3);
        }
    }

    #[test]
    fn run_cases_reports_seed() {
        let err = std::panic::catch_unwind(|| {
            run_cases(10, |rng| {
                // Fails on some case; the report must carry a seed.
                assert!(rng.below(4) != 2, "boom");
            });
        })
        .unwrap_err();
        let msg = payload_to_string(&*err);
        assert!(msg.contains("reproduce with Rng::new("), "{msg}");
    }

    #[test]
    fn run_cases_repro_prints_command() {
        let err = std::panic::catch_unwind(|| {
            run_cases_repro(
                10,
                |seed| format!("lesgs-fuzz --seed {seed} --cases 1"),
                |rng| {
                    assert!(rng.below(4) != 2, "boom");
                },
            );
        })
        .unwrap_err();
        let msg = payload_to_string(&*err);
        assert!(msg.contains("reproduce with: lesgs-fuzz --seed "), "{msg}");
        assert!(msg.contains("--cases 1"), "{msg}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::new(4);
        assert!(!r.chance(0, 4));
        assert!(r.chance(4, 4));
    }
}
