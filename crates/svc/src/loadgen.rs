//! Deterministic workload generation for the bench report's service
//! tables.
//!
//! A workload is a pool of distinct parametric programs plus a
//! request sequence drawn from it with a skewed (quadratic) index
//! distribution, so a small hot set dominates — the regime a
//! compiled-program cache exists for. Everything is a pure function
//! of [`WorkloadConfig`] and one fixed seed, so two runs with the same
//! config replay the identical request stream (the property the
//! bench gate relies on).

use lesgs_testkit::Rng;

use crate::Request;

/// The seed that fixes every workload's program constants and request
/// selection.
const SEED: u64 = 0x5e71_ce00;

/// Workload shape: how many programs and how many requests.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Distinct programs in the pool.
    pub programs: usize,
    /// Total requests to generate.
    pub requests: usize,
}

/// Renders program `i` of the pool: one of six shapes, with the
/// index and seeded constants baked into the source so every program
/// is textually (and semantically) distinct.
fn program(i: usize, rng: &mut Rng) -> String {
    let a = rng.range_i64(2, 9);
    let b = rng.range_i64(10, 40);
    match i % 6 {
        // Non-tail recursion: exercises saves/restores.
        0 => format!("(define (f{i} n) (if (zero? n) {a} (+ {a} (f{i} (- n 1))))) (f{i} {b})"),
        // Tail-recursive accumulation: register shuffling at calls.
        1 => format!(
            "(define (loop{i} n acc) (if (zero? n) acc (loop{i} (- n 1) (+ acc {a})))) \
             (loop{i} {b} {i})"
        ),
        // List construction and higher-order traversal.
        2 => format!(
            "(define (iota n) (if (zero? n) '() (cons n (iota (- n 1))))) \
             (length (map (lambda (x) (* x {a})) (iota {b})))"
        ),
        // Mutual recursion: cross-function save placement.
        3 => format!(
            "(define (ev{i} n) (if (zero? n) #t (od{i} (- n 1)))) \
             (define (od{i} n) (if (zero? n) #f (ev{i} (- n 1)))) \
             (if (ev{i} {b}) {a} (- {a}))"
        ),
        // Vector workload with output.
        4 => format!(
            "(define v (make-vector {a} {i})) \
             (vector-set! v 1 {b}) \
             (display (vector-ref v 1)) (newline) \
             (+ (vector-ref v 0) (vector-ref v 1))"
        ),
        // Many-argument calls: the greedy shuffler's home turf.
        _ => format!(
            "(define (g{i} a b c d e f) (+ a (- b (* c (+ d (- e f)))))) \
             (g{i} {a} {b} {i} 3 2 1)"
        ),
    }
}

/// The workload's program pool, in index order.
pub fn programs(cfg: &WorkloadConfig) -> Vec<String> {
    let mut rng = Rng::new(SEED);
    (0..cfg.programs.max(1))
        .map(|i| program(i, &mut rng))
        .collect()
}

/// The request sequence: mixed compile/run (1 in 8 requests is a
/// bare [`Request::Compile`]) over a quadratically skewed program
/// choice, so low-index programs repeat often and the tail is cold.
pub fn requests(cfg: &WorkloadConfig, pool: &[String]) -> Vec<Request> {
    let mut rng = Rng::new(SEED ^ 0x9e37_79b9);
    let n = pool.len();
    (0..cfg.requests)
        .map(|_| {
            // Squaring a uniform fraction concentrates mass near zero:
            // P(index < m) = √(m/n), so the first few programs carry
            // most of the traffic.
            let x = rng.below(n * n);
            let source = pool[((x * x) / (n * n * n)).min(n - 1)].clone();
            if rng.chance(1, 8) {
                Request::Compile { source }
            } else {
                Request::Run { source }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic() {
        let cfg = WorkloadConfig {
            programs: 24,
            requests: 1_000,
        };
        let a = programs(&cfg);
        let b = programs(&cfg);
        assert_eq!(a, b);
        assert_eq!(requests(&cfg, &a), requests(&cfg, &b));
    }

    #[test]
    fn programs_are_distinct() {
        let cfg = WorkloadConfig {
            programs: 96,
            requests: 0,
        };
        let pool = programs(&cfg);
        let unique: std::collections::HashSet<&String> = pool.iter().collect();
        assert_eq!(unique.len(), pool.len());
    }

    #[test]
    fn every_program_compiles_and_runs() {
        let cfg = WorkloadConfig {
            programs: 12,
            requests: 0,
        };
        let engine = lesgs_engine::Engine::new();
        for (i, src) in programs(&cfg).iter().enumerate() {
            engine
                .run(src)
                .unwrap_or_else(|e| panic!("program {i} failed: {e}\n{src}"));
        }
    }

    #[test]
    fn selection_is_skewed_toward_low_indices() {
        let cfg = WorkloadConfig {
            programs: 24,
            requests: 2_000,
        };
        let pool = programs(&cfg);
        let reqs = requests(&cfg, &pool);
        let hot = reqs
            .iter()
            .filter(|r| pool[..4].iter().any(|p| p == r.source()))
            .count();
        // 4 of 24 programs uniformly would draw ~17%; the skew should
        // push the hottest four well past a third of all traffic.
        assert!(
            hot * 3 > reqs.len(),
            "hot set drew only {hot}/{}",
            reqs.len()
        );
        let compiles = reqs
            .iter()
            .filter(|r| matches!(r, Request::Compile { .. }))
            .count();
        assert!(compiles > 0, "mixed workload includes compile requests");
    }
}
