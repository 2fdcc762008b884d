//! The benchmark's own seeded inputs.
//!
//! They live here, not in `lesgs-fuzz` or `lesgs-svc::loadgen`, so a
//! change to those crates cannot silently change a workload between a
//! parent commit and its change:
//!
//! * compile-lbc reads `corpus/lbc.scm`, 256 programs that
//!   `lesgs-fuzz`'s generator drew (written by `corpusgen/`); the seed
//!   draws the order of a pass.
//! * svc-skewed builds its pool from the six program shapes of
//!   `lesgs-svc::loadgen`, with loadgen's parameter ranges. The loop
//!   bound `b` (10..=40) of a program is fixed by its index, spread
//!   evenly over the range, and the seed draws the constant `a`
//!   (2..=9), on which no shape's code or control flow depends. So the
//!   per-pass counts (`code_instrs`, `stack_refs`, `modeled_cycles`)
//!   are the same for every seed while the program texts differ.

/// SplitMix64: small, fast, and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

const CORPUS: &str = include_str!("../corpus/lbc.scm");

/// The compile-lbc programs, in a seed-drawn order.
pub fn corpus(seed: u64) -> Vec<String> {
    let mut programs: Vec<String> = CORPUS
        .split(";;; case ")
        .skip(1)
        .map(|case| case.split_once('\n').map_or("", |(_, src)| src).to_owned())
        .collect();
    Rng::new(seed).shuffle(&mut programs);
    programs
}

/// Loop bounds per shape: program `i` has `b = 10 + 2 * ((i / 6) % 16)`,
/// so a 96-program pool covers loadgen's `10..=40` evenly.
const BOUNDS: usize = 16;

/// Program `i` of the service pool: loadgen's shape `i % 6`, loop
/// bound from the index, constant from `rng`.
fn service_program(i: usize, rng: &mut Rng) -> String {
    let a = 2 + rng.below(8);
    let b = 10 + 2 * ((i / 6) % BOUNDS);
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

/// The service's `count` distinct programs drawn from `seed`, in index
/// order.
pub fn service_pool(seed: u64, count: usize) -> Vec<String> {
    let mut rng = Rng::new(seed);
    (0..count).map(|i| service_program(i, &mut rng)).collect()
}

/// One request of the service stream: a pool index, and whether it is
/// a compile request (the rest are run requests).
#[derive(Debug, Clone, Copy)]
pub struct Slot {
    pub program: usize,
    pub compile: bool,
}

/// Seed of the service's access schedule. It is fixed, not drawn from
/// the run's seed: LRU hits, misses and evictions depend on the order
/// of requests, and in a simulation of the cache over ten seeds a
/// drawn order moved the per-pass miss count by 2–4% and the p90 batch
/// by up to 9%. The run's seed still draws every program's text.
const SCHEDULE_SEED: u64 = 0x5eed_5c4e_d01e;

/// The service stream, as loadgen draws it: `len` requests over `pool`
/// programs with quadratic skew (`P(index < m) = sqrt(m / pool)`), one
/// in eight a compile request.
pub fn schedule(pool: usize, len: usize) -> Vec<Slot> {
    let mut rng = Rng::new(SCHEDULE_SEED);
    let n = pool as u64;
    (0..len)
        .map(|_| {
            let x = rng.below(n * n);
            Slot {
                program: ((x * x) / (n * n * n)).min(n - 1) as usize,
                compile: rng.below(8) == 0,
            }
        })
        .collect()
}
