//! Executing a program must not leak heap memory.
//!
//! Mutually recursive closures that capture a variable are tied
//! together by `closure-set!` backpatching, which makes a reference
//! cycle; the machine must break those cycles when it is dropped. This
//! binary installs a counting global allocator and holds exactly one
//! test, so the live-byte count it reads is this test's own.

use lesgs_compiler::{compile, CompilerConfig};
use lesgs_testkit::counting::{live_bytes, Counting};
use lesgs_vm::{ClassicMachine, Machine, VmOutcome};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `loop` captures `a` and itself, so every call of `f` builds a
/// backpatched closure cycle; `g` calls `f` a thousand times.
const REPRO: &str = "(define (f a) (let loop ((i 0)) (if (= i a) i (loop (+ i 1))))) \
                     (define (g n acc) (if (= n 0) acc (g (- n 1) (+ acc (f 3))))) \
                     (g 1000 0)";

const RUNS: usize = 100;

/// Growth allowed over all runs of one engine: far below one leaked
/// run (about 100 kB), above allocator noise.
const SLACK_BYTES: isize = 16 * 1024;

/// Live-heap growth over `RUNS` runs, after one warm-up run.
fn growth(run: impl Fn() -> VmOutcome) -> isize {
    assert_eq!(run().value, "3000");
    let before = live_bytes() as isize;
    for _ in 0..RUNS {
        drop(run());
    }
    live_bytes() as isize - before
}

#[test]
fn repeated_runs_do_not_grow_live_memory() {
    let config = CompilerConfig::default();
    let compiled = compile(REPRO, &config).expect("repro compiles");
    let fast = growth(|| {
        Machine::new(&compiled.vm, config.cost)
            .run()
            .expect("fast run")
    });
    let classic = growth(|| {
        ClassicMachine::new(&compiled.vm, config.cost)
            .run()
            .expect("classic run")
    });
    assert!(
        fast <= SLACK_BYTES && classic <= SLACK_BYTES,
        "live heap grew over {RUNS} runs: fast {fast} bytes, classic {classic} bytes"
    );
}
