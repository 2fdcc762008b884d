//! Executing a program must not leak heap memory.
//!
//! Mutually recursive closures that capture a variable are tied
//! together by `closure-set!` backpatching, which makes a reference
//! cycle; the machine must break those cycles when it is dropped. This
//! binary installs a counting global allocator and holds exactly one
//! test, so the live-byte count it reads is this test's own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use lesgs_compiler::{compile, CompilerConfig};
use lesgs_vm::{ClassicMachine, Machine, VmOutcome};

struct Counting;

/// Bytes currently allocated through [`Counting`].
static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees hold; the counter is a statistic
// that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged from our caller.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged from our caller.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged from our caller.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

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
    let before = LIVE.load(Ordering::Relaxed);
    for _ in 0..RUNS {
        drop(run());
    }
    LIVE.load(Ordering::Relaxed) - before
}

#[test]
fn repeated_runs_do_not_grow_live_memory() {
    let config = CompilerConfig::default();
    let compiled = compile(REPRO, &config).expect("repro compiles");
    let decoded = growth(|| {
        Machine::from_decoded(&compiled.decoded, config.cost)
            .run()
            .expect("decoded run")
    });
    let classic = growth(|| {
        ClassicMachine::new(&compiled.vm, config.cost)
            .run()
            .expect("classic run")
    });
    assert!(
        decoded <= SLACK_BYTES && classic <= SLACK_BYTES,
        "live heap grew over {RUNS} runs: decoded {decoded} bytes, classic {classic} bytes"
    );
}
