//! Coalescing within a batch and answers across batches.
//!
//! Phase 1 of `Service::process_batch` coalesces every repeated
//! source text within one batch onto the first occurrence's
//! compilation, *independent of cache capacity*, and phase 4 runs a
//! program once per residency: the first batch that runs it records
//! its answer beside it in the cache, and later run requests are served
//! from that answer until the program is evicted. These tests pin that
//! contract (1 compile + N−1 hits for in-batch duplicates, one
//! execution per residency, invariant under worker count), its edge
//! cases (capacity 0 with duplicates still hits, an all-unique batch
//! hits nothing, failures are answers too, an evicted program runs
//! again), and that every shared answer equals a compile and run of
//! its request alone.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use lesgs_engine::{CompilerConfig, Engine};
use lesgs_metrics::Registry;
use lesgs_svc::{Request, Response, Service, ServiceConfig};
use lesgs_testkit::{run_cases, Rng};

fn run(source: &str) -> Request {
    Request::Run {
        source: source.to_owned(),
    }
}

/// In-batch duplicates coalesce even with caching disabled: one
/// compilation, every duplicate a hit, nothing retained afterwards.
#[test]
fn cache_cap_zero_still_coalesces_within_batch() {
    let mut svc = Service::new(ServiceConfig {
        cache_capacity: 0,
        ..ServiceConfig::default()
    });
    let mut reg = Registry::new();
    let batch = vec![run("(+ 1 2)"), run("(+ 1 2)"), run("(+ 1 2)")];
    let (responses, stats) = svc.process_batch(&batch, &mut reg);
    assert_eq!((stats.misses, stats.hits), (1, 2));
    assert!(!responses[0].was_cached());
    assert!(responses[1].was_cached() && responses[2].was_cached());
    assert!(svc.cache().is_empty(), "capacity 0 must retain nothing");
    // The next batch recompiles: the coalesced hit never touched the
    // (disabled) cache proper.
    let (_, stats) = svc.process_batch(&[run("(+ 1 2)")], &mut reg);
    assert_eq!((stats.misses, stats.hits), (1, 0));
}

/// An all-unique batch cannot hit: every request compiles.
#[test]
fn all_unique_batch_guarantees_nothing_and_hits_nothing() {
    let mut svc = Service::new(ServiceConfig::default());
    let mut reg = Registry::new();
    let batch: Vec<Request> = (0..6).map(|i| run(&format!("(+ {i} 1)"))).collect();
    let (responses, stats) = svc.process_batch(&batch, &mut reg);
    assert_eq!((stats.hits, stats.misses), (0, 6));
    assert!(responses.iter().all(|r| !r.was_cached()));
    assert_eq!(stats.errors, 0);
}

/// Satellite audit: within-batch coalescing is exactly "one compile
/// plus N−1 hits per distinct duplicated source", and the whole
/// accounting is invariant under worker count (compilation fans out,
/// classification does not).
#[test]
fn coalescing_is_one_compile_per_key_for_any_worker_count() {
    // 3 distinct programs × 4 copies each, interleaved.
    let programs: Vec<String> = (0..3).map(|i| format!("(* {i} (+ {i} 2))")).collect();
    let batch: Vec<Request> = (0..12).map(|i| run(&programs[i % 3])).collect();
    let outputs: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&workers| {
            let mut svc = Service::new(ServiceConfig {
                workers,
                cache_capacity: 0,
                ..ServiceConfig::default()
            });
            let mut reg = Registry::new();
            let (responses, stats) = svc.process_batch(&batch, &mut reg);
            assert_eq!(stats.misses, 3, "one compile per distinct key");
            assert_eq!(stats.hits, 9, "every duplicate coalesced");
            assert_eq!(reg.counter("svc.executions"), 3, "one run per key");
            (
                responses,
                stats.hits,
                stats.misses,
                reg.counter("svc.cache.hits"),
                reg.counter("svc.cache.misses"),
            )
        })
        .collect();
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[0], outputs[2]);
    // Duplicates return the very outcome their coalesce target
    // computed.
    match (&outputs[0].0[0], &outputs[0].0[3]) {
        (Response::Ran { outcome: a, .. }, Response::Ran { outcome: b, .. }) => assert_eq!(a, b),
        other => panic!("expected runs, got {other:?}"),
    }
}

/// The default configuration under a budget of 100,000 instructions.
fn fueled_config() -> CompilerConfig {
    CompilerConfig {
        fuel: 100_000,
        ..CompilerConfig::default()
    }
}

fn fueled(workers: usize, cache_capacity: usize) -> Service {
    Service::new(ServiceConfig {
        compiler: fueled_config(),
        workers,
        cache_capacity,
    })
}

const LOOP: &str = "(let loop () (loop))";

/// Eight run requests of a program that never halts execute once: one
/// fuel budget is spent, and all eight get its failure.
#[test]
fn duplicate_runaway_runs_spend_one_budget() {
    let mut svc = fueled(1, 64);
    let mut reg = Registry::new();
    let batch = vec![run(LOOP); 8];
    let (responses, stats) = svc.process_batch(&batch, &mut reg);
    assert_eq!(reg.counter("svc.executions"), 1);
    let executions = reg.histogram("svc.execute_job_ns").map_or(0, |h| h.count);
    assert_eq!(executions, 1, "one execute job");
    let failure = alone(&run(LOOP));
    assert!(failure.is_failure(), "the loop exhausts its fuel");
    assert!(responses.iter().all(|r| *r == failure), "{responses:?}");
    assert_eq!((stats.errors, stats.misses, stats.hits), (8, 1, 7));
}

/// The texts the property draws from: values, output, a heap value, a
/// compile error, a run-time error and a loop that exhausts its fuel.
const TEXTS: [&str; 12] = [
    "(+ 1 2)",
    "(* 6 7)",
    "(define (f n) (if (zero? n) 0 (+ 2 (f (- n 1))))) (f 10)",
    "(display \"hi\") (newline) 7",
    "(define v (make-vector 3 1)) (vector-set! v 0 5) (vector-ref v 0)",
    "(let loop ((i 0) (acc '())) (if (= i 5) acc (loop (+ i 1) (cons i acc))))",
    "(string-length \"abc\")",
    "'sym",
    "(length (list 1 2 3))",
    "(+ 1",
    "(car 5)",
    LOOP,
];

/// A response with its `cached` flag cleared: what a request alone,
/// compiled and run by a fresh engine, would get.
fn uncached(response: &Response) -> Response {
    match response.clone() {
        Response::Compiled { code_size, .. } => Response::Compiled {
            code_size,
            cached: false,
        },
        Response::Ran { outcome, .. } => Response::Ran {
            outcome,
            cached: false,
        },
        failed => failed,
    }
}

/// A fresh engine's compile, then run, of one request alone.
fn alone(request: &Request) -> Response {
    let engine = Engine::with_config(fueled_config());
    let program = match engine.compile(request.source()) {
        Ok(program) => program,
        Err(e) => {
            return Response::Failed {
                message: e.to_string(),
            }
        }
    };
    match request {
        Request::Compile { .. } => Response::Compiled {
            code_size: program.code_size(),
            cached: false,
        },
        Request::Run { .. } => match engine.execute(&program) {
            Ok(outcome) => Response::Ran {
                outcome: Arc::new(outcome),
                cached: false,
            },
            Err(e) => Response::Failed {
                message: e.to_string(),
            },
        },
    }
}

fn batch(rng: &mut Rng) -> Vec<Request> {
    let len = 1 + rng.below(64);
    (0..len)
        .map(|_| {
            let source = (*rng.pick(&TEXTS)).to_owned();
            if rng.chance(1, 4) {
                Request::Compile { source }
            } else {
                Request::Run { source }
            }
        })
        .collect()
}

/// Seeded runs of 2–6 batches of 1–64 requests over [`TEXTS`], each
/// sent through a one-worker and a four-worker service whose cache (2–4
/// programs) is smaller than the text set: every response equals its
/// request run alone, the cache accounting agrees across worker counts,
/// and each batch executes exactly the texts a residency model says.
///
/// The model: a text absent from the cache when a batch starts misses
/// there, which starts a new residency (or fails to compile); a text
/// executes in a batch exactly when it is run there, it compiles, and
/// it has not run since its last miss.
#[test]
fn shared_runs_answer_as_if_run_alone() {
    let engine = Engine::with_config(fueled_config());
    let compiles: HashSet<&str> = TEXTS
        .into_iter()
        .filter(|&s| engine.compile(s).is_ok())
        .collect();
    assert_eq!(
        compiles.len(),
        TEXTS.len() - 1,
        "only `(+ 1` fails to compile"
    );
    let mut expected: HashMap<(bool, String), Response> = HashMap::new();
    run_cases(24, |rng| {
        let capacity = 2 + rng.below(3);
        let batches: Vec<Vec<Request>> = (0..2 + rng.below(5)).map(|_| batch(rng)).collect();
        let accounts: Vec<Vec<(u64, u64, u64, u64)>> = [1usize, 4]
            .iter()
            .map(|&workers| {
                let mut svc = fueled(workers, capacity);
                // Texts that have run since their last miss.
                let mut ran: HashSet<&str> = HashSet::new();
                batches
                    .iter()
                    .map(|requests| {
                        for request in requests {
                            if !svc.cache().contains(request.source()) {
                                ran.remove(request.source());
                            }
                        }
                        let runs: HashSet<&str> = requests
                            .iter()
                            .filter(|r| matches!(r, Request::Run { .. }))
                            .map(Request::source)
                            .filter(|s| compiles.contains(s))
                            .collect();
                        let executions = runs.difference(&ran).count() as u64;
                        ran.extend(runs);

                        let mut reg = Registry::new();
                        let (responses, stats) = svc.process_batch(requests, &mut reg);
                        assert_eq!(responses.len(), requests.len());
                        for (request, response) in requests.iter().zip(&responses) {
                            let run = matches!(request, Request::Run { .. });
                            let key = (run, request.source().to_owned());
                            let want = expected.entry(key).or_insert_with(|| alone(request));
                            assert_eq!(uncached(response), *want, "{request:?}");
                        }
                        assert_eq!(reg.counter("svc.executions"), executions);
                        (stats.hits, stats.misses, stats.evictions, stats.errors)
                    })
                    .collect()
            })
            .collect();
        assert_eq!(accounts[0], accounts[1], "workers 1 against workers 4");
    });
}

/// A run-time error and fuel exhaustion are answers too: the first run
/// records them, and later batches get the same failure with no second
/// execution.
#[test]
fn failures_are_recorded_answers() {
    let mut svc = fueled(1, 64);
    let mut reg = Registry::new();
    let batch = vec![run("(car 5)"), run(LOOP)];
    let (first, _) = svc.process_batch(&batch, &mut reg);
    for (request, response) in batch.iter().zip(&first) {
        assert!(response.is_failure(), "{response:?}");
        assert_eq!(*response, alone(request));
    }
    let (second, stats) = svc.process_batch(&batch, &mut reg);
    assert_eq!(first, second);
    assert_eq!((stats.hits, stats.misses, stats.errors), (2, 0, 2));
    let samples = reg.histogram("svc.execute_job_ns").map_or(0, |h| h.count);
    assert_eq!(samples, 2, "each failing program ran once");
    assert_eq!(reg.counter("svc.executions"), 2);
}

/// An answer lives as long as its program stays cached: a text that is
/// evicted and compiled again executes again.
#[test]
fn an_evicted_program_runs_again() {
    let mut svc = fueled(1, 1);
    let mut reg = Registry::new();
    let (a, b) = ("(+ 1 2)", "(* 6 7)");
    let steps = [
        (vec![run(a), run(a)], 1),
        (vec![run(a)], 1),
        (vec![run(b)], 2),
        (vec![run(a)], 3),
    ];
    for (batch, executions) in steps {
        let (responses, _) = svc.process_batch(&batch, &mut reg);
        for (request, response) in batch.iter().zip(&responses) {
            assert_eq!(uncached(response), alone(request));
        }
        assert_eq!(reg.counter("svc.executions"), executions, "{batch:?}");
    }
}
