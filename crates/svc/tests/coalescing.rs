//! Within-batch coalescing.
//!
//! Phase 1 of `Service::process_batch` coalesces every repeated
//! source text within one batch onto the first occurrence's
//! compilation, *independent of cache capacity*. These tests pin that
//! contract (1 compile + N−1 hits for in-batch duplicates, invariant
//! under worker count) and its two edge cases: capacity 0 with
//! duplicates still hits, and an all-unique batch hits nothing.

use lesgs_metrics::Registry;
use lesgs_svc::{Request, Response, Service, ServiceConfig};

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
