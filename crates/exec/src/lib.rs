//! The lesgs parallel job engine.
//!
//! Every heavy workload in the workspace — the fuzz campaign, the
//! 22-configuration differential matrix, the benchmark suite — is a
//! bag of independent jobs whose *results* must nevertheless be
//! consumed in a deterministic order. This crate provides exactly that
//! shape, with zero third-party dependencies:
//!
//! * [`map_ordered`] — runs jobs on a fixed-size pool of scoped
//!   workers ([`std::thread::scope`]) and returns the results **in
//!   submission order**, so a parallel driver's output is
//!   byte-identical to the sequential one. There is no channel: each
//!   worker keeps its own results and hands them back when joined.
//! * [`for_each_ordered`] — the streaming sibling for long campaigns:
//!   jobs are dispatched in bounded chunks and each result is visited
//!   in order as its chunk completes, so memory stays bounded by the
//!   chunk size rather than the campaign length.
//! * **Panic isolation** — a panicking job is caught on its worker,
//!   surfaced as a [`JobPanic`] in that job's result slot, and the
//!   remaining jobs keep running; the pool never deadlocks on a
//!   panic.
//! * [`PoolStats`] — jobs submitted/completed/panicked, queue-wait and
//!   run-time histograms, and worker utilization, recordable into a
//!   [`lesgs_metrics::Registry`] under the `exec.*` namespace
//!   (documented in OBSERVABILITY.md).
//!
//! # Which thread runs a job
//!
//! The calling thread is one of the workers: it keeps its own name,
//! and only `workers - 1` threads are spawned, so a one-worker pool
//! (the batch service's default) runs every job on its caller and
//! spawns nothing. Spawned workers have the platform's default stack
//! and live for one [`map_ordered`] call (one chunk of
//! [`for_each_ordered`]), not for the whole campaign. A job that needs
//! a deep stack, such as compiling a deeply nested program, runs on a
//! caller that has one.
//!
//! # Examples
//!
//! ```
//! use lesgs_exec::{map_ordered, PoolConfig};
//!
//! let cfg = PoolConfig::with_workers(4);
//! let out = map_ordered(&cfg, (0u64..100).collect(), |_i, n| n * n);
//! let squares: Vec<u64> = out.results.into_iter().map(|r| r.unwrap()).collect();
//! assert_eq!(squares[7], 49);
//! assert_eq!(out.stats.completed, 100);
//! ```

#![warn(missing_docs)]

mod pool;
mod stats;

pub use pool::{for_each_ordered, map_ordered, JobPanic, JobResult, MapOutcome, PoolConfig};
pub use stats::PoolStats;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_submission_order() {
        let cfg = PoolConfig::with_workers(4);
        // Jobs deliberately take wildly different times: later-indexed
        // jobs finish first, but the result vector must stay ordered.
        let out = map_ordered(&cfg, (0u32..64).collect(), |_i, n| {
            if n % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            n * 10
        });
        let values: Vec<u32> = out.results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(values, (0u32..64).map(|n| n * 10).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let items: Vec<u64> = (0..200).collect();
        let f = |i: usize, n: u64| (i as u64) * 1_000 + n * n;
        let seq = map_ordered(&PoolConfig::with_workers(1), items.clone(), f);
        let par = map_ordered(&PoolConfig::with_workers(8), items, f);
        let a: Vec<u64> = seq.results.into_iter().map(|r| r.unwrap()).collect();
        let b: Vec<u64> = par.results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn panicking_job_is_isolated_and_surfaced_without_deadlock() {
        let cfg = PoolConfig::with_workers(3);
        let out = map_ordered(&cfg, (0u32..30).collect(), |_i, n| {
            assert!(n != 13, "boom at {n}");
            n + 1
        });
        assert_eq!(out.results.len(), 30);
        for (i, r) in out.results.iter().enumerate() {
            if i == 13 {
                let p = r.as_ref().unwrap_err();
                assert_eq!(p.index, 13);
                assert!(p.message.contains("boom at 13"), "{}", p.message);
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as u32 + 1);
            }
        }
        assert_eq!(out.stats.panicked, 1);
        assert_eq!(out.stats.completed, 29);
        assert_eq!(out.stats.submitted, 30);
    }

    #[test]
    fn empty_input_is_fine() {
        let out = map_ordered(&PoolConfig::with_workers(4), Vec::<u8>::new(), |_i, b| b);
        assert!(out.results.is_empty());
        assert_eq!(out.stats.submitted, 0);
    }

    /// The thread each job ran on, in submission order.
    fn job_threads(cfg: &PoolConfig, jobs: usize) -> Vec<std::thread::ThreadId> {
        let out = map_ordered(cfg, vec![(); jobs], |_i, ()| std::thread::current().id());
        out.results.into_iter().map(|r| r.unwrap()).collect()
    }

    #[test]
    fn default_one_worker_pool_runs_every_job_on_the_caller() {
        let caller = std::thread::current().id();
        let threads = job_threads(&PoolConfig::with_workers(1), 16);
        assert!(threads.iter().all(|&t| t == caller), "{threads:?}");
    }

    #[test]
    fn a_panic_on_the_calling_thread_is_isolated() {
        let caller = std::thread::current().id();
        let out = map_ordered(
            &PoolConfig::with_workers(1),
            (0u32..5).collect(),
            |_i, n| {
                assert_eq!(std::thread::current().id(), caller);
                assert!(n != 2, "boom at {n}");
                n * 3
            },
        );
        for (i, r) in out.results.iter().enumerate() {
            if i == 2 {
                let p = r.as_ref().unwrap_err();
                assert_eq!(p.index, 2);
                assert!(p.message.contains("boom at 2"), "{}", p.message);
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as u32 * 3);
            }
        }
        assert_eq!((out.stats.completed, out.stats.panicked), (4, 1));
    }

    #[test]
    fn streaming_visits_in_order_and_stops_on_error() {
        let cfg = PoolConfig::with_workers(4);
        let mut seen = Vec::new();
        let r: Result<PoolStats, String> = for_each_ordered(
            &cfg,
            100,
            |i| i * 2,
            |i, res| {
                let v = res.expect("no panics here");
                seen.push((i, v));
                if i == 57 {
                    Err("stop".to_owned())
                } else {
                    Ok(())
                }
            },
        );
        assert_eq!(r.unwrap_err(), "stop");
        assert_eq!(seen.len(), 58);
        assert!(seen
            .iter()
            .enumerate()
            .all(|(k, (i, v))| { *i == k as u64 && *v == 2 * k as u64 }));
    }

    #[test]
    fn stats_merge_and_record() {
        let a = map_ordered(
            &PoolConfig::with_workers(2),
            (0..10).collect(),
            |_i, n: u32| n,
        );
        let b = map_ordered(
            &PoolConfig::with_workers(2),
            (0..5).collect(),
            |_i, n: u32| n,
        );
        let mut merged = a.stats.clone();
        merged.merge(&b.stats);
        assert_eq!(merged.submitted, 15);
        assert_eq!(merged.completed, 15);
        let mut reg = lesgs_metrics::Registry::new();
        merged.record(&mut reg);
        assert_eq!(reg.counter("exec.jobs_submitted"), 15);
        assert_eq!(reg.counter("exec.jobs_completed"), 15);
        assert_eq!(reg.counter("exec.jobs_panicked"), 0);
        assert_eq!(reg.gauge("exec.workers"), Some(2.0));
        let wait = reg.histogram("exec.queue_wait_ns").expect("queue waits");
        assert_eq!(wait.count, 15);
        let util = reg.gauge("exec.utilization").expect("utilization");
        assert!((0.0..=1.0).contains(&util), "{util}");
    }
}
