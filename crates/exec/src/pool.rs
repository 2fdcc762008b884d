//! The fixed-size scoped worker pool.
//!
//! Jobs are drawn from a shared queue by a fixed set of workers, each
//! of which keeps its results tagged with the submission index and
//! hands them back when joined, so the caller can reassemble them in
//! order no matter how execution interleaved. Panics are caught per
//! job ([`std::panic::catch_unwind`]) and become that job's result;
//! the worker survives and moves on to the next job.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

use crate::stats::PoolStats;

/// Worker-pool settings.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of workers, the calling thread included (at least 1;
    /// capped at the job count).
    pub workers: usize,
    /// Thread-name prefix: spawned workers are named `<name>-<i>`; the
    /// calling thread keeps its own name.
    pub name: String,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig::with_workers(1)
    }
}

impl PoolConfig {
    /// A pool of `workers` workers with the default name.
    pub fn with_workers(workers: usize) -> PoolConfig {
        PoolConfig {
            workers: workers.max(1),
            name: "lesgs-exec".to_owned(),
        }
    }
}

/// A job that panicked: the submission index and the rendered payload.
#[derive(Debug, Clone)]
pub struct JobPanic {
    /// The job's submission index.
    pub index: usize,
    /// The panic payload, rendered to a string.
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for JobPanic {}

/// One job's outcome: its value, or the panic that killed it.
pub type JobResult<T> = Result<T, JobPanic>;

/// What [`map_ordered`] returns: one result per input, in submission
/// order, plus the pool's accounting.
#[derive(Debug)]
pub struct MapOutcome<T> {
    /// One slot per input item, in submission order.
    pub results: Vec<JobResult<T>>,
    /// Jobs, timings, utilization.
    pub stats: PoolStats,
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

/// One finished job as its worker recorded it: submission index,
/// outcome, queue wait and run time (nanoseconds).
type Record<T> = (usize, JobResult<T>, f64, f64);

/// Runs `f` over `items` on a fixed-size worker pool, returning the
/// results **in submission order** regardless of completion order.
///
/// `f` receives each item's submission index alongside the item. A
/// panicking job yields a [`JobPanic`] in its slot; remaining jobs are
/// unaffected.
///
/// Every worker runs the same loop: take the next `(index, item)` from
/// a shared queue, run it, and keep the result; results come back when
/// the workers are joined, not over a channel. The calling thread is
/// one of the workers and keeps its own name, so only `workers - 1`
/// threads are spawned, with the platform's default stack, and a
/// one-worker pool spawns none.
pub fn map_ordered<I, T, F>(cfg: &PoolConfig, items: Vec<I>, f: F) -> MapOutcome<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let n = items.len();
    let workers = cfg.workers.max(1).min(n.max(1));
    let mut stats = PoolStats::new(workers as u64);
    stats.submitted = n as u64;
    if n == 0 {
        return MapOutcome {
            results: Vec::new(),
            stats,
        };
    }

    let start = Instant::now();
    // The queue is an iterator behind a mutex: workers pull the next
    // (index, item) pair; no work is assigned ahead of time, so a slow
    // job never delays unrelated ones beyond worker availability.
    let queue = Mutex::new(items.into_iter().enumerate());
    let work = || {
        let mut records: Vec<Record<T>> = Vec::new();
        loop {
            let job = {
                // A panic in `f` is caught below, so the lock is only
                // ever poisoned by a panic in `next()` itself — recover
                // regardless.
                let mut guard = queue.lock().unwrap_or_else(|poison| poison.into_inner());
                guard.next()
            };
            let Some((index, item)) = job else { break };
            let wait_ns = start.elapsed().as_nanos() as f64;
            let t0 = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| f(index, item))).map_err(|p| JobPanic {
                index,
                message: payload_to_string(&*p),
            });
            records.push((index, result, wait_ns, t0.elapsed().as_nanos() as f64));
        }
        records
    };

    let finished: Vec<Vec<Record<T>>> = thread::scope(|s| {
        let work = &work;
        let handles: Vec<_> = (0..workers - 1)
            .map(|w| {
                thread::Builder::new()
                    .name(format!("{}-{w}", cfg.name))
                    .spawn_scoped(s, work)
                    .expect("spawn pool worker")
            })
            .collect();
        let mut finished = Vec::with_capacity(workers);
        finished.push(work());
        for handle in handles {
            match handle.join() {
                Ok(records) => finished.push(records),
                Err(p) => std::panic::resume_unwind(p),
            }
        }
        finished
    });
    stats.wall_ns = start.elapsed().as_nanos() as f64;

    let mut slots: Vec<Option<JobResult<T>>> = (0..n).map(|_| None).collect();
    for (index, result, wait_ns, run_ns) in finished.into_iter().flatten() {
        if result.is_err() {
            stats.panicked += 1;
        } else {
            stats.completed += 1;
        }
        stats.queue_wait.observe(wait_ns);
        stats.job_run.observe(run_ns);
        stats.busy_ns += run_ns;
        slots[index] = Some(result);
    }
    let results = slots
        .into_iter()
        .map(|slot| slot.expect("every job reports exactly once"))
        .collect();
    MapOutcome { results, stats }
}

/// Streaming variant of [`map_ordered`] for long campaigns: jobs
/// `0..n` are built by `make`, dispatched in bounded chunks, and each
/// result is passed to `visit` **in submission order**. Memory is
/// bounded by the chunk size (a small multiple of the worker count),
/// not by `n`.
///
/// `visit` runs on the calling thread; returning `Err` stops the
/// campaign after the current chunk (already-computed results of that
/// chunk are discarded) and propagates the error.
///
/// # Errors
///
/// Whatever `visit` returns.
pub fn for_each_ordered<T, E>(
    cfg: &PoolConfig,
    n: u64,
    make: impl Fn(u64) -> T + Sync,
    mut visit: impl FnMut(u64, JobResult<T>) -> Result<(), E>,
) -> Result<PoolStats, E>
where
    T: Send,
{
    let workers = cfg.workers.max(1);
    let chunk = (workers as u64).saturating_mul(32).max(1);
    let mut stats = PoolStats::new(workers as u64);
    let mut next = 0u64;
    while next < n {
        let hi = next.saturating_add(chunk).min(n);
        let indices: Vec<u64> = (next..hi).collect();
        let out = map_ordered(cfg, indices, |_slot, i| make(i));
        stats.merge(&out.stats);
        for (offset, result) in out.results.into_iter().enumerate() {
            visit(next + offset as u64, result)?;
        }
        next = hi;
    }
    Ok(stats)
}
