#![warn(missing_docs)]
//! The batch compile-and-run service.
//!
//! A [`Service`] owns an [`Engine`], a [`ProgramCache`], and a
//! worker-pool configuration, and processes batches of mixed
//! [`Request::Compile`]/[`Request::Run`] requests. A program's identity
//! is its source text: the cache is keyed by it, so two texts never
//! answer for each other.
//!
//! 1. **Classify** (sequential): each request's source is looked up; a
//!    resident text is a *hit*, the first request for an absent text is
//!    a *miss*, and later requests for the same text within the batch
//!    coalesce onto that miss's compilation as hits.
//! 2. **Compile** (parallel): the misses — one compilation per
//!    distinct text — fan out over the [`lesgs_exec`] worker pool.
//! 3. **Admit** (sequential): compiled programs enter the cache in
//!    classification order, evicting LRU entries over capacity.
//! 4. **Execute** (parallel): each program with a run request and no
//!    answer yet executes once — executions fan out over the pool — and
//!    its answer is recorded beside it in the cache; every run request
//!    is answered from its program's answer, in submission order.
//!
//! A cache entry ([`Resident`]) holds a compiled program and, once it
//! has run, its answer: the value, the output and the `RunStats`, or
//! the run-time error, fuel exhaustion included. Sharing it is exact
//! because a program's run is deterministic: the VM reads no input,
//! clock or randomness, and the service's engine configuration is
//! fixed. The answer lives as long as the entry, so a program runs once
//! per residency: a text that is evicted and compiled again runs again.
//! A batch pins the entries its requests hit, so a program keeps its
//! answer for the batch even when the batch's own admissions evict it.
//! A traced engine prints a program's run-time `trace:` lines once per
//! residency, not per run request.
//!
//! The service's pool is a default one, so its calling thread is a
//! worker: a one-worker service runs phases 2 and 4 on the thread that
//! called [`Service::process_batch`] and spawns no thread.
//!
//! Because classification and admission are sequential and eviction
//! is logical-time LRU, the responses **and** every `svc.*` counter
//! are a pure function of the request sequence — worker count only
//! changes wall-clock time. That is what lets the bench report gate
//! on the `service_cache` table and check every response of its
//! replay against direct execution.
//!
//! Metric names are documented in OBSERVABILITY.md; the `svc.*`
//! section is the reference for everything recorded here.

pub mod cache;
pub mod loadgen;

pub use cache::{Answer, ProgramCache, Resident};

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use lesgs_engine::{Engine, VmOutcome};
use lesgs_exec::{map_ordered, PoolConfig, PoolStats};
use lesgs_metrics::Registry;

/// Service settings: the engine configuration plus pool and cache
/// sizing.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Compiler + execution configuration for the embedded engine.
    pub compiler: lesgs_engine::CompilerConfig,
    /// Workers for the compile and execute phases, the calling thread
    /// included.
    pub workers: usize,
    /// Compiled-program cache capacity (0 disables caching).
    pub cache_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            compiler: lesgs_engine::CompilerConfig::default(),
            workers: 4,
            cache_capacity: 64,
        }
    }
}

/// One unit of work for the service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Compile (and cache) the program; don't run it.
    Compile {
        /// Scheme source text.
        source: String,
    },
    /// Compile if not cached, then execute.
    Run {
        /// Scheme source text.
        source: String,
    },
}

impl Request {
    /// The request's source text.
    pub fn source(&self) -> &str {
        match self {
            Request::Compile { source } | Request::Run { source } => source,
        }
    }
}

/// One request's result, in submission order.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A [`Request::Compile`] completed.
    Compiled {
        /// Total instruction count of the compiled program.
        code_size: usize,
        /// True when the program was already resident (or coalesced
        /// onto an earlier request in the batch).
        cached: bool,
    },
    /// A [`Request::Run`] completed.
    Ran {
        /// Value, output, and `RunStats` — byte-identical to direct
        /// execution of the same source. Shared with every other run
        /// request of the program while it stays resident.
        outcome: Arc<VmOutcome>,
        /// True when compilation was skipped thanks to the cache.
        cached: bool,
    },
    /// The request failed (compile error, runtime error, or a
    /// panicked worker job).
    Failed {
        /// Rendered error.
        message: String,
    },
}

impl Response {
    /// A run request's response from its program's answer.
    fn ran(answer: &Answer, cached: bool) -> Response {
        match answer {
            Ok(outcome) => Response::Ran {
                outcome: Arc::clone(outcome),
                cached,
            },
            Err(message) => Response::Failed {
                message: message.clone(),
            },
        }
    }

    /// True for [`Response::Failed`].
    pub fn is_failure(&self) -> bool {
        matches!(self, Response::Failed { .. })
    }

    /// True when the response was served without a fresh compilation.
    pub fn was_cached(&self) -> bool {
        matches!(
            self,
            Response::Compiled { cached: true, .. } | Response::Ran { cached: true, .. }
        )
    }
}

/// Deterministic accounting for one [`Service::process_batch`] call.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchStats {
    /// Requests processed.
    pub requests: u64,
    /// Requests answered from the cache (including within-batch
    /// coalescing).
    pub hits: u64,
    /// Requests that triggered a compilation.
    pub misses: u64,
    /// Programs evicted while admitting this batch's compilations.
    pub evictions: u64,
    /// Requests that ended in [`Response::Failed`].
    pub errors: u64,
}

impl BatchStats {
    /// Hits as a fraction of requests (0 when the batch was empty).
    pub fn hit_rate(&self) -> f64 {
        lesgs_metrics::ratio(self.hits as f64, self.requests as f64, 0.0)
    }

    /// Folds another batch's accounting into this one.
    pub fn merge(&mut self, other: &BatchStats) {
        self.requests += other.requests;
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.errors += other.errors;
    }
}

/// The batch compile-and-run service.
pub struct Service {
    engine: Engine,
    cache: ProgramCache,
    pool: PoolConfig,
}

impl Service {
    /// A service with the given configuration and an empty cache.
    pub fn new(config: ServiceConfig) -> Service {
        Service {
            engine: Engine::with_config(config.compiler),
            cache: ProgramCache::new(config.cache_capacity),
            pool: PoolConfig {
                name: "lesgs-svc".to_owned(),
                ..PoolConfig::with_workers(config.workers)
            },
        }
    }

    /// The embedded engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The program cache (primarily for inspection in tests).
    pub fn cache(&self) -> &ProgramCache {
        &self.cache
    }

    /// Processes a batch of requests, returning one response per
    /// request in submission order and recording `svc.*` metrics
    /// into `reg`.
    ///
    /// Responses and [`BatchStats`] are deterministic in the request
    /// sequence (see the module docs); only the `_ns` histograms carry
    /// wall-clock time.
    pub fn process_batch(
        &mut self,
        requests: &[Request],
        reg: &mut Registry,
    ) -> (Vec<Response>, BatchStats) {
        let mut stats = BatchStats {
            requests: requests.len() as u64,
            ..BatchStats::default()
        };
        let mut phase_ns = [0.0; 4];
        let mut clock = Instant::now();
        let mut lap = |phase: usize| {
            phase_ns[phase] = clock.elapsed().as_nanos() as f64;
            clock = Instant::now();
        };

        // Phase 1 — classify. A program's identity is its source text:
        // `pending` holds each distinct text that missed, in
        // first-occurrence order, and later requests for it coalesce
        // onto its compile slot. Resident programs are pinned (`Arc`)
        // right here so this batch's own admissions can never evict a
        // program (or its answer) a request ahead of them was already
        // promised.
        enum Program {
            Pinned(Arc<Resident>),
            Slot(usize),
        }
        let mut pending: Vec<&str> = Vec::new();
        let mut pending_slot: HashMap<&str, usize> = HashMap::new();
        let mut programs: Vec<(bool, Program)> = Vec::with_capacity(requests.len());
        for req in requests {
            let source = req.source();
            let (cached, program) = if let Some(pinned) = self.cache.get(source) {
                (true, Program::Pinned(pinned))
            } else if let Some(&slot) = pending_slot.get(source) {
                (true, Program::Slot(slot))
            } else {
                pending_slot.insert(source, pending.len());
                pending.push(source);
                (false, Program::Slot(pending.len() - 1))
            };
            if cached {
                stats.hits += 1;
            } else {
                stats.misses += 1;
            }
            programs.push((cached, program));
        }
        lap(0);

        // Phase 2 — compile the misses in parallel.
        let engine = &self.engine;
        let compile_out = map_ordered(&self.pool, pending.clone(), |_, source| {
            engine.compile(source)
        });
        lap(1);

        // Phase 3 — admit in classification order. Failures are not
        // cached; reattempting them is a fresh miss in a later batch.
        let compiled: Vec<Result<Arc<Resident>, String>> = pending
            .iter()
            .zip(compile_out.results)
            .map(|(&source, job)| match job {
                Ok(Ok(program)) => {
                    let resident = Arc::new(Resident::new(program));
                    stats.evictions += self.cache.insert(source, Arc::clone(&resident)) as u64;
                    Ok(resident)
                }
                Ok(Err(e)) => Err(e.to_string()),
                Err(panic) => Err(panic.to_string()),
            })
            .collect();
        lap(2);

        // Phase 4 — resolve every request. A run request whose program
        // has an answer is served from it; the programs without one run
        // once each (deterministic: see the module docs), keyed by the
        // record's address, which the pinned `Arc`s keep unique.
        enum Slot {
            Done(Response),
            Running { cached: bool, job: usize },
        }
        let mut to_run: Vec<Arc<Resident>> = Vec::new();
        let mut job_of: HashMap<*const Resident, usize> = HashMap::new();
        let mut slots: Vec<Slot> = Vec::with_capacity(requests.len());
        for (req, (cached, program)) in requests.iter().zip(programs) {
            let program = match program {
                Program::Pinned(program) => Ok(program),
                Program::Slot(slot) => compiled[slot].clone(),
            };
            slots.push(match (program, req) {
                (Err(message), _) => Slot::Done(Response::Failed { message }),
                (Ok(program), Request::Compile { .. }) => Slot::Done(Response::Compiled {
                    code_size: program.program().code_size(),
                    cached,
                }),
                (Ok(program), Request::Run { .. }) => match program.answer() {
                    Some(answer) => Slot::Done(Response::ran(answer, cached)),
                    None => {
                        let job = *job_of.entry(Arc::as_ptr(&program)).or_insert_with(|| {
                            to_run.push(program);
                            to_run.len() - 1
                        });
                        Slot::Running { cached, job }
                    }
                },
            });
        }
        // Each job records its program's answer. A panicked job records
        // nothing and its requests fail with the panic: that is the
        // service's fault, not the program's answer.
        let run_out = map_ordered(&self.pool, to_run, |_, resident| {
            let answer: Answer = engine
                .execute(resident.program())
                .map(Arc::new)
                .map_err(|e| e.to_string());
            resident.record(answer.clone());
            answer
        });
        let answers: Vec<Answer> = run_out
            .results
            .into_iter()
            .map(|job| job.unwrap_or_else(|panic| Err(panic.to_string())))
            .collect();
        let responses: Vec<Response> = slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Done(r) => r,
                Slot::Running { cached, job } => Response::ran(&answers[job], cached),
            })
            .collect();
        lap(3);
        stats.errors = responses.iter().filter(|r| r.is_failure()).count() as u64;

        self.record(
            &stats,
            [&compile_out.stats, &run_out.stats],
            phase_ns,
            requests,
            reg,
        );
        (responses, stats)
    }

    /// Records the batch under the `svc.*` namespace (the complete
    /// name reference lives in OBSERVABILITY.md): `jobs` are the
    /// compile and execute pool runs, `phase_ns` the wall time of each
    /// phase.
    fn record(
        &self,
        stats: &BatchStats,
        jobs: [&PoolStats; 2],
        phase_ns: [f64; 4],
        requests: &[Request],
        reg: &mut Registry,
    ) {
        reg.inc("svc.requests", stats.requests);
        reg.inc(
            "svc.compile_requests",
            requests
                .iter()
                .filter(|r| matches!(r, Request::Compile { .. }))
                .count() as u64,
        );
        reg.inc(
            "svc.run_requests",
            requests
                .iter()
                .filter(|r| matches!(r, Request::Run { .. }))
                .count() as u64,
        );
        reg.inc("svc.cache.hits", stats.hits);
        reg.inc("svc.cache.misses", stats.misses);
        reg.inc("svc.cache.evictions", stats.evictions);
        reg.inc("svc.errors", stats.errors);
        // One execute job per program run in this batch: a program
        // with no answer yet that a run request named.
        reg.inc("svc.executions", jobs[1].submitted);
        reg.set_gauge("svc.cache.size", self.cache.len() as f64);
        reg.set_gauge("svc.cache.capacity", self.cache.capacity() as f64);
        for (pool, name) in jobs
            .into_iter()
            .zip(["svc.compile_job_ns", "svc.execute_job_ns"])
        {
            reg.observe_summary("svc.queue_wait_ns", &pool.queue_wait);
            reg.observe_summary("svc.request_latency_ns", &pool.job_run);
            reg.observe_summary(name, &pool.job_run);
        }
        let phases = [
            "svc.phase.classify_ns",
            "svc.phase.compile_ns",
            "svc.phase.admit_ns",
            "svc.phase.execute_ns",
        ];
        for (name, ns) in phases.into_iter().zip(phase_ns) {
            reg.observe(name, ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(source: &str) -> Request {
        Request::Run {
            source: source.to_owned(),
        }
    }

    fn compile(source: &str) -> Request {
        Request::Compile {
            source: source.to_owned(),
        }
    }

    #[test]
    fn duplicate_sources_hit_the_cache() {
        let mut svc = Service::new(ServiceConfig::default());
        let mut reg = Registry::new();
        let batch = vec![run("(+ 1 2)"), run("(+ 1 2)"), run("(* 2 3)")];
        let (responses, stats) = svc.process_batch(&batch, &mut reg);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(reg.counter("svc.executions"), 2, "one run per text");
        assert!(responses[1].was_cached());
        assert!(!responses[0].was_cached());
        match (&responses[0], &responses[1]) {
            (Response::Ran { outcome: a, .. }, Response::Ran { outcome: b, .. }) => {
                assert_eq!(a, b)
            }
            other => panic!("expected two runs, got {other:?}"),
        }
        // A second batch of the same requests is all hits.
        let (_, stats) = svc.process_batch(&batch, &mut reg);
        assert_eq!((stats.hits, stats.misses), (3, 0));
        assert_eq!(reg.counter("svc.cache.hits"), 4);
        assert_eq!(reg.counter("svc.cache.misses"), 2);
    }

    #[test]
    fn outcomes_match_direct_execution() {
        let mut svc = Service::new(ServiceConfig::default());
        let mut reg = Registry::new();
        let src = "(define (f n) (if (zero? n) 0 (+ 2 (f (- n 1))))) (display (f 5)) (f 10)";
        let (responses, _) = svc.process_batch(&[run(src), run(src)], &mut reg);
        let direct = Engine::new().run(src).unwrap();
        for r in &responses {
            match r {
                Response::Ran { outcome, .. } => assert_eq!(**outcome, direct),
                other => panic!("expected a run, got {other:?}"),
            }
        }
    }

    #[test]
    fn results_and_counters_are_independent_of_worker_count() {
        let programs: Vec<String> = (0..12).map(|i| format!("(* {i} (+ {i} 1))")).collect();
        let batch: Vec<Request> = (0..40)
            .map(|i| run(&programs[(i * i) % programs.len()]))
            .collect();
        let outputs: Vec<_> = [1usize, 4]
            .iter()
            .map(|&workers| {
                let mut svc = Service::new(ServiceConfig {
                    workers,
                    cache_capacity: 8,
                    ..ServiceConfig::default()
                });
                let mut reg = Registry::new();
                let (responses, stats) = svc.process_batch(&batch, &mut reg);
                (
                    responses,
                    stats.hits,
                    stats.misses,
                    stats.evictions,
                    reg.counter("svc.cache.evictions"),
                )
            })
            .collect();
        assert_eq!(outputs[0], outputs[1]);
    }

    #[test]
    fn compile_requests_cache_without_running() {
        let mut svc = Service::new(ServiceConfig::default());
        let mut reg = Registry::new();
        let (responses, stats) =
            svc.process_batch(&[compile("(+ 40 2)"), run("(+ 40 2)")], &mut reg);
        assert_eq!(stats.misses, 1);
        assert!(matches!(
            responses[0],
            Response::Compiled { cached: false, .. }
        ));
        match &responses[1] {
            Response::Ran {
                outcome, cached, ..
            } => {
                assert!(*cached, "run coalesced onto the compile request");
                assert_eq!(outcome.value, "42");
            }
            other => panic!("expected a run, got {other:?}"),
        }
        assert_eq!(reg.counter("svc.compile_requests"), 1);
        assert_eq!(reg.counter("svc.run_requests"), 1);
    }

    #[test]
    fn failures_are_reported_not_cached() {
        let mut svc = Service::new(ServiceConfig::default());
        let mut reg = Registry::new();
        let (responses, stats) =
            svc.process_batch(&[run("(undefined-proc 1)"), run("(+ 1 2)")], &mut reg);
        assert!(responses[0].is_failure());
        assert!(!responses[1].is_failure());
        assert_eq!(stats.errors, 1);
        assert_eq!(svc.cache().len(), 1, "only the good program is cached");
        // The failing source misses again next batch (not cached).
        let (_, stats) = svc.process_batch(&[run("(undefined-proc 1)")], &mut reg);
        assert_eq!(stats.misses, 1);
        assert_eq!(reg.counter("svc.errors"), 2);
    }

    /// Two texts with equal FNV-1a-64 hashes. Keyed by hash, they would
    /// answer for each other unless every hit also compared the text.
    const COLLIDING: [&str; 2] = ["(quote se2a87e9aebf4315f)", "(quote s8797986212ca9022)"];

    fn ran_value(response: &Response) -> (&str, bool) {
        match response {
            Response::Ran {
                outcome, cached, ..
            } => (&outcome.value, *cached),
            other => panic!("expected a run, got {other:?}"),
        }
    }

    #[test]
    fn colliding_texts_get_their_own_answers_in_one_batch() {
        let mut svc = Service::new(ServiceConfig::default());
        let [a, b] = COLLIDING;
        let mut reg = Registry::new();
        let (responses, stats) = svc.process_batch(&[run(a), run(b), run(a)], &mut reg);
        assert_eq!(ran_value(&responses[0]), ("se2a87e9aebf4315f", false));
        assert_eq!(ran_value(&responses[1]), ("s8797986212ca9022", false));
        assert_eq!(ran_value(&responses[2]), ("se2a87e9aebf4315f", true));
        assert_eq!((stats.misses, stats.hits), (2, 1));
    }

    #[test]
    fn colliding_texts_get_their_own_answers_in_successive_batches() {
        let mut svc = Service::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let [a, b] = COLLIDING;
        let mut reg = Registry::new();
        let (first, _) = svc.process_batch(&[run(a)], &mut reg);
        assert_eq!(ran_value(&first[0]), ("se2a87e9aebf4315f", false));
        let (second, stats) = svc.process_batch(&[run(b)], &mut reg);
        assert_eq!(ran_value(&second[0]), ("s8797986212ca9022", false));
        assert_eq!((stats.misses, stats.evictions), (1, 0));
        let (third, _) = svc.process_batch(&[run(b), run(a)], &mut reg);
        assert_eq!(ran_value(&third[0]), ("s8797986212ca9022", true));
        assert_eq!(ran_value(&third[1]), ("se2a87e9aebf4315f", true));
    }

    #[test]
    fn an_unallocatable_vector_fails_its_request_only() {
        let mut svc = Service::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let mut reg = Registry::new();
        let huge = "(vector-length (make-vector 100000000000000000 0))";
        let (responses, stats) = svc.process_batch(&[run(huge), run("(+ 1 2)")], &mut reg);
        match &responses[0] {
            Response::Failed { message, .. } => assert!(
                message
                    .contains("make-vector: cannot allocate a vector of length 100000000000000000"),
                "{message}"
            ),
            other => panic!("expected a failure, got {other:?}"),
        }
        assert_eq!(ran_value(&responses[1]), ("3", false));
        assert_eq!(stats.errors, 1);
    }

    #[test]
    fn phase_and_job_times_are_recorded_per_batch() {
        let mut svc = Service::new(ServiceConfig::default());
        let mut reg = Registry::new();
        let (a, b) = ("(+ 40 2)", "(* 6 7)");
        svc.process_batch(&[compile(a), run(a), run(b)], &mut reg);
        let count = |name: &str| reg.histogram(name).map_or(0, |h| h.count);
        assert_eq!(count("svc.compile_job_ns"), 2);
        assert_eq!(count("svc.execute_job_ns"), 2);
        assert_eq!(count("svc.request_latency_ns"), 4);
        assert_eq!(count("svc.queue_wait_ns"), 4);
        for phase in ["classify", "compile", "admit", "execute"] {
            assert_eq!(count(&format!("svc.phase.{phase}_ns")), 1, "{phase}");
        }
    }

    #[test]
    fn eviction_is_lru_over_batches() {
        let mut svc = Service::new(ServiceConfig {
            cache_capacity: 2,
            ..ServiceConfig::default()
        });
        let mut reg = Registry::new();
        svc.process_batch(&[run("(+ 0 1)"), run("(+ 0 2)")], &mut reg);
        // Touch the first program, then overflow: the second evicts.
        svc.process_batch(&[run("(+ 0 1)"), run("(+ 0 3)")], &mut reg);
        let (_, stats) = svc.process_batch(&[run("(+ 0 1)")], &mut reg);
        assert_eq!(stats.hits, 1, "recently-used program survived eviction");
        let (_, stats) = svc.process_batch(&[run("(+ 0 2)")], &mut reg);
        assert_eq!(stats.misses, 1, "least-recently-used program was evicted");
        assert_eq!(reg.counter("svc.cache.evictions"), 2);
    }
}
