//! svc-skewed: `Service::process_batch` with one worker and a cache
//! smaller than the program pool, driven by one closed-loop client
//! that sends fixed-size batches. A request's latency is its batch's
//! submit-to-return time.

use std::collections::BTreeMap;
use std::time::Instant;

use lesgs_engine::CompilerConfig;
use lesgs_metrics::{Histogram, Registry};
use lesgs_svc::{BatchStats, Request, Response, Service, ServiceConfig};

use crate::trace::Tracer;
use crate::{gen, Counts, Tally, Workload, WorkloadKind};

/// Distinct programs the stream draws from.
const POOL: usize = 96;
/// Cache capacity, below the pool size so the stream evicts.
const CACHE: usize = 64;
/// Requests per pass, and per batch.
const STREAM: usize = 4096;
const BATCH: usize = 128;

/// What the warm-up recorded for one pool program, and how many timed
/// responses agreed with it.
#[derive(Default)]
struct Recorded {
    /// `(value, output)` of the program's first run.
    answer: Option<(String, String)>,
    /// `code_size` of the program's first compile response.
    code_size: Option<usize>,
    runs_agreed: u64,
    compiles_agreed: u64,
}

/// Requests of the traced passes per pool program: those that compiled
/// it (cache misses), and run requests.
#[derive(Default, Clone, Copy)]
struct Traffic {
    compiles: u64,
    runs: u64,
}

pub struct Svc {
    service: Service,
    pool: Vec<String>,
    batches: Vec<Vec<Request>>,
    /// Pool index of every request, batch by batch.
    programs: Vec<Vec<usize>>,
    recorded: Vec<Recorded>,
    registry: Registry,
    traced_registry: Registry,
    traced_stats: BatchStats,
    traced_traffic: Vec<Traffic>,
    traced_passes: u64,
}

impl Svc {
    /// Sends every batch once, checking each response; with a tracer,
    /// inside one span per batch.
    fn run_batches(
        &mut self,
        mut tracer: Option<&mut Tracer>,
        latencies: Option<&mut Vec<f64>>,
        tally: &mut Tally,
    ) -> BatchStats {
        let mut total = BatchStats::default();
        let mut latencies = latencies;
        for b in 0..self.batches.len() {
            let registry = if tracer.is_some() {
                &mut self.traced_registry
            } else {
                &mut self.registry
            };
            let t = Instant::now();
            let span = tracer.as_mut().map(|tr| tr.open_job("svc.batch"));
            let (responses, stats) = self.service.process_batch(&self.batches[b], registry);
            if let (Some(tr), Some(id)) = (tracer.as_mut(), span) {
                tr.close(id);
            }
            if let Some(l) = latencies.as_mut() {
                l.push(t.elapsed().as_secs_f64() * 1e3);
            }
            total.merge(&stats);
            for (response, &p) in responses.iter().zip(&self.programs[b]) {
                let rec = &mut self.recorded[p];
                let ok = match response {
                    Response::Ran { outcome, .. } => {
                        let agrees = rec
                            .answer
                            .as_ref()
                            .is_some_and(|(v, o)| *v == outcome.value && *o == outcome.output);
                        rec.runs_agreed += agrees as u64;
                        agrees
                    }
                    Response::Compiled { code_size, .. } => {
                        let agrees = rec.code_size == Some(*code_size);
                        rec.compiles_agreed += agrees as u64;
                        agrees
                    }
                    Response::Failed { .. } => false,
                };
                tally.job(ok);
                if tracer.is_some() {
                    let traffic = &mut self.traced_traffic[p];
                    traffic.compiles += !response.was_cached() as u64;
                    traffic.runs += matches!(response, Response::Ran { .. }) as u64;
                }
            }
        }
        total
    }
}

impl Workload for Svc {
    fn setup(_kind: WorkloadKind, seed: u64) -> Svc {
        let pool = gen::service_pool(seed, POOL);
        let schedule = gen::schedule(POOL, STREAM);
        let batches = schedule
            .chunks(BATCH)
            .map(|chunk| {
                chunk
                    .iter()
                    .map(|slot| {
                        let source = pool[slot.program].clone();
                        if slot.compile {
                            Request::Compile { source }
                        } else {
                            Request::Run { source }
                        }
                    })
                    .collect()
            })
            .collect();
        let programs = schedule
            .chunks(BATCH)
            .map(|chunk| chunk.iter().map(|slot| slot.program).collect())
            .collect();
        let mut svc = Svc {
            service: Service::new(ServiceConfig {
                compiler: CompilerConfig::default(),
                workers: 1,
                cache_capacity: CACHE,
            }),
            recorded: (0..pool.len()).map(|_| Recorded::default()).collect(),
            traced_traffic: vec![Traffic::default(); pool.len()],
            pool,
            batches,
            programs,
            registry: Registry::new(),
            traced_registry: Registry::new(),
            traced_stats: BatchStats::default(),
            traced_passes: 0,
        };
        // Warm-up pass: fills the cache and records each program's
        // first answer and first compiled size.
        for b in 0..svc.batches.len() {
            let (responses, _) = svc
                .service
                .process_batch(&svc.batches[b], &mut svc.registry);
            for (response, &p) in responses.iter().zip(&svc.programs[b]) {
                let rec = &mut svc.recorded[p];
                match response {
                    Response::Ran { outcome, .. } if rec.answer.is_none() => {
                        rec.answer = Some((outcome.value.clone(), outcome.output.clone()));
                    }
                    Response::Compiled { code_size, .. } if rec.code_size.is_none() => {
                        rec.code_size = Some(*code_size);
                    }
                    _ => {}
                }
            }
        }
        svc
    }

    fn pass(&mut self, latencies: &mut Vec<f64>, tally: &mut Tally) -> u64 {
        self.run_batches(None, Some(latencies), tally).requests
    }

    fn traced_pass(&mut self, tracer: &mut Tracer, tally: &mut Tally) {
        let stats = self.run_batches(Some(tracer), None, tally);
        self.traced_stats.merge(&stats);
        self.traced_passes += 1;
    }

    fn check(&mut self, tally: &mut Tally) -> Counts {
        // Counts over the pool: each program compiled and run once by
        // the service's own engine.
        let references = crate::interp_refs(&self.pool);
        let engine = self.service.engine();
        let mut counts = Counts::default();
        for (p, src) in self.pool.iter().enumerate() {
            let outcome = engine
                .compile(src)
                .and_then(|program| Ok((program.code_size(), engine.execute(&program)?)));
            let (code_size, outcome) = match outcome {
                Ok(x) => x,
                Err(e) => {
                    tally.fail(&format!("pool program {p} failed: {e}"));
                    continue;
                }
            };
            counts.code_instrs += code_size as u64;
            counts.stack_refs += outcome.stats.stack_refs();
            counts.modeled_cycles += outcome.stats.cycles;
            let reference = &references[p];
            let right = reference
                .as_ref()
                .is_some_and(|(v, o)| *v == outcome.value && *o == outcome.output);
            if !right {
                tally.fail(&format!(
                    "pool program {p}: got value {:?} output {:?}, reference {reference:?}",
                    outcome.value, outcome.output
                ));
            }
            let rec = &self.recorded[p];
            if let Some(answer) = &rec.answer {
                if reference.as_ref() != Some(answer) {
                    tally.fail(&format!(
                        "pool program {p}: the service answered {answer:?}"
                    ));
                    // Every run that agreed with a wrong answer failed too.
                    tally.failed += rec.runs_agreed;
                }
            }
            if let Some(size) = rec.code_size {
                if size != code_size {
                    tally.fail(&format!(
                        "pool program {p}: the service compiled {size} instructions, \
                         the engine {code_size}"
                    ));
                    tally.failed += rec.compiles_agreed;
                }
            }
        }
        counts
    }

    fn layer_metrics(&mut self, tracer: &Tracer, m: &mut BTreeMap<&'static str, f64>) {
        let batches = tracer
            .self_times()
            .get("svc.batch")
            .map_or(0, |t| t.1)
            .max(1) as f64;
        let batch_ns = tracer.total_ns("svc.batch") as f64;
        let summary = |name: &str| -> Histogram {
            self.traced_registry
                .histogram(name)
                .copied()
                .unwrap_or_default()
        };
        // The pool's per-job run times: every compile and execute job.
        let job_run_ns = summary("svc.request_latency_ns").sum;
        // The service records compile and execute jobs in one summary.
        // Split it by each program's compile and execute time, measured
        // here through the same engine, weighted by the traced traffic.
        let engine = self.service.engine();
        let (mut compile_ns, mut exec_ns) = (0.0, 0.0);
        let best_of_3 = |job: &dyn Fn()| {
            (0..3)
                .map(|_| {
                    let t = Instant::now();
                    job();
                    t.elapsed().as_nanos() as f64
                })
                .fold(f64::INFINITY, f64::min)
        };
        for (src, traffic) in self.pool.iter().zip(&self.traced_traffic) {
            let Ok(program) = engine.compile(src) else {
                continue;
            };
            compile_ns += traffic.compiles as f64 * best_of_3(&|| drop(engine.compile(src)));
            exec_ns += traffic.runs as f64 * best_of_3(&|| drop(engine.execute(&program)));
        }
        let compile_part = compile_ns / (compile_ns + exec_ns).max(1.0);
        let passes = self.traced_passes.max(1) as f64;
        let s = &self.traced_stats;
        m.insert("svc.hit_ratio", s.hit_rate());
        m.insert("svc.misses", s.misses as f64 / passes);
        m.insert("svc.evictions", s.evictions as f64 / passes);
        m.insert("svc.overhead_ms", (batch_ns - job_run_ns) / batches / 1e6);
        m.insert(
            "svc.compile_share",
            job_run_ns * compile_part / batch_ns.max(1.0),
        );
        m.insert(
            "svc.exec_share",
            job_run_ns * (1.0 - compile_part) / batch_ns.max(1.0),
        );
        m.insert(
            "exec.queue_wait_ms",
            summary("svc.queue_wait_ns").mean() / 1e6,
        );
        m.insert("exec.utilization", job_run_ns / batch_ns.max(1.0));
        m.insert("trace.job_ms", batch_ns / batches / 1e6);
        m.insert("trace.attributed_share", 1.0);
    }
}
