//! suite-run and compile-lbc: one closed-loop client, one job per
//! program, on the calling thread.
//!
//! * suite-run — `Engine::compile` then `Engine::execute`, what
//!   `lesgsc run prog.scm` does.
//! * compile-lbc — `Engine::emit_program`, `Engine::load_program`
//!   (deserialize, re-verify, decode), then `Engine::execute`: the
//!   `lesgsc compile -o x.lbc` then `lesgsc run x.lbc` path.
//!
//! The traced pass composes each job from the layer calls the engine
//! makes, in its order, with a span around each.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use lesgs_codegen::compile_program_opts;
use lesgs_core::allocate_program;
use lesgs_engine::{
    deserialize_program, serialize_program, CompilerConfig, Engine, EngineError, VmOutcome,
};
use lesgs_frontend::pipeline;
use lesgs_ir::{fold::fold_program, lower_program};
use lesgs_vm::{verify_bytecode, DecodedProgram, Machine};

use crate::trace::Tracer;
use crate::{gen, suite, Counts, Tally, Workload, WorkloadKind};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Path {
    CompileRun,
    EmitLoadRun,
}

/// The engine path's result for one program, recorded by the warm-up.
struct Recorded {
    outcome: VmOutcome,
    code_size: usize,
}

pub struct Programs {
    path: Path,
    /// Suite program names (compile-lbc: none).
    names: Vec<&'static str>,
    sources: Vec<String>,
    engine: Engine,
    recorded: Vec<Option<Recorded>>,
    /// Timed jobs per program that agreed with the recorded answer.
    agreed: Vec<u64>,
    /// Instructions the traced jobs retired, and source bytes they read.
    traced_instrs: u64,
    src_bytes: u64,
}

fn engine_job(engine: &Engine, path: Path, source: &str) -> Result<Recorded, EngineError> {
    let program = match path {
        Path::CompileRun => engine.compile(source)?,
        Path::EmitLoadRun => engine.load_program(&engine.emit_program(source)?)?,
    };
    let outcome = engine.execute(&program)?;
    Ok(Recorded {
        outcome,
        code_size: program.code_size(),
    })
}

/// Static per-program counts of the layers, from one composed job.
#[derive(Default)]
struct LayerCounts {
    ir_nodes: u64,
    save_sites: u64,
    greedy_temps: u64,
    instrs: u64,
    blob_bytes: u64,
    decoded_ops: u64,
}

/// One job composed from the layer calls `Engine` makes with
/// `config`, each inside a span. With `counts`, also adds the
/// program's static layer counts.
fn composed_job(
    tracer: &mut Tracer,
    config: &CompilerConfig,
    path: Path,
    source: &str,
    counts: Option<&mut LayerCounts>,
) -> Result<Recorded, String> {
    let closed = tracer
        .span("frontend", || pipeline::front_to_closed(source))
        .map_err(|e| e.to_string())?;
    let ir = tracer.span("ir", || {
        let mut ir = lower_program(&closed);
        if !config.no_fold {
            fold_program(&mut ir);
        }
        ir
    });
    let allocated = tracer.span("core", || allocate_program(&ir, &config.alloc));
    let vm = tracer.span("codegen", || {
        compile_program_opts(&allocated, !config.no_peephole)
    });
    // `Engine::compile` decodes for dispatch; emit_program then drops
    // that decoding and serializes the program.
    let mut decoded = tracer.span("vm.decode", || DecodedProgram::decode(&vm));
    let mut blob_bytes = 0;
    let code_size = vm.code_size();
    if path == Path::EmitLoadRun {
        drop(decoded);
        let blob = tracer.span("engine.serialize", || serialize_program(&vm, &config.alloc));
        blob_bytes = blob.len() as u64;
        let (loaded, _alloc) = tracer
            .span("engine.deserialize", || deserialize_program(&blob))
            .map_err(|e| e.to_string())?;
        let errors = tracer.span("vm.verify", || verify_bytecode(&loaded));
        if let Some(e) = errors.first() {
            return Err(format!("verifier rejected the program: {e}"));
        }
        decoded = tracer.span("vm.decode", || DecodedProgram::decode(&loaded));
    }
    let outcome = tracer
        .span("vm.exec", || {
            let mut m = Machine::from_decoded(&decoded, config.cost)
                .with_poison(config.poison)
                .with_trace(config.trace)
                .with_speculation(!config.no_speculation);
            if config.fuel > 0 {
                m = m.with_fuel(config.fuel);
            }
            m.run()
        })
        .map_err(|e| e.to_string())?;
    if let Some(c) = counts {
        let stats = lesgs_core::stats::collect(&allocated);
        c.ir_nodes += ir.funcs.iter().map(|f| f.body.size() as u64).sum::<u64>();
        c.save_sites += stats.save_sites as u64;
        c.greedy_temps += stats.greedy_temps as u64;
        c.instrs += code_size as u64;
        c.blob_bytes += blob_bytes;
        c.decoded_ops += decoded.stats().decoded_ops;
    }
    Ok(Recorded { outcome, code_size })
}

impl Programs {
    /// Whether a job's result equals the warm-up's for program `i`.
    fn agrees(&self, i: usize, result: &Result<Recorded, impl std::fmt::Display>) -> bool {
        match (result, &self.recorded[i]) {
            (Ok(got), Some(want)) => got.outcome == want.outcome && got.code_size == want.code_size,
            _ => false,
        }
    }

    fn label(&self, i: usize) -> String {
        self.names
            .get(i)
            .map_or_else(|| format!("program {i}"), |n| (*n).to_owned())
    }
}

impl Workload for Programs {
    fn setup(kind: WorkloadKind, seed: u64) -> Programs {
        let (path, names, sources) = if kind == WorkloadKind::SuiteRun {
            let mut order: Vec<usize> = (0..suite::PROGRAMS.len()).collect();
            gen::Rng::new(seed).shuffle(&mut order);
            let names = order.iter().map(|&i| suite::PROGRAMS[i].0).collect();
            let sources = order
                .iter()
                .map(|&i| suite::PROGRAMS[i].1.to_owned())
                .collect();
            (Path::CompileRun, names, sources)
        } else {
            (Path::EmitLoadRun, Vec::new(), gen::corpus(seed))
        };
        let engine = Engine::new();
        let recorded: Vec<Option<Recorded>> = sources
            .iter()
            .map(|src| engine_job(&engine, path, src).ok())
            .collect();
        Programs {
            path,
            names,
            agreed: vec![0; sources.len()],
            sources,
            engine,
            recorded,
            traced_instrs: 0,
            src_bytes: 0,
        }
    }

    fn pass(&mut self, latencies: &mut Vec<f64>, tally: &mut Tally) -> u64 {
        for i in 0..self.sources.len() {
            let t = Instant::now();
            let result = black_box(engine_job(
                &self.engine,
                self.path,
                black_box(&self.sources[i]),
            ));
            latencies.push(t.elapsed().as_secs_f64() * 1e3);
            let ok = self.agrees(i, &result);
            self.agreed[i] += ok as u64;
            tally.job(ok);
        }
        self.sources.len() as u64
    }

    fn traced_pass(&mut self, tracer: &mut Tracer, tally: &mut Tally) {
        let config = *self.engine.config();
        for i in 0..self.sources.len() {
            let root = tracer.open_job("job");
            let result = composed_job(tracer, &config, self.path, &self.sources[i], None);
            tracer.close(root);
            let ok = self.agrees(i, &result);
            if !ok {
                tally.fail(&format!(
                    "the composed layer pipeline disagrees with the engine on {}",
                    self.label(i)
                ));
            }
            if let Ok(r) = &result {
                self.traced_instrs += r.outcome.stats.instructions;
            }
            self.src_bytes += self.sources[i].len() as u64;
            tally.job(ok);
        }
    }

    fn check(&mut self, tally: &mut Tally) -> Counts {
        let references: Vec<Option<(String, String)>> = if self.path == Path::CompileRun {
            self.names.iter().map(|n| suite::expected(n)).collect()
        } else {
            crate::interp_refs(&self.sources)
        };
        let mut counts = Counts::default();
        for (i, reference) in references.iter().enumerate() {
            let Some(rec) = &self.recorded[i] else {
                tally.fail(&format!("{} failed in the warm-up", self.label(i)));
                continue;
            };
            counts.code_instrs += rec.code_size as u64;
            counts.stack_refs += rec.outcome.stats.stack_refs();
            counts.modeled_cycles += rec.outcome.stats.cycles;
            let matches = reference
                .as_ref()
                .is_some_and(|(v, o)| *v == rec.outcome.value && *o == rec.outcome.output);
            if !matches {
                tally.fail(&format!(
                    "{}: got value {:?} output {:?}, reference {:?}",
                    self.label(i),
                    rec.outcome.value,
                    rec.outcome.output,
                    reference
                ));
                // Every job that agreed with a wrong answer failed too.
                tally.failed += self.agreed[i];
            }
        }
        if self.path == Path::CompileRun {
            let pinned = (suite::CODE_INSTRS, suite::STACK_REFS, suite::MODELED_CYCLES);
            let got = (counts.code_instrs, counts.stack_refs, counts.modeled_cycles);
            if got != pinned {
                tally.fail(&format!(
                    "suite counts (code_instrs, stack_refs, modeled_cycles) = {got:?}, pinned {pinned:?}"
                ));
            }
        }
        counts
    }

    fn layer_metrics(&mut self, tracer: &Tracer, m: &mut BTreeMap<&'static str, f64>) {
        // Static counts per pass, from one composed job per program.
        let config = *self.engine.config();
        let mut counts = LayerCounts::default();
        let mut scratch = Tracer::new();
        for src in &self.sources {
            let _ = composed_job(&mut scratch, &config, self.path, src, Some(&mut counts));
        }
        let times = tracer.self_times();
        let jobs = times.get("job").map_or(0, |t| t.1).max(1) as f64;
        let job_ns = tracer.total_ns("job").max(1) as f64;
        let self_ns = |name: &str| times.get(name).map_or(0, |t| t.0) as f64;
        let per_job_ms = |name: &str| self_ns(name) / jobs / 1e6;
        let share = |name: &str| self_ns(name) / job_ns;

        m.insert("frontend.ms", per_job_ms("frontend"));
        m.insert("frontend.share", share("frontend"));
        m.insert(
            "frontend.src_kb_per_ms",
            (self.src_bytes as f64 / 1024.0) / (self_ns("frontend") / 1e6).max(1e-9),
        );
        m.insert("ir.ms", per_job_ms("ir"));
        m.insert("ir.nodes", counts.ir_nodes as f64);
        m.insert("core.ms", per_job_ms("core"));
        m.insert("core.share", share("core"));
        m.insert("core.save_sites", counts.save_sites as f64);
        m.insert("core.greedy_temps", counts.greedy_temps as f64);
        m.insert("codegen.ms", per_job_ms("codegen"));
        m.insert("codegen.instrs", counts.instrs as f64);
        m.insert("engine.serialize_ms", per_job_ms("engine.serialize"));
        m.insert("engine.deserialize_ms", per_job_ms("engine.deserialize"));
        m.insert("engine.blob_kb", counts.blob_bytes as f64 / 1024.0);
        m.insert("vm.verify_ms", per_job_ms("vm.verify"));
        m.insert("vm.decode_ms", per_job_ms("vm.decode"));
        m.insert("vm.decoded_ops", counts.decoded_ops as f64);
        m.insert("vm.exec_ms", per_job_ms("vm.exec"));
        m.insert("vm.exec_share", share("vm.exec"));
        m.insert(
            "vm.exec_mips",
            self.traced_instrs as f64 / (self_ns("vm.exec") / 1e3).max(1e-9),
        );
        let rec = self.recorded.iter().flatten();
        m.insert(
            "vm.instrs",
            rec.clone()
                .map(|r| r.outcome.stats.instructions)
                .sum::<u64>() as f64,
        );
        m.insert(
            "vm.stall_cycles",
            rec.map(|r| r.outcome.stats.stall_cycles).sum::<u64>() as f64,
        );
        m.insert("trace.job_ms", job_ns / jobs / 1e6);
        let layers: f64 = times
            .iter()
            .filter(|(name, _)| **name != "job")
            .map(|(_, t)| t.0 as f64)
            .sum();
        m.insert("trace.attributed_share", layers / job_ns);
    }
}
