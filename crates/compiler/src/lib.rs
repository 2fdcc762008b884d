//! The end-to-end lesgs compiler driver.
//!
//! Ties the pipeline together — reader → frontend → closure conversion
//! → IR → register allocation → code generation → VM — under a single
//! [`CompilerConfig`], and provides the differential check
//! ([`differential_check`]) used throughout the test suite.
//!
//! # Examples
//!
//! ```
//! use lesgs_compiler::{compile, CompilerConfig};
//!
//! let cfg = CompilerConfig::default();
//! let compiled = compile("(define (sq x) (* x x)) (sq 7)", &cfg).unwrap();
//! assert!(compiled.vm.code_size() > 0);
//! assert_eq!(compiled.run(&cfg).unwrap().value, "49");
//! ```

use lesgs_core::{driver::allocate_program_observed, AllocConfig, AllocatedProgram};
use lesgs_frontend::pipeline;
use lesgs_ir::Program;
use lesgs_metrics::{ratio, Registry};
use lesgs_vm::{ClassicMachine, CostModel, Dispatch, Machine, VmOutcome, VmProgram};

/// Complete compiler + execution configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompilerConfig {
    /// Register allocator configuration.
    pub alloc: AllocConfig,
    /// VM cost model.
    pub cost: CostModel,
    /// VM instruction budget (0 = default).
    pub fuel: u64,
    /// Poison callee frames (catches reads of never-written slots).
    pub poison: bool,
    /// Apply selective lambda lifting before closure conversion (§6).
    pub lambda_lift: bool,
    /// Disable the backend peephole optimizer (on by default; the flag
    /// exists for the ablation harness).
    pub no_peephole: bool,
    /// Disable IR constant folding (on by default).
    pub no_fold: bool,
    /// Ignored: the VM has no speculative dispatch. Kept only because
    /// `perfbench/src/programs.rs` still reads it; nothing in the
    /// workspace sets or reads it.
    pub no_speculation: bool,
    /// Log pass boundaries (compile time) and call events (run time)
    /// to stderr — the `lesgsc --trace` switch.
    pub trace: bool,
}

impl CompilerConfig {
    /// The paper's configuration with a given allocator setup.
    pub fn with_alloc(alloc: AllocConfig) -> CompilerConfig {
        CompilerConfig {
            alloc,
            ..CompilerConfig::default()
        }
    }

    /// A [`Machine`] that runs `program` under this configuration's
    /// cost model, poisoning, tracing and instruction budget.
    pub fn machine<'a>(&self, program: &'a VmProgram) -> Machine<'a> {
        self.configure(Machine::new(program, self.cost))
    }

    /// The reference [`ClassicMachine`], configured like
    /// [`CompilerConfig::machine`].
    pub fn classic_machine<'a>(&self, program: &'a VmProgram) -> ClassicMachine<'a> {
        self.configure(ClassicMachine::new(program, self.cost))
    }

    fn configure<'a, const FAST: bool>(&self, m: Dispatch<'a, FAST>) -> Dispatch<'a, FAST> {
        let m = m.with_poison(self.poison).with_trace(self.trace);
        // A budget of 0 means the machine's default.
        if self.fuel > 0 {
            m.with_fuel(self.fuel)
        } else {
            m
        }
    }
}

/// A compilation failure (frontend errors).
#[derive(Debug, Clone, PartialEq)]
pub struct CompileError {
    /// Description.
    pub message: String,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "compile error: {}", self.message)
    }
}

impl std::error::Error for CompileError {}

/// The output of compilation: the allocator's output and the code
/// generated from it.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The allocator's output.
    pub allocated: AllocatedProgram,
    /// Executable VM code.
    pub vm: VmProgram,
}

impl Compiled {
    /// Runs the compiled program.
    ///
    /// # Errors
    ///
    /// VM runtime errors or budget exhaustion.
    pub fn run(&self, config: &CompilerConfig) -> Result<VmOutcome, lesgs_vm::VmError> {
        config.machine(&self.vm).run()
    }

    /// Static shuffle/save statistics (§3.1 numbers).
    pub fn shuffle_stats(&self) -> lesgs_core::stats::ShuffleStats {
        lesgs_core::stats::collect(&self.allocated)
    }
}

/// Runs the compilation prefix shared by every allocator
/// configuration — reader, frontend passes, closure conversion, and
/// IR folding — with full observability: the
/// `frontend.*` and `ir.*` instruments plus the `phase.frontend` span.
/// None of those passes look at the allocator, so drivers that sweep a
/// program across a configuration matrix (the differential oracle, the
/// ablation harnesses) compute this **once per program** and finish it
/// for every configuration with [`compile_back_observed`].
///
/// The prefix *does* depend on the frontend-relevant corner of
/// [`CompilerConfig`]: `lambda_lift` (and, when lifting, the argument
/// register count it sizes against) and `no_fold`. Callers sharing one
/// prefix across configurations must hold those fixed — as every
/// matrix driver in the workspace does.
///
/// # Errors
///
/// Returns [`CompileError`] on any frontend failure.
pub fn compile_front_observed(
    src: &str,
    config: &CompilerConfig,
    reg: &mut Registry,
) -> Result<Program, CompileError> {
    reg.set_trace(config.trace);
    let frontend_span = reg.start_span("phase.frontend");
    let lift = config
        .lambda_lift
        .then(|| lesgs_frontend::lift::LiftOptions {
            max_params: config.alloc.machine.num_arg_regs.max(1),
        });
    let mut ir = pipeline::front_to_closed_observed(src, lift, reg).map_err(|e| CompileError {
        message: e.to_string(),
    })?;
    let nodes = |ir: &Program| ir.funcs.iter().map(|f| f.body.size() as u64).sum::<u64>();
    if reg.is_recording() {
        reg.inc("ir.nodes", nodes(&ir));
    }
    if !config.no_fold {
        reg.time("pass.fold", || lesgs_ir::fold::fold_program(&mut ir));
    }
    if reg.is_recording() {
        reg.inc("ir.nodes_final", nodes(&ir));
    }
    reg.inc("ir.funcs", ir.funcs.len() as u64);
    reg.end_span(frontend_span);
    Ok(ir)
}

/// Finishes a compilation from a shared prefix: register allocation
/// and code generation under `config`, with the `alloc.*` /
/// `codegen.*` instruments and `phase.*` spans recorded into `reg`.
/// Infallible — only the frontend can reject a program.
pub fn compile_back_observed(
    ir: &Program,
    config: &CompilerConfig,
    reg: &mut Registry,
) -> Compiled {
    reg.set_trace(config.trace);
    let alloc_span = reg.start_span("phase.alloc");
    let allocated = allocate_program_observed(ir, &config.alloc, reg);
    reg.end_span(alloc_span);

    let codegen_span = reg.start_span("phase.codegen");
    let vm = lesgs_codegen::compile_program_observed(&allocated, !config.no_peephole, reg);
    reg.end_span(codegen_span);

    if reg.is_recording() {
        // Allocation's share of the compile time in this registry's
        // spans (the paper's §4 "7%").
        let ns = phase_ns(reg);
        reg.set_gauge("compile.alloc_fraction", ratio(ns[1], ns.iter().sum(), 0.0));
    }
    Compiled { allocated, vm }
}

/// The frontend, allocation and codegen wall times in nanoseconds,
/// summed over the `phase.*` spans recorded in `reg`.
pub fn phase_ns(reg: &Registry) -> [f64; 3] {
    [
        "phase.frontend.wall_ns",
        "phase.alloc.wall_ns",
        "phase.codegen.wall_ns",
    ]
    .map(|span| reg.histogram(span).map_or(0.0, |h| h.sum))
}

/// Compiles `src` with full observability: every pipeline pass records
/// wall time and size metrics into `reg` (the `pass.*`, `frontend.*`,
/// `ir.*`, `alloc.*`, and `codegen.*` instruments of OBSERVABILITY.md)
/// plus the coarse `phase.*` spans. With `config.trace`, every
/// completed span also logs a `trace:` line.
///
/// This is the engine behind `lesgsc --profile`; [`compile`] is the
/// same code with a discarding registry ([`Registry::discard`]), which
/// reads no clock and computes no derived count, though `config.trace`
/// still logs. It is literally
/// [`compile_front_observed`] followed by [`compile_back_observed`] —
/// matrix drivers call the halves directly to share the prefix across
/// configurations.
///
/// # Errors
///
/// Returns [`CompileError`] on any frontend failure.
pub fn compile_observed(
    src: &str,
    config: &CompilerConfig,
    reg: &mut Registry,
) -> Result<Compiled, CompileError> {
    let ir = compile_front_observed(src, config, reg)?;
    Ok(compile_back_observed(&ir, config, reg))
}

/// Compiles `src` under `config`.
///
/// # Errors
///
/// Returns [`CompileError`] on any frontend failure.
pub fn compile(src: &str, config: &CompilerConfig) -> Result<Compiled, CompileError> {
    compile_observed(src, config, &mut Registry::discard())
}

/// The failure class of a [`differential_check`] run.
///
/// Fuel exhaustion is deliberately its own variant: a timeout (in the
/// oracle or in one configuration) says nothing about correctness and
/// must never be reported as a miscompile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffKind {
    /// The reference interpreter rejected or failed the program; the
    /// compiled configurations were never consulted.
    OracleError {
        /// The interpreter's error.
        message: String,
    },
    /// A step/instruction budget ran out before an answer was reached.
    FuelExhausted,
    /// The compiler rejected the program under one configuration.
    CompileError {
        /// The compile error.
        message: String,
    },
    /// The bytecode verifier rejected the generated code.
    VerifyFailed {
        /// All verifier complaints, rendered.
        errors: Vec<String>,
    },
    /// The VM failed at runtime where the oracle succeeded.
    VmError {
        /// The VM error.
        message: String,
    },
    /// The [`Machine`] and the reference [`ClassicMachine`] disagreed
    /// on one compiled program: its value, output, error or any
    /// [`lesgs_vm::RunStats`] counter. They run one dispatch loop and
    /// differ only in the machine's fast paths, so this is a bug in a
    /// fast path.
    EngineMismatch {
        /// What differs: `value`, `output`, `stats` or `result`.
        what: &'static str,
        /// The machine's side, rendered.
        fast: String,
        /// The reference's side, rendered.
        classic: String,
    },
    /// Both backends ran to completion but disagreed.
    Mismatch {
        /// VM final value.
        value: String,
        /// VM output.
        output: String,
        /// Interpreter final value.
        oracle_value: String,
        /// Interpreter output.
        oracle_output: String,
    },
}

/// A [`differential_check`] failure: what went wrong, and under
/// which allocator configuration (if any single one is to blame).
#[derive(Debug, Clone)]
pub struct DiffFailure {
    /// The offending configuration; `None` when the oracle itself
    /// failed before any configuration ran.
    pub config: Option<AllocConfig>,
    /// Failure class.
    pub kind: DiffKind,
}

impl DiffFailure {
    /// True when this failure is evidence of a compiler bug — anything
    /// except an oracle failure (bad input program) or fuel exhaustion
    /// (bad budget).
    pub fn is_miscompile(&self) -> bool {
        !matches!(
            self.kind,
            DiffKind::OracleError { .. } | DiffKind::FuelExhausted
        )
    }
}

impl std::fmt::Display for DiffFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cfg = |f: &mut std::fmt::Formatter<'_>| match &self.config {
            Some(c) => write!(f, "{c:?}: "),
            None => Ok(()),
        };
        match &self.kind {
            DiffKind::OracleError { message } => write!(f, "oracle failed: {message}"),
            DiffKind::FuelExhausted => {
                cfg(f)?;
                write!(f, "fuel exhausted (a timeout, not an outcome mismatch)")
            }
            DiffKind::CompileError { message } => {
                cfg(f)?;
                write!(f, "{message}")
            }
            DiffKind::VerifyFailed { errors } => {
                cfg(f)?;
                write!(f, "bytecode verification failed:\n{}", errors.join("\n"))
            }
            DiffKind::VmError { message } => {
                cfg(f)?;
                write!(f, "{message}")
            }
            DiffKind::EngineMismatch {
                what,
                fast,
                classic,
            } => {
                cfg(f)?;
                write!(
                    f,
                    "engines disagree on {what}: fast {fast} != classic {classic}"
                )
            }
            DiffKind::Mismatch {
                value,
                output,
                oracle_value,
                oracle_output,
            } => {
                cfg(f)?;
                if value != oracle_value {
                    write!(f, "value {value} != oracle {oracle_value}")
                } else {
                    write!(f, "output {output:?} != oracle {oracle_output:?}")
                }
            }
        }
    }
}

/// What the reference engine's run differs from the machine's in, if
/// anything: the first of value, output and counters to differ, or the
/// whole result when an error is involved.
fn engine_mismatch(
    fast: &Result<VmOutcome, lesgs_vm::VmError>,
    classic: &Result<VmOutcome, lesgs_vm::VmError>,
) -> Option<DiffKind> {
    let differ = |what, fast: String, classic: String| DiffKind::EngineMismatch {
        what,
        fast,
        classic,
    };
    match (fast, classic) {
        (Ok(d), Ok(c)) if d.value != c.value => {
            Some(differ("value", d.value.clone(), c.value.clone()))
        }
        (Ok(d), Ok(c)) if d.output != c.output => Some(differ(
            "output",
            format!("{:?}", d.output),
            format!("{:?}", c.output),
        )),
        (Ok(d), Ok(c)) if d.stats != c.stats => Some(differ(
            "stats",
            format!("{:?}", d.stats),
            format!("{:?}", c.stats),
        )),
        (Ok(_), Ok(_)) => None,
        (d, c) if d == c => None,
        (d, c) => Some(differ("result", format!("{d:?}"), format!("{c:?}"))),
    }
}

/// Judges one compiled configuration against the oracle: verifies its
/// bytecode, runs it, and compares value and output. With `reference`
/// set, the reference engine runs it too, configured the same way, and
/// must agree with the machine on the whole result.
fn judge_compiled(
    compiled: &Compiled,
    config: &CompilerConfig,
    oracle: &lesgs_interp::Outcome,
    reference: bool,
) -> Result<(), DiffFailure> {
    let fail = |kind: DiffKind| DiffFailure {
        config: Some(config.alloc),
        kind,
    };
    let verify_errors = lesgs_vm::verify_bytecode(&compiled.vm);
    if !verify_errors.is_empty() {
        return Err(fail(DiffKind::VerifyFailed {
            errors: verify_errors.iter().map(ToString::to_string).collect(),
        }));
    }
    let run = compiled.run(config);
    if reference {
        let classic = config.classic_machine(&compiled.vm).run();
        if let Some(kind) = engine_mismatch(&run, &classic) {
            return Err(fail(kind));
        }
    }
    let out = run.map_err(|e| {
        fail(if e.is_fuel_exhausted() {
            DiffKind::FuelExhausted
        } else {
            DiffKind::VmError {
                message: e.to_string(),
            }
        })
    })?;
    if out.value != oracle.value || out.output != oracle.output {
        return Err(fail(DiffKind::Mismatch {
            value: out.value,
            output: out.output,
            oracle_value: oracle.value.clone(),
            oracle_output: oracle.output.clone(),
        }));
    }
    Ok(())
}

/// The stack size of the thread [`on_deep_stack`] runs a closure on.
/// The frontend, the allocator and code generation recurse once per
/// level of program nesting; 64 MiB lets `lesgsc` and the differential
/// check take programs nested a few thousand levels deep in every
/// build profile. The memory is virtual; only pages actually touched
/// are committed.
const DEEP_STACK_BYTES: usize = 64 * 1024 * 1024;

/// Runs `f` on a fresh thread with a stack of 64 MiB, enough to
/// compile a deeply nested program, and returns its result. A panic in
/// `f` is re-raised on the caller.
pub fn on_deep_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .name("lesgs-deep".to_owned())
            .stack_size(DEEP_STACK_BYTES)
            .spawn_scoped(s, f)
            .expect("spawn a deep-stack thread")
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

/// Runs `src` through the reference interpreter and through the
/// compiler under every given allocator configuration, checking that
/// the bytecode verifies ([`lesgs_vm::verify_bytecode`]), that value
/// and output agree everywhere, and, under the first configuration,
/// that the reference engine's whole result equals the machine's
/// ([`DiffKind::EngineMismatch`]). Failures are structured
/// [`DiffFailure`]s, so drivers can tell timeouts from miscompiles;
/// their `Display` is the rendered verdict.
///
/// The configurations are checked one after another, and the check
/// stops at the first failure. It runs on a thread of its own
/// ([`on_deep_stack`]), so a deeply nested program gets the same
/// verdict from every calling thread.
///
/// # Errors
///
/// Returns the first failure in matrix order, tagged with the
/// offending configuration.
///
/// # Panics
///
/// A panic while compiling or judging a configuration is re-raised on
/// the caller.
pub fn differential_check(
    src: &str,
    configs: &[AllocConfig],
    fuel: u64,
) -> Result<(), DiffFailure> {
    on_deep_stack(|| check_on_deep_stack(src, configs, fuel))
}

/// [`differential_check`]'s body, on the deep-stack thread.
fn check_on_deep_stack(src: &str, configs: &[AllocConfig], fuel: u64) -> Result<(), DiffFailure> {
    let oracle = match lesgs_interp::run_source(src, fuel) {
        Ok(o) => o,
        Err(e) => {
            return Err(DiffFailure {
                config: None,
                kind: if e.is_fuel_exhausted() {
                    DiffKind::FuelExhausted
                } else {
                    DiffKind::OracleError {
                        message: e.to_string(),
                    }
                },
            })
        }
    };
    if configs.is_empty() {
        return Ok(());
    }
    // The reader and the full frontend are config-independent: run
    // them once per program instead of once per configuration. A
    // frontend rejection is attributed to the first configuration,
    // exactly as when each configuration recompiled from scratch.
    let front =
        match compile_front_observed(src, &CompilerConfig::default(), &mut Registry::discard()) {
            Ok(front) => front,
            Err(e) => {
                return Err(DiffFailure {
                    config: configs.first().copied(),
                    kind: DiffKind::CompileError {
                        message: e.to_string(),
                    },
                })
            }
        };
    // The reference engine checks the machine under the first
    // configuration only: they differ only in the fast paths, which no
    // allocator setting changes.
    for (i, alloc) in configs.iter().enumerate() {
        let config = CompilerConfig {
            alloc: *alloc,
            poison: true,
            fuel,
            ..CompilerConfig::default()
        };
        let compiled = compile_back_observed(&front, &config, &mut Registry::discard());
        judge_compiled(&compiled, &config, &oracle, i == 0)?;
    }
    Ok(())
}

/// The full matrix of allocator configurations exercised by the
/// differential tests: {lazy, early, late} × {eager, lazy} × register
/// counts × shuffling strategies, plus the callee-save discipline.
pub fn config_matrix() -> Vec<AllocConfig> {
    use lesgs_core::config::{Discipline, RestoreStrategy, SaveStrategy, ShuffleStrategy};
    let mut out = Vec::new();
    for save in [SaveStrategy::Lazy, SaveStrategy::Early, SaveStrategy::Late] {
        for restore in [RestoreStrategy::Eager, RestoreStrategy::Lazy] {
            for c in [0, 2, 6] {
                out.push(AllocConfig {
                    save,
                    restore,
                    machine: lesgs_ir::MachineConfig::with_arg_regs(c),
                    ..AllocConfig::default()
                });
            }
        }
    }
    out.push(AllocConfig {
        shuffle: ShuffleStrategy::FixedOrder,
        ..AllocConfig::default()
    });
    for save in [SaveStrategy::Lazy, SaveStrategy::Early] {
        out.push(AllocConfig {
            discipline: Discipline::CalleeSave,
            save,
            ..AllocConfig::default()
        });
    }
    out.push(AllocConfig {
        branch_prediction: true,
        ..AllocConfig::default()
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke() {
        let cfg = CompilerConfig::default();
        let out = compile("(+ 40 2)", &cfg).unwrap().run(&cfg).unwrap();
        assert_eq!(out.value, "42");
    }

    #[test]
    fn differential_small_programs() {
        let programs = [
            "(define (fact n) (if (zero? n) 1 (* n (fact (- n 1))))) (fact 8)",
            "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 10)",
            "(map (lambda (x) (* x x)) '(1 2 3 4))",
            "(let loop ((i 0) (acc '())) (if (= i 5) (reverse acc) (loop (+ i 1) (cons i acc))))",
            "(define (tak x y z)
               (if (not (< y x)) z
                   (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))))
             (tak 8 4 2)",
            "(define v (make-vector 5 0))
             (let loop ((i 0)) (when (< i 5) (vector-set! v i (* i i)) (loop (+ i 1))))
             (vector->list v)",
            "(display \"hello\") (newline) (write '(a \"b\" #\\c)) 'done",
            "(define counter (let ((n 0)) (lambda () (set! n (+ n 1)) n)))
             (counter) (counter) (+ (counter) 10)",
            "(filter odd? (iota 10))",
            "(assq 'c '((a 1) (b 2) (c 3)))",
        ];
        for src in programs {
            differential_check(src, &config_matrix(), 10_000_000)
                .unwrap_or_else(|e| panic!("{e}\nsrc={src}"));
        }
    }

    #[test]
    fn fuel_exhaustion_is_a_timeout_not_a_mismatch() {
        // An infinite loop exhausts the oracle's budget before any
        // configuration runs: the failure must say "timeout", carry no
        // config, and not count as a miscompile.
        let src = "(define (spin) (spin)) (spin)";
        let e = differential_check(src, &config_matrix(), 10_000).unwrap_err();
        assert_eq!(e.kind, DiffKind::FuelExhausted, "{e}");
        assert!(e.config.is_none());
        assert!(!e.is_miscompile());
        assert!(e.to_string().contains("timeout, not an outcome mismatch"));
    }

    #[test]
    fn vm_fuel_exhaustion_names_the_config_but_is_still_a_timeout() {
        // The VM spends more instructions than the interpreter spends
        // steps (moves, saves, shuffles), so some budget lets the
        // oracle finish while a configuration times out. That failure
        // must carry the config yet still not count as a miscompile.
        let src = "(define (f a b c d e g) (+ a b c d e g))
                   (+ (f 1 2 3 4 5 6) (f 6 5 4 3 2 1))";
        let cfg = AllocConfig::paper_default();
        let mut seen_vm_timeout = false;
        for fuel in 1..2_000u64 {
            match differential_check(src, std::slice::from_ref(&cfg), fuel) {
                Ok(()) => break,
                Err(e) => {
                    assert_eq!(e.kind, DiffKind::FuelExhausted, "fuel {fuel}: {e}");
                    assert!(!e.is_miscompile());
                    if e.config.is_some() {
                        seen_vm_timeout = true;
                        assert!(
                            e.to_string().contains("AllocConfig"),
                            "config missing from: {e}"
                        );
                    }
                }
            }
        }
        assert!(seen_vm_timeout, "no budget made only the VM time out");
    }

    #[test]
    fn mismatch_rendering_names_the_offending_config() {
        let e = DiffFailure {
            config: Some(AllocConfig::paper_default()),
            kind: DiffKind::Mismatch {
                value: "1".to_owned(),
                output: String::new(),
                oracle_value: "2".to_owned(),
                oracle_output: String::new(),
            },
        };
        assert!(e.is_miscompile());
        let s = e.to_string();
        assert!(s.contains("AllocConfig"), "{s}");
        assert!(s.contains("value 1 != oracle 2"), "{s}");
    }

    /// The engine comparison sees one counter apart, and an error on one
    /// side only; a disagreement is a miscompile naming the config.
    #[test]
    fn engine_comparison_catches_one_counter_apart() {
        let outcome = compile(
            "(define (f n) (if (= n 0) 0 (f (- n 1)))) (f 3)",
            &CompilerConfig::default(),
        )
        .unwrap()
        .run(&CompilerConfig::default())
        .unwrap();
        assert_eq!(
            engine_mismatch(&Ok(outcome.clone()), &Ok(outcome.clone())),
            None
        );
        let mut off = outcome.clone();
        off.stats.stack_stores[lesgs_vm::SlotClass::Save as usize] += 1;
        let kind = engine_mismatch(&Ok(outcome.clone()), &Ok(off)).expect("one counter apart");
        assert!(
            matches!(kind, DiffKind::EngineMismatch { what: "stats", .. }),
            "{kind:?}"
        );
        let e = DiffFailure {
            config: Some(AllocConfig::paper_default()),
            kind,
        };
        assert!(e.is_miscompile());
        let s = e.to_string();
        assert!(
            s.contains("AllocConfig") && s.contains("engines disagree on stats"),
            "{s}"
        );
        let failed = Err(lesgs_vm::VmError::new("boom"));
        assert!(matches!(
            engine_mismatch(&Ok(outcome), &failed),
            Some(DiffKind::EngineMismatch { what: "result", .. })
        ));
        assert_eq!(engine_mismatch(&failed, &failed.clone()), None);
    }

    #[test]
    fn compile_error_reported() {
        assert!(compile("(unbound-fn 1)", &CompilerConfig::default()).is_err());
        assert!(compile("(((", &CompilerConfig::default()).is_err());
    }

    #[test]
    fn runtime_error_reported() {
        let cfg = CompilerConfig::default();
        let e = compile("(car 5)", &cfg).unwrap().run(&cfg).unwrap_err();
        assert!(e.message.contains("pair"), "{e}");
    }

    #[test]
    fn phase_spans_and_alloc_fraction_recorded() {
        let mut reg = Registry::new();
        compile_observed(
            "(define (f x) (+ x 1)) (f 1)",
            &CompilerConfig::default(),
            &mut reg,
        )
        .unwrap();
        for phase in ["phase.frontend", "phase.alloc", "phase.codegen"] {
            let span = reg.histogram(&format!("{phase}.wall_ns"));
            assert_eq!(span.map(|h| h.count), Some(1), "{phase}");
        }
        let fraction = reg.gauge("compile.alloc_fraction").unwrap();
        assert!((0.0..=1.0).contains(&fraction), "{fraction}");
    }

    /// A plain compile passes a discarding registry to the same code;
    /// what it emits must not depend on that.
    #[test]
    fn plain_and_observed_compiles_emit_the_same_code() {
        let src = "(define (sum lst) (if (null? lst) 0 (+ (car lst) (sum (cdr lst)))))
                   (define (f a) (let loop ((i 0)) (if (= i a) i (loop (+ i 1)))))
                   (display (f 3)) (sum '(1 2 3))";
        for config in [
            CompilerConfig::default(),
            CompilerConfig {
                lambda_lift: true,
                no_peephole: true,
                no_fold: true,
                ..CompilerConfig::default()
            },
        ] {
            let plain = compile(src, &config).unwrap();
            let mut reg = Registry::new();
            let observed = compile_observed(src, &config, &mut reg).unwrap();
            assert_eq!(plain.vm.disassemble(), observed.vm.disassemble());
            assert_eq!(format!("{:?}", plain.vm), format!("{:?}", observed.vm));
            assert!(reg.counter("codegen.instrs") > 0);
        }
    }

    /// The instrument names one observed compile records (values vary
    /// with the program; the names do not).
    #[test]
    fn an_observed_compile_records_the_documented_names() {
        let mut reg = Registry::new();
        compile_observed(
            "(define (f x) (+ x 1)) (f 1)",
            &CompilerConfig::default(),
            &mut reg,
        )
        .unwrap();
        let counters: Vec<&str> = reg.counters().map(|(k, _)| k).collect();
        let gauges: Vec<&str> = reg.gauges().map(|(k, _)| k).collect();
        let histograms: Vec<&str> = reg.histograms().map(|(k, _)| k).collect();
        assert_eq!(
            counters,
            [
                "alloc.call_sites",
                "alloc.cycle_sites",
                "alloc.greedy_optimal_sites",
                "alloc.optimal_temps",
                "alloc.restored_regs",
                "alloc.save_sites",
                "alloc.saved_regs",
                "alloc.shuffle_temps",
                "codegen.funcs",
                "codegen.instrs",
                "codegen.instrs_emitted",
                "codegen.instrs_removed",
                "frontend.ast_nodes_in",
                "frontend.ast_nodes_out",
                "frontend.funcs",
                "ir.funcs",
                "ir.nodes",
                "ir.nodes_final",
            ]
        );
        assert_eq!(
            gauges,
            [
                "alloc.cycle_fraction",
                "alloc.optimal_fraction",
                "compile.alloc_fraction",
            ]
        );
        assert_eq!(
            histograms,
            [
                "pass.assignconv.wall_ns",
                "pass.closure.wall_ns",
                "pass.emit.wall_ns",
                "pass.fold.wall_ns",
                "pass.homes.wall_ns",
                "pass.parse.wall_ns",
                "pass.pass2.wall_ns",
                "pass.peephole.wall_ns",
                "pass.read.wall_ns",
                "pass.rename.wall_ns",
                "pass.savep.wall_ns",
                "phase.alloc.wall_ns",
                "phase.codegen.wall_ns",
                "phase.frontend.wall_ns",
            ]
        );
    }

    #[test]
    fn lambda_lifting_preserves_semantics() {
        let programs = [
            "(define (f a) (let loop ((i 0)) (if (= i a) i (loop (+ i 1))))) (f 9)",
            "(define (f a b)
               (let loop ((i 0) (acc 0))
                 (if (= i a) acc (loop (+ i 1) (+ acc (* b i))))))
             (f 5 2)",
            "(define (g x) (* x 3))
             (define (f a)
               (letrec ((even2? (lambda (n) (if (zero? n) (g a) (odd2? (- n 1)))))
                        (odd2? (lambda (n) (even2? (- n 1)))))
                 (even2? 6)))
             (f 7)",
            "(map (lambda (x) (let loop ((i x)) (if (zero? i) x (loop (- i 1)))))
                  '(1 2 3))",
        ];
        for src in programs {
            let oracle = lesgs_interp::run_source(src, 10_000_000).unwrap();
            for alloc in config_matrix() {
                let cfg = CompilerConfig {
                    alloc,
                    lambda_lift: true,
                    poison: true,
                    ..CompilerConfig::default()
                };
                let out = compile(src, &cfg)
                    .unwrap_or_else(|e| panic!("{alloc:?}: {e}\n{src}"))
                    .run(&cfg)
                    .unwrap_or_else(|e| panic!("{alloc:?}: {e}\n{src}"));
                assert_eq!(out.value, oracle.value, "{alloc:?}\n{src}");
            }
        }
    }

    #[test]
    fn lambda_lifting_removes_closures() {
        let src = "(define (f a) (let loop ((i 0)) (if (= i a) i (loop (+ i 1))))) (f 50)";
        let run = |cfg: CompilerConfig| compile(src, &cfg).unwrap().run(&cfg).unwrap();
        let plain = run(CompilerConfig::default());
        let lifted = run(CompilerConfig {
            lambda_lift: true,
            ..CompilerConfig::default()
        });
        assert_eq!(plain.value, lifted.value);
        assert!(
            lifted.stats.closures_allocated < plain.stats.closures_allocated,
            "lifting must eliminate the loop closure: {} vs {}",
            lifted.stats.closures_allocated,
            plain.stats.closures_allocated
        );
    }

    #[test]
    fn shared_prefix_compiles_identical_bytecode_per_config() {
        // The differential driver compiles the config-independent
        // prefix once per program; the result must be bit-for-bit the
        // bytecode the old per-config full compile produced, for every
        // configuration of the matrix.
        let src = "(define (tak x y z)
                     (if (not (< y x)) z
                         (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))))
                   (define (sum lst) (if (null? lst) 0 (+ (car lst) (sum (cdr lst)))))
                   (display (tak 6 3 1)) (sum '(1 2 3 4 5))";
        let front =
            compile_front_observed(src, &CompilerConfig::default(), &mut Registry::new()).unwrap();
        for alloc in config_matrix() {
            let config = CompilerConfig {
                alloc,
                poison: true,
                ..CompilerConfig::default()
            };
            let whole = compile(src, &config).unwrap();
            let split = compile_back_observed(&front, &config, &mut Registry::new());
            assert_eq!(
                whole.vm.disassemble(),
                split.vm.disassemble(),
                "{alloc:?}: split compile diverged"
            );
            assert_eq!(
                format!("{:?}", whole.vm),
                format!("{:?}", split.vm),
                "{alloc:?}: constants/entry diverged"
            );
        }
    }

    #[test]
    fn differential_verdicts_on_clean_timeout_and_deep_programs() {
        // A clean program is Ok.
        let ok = "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 9)";
        differential_check(ok, &config_matrix(), 10_000_000).unwrap();

        // An oracle timeout is FuelExhausted with no config.
        let spin = "(define (spin) (spin)) (spin)";
        let e = differential_check(spin, &config_matrix(), 10_000).unwrap_err();
        assert_eq!(e.kind, DiffKind::FuelExhausted, "{e}");
        assert!(e.config.is_none());

        // 800 nested non-tail additions: a caller on an ordinary test
        // thread must still answer Ok. Two configurations keep the
        // unoptimized build fast.
        let deep = format!(
            "(define (f x) {}x{}) (f 0)",
            "(+ 1 ".repeat(800),
            ")".repeat(800)
        );
        differential_check(&deep, &config_matrix()[..2], 10_000_000).unwrap();
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        for _ in 0..3 {
            let err =
                std::panic::catch_unwind(|| on_deep_stack(|| -> u32 { panic!("deliberate") }))
                    .unwrap_err();
            let msg = err
                .downcast_ref::<&str>()
                .copied()
                .map(str::to_owned)
                .or_else(|| err.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(msg.contains("deliberate"), "{msg}");
            // The helper still works after a panic.
            assert_eq!(on_deep_stack(|| 42), 42);
        }
    }

    #[test]
    fn verifier_passes_on_compiled_programs() {
        let compiled = compile(
            "(define (tak x y z)
               (if (not (< y x)) z
                   (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))))
             (tak 12 6 3)",
            &CompilerConfig::default(),
        )
        .unwrap();
        let errors = lesgs_core::verify::verify_program(&compiled.allocated);
        assert!(errors.is_empty(), "{errors:?}");
    }
}
