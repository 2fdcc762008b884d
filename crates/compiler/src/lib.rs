//! The end-to-end lesgs compiler driver.
//!
//! Ties the pipeline together — reader → frontend → closure conversion
//! → IR → register allocation → code generation → VM — under a single
//! [`CompilerConfig`], and provides the differential-testing entry
//! points used throughout the test suite.
//!
//! # Examples
//!
//! ```
//! use lesgs_compiler::{compile, run_source, CompilerConfig};
//!
//! let cfg = CompilerConfig::default();
//! let out = run_source("(define (sq x) (* x x)) (sq 7)", &cfg).unwrap();
//! assert_eq!(out.value, "49");
//!
//! let compiled = compile("(+ 1 2)", &cfg).unwrap();
//! assert!(compiled.vm.code_size() > 0);
//! ```

use lesgs_core::{driver::allocate_program_observed, AllocConfig, AllocatedProgram};
use lesgs_frontend::pipeline;
use lesgs_ir::Program;
use lesgs_metrics::{ratio, Registry};
use lesgs_vm::{CostModel, DecodedProgram, Machine, VmOutcome, VmProgram};

/// Complete compiler + execution configuration.
#[derive(Debug, Clone, Copy, Default)]
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
    /// The pre-decoded form the dispatch loop executes (built once at
    /// compile time; every [`Compiled::run`] reuses it).
    pub decoded: DecodedProgram,
}

impl Compiled {
    /// Runs the compiled program.
    ///
    /// # Errors
    ///
    /// VM runtime errors or budget exhaustion.
    pub fn run(&self, config: &CompilerConfig) -> Result<VmOutcome, lesgs_vm::VmError> {
        let mut m = Machine::from_decoded(&self.decoded, config.cost)
            .with_poison(config.poison)
            .with_trace(config.trace);
        if config.fuel > 0 {
            m = m.with_fuel(config.fuel);
        }
        m.run()
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
    reg.inc(
        "ir.nodes",
        ir.funcs.iter().map(|f| f.body.size()).sum::<usize>() as u64,
    );
    if !config.no_fold {
        reg.time("pass.fold", || lesgs_ir::fold::fold_program(&mut ir));
    }
    reg.inc(
        "ir.nodes_final",
        ir.funcs.iter().map(|f| f.body.size()).sum::<usize>() as u64,
    );
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

    // Pre-decode for the dispatch loop. The vm.dispatch.* counters are
    // *static* load-time facts (source instructions, decoded ops) —
    // run-time vm.* counters keep their pre-decoding key set untouched.
    let decode_span = reg.start_span("vm.dispatch.decode");
    let decoded = DecodedProgram::decode(&vm);
    reg.end_span(decode_span);
    decoded.stats().record(reg);

    // Allocation's share of the compile time in this registry's spans
    // (the paper's §4 "7%").
    let ns = phase_ns(reg);
    reg.set_gauge("compile.alloc_fraction", ratio(ns[1], ns.iter().sum(), 0.0));
    Compiled {
        allocated,
        vm,
        decoded,
    }
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
/// same code with a throwaway registry. It is literally
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
    compile_observed(src, config, &mut Registry::new())
}

/// Compiles and runs `src`.
///
/// # Errors
///
/// Compile errors or VM runtime errors (both stringified).
pub fn run_source(src: &str, config: &CompilerConfig) -> Result<VmOutcome, CompileError> {
    let compiled = compile(src, config)?;
    compiled.run(config).map_err(|e| CompileError {
        message: e.to_string(),
    })
}

/// The failure class of a [`differential_check_detailed`] run.
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

/// A [`differential_check_detailed`] failure: what went wrong, and under
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

/// Runs `src` through the reference interpreter and through the
/// compiler under every given allocator configuration, checking that
/// the bytecode verifies ([`lesgs_vm::verify_bytecode`]) and that
/// value and output agree everywhere — reporting failures as structured
/// [`DiffFailure`]s so drivers can distinguish timeouts from
/// miscompiles.
///
/// # Errors
///
/// Returns the first failure, tagged with the offending configuration.
pub fn differential_check_detailed(
    src: &str,
    configs: &[AllocConfig],
    fuel: u64,
) -> Result<(), DiffFailure> {
    differential_check_parallel(src, configs, fuel, 1)
}

/// Runs the oracle, then judges one already-compiled configuration
/// against it.
fn judge_config(
    front: &Program,
    oracle: &lesgs_interp::Outcome,
    alloc: &AllocConfig,
    fuel: u64,
) -> Result<(), DiffFailure> {
    let fail = |kind: DiffKind| DiffFailure {
        config: Some(*alloc),
        kind,
    };
    let config = CompilerConfig {
        alloc: *alloc,
        poison: true,
        fuel,
        ..CompilerConfig::default()
    };
    let compiled = compile_back_observed(front, &config, &mut Registry::new());
    let verify_errors = lesgs_vm::verify_bytecode(&compiled.vm);
    if !verify_errors.is_empty() {
        return Err(fail(DiffKind::VerifyFailed {
            errors: verify_errors.iter().map(ToString::to_string).collect(),
        }));
    }
    let out = compiled.run(&config).map_err(|e| {
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

/// [`differential_check_detailed`] with the configuration matrix
/// fanned out over a `lesgs-exec` worker pool. The verdict is
/// **deterministic and identical to the sequential check**: the
/// reported failure is always the first one in matrix order, no
/// matter which configuration finished first. `jobs <= 1` runs the
/// plain sequential loop (which also short-circuits at the first
/// failure instead of finishing the matrix).
///
/// The whole check — frontend, every configuration and the oracle —
/// runs on stacks of [`lesgs_interp::wide_stack_bytes`], so a deeply
/// nested program gets the same verdict at every job count and from
/// every calling thread. A caller already on a marked wide-stack
/// thread runs it inline.
///
/// # Errors
///
/// Returns the first failure in matrix order, tagged with the
/// offending configuration.
pub fn differential_check_parallel(
    src: &str,
    configs: &[AllocConfig],
    fuel: u64,
    jobs: usize,
) -> Result<(), DiffFailure> {
    let (src, configs) = (src.to_owned(), configs.to_vec());
    lesgs_interp::on_wide_stack(move || check_on_wide_stack(&src, &configs, fuel, jobs))
}

/// [`differential_check_parallel`]'s body, on a marked wide-stack
/// thread.
fn check_on_wide_stack(
    src: &str,
    configs: &[AllocConfig],
    fuel: u64,
    jobs: usize,
) -> Result<(), DiffFailure> {
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
    let front = match compile_front_observed(src, &CompilerConfig::default(), &mut Registry::new())
    {
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
    if jobs <= 1 {
        for alloc in configs {
            judge_config(&front, &oracle, alloc, fuel)?;
        }
        return Ok(());
    }
    let pool = lesgs_exec::PoolConfig {
        workers: jobs,
        stack_bytes: lesgs_interp::wide_stack_bytes(),
        name: "lesgs-diff".to_owned(),
        worker_init: Some(lesgs_interp::mark_wide_stack),
    };
    let out = lesgs_exec::map_ordered(&pool, configs.to_vec(), |_i, alloc| {
        judge_config(&front, &oracle, &alloc, fuel)
    });
    for (alloc, result) in configs.iter().zip(out.results) {
        // A panic inside a configuration's compile/run is a compiler
        // bug; re-raise it on the caller like the sequential loop
        // would, now labelled with the configuration.
        result.unwrap_or_else(|p| panic!("{alloc:?}: {p}"))?;
    }
    Ok(())
}

/// [`differential_check_detailed`] with failures rendered to strings
/// (the historical interface most tests use).
///
/// # Errors
///
/// Returns a description of the first disagreement or failure,
/// including the offending [`AllocConfig`]; fuel exhaustion is
/// explicitly marked as a timeout rather than a mismatch.
pub fn differential_check(src: &str, configs: &[AllocConfig], fuel: u64) -> Result<(), String> {
    differential_check_detailed(src, configs, fuel).map_err(|e| e.to_string())
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
        let out = run_source("(+ 40 2)", &CompilerConfig::default()).unwrap();
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
        let e = differential_check_detailed(src, &config_matrix(), 10_000).unwrap_err();
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
            match differential_check_detailed(src, std::slice::from_ref(&cfg), fuel) {
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

    #[test]
    fn compile_error_reported() {
        assert!(compile("(unbound-fn 1)", &CompilerConfig::default()).is_err());
        assert!(compile("(((", &CompilerConfig::default()).is_err());
    }

    #[test]
    fn runtime_error_reported() {
        let e = run_source("(car 5)", &CompilerConfig::default()).unwrap_err();
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
                let out = run_source(src, &cfg).unwrap_or_else(|e| panic!("{alloc:?}: {e}\n{src}"));
                assert_eq!(out.value, oracle.value, "{alloc:?}\n{src}");
            }
        }
    }

    #[test]
    fn lambda_lifting_removes_closures() {
        let src = "(define (f a) (let loop ((i 0)) (if (= i a) i (loop (+ i 1))))) (f 50)";
        let plain = run_source(src, &CompilerConfig::default()).unwrap();
        let lifted = run_source(
            src,
            &CompilerConfig {
                lambda_lift: true,
                ..CompilerConfig::default()
            },
        )
        .unwrap();
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
    fn parallel_differential_matches_sequential_verdicts() {
        // A clean program: both agree on Ok.
        let ok = "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 9)";
        differential_check_parallel(ok, &config_matrix(), 10_000_000, 4).unwrap();

        // An oracle timeout: both report FuelExhausted with no config.
        let spin = "(define (spin) (spin)) (spin)";
        let seq = differential_check_detailed(spin, &config_matrix(), 10_000).unwrap_err();
        let par = differential_check_parallel(spin, &config_matrix(), 10_000, 4).unwrap_err();
        assert_eq!(format!("{seq:?}"), format!("{par:?}"));

        // 800 nested non-tail additions: every job count, and a caller
        // on an ordinary test thread, must still answer Ok. Two
        // configurations keep the unoptimized build fast.
        let deep = format!(
            "(define (f x) {}x{}) (f 0)",
            "(+ 1 ".repeat(800),
            ")".repeat(800)
        );
        let pair = &config_matrix()[..2];
        differential_check_detailed(&deep, pair, 10_000_000).unwrap();
        differential_check_parallel(&deep, pair, 10_000_000, 2).unwrap();
    }

    #[test]
    fn parallel_differential_reports_first_failure_in_matrix_order() {
        // Pick a budget where the oracle finishes but the VM times out
        // under at least one configuration; the parallel check must
        // then name exactly the configuration the sequential
        // short-circuiting loop names, regardless of completion order.
        let src = "(define (f a b c d e g) (+ a b c d e g))
                   (+ (f 1 2 3 4 5 6) (f 6 5 4 3 2 1))";
        let matrix = config_matrix();
        let mut compared = 0;
        for fuel in (50..2_000u64).step_by(50) {
            let seq = differential_check_detailed(src, &matrix, fuel);
            let par = differential_check_parallel(src, &matrix, fuel, 4);
            match (seq, par) {
                (Ok(()), Ok(())) => break,
                (Err(a), Err(b)) => {
                    assert_eq!(format!("{a:?}"), format!("{b:?}"), "fuel {fuel}");
                    compared += 1;
                }
                (a, b) => panic!("fuel {fuel}: sequential {a:?} vs parallel {b:?}"),
            }
        }
        assert!(compared > 0, "no budget produced a failure to compare");
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
