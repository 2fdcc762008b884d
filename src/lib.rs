//! # lesgs — Register Allocation Using Lazy Saves, Eager Restores, and Greedy Shuffling
//!
//! A from-scratch Rust reproduction of Burger, Waddell & Dybvig
//! (PLDI '95): the linear intraprocedural register allocation strategy
//! used by Chez Scheme, together with everything needed to evaluate it —
//! a mini-Scheme compiler, a reference interpreter, an instrumented
//! register-machine VM with a memory-latency cost model, the Gabriel-
//! style benchmark suite, and harnesses regenerating every table and
//! figure in the paper.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`sexpr`] | `lesgs-sexpr` | S-expression reader/printer |
//! | [`frontend`] | `lesgs-frontend` | desugaring, renaming, assignment & closure conversion |
//! | [`interp`] | `lesgs-interp` | reference interpreter (differential oracle) |
//! | [`ir`] | `lesgs-ir` | allocator IR, register sets, machine model |
//! | [`allocator`] | `lesgs-core` | **the paper's contribution**: lazy saves, eager restores, greedy shuffling |
//! | [`codegen`] | `lesgs-codegen` | IR → VM code |
//! | [`vm`] | `lesgs-vm` | instrumented virtual machine |
//! | [`compiler`] | `lesgs-compiler` | end-to-end driver |
//! | [`engine`] | `lesgs-engine` | embeddable facade: compile, execute, versioned `.lbc` serialization |
//! | [`svc`] | `lesgs-svc` | batch compile-and-run service with a program cache keyed by source text |
//! | [`metrics`] | `lesgs-metrics` | metrics registry, span timing, JSON reports |
//! | [`suite`] | `lesgs-suite` | benchmarks and experiment machinery |
//! | [`exec`] | `lesgs-exec` | deterministic worker pool behind every `--jobs` flag |
//! | [`fuzz`] | `lesgs-fuzz` | generative differential fuzzing: generator, oracle, shrinker |
//!
//! # Quick start
//!
//! The [`engine`] facade is the front door: compile once, execute
//! many times, and serialize compiled programs to the versioned
//! `.lbc` format (specified in `BYTECODE.md`):
//!
//! ```
//! use lesgs::engine::Engine;
//!
//! let engine = Engine::new();
//! let program = engine.compile("(+ 40 2)").unwrap();
//! let blob = program.to_bytes();                  // versioned .lbc bytes
//! let loaded = engine.load_program(&blob).unwrap(); // verified on load
//! assert_eq!(engine.execute(&loaded).unwrap().value, "42");
//! ```
//!
//! Every run is fully instrumented:
//!
//! ```
//! use lesgs::engine::Engine;
//!
//! let out = Engine::new()
//!     .run("(define (fact n) (if (zero? n) 1 (* n (fact (- n 1))))) (fact 10)")
//!     .unwrap();
//! assert_eq!(out.value, "3628800");
//! assert!(out.stats.saves() > 0);
//! assert!(out.stats.effective_leaf_fraction() > 0.0);
//! ```
//!
//! # Comparing save strategies
//!
//! ```
//! use lesgs::allocator::{AllocConfig, SaveStrategy};
//! use lesgs::compiler::CompilerConfig;
//! use lesgs::engine::Engine;
//!
//! let src = "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 12)";
//! let run = |save| {
//!     let cfg = CompilerConfig::with_alloc(AllocConfig { save, ..AllocConfig::default() });
//!     Engine::with_config(cfg).run(src).unwrap().stats
//! };
//! let lazy = run(SaveStrategy::Lazy);
//! let early = run(SaveStrategy::Early);
//! // Lazy placement executes fewer save stores than saving at entry.
//! assert!(lazy.saves() < early.saves());
//! ```

pub use lesgs_codegen as codegen;
pub use lesgs_compiler as compiler;
pub use lesgs_core as allocator;
pub use lesgs_engine as engine;
pub use lesgs_exec as exec;
pub use lesgs_frontend as frontend;
pub use lesgs_fuzz as fuzz;
pub use lesgs_interp as interp;
pub use lesgs_ir as ir;
pub use lesgs_metrics as metrics;
pub use lesgs_sexpr as sexpr;
pub use lesgs_suite as suite;
pub use lesgs_svc as svc;
pub use lesgs_vm as vm;
