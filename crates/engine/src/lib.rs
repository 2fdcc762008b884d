#![warn(missing_docs)]
//! The embeddable engine facade.
//!
//! Everything the rest of the workspace (and an embedding
//! application) needs from the compiler pipeline behind three calls:
//!
//! * [`Engine::compile`] — source text to a [`CompiledProgram`],
//! * [`Engine::execute`] — run a compiled program as many times as
//!   you like,
//! * [`Engine::emit_program`] / [`Engine::load_program`] — the same
//!   program as a versioned `.lbc` byte stream (see [`bytecode`] and
//!   `BYTECODE.md`), so compilation can be cached, persisted, and
//!   shipped instead of repeated per run.
//!
//! Loading re-runs the bytecode verifier before anything executes:
//! a blob is either rejected with a typed [`BytecodeLoadError`] or
//! behaves exactly like the freshly compiled program it round-trips
//! — same value, same output, same [`RunStats`].
//!
//! ```
//! use lesgs_engine::Engine;
//!
//! let engine = Engine::new();
//! let program = engine.compile("(+ 1 2)").unwrap();
//! let direct = engine.execute(&program).unwrap();
//!
//! let blob = program.to_bytes();
//! let loaded = engine.load_program(&blob).unwrap();
//! assert_eq!(engine.execute(&loaded).unwrap(), direct);
//! ```

pub mod bytecode;

pub use bytecode::{
    config_fingerprint, deserialize_program, fnv1a64, serialize_program, BytecodeLoadError,
    FORMAT_VERSION, MAGIC,
};
pub use lesgs_compiler::{CompileError, CompilerConfig};
pub use lesgs_core::AllocConfig;
pub use lesgs_vm::{RunStats, VmError, VmOutcome, VmProgram};

/// A compiled, linked program — the unit the engine executes, caches,
/// and serializes.
///
/// Construction always goes through [`Engine::compile`] or
/// [`Engine::load_program`], both of which leave the program verified:
/// the fields are read-only by design.
#[derive(Debug)]
pub struct CompiledProgram {
    vm: VmProgram,
    alloc: AllocConfig,
}

impl CompiledProgram {
    /// The linked VM program, which is also what the VM executes.
    pub fn vm(&self) -> &VmProgram {
        &self.vm
    }

    /// The allocator configuration that produced this program (for a
    /// loaded program: the one recorded in the blob's header).
    pub fn alloc(&self) -> &AllocConfig {
        &self.alloc
    }

    /// Total instruction count across all functions.
    pub fn code_size(&self) -> usize {
        self.vm.code_size()
    }

    /// Renders the program as annotated assembly.
    pub fn disassemble(&self) -> String {
        self.vm.disassemble()
    }

    /// Serializes the program (and its allocator configuration) into
    /// the versioned `.lbc` byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        serialize_program(&self.vm, &self.alloc)
    }
}

/// Any way an engine call can fail, one variant per pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The source program did not compile.
    Compile(CompileError),
    /// The program compiled (or loaded) but failed at run time.
    Vm(VmError),
    /// A serialized blob was rejected — wrong format, corrupt, or
    /// failed verification.
    Load(BytecodeLoadError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Compile(e) => write!(f, "{e}"),
            EngineError::Vm(e) => write!(f, "{e}"),
            EngineError::Load(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CompileError> for EngineError {
    fn from(e: CompileError) -> EngineError {
        EngineError::Compile(e)
    }
}

impl From<VmError> for EngineError {
    fn from(e: VmError) -> EngineError {
        EngineError::Vm(e)
    }
}

impl From<BytecodeLoadError> for EngineError {
    fn from(e: BytecodeLoadError) -> EngineError {
        EngineError::Load(e)
    }
}

/// The facade: a compiler configuration plus the operations above.
///
/// Cheap to construct and freely shareable across threads (it holds
/// only configuration); compiled programs are likewise `Send + Sync`,
/// so one engine can compile once and execute from many workers.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    config: CompilerConfig,
}

impl Engine {
    /// An engine with the paper's headline configuration (lazy saves,
    /// eager restores, greedy shuffling, six argument registers).
    pub fn new() -> Engine {
        Engine::default()
    }

    /// An engine with an explicit compiler configuration.
    pub fn with_config(config: CompilerConfig) -> Engine {
        Engine { config }
    }

    /// The engine's compiler configuration.
    pub fn config(&self) -> &CompilerConfig {
        &self.config
    }

    /// Compiles source text into an executable [`CompiledProgram`].
    ///
    /// # Errors
    ///
    /// [`EngineError::Compile`] on reader or frontend failure.
    pub fn compile(&self, source: &str) -> Result<CompiledProgram, EngineError> {
        let compiled = lesgs_compiler::compile(source, &self.config)?;
        Ok(CompiledProgram {
            vm: compiled.vm,
            alloc: self.config.alloc,
        })
    }

    /// Executes a compiled program under the engine's cost model,
    /// fuel budget, and tracing flags.
    ///
    /// # Errors
    ///
    /// [`EngineError::Vm`] on runtime errors or budget exhaustion.
    pub fn execute(&self, program: &CompiledProgram) -> Result<VmOutcome, EngineError> {
        Ok(self.config.machine(&program.vm).run()?)
    }

    /// Compiles and executes in one step.
    ///
    /// # Errors
    ///
    /// Either stage's error, typed.
    pub fn run(&self, source: &str) -> Result<VmOutcome, EngineError> {
        let program = self.compile(source)?;
        self.execute(&program)
    }

    /// Compiles source text straight to serialized `.lbc` bytes.
    ///
    /// # Errors
    ///
    /// [`EngineError::Compile`] on compile failure.
    pub fn emit_program(&self, source: &str) -> Result<Vec<u8>, EngineError> {
        Ok(self.compile(source)?.to_bytes())
    }

    /// Loads a serialized program: deserialize and **re-verify**.
    ///
    /// The returned program carries the allocator configuration from
    /// the blob's header; execution still uses this engine's cost
    /// model and fuel budget.
    ///
    /// # Errors
    ///
    /// [`EngineError::Load`] if the blob has the wrong magic or
    /// version, is truncated or corrupt, fails its checksum, or —
    /// even when structurally well-formed — fails the bytecode
    /// verifier.
    pub fn load_program(&self, bytes: &[u8]) -> Result<CompiledProgram, EngineError> {
        let (vm, alloc) = deserialize_program(bytes)?;
        let errors = lesgs_vm::verify_bytecode(&vm);
        if !errors.is_empty() {
            return Err(BytecodeLoadError::VerifyFailed {
                errors: errors.iter().map(|e| e.to_string()).collect(),
            }
            .into());
        }
        Ok(CompiledProgram { vm, alloc })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lesgs_frontend::FuncId;
    use lesgs_ir::machine::{CP, RV};
    use lesgs_ir::Reg;
    use lesgs_vm::{CallTarget, Instr, VmFunc};

    #[test]
    fn compile_execute_matches_run_source() {
        let engine = Engine::new();
        let program = engine.compile("(define (f x) (* x x)) (f 9)").unwrap();
        let out = engine.execute(&program).unwrap();
        assert_eq!(out.value, "81");
        let direct = lesgs_compiler::compile("(define (f x) (* x x)) (f 9)", engine.config())
            .unwrap()
            .run(engine.config())
            .unwrap();
        assert_eq!(out, direct);
    }

    #[test]
    fn execute_is_repeatable() {
        let engine = Engine::new();
        let program = engine
            .compile("(let loop ((i 0)) (if (= i 100) i (loop (+ i 1))))")
            .unwrap();
        let a = engine.execute(&program).unwrap();
        let b = engine.execute(&program).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn compile_errors_are_typed() {
        match Engine::new().run("(undefined-variable)") {
            Err(EngineError::Compile(_)) => {}
            other => panic!("expected compile error, got {other:?}"),
        }
    }

    #[test]
    fn runtime_errors_are_typed() {
        match Engine::new().run("(car 5)") {
            Err(EngineError::Vm(_)) => {}
            other => panic!("expected vm error, got {other:?}"),
        }
    }

    #[test]
    fn emit_then_load_round_trips() {
        let engine = Engine::new();
        let blob = engine.emit_program("(display (+ 20 22))").unwrap();
        let loaded = engine.load_program(&blob).unwrap();
        assert_eq!(loaded.alloc(), &engine.config().alloc);
        let out = engine.execute(&loaded).unwrap();
        assert_eq!(out.output, "42");
    }

    #[test]
    fn load_reverifies_and_rejects_malformed_programs() {
        // A structurally valid stream whose program fails the bytecode
        // verifier: a jump past the end of the function.
        let vm = VmProgram {
            funcs: vec![VmFunc {
                id: FuncId(0),
                name: "main".into(),
                code: vec![Instr::Jump { target: 99 }, Instr::Halt],
                frame_size: 0,
                n_incoming: 0,
                syntactic_leaf: true,
                call_inevitable: false,
            }],
            entry: FuncId(0),
            constants: vec![],
            n_globals: 0,
        };
        let blob = serialize_program(&vm, &AllocConfig::paper_default());
        match Engine::new().load_program(&blob) {
            Err(EngineError::Load(BytecodeLoadError::VerifyFailed { errors })) => {
                assert!(!errors.is_empty());
            }
            other => panic!("expected verify failure, got {other:?}"),
        }
        // And a constant index outside the (empty) pool, to show the
        // check is against program tables, not just instruction shape.
        let vm = VmProgram {
            funcs: vec![VmFunc {
                id: FuncId(0),
                name: "main".into(),
                code: vec![
                    Instr::LoadConst {
                        dst: Reg(3),
                        idx: 5,
                    },
                    Instr::Halt,
                ],
                frame_size: 0,
                n_incoming: 0,
                syntactic_leaf: true,
                call_inevitable: false,
            }],
            entry: FuncId(0),
            constants: vec![],
            n_globals: 0,
        };
        let blob = serialize_program(&vm, &AllocConfig::paper_default());
        assert!(matches!(
            Engine::new().load_program(&blob),
            Err(EngineError::Load(BytecodeLoadError::VerifyFailed { .. }))
        ));
    }

    /// A frame header whose incoming parameters do not fit in the
    /// frame is rejected on load; run with poisoning, such a program
    /// would slice the stack out of order.
    #[test]
    fn load_rejects_incoming_parameters_outside_the_frame() {
        let engine = Engine::with_config(CompilerConfig {
            poison: true,
            ..CompilerConfig::default()
        });
        let program = engine
            .compile("(define (f a b c d e f g h) (+ a h)) (+ 1 (f 1 2 3 4 5 6 7 8))")
            .expect("program compiles");
        let mut vm = program.vm().clone();
        let f = vm
            .funcs
            .iter_mut()
            .find(|f| f.name == "f")
            .expect("f exists");
        assert_eq!(f.n_incoming, 2, "two of f's parameters are stack-passed");
        f.frame_size = 0;
        let blob = serialize_program(&vm, program.alloc());
        match engine.load_program(&blob) {
            Err(EngineError::Load(BytecodeLoadError::VerifyFailed { errors })) => {
                assert!(
                    errors
                        .iter()
                        .any(|e| e.starts_with("bytecode error [slot-out-of-bounds] at f+0:")),
                    "{errors:?}"
                );
            }
            other => panic!("expected verify failure, got {other:?}"),
        }
    }

    /// A free-variable slot past the closure's end passes the verifier,
    /// which cannot know which closure `cp` holds; a loaded blob that
    /// reads one must fail with a typed error, not panic the engine.
    #[test]
    fn loaded_out_of_range_closure_slot_is_a_vm_error() {
        let f = VmFunc {
            id: FuncId(0),
            name: "f".into(),
            code: vec![Instr::LoadFree { dst: RV, index: 3 }, Instr::Return],
            frame_size: 0,
            n_incoming: 0,
            syntactic_leaf: true,
            call_inevitable: false,
        };
        let entry = VmFunc {
            id: FuncId(1),
            name: "entry".into(),
            code: vec![
                Instr::AllocClosure {
                    dst: CP,
                    func: FuncId(0),
                    n_free: 0,
                },
                Instr::Call {
                    target: CallTarget::ClosureCp,
                    frame_advance: 0,
                },
                Instr::Halt,
            ],
            frame_size: 0,
            n_incoming: 0,
            syntactic_leaf: false,
            call_inevitable: true,
        };
        let vm = VmProgram {
            funcs: vec![f, entry],
            entry: FuncId(1),
            constants: vec![],
            n_globals: 0,
        };
        let engine = Engine::new();
        let blob = serialize_program(&vm, &AllocConfig::paper_default());
        let loaded = engine.load_program(&blob).expect("the verifier accepts it");
        match engine.execute(&loaded) {
            Err(EngineError::Vm(e)) => {
                assert_eq!(e.message, "closure slot 3 out of range (the closure has 0)");
                assert_eq!(e.at, Some(("f".into(), 1)));
            }
            other => panic!("expected a vm error, got {other:?}"),
        }
    }
}
