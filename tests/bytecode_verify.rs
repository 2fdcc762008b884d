//! Mutation tests for the bytecode verifier: inject the classes of
//! bugs the save/restore machinery could realistically produce —
//! dropped restores, saves ordered past the call they protect,
//! corrupted frame offsets, skipped shuffle moves — and check that
//! [`verify_bytecode`] rejects each with the matching error variant.
//!
//! Each case first asserts the *unmutated* program verifies, so a
//! rejection really is caused by the injected bug.

use lesgs::allocator::{AllocConfig, SaveStrategy};
use lesgs::compiler::{compile, CompilerConfig};
use lesgs::engine::{
    deserialize_program, serialize_program, BytecodeLoadError, Engine, EngineError,
};
use lesgs::ir::machine::RET;
use lesgs::ir::MachineConfig;
use lesgs::vm::verify::{verify_bytecode, BytecodeError, BytecodeErrorKind};
use lesgs::vm::{Instr, SlotClass, VmProgram};

fn compiled_vm(src: &str, alloc: AllocConfig) -> VmProgram {
    let cfg = CompilerConfig {
        alloc,
        ..CompilerConfig::default()
    };
    let compiled = compile(src, &cfg).expect("test program compiles");
    let errors = verify_bytecode(&compiled.vm);
    assert!(
        errors.is_empty(),
        "unmutated program must verify, got: {}",
        render(&errors)
    );
    compiled.vm
}

fn render(errors: &[BytecodeError]) -> String {
    errors
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n")
}

fn kinds(errors: &[BytecodeError]) -> Vec<BytecodeErrorKind> {
    errors.iter().map(|e| e.kind).collect()
}

/// Index of the function named `name`.
fn func_index(vm: &VmProgram, name: &str) -> usize {
    vm.funcs
        .iter()
        .position(|f| f.name == name)
        .unwrap_or_else(|| panic!("no function named {name}"))
}

/// First pc in function `fi` whose instruction satisfies `pred`.
fn find_pc(vm: &VmProgram, fi: usize, pred: impl Fn(&Instr) -> bool) -> usize {
    vm.funcs[fi]
        .code
        .iter()
        .position(pred)
        .unwrap_or_else(|| panic!("expected instruction not found in {}", vm.funcs[fi].name))
}

/// `g` makes one non-tail call and returns: its `ret` is saved before
/// the call and restored after it.
const CALLER: &str = "
(define (h x) (* x 2))
(define (g x) (+ 1 (h x)))
(g 21)
";

/// Dropping the restore of `ret` leaves a clobbered return address at
/// the `return`.
#[test]
fn dropped_restore_is_rejected() {
    let mut vm = compiled_vm(CALLER, AllocConfig::paper_default());
    let g = func_index(&vm, "g");
    let pc = find_pc(
        &vm,
        g,
        |i| matches!(i, Instr::StackLoad { dst, class: SlotClass::Save, .. } if *dst == RET),
    );
    vm.funcs[g].code.remove(pc);
    let errors = verify_bytecode(&vm);
    assert!(
        kinds(&errors).contains(&BytecodeErrorKind::BadReturnAddress),
        "expected bad-return-address, got: {}",
        render(&errors)
    );
}

/// Moving the save of `ret` to after the call stores the *clobbered*
/// register — the save no longer protects anything.
#[test]
fn save_reordered_past_call_is_rejected() {
    // Late saves sit next to the call they protect; `g` is straight-
    // line code, so moving an instruction cannot invalidate branch
    // targets.
    let alloc = AllocConfig {
        save: SaveStrategy::Late,
        ..AllocConfig::paper_default()
    };
    let mut vm = compiled_vm(CALLER, alloc);
    let g = func_index(&vm, "g");
    let save = find_pc(
        &vm,
        g,
        |i| matches!(i, Instr::StackStore { src, class: SlotClass::Save, .. } if *src == RET),
    );
    let call = find_pc(&vm, g, |i| matches!(i, Instr::Call { .. }));
    assert!(save < call, "save must precede the call it protects");
    let instr = vm.funcs[g].code.remove(save);
    vm.funcs[g].code.insert(call, instr);
    let errors = verify_bytecode(&vm);
    assert!(
        kinds(&errors).contains(&BytecodeErrorKind::StaleRegister),
        "expected stale-register, got: {}",
        render(&errors)
    );
}

/// Corrupting a restore's frame offset to point outside the frame.
#[test]
fn corrupted_frame_offset_is_rejected() {
    let mut vm = compiled_vm(CALLER, AllocConfig::paper_default());
    let g = func_index(&vm, "g");
    let pc = find_pc(&vm, g, |i| {
        matches!(
            i,
            Instr::StackLoad {
                class: SlotClass::Save,
                ..
            }
        )
    });
    if let Instr::StackLoad { slot, .. } = &mut vm.funcs[g].code[pc] {
        *slot = 9999;
    }
    let errors = verify_bytecode(&vm);
    assert!(
        kinds(&errors).contains(&BytecodeErrorKind::SlotOutOfBounds),
        "expected slot-out-of-bounds, got: {}",
        render(&errors)
    );
}

/// Corrupting a restore's frame offset to another register's save slot:
/// the restore then reads back the wrong register's saved value.
#[test]
fn cross_register_restore_is_rejected() {
    // `b` is live across the call, so both `ret` and `b`'s argument
    // register get save slots.
    let src = "
(define (h x) (* x 2))
(define (g a b) (+ (h a) b))
(g 3 4)
";
    let mut vm = compiled_vm(src, AllocConfig::paper_default());
    let g = func_index(&vm, "g");
    let other_slot = {
        let pc = find_pc(&vm, g, |i| {
            matches!(i, Instr::StackStore { src, class: SlotClass::Save, .. }
                     if src.is_arg())
        });
        match vm.funcs[g].code[pc] {
            Instr::StackStore { slot, .. } => slot,
            _ => unreachable!(),
        }
    };
    let pc = find_pc(
        &vm,
        g,
        |i| matches!(i, Instr::StackLoad { dst, class: SlotClass::Save, .. } if *dst == RET),
    );
    if let Instr::StackLoad { slot, .. } = &mut vm.funcs[g].code[pc] {
        *slot = other_slot;
    }
    let errors = verify_bytecode(&vm);
    assert!(
        kinds(&errors).contains(&BytecodeErrorKind::RestoreMismatch),
        "expected restore-mismatch, got: {}",
        render(&errors)
    );
}

/// Skipping a shuffle move that places a stack-passed argument leaves
/// the callee's parameter slot unwritten.
#[test]
fn skipped_shuffle_move_is_rejected() {
    // Two argument registers force the third argument of `sum3` onto
    // the stack.
    let src = "
(define (sum3 a b c) (+ a (+ b c)))
(define (g p q r) (+ 1 (sum3 p q r)))
(g 1 2 3)
";
    let alloc = AllocConfig {
        machine: MachineConfig::with_arg_regs(2),
        ..AllocConfig::paper_default()
    };
    let mut vm = compiled_vm(src, alloc);
    let g = func_index(&vm, "g");
    let pc = find_pc(&vm, g, |i| {
        matches!(
            i,
            Instr::StackStore {
                class: SlotClass::OutArg,
                ..
            }
        )
    });
    vm.funcs[g].code.remove(pc);
    let errors = verify_bytecode(&vm);
    assert!(
        kinds(&errors).contains(&BytecodeErrorKind::MissingArg),
        "expected missing-arg, got: {}",
        render(&errors)
    );
}

/// A save with no call left to protect (the lazy-save property the
/// paper's analysis guarantees) is flagged as dead.
#[test]
fn dead_save_is_rejected() {
    let mut vm = compiled_vm(CALLER, AllocConfig::paper_default());
    let g = func_index(&vm, "g");
    // Redirect the call through a return: keep the instruction count
    // identical by replacing the call with a no-op move, leaving the
    // save of `ret` with nothing to protect.
    let call = find_pc(&vm, g, |i| matches!(i, Instr::Call { .. }));
    vm.funcs[g].code[call] = Instr::LoadImm {
        dst: lesgs::ir::machine::RV,
        imm: lesgs::vm::Imm::Fixnum(0),
    };
    let errors = verify_bytecode(&vm);
    assert!(
        kinds(&errors).contains(&BytecodeErrorKind::DeadSave),
        "expected dead-save, got: {}",
        render(&errors)
    );
}

/// The missing-argument errors of `vm` after giving the function named
/// `callee` a frame of `n` incoming parameter slots.
fn missing_args_into_header(vm: &VmProgram, callee: &str, n: u32) -> Vec<BytecodeError> {
    let mut vm = vm.clone();
    let fi = func_index(&vm, callee);
    vm.funcs[fi].frame_size = n;
    vm.funcs[fi].n_incoming = n;
    verify_bytecode(&vm)
        .into_iter()
        .filter(|e| e.kind == BytecodeErrorKind::MissingArg)
        .collect()
}

/// A callee's header can claim any number of stack parameters. A call
/// into it is reported one missing argument at a time only up to a
/// cap, then with one error counting the rest, for direct calls and
/// for tail calls alike: the report grows with the code, not with the
/// header.
#[test]
fn missing_args_into_a_huge_header_are_capped() {
    let call = compiled_vm("(define (f a) a) (+ 1 (f 1))", AllocConfig::default());
    let tail = compiled_vm(
        "(define (f a) a) (define (g x) (f x)) (+ 1 (g 1))",
        AllocConfig::default(),
    );
    for (vm, what) in [(&call, "call to f"), (&tail, "tail call to f")] {
        let small = missing_args_into_header(vm, "f", 1_000);
        let large = missing_args_into_header(vm, "f", 100_000);
        assert_eq!(small.len(), 65, "{what}: {}", render(&small[..3]));
        assert_eq!(render(&small[..64]), render(&large[..64]), "{what}");
        for (errors, more) in [(&small, 1_000 - 64), (&large, 100_000 - 64)] {
            let last = errors.last().expect("a summary error");
            assert!(
                last.message.starts_with(what)
                    && last.message.ends_with(&format!(" in {more} more slots")),
                "{last}"
            );
        }
    }
}

/// Rewrites `program`'s `.lbc` blob through `edit` and loads it again.
fn reload_edited(source: &str, edit: impl FnOnce(&mut VmProgram)) -> Vec<String> {
    let engine = Engine::new();
    let blob = engine.emit_program(source).expect("program compiles");
    let (mut vm, alloc) = deserialize_program(&blob).expect("blob loads");
    edit(&mut vm);
    match engine.load_program(&serialize_program(&vm, &alloc)) {
        Err(EngineError::Load(BytecodeLoadError::VerifyFailed { errors })) => errors,
        other => panic!("expected a verification failure, got {other:?}"),
    }
}

fn example(name: &str) -> String {
    let path = format!("{}/scheme-examples/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The VM allocates the globals and a closure's free slots up front.
/// Each global is defined, and each free slot filled, by an instruction
/// of its own, so a count above the program's instruction count is
/// rejected on load instead of sizing an allocation that aborts the
/// process.
#[test]
fn counts_that_size_allocations_are_bounded_by_the_code() {
    let errors = reload_edited(&example("tak.scm"), |vm| vm.n_globals = 1 << 30);
    assert!(
        errors
            .iter()
            .any(|e| e.contains("[oversized] at <program>+0: 1073741824 globals")),
        "{errors:?}"
    );
    let errors = reload_edited(&example("sieve.scm"), |vm| {
        let n_free = vm
            .funcs
            .iter_mut()
            .flat_map(|f| &mut f.code)
            .find_map(|i| match i {
                Instr::AllocClosure { n_free, .. } if *n_free > 0 => Some(n_free),
                _ => None,
            })
            .expect("sieve allocates a closure with free slots");
        *n_free = 2_147_483_649;
    });
    assert!(
        errors
            .iter()
            .any(|e| e.contains("[oversized]") && e.contains("closure with 2147483649 free slots")),
        "{errors:?}"
    );
}
