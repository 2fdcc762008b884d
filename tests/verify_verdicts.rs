//! Golden verdicts of the bytecode verifier on seeded mutants.
//!
//! Every small-scale suite benchmark and every `scheme-examples/`
//! program is compiled under each of the 22 `config_matrix`
//! configurations. Eight seeded single-edit mutants of each compiled
//! program are verified, and `tests/fixtures/verify_verdicts.txt` pins,
//! per (program, config), how many of them were rejected and the
//! FNV-1a-64 of their rendered verdicts (every error's text, in order).
//! A verifier rewrite that claims to change no verdict must pass with
//! the fixture unchanged.
//!
//! A mutant whose frame header claims more incoming parameters than
//! its frame holds stays out of the hash: it must be rejected with a
//! `slot-out-of-bounds` error at pc 0 of that function, and with no
//! other error in it when no other function shares its name.
//!
//! To regenerate after an *intentional* verdict change:
//!
//! ```text
//! LESGS_UPDATE_FIXTURES=1 cargo test --test verify_verdicts
//! ```

use std::fmt::Write;

use lesgs::compiler::{compile, config_matrix, CompilerConfig};
use lesgs::engine::fnv1a64;
use lesgs::ir::machine::NUM_REGS;
use lesgs::ir::Reg;
use lesgs::suite::{all_benchmarks, Scale};
use lesgs::vm::verify::{verify_bytecode, BytecodeError, BytecodeErrorKind};
use lesgs::vm::{Instr, SlotClass, VmFunc, VmProgram};
use lesgs_testkit::Rng;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/verify_verdicts.txt"
);

/// Mutants verified per (program, config).
const MUTANTS: usize = 8;

/// `(label, source)` for every program the fixture covers.
fn programs() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = all_benchmarks()
        .into_iter()
        .map(|b| {
            (
                format!("suite/{}", b.name),
                b.source(Scale::Small).to_owned(),
            )
        })
        .collect();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scheme-examples");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("scheme-examples exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "scm"))
        .collect();
    files.sort();
    for path in files {
        let name = path.file_name().expect("file name").to_string_lossy();
        let src = std::fs::read_to_string(&path).expect("readable example");
        out.push((format!("examples/{name}"), src));
    }
    out
}

fn render(errors: &[BytecodeError]) -> String {
    errors
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n")
}

fn branch_target(instr: &mut Instr) -> Option<&mut u32> {
    match instr {
        Instr::Jump { target }
        | Instr::BranchFalse { target, .. }
        | Instr::BranchTrue { target, .. } => Some(target),
        _ => None,
    }
}

fn registers(instr: &mut Instr) -> Vec<&mut Reg> {
    match instr {
        Instr::LoadImm { dst, .. }
        | Instr::LoadConst { dst, .. }
        | Instr::StackLoad { dst, .. }
        | Instr::AllocClosure { dst, .. }
        | Instr::LoadFree { dst, .. }
        | Instr::LoadGlobal { dst, .. } => vec![dst],
        Instr::Mov { dst, src } => vec![dst, src],
        Instr::StackStore { src, .. }
        | Instr::BranchFalse { src, .. }
        | Instr::BranchTrue { src, .. }
        | Instr::StoreGlobal { src, .. } => vec![src],
        Instr::Prim { dst, args, .. } => std::iter::once(dst).chain(args.iter_mut()).collect(),
        Instr::ClosureSlotSet { clo, src, .. } => vec![clo, src],
        _ => Vec::new(),
    }
}

/// Moves every branch target above `pc` by `delta`, after an
/// instruction was inserted or removed there.
fn shift_targets(f: &mut VmFunc, pc: usize, delta: i64) {
    for instr in &mut f.code {
        if let Some(t) = branch_target(instr) {
            if *t as usize > pc {
                *t = (i64::from(*t) + delta) as u32;
            }
        }
    }
}

/// A seeded pc of `f` whose instruction satisfies `pred`.
fn pick_pc(f: &VmFunc, rng: &mut Rng, pred: impl Fn(&Instr) -> bool) -> Option<usize> {
    let pcs: Vec<usize> = (0..f.code.len()).filter(|&pc| pred(&f.code[pc])).collect();
    (!pcs.is_empty()).then(|| *rng.pick(&pcs))
}

fn is_branch(instr: &Instr) -> bool {
    matches!(
        instr,
        Instr::Jump { .. } | Instr::BranchFalse { .. } | Instr::BranchTrue { .. }
    )
}

fn is_stack_access(instr: &Instr) -> bool {
    matches!(instr, Instr::StackLoad { .. } | Instr::StackStore { .. })
}

fn has_registers(instr: &Instr) -> bool {
    !matches!(
        instr,
        Instr::Jump { .. }
            | Instr::Call { .. }
            | Instr::TailCall { .. }
            | Instr::Return
            | Instr::Halt
    )
}

/// Applies one seeded edit to `f`; false if the chosen operator has
/// nothing to edit in it.
fn edit(f: &mut VmFunc, rng: &mut Rng) -> bool {
    let len = f.code.len();
    if len == 0 {
        return false;
    }
    let pc = rng.below(len);
    match rng.below(10) {
        0 => {
            f.code.remove(pc);
            shift_targets(f, pc, -1);
        }
        1 => {
            let copy = f.code[pc].clone();
            f.code.insert(pc + 1, copy);
            shift_targets(f, pc, 1);
        }
        2 if pc + 1 < len => f.code.swap(pc, pc + 1),
        3 => {
            let Some(pc) = pick_pc(f, rng, is_branch) else {
                return false;
            };
            let target = rng.below_u32(len as u32 + 1);
            *branch_target(&mut f.code[pc]).expect("picked a branch") = target;
        }
        4 => {
            let Some(pc) = pick_pc(f, rng, is_stack_access) else {
                return false;
            };
            let new = rng.below_u32(f.frame_size + 3);
            match &mut f.code[pc] {
                Instr::StackLoad { slot, .. } | Instr::StackStore { slot, .. } => *slot = new,
                _ => unreachable!("picked a stack access"),
            }
        }
        5 => {
            let Some(pc) = pick_pc(f, rng, is_stack_access) else {
                return false;
            };
            let new = *rng.pick(&SlotClass::ALL);
            match &mut f.code[pc] {
                Instr::StackLoad { class, .. } | Instr::StackStore { class, .. } => *class = new,
                _ => unreachable!("picked a stack access"),
            }
        }
        6 => {
            let Some(pc) = pick_pc(f, rng, has_registers) else {
                return false;
            };
            let new = Reg(rng.below(NUM_REGS) as u8);
            let mut regs = registers(&mut f.code[pc]);
            let k = rng.below(regs.len());
            *regs[k] = new;
        }
        7 => {
            let Some(pc) = pick_pc(f, rng, |i| matches!(i, Instr::Call { .. })) else {
                return false;
            };
            let new = rng.below_u32(f.frame_size + 2);
            if let Instr::Call { frame_advance, .. } = &mut f.code[pc] {
                *frame_advance = new;
            }
        }
        8 => f.frame_size = rng.below_u32(f.frame_size + 2),
        9 => f.n_incoming = rng.below_u32(f.frame_size + 2),
        _ => return false,
    }
    true
}

/// One seeded single-edit mutant of `vm`.
fn mutant(vm: &VmProgram, rng: &mut Rng) -> VmProgram {
    loop {
        let mut m = vm.clone();
        let fi = rng.below(m.funcs.len());
        if edit(&mut m.funcs[fi], rng) {
            return m;
        }
    }
}

#[test]
fn mutant_verdicts_match_golden_fixture() {
    let mut got = String::new();
    let mut header_mutants = 0usize;
    let mut header_misses = Vec::new();
    for (program, src) in programs() {
        for (i, alloc) in config_matrix().into_iter().enumerate() {
            let label = format!("{program} m{i:02}");
            let vm = compile(&src, &CompilerConfig::with_alloc(alloc))
                .unwrap_or_else(|e| panic!("{label}: {e}"))
                .vm;
            let mut rng = Rng::new(fnv1a64(label.as_bytes()));
            let (mut hashed, mut rejected, mut verdicts) = (0usize, 0usize, String::new());
            for k in 0..MUTANTS {
                let m = mutant(&vm, &mut rng);
                let errors = verify_bytecode(&m);
                if let Some(f) = m.funcs.iter().find(|f| f.n_incoming > f.frame_size) {
                    header_mutants += 1;
                    // Errors name functions, and names can repeat.
                    let unique = m.funcs.iter().filter(|g| g.name == f.name).count() == 1;
                    let in_f: Vec<&BytecodeError> =
                        errors.iter().filter(|e| e.func == f.name).collect();
                    let rejected_by_header = in_f.iter().any(|e| {
                        e.kind == BytecodeErrorKind::SlotOutOfBounds
                            && e.pc == 0
                            && e.message.starts_with("frame header")
                    }) && (!unique || in_f.len() == 1);
                    if !rejected_by_header {
                        header_misses.push(format!("{label} mutant {k}: [{}]", render(&errors)));
                    }
                    continue;
                }
                hashed += 1;
                rejected += usize::from(!errors.is_empty());
                let _ = writeln!(verdicts, "mutant {k}");
                for e in &errors {
                    let _ = writeln!(verdicts, "{e}");
                }
            }
            let _ = writeln!(
                got,
                "{label} rejected={rejected}/{hashed} verdicts={:016x}",
                fnv1a64(verdicts.as_bytes())
            );
        }
    }
    if std::env::var("LESGS_UPDATE_FIXTURES").is_ok() {
        std::fs::write(FIXTURE, &got).expect("write fixture");
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("fixture exists; regenerate with LESGS_UPDATE_FIXTURES=1");
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(
            g, w,
            "verifier verdicts drifted from the checked-in fixture"
        );
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "fixture covers a different set of (program, config) pairs"
    );
    assert!(header_mutants > 0, "no mutant exercised the frame header");
    assert!(
        header_misses.is_empty(),
        "{} of {header_mutants} mutants with n_incoming > frame_size were not rejected \
         by their header (slot-out-of-bounds at pc 0, nothing else in that function):\n{}",
        header_misses.len(),
        header_misses.join("\n")
    );
}

/// `main` calls an eight-parameter `f`: under the default six argument
/// registers, two arguments travel in outgoing stack slots.
const EIGHT_ARGS: &str = "(define (f a b c d e f g h) (+ a h)) (+ 1 (f 1 2 3 4 5 6 7 8))";

/// A call whose `frame_advance` is `u32::MAX` names outgoing slots past
/// `u32::MAX`; none of them is ever written, and each is reported at
/// its true offset rather than a wrapped one.
#[test]
fn call_at_the_top_of_the_slot_space_reports_unwrapped_missing_args() {
    let mut vm = compile(EIGHT_ARGS, &CompilerConfig::default())
        .expect("program compiles")
        .vm;
    let main = vm
        .funcs
        .iter()
        .position(|f| f.name == "main")
        .expect("main exists");
    let f = vm.funcs.iter().find(|f| f.name == "f").expect("f exists");
    assert_eq!(
        f.n_incoming, 2,
        "two of f's eight parameters are stack-passed"
    );
    let call = vm.funcs[main]
        .code
        .iter()
        .position(|i| matches!(i, Instr::Call { .. }))
        .expect("main calls f");
    if let Instr::Call { frame_advance, .. } = &mut vm.funcs[main].code[call] {
        *frame_advance = u32::MAX;
    }
    let errors = verify_bytecode(&vm);
    let missing: Vec<&str> = errors
        .iter()
        .filter(|e| e.kind == BytecodeErrorKind::MissingArg)
        .map(|e| e.message.as_str())
        .collect();
    assert_eq!(
        missing,
        [
            "call to f without outgoing argument in slot 4294967295",
            "call to f without outgoing argument in slot 4294967296",
        ],
        "got: {}",
        render(&errors)
    );
    assert!(
        errors
            .iter()
            .any(|e| e.kind == BytecodeErrorKind::FrameMismatch && e.pc == call as u32),
        "got: {}",
        render(&errors)
    );
}
