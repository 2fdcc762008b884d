//! The bytecode verifier's heap use is bounded by code size.
//!
//! It allocates a fixed number of buffers per function, none per
//! instruction or per join, and never sizes a buffer by a slot
//! operand: an outgoing-argument store may name any `u32` slot. This
//! binary installs a counting global allocator and holds exactly one
//! test, so the counts it reads are the verifier's own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use lesgs::compiler::{compile, CompilerConfig};
use lesgs::frontend::FuncId;
use lesgs::ir::machine::RV;
use lesgs::ir::Reg;
use lesgs::suite::{all_benchmarks, Scale};
use lesgs::vm::verify::verify_bytecode;
use lesgs::vm::{CallTarget, Imm, Instr, SlotClass, VmFunc, VmProgram};

struct Counting;

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) so far.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
/// Bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of [`LIVE`] since it was last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees hold; the counters are
// statistics that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged from our caller.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged from our caller.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged from our caller.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged from our caller.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations allowed per verified function.
const ALLOCS_PER_FUNC: usize = 16;

/// Peak live heap allowed while verifying [`top_slot_program`].
const PEAK_BYTES: usize = 64 * 1024;

/// `main` stores an outgoing argument in slot `u32::MAX - 1`, reads it
/// back, passes it to `f` through a call whose frame advance points at
/// it, and reads it again after the call released it.
fn top_slot_program() -> VmProgram {
    let top = u32::MAX - 1;
    let func = |id: u32, name: &str, code: Vec<Instr>, frame_size: u32, n_incoming: u32| VmFunc {
        id: FuncId(id),
        name: name.to_owned(),
        code,
        frame_size,
        n_incoming,
        syntactic_leaf: false,
        call_inevitable: false,
    };
    let main = vec![
        Instr::LoadImm {
            dst: Reg(3),
            imm: Imm::Fixnum(1),
        },
        Instr::StackStore {
            slot: top,
            src: Reg(3),
            class: SlotClass::OutArg,
        },
        Instr::StackLoad {
            dst: Reg(4),
            slot: top,
            class: SlotClass::OutArg,
        },
        Instr::Call {
            target: CallTarget::Func(FuncId(1)),
            frame_advance: top,
        },
        Instr::StackLoad {
            dst: Reg(5),
            slot: top,
            class: SlotClass::OutArg,
        },
        Instr::Halt,
    ];
    let f = vec![
        Instr::StackLoad {
            dst: RV,
            slot: 0,
            class: SlotClass::Param,
        },
        Instr::Return,
    ];
    VmProgram {
        funcs: vec![func(0, "main", main, 1, 0), func(1, "f", f, 1, 1)],
        entry: FuncId(0),
        constants: Vec::new(),
        n_globals: 0,
    }
}

#[test]
fn verifier_heap_use_is_bounded_by_code_size() {
    let program = top_slot_program();
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let errors = verify_bytecode(&program);
    let peak = PEAK.load(Ordering::Relaxed) - base;
    let verdict: Vec<String> = errors.iter().map(ToString::to_string).collect();
    assert_eq!(
        verdict,
        [
            "bytecode error [frame-mismatch] at main+3: call advances fp by 4294967294, \
             frame size is 1",
            "bytecode error [uninit-read] at main+4: load of slot 4294967294 (out) not \
             written on every path",
        ]
    );
    assert!(
        peak < PEAK_BYTES,
        "verifying a 6-instruction function peaked at {peak} live bytes"
    );

    let config = CompilerConfig::default();
    for b in all_benchmarks() {
        let vm = compile(b.source(Scale::Standard), &config)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name))
            .vm;
        let before = ALLOCS.load(Ordering::Relaxed);
        let errors = verify_bytecode(&vm);
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert!(errors.is_empty(), "{} fails verification", b.name);
        assert!(
            allocs <= ALLOCS_PER_FUNC * vm.funcs.len(),
            "{}: {allocs} allocations verifying {} functions ({} instructions)",
            b.name,
            vm.funcs.len(),
            vm.code_size()
        );
    }
}
