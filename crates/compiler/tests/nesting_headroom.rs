//! How deeply nested a program a 2 MiB thread compiles.
//!
//! The reader, desugarer, renamer, closure conversion and the allocator
//! recurse once per level of nesting, and a `lesgs-svc` worker compiles
//! on a thread of the platform's default size, 2 MiB. This test
//! compiles and runs `(define (f x) (+ 1 (+ 1 … x))) (f 0)` on such a
//! thread at a depth below what the passes reach today (839–846 levels
//! in a release build, about 166 in a debug one), so a change that
//! grows a recursive pass's stack frames fails here instead of
//! aborting a service worker with a stack overflow. CI runs it in
//! release as well, where the margin is measured.

use lesgs_compiler::{compile, CompilerConfig};

/// The depth pinned: about 70% of what a build reaches.
const DEPTH: usize = if cfg!(debug_assertions) { 120 } else { 600 };

const STACK_BYTES: usize = 2 * 1024 * 1024;

/// `(define (f x) (+ 1 (+ 1 … x))) (f 0)`, nested `depth` deep.
fn nested(depth: usize) -> String {
    format!(
        "(define (f x) {}x{}) (f 0)",
        "(+ 1 ".repeat(depth),
        ")".repeat(depth)
    )
}

#[test]
fn a_2_mib_thread_compiles_the_pinned_depth() {
    let src = nested(DEPTH);
    let value = std::thread::Builder::new()
        .stack_size(STACK_BYTES)
        .spawn(move || {
            let config = CompilerConfig::default();
            let compiled = compile(&src, &config).expect("compiles");
            compiled.run(&config).expect("runs").value
        })
        .expect("spawn a 2 MiB thread")
        .join()
        .expect("the compile finishes");
    assert_eq!(value, DEPTH.to_string());
}
