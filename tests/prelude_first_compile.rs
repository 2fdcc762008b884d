//! The first compiles of a process race to build the shared prelude.
//!
//! This binary holds one test, so the compiles below are the process's
//! first: four threads released together by a barrier all reach the
//! prelude before it exists, and each must emit exactly the bytes a
//! later sequential compile does.

use std::sync::Barrier;

use lesgs::engine::Engine;

const SRC: &str = "(define (squares l) (map (lambda (x) (* x x)) (reverse l)))
                   (length (append (squares (iota 10)) (list-tail '(1 2 3) 1)))";

const THREADS: usize = 4;

#[test]
fn concurrent_first_compiles_emit_identical_bytes() {
    let barrier = Barrier::new(THREADS);
    let blobs: Vec<Vec<u8>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    Engine::new().emit_program(SRC).expect("compiles")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("compile thread panicked"))
            .collect()
    });
    let sequential = Engine::new().emit_program(SRC).expect("compiles");
    for (i, blob) in blobs.iter().enumerate() {
        assert_eq!(blob, &sequential, "thread {i} emitted different bytes");
    }
    let out = Engine::new().run(SRC).expect("runs");
    assert_eq!(out.value, "12");
}
