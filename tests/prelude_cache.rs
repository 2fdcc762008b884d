//! The prelude is desugared once per process and shared by every
//! compile; what one program does with it must not reach the next.

use lesgs::engine::Engine;

#[test]
fn shadowing_a_prelude_name_does_not_leak_into_the_next_compile() {
    let engine = Engine::new();
    let shadowed = engine
        .run("(define (length l) 42) (length '(1 2))")
        .expect("shadowing program runs");
    assert_eq!(shadowed.value, "42");
    let plain = engine.run("(length '(1 2))").expect("plain program runs");
    assert_eq!(
        plain.value, "2",
        "the user's `length` leaked into the prelude"
    );
}

#[test]
fn prelude_defines_that_use_a_shadowed_name_see_the_user_definition() {
    // `caddr` calls `cddr`; with `cddr` shadowed it must call the
    // user's, and the next compile must get the prelude's again.
    let engine = Engine::new();
    let src = "(caddr '(1 2 3))";
    let shadowed = engine
        .run(&format!("(define (cddr p) '(9)) {src}"))
        .expect("shadowing program runs");
    assert_eq!(shadowed.value, "9");
    assert_eq!(engine.run(src).expect("plain program runs").value, "3");
}
