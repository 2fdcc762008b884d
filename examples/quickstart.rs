//! Quickstart: compile and run a mini-Scheme program, inspect the
//! instrumentation the paper's evaluation is built on.
//!
//! Run with: `cargo run --example quickstart`

use lesgs::compiler::{compile, CompilerConfig};
use lesgs::vm::ActivationClass;

fn main() {
    let src = r#"
        (define (sum-squares l)
          (if (null? l)
              0
              (+ (* (car l) (car l)) (sum-squares (cdr l)))))
        (display "sum of squares: ")
        (display (sum-squares '(1 2 3 4 5)))
        (newline)
        (sum-squares (iota 100))
    "#;

    let config = CompilerConfig::default();
    let compiled = compile(src, &config).expect("program compiles");
    let out = compiled.run(&config).expect("program runs");

    println!("program output:\n{}", out.output);
    println!("final value: {}", out.value);
    println!();
    println!("instructions:      {}", out.stats.instructions);
    println!("simulated cycles:  {}", out.stats.cycles);
    println!("stack references:  {}", out.stats.stack_refs());
    println!("register saves:    {}", out.stats.saves());
    println!("register restores: {}", out.stats.restores());
    println!("non-tail calls:    {}", out.stats.calls);
    println!("tail calls:        {}", out.stats.tail_calls);
    println!();
    println!("activation classes (Table 2's classification):");
    for class in ActivationClass::ALL {
        println!(
            "  {:<24} {:>6}",
            class.label(),
            out.stats.activations[class as usize]
        );
    }
    println!(
        "effective leaf fraction: {:.1}%",
        100.0 * out.stats.effective_leaf_fraction()
    );
}
