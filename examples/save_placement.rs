//! Save placement under the three strategies, on the paper's own
//! motivating shapes.
//!
//! Run with: `cargo run --example save_placement`

use lesgs::allocator::toy::{s_revised, s_simple, save_set, Toy};
use lesgs::allocator::{allocate_program, AllocConfig, SaveStrategy};
use lesgs::frontend::pipeline;
use lesgs::ir::machine::arg_reg;
use lesgs::ir::RegSet;

fn show_allocated(src: &str, name: &str) {
    println!("  source: {}", src.lines().next().unwrap_or("").trim());
    for save in [SaveStrategy::Lazy, SaveStrategy::Early, SaveStrategy::Late] {
        let ir = pipeline::front_to_closed(src).expect("compiles");
        let cfg = AllocConfig {
            save,
            ..AllocConfig::paper_default()
        };
        let allocated = allocate_program(&ir, &cfg);
        let f = allocated
            .funcs
            .iter()
            .find(|f| f.name == name)
            .expect("function exists");
        println!("  {save:?}:\n    {}", f.body);
    }
    println!();
}

fn main() {
    println!("== The paper's §2.1.2 example, in the simplified language ==\n");
    let live: RegSet = [arg_reg(0), arg_reg(1)].into_iter().collect();
    let x = Toy::Var(arg_reg(0));
    let inner = Toy::if_(x.clone(), Toy::call(live.iter()), Toy::False);
    let outer = Toy::if_(inner.clone(), Toy::Var(arg_reg(1)), Toy::call(live.iter()));
    println!("A = (if (if x call false) y call), live = {live}");
    println!("  simple algorithm  S[A]           = {}", s_simple(&outer));
    let (st, sf) = s_revised(&outer);
    println!("  revised algorithm S_t[A]         = {st}");
    println!("  revised algorithm S_f[A]         = {sf}");
    println!("  save set          S_t ∩ S_f      = {}", save_set(&outer));
    println!(
        "  inner if's save set              = {}\n",
        save_set(&inner)
    );

    println!("== Save placement on real functions ==\n");
    println!("factorial — the base case is call-free, so lazy placement");
    println!("keeps the save out of it while early pays on every activation:\n");
    show_allocated(
        "(define (fact n) (if (zero? n) 1 (* n (fact (- n 1))))) (fact 5)",
        "fact",
    );

    println!("a tail-recursive loop — tail calls are jumps, so no strategy");
    println!("needs any saves at all:\n");
    show_allocated(
        "(define (loop i acc) (if (zero? i) acc (loop (- i 1) (+ acc i)))) (loop 9 0)",
        "loop",
    );

    println!("two calls in sequence — late saving is redundant on the");
    println!("second call; lazy saves once, as early as the call is inevitable:\n");
    show_allocated(
        "(define (g x) (if (zero? x) 0 (g (- x 1))))
         (define (f x) (+ (g x) (g (+ x 1))))
         (f 3)",
        "f",
    );
}
