//! Property-based differential testing: randomly generated (total,
//! terminating) mini-Scheme programs must evaluate identically in the
//! reference interpreter and in the compiled VM under a spread of
//! allocator configurations.

use lesgs::allocator::{AllocConfig, SaveStrategy, ShuffleStrategy};
use lesgs::compiler::differential_check;
use lesgs::ir::MachineConfig;
use lesgs_testkit::{run_cases, Rng};

/// Fixed helper procedures callable from generated code; all total.
const HELPERS: &str = "
(define (dbl x) (+ x x))
(define (count n) (if (<= n 0) 0 (+ 1 (count (- n 1)))))
(define (sum3 a b c) (+ a (+ b c)))
(define (pick p a b) (if p a b))
";

fn configs() -> Vec<AllocConfig> {
    let mut out = Vec::new();
    for save in [SaveStrategy::Lazy, SaveStrategy::Early, SaveStrategy::Late] {
        for c in [0usize, 6] {
            out.push(AllocConfig {
                save,
                machine: MachineConfig::with_arg_regs(c),
                ..AllocConfig::default()
            });
        }
    }
    out.push(AllocConfig {
        shuffle: ShuffleStrategy::FixedOrder,
        machine: MachineConfig::with_arg_regs(3),
        ..AllocConfig::default()
    });
    out
}

/// Generates an expression using only the variables in `vars`.
///
/// Every generated expression is numeric, so programs are total and
/// type-correct by construction; booleans only appear inside predicate
/// positions (`(odd? _)`, `(even? _)`, `(< _ _)`).
fn gen_expr(rng: &mut Rng, depth: u32, vars: &[String]) -> String {
    let leaf = |rng: &mut Rng| {
        if vars.is_empty() || rng.chance(1, 2) {
            rng.range_i64(-9, 9).to_string()
        } else {
            vars[rng.below(vars.len())].clone()
        }
    };
    if depth == 0 {
        return leaf(rng);
    }
    let sub = |rng: &mut Rng| gen_expr(rng, depth - 1, vars);
    match rng.weighted(&[3, 2, 2, 1, 2, 1, 2, 1, 1, 2, 1, 1]) {
        0 => leaf(rng),
        1 => format!("(+ {} {})", sub(rng), sub(rng)),
        2 => format!("(- {} {})", sub(rng), sub(rng)),
        3 => format!("(remainder (* {} {}) 10007)", sub(rng), sub(rng)),
        4 => format!("(if (odd? {}) {} {})", sub(rng), sub(rng), sub(rng)),
        5 => {
            let (c, t, e) = (sub(rng), sub(rng), sub(rng));
            format!("(if (and (< {c} {t}) (< {t} {e})) {c} {e})")
        }
        6 => {
            let fresh = format!("v{depth}");
            let rhs = sub(rng);
            let mut inner = vars.to_vec();
            inner.push(fresh.clone());
            let body = gen_expr(rng, depth - 1, &inner);
            format!("(let (({fresh} {rhs})) {body})")
        }
        7 => format!("(dbl {})", sub(rng)),
        8 => format!("(count (remainder {} 7))", sub(rng)),
        9 => format!("(sum3 {} {} {})", sub(rng), sub(rng), sub(rng)),
        10 => format!("(pick (even? {}) {} {})", sub(rng), sub(rng), sub(rng)),
        _ => format!("((lambda (q r) (- r q)) {} {})", sub(rng), sub(rng)),
    }
}

fn gen_program(rng: &mut Rng) -> String {
    format!("{HELPERS}\n{}", gen_expr(rng, 4, &[]))
}

#[test]
fn random_programs_compile_and_agree() {
    let configs = configs();
    run_cases(96, |rng| {
        let src = gen_program(rng);
        differential_check(&src, &configs, 2_000_000, 1)
            .unwrap_or_else(|e| panic!("{e}\nprogram:\n{src}"));
    });
}
