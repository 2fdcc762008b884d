//! The heavyweight correctness gate: every benchmark (small scale) must
//! produce identical values and output in the reference interpreter and
//! in the compiled VM under the full configuration matrix.

use lesgs::compiler::{config_matrix, differential_check};
use lesgs::engine::Engine;
use lesgs::suite::{all_benchmarks, Scale};

#[test]
fn all_benchmarks_agree_with_interpreter_under_all_configs() {
    let configs = config_matrix();
    for b in all_benchmarks() {
        differential_check(b.source(Scale::Small), &configs, 60_000_000, 1)
            .unwrap_or_else(|e| panic!("benchmark {}: {e}", b.name));
    }
}

#[test]
fn all_benchmarks_agree_with_lambda_lifting() {
    // The lifting pass must be invisible at every observation point.
    for b in all_benchmarks() {
        let src = b.source(Scale::Small);
        let oracle = lesgs::interp::run_source(src, 60_000_000)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        for alloc in [
            lesgs::allocator::AllocConfig::paper_default(),
            lesgs::allocator::AllocConfig::baseline(),
        ] {
            let cfg = lesgs::compiler::CompilerConfig {
                alloc,
                lambda_lift: true,
                poison: true,
                ..Default::default()
            };
            let out = Engine::with_config(cfg)
                .run(src)
                .unwrap_or_else(|e| panic!("{} lifted: {e}", b.name));
            assert_eq!(out.value, oracle.value, "{} lifted", b.name);
            assert_eq!(out.output, oracle.output, "{} lifted", b.name);
        }
    }
}

#[test]
fn all_benchmarks_agree_without_peephole_and_folding() {
    for b in all_benchmarks() {
        let src = b.source(Scale::Small);
        let oracle = lesgs::interp::run_source(src, 60_000_000)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let cfg = lesgs::compiler::CompilerConfig {
            no_peephole: true,
            no_fold: true,
            poison: true,
            ..Default::default()
        };
        let out = Engine::with_config(cfg)
            .run(src)
            .unwrap_or_else(|e| panic!("{} unoptimized: {e}", b.name));
        assert_eq!(out.value, oracle.value, "{} unoptimized", b.name);
        assert_eq!(out.output, oracle.output, "{} unoptimized", b.name);
    }
}

#[test]
fn standard_scale_expected_values_hold() {
    // Spot-check the standard-scale answers under the paper's default
    // configuration (independently known values).
    for b in all_benchmarks() {
        let Some(expected) = b.expected else { continue };
        let out = Engine::new()
            .run(b.source(Scale::Standard))
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        assert_eq!(out.value, expected, "{}", b.name);
    }
}

#[test]
fn prelude_library_differential() {
    // Exercise every prelude function through the full matrix.
    let src = r#"
        (list
          (length '(1 2 3))
          (append '(1) '(2 3))
          (reverse '(1 2 3))
          (list-tail '(1 2 3 4) 2)
          (list-ref '(a b c) 1)
          (last-pair '(1 2 3))
          (list-copy '(1 2))
          (memq 'b '(a b c))
          (memv 2 '(1 2 3))
          (member '(1) '((0) (1)))
          (assq 'b '((a . 1) (b . 2)))
          (assv 2 '((1 . a) (2 . b)))
          (assoc '(k) '(((j) . 1) ((k) . 2)))
          (map (lambda (x) (* x x)) '(1 2 3))
          (map2 + '(1 2) '(10 20))
          (fold-left - 0 '(1 2 3))
          (fold-right - 0 '(1 2 3))
          (filter even? '(1 2 3 4))
          (iota 4)
          (expt 2 10)
          (gcd 48 18)
          (vector->list (list->vector '(1 2 3)))
          (let ((v (make-vector 3 0))) (vector-fill! v 7) (vector-ref v 2))
          (caar '((1) 2))
          (cadr '(1 2))
          (caddr '(1 2 3))
          (cadddr '(1 2 3 4)))
    "#;
    differential_check(src, &config_matrix(), 10_000_000, 1).unwrap();
}

#[test]
fn output_and_effects_differential() {
    let src = r#"
        (define box1 (box 0))
        (define (bump!) (set-box! box1 (+ (unbox box1) 1)) (unbox box1))
        (display (bump!))
        (display (bump!))
        (newline)
        (write "str")
        (display #\x)
        (let ((p (cons 1 2)))
          (set-car! p (bump!))
          (set-cdr! p 'end)
          (display p))
        (unbox box1)
    "#;
    differential_check(src, &config_matrix(), 10_000_000, 1).unwrap();
}
