;; `modulo` at the fixnum extremes. Every evaluator computed it as
;; ((a % b) + b) % b: (modulo -9223372036854775808 -1) panicked with a
;; remainder overflow in constant folding, in the VM primitive and in
;; the interpreter, and in release builds (modulo 1 9223372036854775807)
;; gave -1 and (modulo -1 -9223372036854775808) gave
;; 9223372036854775807. The interpreter shared the formula, so the
;; oracle agreed with itself. Each evaluator now adds the divisor to
;; the truncated remainder only when their signs differ
;; (crates/interp/src/eval.rs, crates/ir/src/fold.rs,
;; crates/vm/src/prim.rs). Every case computes `modulo` on literal
;; operands (folded at compile time) and through `m` (the VM's
;; primitive), and compares both with a hand-written answer, so a
;; wrong answer shared by every evaluator still fails. Promoted by
;; hand, not a fuzz find.
(define (m a b) (modulo a b))
(define (expect folded computed want)
  (if (and (= folded want) (= computed want))
      want
      (error "modulo: wrong answer")))
(list
 (expect (modulo 1 9223372036854775807) (m 1 9223372036854775807) 1)
 (expect (modulo -1 -9223372036854775808) (m -1 -9223372036854775808) -1)
 (expect (modulo -9223372036854775808 -1) (m -9223372036854775808 -1) 0)
 (expect (modulo -9223372036854775808 9223372036854775807)
         (m -9223372036854775808 9223372036854775807)
         9223372036854775806)
 (expect (modulo 9223372036854775807 -9223372036854775808)
         (m 9223372036854775807 -9223372036854775808)
         -1)
 (expect (modulo -7 2) (m -7 2) 1)
 (expect (modulo 7 -2) (m 7 -2) -1))
