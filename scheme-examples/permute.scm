;; Permutation-heavy tail calls: every loop below rotates or swaps its
;; own arguments, so each shuffle is a pure register cycle, the hardest
;; case for greedy shuffling (§2.3): it must break every cycle with one
;; temporary. Try:
;;   lesgsc stats scheme-examples/permute.scm
;;   lesgsc dis scheme-examples/permute.scm

;; A two-cycle: `zag` swaps its operands on every trip around the loop.
(define (zig n a b)
  (if (zero? n) (- a b) (zag (- n 1) a b)))
(define (zag n a b)
  (zig n b a))

;; A three-cycle: `turn` rotates (a b c) -> (b c a).
(define (spin n a b c)
  (if (zero? n)
      (+ a (+ (* 2 b) (* 4 c)))
      (turn (- n 1) a b c)))
(define (turn n a b c)
  (spin n b c a))

;; A five-cycle: (a b c d e) -> (b c d e a).
(define (spin5 n a b c d e)
  (if (zero? n)
      (+ a (+ (* 2 b) (+ (* 3 c) (+ (* 4 d) (* 5 e)))))
      (turn5 (- n 1) a b c d e)))
(define (turn5 n a b c d e)
  (spin5 n b c d e a))

;; A pure four-cycle with no counter at all: the rotation itself carries
;; the zero sentinel into testing position.
(define (find0 a b c d)
  (if (zero? a) b (find0 b c d a)))

(display (zig 9 11 25)) (newline)           ; 14
(display (spin 7 1 2 3)) (newline)          ; 12
(display (spin5 123 1 2 3 4 5)) (newline)   ; 40
(display (find0 3 5 0 7)) (newline)         ; 7
(list (zig 9 11 25) (spin5 123 1 2 3 4 5))
