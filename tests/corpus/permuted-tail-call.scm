;; Shape-lock for register-cycle shuffles (generator v2 emits this
;; family: recursive tail calls passing the caller's own parameters
;; rotated). Not a shrunk bug find — promoted by hand so the full oracle
;; (all 22 configurations, including fixed-order shuffling and the
;; 2-register machines that push the tail onto the stack) re-judges a
;; known-permutation-heavy program on every `cargo test`.
;;
;; The rotating 6-argument cycle is one register cycle on the
;; 6-register machine, which greedy breaks with a single temporary;
;; under 2 registers the same rotation must route through stack
;; parameter slots instead.
(define (whirl d a b c x y)
  (if (<= d 0)
      (+ a (+ (* 2 b) (+ (* 3 c) (+ (* 4 x) (* 5 y)))))
      (whirl (- d 1) b c x y a)))
(define (seesaw d p q)
  (if (<= d 0)
      (- p q)
      (seesaw (- d 1) q p)))
(+ (whirl 11 1 2 3 4 5) (seesaw 7 19 6))
