;; A call with 40 arguments. The exhaustive §3.1 optimum that greedy
;; shuffling computes at every call site kept argument sets in 32-bit
;; bitsets: at 32 or more arguments it panicked in debug builds with a
;; shift overflow, and in release it reported an optimum above greedy's
;; count after a search exponential in the argument count. The search
;; now skips call sites without a cycle and covers only arguments whose
;; target another argument reads (`optimal_temp_count` in
;; crates/core/src/shuffle.rs). Promoted by hand, not a fuzz find.
(define (f a0 a1 a2 a3 a4 a5 a6 a7 a8 a9 a10 a11 a12 a13 a14 a15 a16 a17 a18 a19 a20 a21 a22 a23 a24 a25 a26 a27 a28 a29 a30 a31 a32 a33 a34 a35 a36 a37 a38 a39)
  (+ a0 a39))
(f 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39)
