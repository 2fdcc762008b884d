
(define (make-ring n)
  (let ((head (cons 0 '())))
    (let loop ((i 1) (tail head))
      (if (= i n)
          (begin (set-cdr! tail head) head)
          (let ((cell (cons i '())))
            (set-cdr! tail cell)
            (loop (+ i 1) cell))))))
(define (destruct n iters)
  (let ((r (make-ring n)))
    (let loop ((i 0) (p r) (acc 0))
      (if (= i iters)
          acc
          (begin
            (set-car! p (+ (car p) 1))
            (loop (+ i 1) (cdr p) (+ acc (car p))))))))
(destruct 50 60000)