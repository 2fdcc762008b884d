(define (tak0 x y z)
               (if (not (< y x)) z
                   (tak1 (tak2 (- x 1) y z)
                       (tak3 (- y 1) z x)
                       (tak4 (- z 1) x y))))
(define (tak1 x y z)
               (if (not (< y x)) z
                   (tak5 (tak6 (- x 1) y z)
                       (tak7 (- y 1) z x)
                       (tak8 (- z 1) x y))))
(define (tak2 x y z)
               (if (not (< y x)) z
                   (tak9 (tak10 (- x 1) y z)
                       (tak11 (- y 1) z x)
                       (tak12 (- z 1) x y))))
(define (tak3 x y z)
               (if (not (< y x)) z
                   (tak13 (tak14 (- x 1) y z)
                       (tak15 (- y 1) z x)
                       (tak16 (- z 1) x y))))
(define (tak4 x y z)
               (if (not (< y x)) z
                   (tak17 (tak18 (- x 1) y z)
                       (tak19 (- y 1) z x)
                       (tak20 (- z 1) x y))))
(define (tak5 x y z)
               (if (not (< y x)) z
                   (tak21 (tak22 (- x 1) y z)
                       (tak23 (- y 1) z x)
                       (tak24 (- z 1) x y))))
(define (tak6 x y z)
               (if (not (< y x)) z
                   (tak25 (tak26 (- x 1) y z)
                       (tak27 (- y 1) z x)
                       (tak28 (- z 1) x y))))
(define (tak7 x y z)
               (if (not (< y x)) z
                   (tak29 (tak30 (- x 1) y z)
                       (tak31 (- y 1) z x)
                       (tak32 (- z 1) x y))))
(define (tak8 x y z)
               (if (not (< y x)) z
                   (tak33 (tak34 (- x 1) y z)
                       (tak35 (- y 1) z x)
                       (tak36 (- z 1) x y))))
(define (tak9 x y z)
               (if (not (< y x)) z
                   (tak37 (tak38 (- x 1) y z)
                       (tak39 (- y 1) z x)
                       (tak40 (- z 1) x y))))
(define (tak10 x y z)
               (if (not (< y x)) z
                   (tak41 (tak42 (- x 1) y z)
                       (tak43 (- y 1) z x)
                       (tak44 (- z 1) x y))))
(define (tak11 x y z)
               (if (not (< y x)) z
                   (tak45 (tak46 (- x 1) y z)
                       (tak47 (- y 1) z x)
                       (tak48 (- z 1) x y))))
(define (tak12 x y z)
               (if (not (< y x)) z
                   (tak49 (tak50 (- x 1) y z)
                       (tak51 (- y 1) z x)
                       (tak52 (- z 1) x y))))
(define (tak13 x y z)
               (if (not (< y x)) z
                   (tak53 (tak54 (- x 1) y z)
                       (tak55 (- y 1) z x)
                       (tak56 (- z 1) x y))))
(define (tak14 x y z)
               (if (not (< y x)) z
                   (tak57 (tak58 (- x 1) y z)
                       (tak59 (- y 1) z x)
                       (tak60 (- z 1) x y))))
(define (tak15 x y z)
               (if (not (< y x)) z
                   (tak61 (tak62 (- x 1) y z)
                       (tak63 (- y 1) z x)
                       (tak64 (- z 1) x y))))
(define (tak16 x y z)
               (if (not (< y x)) z
                   (tak65 (tak66 (- x 1) y z)
                       (tak67 (- y 1) z x)
                       (tak68 (- z 1) x y))))
(define (tak17 x y z)
               (if (not (< y x)) z
                   (tak69 (tak70 (- x 1) y z)
                       (tak71 (- y 1) z x)
                       (tak72 (- z 1) x y))))
(define (tak18 x y z)
               (if (not (< y x)) z
                   (tak73 (tak74 (- x 1) y z)
                       (tak75 (- y 1) z x)
                       (tak76 (- z 1) x y))))
(define (tak19 x y z)
               (if (not (< y x)) z
                   (tak77 (tak78 (- x 1) y z)
                       (tak79 (- y 1) z x)
                       (tak80 (- z 1) x y))))
(define (tak20 x y z)
               (if (not (< y x)) z
                   (tak81 (tak82 (- x 1) y z)
                       (tak83 (- y 1) z x)
                       (tak84 (- z 1) x y))))
(define (tak21 x y z)
               (if (not (< y x)) z
                   (tak85 (tak86 (- x 1) y z)
                       (tak87 (- y 1) z x)
                       (tak88 (- z 1) x y))))
(define (tak22 x y z)
               (if (not (< y x)) z
                   (tak89 (tak90 (- x 1) y z)
                       (tak91 (- y 1) z x)
                       (tak92 (- z 1) x y))))
(define (tak23 x y z)
               (if (not (< y x)) z
                   (tak93 (tak94 (- x 1) y z)
                       (tak95 (- y 1) z x)
                       (tak96 (- z 1) x y))))
(define (tak24 x y z)
               (if (not (< y x)) z
                   (tak97 (tak98 (- x 1) y z)
                       (tak99 (- y 1) z x)
                       (tak0 (- z 1) x y))))
(define (tak25 x y z)
               (if (not (< y x)) z
                   (tak1 (tak2 (- x 1) y z)
                       (tak3 (- y 1) z x)
                       (tak4 (- z 1) x y))))
(define (tak26 x y z)
               (if (not (< y x)) z
                   (tak5 (tak6 (- x 1) y z)
                       (tak7 (- y 1) z x)
                       (tak8 (- z 1) x y))))
(define (tak27 x y z)
               (if (not (< y x)) z
                   (tak9 (tak10 (- x 1) y z)
                       (tak11 (- y 1) z x)
                       (tak12 (- z 1) x y))))
(define (tak28 x y z)
               (if (not (< y x)) z
                   (tak13 (tak14 (- x 1) y z)
                       (tak15 (- y 1) z x)
                       (tak16 (- z 1) x y))))
(define (tak29 x y z)
               (if (not (< y x)) z
                   (tak17 (tak18 (- x 1) y z)
                       (tak19 (- y 1) z x)
                       (tak20 (- z 1) x y))))
(define (tak30 x y z)
               (if (not (< y x)) z
                   (tak21 (tak22 (- x 1) y z)
                       (tak23 (- y 1) z x)
                       (tak24 (- z 1) x y))))
(define (tak31 x y z)
               (if (not (< y x)) z
                   (tak25 (tak26 (- x 1) y z)
                       (tak27 (- y 1) z x)
                       (tak28 (- z 1) x y))))
(define (tak32 x y z)
               (if (not (< y x)) z
                   (tak29 (tak30 (- x 1) y z)
                       (tak31 (- y 1) z x)
                       (tak32 (- z 1) x y))))
(define (tak33 x y z)
               (if (not (< y x)) z
                   (tak33 (tak34 (- x 1) y z)
                       (tak35 (- y 1) z x)
                       (tak36 (- z 1) x y))))
(define (tak34 x y z)
               (if (not (< y x)) z
                   (tak37 (tak38 (- x 1) y z)
                       (tak39 (- y 1) z x)
                       (tak40 (- z 1) x y))))
(define (tak35 x y z)
               (if (not (< y x)) z
                   (tak41 (tak42 (- x 1) y z)
                       (tak43 (- y 1) z x)
                       (tak44 (- z 1) x y))))
(define (tak36 x y z)
               (if (not (< y x)) z
                   (tak45 (tak46 (- x 1) y z)
                       (tak47 (- y 1) z x)
                       (tak48 (- z 1) x y))))
(define (tak37 x y z)
               (if (not (< y x)) z
                   (tak49 (tak50 (- x 1) y z)
                       (tak51 (- y 1) z x)
                       (tak52 (- z 1) x y))))
(define (tak38 x y z)
               (if (not (< y x)) z
                   (tak53 (tak54 (- x 1) y z)
                       (tak55 (- y 1) z x)
                       (tak56 (- z 1) x y))))
(define (tak39 x y z)
               (if (not (< y x)) z
                   (tak57 (tak58 (- x 1) y z)
                       (tak59 (- y 1) z x)
                       (tak60 (- z 1) x y))))
(define (tak40 x y z)
               (if (not (< y x)) z
                   (tak61 (tak62 (- x 1) y z)
                       (tak63 (- y 1) z x)
                       (tak64 (- z 1) x y))))
(define (tak41 x y z)
               (if (not (< y x)) z
                   (tak65 (tak66 (- x 1) y z)
                       (tak67 (- y 1) z x)
                       (tak68 (- z 1) x y))))
(define (tak42 x y z)
               (if (not (< y x)) z
                   (tak69 (tak70 (- x 1) y z)
                       (tak71 (- y 1) z x)
                       (tak72 (- z 1) x y))))
(define (tak43 x y z)
               (if (not (< y x)) z
                   (tak73 (tak74 (- x 1) y z)
                       (tak75 (- y 1) z x)
                       (tak76 (- z 1) x y))))
(define (tak44 x y z)
               (if (not (< y x)) z
                   (tak77 (tak78 (- x 1) y z)
                       (tak79 (- y 1) z x)
                       (tak80 (- z 1) x y))))
(define (tak45 x y z)
               (if (not (< y x)) z
                   (tak81 (tak82 (- x 1) y z)
                       (tak83 (- y 1) z x)
                       (tak84 (- z 1) x y))))
(define (tak46 x y z)
               (if (not (< y x)) z
                   (tak85 (tak86 (- x 1) y z)
                       (tak87 (- y 1) z x)
                       (tak88 (- z 1) x y))))
(define (tak47 x y z)
               (if (not (< y x)) z
                   (tak89 (tak90 (- x 1) y z)
                       (tak91 (- y 1) z x)
                       (tak92 (- z 1) x y))))
(define (tak48 x y z)
               (if (not (< y x)) z
                   (tak93 (tak94 (- x 1) y z)
                       (tak95 (- y 1) z x)
                       (tak96 (- z 1) x y))))
(define (tak49 x y z)
               (if (not (< y x)) z
                   (tak97 (tak98 (- x 1) y z)
                       (tak99 (- y 1) z x)
                       (tak0 (- z 1) x y))))
(define (tak50 x y z)
               (if (not (< y x)) z
                   (tak1 (tak2 (- x 1) y z)
                       (tak3 (- y 1) z x)
                       (tak4 (- z 1) x y))))
(define (tak51 x y z)
               (if (not (< y x)) z
                   (tak5 (tak6 (- x 1) y z)
                       (tak7 (- y 1) z x)
                       (tak8 (- z 1) x y))))
(define (tak52 x y z)
               (if (not (< y x)) z
                   (tak9 (tak10 (- x 1) y z)
                       (tak11 (- y 1) z x)
                       (tak12 (- z 1) x y))))
(define (tak53 x y z)
               (if (not (< y x)) z
                   (tak13 (tak14 (- x 1) y z)
                       (tak15 (- y 1) z x)
                       (tak16 (- z 1) x y))))
(define (tak54 x y z)
               (if (not (< y x)) z
                   (tak17 (tak18 (- x 1) y z)
                       (tak19 (- y 1) z x)
                       (tak20 (- z 1) x y))))
(define (tak55 x y z)
               (if (not (< y x)) z
                   (tak21 (tak22 (- x 1) y z)
                       (tak23 (- y 1) z x)
                       (tak24 (- z 1) x y))))
(define (tak56 x y z)
               (if (not (< y x)) z
                   (tak25 (tak26 (- x 1) y z)
                       (tak27 (- y 1) z x)
                       (tak28 (- z 1) x y))))
(define (tak57 x y z)
               (if (not (< y x)) z
                   (tak29 (tak30 (- x 1) y z)
                       (tak31 (- y 1) z x)
                       (tak32 (- z 1) x y))))
(define (tak58 x y z)
               (if (not (< y x)) z
                   (tak33 (tak34 (- x 1) y z)
                       (tak35 (- y 1) z x)
                       (tak36 (- z 1) x y))))
(define (tak59 x y z)
               (if (not (< y x)) z
                   (tak37 (tak38 (- x 1) y z)
                       (tak39 (- y 1) z x)
                       (tak40 (- z 1) x y))))
(define (tak60 x y z)
               (if (not (< y x)) z
                   (tak41 (tak42 (- x 1) y z)
                       (tak43 (- y 1) z x)
                       (tak44 (- z 1) x y))))
(define (tak61 x y z)
               (if (not (< y x)) z
                   (tak45 (tak46 (- x 1) y z)
                       (tak47 (- y 1) z x)
                       (tak48 (- z 1) x y))))
(define (tak62 x y z)
               (if (not (< y x)) z
                   (tak49 (tak50 (- x 1) y z)
                       (tak51 (- y 1) z x)
                       (tak52 (- z 1) x y))))
(define (tak63 x y z)
               (if (not (< y x)) z
                   (tak53 (tak54 (- x 1) y z)
                       (tak55 (- y 1) z x)
                       (tak56 (- z 1) x y))))
(define (tak64 x y z)
               (if (not (< y x)) z
                   (tak57 (tak58 (- x 1) y z)
                       (tak59 (- y 1) z x)
                       (tak60 (- z 1) x y))))
(define (tak65 x y z)
               (if (not (< y x)) z
                   (tak61 (tak62 (- x 1) y z)
                       (tak63 (- y 1) z x)
                       (tak64 (- z 1) x y))))
(define (tak66 x y z)
               (if (not (< y x)) z
                   (tak65 (tak66 (- x 1) y z)
                       (tak67 (- y 1) z x)
                       (tak68 (- z 1) x y))))
(define (tak67 x y z)
               (if (not (< y x)) z
                   (tak69 (tak70 (- x 1) y z)
                       (tak71 (- y 1) z x)
                       (tak72 (- z 1) x y))))
(define (tak68 x y z)
               (if (not (< y x)) z
                   (tak73 (tak74 (- x 1) y z)
                       (tak75 (- y 1) z x)
                       (tak76 (- z 1) x y))))
(define (tak69 x y z)
               (if (not (< y x)) z
                   (tak77 (tak78 (- x 1) y z)
                       (tak79 (- y 1) z x)
                       (tak80 (- z 1) x y))))
(define (tak70 x y z)
               (if (not (< y x)) z
                   (tak81 (tak82 (- x 1) y z)
                       (tak83 (- y 1) z x)
                       (tak84 (- z 1) x y))))
(define (tak71 x y z)
               (if (not (< y x)) z
                   (tak85 (tak86 (- x 1) y z)
                       (tak87 (- y 1) z x)
                       (tak88 (- z 1) x y))))
(define (tak72 x y z)
               (if (not (< y x)) z
                   (tak89 (tak90 (- x 1) y z)
                       (tak91 (- y 1) z x)
                       (tak92 (- z 1) x y))))
(define (tak73 x y z)
               (if (not (< y x)) z
                   (tak93 (tak94 (- x 1) y z)
                       (tak95 (- y 1) z x)
                       (tak96 (- z 1) x y))))
(define (tak74 x y z)
               (if (not (< y x)) z
                   (tak97 (tak98 (- x 1) y z)
                       (tak99 (- y 1) z x)
                       (tak0 (- z 1) x y))))
(define (tak75 x y z)
               (if (not (< y x)) z
                   (tak1 (tak2 (- x 1) y z)
                       (tak3 (- y 1) z x)
                       (tak4 (- z 1) x y))))
(define (tak76 x y z)
               (if (not (< y x)) z
                   (tak5 (tak6 (- x 1) y z)
                       (tak7 (- y 1) z x)
                       (tak8 (- z 1) x y))))
(define (tak77 x y z)
               (if (not (< y x)) z
                   (tak9 (tak10 (- x 1) y z)
                       (tak11 (- y 1) z x)
                       (tak12 (- z 1) x y))))
(define (tak78 x y z)
               (if (not (< y x)) z
                   (tak13 (tak14 (- x 1) y z)
                       (tak15 (- y 1) z x)
                       (tak16 (- z 1) x y))))
(define (tak79 x y z)
               (if (not (< y x)) z
                   (tak17 (tak18 (- x 1) y z)
                       (tak19 (- y 1) z x)
                       (tak20 (- z 1) x y))))
(define (tak80 x y z)
               (if (not (< y x)) z
                   (tak21 (tak22 (- x 1) y z)
                       (tak23 (- y 1) z x)
                       (tak24 (- z 1) x y))))
(define (tak81 x y z)
               (if (not (< y x)) z
                   (tak25 (tak26 (- x 1) y z)
                       (tak27 (- y 1) z x)
                       (tak28 (- z 1) x y))))
(define (tak82 x y z)
               (if (not (< y x)) z
                   (tak29 (tak30 (- x 1) y z)
                       (tak31 (- y 1) z x)
                       (tak32 (- z 1) x y))))
(define (tak83 x y z)
               (if (not (< y x)) z
                   (tak33 (tak34 (- x 1) y z)
                       (tak35 (- y 1) z x)
                       (tak36 (- z 1) x y))))
(define (tak84 x y z)
               (if (not (< y x)) z
                   (tak37 (tak38 (- x 1) y z)
                       (tak39 (- y 1) z x)
                       (tak40 (- z 1) x y))))
(define (tak85 x y z)
               (if (not (< y x)) z
                   (tak41 (tak42 (- x 1) y z)
                       (tak43 (- y 1) z x)
                       (tak44 (- z 1) x y))))
(define (tak86 x y z)
               (if (not (< y x)) z
                   (tak45 (tak46 (- x 1) y z)
                       (tak47 (- y 1) z x)
                       (tak48 (- z 1) x y))))
(define (tak87 x y z)
               (if (not (< y x)) z
                   (tak49 (tak50 (- x 1) y z)
                       (tak51 (- y 1) z x)
                       (tak52 (- z 1) x y))))
(define (tak88 x y z)
               (if (not (< y x)) z
                   (tak53 (tak54 (- x 1) y z)
                       (tak55 (- y 1) z x)
                       (tak56 (- z 1) x y))))
(define (tak89 x y z)
               (if (not (< y x)) z
                   (tak57 (tak58 (- x 1) y z)
                       (tak59 (- y 1) z x)
                       (tak60 (- z 1) x y))))
(define (tak90 x y z)
               (if (not (< y x)) z
                   (tak61 (tak62 (- x 1) y z)
                       (tak63 (- y 1) z x)
                       (tak64 (- z 1) x y))))
(define (tak91 x y z)
               (if (not (< y x)) z
                   (tak65 (tak66 (- x 1) y z)
                       (tak67 (- y 1) z x)
                       (tak68 (- z 1) x y))))
(define (tak92 x y z)
               (if (not (< y x)) z
                   (tak69 (tak70 (- x 1) y z)
                       (tak71 (- y 1) z x)
                       (tak72 (- z 1) x y))))
(define (tak93 x y z)
               (if (not (< y x)) z
                   (tak73 (tak74 (- x 1) y z)
                       (tak75 (- y 1) z x)
                       (tak76 (- z 1) x y))))
(define (tak94 x y z)
               (if (not (< y x)) z
                   (tak77 (tak78 (- x 1) y z)
                       (tak79 (- y 1) z x)
                       (tak80 (- z 1) x y))))
(define (tak95 x y z)
               (if (not (< y x)) z
                   (tak81 (tak82 (- x 1) y z)
                       (tak83 (- y 1) z x)
                       (tak84 (- z 1) x y))))
(define (tak96 x y z)
               (if (not (< y x)) z
                   (tak85 (tak86 (- x 1) y z)
                       (tak87 (- y 1) z x)
                       (tak88 (- z 1) x y))))
(define (tak97 x y z)
               (if (not (< y x)) z
                   (tak89 (tak90 (- x 1) y z)
                       (tak91 (- y 1) z x)
                       (tak92 (- z 1) x y))))
(define (tak98 x y z)
               (if (not (< y x)) z
                   (tak93 (tak94 (- x 1) y z)
                       (tak95 (- y 1) z x)
                       (tak96 (- z 1) x y))))
(define (tak99 x y z)
               (if (not (< y x)) z
                   (tak97 (tak98 (- x 1) y z)
                       (tak99 (- y 1) z x)
                       (tak0 (- z 1) x y))))
(tak0 18 12 6)