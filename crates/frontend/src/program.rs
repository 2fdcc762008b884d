//! Top-level program assembly.
//!
//! A program is a sequence of top-level `define`s and expressions. We
//! assemble it into a single core expression:
//!
//! ```text
//! (let ((v1 #f) ... )                ; value defines (and set! targets)
//!   (letrec ((f1 (lambda ...)) ...)  ; procedure defines
//!     (begin (set! v1 e1) ... main ...)))
//! ```
//!
//! Procedure defines stay in a `letrec` so calls to them can be direct;
//! value defines are initialized in source order through `set!` (and
//! thus boxed by assignment conversion), which mirrors Scheme top-level
//! semantics closely enough for the benchmark suite.
//!
//! The standard prelude (list and vector utilities written in
//! mini-Scheme) is appended automatically; unused prelude definitions
//! are pruned by a reachability pass so they do not distort static
//! statistics. The prelude is read, desugared and indexed once per
//! process, so a compile's frontend work scales with the user's source.

use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

use lesgs_sexpr::{parse, Datum};

use crate::ast::{Const, Expr, Lambda};
use crate::desugar::{self, SurfaceExpr};
use crate::FrontError;

/// The standard library, written in the source language itself.
pub const PRELUDE: &str = r#"
(define (caar p) (car (car p)))
(define (cadr p) (car (cdr p)))
(define (cdar p) (cdr (car p)))
(define (cddr p) (cdr (cdr p)))
(define (caddr p) (car (cddr p)))
(define (cdadr p) (cdr (car (cdr p))))
(define (cddar p) (cdr (cdr (car p))))
(define (caadr p) (car (car (cdr p))))
(define (cdddr p) (cdr (cddr p)))
(define (cadddr p) (car (cdddr p)))
(define (length l)
  (let loop ((l l) (n 0))
    (if (null? l) n (loop (cdr l) (+ n 1)))))
(define (append a b)
  (if (null? a) b (cons (car a) (append (cdr a) b))))
(define (reverse l)
  (let loop ((l l) (acc '()))
    (if (null? l) acc (loop (cdr l) (cons (car l) acc)))))
(define (list-tail l k)
  (if (zero? k) l (list-tail (cdr l) (- k 1))))
(define (list-ref l k) (car (list-tail l k)))
(define (last-pair l)
  (if (null? (cdr l)) l (last-pair (cdr l))))
(define (list-copy l)
  (if (null? l) '() (cons (car l) (list-copy (cdr l)))))
(define (memq x l)
  (cond ((null? l) #f)
        ((eq? x (car l)) l)
        (else (memq x (cdr l)))))
(define (memv x l)
  (cond ((null? l) #f)
        ((eqv? x (car l)) l)
        (else (memv x (cdr l)))))
(define (member x l)
  (cond ((null? l) #f)
        ((equal? x (car l)) l)
        (else (member x (cdr l)))))
(define (assq x l)
  (cond ((null? l) #f)
        ((eq? x (car (car l))) (car l))
        (else (assq x (cdr l)))))
(define (assv x l)
  (cond ((null? l) #f)
        ((eqv? x (car (car l))) (car l))
        (else (assv x (cdr l)))))
(define (assoc x l)
  (cond ((null? l) #f)
        ((equal? x (car (car l))) (car l))
        (else (assoc x (cdr l)))))
(define (map f l)
  (if (null? l) '() (cons (f (car l)) (map f (cdr l)))))
(define (map2 f l1 l2)
  (if (null? l1)
      '()
      (cons (f (car l1) (car l2)) (map2 f (cdr l1) (cdr l2)))))
(define (for-each f l)
  (if (null? l)
      (void)
      (begin (f (car l)) (for-each f (cdr l)))))
(define (fold-left f init l)
  (if (null? l) init (fold-left f (f init (car l)) (cdr l))))
(define (fold-right f init l)
  (if (null? l) init (f (car l) (fold-right f init (cdr l)))))
(define (filter p l)
  (cond ((null? l) '())
        ((p (car l)) (cons (car l) (filter p (cdr l))))
        (else (filter p (cdr l)))))
(define (iota n)
  (let loop ((i (- n 1)) (acc '()))
    (if (negative? i) acc (loop (- i 1) (cons i acc)))))
(define (expt b e)
  (if (zero? e) 1 (* b (expt b (- e 1)))))
(define (gcd a b)
  (if (zero? b) (abs a) (gcd b (remainder a b))))
(define (vector-fill! v x)
  (let loop ((i 0))
    (if (< i (vector-length v))
        (begin (vector-set! v i x) (loop (+ i 1)))
        (void))))
(define (vector->list v)
  (let loop ((i (- (vector-length v) 1)) (acc '()))
    (if (negative? i) acc (loop (- i 1) (cons (vector-ref v i) acc)))))
(define (list->vector l)
  (let ((v (make-vector (length l))))
    (let loop ((l l) (i 0))
      (if (null? l)
          v
          (begin (vector-set! v i (car l)) (loop (cdr l) (+ i 1)))))))
"#;

/// A parsed top-level program before renaming.
#[derive(Debug, Clone)]
pub struct SurfaceProgram {
    /// Top-level `define`s in source order.
    pub defines: Vec<(String, SurfaceExpr)>,
    /// Remaining top-level expressions in source order.
    pub mains: Vec<SurfaceExpr>,
    /// Names that appear as `set!` targets anywhere in the user source;
    /// defines of these names cannot live in the `letrec`.
    pub set_targets: HashSet<String>,
}

fn collect_set_targets(d: &Datum, out: &mut HashSet<String>) {
    if let Datum::List(items) = d {
        if let [head, Datum::Symbol(target), ..] = items.as_slice() {
            if head.as_symbol() == Some("set!") {
                out.insert(target.clone());
            }
        }
        for item in items {
            collect_set_targets(item, out);
        }
    }
}

/// Free source names of a surface expression (binders respected).
pub fn free_names(e: &SurfaceExpr, bound: &mut Vec<String>, out: &mut HashSet<String>) {
    match e {
        Expr::Const(_) | Expr::Global(_) => {}
        Expr::Var(n) => {
            if !bound.contains(n) {
                out.insert(n.clone());
            }
        }
        Expr::Set(n, rhs) => {
            if !bound.contains(n) {
                out.insert(n.clone());
            }
            free_names(rhs, bound, out);
        }
        Expr::GlobalSet(_, rhs) => free_names(rhs, bound, out),
        Expr::If(c, t, el) => {
            free_names(c, bound, out);
            free_names(t, bound, out);
            free_names(el, bound, out);
        }
        Expr::Seq(es) => {
            for e in es {
                free_names(e, bound, out);
            }
        }
        Expr::Lambda(l) => {
            let depth = bound.len();
            bound.extend(l.params.iter().cloned());
            free_names(&l.body, bound, out);
            bound.truncate(depth);
        }
        Expr::Let(bs, body) => {
            for (_, rhs) in bs {
                free_names(rhs, bound, out);
            }
            let depth = bound.len();
            bound.extend(bs.iter().map(|(n, _)| n.clone()));
            free_names(body, bound, out);
            bound.truncate(depth);
        }
        Expr::Letrec(bs, body) => {
            let depth = bound.len();
            bound.extend(bs.iter().map(|(n, _)| n.clone()));
            for (_, l) in bs {
                let d2 = bound.len();
                bound.extend(l.params.iter().cloned());
                free_names(&l.body, bound, out);
                bound.truncate(d2);
            }
            free_names(body, bound, out);
            bound.truncate(depth);
        }
        Expr::App(f, args) => {
            free_names(f, bound, out);
            for a in args {
                free_names(a, bound, out);
            }
        }
        Expr::PrimApp(_, args) => {
            for a in args {
                free_names(a, bound, out);
            }
        }
    }
}

/// One desugared prelude define.
struct PreludeDefine {
    name: String,
    rhs: SurfaceExpr,
    /// Indices of the prelude defines `rhs` names freely.
    deps: Vec<usize>,
}

/// The prelude, desugared and indexed.
struct Prelude {
    /// Defines in prelude order.
    defines: Vec<PreludeDefine>,
    /// Name → index into `defines`.
    index: HashMap<String, usize>,
}

/// The process-wide prelude, built by the first compile. A `OnceLock`
/// rather than a thread-local: the service and the interpreter compile
/// on threads they spawn per batch or per evaluation.
fn prelude() -> &'static Prelude {
    static PRELUDE_DEFINES: OnceLock<Prelude> = OnceLock::new();
    PRELUDE_DEFINES.get_or_init(|| {
        let mut defines = Vec::new();
        let mut index = HashMap::new();
        for form in parse(PRELUDE).expect("prelude parses") {
            let items = form.as_slice().expect("prelude form is a list");
            let (name, rhs) = desugar::split_define(items).expect("prelude desugars");
            index.insert(name.clone(), defines.len());
            defines.push((name, rhs));
        }
        let defines = defines
            .into_iter()
            .map(|(name, rhs)| {
                let mut free = HashSet::new();
                free_names(&rhs, &mut Vec::new(), &mut free);
                let deps = free.iter().filter_map(|n| index.get(n).copied()).collect();
                PreludeDefine { name, rhs, deps }
            })
            .collect();
        Prelude { defines, index }
    })
}

impl SurfaceProgram {
    /// Parses and desugars a program from source text. The standard
    /// prelude is appended; user definitions shadow prelude ones.
    ///
    /// # Errors
    ///
    /// Returns [`FrontError`] on reader or desugaring failures.
    pub fn from_source(src: &str) -> Result<SurfaceProgram, FrontError> {
        let user_forms = parse(src).map_err(|e| FrontError::Parse(e.to_string()))?;

        let mut set_targets = HashSet::new();
        for d in &user_forms {
            collect_set_targets(d, &mut set_targets);
        }

        let mut defines: Vec<(String, SurfaceExpr)> = Vec::new();
        let mut mains = Vec::new();
        for form in &user_forms {
            if form.is_form("define") {
                let items = form.as_slice().expect("define is a list");
                defines.push(desugar::split_define(items)?);
            } else {
                mains.push(desugar::expr(form)?);
            }
        }

        // Prune prelude definitions not transitively reachable from the
        // user program; a user definition shadows the prelude one of
        // the same name, which is then neither reached nor kept.
        let prelude = prelude();
        // done[i]: prelude define i is shadowed or already reached.
        let mut done = vec![false; prelude.defines.len()];
        for (name, _) in &defines {
            if let Some(&i) = prelude.index.get(name) {
                done[i] = true;
            }
        }
        let mut user_free = HashSet::new();
        for e in defines.iter().map(|(_, rhs)| rhs).chain(&mains) {
            free_names(e, &mut Vec::new(), &mut user_free);
        }
        let mut stack: Vec<usize> = user_free
            .iter()
            .filter_map(|n| prelude.index.get(n).copied())
            .collect();
        let mut wanted = Vec::new();
        while let Some(i) = stack.pop() {
            if !done[i] {
                done[i] = true;
                wanted.push(i);
                stack.extend(&prelude.defines[i].deps);
            }
        }
        wanted.sort_unstable();

        // Keep prelude order for determinism, prepending before user code.
        let mut all_defines: Vec<(String, SurfaceExpr)> = wanted
            .into_iter()
            .map(|i| {
                let d = &prelude.defines[i];
                (d.name.clone(), d.rhs.clone())
            })
            .collect();
        all_defines.extend(defines);

        if mains.is_empty() {
            mains.push(Expr::Const(Const::Void));
        }

        Ok(SurfaceProgram {
            defines: all_defines,
            mains,
            set_targets,
        })
    }

    /// Assembles the program into one core expression plus the list of
    /// global names (top-level value defines and `set!` targets), in
    /// slot order. Globals live in dedicated locations rather than in
    /// boxed cells captured by closures, mirroring Chez's global cells.
    pub fn assemble(self) -> (SurfaceExpr, Vec<String>) {
        let mut fun_defs: Vec<(String, Lambda<String>)> = Vec::new();
        let mut val_defs: Vec<(String, SurfaceExpr)> = Vec::new();
        for (name, rhs) in self.defines {
            match rhs {
                Expr::Lambda(mut l) if !self.set_targets.contains(&name) => {
                    l.name.get_or_insert_with(|| name.clone());
                    fun_defs.push((name, l));
                }
                rhs => val_defs.push((name, rhs)),
            }
        }

        let globals: Vec<String> = val_defs.iter().map(|(n, _)| n.clone()).collect();
        let mut seq: Vec<SurfaceExpr> = val_defs
            .into_iter()
            .map(|(n, rhs)| Expr::Set(n, Box::new(rhs)))
            .collect();
        seq.extend(self.mains);
        let mut body = Expr::seq(seq);

        if !fun_defs.is_empty() {
            body = Expr::Letrec(fun_defs, Box::new(body));
        }
        (body, globals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_program() {
        let p = SurfaceProgram::from_source("(define (f x) x) (f 1)").unwrap();
        let (e, _) = p.assemble();
        let s = e.to_string();
        assert!(s.contains("letrec"), "{s}");
        assert!(s.contains("(f 1)"), "{s}");
    }

    #[test]
    fn value_defines_are_initialized_in_order() {
        let p = SurfaceProgram::from_source("(define a 1) (define b 2) (+ a b)").unwrap();
        let s = p.assemble().0.to_string();
        let ia = s.find("(set! a 1)").unwrap();
        let ib = s.find("(set! b 2)").unwrap();
        assert!(ia < ib, "{s}");
    }

    #[test]
    fn set_function_demotes_to_value() {
        let p = SurfaceProgram::from_source("(define (f) 1) (set! f (lambda () 2)) (f)").unwrap();
        let s = p.assemble().0.to_string();
        assert!(s.contains("(set! f (lambda"), "{s}");
        assert!(!s.contains("letrec ((f"), "{s}");
    }

    #[test]
    fn prelude_is_pruned() {
        let p = SurfaceProgram::from_source("(length '(1 2))").unwrap();
        let names: Vec<&str> = p.defines.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"length"));
        assert!(!names.contains(&"assoc"));
    }

    #[test]
    fn prelude_transitive_dependencies() {
        // list-ref depends on list-tail.
        let p = SurfaceProgram::from_source("(list-ref '(1 2 3) 1)").unwrap();
        let names: Vec<&str> = p.defines.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"list-ref"));
        assert!(names.contains(&"list-tail"));
    }

    #[test]
    fn user_shadows_prelude() {
        let p = SurfaceProgram::from_source("(define (length l) 42) (length '())").unwrap();
        let count = p.defines.iter().filter(|(n, _)| n == "length").count();
        assert_eq!(count, 1);
    }

    #[test]
    fn value_defines_become_globals() {
        let p = SurfaceProgram::from_source("(define a 1) (define (f) a) (define b 2) (+ (f) b)")
            .unwrap();
        let (_, globals) = p.assemble();
        assert_eq!(globals, vec!["a".to_owned(), "b".to_owned()]);
    }

    #[test]
    fn set_function_define_is_global() {
        let p = SurfaceProgram::from_source("(define (f) 1) (set! f (lambda () 2)) (f)").unwrap();
        let (_, globals) = p.assemble();
        assert_eq!(globals, vec!["f".to_owned()]);
    }

    #[test]
    fn empty_program_yields_void_main() {
        let p = SurfaceProgram::from_source("").unwrap();
        assert_eq!(p.mains.len(), 1);
    }
}
