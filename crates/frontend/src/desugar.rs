//! Expansion of derived forms into the core language.
//!
//! Handles `quote`, `if`, `begin`, `lambda`, `let` (incl. named),
//! `let*`, `letrec`, `cond`, `and`, `or`, `when`, `unless`, `do`,
//! `set!`, internal `define`s, and the variadic constructors `list` and
//! `vector`.
//!
//! The desugarer reads data [`read`](lesgs_sexpr::read) lent from the
//! source text and lends the same names to the tree it builds: a
//! variable is the `&str` its symbol held, and keywords and generated
//! names (`cons`, `%or-tmp`, `%do-loop`) are `&'static str`. Two
//! things are copied: `quote`'s datum, which becomes an owned
//! [`Const`], and a named lambda's procedure name, which becomes the
//! name of its compiled function.

use std::fmt;

use lesgs_sexpr::Datum;

use crate::ast::{datum_within_depth, Const, Expr, Lambda, DATUM_MAX_DEPTH};

/// An error found while expanding a derived form.
#[derive(Debug, Clone, PartialEq)]
pub struct DesugarError {
    /// Human-readable description including the offending form.
    pub message: String,
}

impl DesugarError {
    fn new(message: impl Into<String>) -> DesugarError {
        DesugarError {
            message: message.into(),
        }
    }
}

impl fmt::Display for DesugarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "desugar error: {}", self.message)
    }
}

impl std::error::Error for DesugarError {}

type Result<T> = std::result::Result<T, DesugarError>;

/// A surface expression whose names are lent from the source text.
pub type SurfaceExpr<'a> = Expr<&'a str>;

/// A datum as the reader lends it.
type Form<'a> = Datum<&'a str>;

fn err<T>(msg: impl Into<String>) -> Result<T> {
    Err(DesugarError::new(msg))
}

fn expect_symbol<'a>(d: &Form<'a>, what: &str) -> Result<&'a str> {
    match d {
        Datum::Symbol(s) => Ok(s),
        _ => err(format!("expected {what}, found `{d}`")),
    }
}

/// Desugars each of `forms`, in order.
fn exprs<'a>(forms: &[Form<'a>]) -> Result<Vec<SurfaceExpr<'a>>> {
    let mut out = Vec::with_capacity(forms.len());
    for f in forms {
        out.push(expr(f)?);
    }
    Ok(out)
}

fn params<'a>(forms: &[Form<'a>]) -> Result<Vec<&'a str>> {
    let mut out = Vec::with_capacity(forms.len());
    for p in forms {
        out.push(expect_symbol(p, "parameter name")?);
    }
    Ok(out)
}

/// A quoted datum as a constant, its names copied out of the source
/// text. Data nested past [`DATUM_MAX_DEPTH`] are rejected, since the
/// `.lbc` reader would refuse the compiled program.
fn quote_to_expr<'a>(d: &Form<'_>) -> Result<SurfaceExpr<'a>> {
    if !datum_within_depth(d) {
        return err(format!(
            "quoted datum nests more than {DATUM_MAX_DEPTH} levels deep"
        ));
    }
    Ok(Expr::Const(match d {
        Datum::Fixnum(n) => Const::Fixnum(*n),
        Datum::Bool(b) => Const::Bool(*b),
        Datum::Char(c) => Const::Char(*c),
        Datum::Str(s) => Const::Str(s.clone()),
        Datum::Symbol(s) => Const::Symbol((*s).to_owned()),
        Datum::List(items) if items.is_empty() => Const::Nil,
        other => Const::Datum(other.to_owned_datum()),
    }))
}

/// Splits a `define` form into `(name, expression)`, expanding the
/// `(define (f args...) body...)` procedure shorthand.
pub fn split_define<'a>(form: &[Form<'a>]) -> Result<(&'a str, SurfaceExpr<'a>)> {
    match form {
        [_, Datum::Symbol(name), rhs] => Ok((name, expr(rhs)?)),
        [_, Datum::Symbol(name)] => Ok((name, Expr::Const(Const::Void))),
        [_, Datum::List(header), rest @ ..] if !rest.is_empty() => {
            let [name_d, ps @ ..] = header.as_slice() else {
                return err("malformed define header");
            };
            let name = expect_symbol(name_d, "procedure name")?;
            let lam = Lambda {
                params: params(ps)?,
                body: Box::new(body(rest)?),
                name: Some(name.to_owned()),
            };
            Ok((name, Expr::Lambda(lam)))
        }
        [_, Datum::Improper(_, _), ..] => err("rest (variadic) parameters are not supported"),
        _ => err(format!("malformed define: {}", Datum::List(form.to_vec()))),
    }
}

/// Expands the body of a `lambda`, `let`, …: leading internal
/// `define`s become a `letrec` (they must all define procedures).
pub fn body<'a>(forms: &[Form<'a>]) -> Result<SurfaceExpr<'a>> {
    if forms.is_empty() {
        return err("empty body");
    }
    let n_defs = forms.iter().take_while(|f| f.is_form("define")).count();
    let (defs, tail) = forms.split_at(n_defs);
    if tail.iter().any(|f| f.is_form("define")) {
        return err("internal defines must precede body expressions");
    }
    let rest = Expr::seq(exprs(tail)?);
    if defs.is_empty() {
        return Ok(rest);
    }
    let mut bindings = Vec::with_capacity(defs.len());
    for d in defs {
        let items = d.as_slice().expect("define form is a list");
        let (name, rhs) = split_define(items)?;
        match rhs {
            Expr::Lambda(l) => bindings.push((name, l)),
            _ => {
                return err(format!(
                    "internal define of `{name}` must define a procedure"
                ))
            }
        }
    }
    let names: Vec<&str> = bindings.iter().map(|(n, _)| *n).collect();
    if forms.iter().any(|d| datum_assigns_any(d, &names)) {
        return err("set! of an internally defined procedure is not supported");
    }
    Ok(Expr::Letrec(bindings, Box::new(rest)))
}

fn binding_pairs<'a>(d: &Form<'a>) -> Result<Vec<(&'a str, SurfaceExpr<'a>)>> {
    let items = d
        .as_slice()
        .ok_or_else(|| DesugarError::new(format!("expected bindings, found `{d}`")))?;
    let mut out = Vec::with_capacity(items.len());
    for b in items {
        match b.as_slice() {
            Some([name, init]) => out.push((expect_symbol(name, "binding name")?, expr(init)?)),
            _ => return err(format!("malformed binding `{b}`")),
        }
    }
    Ok(out)
}

fn lambda_form<'a>(rest: &[Form<'a>]) -> Result<SurfaceExpr<'a>> {
    let [params_d, body_forms @ ..] = rest else {
        return err("malformed lambda");
    };
    let params = match params_d {
        Datum::List(ps) => params(ps)?,
        Datum::Symbol(_) | Datum::Improper(..) => {
            return err("rest (variadic) parameters are not supported")
        }
        other => return err(format!("malformed parameter list `{other}`")),
    };
    Ok(Expr::Lambda(Lambda {
        params,
        body: Box::new(body(body_forms)?),
        name: None,
    }))
}

fn let_form<'a>(rest: &[Form<'a>]) -> Result<SurfaceExpr<'a>> {
    match rest {
        // Named let: (let loop ((v init) ...) body ...)
        [Datum::Symbol(name), bindings_d, body_forms @ ..] => {
            let bindings = binding_pairs(bindings_d)?;
            let (params, inits): (Vec<_>, Vec<_>) = bindings.into_iter().unzip();
            let lam = Lambda {
                params,
                body: Box::new(body(body_forms)?),
                name: Some((*name).to_owned()),
            };
            Ok(Expr::Letrec(
                vec![(*name, lam)],
                Box::new(Expr::App(Box::new(Expr::Var(*name)), inits)),
            ))
        }
        [bindings_d, body_forms @ ..] if !body_forms.is_empty() => {
            let bindings = binding_pairs(bindings_d)?;
            Ok(Expr::Let(bindings, Box::new(body(body_forms)?)))
        }
        _ => err("malformed let"),
    }
}

fn let_star_form<'a>(rest: &[Form<'a>]) -> Result<SurfaceExpr<'a>> {
    let [bindings_d, body_forms @ ..] = rest else {
        return err("malformed let*");
    };
    let bindings = binding_pairs(bindings_d)?;
    let mut result = body(body_forms)?;
    for (name, init) in bindings.into_iter().rev() {
        result = Expr::Let(vec![(name, init)], Box::new(result));
    }
    Ok(result)
}

/// Conservative datum-level scan: does `d` contain `(set! name ...)`
/// for any of `names`? Shadowing is ignored, so this may over-report,
/// which only costs the direct-call optimization, never correctness.
fn datum_assigns_any(d: &Form<'_>, names: &[&str]) -> bool {
    match d {
        Datum::List(items) => {
            if let [head, Datum::Symbol(target), ..] = items.as_slice() {
                if head.as_symbol() == Some("set!") && names.contains(target) {
                    return true;
                }
            }
            items.iter().any(|i| datum_assigns_any(i, names))
        }
        _ => false,
    }
}

fn letrec_form<'a>(rest: &[Form<'a>]) -> Result<SurfaceExpr<'a>> {
    let [bindings_d, body_forms @ ..] = rest else {
        return err("malformed letrec");
    };
    let bindings = binding_pairs(bindings_d)?;
    let inner = body(body_forms)?;
    let names: Vec<&str> = bindings.iter().map(|(n, _)| *n).collect();
    let assigned = rest.iter().any(|d| datum_assigns_any(d, &names));
    let all_lambdas = !assigned && bindings.iter().all(|(_, e)| matches!(e, Expr::Lambda(_)));
    if all_lambdas {
        let bindings = bindings
            .into_iter()
            .map(|(name, e)| match e {
                Expr::Lambda(mut l) => {
                    l.name.get_or_insert_with(|| name.to_owned());
                    (name, l)
                }
                _ => unreachable!("checked all_lambdas"),
            })
            .collect();
        Ok(Expr::Letrec(bindings, Box::new(inner)))
    } else {
        // General letrec: bind all names to #f, then assign in order.
        // Assignment conversion will box the names.
        let mut seq: Vec<SurfaceExpr> = bindings
            .into_iter()
            .map(|(n, e)| Expr::Set(n, Box::new(e)))
            .collect();
        seq.push(inner);
        Ok(Expr::Let(
            names
                .into_iter()
                .map(|n| (n, Expr::Const(Const::Bool(false))))
                .collect(),
            Box::new(Expr::seq(seq)),
        ))
    }
}

fn cond_form<'a>(rest: &[Form<'a>]) -> Result<SurfaceExpr<'a>> {
    let mut result = Expr::Const(Const::Void);
    for clause in rest.iter().rev() {
        let Some(items) = clause.as_slice() else {
            return err(format!("malformed cond clause `{clause}`"));
        };
        match items {
            [] => return err("empty cond clause"),
            [Datum::Symbol("else"), actions @ ..] => {
                if actions.is_empty() {
                    return err("empty else clause");
                }
                result = Expr::seq(exprs(actions)?);
            }
            [test] => {
                // (cond (e) rest...) => (or e rest...)
                result = or2(expr(test)?, result);
            }
            [test, actions @ ..] => {
                result = Expr::If(
                    Box::new(expr(test)?),
                    Box::new(Expr::seq(exprs(actions)?)),
                    Box::new(result),
                );
            }
        }
    }
    Ok(result)
}

/// `(or a b)` modeled as `(let ((t a)) (if t t b))` per §2.1.2 of the
/// paper (short-circuit booleans are `if` expressions).
fn or2<'a>(a: SurfaceExpr<'a>, b: SurfaceExpr<'a>) -> SurfaceExpr<'a> {
    // Fresh-ish temporary; the renamer handles shadowing correctly, and
    // `%or` cannot be captured because it is not a legal source symbol
    // from user code perspective (we still rename it hygienically).
    let tmp = "%or-tmp";
    Expr::Let(
        vec![(tmp, a)],
        Box::new(Expr::If(
            Box::new(Expr::Var(tmp)),
            Box::new(Expr::Var(tmp)),
            Box::new(b),
        )),
    )
}

fn and_form<'a>(rest: &[Form<'a>]) -> Result<SurfaceExpr<'a>> {
    match rest {
        [] => Ok(Expr::Const(Const::Bool(true))),
        [single] => expr(single),
        [first, more @ ..] => Ok(Expr::If(
            Box::new(expr(first)?),
            Box::new(and_form(more)?),
            Box::new(Expr::Const(Const::Bool(false))),
        )),
    }
}

fn or_form<'a>(rest: &[Form<'a>]) -> Result<SurfaceExpr<'a>> {
    match rest {
        [] => Ok(Expr::Const(Const::Bool(false))),
        [single] => expr(single),
        [first, more @ ..] => Ok(or2(expr(first)?, or_form(more)?)),
    }
}

fn do_form<'a>(rest: &[Form<'a>]) -> Result<SurfaceExpr<'a>> {
    let [specs_d, exit_d, commands @ ..] = rest else {
        return err("malformed do");
    };
    let Some(specs) = specs_d.as_slice() else {
        return err("malformed do bindings");
    };
    let mut params = Vec::new();
    let mut inits = Vec::new();
    let mut steps = Vec::new();
    for spec in specs {
        match spec.as_slice() {
            Some([name, init]) => {
                let name = expect_symbol(name, "do variable")?;
                inits.push(expr(init)?);
                steps.push(Expr::Var(name));
                params.push(name);
            }
            Some([name, init, step]) => {
                params.push(expect_symbol(name, "do variable")?);
                inits.push(expr(init)?);
                steps.push(expr(step)?);
            }
            _ => return err(format!("malformed do spec `{spec}`")),
        }
    }
    let Some([test, results @ ..]) = exit_d.as_slice() else {
        return err("malformed do exit clause");
    };
    let result = if results.is_empty() {
        Expr::Const(Const::Void)
    } else {
        Expr::seq(exprs(results)?)
    };
    let loop_name = "%do-loop";
    let mut loop_body = exprs(commands)?;
    loop_body.push(Expr::App(Box::new(Expr::Var(loop_name)), steps));
    let lam = Lambda {
        params,
        body: Box::new(Expr::If(
            Box::new(expr(test)?),
            Box::new(result),
            Box::new(Expr::seq(loop_body)),
        )),
        name: Some(loop_name.to_owned()),
    };
    Ok(Expr::Letrec(
        vec![(loop_name, lam)],
        Box::new(Expr::App(Box::new(Expr::Var(loop_name)), inits)),
    ))
}

fn list_form<'a>(rest: &[Form<'a>]) -> Result<SurfaceExpr<'a>> {
    let mut result = Expr::Const(Const::Nil);
    for item in rest.iter().rev() {
        result = Expr::App(Box::new(Expr::Var("cons")), vec![expr(item)?, result]);
    }
    Ok(result)
}

fn vector_form<'a>(rest: &[Form<'a>]) -> Result<SurfaceExpr<'a>> {
    // (vector e1 ... en) =>
    // (let ((%v (make-vector n))) (vector-set! %v 0 e1) ... %v)
    let tmp = "%vec-tmp";
    let n = rest.len() as i64;
    let mut seq = Vec::with_capacity(rest.len() + 1);
    for (i, item) in rest.iter().enumerate() {
        seq.push(Expr::App(
            Box::new(Expr::Var("vector-set!")),
            vec![
                Expr::Var(tmp),
                Expr::Const(Const::Fixnum(i as i64)),
                expr(item)?,
            ],
        ));
    }
    seq.push(Expr::Var(tmp));
    Ok(Expr::Let(
        vec![(
            tmp,
            Expr::App(
                Box::new(Expr::Var("make-vector")),
                vec![Expr::Const(Const::Fixnum(n))],
            ),
        )],
        Box::new(Expr::seq(seq)),
    ))
}

/// Desugars one expression datum into the core language.
///
/// # Errors
///
/// Returns a [`DesugarError`] for malformed special forms, unsupported
/// features (variadic lambdas, `quasiquote`, `call/cc`), and misplaced
/// `define`s.
///
/// # Examples
///
/// ```
/// use lesgs_frontend::desugar::expr;
/// use lesgs_sexpr::read;
///
/// let e = expr(&read("(when a b)").unwrap()[0]).unwrap();
/// assert_eq!(e.to_string(), "(if a b #<void>)");
/// ```
pub fn expr<'a>(d: &Form<'a>) -> Result<SurfaceExpr<'a>> {
    match d {
        Datum::Fixnum(n) => Ok(Expr::Const(Const::Fixnum(*n))),
        Datum::Bool(b) => Ok(Expr::Const(Const::Bool(*b))),
        Datum::Char(c) => Ok(Expr::Const(Const::Char(*c))),
        Datum::Str(s) => Ok(Expr::Const(Const::Str(s.clone()))),
        Datum::Symbol(s) => Ok(Expr::Var(s)),
        Datum::Vector(_) => quote_to_expr(d),
        Datum::Improper(..) => err(format!("unexpected dotted list `{d}`")),
        Datum::List(items) => {
            let [head, rest @ ..] = items.as_slice() else {
                return err("empty application `()`");
            };
            if let Some(sym) = head.as_symbol() {
                match sym {
                    "quote" => {
                        let [q] = rest else {
                            return err("malformed quote");
                        };
                        return quote_to_expr(q);
                    }
                    "if" => {
                        return match rest {
                            [c, t] => Ok(Expr::If(
                                Box::new(expr(c)?),
                                Box::new(expr(t)?),
                                Box::new(Expr::Const(Const::Void)),
                            )),
                            [c, t, e] => Ok(Expr::If(
                                Box::new(expr(c)?),
                                Box::new(expr(t)?),
                                Box::new(expr(e)?),
                            )),
                            _ => err("malformed if"),
                        };
                    }
                    "begin" => {
                        return if rest.is_empty() {
                            Ok(Expr::Const(Const::Void))
                        } else {
                            Ok(Expr::seq(exprs(rest)?))
                        };
                    }
                    "set!" => {
                        let [name, rhs] = rest else {
                            return err("malformed set!");
                        };
                        let name = expect_symbol(name, "set! target")?;
                        return Ok(Expr::Set(name, Box::new(expr(rhs)?)));
                    }
                    "lambda" => return lambda_form(rest),
                    "let" => return let_form(rest),
                    "let*" => return let_star_form(rest),
                    "letrec" | "letrec*" => return letrec_form(rest),
                    "cond" => return cond_form(rest),
                    "and" => return and_form(rest),
                    "or" => return or_form(rest),
                    "when" => {
                        let [test, actions @ ..] = rest else {
                            return err("malformed when");
                        };
                        if actions.is_empty() {
                            return err("malformed when");
                        }
                        return Ok(Expr::If(
                            Box::new(expr(test)?),
                            Box::new(Expr::seq(exprs(actions)?)),
                            Box::new(Expr::Const(Const::Void)),
                        ));
                    }
                    "unless" => {
                        let [test, actions @ ..] = rest else {
                            return err("malformed unless");
                        };
                        if actions.is_empty() {
                            return err("malformed unless");
                        }
                        return Ok(Expr::If(
                            Box::new(expr(test)?),
                            Box::new(Expr::Const(Const::Void)),
                            Box::new(Expr::seq(exprs(actions)?)),
                        ));
                    }
                    "do" => return do_form(rest),
                    "list" => return list_form(rest),
                    "vector" => return vector_form(rest),
                    "define" => {
                        return err("define is only allowed at top level or at the start of a body")
                    }
                    "quasiquote" | "unquote" => {
                        return err("quasiquote is not supported; use quote and cons")
                    }
                    "call/cc" | "call-with-current-continuation" => {
                        return err("first-class continuations are not supported")
                    }
                    "case" => return err("case is not supported; use cond"),
                    _ => {}
                }
            }
            // Ordinary application.
            let head = expr(head)?;
            Ok(Expr::App(Box::new(head), exprs(rest)?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lesgs_sexpr::read;

    fn de(src: &str) -> String {
        expr(&read(src).unwrap()[0]).unwrap().to_string()
    }

    fn de_err(src: &str) -> DesugarError {
        expr(&read(src).unwrap()[0]).unwrap_err()
    }

    #[test]
    fn atoms_and_quotes() {
        assert_eq!(de("42"), "42");
        assert_eq!(de("#f"), "#f");
        assert_eq!(de("'sym"), "'sym");
        assert_eq!(de("'()"), "'()");
        assert_eq!(de("'(1 2)"), "'(1 2)");
        assert_eq!(de("\"s\""), "\"s\"");
    }

    #[test]
    fn if_fills_missing_else() {
        assert_eq!(de("(if a b)"), "(if a b #<void>)");
        assert_eq!(de("(if a b c)"), "(if a b c)");
    }

    #[test]
    fn and_or_expand_to_ifs() {
        assert_eq!(de("(and)"), "#t");
        assert_eq!(de("(or)"), "#f");
        assert_eq!(de("(and a b)"), "(if a b #f)");
        assert_eq!(de("(or a b)"), "(let ((%or-tmp a)) (if %or-tmp %or-tmp b))");
    }

    #[test]
    fn named_let_becomes_letrec() {
        let s = de("(let loop ((i 0)) (loop i))");
        assert!(s.starts_with("(letrec ((loop (lambda (i)"), "{s}");
        assert!(s.ends_with("(loop 0))"), "{s}");
    }

    #[test]
    fn let_star_nests() {
        assert_eq!(
            de("(let* ((a 1) (b a)) b)"),
            "(let ((a 1)) (let ((b a)) b))"
        );
    }

    #[test]
    fn letrec_value_rhs_uses_set() {
        let s = de("(letrec ((x 1) (f (lambda () x))) x)");
        assert!(s.starts_with("(let ((x #f) (f #f))"), "{s}");
        assert!(s.contains("(set! x 1)"), "{s}");
    }

    #[test]
    fn cond_chains() {
        assert_eq!(de("(cond (a 1) (else 2))"), "(if a 1 2)");
        assert_eq!(de("(cond (a 1) (b 2))"), "(if a 1 (if b 2 #<void>))");
        // Test-only clause goes through `or`.
        assert!(de("(cond (a) (else 2))").contains("%or-tmp"));
    }

    #[test]
    fn do_loops() {
        let s = de("(do ((i 0 (+ i 1))) ((= i 10) i) (f i))");
        assert!(s.contains("%do-loop"), "{s}");
        assert!(s.contains("(f i)"), "{s}");
    }

    #[test]
    fn do_without_step_keeps_variable() {
        // (v init) with no step re-binds the same value each iteration.
        let s = de("(do ((i 0 (+ i 1)) (k 5)) ((= i k) k))");
        assert!(s.contains("(%do-loop (+ i 1) k)"), "{s}");
    }

    #[test]
    fn do_without_result_yields_void() {
        let s = de("(do ((i 0 (+ i 1))) ((= i 3)))");
        assert!(s.contains("#<void>"), "{s}");
    }

    #[test]
    fn list_and_vector_expand() {
        assert_eq!(de("(list 1 2)"), "(cons 1 (cons 2 '()))");
        let v = de("(vector 1 2)");
        assert!(v.contains("make-vector"), "{v}");
        assert!(v.contains("vector-set!"), "{v}");
    }

    #[test]
    fn internal_defines() {
        let s = de("(lambda (x) (define (f y) y) (f x))");
        assert!(s.contains("letrec"), "{s}");
    }

    #[test]
    fn errors() {
        assert!(de_err("()").message.contains("empty application"));
        assert!(de_err("(lambda args 1)").message.contains("variadic"));
        assert!(de_err("(define x 1)").message.contains("top level"));
        assert!(de_err("(call/cc f)").message.contains("continuations"));
        assert!(de_err("(lambda (x) (define y 1) y)")
            .message
            .contains("procedure"));
    }

    #[test]
    fn define_split() {
        let d = read("(define (f a b) (+ a b))").unwrap();
        let (name, e) = split_define(d[0].as_slice().unwrap()).unwrap();
        assert_eq!(name, "f");
        assert!(matches!(e, Expr::Lambda(_)));
        let d = read("(define x 42)").unwrap();
        let (name, e) = split_define(d[0].as_slice().unwrap()).unwrap();
        assert_eq!(name, "x");
        assert_eq!(e, Expr::Const(Const::Fixnum(42)));
    }
}
