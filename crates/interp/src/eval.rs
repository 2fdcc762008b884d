//! The evaluator: a tree walker over an explicit continuation stack,
//! with a step budget.

use std::fmt;
use std::rc::Rc;

use lesgs_frontend::{make_vector, Const, Expr, Lambda, Prim, VarId};
use lesgs_sexpr::Datum;

use crate::env::Env;
use crate::value::{ClosureV, PairCell, Value, VectorCell};

/// What went wrong, beyond the rendered message — differential drivers
/// need to tell a timeout apart from a genuine failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InterpErrorKind {
    /// A genuine failure: type error, `(error …)`, unbound variable, or
    /// a frontend rejection.
    #[default]
    Runtime,
    /// A resource budget (steps, or pending non-tail evaluations)
    /// ran out before the program finished. Not a verdict about the
    /// program — only about the budget.
    FuelExhausted,
}

/// How many non-tail evaluations may be pending at once: the length
/// of the continuation stack. Tail calls loop in place and cost no
/// frame, but every non-tail subexpression waits on one — without a
/// bound, runaway non-tail recursion like `(define (f) (+ (f) 0)) (f)`
/// grows the stack until memory runs out instead of ending in a
/// reportable error. One level of `(define (f n) (if (= n 0) 0 (+ 1
/// (f (- n 1))))) (f n)` holds one frame, so the bound admits `(f
/// 100000)` and little more: a runaway program, such as a shrink
/// candidate that lost its depth guard, runs out after a few hundred
/// thousand steps instead of running to its step budget.
const MAX_FRAMES: usize = 1 << 17;

/// A runtime (or fuel) error.
#[derive(Debug, Clone, PartialEq)]
pub struct InterpError {
    /// Human-readable description.
    pub message: String,
    /// Failure class (runtime error vs. fuel exhaustion).
    pub kind: InterpErrorKind,
}

impl InterpError {
    /// Creates a runtime error with the given message.
    pub fn new(message: impl Into<String>) -> InterpError {
        InterpError {
            message: message.into(),
            kind: InterpErrorKind::Runtime,
        }
    }

    /// Creates the fuel-exhaustion error.
    pub fn fuel() -> InterpError {
        InterpError {
            message: "fuel exhausted".to_owned(),
            kind: InterpErrorKind::FuelExhausted,
        }
    }

    /// Creates the recursion-depth error. Classified as budget
    /// exhaustion: like fuel, it is a resource limit, not a verdict
    /// about the program.
    pub fn depth() -> InterpError {
        InterpError {
            message: format!("recursion too deep ({MAX_FRAMES} nested non-tail evals)"),
            kind: InterpErrorKind::FuelExhausted,
        }
    }

    /// True when this error means the step budget ran out (as opposed
    /// to the program being wrong).
    pub fn is_fuel_exhausted(&self) -> bool {
        self.kind == InterpErrorKind::FuelExhausted
    }
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "interpreter error: {}", self.message)
    }
}

impl std::error::Error for InterpError {}

type Result<T> = std::result::Result<T, InterpError>;

/// Interpreter-internal expression: reference-counted so the evaluation
/// loop can move between bodies without cloning trees.
pub type IExpr = Rc<Node>;

/// A lambda's parameters, body and name, shared by every closure made
/// from it: making a closure allocates only the closure.
#[derive(Debug)]
pub struct LambdaCode {
    /// Parameters.
    pub params: Vec<VarId>,
    /// Body.
    pub body: IExpr,
    /// Diagnostic name.
    pub name: Option<String>,
}

/// One interpreter AST node.
#[derive(Debug)]
pub enum Node {
    /// Immediate constant (quoted data prebuilt and shared).
    Const(Value),
    /// Variable reference.
    Var(VarId),
    /// Global location reference.
    Global(u32),
    /// Assignment.
    Set(VarId, IExpr),
    /// Global location assignment.
    GlobalSet(u32, IExpr),
    /// Conditional.
    If(IExpr, IExpr, IExpr),
    /// Sequence (non-empty).
    Seq(Vec<IExpr>),
    /// Abstraction.
    Lambda(Rc<LambdaCode>),
    /// Parallel bindings.
    Let(Vec<(VarId, IExpr)>, IExpr),
    /// Recursive procedure bindings.
    Letrec(Vec<(VarId, IExpr)>, IExpr),
    /// Application.
    App(IExpr, Vec<IExpr>),
    /// Primitive application.
    PrimApp(Prim, Vec<IExpr>),
}

fn datum_to_value(d: &Datum) -> Value {
    match d {
        Datum::Fixnum(n) => Value::Fixnum(*n),
        Datum::Bool(b) => Value::Bool(*b),
        Datum::Char(c) => Value::Char(*c),
        Datum::Str(s) => Value::Str(Rc::new(s.clone())),
        Datum::Symbol(s) => Value::Symbol(Rc::new(s.clone())),
        Datum::List(items) => items
            .iter()
            .rev()
            .fold(Value::Nil, |acc, d| Value::cons(datum_to_value(d), acc)),
        Datum::Improper(items, tail) => items.iter().rev().fold(datum_to_value(tail), |acc, d| {
            Value::cons(datum_to_value(d), acc)
        }),
        Datum::Vector(items) => Value::vector(items.iter().map(datum_to_value).collect()),
    }
}

fn const_to_value(c: &Const) -> Value {
    match c {
        Const::Fixnum(n) => Value::Fixnum(*n),
        Const::Bool(b) => Value::Bool(*b),
        Const::Char(c) => Value::Char(*c),
        Const::Str(s) => Value::Str(Rc::new(s.clone())),
        Const::Nil => Value::Nil,
        Const::Void => Value::Void,
        Const::Symbol(s) => Value::Symbol(Rc::new(s.clone())),
        Const::Datum(d) => datum_to_value(d),
    }
}

/// Converts the frontend AST into the interpreter's shared form.
/// Quoted structured data is built once here, so repeated evaluation
/// yields the identical (`eq?`) object, matching compiled constant
/// pools.
pub fn lower(e: &Expr<VarId>) -> IExpr {
    Rc::new(match e {
        Expr::Const(c) => Node::Const(const_to_value(c)),
        Expr::Var(v) => Node::Var(*v),
        Expr::Global(g) => Node::Global(*g),
        Expr::Set(v, rhs) => Node::Set(*v, lower(rhs)),
        Expr::GlobalSet(g, rhs) => Node::GlobalSet(*g, lower(rhs)),
        Expr::If(c, t, el) => Node::If(lower(c), lower(t), lower(el)),
        Expr::Seq(es) => Node::Seq(es.iter().map(lower).collect()),
        Expr::Lambda(l) => lower_lambda(l),
        Expr::Let(bs, b) => Node::Let(bs.iter().map(|(v, e)| (*v, lower(e))).collect(), lower(b)),
        Expr::Letrec(bs, b) => Node::Letrec(
            bs.iter()
                .map(|(v, l)| (*v, Rc::new(lower_lambda(l))))
                .collect(),
            lower(b),
        ),
        Expr::App(f, args) => Node::App(lower(f), args.iter().map(lower).collect()),
        Expr::PrimApp(p, args) => Node::PrimApp(*p, args.iter().map(lower).collect()),
    })
}

fn lower_lambda(l: &Lambda<VarId>) -> Node {
    Node::Lambda(Rc::new(LambdaCode {
        params: l.params.clone(),
        body: lower(&l.body),
        name: l.name.clone(),
    }))
}

/// A node waiting on the value of one of its subexpressions, with the
/// environment the node evaluates in.
struct Frame {
    node: IExpr,
    env: Env,
    /// Subexpressions whose values have arrived.
    done: usize,
    /// The values kept so far: a `let`'s right-hand sides, an
    /// application's operator and arguments, or a primitive's
    /// arguments.
    vals: Vec<Value>,
}

/// Pops the innermost frame, whose node has all the values it waited
/// on.
fn finish(frames: &mut Vec<Frame>) -> Frame {
    frames.pop().expect("a frame received the value")
}

/// Pushes a frame for `node`, evaluating in `env`, to wait on its
/// first subexpression.
fn push(frames: &mut Vec<Frame>, node: &IExpr, env: &Env) -> Result<()> {
    if frames.len() >= MAX_FRAMES {
        return Err(InterpError::depth());
    }
    frames.push(Frame {
        node: node.clone(),
        env: env.clone(),
        done: 0,
        vals: Vec::new(),
    });
    Ok(())
}

/// The result of a successful run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The final value, rendered in `write` style.
    pub value: String,
    /// Everything printed by `display`/`write`/`newline`.
    pub output: String,
    /// Steps consumed.
    pub steps: u64,
}

/// The interpreter state: fuel and output buffer.
#[derive(Debug)]
pub struct Interp {
    fuel: u64,
    steps: u64,
    output: String,
    globals: Vec<Value>,
}

impl Interp {
    /// Creates an interpreter with the given step budget.
    pub fn new(fuel: u64) -> Interp {
        Interp {
            fuel,
            steps: 0,
            output: String::new(),
            globals: Vec::new(),
        }
    }

    /// Reserves `n` global locations (initialized to the unspecified
    /// value, like the compiled program's global table).
    pub fn with_globals(mut self, n: u32) -> Interp {
        self.globals = vec![Value::Void; n as usize];
        self
    }

    /// Evaluates a closed expression as a whole program.
    ///
    /// # Errors
    ///
    /// Runtime type errors, `(error …)`, unbound variables, and fuel
    /// exhaustion.
    pub fn run(&mut self, program: &Expr<VarId>) -> Result<Outcome> {
        let lowered = lower(program);
        let value = self.eval(lowered, Env::empty())?;
        Ok(Outcome {
            value: value.write_string(),
            output: std::mem::take(&mut self.output),
            steps: self.steps,
        })
    }

    fn tick(&mut self) -> Result<()> {
        self.steps += 1;
        if self.steps > self.fuel {
            Err(InterpError::fuel())
        } else {
            Ok(())
        }
    }

    /// Evaluates `expr` in `env`.
    ///
    /// Entering an expression either yields its value, replaces it with
    /// a subexpression in tail position, or pushes a [`Frame`] and
    /// enters the subexpression it waits on. A value goes to the
    /// innermost frame, which enters its next subexpression or
    /// finishes its node in turn. One step is charged per expression
    /// entered.
    fn eval(&mut self, mut expr: IExpr, mut env: Env) -> Result<Value> {
        let mut frames: Vec<Frame> = Vec::new();
        loop {
            self.tick()?;
            let mut value = match &*expr {
                Node::Const(v) => v.clone(),
                Node::Var(v) => env
                    .get(*v)
                    .ok_or_else(|| InterpError::new(format!("unbound variable {v}")))?,
                Node::Global(g) => self
                    .globals
                    .get(*g as usize)
                    .cloned()
                    .ok_or_else(|| InterpError::new(format!("global {g} out of range")))?,
                Node::Lambda(code) => Value::Closure(Rc::new(ClosureV {
                    code: code.clone(),
                    env: env.clone(),
                })),
                Node::GlobalSet(_, first)
                | Node::Set(_, first)
                | Node::If(first, ..)
                | Node::App(first, _) => {
                    push(&mut frames, &expr, &env)?;
                    expr = first.clone();
                    continue;
                }
                Node::Seq(es) => {
                    expr = match es.as_slice() {
                        [only] => only.clone(),
                        [first, ..] => {
                            push(&mut frames, &expr, &env)?;
                            first.clone()
                        }
                        [] => unreachable!("non-empty seq"),
                    };
                    continue;
                }
                Node::Let(bs, body) => {
                    expr = match bs.first() {
                        Some((_, rhs)) => {
                            push(&mut frames, &expr, &env)?;
                            rhs.clone()
                        }
                        None => body.clone(),
                    };
                    continue;
                }
                Node::Letrec(bs, body) => {
                    // Bind names to placeholders, then tie the knot.
                    for (v, _) in bs {
                        env = env.bind(*v, Value::Void);
                    }
                    expr = match bs.first() {
                        Some((_, lam)) => {
                            push(&mut frames, &expr, &env)?;
                            lam.clone()
                        }
                        None => body.clone(),
                    };
                    continue;
                }
                Node::PrimApp(p, args) => match args.first() {
                    Some(first) => {
                        push(&mut frames, &expr, &env)?;
                        expr = first.clone();
                        continue;
                    }
                    None => self.apply_prim(*p, Vec::new())?,
                },
            };
            // Hand `value` to the innermost frame, and to the one
            // around it for as long as frames finish.
            loop {
                let Some(frame) = frames.last_mut() else {
                    return Ok(value);
                };
                frame.done += 1;
                match &*frame.node {
                    Node::GlobalSet(g, _) => {
                        let slot = self
                            .globals
                            .get_mut(*g as usize)
                            .ok_or_else(|| InterpError::new(format!("global {g} out of range")))?;
                        *slot = value;
                        value = Value::Void;
                        frames.pop();
                    }
                    Node::Set(v, _) => {
                        if !frame.env.set(*v, value) {
                            return Err(InterpError::new(format!("set! of unbound {v}")));
                        }
                        value = Value::Void;
                        frames.pop();
                    }
                    Node::If(_, t, e) => {
                        expr = if value.is_truthy() { t } else { e }.clone();
                        env = finish(&mut frames).env;
                        break;
                    }
                    Node::Seq(es) => {
                        let next = &es[frame.done];
                        if frame.done + 1 < es.len() {
                            expr = next.clone();
                            env = frame.env.clone();
                            break;
                        } else {
                            expr = next.clone();
                            env = finish(&mut frames).env;
                            break;
                        }
                    }
                    Node::Let(bs, body) => {
                        frame.vals.push(value);
                        if let Some((_, rhs)) = bs.get(frame.done) {
                            expr = rhs.clone();
                            env = frame.env.clone();
                            break;
                        } else {
                            let vars: Vec<VarId> = bs.iter().map(|(v, _)| *v).collect();
                            expr = body.clone();
                            let frame = finish(&mut frames);
                            env = frame.env.bind_all(&vars, frame.vals);
                            break;
                        }
                    }
                    Node::Letrec(bs, body) => {
                        frame.env.set(bs[frame.done - 1].0, value);
                        if let Some((_, lam)) = bs.get(frame.done) {
                            expr = lam.clone();
                            env = frame.env.clone();
                        } else {
                            expr = body.clone();
                            env = finish(&mut frames).env;
                        }
                        break;
                    }
                    Node::App(_, args) => {
                        frame.vals.push(value);
                        if let Some(arg) = args.get(frame.done - 1) {
                            expr = arg.clone();
                            env = frame.env.clone();
                            break;
                        }
                        let mut vals = finish(&mut frames).vals;
                        let callee = vals.remove(0);
                        let Value::Closure(clo) = callee else {
                            return Err(InterpError::new(format!(
                                "call of non-procedure `{}`",
                                callee.write_string()
                            )));
                        };
                        let code = &clo.code;
                        if code.params.len() != vals.len() {
                            return Err(InterpError::new(format!(
                                "arity mismatch calling {}: expected {}, got {}",
                                code.name.as_deref().unwrap_or("#<anonymous>"),
                                code.params.len(),
                                vals.len()
                            )));
                        }
                        env = clo.env.bind_all(&code.params, vals);
                        expr = code.body.clone();
                        break;
                    }
                    Node::PrimApp(p, args) => {
                        frame.vals.push(value);
                        if let Some(arg) = args.get(frame.done) {
                            expr = arg.clone();
                            env = frame.env.clone();
                            break;
                        }
                        let p = *p;
                        value = self.apply_prim(p, finish(&mut frames).vals)?;
                    }
                    Node::Const(_) | Node::Var(_) | Node::Global(_) | Node::Lambda(_) => {
                        unreachable!("only nodes with subexpressions wait on one")
                    }
                }
            }
        }
    }

    fn apply_prim(&mut self, p: Prim, mut args: Vec<Value>) -> Result<Value> {
        use Prim::*;

        fn fixnum(v: &Value, who: Prim) -> Result<i64> {
            match v {
                Value::Fixnum(n) => Ok(*n),
                other => Err(InterpError::new(format!(
                    "{who}: expected number, got {}",
                    other.write_string()
                ))),
            }
        }
        fn pair(v: &Value, who: Prim) -> Result<Rc<PairCell>> {
            match v {
                Value::Pair(p) => Ok(p.clone()),
                other => Err(InterpError::new(format!(
                    "{who}: expected pair, got {}",
                    other.write_string()
                ))),
            }
        }
        fn vector(v: &Value, who: Prim) -> Result<Rc<VectorCell>> {
            match v {
                Value::Vector(v) => Ok(v.clone()),
                other => Err(InterpError::new(format!(
                    "{who}: expected vector, got {}",
                    other.write_string()
                ))),
            }
        }
        fn arith(p: Prim, a: i64, b: i64) -> Result<i64> {
            let overflow = || InterpError::new(format!("{p}: fixnum overflow"));
            match p {
                Add => a.checked_add(b).ok_or_else(overflow),
                Sub => a.checked_sub(b).ok_or_else(overflow),
                Mul => a.checked_mul(b).ok_or_else(overflow),
                Quotient | Remainder | Modulo => {
                    if b == 0 {
                        return Err(InterpError::new(format!("{p}: division by zero")));
                    }
                    match p {
                        Quotient => a.checked_div(b).ok_or_else(overflow),
                        Remainder => a.checked_rem(b).ok_or_else(overflow),
                        _ => {
                            // The floor remainder: `r + b` cannot
                            // overflow, since `r` and `b` differ in sign.
                            let r = a.wrapping_rem(b);
                            Ok(if r != 0 && (r < 0) != (b < 0) {
                                r + b
                            } else {
                                r
                            })
                        }
                    }
                }
                Min => Ok(a.min(b)),
                Max => Ok(a.max(b)),
                _ => unreachable!("not a binary arithmetic prim"),
            }
        }

        let a0 = || args.first().cloned().expect("arity checked by renamer");
        let a1 = || args.get(1).cloned().expect("arity checked by renamer");

        Ok(match p {
            Add | Sub | Mul | Quotient | Remainder | Modulo | Min | Max => {
                let (a, b) = (fixnum(&a0(), p)?, fixnum(&a1(), p)?);
                Value::Fixnum(arith(p, a, b)?)
            }
            Abs => Value::Fixnum(
                fixnum(&a0(), p)?
                    .checked_abs()
                    .ok_or_else(|| InterpError::new("abs: fixnum overflow"))?,
            ),
            Add1 => Value::Fixnum(
                fixnum(&a0(), p)?
                    .checked_add(1)
                    .ok_or_else(|| InterpError::new("add1: fixnum overflow"))?,
            ),
            Sub1 => Value::Fixnum(
                fixnum(&a0(), p)?
                    .checked_sub(1)
                    .ok_or_else(|| InterpError::new("sub1: fixnum overflow"))?,
            ),
            IsZero => Value::Bool(fixnum(&a0(), p)? == 0),
            IsPositive => Value::Bool(fixnum(&a0(), p)? > 0),
            IsNegative => Value::Bool(fixnum(&a0(), p)? < 0),
            IsEven => Value::Bool(fixnum(&a0(), p)? % 2 == 0),
            IsOdd => Value::Bool(fixnum(&a0(), p)? % 2 != 0),
            NumEq => Value::Bool(fixnum(&a0(), p)? == fixnum(&a1(), p)?),
            Lt => Value::Bool(fixnum(&a0(), p)? < fixnum(&a1(), p)?),
            Le => Value::Bool(fixnum(&a0(), p)? <= fixnum(&a1(), p)?),
            Gt => Value::Bool(fixnum(&a0(), p)? > fixnum(&a1(), p)?),
            Ge => Value::Bool(fixnum(&a0(), p)? >= fixnum(&a1(), p)?),
            IsEq | IsEqv => Value::Bool(a0().eq_ptr(&a1())),
            IsEqual => Value::Bool(a0().eq_structural(&a1())),
            Not => Value::Bool(!a0().is_truthy()),
            IsPair => Value::Bool(matches!(a0(), Value::Pair(_))),
            IsNull => Value::Bool(matches!(a0(), Value::Nil)),
            IsSymbol => Value::Bool(matches!(a0(), Value::Symbol(_))),
            IsNumber => Value::Bool(matches!(a0(), Value::Fixnum(_))),
            IsBoolean => Value::Bool(matches!(a0(), Value::Bool(_))),
            IsProcedure => Value::Bool(matches!(a0(), Value::Closure(_))),
            IsVector => Value::Bool(matches!(a0(), Value::Vector(_))),
            IsString => Value::Bool(matches!(a0(), Value::Str(_))),
            IsChar => Value::Bool(matches!(a0(), Value::Char(_))),
            Cons => Value::cons(a0(), a1()),
            Car => pair(&a0(), p)?.borrow().0.clone(),
            Cdr => pair(&a0(), p)?.borrow().1.clone(),
            SetCar => {
                pair(&a0(), p)?.borrow_mut().0 = a1();
                Value::Void
            }
            SetCdr => {
                pair(&a0(), p)?.borrow_mut().1 = a1();
                Value::Void
            }
            MakeVector | MakeVectorFill => {
                let n = fixnum(&a0(), p)?;
                let fill = if p == MakeVectorFill {
                    a1()
                } else {
                    Value::Fixnum(0)
                };
                Value::vector(make_vector(n, fill).map_err(InterpError::new)?)
            }
            VectorRef => {
                let v = vector(&a0(), p)?;
                let i = fixnum(&a1(), p)?;
                let v = v.borrow();
                v.get(
                    usize::try_from(i)
                        .ok()
                        .filter(|&i| i < v.len())
                        .ok_or_else(|| {
                            InterpError::new(format!("vector-ref: index {i} out of range"))
                        })?,
                )
                .cloned()
                .expect("bounds checked")
            }
            VectorSet => {
                let v = vector(&a0(), p)?;
                let i = fixnum(&a1(), p)?;
                let x = args.pop().expect("three args");
                let mut v = v.borrow_mut();
                let len = v.len();
                let slot = v
                    .get_mut(
                        usize::try_from(i)
                            .ok()
                            .filter(|&i| i < len)
                            .ok_or_else(|| {
                                InterpError::new(format!("vector-set!: index {i} out of range"))
                            })?,
                    )
                    .expect("bounds checked");
                *slot = x;
                Value::Void
            }
            VectorLength => Value::Fixnum(vector(&a0(), p)?.borrow().len() as i64),
            StringLength => match a0() {
                Value::Str(s) => Value::Fixnum(s.chars().count() as i64),
                other => {
                    return Err(InterpError::new(format!(
                        "string-length: expected string, got {}",
                        other.write_string()
                    )))
                }
            },
            CharToInteger => match a0() {
                Value::Char(c) => Value::Fixnum(c as i64),
                other => {
                    return Err(InterpError::new(format!(
                        "char->integer: expected char, got {}",
                        other.write_string()
                    )))
                }
            },
            Display => {
                self.output.push_str(&a0().display_string());
                Value::Void
            }
            Write => {
                self.output.push_str(&a0().write_string());
                Value::Void
            }
            Newline => {
                self.output.push('\n');
                Value::Void
            }
            Error => {
                return Err(InterpError::new(format!(
                    "error: {}",
                    a0().display_string()
                )))
            }
            Void => Value::Void,
            MakeCell => Value::cell(a0()),
            CellRef => match a0() {
                Value::Cell(c) => c.borrow().clone(),
                other => {
                    return Err(InterpError::new(format!(
                        "unbox: expected box, got {}",
                        other.write_string()
                    )))
                }
            },
            CellSet => match a0() {
                Value::Cell(c) => {
                    *c.borrow_mut() = a1();
                    Value::Void
                }
                other => {
                    return Err(InterpError::new(format!(
                        "set-box!: expected box, got {}",
                        other.write_string()
                    )))
                }
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::run_source;

    fn value(src: &str) -> String {
        run_source(src, 10_000_000).unwrap().value
    }

    fn output(src: &str) -> String {
        run_source(src, 10_000_000).unwrap().output
    }

    fn fails(src: &str) -> String {
        run_source(src, 10_000_000).unwrap_err().message
    }

    #[test]
    fn arithmetic() {
        assert_eq!(value("(+ 1 2 3)"), "6");
        assert_eq!(value("(- 10 1 2)"), "7");
        assert_eq!(value("(* 2 3 4)"), "24");
        assert_eq!(value("(quotient 7 2)"), "3");
        assert_eq!(value("(remainder 7 2)"), "1");
        assert_eq!(value("(remainder -7 2)"), "-1");
        assert_eq!(value("(modulo -7 2)"), "1");
        assert_eq!(value("(min 3 1)"), "1");
        assert_eq!(value("(max 3 1)"), "3");
        assert_eq!(value("(abs -4)"), "4");
    }

    #[test]
    fn comparisons_and_predicates() {
        assert_eq!(value("(< 1 2 3)"), "#t");
        assert_eq!(value("(< 1 3 2)"), "#f");
        assert_eq!(value("(= 2 2)"), "#t");
        assert_eq!(value("(zero? 0)"), "#t");
        assert_eq!(value("(odd? 3)"), "#t");
        assert_eq!(value("(even? 3)"), "#f");
        assert_eq!(value("(negative? -1)"), "#t");
    }

    #[test]
    fn pairs_and_lists() {
        assert_eq!(value("(car '(1 2))"), "1");
        assert_eq!(value("(cdr '(1 2))"), "(2)");
        assert_eq!(value("(cons 1 2)"), "(1 . 2)");
        assert_eq!(value("(length '(a b c))"), "3");
        assert_eq!(value("(append '(1 2) '(3))"), "(1 2 3)");
        assert_eq!(value("(reverse '(1 2 3))"), "(3 2 1)");
        assert_eq!(value("(assq 'b '((a 1) (b 2)))"), "(b 2)");
        assert_eq!(value("(memq 'b '(a b c))"), "(b c)");
        assert_eq!(value("(equal? '(1 (2)) '(1 (2)))"), "#t");
        assert_eq!(value("(eq? '() '())"), "#t");
    }

    #[test]
    fn mutation() {
        assert_eq!(value("(let ((p (cons 1 2))) (set-car! p 9) (car p))"), "9");
        assert_eq!(
            value("(let ((x 0)) (set! x (+ x 1)) (set! x (+ x 1)) x)"),
            "2"
        );
    }

    #[test]
    fn vectors() {
        assert_eq!(value("(vector-length (make-vector 3))"), "3");
        assert_eq!(
            value("(let ((v (make-vector 2 'a))) (vector-set! v 1 'b) (vector-ref v 1))"),
            "b"
        );
        assert_eq!(value("(vector->list (vector 1 2 3))"), "(1 2 3)");
        assert!(fails("(vector-ref (make-vector 2) 5)").contains("out of range"));
    }

    #[test]
    fn an_unallocatable_vector_is_an_error() {
        // Past every address space, and past `isize::MAX` bytes.
        for len in ["100000000000000000", "4611686018427387903"] {
            let src = format!("(vector-length (make-vector {len} 0))");
            assert_eq!(
                fails(&src),
                format!("make-vector: cannot allocate a vector of length {len}")
            );
        }
        assert_eq!(fails("(make-vector -1)"), "make-vector: negative length");
    }

    #[test]
    fn closures_and_recursion() {
        assert_eq!(
            value("(define (fact n) (if (zero? n) 1 (* n (fact (- n 1))))) (fact 10)"),
            "3628800"
        );
        assert_eq!(
            value("(define (adder n) (lambda (x) (+ x n))) ((adder 3) 4)"),
            "7"
        );
        assert_eq!(
            value("(let loop ((i 0) (acc 0)) (if (= i 5) acc (loop (+ i 1) (+ acc i))))"),
            "10"
        );
    }

    #[test]
    fn tail_calls_do_not_grow_stack() {
        assert_eq!(
            value("(let loop ((i 0)) (if (= i 100000) i (loop (+ i 1))))"),
            "100000"
        );
    }

    #[test]
    fn deep_non_tail_recursion_is_a_budget_error_not_a_crash() {
        // Without the depth bound this is a native stack overflow —
        // an abort the differential drivers could never classify.
        let e = crate::run_source("(define (f) (+ (f) 0)) (f)", 100_000_000).unwrap_err();
        assert!(e.is_fuel_exhausted(), "{e}");
        assert!(e.to_string().contains("recursion too deep"), "{e}");
    }

    #[test]
    fn higher_order_prelude() {
        assert_eq!(value("(map (lambda (x) (* x x)) '(1 2 3))"), "(1 4 9)");
        assert_eq!(value("(filter odd? '(1 2 3 4 5))"), "(1 3 5)");
        assert_eq!(value("(fold-left + 0 '(1 2 3))"), "6");
        assert_eq!(value("(map car '((1 2) (3 4)))"), "(1 3)");
    }

    #[test]
    fn output_buffering() {
        assert_eq!(
            output("(display 1) (display 'two) (newline) (write \"x\")"),
            "1two\n\"x\""
        );
    }

    #[test]
    fn errors() {
        assert!(fails("(car 5)").contains("expected pair"));
        assert!(fails("(error \"boom\")").contains("boom"));
        assert!(fails("(quotient 1 0)").contains("division by zero"));
        assert!(fails("((lambda (x) x))").contains("arity mismatch"));
        assert!(fails("(1 2)").contains("non-procedure"));
    }

    #[test]
    fn fuel_exhaustion() {
        let err = run_source("(let loop () (loop))", 1000).unwrap_err();
        assert!(err.message.contains("fuel"));
    }

    #[test]
    fn quoted_data_is_shared() {
        // The same quote expression evaluates to the same object.
        assert_eq!(value("(define (f) '(a)) (eq? (f) (f))"), "#t");
    }

    #[test]
    fn letrec_mutual() {
        assert_eq!(
            value(
                "(letrec ((even2? (lambda (n) (if (zero? n) #t (odd2? (- n 1)))))
                          (odd2? (lambda (n) (if (zero? n) #f (even2? (- n 1))))))
                   (even2? 100))"
            ),
            "#t"
        );
    }

    #[test]
    fn boxes() {
        assert_eq!(value("(let ((b (box 1))) (set-box! b 2) (unbox b))"), "2");
    }

    #[test]
    fn arithmetic_edge_cases() {
        assert_eq!(value("(quotient -7 2)"), "-3");
        assert_eq!(value("(modulo 7 -2)"), "-1");
        assert_eq!(value("(remainder 7 -2)"), "1");
        assert_eq!(value("(min -9 -9)"), "-9");
        assert_eq!(value("(abs 0)"), "0");
        assert!(fails(&format!("(+ {} 1)", i64::MAX)).contains("overflow"));
        assert!(fails(&format!("(- {} 1)", i64::MIN)).contains("overflow"));
        assert!(fails(&format!("(abs {})", i64::MIN)).contains("overflow"));
    }

    #[test]
    fn deep_structures_render() {
        // 200-deep nested list builds and prints without issue.
        assert_eq!(
            value(
                "(define (nest n) (if (zero? n) '() (list (nest (- n 1)))))
                   (length (nest 200))"
            ),
            "1"
        );
    }

    #[test]
    fn characters_and_strings() {
        assert_eq!(value(r"(char->integer #\a)"), "97");
        assert_eq!(value(r"(char? #\space)"), "#t");
        assert_eq!(value(r#"(string-length "hello")"#), "5");
        assert_eq!(value(r#"(string? "x")"#), "#t");
        assert_eq!(value(r"(eq? #\a #\a)"), "#t");
    }

    #[test]
    fn eqv_vs_equal_on_structures() {
        assert_eq!(value("(let ((l '(1 2))) (eqv? l l))"), "#t");
        assert_eq!(value("(eqv? (list 1) (list 1))"), "#f");
        assert_eq!(value("(equal? (vector 1 2) (vector 1 2))"), "#t");
        assert_eq!(value("(equal? (vector 1 2) (vector 1 3))"), "#f");
        assert_eq!(value(r#"(equal? "ab" "ab")"#), "#t");
    }

    #[test]
    fn shadowing_of_prelude_and_prims() {
        assert_eq!(value("(define (length l) 42) (length '(1 2 3))"), "42");
        assert_eq!(value("(let ((car cdr)) (car '(1 2 3)))"), "(2 3)");
    }
}
