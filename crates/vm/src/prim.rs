//! Primitive evaluation shared by both execution engines.
//!
//! The classic interpreter ([`crate::classic::ClassicMachine`]) and the
//! pre-decoded dispatcher ([`crate::Machine`]) must produce *the same*
//! values, output, and error messages for every primitive — so the
//! evaluation logic lives here, once, and both engines call it. The
//! evaluator is deliberately machine-agnostic: it reports failures as
//! bare message strings and leaves it to the caller to attach the
//! function/pc location, and it returns a `from_memory` flag instead of
//! writing the destination register so each engine applies its own
//! load-latency bookkeeping.

use std::cell::RefCell;
use std::ops::Index;
use std::rc::Rc;

use lesgs_frontend::Prim;

use crate::value::Value;

/// The largest fixed arity any [`Prim`] has (`vector-set!`).
pub(crate) const MAX_PRIM_ARGS: usize = 3;

/// A fixed-capacity argument buffer — big enough for every primitive,
/// small enough to live on the stack, so neither engine allocates a
/// `Vec` per primitive dispatch.
pub(crate) struct ArgVals {
    len: usize,
    vals: [Value; MAX_PRIM_ARGS],
}

impl ArgVals {
    /// An empty buffer.
    pub(crate) fn new() -> ArgVals {
        ArgVals {
            len: 0,
            vals: [Value::Void, Value::Void, Value::Void],
        }
    }

    /// Appends an argument.
    ///
    /// # Panics
    ///
    /// Panics past [`MAX_PRIM_ARGS`] arguments — codegen never emits a
    /// primitive with more (checked at decode time too).
    pub(crate) fn push(&mut self, v: Value) {
        self.vals[self.len] = v;
        self.len += 1;
    }

    /// Removes and returns the last argument (mirrors the `Vec::pop`
    /// the historical evaluator used for trailing operands).
    pub(crate) fn pop(&mut self) -> Value {
        debug_assert!(self.len > 0, "pop from empty ArgVals");
        self.len -= 1;
        std::mem::replace(&mut self.vals[self.len], Value::Void)
    }
}

impl Index<usize> for ArgVals {
    type Output = Value;

    fn index(&self, i: usize) -> &Value {
        debug_assert!(i < self.len, "ArgVals index {i} out of {}", self.len);
        &self.vals[i]
    }
}

/// Evaluates primitive `p` over `args`, appending any `display`/`write`
/// text to `output`. Returns the result value and a `from_memory` flag:
/// true when the result was read from the heap, so the destination
/// register takes the cost model's load latency.
///
/// Argument counts are the caller's contract (codegen emits exactly
/// [`Prim::arity`] operands); error *messages* here are byte-identical
/// to the historical in-machine evaluator so differential tests can
/// compare engines textually.
///
/// # Errors
///
/// Type errors, division by zero, fixnum overflow, index violations,
/// and the `(error …)` primitive — as bare messages, location-free.
pub(crate) fn eval_prim(
    p: Prim,
    args: &mut ArgVals,
    output: &mut String,
) -> Result<(Value, bool), String> {
    use Prim::*;

    macro_rules! fixnum {
        ($v:expr) => {
            match $v {
                Value::Fixnum(n) => *n,
                other => {
                    return Err(format!(
                        "{p}: expected number, got {}",
                        other.write_string()
                    ))
                }
            }
        };
    }
    macro_rules! pair {
        ($v:expr) => {
            match $v {
                Value::Pair(p) => p.clone(),
                other => return Err(format!("{p}: expected pair, got {}", other.write_string())),
            }
        };
    }
    macro_rules! vector {
        ($v:expr) => {
            match $v {
                Value::Vector(v) => v.clone(),
                other => {
                    return Err(format!(
                        "{p}: expected vector, got {}",
                        other.write_string()
                    ))
                }
            }
        };
    }

    let overflow = || format!("{p}: fixnum overflow");

    // True when the result comes from memory (gets load latency).
    let mut from_memory = false;
    let result = match p {
        Add | Sub | Mul | Quotient | Remainder | Modulo | Min | Max => {
            let a = fixnum!(&args[0]);
            let b = fixnum!(&args[1]);
            let r = match p {
                Add => a.checked_add(b).ok_or_else(overflow)?,
                Sub => a.checked_sub(b).ok_or_else(overflow)?,
                Mul => a.checked_mul(b).ok_or_else(overflow)?,
                Min => a.min(b),
                Max => a.max(b),
                _ => {
                    if b == 0 {
                        return Err(format!("{p}: division by zero"));
                    }
                    match p {
                        Quotient => a.checked_div(b).ok_or_else(overflow)?,
                        Remainder => a.checked_rem(b).ok_or_else(overflow)?,
                        _ => {
                            // The floor remainder: `r + b` cannot
                            // overflow, since `r` and `b` differ in sign.
                            let r = a.wrapping_rem(b);
                            if r != 0 && (r < 0) != (b < 0) {
                                r + b
                            } else {
                                r
                            }
                        }
                    }
                }
            };
            Value::Fixnum(r)
        }
        Abs => Value::Fixnum(fixnum!(&args[0]).checked_abs().ok_or_else(overflow)?),
        Add1 => Value::Fixnum(fixnum!(&args[0]).checked_add(1).ok_or_else(overflow)?),
        Sub1 => Value::Fixnum(fixnum!(&args[0]).checked_sub(1).ok_or_else(overflow)?),
        IsZero => Value::Bool(fixnum!(&args[0]) == 0),
        IsPositive => Value::Bool(fixnum!(&args[0]) > 0),
        IsNegative => Value::Bool(fixnum!(&args[0]) < 0),
        IsEven => Value::Bool(fixnum!(&args[0]) % 2 == 0),
        IsOdd => Value::Bool(fixnum!(&args[0]) % 2 != 0),
        NumEq => Value::Bool(fixnum!(&args[0]) == fixnum!(&args[1])),
        Lt => Value::Bool(fixnum!(&args[0]) < fixnum!(&args[1])),
        Le => Value::Bool(fixnum!(&args[0]) <= fixnum!(&args[1])),
        Gt => Value::Bool(fixnum!(&args[0]) > fixnum!(&args[1])),
        Ge => Value::Bool(fixnum!(&args[0]) >= fixnum!(&args[1])),
        IsEq | IsEqv => Value::Bool(args[0].eq_ptr(&args[1])),
        IsEqual => Value::Bool(args[0].eq_structural(&args[1])),
        Not => Value::Bool(!args[0].is_truthy()),
        IsPair => Value::Bool(matches!(args[0], Value::Pair(_))),
        IsNull => Value::Bool(matches!(args[0], Value::Nil)),
        IsSymbol => Value::Bool(matches!(args[0], Value::Symbol(_))),
        IsNumber => Value::Bool(matches!(args[0], Value::Fixnum(_))),
        IsBoolean => Value::Bool(matches!(args[0], Value::Bool(_))),
        IsProcedure => Value::Bool(matches!(args[0], Value::Closure(_))),
        IsVector => Value::Bool(matches!(args[0], Value::Vector(_))),
        IsString => Value::Bool(matches!(args[0], Value::Str(_))),
        IsChar => Value::Bool(matches!(args[0], Value::Char(_))),
        Cons => {
            let d = args.pop();
            let a = args.pop();
            Value::cons(a, d)
        }
        Car => {
            from_memory = true;
            let p = pair!(&args[0]);
            let v = p.borrow().0.clone();
            v
        }
        Cdr => {
            from_memory = true;
            let p = pair!(&args[0]);
            let v = p.borrow().1.clone();
            v
        }
        SetCar => {
            let v = args.pop();
            pair!(&args[0]).borrow_mut().0 = v;
            Value::Void
        }
        SetCdr => {
            let v = args.pop();
            pair!(&args[0]).borrow_mut().1 = v;
            Value::Void
        }
        MakeVector | MakeVectorFill => {
            let n = fixnum!(&args[0]);
            if n < 0 {
                return Err("make-vector: negative length".to_owned());
            }
            let fill = if p == MakeVectorFill {
                args[1].clone()
            } else {
                Value::Fixnum(0)
            };
            Value::Vector(Rc::new(RefCell::new(vec![fill; n as usize])))
        }
        VectorRef => {
            from_memory = true;
            let v = vector!(&args[0]);
            let i = fixnum!(&args[1]);
            let v = v.borrow();
            let idx = usize::try_from(i).ok().filter(|&i| i < v.len());
            match idx {
                Some(i) => v[i].clone(),
                None => return Err(format!("vector-ref: index {i} out of range")),
            }
        }
        VectorSet => {
            let x = args.pop();
            let v = vector!(&args[0]);
            let i = fixnum!(&args[1]);
            let mut v = v.borrow_mut();
            let len = v.len();
            match usize::try_from(i).ok().filter(|&i| i < len) {
                Some(i) => v[i] = x,
                None => return Err(format!("vector-set!: index {i} out of range")),
            }
            Value::Void
        }
        VectorLength => Value::Fixnum(vector!(&args[0]).borrow().len() as i64),
        StringLength => match &args[0] {
            Value::Str(s) => Value::Fixnum(s.chars().count() as i64),
            other => {
                return Err(format!(
                    "string-length: expected string, got {}",
                    other.write_string()
                ))
            }
        },
        CharToInteger => match &args[0] {
            Value::Char(c) => Value::Fixnum(*c as i64),
            other => {
                return Err(format!(
                    "char->integer: expected char, got {}",
                    other.write_string()
                ))
            }
        },
        Display => {
            output.push_str(&args[0].display_string());
            Value::Void
        }
        Write => {
            output.push_str(&args[0].write_string());
            Value::Void
        }
        Newline => {
            output.push('\n');
            Value::Void
        }
        Error => return Err(format!("error: {}", args[0].display_string())),
        Void => Value::Void,
        MakeCell => Value::Cell(Rc::new(RefCell::new(args[0].clone()))),
        CellRef => {
            from_memory = true;
            match &args[0] {
                Value::Cell(c) => c.borrow().clone(),
                other => return Err(format!("unbox: expected box, got {}", other.write_string())),
            }
        }
        CellSet => {
            let v = args.pop();
            match &args[0] {
                Value::Cell(c) => {
                    *c.borrow_mut() = v;
                    Value::Void
                }
                other => {
                    return Err(format!(
                        "set-box!: expected box, got {}",
                        other.write_string()
                    ))
                }
            }
        }
    };
    Ok((result, from_memory))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(p: Prim, args: &[Value]) -> Result<(Value, bool), String> {
        let mut vals = ArgVals::new();
        for v in args {
            vals.push(v.clone());
        }
        let mut out = String::new();
        eval_prim(p, &mut vals, &mut out)
    }

    #[test]
    fn arithmetic_and_memory_flag() {
        let (v, mem) = eval(Prim::Add, &[Value::Fixnum(2), Value::Fixnum(3)]).unwrap();
        assert!(matches!(v, Value::Fixnum(5)));
        assert!(!mem);
        let pair = Value::cons(Value::Fixnum(7), Value::Nil);
        let (v, mem) = eval(Prim::Car, &[pair]).unwrap();
        assert!(matches!(v, Value::Fixnum(7)));
        assert!(mem, "car reads the heap");
    }

    #[test]
    fn error_messages_are_location_free() {
        let e = eval(Prim::Add, &[Value::Nil, Value::Fixnum(1)]).unwrap_err();
        assert_eq!(e, "+: expected number, got ()");
        let e = eval(Prim::Quotient, &[Value::Fixnum(1), Value::Fixnum(0)]).unwrap_err();
        assert_eq!(e, "quotient: division by zero");
    }

    #[test]
    fn output_accumulates() {
        let mut vals = ArgVals::new();
        vals.push(Value::Fixnum(42));
        let mut out = String::new();
        eval_prim(Prim::Display, &mut vals, &mut out).unwrap();
        assert_eq!(out, "42");
    }
}
