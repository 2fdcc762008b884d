//! Primitive evaluation, the slow primitive path of the one dispatch
//! loop.
//!
//! Both instantiations of the loop ([`crate::Machine`] and the
//! reference [`crate::ClassicMachine`]) must produce *the same* values,
//! output, and error messages for every primitive, so the evaluation
//! logic lives here, once. The reference sends every primitive here;
//! the fast instantiation only those its fast paths decline. The
//! evaluator is machine-agnostic: it reports failures as bare message
//! strings and leaves it to the machine to attach the function/pc
//! location, and it returns a `from_memory` flag instead of writing the
//! destination register, so the fast paths and this evaluator share one
//! write with its load-latency bookkeeping.

use std::ops::Index;

use lesgs_frontend::{make_vector, FixnumValue, Prim};

use crate::instr::MAX_PRIM_ARGS;
use crate::value::{Obj, Value};

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
            vals: [Value::VOID, Value::VOID, Value::VOID],
        }
    }

    /// Appends an argument.
    ///
    /// # Panics
    ///
    /// Panics past [`MAX_PRIM_ARGS`] arguments, which no
    /// [`crate::PrimArgs`] holds.
    pub(crate) fn push(&mut self, v: Value) {
        self.vals[self.len] = v;
        self.len += 1;
    }

    /// Removes and returns the last argument (mirrors the `Vec::pop`
    /// the historical evaluator used for trailing operands).
    pub(crate) fn pop(&mut self) -> Value {
        debug_assert!(self.len > 0, "pop from empty ArgVals");
        self.len -= 1;
        std::mem::replace(&mut self.vals[self.len], Value::VOID)
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
            match $v.obj() {
                Some(Obj::Vector(items)) => items,
                _ => return Err(format!("{p}: expected vector, got {}", $v.write_string())),
            }
        };
    }

    // True when the result comes from memory (gets load latency).
    let mut from_memory = false;
    let result = match p {
        Add | Sub | Mul | Quotient | Remainder | Modulo | Min | Max | NumEq | Lt | Le | Gt | Ge => {
            let (a, b) = (fixnum!(&args[0]), fixnum!(&args[1]));
            fixnum_value(p, a, b)?
        }
        Abs | Add1 | Sub1 | IsZero | IsPositive | IsNegative | IsEven | IsOdd => {
            fixnum_value(p, fixnum!(&args[0]), 0)?
        }
        IsEq | IsEqv => Value::bool(args[0].eq_ptr(&args[1])),
        IsEqual => Value::bool(args[0].eq_structural(&args[1])),
        Not => Value::bool(!args[0].is_truthy()),
        IsPair => Value::bool(matches!(args[0], Value::Pair(_))),
        IsNull => Value::bool(matches!(args[0], Value::Nil(_))),
        IsSymbol => Value::bool(matches!(args[0].obj(), Some(Obj::Symbol(_)))),
        IsNumber => Value::bool(matches!(args[0], Value::Fixnum(_))),
        IsBoolean => Value::bool(matches!(args[0], Value::Bool(_))),
        IsProcedure => Value::bool(matches!(args[0], Value::Closure(_))),
        IsVector => Value::bool(matches!(args[0].obj(), Some(Obj::Vector(_)))),
        IsString => Value::bool(matches!(args[0].obj(), Some(Obj::Str(_)))),
        IsChar => Value::bool(matches!(args[0], Value::Char(_))),
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
            Value::VOID
        }
        SetCdr => {
            let v = args.pop();
            pair!(&args[0]).borrow_mut().1 = v;
            Value::VOID
        }
        MakeVector | MakeVectorFill => {
            let n = fixnum!(&args[0]);
            let fill = if p == MakeVectorFill {
                args[1].clone()
            } else {
                Value::Fixnum(0)
            };
            Value::vector(make_vector(n, fill)?)
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
            Value::VOID
        }
        VectorLength => Value::Fixnum(vector!(&args[0]).borrow().len() as i64),
        StringLength => match args[0].obj() {
            Some(Obj::Str(s)) => Value::Fixnum(s.chars().count() as i64),
            _ => {
                return Err(format!(
                    "string-length: expected string, got {}",
                    args[0].write_string()
                ))
            }
        },
        CharToInteger => match &args[0] {
            Value::Char(c) => Value::Fixnum(c.get() as i64),
            other => {
                return Err(format!(
                    "char->integer: expected char, got {}",
                    other.write_string()
                ))
            }
        },
        Display => {
            output.push_str(&args[0].display_string());
            Value::VOID
        }
        Write => {
            output.push_str(&args[0].write_string());
            Value::VOID
        }
        Newline => {
            output.push('\n');
            Value::VOID
        }
        Error => return Err(format!("error: {}", args[0].display_string())),
        Void => Value::VOID,
        MakeCell => Value::cell(args[0].clone()),
        CellRef => {
            from_memory = true;
            match args[0].obj() {
                Some(Obj::Cell(c)) => c.borrow().clone(),
                _ => {
                    return Err(format!(
                        "unbox: expected box, got {}",
                        args[0].write_string()
                    ))
                }
            }
        }
        CellSet => {
            let v = args.pop();
            match args[0].obj() {
                Some(Obj::Cell(c)) => {
                    *c.borrow_mut() = v;
                    Value::VOID
                }
                _ => {
                    return Err(format!(
                        "set-box!: expected box, got {}",
                        args[0].write_string()
                    ))
                }
            }
        }
    };
    Ok((result, from_memory))
}

/// The shared fixnum rule ([`Prim::apply_fixnum`]), its error worded
/// `<op>: <error>`.
fn fixnum_value(p: Prim, a: i64, b: i64) -> Result<Value, String> {
    let result = p.apply_fixnum(a, b).expect("a fixnum primitive");
    result.map(Value::from).map_err(|e| format!("{p}: {e}"))
}

impl From<FixnumValue> for Value {
    fn from(v: FixnumValue) -> Value {
        match v {
            FixnumValue::Fixnum(n) => Value::Fixnum(n),
            FixnumValue::Bool(b) => Value::bool(b),
        }
    }
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
        let pair = Value::cons(Value::Fixnum(7), Value::NIL);
        let (v, mem) = eval(Prim::Car, &[pair]).unwrap();
        assert!(matches!(v, Value::Fixnum(7)));
        assert!(mem, "car reads the heap");
    }

    #[test]
    fn error_messages_are_location_free() {
        let e = eval(Prim::Add, &[Value::NIL, Value::Fixnum(1)]).unwrap_err();
        assert_eq!(e, "+: expected number, got ()");
        let e = eval(Prim::Quotient, &[Value::Fixnum(1), Value::Fixnum(0)]).unwrap_err();
        assert_eq!(e, "quotient: division by zero");
        let e = eval(Prim::Abs, &[Value::Fixnum(i64::MIN)]).unwrap_err();
        assert_eq!(e, "abs: fixnum overflow");
    }

    #[test]
    fn an_unallocatable_vector_is_an_error() {
        // Past every address space, and past `isize::MAX` bytes.
        for len in [100_000_000_000_000_000, (1 << 62) - 1] {
            let e = eval(Prim::MakeVector, &[Value::Fixnum(len)]).unwrap_err();
            assert_eq!(
                e,
                format!("make-vector: cannot allocate a vector of length {len}")
            );
        }
        let e = eval(Prim::MakeVector, &[Value::Fixnum(-1)]).unwrap_err();
        assert_eq!(e, "make-vector: negative length");
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
