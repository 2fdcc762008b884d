//! Runtime values of the virtual machine.

use std::cell::RefCell;
use std::fmt;
use std::rc::{Rc, Weak};

use lesgs_frontend::{Const, FuncId};
use lesgs_sexpr::Datum;

/// A closure object: a code pointer plus captured values. Slots are
/// mutable to support the recursive-group backpatching instruction.
#[derive(Debug)]
pub struct VmClosure {
    /// Code pointer.
    pub func: FuncId,
    /// Captured values.
    pub free: RefCell<Vec<Value>>,
}

/// The closures a machine has backpatched with `closure-set!`.
///
/// Backpatching ties a recursive group of closures into a reference
/// cycle that `Rc` never frees. Each machine remembers every closure
/// it patched as a [`Weak`]; dropping the set empties the free slots of
/// those still alive, which breaks the cycles once the run is over.
#[derive(Default)]
pub(crate) struct PatchedClosures(Vec<Weak<VmClosure>>);

impl PatchedClosures {
    /// Records a patched closure.
    pub(crate) fn remember(&mut self, clo: &Rc<VmClosure>) {
        if self.0.len() == self.0.capacity() {
            // Before growing, forget closures that died on their own,
            // so the list stays proportional to the live ones.
            self.0.retain(|w| w.strong_count() > 0);
            self.0.reserve(self.0.len().max(16));
        }
        self.0.push(Rc::downgrade(clo));
    }
}

impl Drop for PatchedClosures {
    fn drop(&mut self) {
        for clo in self.0.drain(..).filter_map(|w| w.upgrade()) {
            if let Ok(mut free) = clo.free.try_borrow_mut() {
                free.clear();
            }
        }
    }
}

/// A return address: code position and the caller's frame pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetAddr {
    /// Function containing the return point.
    pub func: FuncId,
    /// Instruction index within that function.
    pub pc: u32,
    /// Frame pointer to restore.
    pub fp: u32,
}

/// A VM value.
#[derive(Debug, Clone)]
pub enum Value {
    /// An integer.
    Fixnum(i64),
    /// `#t` / `#f`.
    Bool(bool),
    /// A character.
    Char(char),
    /// A string.
    Str(Rc<String>),
    /// A symbol (compared by name).
    Symbol(Rc<String>),
    /// The empty list.
    Nil,
    /// The unspecified value.
    Void,
    /// A mutable pair.
    Pair(Rc<RefCell<(Value, Value)>>),
    /// A mutable vector.
    Vector(Rc<RefCell<Vec<Value>>>),
    /// A procedure.
    Closure(Rc<VmClosure>),
    /// A mutable cell (`box`).
    Cell(Rc<RefCell<Value>>),
    /// A return address (lives in `ret` and save slots only).
    RetAddr(RetAddr),
    /// An uninitialized stack slot (reading one is a VM bug).
    Uninit,
}

impl Value {
    /// Builds a pair.
    pub fn cons(car: Value, cdr: Value) -> Value {
        Value::Pair(Rc::new(RefCell::new((car, cdr))))
    }

    /// Scheme truthiness.
    pub fn is_truthy(&self) -> bool {
        !matches!(self, Value::Bool(false))
    }

    /// `eq?` — identity for heap values, value equality for immediates.
    pub fn eq_ptr(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Fixnum(a), Value::Fixnum(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Char(a), Value::Char(b)) => a == b,
            (Value::Nil, Value::Nil) => true,
            (Value::Void, Value::Void) => true,
            (Value::Symbol(a), Value::Symbol(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => Rc::ptr_eq(a, b),
            (Value::Pair(a), Value::Pair(b)) => Rc::ptr_eq(a, b),
            (Value::Vector(a), Value::Vector(b)) => Rc::ptr_eq(a, b),
            (Value::Closure(a), Value::Closure(b)) => Rc::ptr_eq(a, b),
            (Value::Cell(a), Value::Cell(b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// `equal?` — structural equality.
    pub fn eq_structural(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Pair(a), Value::Pair(b)) => {
                if Rc::ptr_eq(a, b) {
                    return true;
                }
                let (ac, ad) = &*a.borrow();
                let (bc, bd) = &*b.borrow();
                ac.eq_structural(bc) && ad.eq_structural(bd)
            }
            (Value::Vector(a), Value::Vector(b)) => {
                if Rc::ptr_eq(a, b) {
                    return true;
                }
                let a = a.borrow();
                let b = b.borrow();
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.eq_structural(y))
            }
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => self.eq_ptr(other),
        }
    }

    /// Renders in `display` style.
    pub fn display_string(&self) -> String {
        let mut s = String::new();
        self.render(&mut s, false);
        s
    }

    /// Renders in `write` style.
    pub fn write_string(&self) -> String {
        let mut s = String::new();
        self.render(&mut s, true);
        s
    }

    fn render(&self, out: &mut String, write: bool) {
        match self {
            Value::Fixnum(n) => out.push_str(&n.to_string()),
            Value::Bool(true) => out.push_str("#t"),
            Value::Bool(false) => out.push_str("#f"),
            Value::Char(c) => {
                if write {
                    match c {
                        ' ' => out.push_str("#\\space"),
                        '\n' => out.push_str("#\\newline"),
                        '\t' => out.push_str("#\\tab"),
                        c => {
                            out.push_str("#\\");
                            out.push(*c);
                        }
                    }
                } else {
                    out.push(*c);
                }
            }
            Value::Str(s) => {
                if write {
                    out.push('"');
                    for c in s.chars() {
                        match c {
                            '"' => out.push_str("\\\""),
                            '\\' => out.push_str("\\\\"),
                            '\n' => out.push_str("\\n"),
                            c => out.push(c),
                        }
                    }
                    out.push('"');
                } else {
                    out.push_str(s);
                }
            }
            Value::Symbol(s) => out.push_str(s),
            Value::Nil => out.push_str("()"),
            Value::Void => out.push_str("#<void>"),
            Value::Pair(_) => {
                out.push('(');
                let mut current = self.clone();
                let mut first = true;
                loop {
                    match current {
                        Value::Pair(p) => {
                            if !first {
                                out.push(' ');
                            }
                            first = false;
                            let (car, cdr) = &*p.borrow();
                            car.render(out, write);
                            current = cdr.clone();
                        }
                        Value::Nil => break,
                        other => {
                            out.push_str(" . ");
                            other.render(out, write);
                            break;
                        }
                    }
                }
                out.push(')');
            }
            Value::Vector(v) => {
                out.push_str("#(");
                for (i, x) in v.borrow().iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    x.render(out, write);
                }
                out.push(')');
            }
            Value::Closure(_) => out.push_str("#<procedure>"),
            Value::Cell(_) => out.push_str("#<box>"),
            Value::RetAddr(_) => out.push_str("#<return-address>"),
            Value::Uninit => out.push_str("#<uninit>"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display_string())
    }
}

/// Materializes a quoted datum as a runtime value.
pub(crate) fn datum_to_value(d: &Datum) -> Value {
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
        Datum::Vector(items) => Value::Vector(Rc::new(RefCell::new(
            items.iter().map(datum_to_value).collect(),
        ))),
    }
}

/// Materializes a constant-pool entry as a runtime value (both engines
/// build their pools through this at machine start).
pub(crate) fn const_to_value(c: &Const) -> Value {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness_and_eq() {
        assert!(Value::Fixnum(0).is_truthy());
        assert!(!Value::Bool(false).is_truthy());
        let p = Value::cons(Value::Fixnum(1), Value::Nil);
        assert!(p.eq_ptr(&p.clone()));
        assert!(!p.eq_ptr(&Value::cons(Value::Fixnum(1), Value::Nil)));
        assert!(p.eq_structural(&Value::cons(Value::Fixnum(1), Value::Nil)));
    }

    #[test]
    fn rendering_matches_interp_conventions() {
        let l = Value::cons(Value::Fixnum(1), Value::cons(Value::Char('a'), Value::Nil));
        assert_eq!(l.display_string(), "(1 a)");
        assert_eq!(l.write_string(), "(1 #\\a)");
    }
}
