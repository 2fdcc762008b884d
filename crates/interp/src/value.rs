//! Runtime values of the reference interpreter.
//!
//! This module says only how a value is laid out and freed. How values
//! compare under `equal?` and how they print are said once, in
//! [`lesgs_frontend::value`] and [`lesgs_frontend::print`], for the
//! interpreter and both VM engines; a value shows itself to those walks
//! through [`RuntimeValue`]. So the interpreter prints a procedure as
//! `#<procedure>`, without the name a lambda may carry, as compiled
//! code does.

use std::cell::RefCell;
use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

use lesgs_frontend::print;
use lesgs_frontend::value::{self, Atom, Node, RuntimeValue};

use crate::env::Env;
use crate::eval::LambdaCode;

/// A closure value: code plus captured environment.
#[derive(Debug)]
pub struct ClosureV {
    /// The parameters, body and name of the lambda that made it.
    pub code: Rc<LambdaCode>,
    /// The defining environment.
    pub env: Env,
}

impl Drop for ClosureV {
    fn drop(&mut self) {
        if self.env.frees_frame() {
            let mut release = Release::default();
            release.env(std::mem::take(&mut self.env));
            release.run();
        }
    }
}

/// The heap cell of a pair.
#[derive(Debug)]
pub struct PairCell(RefCell<(Value, Value)>);

impl Deref for PairCell {
    type Target = RefCell<(Value, Value)>;

    fn deref(&self) -> &RefCell<(Value, Value)> {
        &self.0
    }
}

impl Drop for PairCell {
    fn drop(&mut self) {
        let (car, cdr) = self.0.get_mut();
        if frees_container(car) || frees_container(cdr) {
            let mut release = Release::default();
            release.value(std::mem::replace(car, Value::Nil));
            release.value(std::mem::replace(cdr, Value::Nil));
            release.run();
        }
    }
}

/// The heap cell of a vector.
#[derive(Debug)]
pub struct VectorCell(RefCell<Vec<Value>>);

impl Deref for VectorCell {
    type Target = RefCell<Vec<Value>>;

    fn deref(&self) -> &RefCell<Vec<Value>> {
        &self.0
    }
}

impl Drop for VectorCell {
    fn drop(&mut self) {
        let items = self.0.get_mut();
        if items.iter().any(frees_container) {
            let mut release = Release::default();
            for item in std::mem::take(items) {
                release.value(item);
            }
            release.run();
        }
    }
}

/// The heap cell of a box.
#[derive(Debug)]
pub struct BoxCell(RefCell<Value>);

impl Deref for BoxCell {
    type Target = RefCell<Value>;

    fn deref(&self) -> &RefCell<Value> {
        &self.0
    }
}

impl Drop for BoxCell {
    fn drop(&mut self) {
        let content = self.0.get_mut();
        if frees_container(content) {
            let mut release = Release::default();
            release.value(std::mem::replace(content, Value::Nil));
            release.run();
        }
    }
}

/// Whether dropping `value` frees a heap object that holds values: it
/// is the last owner of a pair, vector, closure or box.
pub(crate) fn frees_container(value: &Value) -> bool {
    match value {
        Value::Pair(p) => Rc::strong_count(p) == 1,
        Value::Vector(v) => Rc::strong_count(v) == 1,
        Value::Closure(c) => Rc::strong_count(c) == 1,
        Value::Cell(c) => Rc::strong_count(c) == 1,
        _ => false,
    }
}

/// A value or an environment handle that a dying heap object owned.
enum Owned {
    Value(Value),
    Env(Env),
}

/// Heap objects whose last owner lets go of them, emptied one at a time
/// instead of by recursion.
///
/// Left to the compiler's drop glue, freeing a value recurses once per
/// level of nesting through cars, cdrs, vector elements, boxes,
/// closures and the environment frames closures capture, and a few
/// hundred thousand levels overflow the stack, which aborts the
/// process. Instead a dying object that owns such children queues them
/// here, and each is emptied before it is freed, so its own `Drop`
/// finds nothing to do. The first child queued waits in `next`, so a
/// chain such as a list or an environment is freed without allocating.
#[derive(Default)]
pub(crate) struct Release {
    next: Option<Owned>,
    rest: Vec<Owned>,
}

impl Release {
    /// Queues `value` if dropping it frees a container; drops it now
    /// otherwise.
    pub(crate) fn value(&mut self, value: Value) {
        if frees_container(&value) {
            self.queue(Owned::Value(value));
        }
    }

    /// Queues `env` if dropping it frees a frame; drops it now
    /// otherwise.
    pub(crate) fn env(&mut self, env: Env) {
        if env.frees_frame() {
            self.queue(Owned::Env(env));
        }
    }

    fn queue(&mut self, owned: Owned) {
        if self.next.is_none() {
            self.next = Some(owned);
        } else {
            self.rest.push(owned);
        }
    }

    /// Empties and frees everything queued, and everything that only
    /// the queued objects owned. Only last owners are queued, so each
    /// `try_unwrap` succeeds; the emptied object drops at the end of
    /// its arm.
    pub(crate) fn run(mut self) {
        while let Some(owned) = self.next.take().or_else(|| self.rest.pop()) {
            match owned {
                Owned::Value(Value::Pair(p)) => {
                    if let Ok(mut p) = Rc::try_unwrap(p) {
                        let (car, cdr) = std::mem::replace(p.0.get_mut(), (Value::Nil, Value::Nil));
                        self.value(car);
                        self.value(cdr);
                    }
                }
                Owned::Value(Value::Vector(v)) => {
                    if let Ok(mut v) = Rc::try_unwrap(v) {
                        for item in std::mem::take(v.0.get_mut()) {
                            self.value(item);
                        }
                    }
                }
                Owned::Value(Value::Closure(c)) => {
                    if let Ok(mut c) = Rc::try_unwrap(c) {
                        self.env(std::mem::take(&mut c.env));
                    }
                }
                Owned::Value(Value::Cell(c)) => {
                    if let Ok(mut c) = Rc::try_unwrap(c) {
                        self.value(std::mem::replace(c.0.get_mut(), Value::Nil));
                    }
                }
                Owned::Value(_) => {}
                Owned::Env(mut env) => {
                    while let Some((val, rest)) = env.take_frame() {
                        self.value(val);
                        env = rest;
                    }
                }
            }
        }
    }
}

/// A Scheme value.
#[derive(Debug, Clone)]
pub enum Value {
    /// An integer.
    Fixnum(i64),
    /// `#t` / `#f`.
    Bool(bool),
    /// A character.
    Char(char),
    /// An immutable string.
    Str(Rc<String>),
    /// A symbol (compared by name).
    Symbol(Rc<String>),
    /// The empty list.
    Nil,
    /// The unspecified value.
    Void,
    /// A mutable pair.
    Pair(Rc<PairCell>),
    /// A mutable vector.
    Vector(Rc<VectorCell>),
    /// A procedure.
    Closure(Rc<ClosureV>),
    /// A mutable cell (`box`).
    Cell(Rc<BoxCell>),
}

impl Value {
    /// Builds a pair.
    pub fn cons(car: Value, cdr: Value) -> Value {
        Value::Pair(Rc::new(PairCell(RefCell::new((car, cdr)))))
    }

    /// Builds a vector.
    pub fn vector(items: Vec<Value>) -> Value {
        Value::Vector(Rc::new(VectorCell(RefCell::new(items))))
    }

    /// Builds a box.
    pub fn cell(content: Value) -> Value {
        Value::Cell(Rc::new(BoxCell(RefCell::new(content))))
    }

    /// Scheme truthiness: everything but `#f` is true.
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

    /// `equal?` ([`value::equal`]).
    pub fn eq_structural(&self, other: &Value) -> bool {
        value::equal(self, other)
    }

    /// Renders the value in `display` style (strings and chars raw).
    pub fn display_string(&self) -> String {
        let mut s = String::new();
        print::render(self, &mut s, false);
        s
    }

    /// Renders the value in `write` style (strings quoted, chars with
    /// `#\` syntax).
    pub fn write_string(&self) -> String {
        let mut s = String::new();
        print::render(self, &mut s, true);
        s
    }
}

// The shared walks call these for every value they visit; inlined,
// each match here folds into the walk's own.
impl RuntimeValue for Value {
    #[inline(always)]
    fn node(&self) -> Node<'_, Value> {
        let atom = match self {
            Value::Fixnum(n) => Atom::Fixnum(*n),
            Value::Bool(b) => Atom::Bool(*b),
            Value::Char(c) => Atom::Char(*c),
            Value::Str(s) => Atom::Str(s),
            Value::Symbol(s) => Atom::Symbol(s),
            Value::Nil => Atom::Nil,
            Value::Void => Atom::Unspecified,
            Value::Pair(p) => return Node::Pair(p.borrow()),
            Value::Vector(items) => return Node::Vector(items.borrow()),
            Value::Closure(_) => Atom::Procedure,
            Value::Cell(_) => Atom::Box,
        };
        Node::Atom(atom)
    }

    #[inline(always)]
    fn heap(&self) -> Option<(usize, usize)> {
        match self {
            Value::Pair(p) => Some((Rc::as_ptr(p) as usize, Rc::strong_count(p))),
            Value::Vector(v) => Some((Rc::as_ptr(v) as usize, Rc::strong_count(v))),
            _ => None,
        }
    }

    #[inline(always)]
    fn is_eq(&self, other: &Value) -> bool {
        self.eq_ptr(other)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display_string())
    }
}

#[cfg(test)]
mod tests {
    use lesgs_testkit::equal::{matches_plain_recursion, Make};

    use super::*;

    #[test]
    fn truthiness() {
        assert!(Value::Fixnum(0).is_truthy());
        assert!(Value::Nil.is_truthy());
        assert!(!Value::Bool(false).is_truthy());
    }

    #[test]
    fn eq_semantics() {
        let a = Value::cons(Value::Fixnum(1), Value::Nil);
        let b = Value::cons(Value::Fixnum(1), Value::Nil);
        assert!(!a.eq_ptr(&b));
        assert!(a.eq_ptr(&a.clone()));
        assert!(a.eq_structural(&b));
        assert!(Value::Fixnum(3).eq_ptr(&Value::Fixnum(3)));
        assert!(!Value::Fixnum(3).eq_ptr(&Value::Bool(true)));
    }

    #[test]
    fn rendering() {
        let l = Value::cons(
            Value::Fixnum(1),
            Value::cons(Value::Str(Rc::new("hi".into())), Value::Nil),
        );
        assert_eq!(l.display_string(), "(1 hi)");
        assert_eq!(l.write_string(), "(1 \"hi\")");
        let dotted = Value::cons(Value::Fixnum(1), Value::Fixnum(2));
        assert_eq!(dotted.display_string(), "(1 . 2)");
        assert_eq!(Value::Char('a').write_string(), "#\\a");
        assert_eq!(Value::Char('a').display_string(), "a");
    }

    /// Structural equality by plain recursion, for values small enough
    /// to recurse over: what `equal?` must answer on acyclic values.
    fn naive_equal(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Pair(x), Value::Pair(y)) => {
                let (xa, xd) = &*x.borrow();
                let (ya, yd) = &*y.borrow();
                naive_equal(xa, ya) && naive_equal(xd, yd)
            }
            (Value::Vector(x), Value::Vector(y)) => {
                let (x, y) = (x.borrow(), y.borrow());
                x.len() == y.len() && x.iter().zip(y.iter()).all(|(p, q)| naive_equal(p, q))
            }
            _ => a.eq_ptr(b),
        }
    }

    #[test]
    fn equal_matches_plain_recursion_on_shared_acyclic_values() {
        let make = Make {
            fixnum: Value::Fixnum,
            cons: Value::cons,
            vector: Value::vector,
        };
        matches_plain_recursion(make, Value::eq_structural, naive_equal);
    }
}
