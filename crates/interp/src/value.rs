//! Runtime values of the reference interpreter.

use std::cell::RefCell;
use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

use lesgs_frontend::VarId;

use crate::env::Env;
use crate::eval::IExpr;

/// A closure value: code plus captured environment.
#[derive(Debug)]
pub struct ClosureV {
    /// Formal parameters.
    pub params: Vec<VarId>,
    /// The body expression.
    pub body: IExpr,
    /// The defining environment.
    pub env: Env,
    /// Diagnostic name.
    pub name: Option<String>,
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

    /// `equal?` — structural equality. Pairs and vectors still to
    /// compare wait on an explicit stack, so nesting depth costs heap,
    /// not call stack.
    pub fn eq_structural(&self, other: &Value) -> bool {
        let mut pending = Vec::new();
        if !compare_or_queue(self, other, &mut pending) {
            return false;
        }
        while let Some((a, b)) = pending.pop() {
            let equal = match (&a, &b) {
                (Value::Pair(x), Value::Pair(y)) => {
                    let (xa, xd) = &*x.borrow();
                    let (ya, yd) = &*y.borrow();
                    // The car is queued last, so it is walked first.
                    compare_or_queue(xd, yd, &mut pending) && compare_or_queue(xa, ya, &mut pending)
                }
                (Value::Vector(x), Value::Vector(y)) => {
                    let (x, y) = (x.borrow(), y.borrow());
                    x.len() == y.len()
                        && (x.iter().zip(y.iter()).rev())
                            .all(|(p, q)| compare_or_queue(p, q, &mut pending))
                }
                _ => unreachable!("only pairs and vectors are queued"),
            };
            if !equal {
                return false;
            }
        }
        true
    }

    /// Renders the value in `display` style (strings and chars raw).
    pub fn display_string(&self) -> String {
        let mut s = String::new();
        self.render(&mut s, false);
        s
    }

    /// Renders the value in `write` style (strings quoted, chars with
    /// `#\` syntax).
    pub fn write_string(&self) -> String {
        let mut s = String::new();
        self.render(&mut s, true);
        s
    }

    /// Renders with an explicit stack of the lists and vectors being
    /// printed, so nesting depth costs heap, not call stack.
    fn render(&self, out: &mut String, write: bool) {
        let mut open: Vec<Open> = Vec::new();
        let mut current = Some(self.clone());
        loop {
            match current.take() {
                Some(Value::Pair(p)) => {
                    out.push('(');
                    let (car, cdr) = p.borrow().clone();
                    open.push(Open::List(cdr));
                    current = Some(car);
                    continue;
                }
                Some(Value::Vector(v)) => {
                    out.push_str("#(");
                    open.push(Open::Vector(v, 0));
                }
                Some(atom) => atom.render_atom(out, write),
                None => {}
            }
            // The current value is printed: go on with the innermost
            // open list or vector.
            match open.last_mut() {
                None => return,
                Some(Open::List(rest)) => match std::mem::replace(rest, Value::Nil) {
                    Value::Pair(p) => {
                        out.push(' ');
                        let (car, cdr) = p.borrow().clone();
                        *rest = cdr;
                        current = Some(car);
                    }
                    Value::Nil => {
                        out.push(')');
                        open.pop();
                    }
                    tail => {
                        // Printed next; the `()` left in `rest` then
                        // closes the list.
                        out.push_str(" . ");
                        current = Some(tail);
                    }
                },
                Some(Open::Vector(v, next)) => {
                    let item = v.borrow().get(*next).cloned();
                    match item {
                        Some(item) => {
                            if *next > 0 {
                                out.push(' ');
                            }
                            *next += 1;
                            current = Some(item);
                        }
                        None => {
                            out.push(')');
                            open.pop();
                        }
                    }
                }
            }
        }
    }

    /// Renders a value that is neither a pair nor a vector.
    fn render_atom(&self, out: &mut String, write: bool) {
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
            Value::Pair(_) | Value::Vector(_) => unreachable!("render walks pairs and vectors"),
            Value::Closure(c) => {
                out.push_str("#<procedure");
                if let Some(n) = &c.name {
                    out.push(' ');
                    out.push_str(n);
                }
                out.push('>');
            }
            Value::Cell(_) => out.push_str("#<box>"),
        }
    }
}

/// Compares `a` and `b` at once unless they are two distinct pairs or
/// two distinct vectors, which it queues on `pending` for
/// [`Value::eq_structural`] to walk; false when they differ.
fn compare_or_queue(a: &Value, b: &Value, pending: &mut Vec<(Value, Value)>) -> bool {
    match (a, b) {
        (Value::Pair(x), Value::Pair(y)) if !Rc::ptr_eq(x, y) => {}
        (Value::Vector(x), Value::Vector(y)) if !Rc::ptr_eq(x, y) => {}
        (Value::Str(x), Value::Str(y)) => return x == y,
        _ => return a.eq_ptr(b),
    }
    pending.push((a.clone(), b.clone()));
    true
}

/// A list or vector [`Value::render`] has opened but not closed.
enum Open {
    /// A list, with the part not printed yet.
    List(Value),
    /// A vector, with the index of the next element to print.
    Vector(Rc<VectorCell>, usize),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display_string())
    }
}

#[cfg(test)]
mod tests {
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
}
