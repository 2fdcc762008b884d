//! Runtime values of the virtual machine.

use std::cell::RefCell;
use std::fmt;
use std::ops::Deref;
use std::rc::{Rc, Weak};

use lesgs_frontend::{Const, FuncId};
use lesgs_sexpr::Datum;

use crate::instr::Imm;

/// A closure object: a code pointer plus captured values. Slots are
/// mutable to support the recursive-group backpatching instruction.
#[derive(Debug)]
pub struct VmClosure {
    /// Code pointer.
    pub func: FuncId,
    /// Captured values.
    pub free: RefCell<Vec<Value>>,
}

impl VmClosure {
    /// Reads free slot `index`.
    ///
    /// # Errors
    ///
    /// A slot past the closure's free slots. The verifier cannot rule
    /// it out: it does not know which closure a register holds.
    pub(crate) fn load_free(&self, index: u32) -> Result<Value, String> {
        let free = self.free.borrow();
        free.get(index as usize)
            .cloned()
            .ok_or_else(|| slot_out_of_range(index, free.len()))
    }

    /// Writes free slot `index` (the `closure-set!` backpatch).
    ///
    /// # Errors
    ///
    /// A slot past the closure's free slots, as for
    /// [`VmClosure::load_free`].
    pub(crate) fn set_free(&self, index: u32, v: Value) -> Result<(), String> {
        let mut free = self.free.borrow_mut();
        let n_free = free.len();
        let slot = free
            .get_mut(index as usize)
            .ok_or_else(|| slot_out_of_range(index, n_free))?;
        *slot = v;
        Ok(())
    }
}

fn slot_out_of_range(index: u32, n_free: usize) -> String {
    format!("closure slot {index} out of range (the closure has {n_free})")
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

/// A return address: the function and the function-relative pc to
/// resume at, packed into one word (`func` in the high half, `pc` in
/// the low) so that [`Value`] keeps its two-word layout.
///
/// The caller's frame pointer is not part of it: each engine keeps it
/// on the activation that `call` pushes and `return` pops. For a
/// verified program that is the frame pointer of the call that made
/// this address, because `return` and tail calls require `ret` to hold
/// the activation's own return address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetAddr(u64);

impl RetAddr {
    /// Packs a return point.
    pub fn new(func: FuncId, pc: u32) -> RetAddr {
        RetAddr((u64::from(func.0) << 32) | u64::from(pc))
    }

    /// Function containing the return point.
    pub fn func(self) -> FuncId {
        FuncId((self.0 >> 32) as u32)
    }

    /// Instruction index within that function.
    pub fn pc(self) -> u32 {
        self.0 as u32
    }
}

/// A boolean widened to one word, so that [`Value`] keeps its two-word
/// layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WideBool(u64);

impl WideBool {
    /// `#f`.
    pub const FALSE: WideBool = WideBool(0);

    /// Widens a boolean.
    pub fn new(b: bool) -> WideBool {
        WideBool(u64::from(b))
    }

    /// The boolean.
    pub fn get(self) -> bool {
        self.0 != 0
    }
}

/// A character widened to one word, so that [`Value`] keeps its
/// two-word layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WideChar(u64);

impl WideChar {
    /// Widens a character.
    pub fn new(c: char) -> WideChar {
        WideChar(u64::from(c))
    }

    /// The character.
    pub fn get(self) -> char {
        char::from_u32(self.0 as u32).expect("a WideChar holds a char")
    }
}

/// The heap cell of a pair.
///
/// Dropping a pair releases its cdr chain in a loop, not by recursion,
/// so a long list cannot overflow the stack when it dies. Only cars
/// still recurse.
#[derive(Debug)]
pub struct VmPair(RefCell<(Value, Value)>);

impl Deref for VmPair {
    type Target = RefCell<(Value, Value)>;

    fn deref(&self) -> &RefCell<(Value, Value)> {
        &self.0
    }
}

impl Drop for VmPair {
    fn drop(&mut self) {
        let mut next = std::mem::replace(&mut self.0.get_mut().1, Value::Nil);
        // A uniquely owned cdr is unlinked before it drops, so its own
        // `drop` finds `()` and returns; a shared one only loses a count.
        while let Value::Pair(rc) = next {
            match Rc::try_unwrap(rc) {
                Ok(mut pair) => next = std::mem::replace(&mut pair.0.get_mut().1, Value::Nil),
                Err(_) => break,
            }
        }
    }
}

/// A VM value.
///
/// Every variant that carries data carries exactly one 8-byte scalar:
/// an `i64`, a widened word ([`WideBool`], [`WideChar`], [`RetAddr`])
/// or an `Rc` pointer. That gives the enum rustc's scalar-pair ABI, so
/// the dispatch loop moves a value as two whole-word loads or stores,
/// in registers. A payload of another size or shape (a bare `bool` or
/// `char`, a struct of two fields) sends every move through memory in
/// pieces of mixed width, and the reload after each register write then
/// stalls on store-to-load forwarding.
#[derive(Debug, Clone)]
pub enum Value {
    /// An integer.
    Fixnum(i64),
    /// `#t` / `#f`.
    Bool(WideBool),
    /// A character.
    Char(WideChar),
    /// A string.
    Str(Rc<String>),
    /// A symbol (compared by name).
    Symbol(Rc<String>),
    /// The empty list.
    Nil,
    /// The unspecified value.
    Void,
    /// A mutable pair.
    Pair(Rc<VmPair>),
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

// The two-word layout above; see [`Value`] for why every payload must
// stay one 8-byte scalar.
const _: () = assert!(std::mem::size_of::<Value>() == 16);

impl Value {
    /// Builds a pair.
    pub fn cons(car: Value, cdr: Value) -> Value {
        Value::Pair(Rc::new(VmPair(RefCell::new((car, cdr)))))
    }

    /// A boolean.
    pub fn bool(b: bool) -> Value {
        Value::Bool(WideBool::new(b))
    }

    /// A character.
    pub fn char(c: char) -> Value {
        Value::Char(WideChar::new(c))
    }

    /// Scheme truthiness.
    pub fn is_truthy(&self) -> bool {
        !matches!(self, Value::Bool(WideBool::FALSE))
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

    /// `equal?` — structural equality. Walks a list's cdr chain in a
    /// loop, so only cars and vector elements recurse.
    pub fn eq_structural(&self, other: &Value) -> bool {
        let (mut a, mut b) = (self.clone(), other.clone());
        loop {
            let (next_a, next_b) = match (&a, &b) {
                (Value::Pair(x), Value::Pair(y)) => {
                    if Rc::ptr_eq(x, y) {
                        return true;
                    }
                    let (xa, xd) = &*x.borrow();
                    let (ya, yd) = &*y.borrow();
                    if !xa.eq_structural(ya) {
                        return false;
                    }
                    (xd.clone(), yd.clone())
                }
                (Value::Vector(x), Value::Vector(y)) => {
                    if Rc::ptr_eq(x, y) {
                        return true;
                    }
                    let x = x.borrow();
                    let y = y.borrow();
                    return x.len() == y.len()
                        && x.iter().zip(y.iter()).all(|(p, q)| p.eq_structural(q));
                }
                (Value::Str(x), Value::Str(y)) => return x == y,
                _ => return a.eq_ptr(&b),
            };
            a = next_a;
            b = next_b;
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
            Value::Bool(b) => out.push_str(if b.get() { "#t" } else { "#f" }),
            Value::Char(c) => {
                let c = c.get();
                if write {
                    match c {
                        ' ' => out.push_str("#\\space"),
                        '\n' => out.push_str("#\\newline"),
                        '\t' => out.push_str("#\\tab"),
                        c => {
                            out.push_str("#\\");
                            out.push(c);
                        }
                    }
                } else {
                    out.push(c);
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
        Datum::Bool(b) => Value::bool(*b),
        Datum::Char(c) => Value::char(*c),
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

/// Materializes an instruction's immediate operand.
#[inline]
pub(crate) fn imm_to_value(imm: Imm) -> Value {
    match imm {
        Imm::Fixnum(n) => Value::Fixnum(n),
        Imm::Bool(b) => Value::bool(b),
        Imm::Char(c) => Value::char(c),
        Imm::Nil => Value::Nil,
        Imm::Void => Value::Void,
    }
}

/// Materializes a constant-pool entry as a runtime value (both engines
/// build their pools through this at machine start).
pub(crate) fn const_to_value(c: &Const) -> Value {
    match c {
        Const::Fixnum(n) => Value::Fixnum(*n),
        Const::Bool(b) => Value::bool(*b),
        Const::Char(c) => Value::char(*c),
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
        assert!(!Value::bool(false).is_truthy());
        assert!(Value::bool(true).is_truthy());
        let p = Value::cons(Value::Fixnum(1), Value::Nil);
        assert!(p.eq_ptr(&p.clone()));
        assert!(!p.eq_ptr(&Value::cons(Value::Fixnum(1), Value::Nil)));
        assert!(p.eq_structural(&Value::cons(Value::Fixnum(1), Value::Nil)));
    }

    #[test]
    fn ret_addr_round_trips_at_the_extremes() {
        for (func, pc) in [
            (0, 0),
            (7, 42),
            (u32::MAX, 0),
            (0, u32::MAX),
            (u32::MAX, u32::MAX),
        ] {
            let ra = RetAddr::new(FuncId(func), pc);
            assert_eq!((ra.func(), ra.pc()), (FuncId(func), pc));
        }
    }

    #[test]
    fn widened_scalars_round_trip() {
        for b in [false, true] {
            assert_eq!(WideBool::new(b).get(), b);
        }
        for c in ['\0', 'a', '\u{10FFFF}'] {
            assert_eq!(WideChar::new(c).get(), c);
        }
    }

    #[test]
    fn rendering_matches_interp_conventions() {
        let l = Value::cons(Value::Fixnum(1), Value::cons(Value::char('a'), Value::Nil));
        assert_eq!(l.display_string(), "(1 a)");
        assert_eq!(l.write_string(), "(1 #\\a)");
    }
}
