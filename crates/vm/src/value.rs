//! Runtime values of the virtual machine.
//!
//! A [`Value`] is two words: a tag and one 8-byte scalar. Its first
//! seven variants are immediates, which own nothing. Its last three
//! point at the heap, one `Rc` each, and there are three heap shapes:
//!
//! * [`Value::Pair`], a [`VmPair`];
//! * [`Value::Closure`], a [`VmClosure`];
//! * [`Value::Obj`], an [`Obj`]: a string, a symbol, a vector or a box.
//!
//! Why three: the dispatch loop clones and replaces a value on nearly
//! every instruction. With no more than three `Rc` variants, all after
//! the immediates, and a one-word payload in every immediate (even
//! `()`, as a [`WideUnit`]), rustc compiles a clone to one compare of
//! the tag and one count increment, and the drop of a replaced value to
//! one compare and one decrement, both inline; only `Rc`'s path that
//! frees an object is a call. With six, one per heap type, each clone
//! went through a jump table and each drop called out-of-line drop
//! glue.
//! Pairs and closures keep variants of their own because `RefCell`
//! hides the niche an enum tag could live in: inside [`Obj`] a pair
//! would take 48 bytes instead of 40, and its allocation would move
//! from glibc's 64-byte chunk to the 80-byte one. Each of the three
//! cells is at most 40 bytes, so with `Rc`'s two counts every heap
//! allocation of a value fits a 64-byte chunk.
//!
//! This module says only how a value is laid out and freed. How values
//! compare under `equal?` and how they print are said once, in
//! [`lesgs_frontend::value`] and [`lesgs_frontend::print`], for both
//! engines and the interpreter; a value shows itself to those walks
//! through [`RuntimeValue`].

use std::cell::RefCell;
use std::fmt;
use std::ops::Deref;
use std::rc::{Rc, Weak};

use lesgs_frontend::print;
use lesgs_frontend::value::{self, Atom, Node, RuntimeValue};
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

impl Drop for VmClosure {
    fn drop(&mut self) {
        let free = self.free.get_mut();
        if free.iter().any(frees_container) {
            release(std::mem::take(free));
        }
    }
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

/// No data, widened to one word: the payload of the immediates that
/// carry none ([`Value::NIL`], [`Value::VOID`], [`Value::UNINIT`]).
///
/// With a payload in every immediate, a clone copies the same two words
/// for each of them, and LLVM compiles it to one compare of the tag and
/// a count increment for the heap shapes. A variant without one leaves
/// its second word unset, and each clone inlined into the dispatch loop
/// then went through a jump table over the tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WideUnit(u64);

impl WideUnit {
    /// The one value.
    pub const UNIT: WideUnit = WideUnit(0);
}

/// The heap cell of a pair.
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
        let (car, cdr) = self.0.get_mut();
        if frees_container(car) || frees_container(cdr) {
            release([
                std::mem::replace(car, Value::NIL),
                std::mem::replace(cdr, Value::NIL),
            ]);
        }
    }
}

/// The heap cell of a string, a symbol, a vector or a box: the third
/// heap shape of [`Value`] (see the module docs for why there are
/// three).
#[derive(Debug)]
pub enum Obj {
    /// A string.
    Str(String),
    /// A symbol (compared by name).
    Symbol(String),
    /// A mutable vector.
    Vector(RefCell<Vec<Value>>),
    /// A mutable cell (`box`).
    Cell(RefCell<Value>),
}

impl Drop for Obj {
    fn drop(&mut self) {
        match self {
            Obj::Vector(items) => {
                let items = items.get_mut();
                if items.iter().any(frees_container) {
                    release(std::mem::take(items));
                }
            }
            Obj::Cell(content) => {
                let content = content.get_mut();
                if frees_container(content) {
                    release([std::mem::replace(content, Value::NIL)]);
                }
            }
            Obj::Str(_) | Obj::Symbol(_) => {}
        }
    }
}

// Each heap cell fits 40 bytes, so that with `Rc`'s two counts its
// allocation fits glibc's 64-byte chunk (see the module docs).
const _: () = assert!(std::mem::size_of::<VmPair>() <= 40);
const _: () = assert!(std::mem::size_of::<VmClosure>() <= 40);
const _: () = assert!(std::mem::size_of::<Obj>() <= 40);

/// Whether dropping `value` frees a heap object that holds values: it
/// is the last owner of a pair, closure, vector or box.
fn frees_container(value: &Value) -> bool {
    match value {
        Value::Pair(p) => Rc::strong_count(p) == 1,
        Value::Closure(c) => Rc::strong_count(c) == 1,
        Value::Obj(o) => Rc::strong_count(o) == 1 && matches!(**o, Obj::Vector(_) | Obj::Cell(_)),
        _ => false,
    }
}

/// Frees the values a dying heap object held, without recursion.
///
/// Left to the compiler's drop glue, freeing a value recurses once per
/// level of nesting through cars, cdrs, vector elements, boxes and
/// closure slots, and a few hundred thousand levels overflow the stack,
/// which aborts the process. Instead a heap object whose values own
/// children hands them here, and each is emptied before it is freed,
/// so its own `Drop` finds nothing to do. Like the recursion it
/// replaces, the walk goes down a car before its cdr and puts off only
/// the cdrs of pairs whose car it enters (and a vector's or closure's
/// other values), so a list of immediates or of shallow trees needs no
/// more than the inline part of [`Pending`].
fn release(children: impl IntoIterator<Item = Value>) {
    let mut pending = Pending::new();
    for child in children {
        if frees_container(&child) {
            pending.push(child);
        }
    }
    while let Some(mut value) = pending.pop() {
        // Empty `value` and go on with one child that owns children.
        // Only last owners get here, so each `try_unwrap` succeeds;
        // the emptied object drops at the end of its arm.
        loop {
            let next = match value {
                Value::Pair(p) => Rc::try_unwrap(p).ok().and_then(|mut p| {
                    let (car, cdr) = std::mem::replace(p.0.get_mut(), (Value::NIL, Value::NIL));
                    match (frees_container(&car), frees_container(&cdr)) {
                        (true, true) => {
                            pending.push(cdr);
                            Some(car)
                        }
                        (true, false) => Some(car),
                        (false, true) => Some(cdr),
                        (false, false) => None,
                    }
                }),
                Value::Closure(c) => {
                    if let Ok(mut c) = Rc::try_unwrap(c) {
                        pending.extend(std::mem::take(c.free.get_mut()));
                    }
                    None
                }
                Value::Obj(o) => Rc::try_unwrap(o).ok().and_then(|mut o| match &mut o {
                    Obj::Vector(items) => {
                        pending.extend(std::mem::take(items.get_mut()));
                        None
                    }
                    Obj::Cell(content) => {
                        let content = std::mem::replace(content.get_mut(), Value::NIL);
                        frees_container(&content).then_some(content)
                    }
                    Obj::Str(_) | Obj::Symbol(_) => None,
                }),
                _ => None,
            };
            match next {
                Some(child) => value = child,
                None => break,
            }
        }
    }
}

/// A stack of values put off that keeps its first few inline, so that a
/// walk whose stack stays that shallow never allocates.
struct Pending {
    inline: [Option<Value>; 8],
    /// Items in `inline`; `spill` is empty unless `inline` is full.
    len: usize,
    spill: Vec<Value>,
}

impl Pending {
    fn new() -> Pending {
        Pending {
            inline: [const { None }; 8],
            len: 0,
            spill: Vec::new(),
        }
    }

    fn push(&mut self, value: Value) {
        match self.inline.get_mut(self.len) {
            Some(slot) => {
                *slot = Some(value);
                self.len += 1;
            }
            None => self.spill.push(value),
        }
    }

    fn pop(&mut self) -> Option<Value> {
        if let Some(value) = self.spill.pop() {
            return Some(value);
        }
        self.len = self.len.checked_sub(1)?;
        self.inline[self.len].take()
    }

    /// Pushes each of `values` that owns children; drops the rest.
    fn extend(&mut self, values: Vec<Value>) {
        for value in values {
            if frees_container(&value) {
                self.push(value);
            }
        }
    }
}

/// A VM value.
///
/// Every variant carries exactly one 8-byte scalar: an `i64`, a
/// widened word ([`WideBool`], [`WideChar`], [`WideUnit`], [`RetAddr`])
/// or an `Rc` pointer to one of the three heap shapes, which come last
/// (see the module docs). That gives the enum rustc's scalar-pair ABI, so
/// the dispatch loop moves a value as two whole-word loads or stores,
/// in registers. A payload of another size or shape (a bare `bool` or
/// `char`, a struct of two fields) sends every move through memory in
/// pieces of mixed width, and the reload after each register write then
/// stalls on store-to-load forwarding.
#[derive(Debug)]
pub enum Value {
    /// An integer.
    Fixnum(i64),
    /// `#t` / `#f`.
    Bool(WideBool),
    /// A character.
    Char(WideChar),
    /// The empty list ([`Value::NIL`]).
    Nil(WideUnit),
    /// The unspecified value ([`Value::VOID`]).
    Void(WideUnit),
    /// A return address (lives in `ret` and save slots only).
    RetAddr(RetAddr),
    /// An uninitialized stack slot ([`Value::UNINIT`]; reading one is a
    /// VM bug).
    Uninit(WideUnit),
    /// A mutable pair.
    Pair(Rc<VmPair>),
    /// A procedure.
    Closure(Rc<VmClosure>),
    /// A string, a symbol, a vector or a box.
    Obj(Rc<Obj>),
}

// The two-word layout above; see [`Value`] for why every payload must
// stay one 8-byte scalar.
const _: () = assert!(std::mem::size_of::<Value>() == 16);

// Written out rather than derived so that it is `#[inline(always)]`. With
// three heap shapes a clone is one compare and one count increment, yet
// LLVM left the derived clone out of line at four sites of the dispatch
// loop, where the fast paths read a vector element or a box.
impl Clone for Value {
    #[inline(always)]
    fn clone(&self) -> Value {
        match self {
            Value::Fixnum(n) => Value::Fixnum(*n),
            Value::Bool(b) => Value::Bool(*b),
            Value::Char(c) => Value::Char(*c),
            Value::Nil(u) => Value::Nil(*u),
            Value::Void(u) => Value::Void(*u),
            Value::RetAddr(ra) => Value::RetAddr(*ra),
            Value::Uninit(u) => Value::Uninit(*u),
            Value::Pair(p) => Value::Pair(Rc::clone(p)),
            Value::Closure(c) => Value::Closure(Rc::clone(c)),
            Value::Obj(o) => Value::Obj(Rc::clone(o)),
        }
    }
}

impl Value {
    /// The empty list.
    pub const NIL: Value = Value::Nil(WideUnit::UNIT);

    /// The unspecified value.
    pub const VOID: Value = Value::Void(WideUnit::UNIT);

    /// An uninitialized stack slot.
    pub const UNINIT: Value = Value::Uninit(WideUnit::UNIT);

    /// Builds a pair.
    pub fn cons(car: Value, cdr: Value) -> Value {
        Value::Pair(Rc::new(VmPair(RefCell::new((car, cdr)))))
    }

    /// Builds a string.
    pub fn string(s: String) -> Value {
        Value::Obj(Rc::new(Obj::Str(s)))
    }

    /// Builds a symbol.
    pub fn symbol(name: String) -> Value {
        Value::Obj(Rc::new(Obj::Symbol(name)))
    }

    /// Builds a vector.
    pub fn vector(items: Vec<Value>) -> Value {
        Value::Obj(Rc::new(Obj::Vector(RefCell::new(items))))
    }

    /// Builds a box.
    pub fn cell(content: Value) -> Value {
        Value::Obj(Rc::new(Obj::Cell(RefCell::new(content))))
    }

    /// A boolean.
    pub fn bool(b: bool) -> Value {
        Value::Bool(WideBool::new(b))
    }

    /// A character.
    pub fn char(c: char) -> Value {
        Value::Char(WideChar::new(c))
    }

    /// The string, symbol, vector or box the value points at.
    #[inline(always)]
    pub(crate) fn obj(&self) -> Option<&Obj> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
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
            (Value::Nil(_), Value::Nil(_)) => true,
            (Value::Void(_), Value::Void(_)) => true,
            (Value::Pair(a), Value::Pair(b)) => Rc::ptr_eq(a, b),
            (Value::Closure(a), Value::Closure(b)) => Rc::ptr_eq(a, b),
            (Value::Obj(a), Value::Obj(b)) => match (&**a, &**b) {
                (Obj::Symbol(x), Obj::Symbol(y)) => x == y,
                _ => Rc::ptr_eq(a, b),
            },
            _ => false,
        }
    }

    /// `equal?` ([`value::equal`]).
    pub fn eq_structural(&self, other: &Value) -> bool {
        value::equal(self, other)
    }

    /// Renders in `display` style.
    pub fn display_string(&self) -> String {
        let mut s = String::new();
        print::render(self, &mut s, false);
        s
    }

    /// Renders in `write` style.
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
            Value::Bool(b) => Atom::Bool(b.get()),
            Value::Char(c) => Atom::Char(c.get()),
            Value::Nil(_) => Atom::Nil,
            Value::Void(_) => Atom::Unspecified,
            Value::RetAddr(_) => Atom::Opaque("#<return-address>"),
            Value::Uninit(_) => Atom::Opaque("#<uninit>"),
            Value::Pair(p) => return Node::Pair(p.borrow()),
            Value::Closure(_) => Atom::Procedure,
            Value::Obj(o) => match &**o {
                Obj::Str(s) => Atom::Str(s),
                Obj::Symbol(s) => Atom::Symbol(s),
                Obj::Vector(items) => return Node::Vector(items.borrow()),
                Obj::Cell(_) => Atom::Box,
            },
        };
        Node::Atom(atom)
    }

    #[inline(always)]
    fn heap(&self) -> Option<(usize, usize)> {
        match self {
            Value::Pair(p) => Some((Rc::as_ptr(p) as usize, Rc::strong_count(p))),
            Value::Obj(o) if matches!(**o, Obj::Vector(_)) => {
                Some((Rc::as_ptr(o) as usize, Rc::strong_count(o)))
            }
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

/// Materializes a quoted datum as a runtime value.
pub(crate) fn datum_to_value(d: &Datum) -> Value {
    match d {
        Datum::Fixnum(n) => Value::Fixnum(*n),
        Datum::Bool(b) => Value::bool(*b),
        Datum::Char(c) => Value::char(*c),
        Datum::Str(s) => Value::string(s.clone()),
        Datum::Symbol(s) => Value::symbol(s.clone()),
        Datum::List(items) => items
            .iter()
            .rev()
            .fold(Value::NIL, |acc, d| Value::cons(datum_to_value(d), acc)),
        Datum::Improper(items, tail) => items.iter().rev().fold(datum_to_value(tail), |acc, d| {
            Value::cons(datum_to_value(d), acc)
        }),
        Datum::Vector(items) => Value::vector(items.iter().map(datum_to_value).collect()),
    }
}

/// Materializes an instruction's immediate operand.
#[inline]
pub(crate) fn imm_to_value(imm: Imm) -> Value {
    match imm {
        Imm::Fixnum(n) => Value::Fixnum(n),
        Imm::Bool(b) => Value::bool(b),
        Imm::Char(c) => Value::char(c),
        Imm::Nil => Value::NIL,
        Imm::Void => Value::VOID,
    }
}

/// Materializes a constant-pool entry as a runtime value (both engines
/// build their pools through this at machine start).
pub(crate) fn const_to_value(c: &Const) -> Value {
    match c {
        Const::Fixnum(n) => Value::Fixnum(*n),
        Const::Bool(b) => Value::bool(*b),
        Const::Char(c) => Value::char(*c),
        Const::Str(s) => Value::string(s.clone()),
        Const::Nil => Value::NIL,
        Const::Void => Value::VOID,
        Const::Symbol(s) => Value::symbol(s.clone()),
        Const::Datum(d) => datum_to_value(d),
    }
}

#[cfg(test)]
mod tests {
    use lesgs_testkit::equal::{matches_plain_recursion, Make};

    use super::*;

    #[test]
    fn truthiness_and_eq() {
        assert!(Value::Fixnum(0).is_truthy());
        assert!(!Value::bool(false).is_truthy());
        assert!(Value::bool(true).is_truthy());
        let p = Value::cons(Value::Fixnum(1), Value::NIL);
        assert!(p.eq_ptr(&p.clone()));
        assert!(!p.eq_ptr(&Value::cons(Value::Fixnum(1), Value::NIL)));
        assert!(p.eq_structural(&Value::cons(Value::Fixnum(1), Value::NIL)));
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

    fn list(items: Vec<Value>) -> Value {
        items
            .into_iter()
            .rev()
            .fold(Value::NIL, |acc, x| Value::cons(x, acc))
    }

    #[test]
    fn nested_lists_vectors_and_tails_render_and_compare() {
        let build = || {
            let inner = Value::vector(vec![Value::Fixnum(1), list(vec![Value::char('a')])]);
            let dotted = Value::cons(Value::Fixnum(2), Value::vector(vec![]));
            list(vec![inner, dotted, Value::NIL, Value::string("s".into())])
        };
        let (a, b) = (build(), build());
        assert_eq!(a.write_string(), "(#(1 (#\\a)) (2 . #()) () \"s\")");
        assert_eq!(a.display_string(), "(#(1 (a)) (2 . #()) () s)");
        assert!(a.eq_structural(&b));
        let c = list(vec![Value::vector(vec![
            Value::Fixnum(1),
            list(vec![Value::char('b')]),
        ])]);
        assert!(!a.eq_structural(&c));
    }

    #[test]
    fn freeing_a_value_leaves_what_others_still_hold() {
        let shared = list(vec![Value::Fixnum(7), Value::Fixnum(8)]);
        let boxed = Value::cell(shared.clone());
        let tree = list(vec![
            Value::vector(vec![shared.clone(), boxed.clone()]),
            list(vec![shared.clone()]),
        ]);
        let closure = Value::Closure(Rc::new(VmClosure {
            func: FuncId(0),
            free: RefCell::new(vec![tree, shared.clone()]),
        }));
        drop(closure);
        assert_eq!(shared.write_string(), "(7 8)");
        let Some(Obj::Cell(cell)) = boxed.obj() else {
            unreachable!()
        };
        assert!(cell.borrow().eq_ptr(&shared));
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
            _ => match (a.obj(), b.obj()) {
                (Some(Obj::Vector(x)), Some(Obj::Vector(y))) => {
                    let (x, y) = (x.borrow(), y.borrow());
                    x.len() == y.len() && x.iter().zip(y.iter()).all(|(p, q)| naive_equal(p, q))
                }
                _ => a.eq_ptr(b),
            },
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

    #[test]
    fn rendering_matches_interp_conventions() {
        let l = Value::cons(Value::Fixnum(1), Value::cons(Value::char('a'), Value::NIL));
        assert_eq!(l.display_string(), "(1 a)");
        assert_eq!(l.write_string(), "(1 #\\a)");
    }
}
