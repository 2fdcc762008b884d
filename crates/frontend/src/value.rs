//! The rules every run-time value follows, whichever model holds it.
//!
//! Both VM engines and the interpreter keep values of their own
//! representation. Each shows its values to the shared walks through
//! [`RuntimeValue`], and says nothing else about them: [`equal`] is
//! `equal?` for both, and [`print::render`](crate::print::render) prints
//! for both, so neither can drift from the other.

use std::cell::Ref;
use std::collections::HashMap;

use crate::names::FxBuildHasher;

/// What a value is to the walks, as [`RuntimeValue::node`] lends it.
pub enum Node<'a, V> {
    /// A pair's car and cdr, borrowed from its cell.
    Pair(Ref<'a, (V, V)>),
    /// A vector's items, borrowed from its cell.
    Vector(Ref<'a, Vec<V>>),
    /// Anything else.
    Atom(Atom<'a>),
}

/// A value that is not a pair or a vector, as it prints.
pub enum Atom<'a> {
    /// An integer.
    Fixnum(i64),
    /// `#t` or `#f`.
    Bool(bool),
    /// A character.
    Char(char),
    /// A string.
    Str(&'a str),
    /// A symbol, with its name.
    Symbol(&'a str),
    /// The empty list.
    Nil,
    /// The unspecified value.
    Unspecified,
    /// A procedure. Compiled code keeps no names at run time, so none
    /// prints.
    Procedure,
    /// A box.
    Box,
    /// A VM value no program can reach, printed as this text: a return
    /// address or an uninitialized slot.
    Opaque(&'static str),
}

/// A run-time value the shared walks can compare and print.
pub trait RuntimeValue: Clone {
    /// What the value is: a pair's car and cdr or a vector's items,
    /// lent in place, or the atom.
    fn node(&self) -> Node<'_, Self>;
    /// The address of the pair or vector the value points at, and the
    /// number of references that hold it (its `Rc` strong count);
    /// `None` for any other value.
    fn heap(&self) -> Option<(usize, usize)>;
    /// `eq?`: identity for heap values but symbols, which are equal by
    /// name, and value equality for immediates.
    fn is_eq(&self, other: &Self) -> bool;
}

/// `equal?`: pairs and vectors are compared by structure, strings by
/// content, and anything else by [`RuntimeValue::is_eq`].
///
/// Pairs and vectors still to compare wait on an explicit stack, so
/// nesting depth costs heap, not call stack. A list's next pair waits
/// in a slot of its own, so comparing two lists of atoms needs no
/// stack at all. The walk ends on cyclic values too: after its first 64
/// pairs of containers it records each pair it enters in union-find
/// classes of containers taken as equal, and skips a pair already in
/// one class. A comparison that enters no more than 64 builds no table.
pub fn equal<V: RuntimeValue>(a: &V, b: &V) -> bool {
    let mut walk = Walk {
        next: None,
        pending: Vec::new(),
        unrecorded: UNRECORDED,
        classes: EqualClasses::default(),
    };
    if !walk.compare(a, b) {
        return false;
    }
    while let Some((a, b)) = walk.next.take().or_else(|| walk.pending.pop()) {
        if !walk.enter(&a, &b) {
            continue;
        }
        let same = match (a.node(), b.node()) {
            (Node::Pair(x), Node::Pair(y)) => walk.compare(&x.0, &y.0) && walk.compare(&x.1, &y.1),
            (Node::Vector(x), Node::Vector(y)) => {
                x.len() == y.len() && x.iter().zip(y.iter()).all(|(p, q)| walk.compare(p, q))
            }
            _ => false,
        };
        if !same {
            return false;
        }
    }
    true
}

/// The pairs of containers a walk enters before it records them in
/// [`EqualClasses`]. A comparison that enters no more, such as one of
/// two short lists, builds no table; a cyclic one still ends, because
/// it records every pair after these.
const UNRECORDED: usize = 64;

/// The pairs and vectors [`equal`] still has to walk, and the classes
/// of those it has entered.
struct Walk<V> {
    /// The next pair of containers to walk.
    next: Option<(V, V)>,
    /// Those put off; a car queued before its cdr is walked first.
    pending: Vec<(V, V)>,
    /// How many more pairs of containers to enter unrecorded.
    unrecorded: usize,
    classes: EqualClasses,
}

impl<V: RuntimeValue> Walk<V> {
    /// Compares `a` and `b` at once unless they are two distinct
    /// containers, which it queues to walk; false when they differ.
    fn compare(&mut self, a: &V, b: &V) -> bool {
        match (a.heap(), b.heap()) {
            (Some((x, _)), Some((y, _))) if x != y => {}
            _ => {
                return a.is_eq(b)
                    || match (a.node(), b.node()) {
                        (Node::Atom(Atom::Str(x)), Node::Atom(Atom::Str(y))) => x == y,
                        _ => false,
                    }
            }
        }
        let pair = (a.clone(), b.clone());
        if self.next.is_none() {
            self.next = Some(pair);
        } else {
            self.pending.push(pair);
        }
        true
    }

    /// Whether to walk into the containers `a` and `b`: false when the
    /// walk already takes them as equal.
    fn enter(&mut self, a: &V, b: &V) -> bool {
        if self.unrecorded > 0 {
            self.unrecorded -= 1;
            return true;
        }
        let addr = |v: &V| v.heap().expect("only containers are queued").0;
        self.classes.join(addr(a), addr(b))
    }
}

/// The containers an `equal?` walk has recorded, in classes of those it
/// takes as equal: a union-find forest over their addresses (after
/// Adams and Dybvig, "Efficient Nondestructive Equality Checking for
/// Trees and Graphs", ICFP 2008).
///
/// Before it compares two containers, a walk past its first
/// [`UNRECORDED`] pairs joins their classes, and it skips a pair
/// already in one class. That is R7RS's coinductive `equal?`, under
/// which two values are equal when no walk of them finds a difference,
/// so the walk ends on cyclic values. A skipped pair is related through
/// pairs the walk entered, and it checks each of those; when no check
/// fails, the classes only match containers whose contents match, so
/// an acyclic value gets the answer it would get without them. Pairs
/// entered unrecorded are checked too, so they change no answer
/// either. Each join merges two classes, so a walk over `n` distinct
/// containers records at most `n - 1` pairs, whatever the lengths of
/// the cycles. `equal?` changes nothing, so every container a walk
/// meets stays reachable from the two values it compares, and an
/// address names one container for the whole walk.
#[derive(Debug, Default)]
struct EqualClasses {
    /// Each container's node, by address. Addresses are not input, so
    /// the table needs no protection from chosen keys.
    node: HashMap<usize, usize, FxBuildHasher>,
    /// Each node's parent; the root of a class is its own parent.
    parent: Vec<usize>,
}

impl EqualClasses {
    /// Puts the containers at addresses `a` and `b` in one class; false
    /// when they already were in one.
    fn join(&mut self, a: usize, b: usize) -> bool {
        let (a, b) = (self.root(a), self.root(b));
        if a == b {
            return false;
        }
        self.parent[b] = a;
        true
    }

    /// The root of the class of the container at `addr`, which is a
    /// class of its own when first met.
    fn root(&mut self, addr: usize) -> usize {
        let fresh = self.parent.len();
        let mut n = *self.node.entry(addr).or_insert(fresh);
        if n == fresh {
            self.parent.push(fresh);
        }
        // Path halving: each node passed on the way up skips to its
        // grandparent.
        while self.parent[n] != n {
            self.parent[n] = self.parent[self.parent[n]];
            n = self.parent[n];
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_classes_join_once() {
        let mut classes = EqualClasses::default();
        assert!(classes.join(16, 32));
        assert!(!classes.join(32, 16));
        assert!(classes.join(48, 32));
        assert!(!classes.join(16, 48));
        assert!(!classes.join(64, 64));
    }
}
