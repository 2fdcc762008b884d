//! Printing run-time values: one walk for both VM engines and the
//! interpreter, which show their values to it through
//! [`RuntimeValue`]. How each atom prints is said once here too, and a
//! character or string in `write` style is written by
//! [`lesgs_sexpr::write_char`] and [`lesgs_sexpr::write_string`], as a
//! quoted datum is.
//!
//! Lists and vectors are printed from an explicit stack, so nesting
//! depth costs heap, not call stack. A value with a cycle prints with
//! R7RS datum labels, in `write` and `display` style alike: the list
//! whose cdr is itself prints as `#0=(1 . #0#)`, the vector whose first
//! item is itself as `#0=#(#0# 2)`. A label goes only on a container
//! that lies on a cycle, and labels are numbered in the order they are
//! first printed, so every printer built on [`render`] prints a value
//! the same way. A value with no cycle prints without labels, shared
//! parts in full each time they are reached.
//!
//! The walk keeps count of the shared containers it is inside, and
//! only of those: a container that one reference holds can be reached
//! only through that reference, so it cannot be met again while the
//! walk is inside it. The walk looks at each value through a clone of
//! its own, so such a container shows an `Rc` count of 2 and one held
//! more often at least 3; [`render`] keeps `root` alive for the whole
//! print as one more holder, so a root that only a slot on its own
//! cycle holds is seen as shared too. Clones held elsewhere in the walk
//! only raise counts, never hide a share.

use std::collections::{HashMap, HashSet};
use std::fmt::Write;

use crate::names::FxBuildHasher;
use crate::value::{Atom, Node, RuntimeValue};

/// Appends `root` in `write` style (strings quoted, characters in `#\`
/// syntax) or `display` style (both raw).
///
/// The value prints in one walk unless the walk meets a cycle. Then
/// the output so far is dropped, a second walk finds the containers to
/// label, and the value prints again with them.
pub fn render<V: RuntimeValue>(root: &V, out: &mut String, write: bool) {
    // One more holder of the root for the whole print (module docs).
    let root = root.clone();
    let start = out.len();
    if print(&root, out, write, &mut Seen::Plain(Inside::default())).is_err() {
        out.truncate(start);
        let mut labelled = Seen::Labelled {
            labels: back_edge_targets(&root),
            printed: 0,
        };
        print(&root, out, write, &mut labelled).expect("the labels break every cycle");
    }
}

/// Appends an atom: how each prints, in both styles.
fn print_atom(atom: Atom<'_>, out: &mut String, write: bool) {
    // Writing to a `String` cannot fail.
    let _ = match atom {
        Atom::Fixnum(n) => write!(out, "{n}"),
        Atom::Bool(b) => out.write_str(if b { "#t" } else { "#f" }),
        Atom::Char(c) if write => lesgs_sexpr::write_char(c, out),
        Atom::Str(s) if write => lesgs_sexpr::write_string(s, out),
        Atom::Char(c) => out.write_char(c),
        Atom::Str(s) | Atom::Symbol(s) => out.write_str(s),
        Atom::Nil => out.write_str("()"),
        Atom::Unspecified => out.write_str("#<void>"),
        Atom::Procedure => out.write_str("#<procedure>"),
        Atom::Box => out.write_str("#<box>"),
        Atom::Opaque(text) => out.write_str(text),
    };
}

/// A cycle [`Seen::Plain`] met.
#[derive(Debug)]
struct Cycle;

/// The shared containers a plain print is inside, each with the open
/// list or vector whose close leaves it.
#[derive(Default)]
struct Inside {
    /// The root's address. The print is inside the root until it ends,
    /// so the root needs no entry in `addrs`, and printing a list whose
    /// only shared pair is its first allocates no table.
    root: Option<usize>,
    addrs: HashSet<usize, FxBuildHasher>,
    /// `(frame, address)`, innermost frame last.
    entered: Vec<(usize, usize)>,
}

/// The containers that get a datum label, by address, each with its
/// number once it is printed.
type Labels = HashMap<usize, Option<usize>, FxBuildHasher>;

/// What the print walk knows about the containers it enters.
enum Seen {
    /// No cycle found yet: a shared container met again while the walk
    /// is inside it ends the print with [`Cycle`].
    Plain(Inside),
    /// Labels for every cycle, and how many are printed so far.
    Labelled { labels: Labels, printed: usize },
}

/// What the walk does with a container it reaches.
enum Entry {
    /// Print its contents.
    Open,
    /// It is printed already: its label's reference stands for it.
    Refer,
}

// `enter` and `is_labelled` run for every pair and vector printed;
// inlined into `print`, they made printing a 200,000-element list
// about 18% faster than out of line.
impl Seen {
    /// Enters the pair or vector `v`, which the open list or vector
    /// `frame` leaves on closing, and prints its label's definition or
    /// reference, if any.
    #[inline(always)]
    fn enter<V: RuntimeValue>(
        &mut self,
        v: &V,
        frame: usize,
        out: &mut String,
    ) -> Result<Entry, Cycle> {
        let Some((addr, refs)) = v.heap() else {
            unreachable!("only pairs and vectors are entered")
        };
        match self {
            Seen::Plain(inside) => {
                match inside.root {
                    None => {
                        inside.root = Some(addr);
                        return Ok(Entry::Open);
                    }
                    Some(root) if root == addr => return Err(Cycle),
                    Some(_) => {}
                }
                if refs > 2 {
                    if !inside.addrs.insert(addr) {
                        return Err(Cycle);
                    }
                    inside.entered.push((frame, addr));
                }
                Ok(Entry::Open)
            }
            Seen::Labelled { labels, printed } => match labels.get_mut(&addr) {
                None => Ok(Entry::Open),
                Some(Some(n)) => {
                    let _ = write!(out, "#{n}#");
                    Ok(Entry::Refer)
                }
                Some(label @ None) => {
                    let _ = write!(out, "#{printed}=");
                    *label = Some(*printed);
                    *printed += 1;
                    Ok(Entry::Open)
                }
            },
        }
    }

    /// Whether the pair `v` has a label, so a list cannot go on
    /// through it.
    #[inline(always)]
    fn is_labelled<V: RuntimeValue>(&self, v: &V) -> bool {
        match self {
            Seen::Plain(_) => false,
            Seen::Labelled { labels, .. } => v.heap().is_some_and(|(a, _)| labels.contains_key(&a)),
        }
    }

    /// The open list or vector `frame` closes: the walk leaves the
    /// containers it entered for it.
    fn close(&mut self, frame: usize) {
        if let Seen::Plain(inside) = self {
            while let Some(&(f, addr)) = inside.entered.last() {
                if f != frame {
                    break;
                }
                inside.addrs.remove(&addr);
                inside.entered.pop();
            }
        }
    }
}

/// A list or vector [`print`] has opened but not closed.
enum Open<V> {
    /// A list, with the part not printed yet; `None` once its dotted
    /// tail is printed.
    List(Option<V>),
    /// A vector, with the index of the next item to print.
    Vector(V, usize),
}

/// Appends `root`, entering each container through `seen`.
fn print<V: RuntimeValue>(
    root: &V,
    out: &mut String,
    write: bool,
    seen: &mut Seen,
) -> Result<(), Cycle> {
    let mut open: Vec<Open<V>> = Vec::new();
    let mut current = Some(root.clone());
    loop {
        if let Some(v) = current.take() {
            match v.node() {
                Node::Atom(atom) => print_atom(atom, out, write),
                Node::Pair(pair) => {
                    if let Entry::Open = seen.enter(&v, open.len(), out)? {
                        out.push('(');
                        open.push(Open::List(Some(pair.1.clone())));
                        current = Some(pair.0.clone());
                        continue;
                    }
                }
                Node::Vector(_) => {
                    if let Entry::Open = seen.enter(&v, open.len(), out)? {
                        out.push_str("#(");
                        open.push(Open::Vector(v.clone(), 0));
                    }
                }
            }
        }
        // The current value is printed: go on with the innermost open
        // list or vector.
        let Some(frame) = open.len().checked_sub(1) else {
            return Ok(());
        };
        match &mut open[frame] {
            Open::List(rest) => {
                // `None`: the dotted tail is printed.
                if let Some(tail) = rest.take() {
                    match tail.node() {
                        Node::Atom(Atom::Nil) => {}
                        Node::Pair(pair) if !seen.is_labelled(&tail) => {
                            seen.enter(&tail, frame, out)?;
                            out.push(' ');
                            *rest = Some(pair.1.clone());
                            current = Some(pair.0.clone());
                            continue;
                        }
                        _ => {
                            // Printed next as a datum of its own (a
                            // labelled pair among them); the `None` left
                            // in `rest` then closes the list.
                            out.push_str(" . ");
                            current = Some(tail.clone());
                            continue;
                        }
                    }
                }
            }
            Open::Vector(v, next) => {
                let item = match v.node() {
                    Node::Vector(items) => items.get(*next).cloned(),
                    _ => None,
                };
                if let Some(item) = item {
                    if *next > 0 {
                        out.push(' ');
                    }
                    *next += 1;
                    current = Some(item);
                    continue;
                }
            }
        }
        out.push(')');
        open.pop();
        seen.close(frame);
    }
}

/// A step of [`back_edge_targets`]' walk.
enum Step<V> {
    /// Walk into a value.
    Enter(V),
    /// Leave the container at this address.
    Leave(usize),
}

/// The containers a depth-first walk from `root`, in print order,
/// reaches again while it is still inside them: the targets of its
/// back edges. They lie on cycles, and every cycle has one, so
/// printing them once and referring to them after that ends. The walk
/// enters each shared container once, and counts as the print does
/// (module docs).
fn back_edge_targets<V: RuntimeValue>(root: &V) -> Labels {
    // For each shared container entered: whether the walk is still
    // inside it.
    let mut inside: HashMap<usize, bool, FxBuildHasher> = HashMap::default();
    let mut targets = Labels::default();
    // Containers still to enter, and `Leave` marks, each pushed as its
    // shared container is entered and so popped once the walk is done
    // with everything inside it.
    let mut steps: Vec<Step<V>> = Vec::new();
    let mut current = Some(root.clone());
    loop {
        let v = match current.take().map(Step::Enter).or_else(|| steps.pop()) {
            None => return targets,
            Some(Step::Leave(addr)) => {
                inside.insert(addr, false);
                continue;
            }
            Some(Step::Enter(v)) => v,
        };
        let Some((addr, refs)) = v.heap() else {
            continue;
        };
        if refs > 2 {
            match inside.get(&addr) {
                Some(true) => {
                    targets.insert(addr, None);
                    continue;
                }
                Some(false) => continue,
                None => {
                    inside.insert(addr, true);
                    steps.push(Step::Leave(addr));
                }
            }
        }
        match v.node() {
            Node::Pair(pair) if pair.0.heap().is_some() => {
                steps.push(Step::Enter(pair.1.clone()));
                current = Some(pair.0.clone());
            }
            Node::Pair(pair) => current = Some(pair.1.clone()),
            Node::Vector(items) => steps.extend(items.iter().rev().cloned().map(Step::Enter)),
            Node::Atom(_) => {}
        };
    }
}
