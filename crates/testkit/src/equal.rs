//! A property check of a value model's `equal?` against plain
//! recursion.
//!
//! Both VM engines and the interpreter compare values with one shared
//! walk. Each model's tests hold that walk to a reference of its own,
//! a plain recursion over the model's representation, on values built
//! here: two values from one random recipe, the first sharing every
//! node the recipe names twice, the second building some of those
//! afresh and bumping a leaf in any copy now and then. So the classes
//! `equal?` keeps meet shared nodes matched against copies that differ.

use std::fmt;

use crate::Rng;

/// How a model makes values: from a fixnum, a pair and a vector.
pub struct Make<V> {
    /// Makes a fixnum.
    pub fixnum: fn(i64) -> V,
    /// Makes a pair from its car and cdr.
    pub cons: fn(V, V) -> V,
    /// Makes a vector from its items.
    pub vector: fn(Vec<V>) -> V,
}

/// A node of a recipe: a fixnum, or a pair or vector of earlier nodes.
enum Node {
    Leaf(i64),
    Pair(usize, usize),
    Vector(Vec<usize>),
}

/// Checks that `equal` answers as `reference` both ways on 2,000
/// seeded acyclic values made by `make`, and that either answer comes
/// up more than 200 times.
///
/// # Panics
///
/// On the first value on which `equal` and `reference` disagree, or
/// when either answer is too rare for the check to mean anything.
pub fn matches_plain_recursion<V: Clone + fmt::Display>(
    make: Make<V>,
    equal: fn(&V, &V) -> bool,
    reference: fn(&V, &V) -> bool,
) {
    let mut rng = Rng::new(0x9e37_79b9_7f4a_7c15);
    let mut answers = [0; 2];
    for _ in 0..2_000 {
        let n = 2 + rng.below(14);
        let mut recipe = Vec::with_capacity(n);
        for i in 0..n {
            recipe.push(match if i < 2 { 0 } else { rng.below(3) } {
                0 => Node::Leaf(rng.below(2) as i64),
                1 => Node::Pair(rng.below(i), rng.below(i)),
                _ => Node::Vector((0..rng.below(3)).map(|_| rng.below(i)).collect()),
            });
        }
        let a = build(&make, &recipe, n - 1, &mut vec![None; n], None);
        let b = build(&make, &recipe, n - 1, &mut vec![None; n], Some(&mut rng));
        let expected = reference(&a, &b);
        assert_eq!(equal(&a, &b), expected, "{a} against {b}");
        assert_eq!(equal(&b, &a), expected, "{b} against {a}");
        answers[usize::from(expected)] += 1;
    }
    assert!(answers.iter().all(|&k| k > 200), "{answers:?}");
}

/// Builds node `i` of `recipe`. Without `rng` a node named again is
/// shared; with it, such a node may be built anew, and each leaf built
/// may come out one higher.
fn build<V: Clone>(
    make: &Make<V>,
    recipe: &[Node],
    i: usize,
    built: &mut [Option<V>],
    mut rng: Option<&mut Rng>,
) -> V {
    if let Some(v) = &built[i] {
        let fresh = rng.as_mut().is_some_and(|r| r.below(2) == 0);
        if !fresh {
            return v.clone();
        }
    }
    let v = match &recipe[i] {
        Node::Leaf(n) => (make.fixnum)(n + rng.map_or(0, |r| i64::from(r.below(8) == 0))),
        Node::Pair(a, d) => {
            let car = build(make, recipe, *a, built, rng.as_deref_mut());
            (make.cons)(car, build(make, recipe, *d, built, rng))
        }
        Node::Vector(items) => (make.vector)(
            items
                .iter()
                .map(|&j| build(make, recipe, j, built, rng.as_deref_mut()))
                .collect(),
        ),
    };
    built[i] = Some(v.clone());
    v
}
