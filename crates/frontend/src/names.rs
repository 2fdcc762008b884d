//! Unique variable identifiers, the name interner, and the hasher
//! for tables keyed by identifier.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A unique identifier for a bound variable, assigned during alpha
/// renaming.
///
/// Every binding site in the program gets a fresh `VarId`; the original
/// source name is kept in an [`Interner`] for diagnostics and printing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

impl VarId {
    /// Index into per-program side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Maps [`VarId`]s back to their source names.
///
/// # Examples
///
/// ```
/// use lesgs_frontend::Interner;
///
/// let mut names = Interner::new();
/// let x = names.fresh("x");
/// let x2 = names.fresh("x");
/// assert_ne!(x, x2);
/// assert_eq!(names.name(x), "x");
/// assert_eq!(names.name(x2), "x");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Interner {
    names: Vec<String>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Allocates a fresh [`VarId`] remembering `name` as its source name.
    pub fn fresh(&mut self, name: impl Into<String>) -> VarId {
        let id = VarId(u32::try_from(self.names.len()).expect("too many variables"));
        self.names.push(name.into());
        id
    }

    /// The source name of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this interner.
    pub fn name(&self, id: VarId) -> &str {
        &self.names[id.index()]
    }

    /// Number of variables allocated so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no variables have been allocated.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// A multiply-rotate hasher (the `FxHash` of rustc) for tables keyed
/// by [`VarId`]: one multiply per key instead of SipHash's rounds.
/// Identifiers are dense numbers the compiler hands out, not input
/// text, so the table needs no protection from chosen keys; tables
/// keyed by source names keep std's seeded hasher.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    fn add(&mut self, word: u64) {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A map keyed by [`VarId`].
pub type VarMap<T> = HashMap<VarId, T, FxBuildHasher>;

/// A set of [`VarId`]s.
pub type VarSet = HashSet<VarId, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_ids_are_unique() {
        let mut i = Interner::new();
        let a = i.fresh("a");
        let b = i.fresh("a");
        let c = i.fresh("c");
        assert_ne!(a, b);
        assert_eq!(i.len(), 3);
        assert_eq!(i.name(a), "a");
        assert_eq!(i.name(b), "a");
        assert_eq!(i.name(c), "c");
    }

    #[test]
    fn var_tables_hash_dense_ids_apart() {
        use std::hash::BuildHasher;
        let hashes: HashSet<u64> = (0..1000)
            .map(|i| FxBuildHasher::default().hash_one(VarId(i)))
            .collect();
        assert_eq!(hashes.len(), 1000);
        let set: VarSet = (0..100).map(VarId).collect();
        assert!(set.contains(&VarId(99)) && !set.contains(&VarId(100)));
    }

    #[test]
    fn display() {
        assert_eq!(VarId(7).to_string(), "v7");
    }
}
