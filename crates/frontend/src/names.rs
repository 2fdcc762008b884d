//! Unique variable identifiers and the name interner.

use std::fmt;

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
    fn display() {
        assert_eq!(VarId(7).to_string(), "v7");
    }
}
