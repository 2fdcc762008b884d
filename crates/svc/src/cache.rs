//! The compiled-program cache.
//!
//! A program's identity is its source text: the cache is a map keyed
//! by the text itself, hashed with std's randomly seeded hasher
//! because the text is untrusted. Eviction is least-recently-used
//! with distinct logical ticks, so a replayed workload produces the
//! same hit/miss/eviction sequence on every run — the property the
//! bench report's `service_cache` table gates on.

use std::collections::HashMap;
use std::sync::Arc;

use lesgs_engine::CompiledProgram;

struct Entry {
    program: Arc<CompiledProgram>,
    /// Logical access time: the cache's tick counter at the last hit
    /// or insert. Logical, not wall-clock, so eviction order is a
    /// pure function of the request sequence.
    last_used: u64,
}

/// An LRU cache of compiled programs, keyed by source text.
///
/// A capacity of zero disables caching: every lookup misses and
/// nothing is stored (a no-cache baseline).
pub struct ProgramCache {
    capacity: usize,
    tick: u64,
    map: HashMap<Box<str>, Entry>,
}

impl ProgramCache {
    /// An empty cache holding at most `capacity` programs.
    pub fn new(capacity: usize) -> ProgramCache {
        ProgramCache {
            capacity,
            tick: 0,
            map: HashMap::new(),
        }
    }

    /// Number of programs currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured maximum (0 = caching disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether `source` is resident (does not touch recency).
    pub fn contains(&self, source: &str) -> bool {
        self.map.contains_key(source)
    }

    /// Looks up `source`, marking it most-recently-used on a hit.
    pub fn get(&mut self, source: &str) -> Option<Arc<CompiledProgram>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(source).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.program)
        })
    }

    /// Inserts `program`, compiled from `source`, evicting
    /// least-recently-used entries while over capacity. Returns how
    /// many were evicted.
    ///
    /// Every touch gets a distinct tick, so recency never ties and
    /// the victim choice is a pure function of the access sequence.
    pub fn insert(&mut self, source: &str, program: Arc<CompiledProgram>) -> usize {
        if self.capacity == 0 {
            return 0;
        }
        self.tick += 1;
        let entry = Entry {
            program,
            last_used: self.tick,
        };
        self.map.insert(source.into(), entry);
        let mut evicted = 0;
        while self.map.len() > self.capacity {
            let oldest = self.map.values().map(|e| e.last_used).min();
            self.map.retain(|_, e| Some(e.last_used) != oldest);
            evicted += 1;
        }
        evicted
    }

    /// Drops every entry (capacity unchanged).
    pub fn clear(&mut self) {
        self.map.clear();
        self.tick = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lesgs_engine::Engine;

    fn program(n: i64) -> Arc<CompiledProgram> {
        Arc::new(Engine::new().compile(&format!("(+ {n} 1)")).unwrap())
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let mut cache = ProgramCache::new(2);
        assert_eq!(cache.insert("a", program(1)), 0);
        assert_eq!(cache.insert("b", program(2)), 0);
        assert!(cache.get("a").is_some()); // "b" is now the LRU entry
        assert_eq!(cache.insert("c", program(3)), 1);
        assert!(cache.contains("a") && cache.contains("c") && !cache.contains("b"));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = ProgramCache::new(0);
        assert_eq!(cache.insert("a", program(1)), 0);
        assert!(cache.is_empty());
        assert!(cache.get("a").is_none());
    }

    #[test]
    fn reinserting_an_existing_key_does_not_grow_the_cache() {
        let mut cache = ProgramCache::new(2);
        cache.insert("a", program(1));
        cache.insert("a", program(10));
        cache.insert("b", program(2));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.insert("c", program(3)), 1);
        assert!(!cache.contains("a"), "\"a\" was least recently used");
    }
}
