//! The compiled-program cache.
//!
//! A program's identity is its source text. Entries are found by
//! content key ([`lesgs_engine::Engine::content_key`]: source text +
//! allocator-configuration fingerprint), but each keeps its source and
//! a lookup hits only on equal text, so two texts whose keys collide
//! never answer for each other: they cannot both be resident, and
//! admitting one evicts the other. Eviction is least-recently-used
//! with a deterministic tie-break, so a replayed workload produces the
//! same hit/miss/eviction sequence on every run — the property the
//! bench report's `service_cache` table gates on.

use std::collections::HashMap;
use std::sync::Arc;

use lesgs_engine::CompiledProgram;

struct Entry {
    source: Box<str>,
    program: Arc<CompiledProgram>,
    /// Logical access time: the cache's tick counter at the last hit
    /// or insert. Logical, not wall-clock, so eviction order is a
    /// pure function of the request sequence.
    last_used: u64,
}

/// An LRU cache of compiled programs, found by content key and
/// identified by source text.
///
/// A capacity of zero disables caching: every lookup misses and
/// nothing is stored (a no-cache baseline).
pub struct ProgramCache {
    capacity: usize,
    tick: u64,
    map: HashMap<u64, Entry>,
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

    /// Whether `source`, whose content key is `key`, is resident (does
    /// not touch recency).
    pub fn contains(&self, key: u64, source: &str) -> bool {
        self.map.get(&key).is_some_and(|e| *e.source == *source)
    }

    /// Looks up `source`, whose content key is `key`, marking it
    /// most-recently-used on a hit.
    pub fn get(&mut self, key: u64, source: &str) -> Option<Arc<CompiledProgram>> {
        self.tick += 1;
        let tick = self.tick;
        self.map
            .get_mut(&key)
            .filter(|e| *e.source == *source)
            .map(|e| {
                e.last_used = tick;
                Arc::clone(&e.program)
            })
    }

    /// Inserts `program`, compiled from `source` whose content key is
    /// `key`, evicting least-recently-used entries while over capacity
    /// and a resident text that shares the key. Returns how many were
    /// evicted.
    ///
    /// Every touch gets a distinct tick, so recency never ties and
    /// the victim choice is a pure function of the access sequence.
    pub fn insert(&mut self, key: u64, source: &str, program: Arc<CompiledProgram>) -> usize {
        if self.capacity == 0 {
            return 0;
        }
        self.tick += 1;
        let replaced = self.map.insert(
            key,
            Entry {
                source: source.into(),
                program,
                last_used: self.tick,
            },
        );
        let mut evicted = usize::from(replaced.is_some_and(|e| *e.source != *source));
        while self.map.len() > self.capacity {
            let victim = self
                .map
                .iter()
                .map(|(&k, e)| (e.last_used, k))
                .min()
                .expect("over-capacity cache is non-empty")
                .1;
            self.map.remove(&victim);
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
        assert_eq!(cache.insert(1, "a", program(1)), 0);
        assert_eq!(cache.insert(2, "b", program(2)), 0);
        assert!(cache.get(1, "a").is_some()); // 2 is now the LRU entry
        assert_eq!(cache.insert(3, "c", program(3)), 1);
        assert!(cache.contains(1, "a") && cache.contains(3, "c") && !cache.contains(2, "b"));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = ProgramCache::new(0);
        assert_eq!(cache.insert(1, "a", program(1)), 0);
        assert!(cache.is_empty());
        assert!(cache.get(1, "a").is_none());
    }

    #[test]
    fn reinserting_an_existing_key_does_not_grow_the_cache() {
        let mut cache = ProgramCache::new(2);
        cache.insert(1, "a", program(1));
        cache.insert(1, "a", program(10));
        cache.insert(2, "b", program(2));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.insert(3, "c", program(3)), 1);
        assert!(!cache.contains(1, "a"), "key 1 was least recently used");
    }

    #[test]
    fn a_colliding_text_misses_and_evicts_the_resident_one() {
        let mut cache = ProgramCache::new(4);
        cache.insert(7, "a", program(1));
        assert!(cache.get(7, "b").is_none(), "same key, other text");
        assert_eq!(cache.insert(7, "b", program(2)), 1);
        assert_eq!(cache.len(), 1);
        assert!(cache.contains(7, "b") && !cache.contains(7, "a"));
    }
}
