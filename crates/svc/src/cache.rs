//! The content-keyed compiled-program cache.
//!
//! Keys are content hashes ([`lesgs_engine::Engine::content_key`]:
//! source text + allocator-configuration fingerprint), so the same
//! text compiled under two configurations occupies two slots and a
//! textual duplicate always hits. Eviction is least-recently-used
//! with a deterministic tie-break, so a replayed workload produces
//! the same hit/miss/eviction sequence on every run — the property
//! the bench report's `service_cache` table and the CI smoke step
//! gate on.

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

/// An LRU cache of compiled programs keyed by content hash.
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

    /// Whether `key` is resident (does not touch recency).
    pub fn contains(&self, key: u64) -> bool {
        self.map.contains_key(&key)
    }

    /// Looks up `key`, marking it most-recently-used on a hit.
    pub fn get(&mut self, key: u64) -> Option<Arc<CompiledProgram>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&key).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.program)
        })
    }

    /// Inserts `program` under `key`, evicting least-recently-used
    /// entries while over capacity. Returns how many were evicted.
    ///
    /// Every touch gets a distinct tick, so recency never ties and
    /// the victim choice is a pure function of the access sequence.
    pub fn insert(&mut self, key: u64, program: Arc<CompiledProgram>) -> usize {
        if self.capacity == 0 {
            return 0;
        }
        self.tick += 1;
        self.map.insert(
            key,
            Entry {
                program,
                last_used: self.tick,
            },
        );
        let mut evicted = 0;
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
        assert_eq!(cache.insert(1, program(1)), 0);
        assert_eq!(cache.insert(2, program(2)), 0);
        assert!(cache.get(1).is_some()); // 2 is now the LRU entry
        assert_eq!(cache.insert(3, program(3)), 1);
        assert!(cache.contains(1) && cache.contains(3) && !cache.contains(2));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = ProgramCache::new(0);
        assert_eq!(cache.insert(1, program(1)), 0);
        assert!(cache.is_empty());
        assert!(cache.get(1).is_none());
    }

    #[test]
    fn reinserting_an_existing_key_does_not_grow_the_cache() {
        let mut cache = ProgramCache::new(2);
        cache.insert(1, program(1));
        cache.insert(1, program(10));
        cache.insert(2, program(2));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.insert(3, program(3)), 1);
        assert!(!cache.contains(1), "key 1 was least recently used");
    }
}
