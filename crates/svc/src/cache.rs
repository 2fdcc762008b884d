//! The compiled-program cache.
//!
//! A program's identity is its source text: the cache is a map keyed
//! by the text itself, hashed with std's randomly seeded hasher
//! because the text is untrusted. Eviction is least-recently-used
//! with distinct logical ticks, so a replayed workload produces the
//! same hit/miss/eviction sequence on every run — the property the
//! bench report's `service_cache` table gates on.
//!
//! An entry is a [`Resident`]: the compiled program and, once it has
//! run, its answer. The answer lives exactly as long as the record, so
//! a program evicted and compiled again starts without one.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use lesgs_engine::{CompiledProgram, VmOutcome};

/// What a run of a program ends in: its outcome, or its rendered
/// run-time error (fuel exhaustion included).
pub type Answer = Result<Arc<VmOutcome>, String>;

/// A compiled program and the answer of its first run.
///
/// The VM reads no input, clock or randomness, so under one engine
/// configuration every run of a program gives this answer; the service
/// records the first and serves later run requests from it.
#[derive(Debug)]
pub struct Resident {
    program: CompiledProgram,
    answer: OnceLock<Answer>,
}

impl Resident {
    /// A program that has not run yet.
    pub fn new(program: CompiledProgram) -> Resident {
        Resident {
            program,
            answer: OnceLock::new(),
        }
    }

    /// The compiled program.
    pub fn program(&self) -> &CompiledProgram {
        &self.program
    }

    /// The answer of the program's first run, once recorded.
    pub fn answer(&self) -> Option<&Answer> {
        self.answer.get()
    }

    /// Records the answer of the program's first run; a later one is
    /// ignored, since it can only be the same.
    pub fn record(&self, answer: Answer) {
        let _ = self.answer.set(answer);
    }
}

struct Entry {
    resident: Arc<Resident>,
    /// Logical access time: the cache's tick counter at the last hit
    /// or insert. Logical, not wall-clock, so eviction order is a
    /// pure function of the request sequence.
    last_used: u64,
}

/// An LRU cache of compiled programs and their answers, keyed by
/// source text.
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
    pub fn get(&mut self, source: &str) -> Option<Arc<Resident>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(source).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.resident)
        })
    }

    /// Inserts `resident`, compiled from `source`, evicting
    /// least-recently-used entries while over capacity. Returns how
    /// many were evicted.
    ///
    /// Every touch gets a distinct tick, so recency never ties and
    /// the victim choice is a pure function of the access sequence.
    pub fn insert(&mut self, source: &str, resident: Arc<Resident>) -> usize {
        if self.capacity == 0 {
            return 0;
        }
        self.tick += 1;
        let entry = Entry {
            resident,
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

    fn program(n: i64) -> Arc<Resident> {
        let program = Engine::new().compile(&format!("(+ {n} 1)")).unwrap();
        Arc::new(Resident::new(program))
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

    #[test]
    fn an_answer_lives_as_long_as_its_entry() {
        let mut cache = ProgramCache::new(1);
        cache.insert("a", program(1));
        let resident = cache.get("a").unwrap();
        let outcome = Engine::new().execute(resident.program()).unwrap();
        resident.record(Ok(Arc::new(outcome)));
        resident.record(Err("a second answer is ignored".to_owned()));
        let answer = cache.get("a").unwrap().answer().cloned();
        assert_eq!(answer.unwrap().unwrap().value, "2");
        cache.insert("b", program(2));
        cache.insert("a", program(1));
        assert!(
            cache.get("a").unwrap().answer().is_none(),
            "a new residency"
        );
    }
}
