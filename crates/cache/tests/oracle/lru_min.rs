//! LRU-MIN replacement (Abrams et al., "Caching Proxies: Limitations and
//! Potentials", VT TR-95-12 — reference [1] of the paper).

use std::collections::HashMap;

use nserver_cache::{EntryId, EntryMeta, ReplacementPolicy};

/// LRU-MIN tries to minimise the *number* of documents evicted: to make
/// room for an incoming document of size `S`, it first looks for cached
/// documents of size ≥ `S` and evicts the least recently used of those.
/// If there is none, it halves the threshold (`S/2`, `S/4`, …) and repeats,
/// eventually falling back to plain LRU over everything.
#[derive(Debug, Default)]
pub struct LruMin {
    entries: HashMap<EntryId, (u64, u64)>, // id -> (size, last_access)
}

impl LruMin {
    /// Create an empty LRU-MIN policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn lru_among(&self, min_size: u64) -> Option<EntryId> {
        self.entries
            .iter()
            .filter(|(_, (size, _))| *size >= min_size)
            .min_by_key(|(id, (_, la))| (*la, **id))
            .map(|(id, _)| *id)
    }
}

impl ReplacementPolicy for LruMin {
    fn name(&self) -> &'static str {
        "LRU-MIN"
    }

    fn on_insert(&mut self, id: EntryId, meta: &EntryMeta) {
        self.entries.insert(id, (meta.size, meta.last_access));
    }

    fn on_access(&mut self, id: EntryId, meta: &EntryMeta) {
        self.entries.insert(id, (meta.size, meta.last_access));
    }

    fn on_remove(&mut self, id: EntryId) {
        self.entries.remove(&id);
    }

    fn choose_victim(&mut self, incoming_size: u64) -> Option<EntryId> {
        let mut threshold = incoming_size;
        loop {
            if let Some(victim) = self.lru_among(threshold) {
                return Some(victim);
            }
            if threshold == 0 {
                // No entry at all.
                return None;
            }
            threshold /= 2;
        }
    }
}
