//! LRU-MIN replacement (Abrams et al., "Caching Proxies: Limitations and
//! Potentials", VT TR-95-12 — reference [1] of the paper).

use crate::policy::{EntryId, EntryMeta, ReplacementPolicy, Slots};

/// LRU-MIN tries to minimise the *number* of documents evicted: to make
/// room for an incoming document of size `S`, it first looks for cached
/// documents of size ≥ `S` and evicts the least recently used of those.
/// If there is none, it halves the threshold (`S/2`, `S/4`, …) and repeats,
/// eventually falling back to plain LRU over everything.
#[derive(Debug, Default)]
pub struct LruMin {
    entries: Slots<(u64, u64)>, // id -> (size, last_access)
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
            .min_by_key(|(id, (_, la))| (*la, *id))
            .map(|(id, _)| id)
    }
}

impl ReplacementPolicy for LruMin {
    fn name(&self) -> &'static str {
        "LRU-MIN"
    }

    fn on_insert(&mut self, id: EntryId, meta: &EntryMeta) {
        self.entries.set(id, (meta.size, meta.last_access));
    }

    fn on_access(&mut self, id: EntryId, meta: &EntryMeta) {
        self.entries.set(id, (meta.size, meta.last_access));
    }

    fn on_remove(&mut self, id: EntryId) {
        self.entries.take(id);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(size: u64, t: u64) -> EntryMeta {
        EntryMeta {
            size,
            last_access: t,
            access_count: 1,
            inserted_at: t,
        }
    }

    #[test]
    fn prefers_documents_at_least_incoming_size() {
        let mut p = LruMin::new();
        p.on_insert(1, &meta(100, 0)); // big, oldest
        p.on_insert(2, &meta(10, 1)); // small
        p.on_insert(3, &meta(200, 2)); // big, newer
                                       // Incoming 100-byte doc: candidates of size >= 100 are {1, 3};
                                       // evict the LRU of those, i.e. 1 — even though 2 is overall LRU? No:
                                       // 1 is oldest overall anyway. Make 2 the overall-LRU instead:
        p.on_access(1, &meta(100, 3));
        // Now overall LRU is 2 (t=1) but LRU-MIN must pick among {1,3}: 3 (t=2).
        assert_eq!(p.choose_victim(100), Some(3));
    }

    #[test]
    fn halves_threshold_until_candidates_exist() {
        let mut p = LruMin::new();
        p.on_insert(1, &meta(10, 0));
        p.on_insert(2, &meta(20, 1));
        // Incoming 100: nothing >= 100, nothing >= 50, nothing >= 25,
        // at >= 12 only entry 2 qualifies.
        assert_eq!(p.choose_victim(100), Some(2));
    }

    #[test]
    fn falls_back_to_plain_lru() {
        let mut p = LruMin::new();
        p.on_insert(1, &meta(3, 5));
        p.on_insert(2, &meta(3, 4));
        // Threshold decays to a level both satisfy; LRU of all is 2.
        assert_eq!(p.choose_victim(1000), Some(2));
    }

    #[test]
    fn empty_returns_none() {
        let mut p = LruMin::new();
        assert_eq!(p.choose_victim(100), None);
        assert_eq!(p.choose_victim(0), None);
    }

    #[test]
    fn remove_untracks() {
        let mut p = LruMin::new();
        p.on_insert(1, &meta(100, 0));
        p.on_remove(1);
        assert_eq!(p.choose_victim(10), None);
    }
}
