//! Least-Frequently-Used replacement.

use std::collections::BTreeSet;

use crate::policy::{EntryId, EntryMeta, ReplacementPolicy, Slots};

/// LFU: the victim is the entry with the fewest accesses; ties are broken
/// by least-recent access (so LFU degrades gracefully to LRU among equally
/// popular documents instead of evicting arbitrarily).
#[derive(Debug, Default)]
pub struct Lfu {
    // Ordered by (access_count, last_access, id); the first element is the
    // eviction candidate.
    order: BTreeSet<(u64, u64, EntryId)>,
    keys: Slots<(u64, u64)>,
}

impl Lfu {
    /// Create an empty LFU policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn reindex(&mut self, id: EntryId, meta: &EntryMeta) {
        let key = (meta.access_count, meta.last_access);
        if let Some((cnt, la)) = self.keys.set(id, key) {
            self.order.remove(&(cnt, la, id));
        }
        self.order.insert((meta.access_count, meta.last_access, id));
    }
}

impl ReplacementPolicy for Lfu {
    fn name(&self) -> &'static str {
        "LFU"
    }

    fn on_insert(&mut self, id: EntryId, meta: &EntryMeta) {
        self.reindex(id, meta);
    }

    fn on_access(&mut self, id: EntryId, meta: &EntryMeta) {
        self.reindex(id, meta);
    }

    fn on_remove(&mut self, id: EntryId) {
        if let Some((cnt, la)) = self.keys.take(id) {
            self.order.remove(&(cnt, la, id));
        }
    }

    fn choose_victim(&mut self, _incoming_size: u64) -> Option<EntryId> {
        self.order.iter().next().map(|&(_, _, id)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(count: u64, t: u64) -> EntryMeta {
        EntryMeta {
            size: 1,
            last_access: t,
            access_count: count,
            inserted_at: 0,
        }
    }

    #[test]
    fn evicts_least_frequent() {
        let mut p = Lfu::new();
        p.on_insert(1, &meta(1, 0));
        p.on_insert(2, &meta(1, 1));
        p.on_access(1, &meta(2, 2));
        p.on_access(1, &meta(3, 3));
        assert_eq!(p.choose_victim(0), Some(2));
    }

    #[test]
    fn frequency_ties_broken_by_recency() {
        let mut p = Lfu::new();
        p.on_insert(1, &meta(1, 0));
        p.on_insert(2, &meta(1, 1));
        // Both accessed once more; entry 1 more recently.
        p.on_access(2, &meta(2, 2));
        p.on_access(1, &meta(2, 3));
        assert_eq!(p.choose_victim(0), Some(2));
    }

    #[test]
    fn remove_untracks() {
        let mut p = Lfu::new();
        p.on_insert(1, &meta(1, 0));
        p.on_insert(2, &meta(5, 1));
        p.on_remove(1);
        assert_eq!(p.choose_victim(0), Some(2));
    }

    #[test]
    fn empty_policy_has_no_victim() {
        let mut p = Lfu::new();
        assert_eq!(p.choose_victim(0), None);
    }
}
