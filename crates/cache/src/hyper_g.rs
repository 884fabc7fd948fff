//! Hyper-G replacement (Williams et al., "Removal Policies in Network
//! Caches for World-Wide Web Documents", SIGCOMM '96 — reference [29]).

use std::cmp::Reverse;
use std::collections::BTreeSet;

use crate::policy::{EntryId, EntryMeta, ReplacementPolicy, Slots};

/// Hyper-G (named after the Hyper-G server): a refinement of LFU that
/// breaks frequency ties by recency, and recency ties by size. The victim
/// is the entry with the **lowest access count**; among those, the one with
/// the **oldest last access**; among those, the **largest** document.
#[derive(Debug, Default)]
pub struct HyperG {
    // Ordered by (access_count, last_access, Reverse(size), id).
    order: BTreeSet<(u64, u64, Reverse<u64>, EntryId)>,
    keys: Slots<(u64, u64, Reverse<u64>)>,
}

impl HyperG {
    /// Create an empty Hyper-G policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn reindex(&mut self, id: EntryId, meta: &EntryMeta) {
        let key = (meta.access_count, meta.last_access, Reverse(meta.size));
        if let Some((c, la, sz)) = self.keys.set(id, key) {
            self.order.remove(&(c, la, sz, id));
        }
        self.order.insert((key.0, key.1, key.2, id));
    }
}

impl ReplacementPolicy for HyperG {
    fn name(&self) -> &'static str {
        "Hyper-G"
    }

    fn on_insert(&mut self, id: EntryId, meta: &EntryMeta) {
        self.reindex(id, meta);
    }

    fn on_access(&mut self, id: EntryId, meta: &EntryMeta) {
        self.reindex(id, meta);
    }

    fn on_remove(&mut self, id: EntryId) {
        if let Some((c, la, sz)) = self.keys.take(id) {
            self.order.remove(&(c, la, sz, id));
        }
    }

    fn choose_victim(&mut self, _incoming_size: u64) -> Option<EntryId> {
        self.order.iter().next().map(|&(_, _, _, id)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(count: u64, t: u64, size: u64) -> EntryMeta {
        EntryMeta {
            size,
            last_access: t,
            access_count: count,
            inserted_at: 0,
        }
    }

    #[test]
    fn primary_criterion_is_frequency() {
        let mut p = HyperG::new();
        p.on_insert(1, &meta(5, 0, 100));
        p.on_insert(2, &meta(1, 9, 1));
        assert_eq!(p.choose_victim(0), Some(2));
    }

    #[test]
    fn frequency_tie_broken_by_recency() {
        let mut p = HyperG::new();
        p.on_insert(1, &meta(2, 5, 10));
        p.on_insert(2, &meta(2, 3, 10));
        assert_eq!(p.choose_victim(0), Some(2));
    }

    #[test]
    fn recency_tie_broken_by_largest_size() {
        let mut p = HyperG::new();
        p.on_insert(1, &meta(2, 3, 10));
        p.on_insert(2, &meta(2, 3, 500));
        assert_eq!(p.choose_victim(0), Some(2));
    }

    #[test]
    fn access_promotes_entry() {
        let mut p = HyperG::new();
        p.on_insert(1, &meta(1, 0, 10));
        p.on_insert(2, &meta(1, 1, 10));
        p.on_access(1, &meta(2, 2, 10));
        assert_eq!(p.choose_victim(0), Some(2));
    }

    #[test]
    fn remove_untracks() {
        let mut p = HyperG::new();
        p.on_insert(1, &meta(1, 0, 10));
        p.on_remove(1);
        assert_eq!(p.choose_victim(0), None);
    }
}
