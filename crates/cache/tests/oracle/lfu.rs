//! Least-Frequently-Used replacement.

use std::collections::{BTreeSet, HashMap};

use nserver_cache::{EntryId, EntryMeta, ReplacementPolicy};

/// LFU: the victim is the entry with the fewest accesses; ties are broken
/// by least-recent access (so LFU degrades gracefully to LRU among equally
/// popular documents instead of evicting arbitrarily).
#[derive(Debug, Default)]
pub struct Lfu {
    // Ordered by (access_count, last_access, id); the first element is the
    // eviction candidate.
    order: BTreeSet<(u64, u64, EntryId)>,
    key_of: HashMap<EntryId, (u64, u64)>,
}

impl Lfu {
    /// Create an empty LFU policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn reindex(&mut self, id: EntryId, meta: &EntryMeta) {
        if let Some((cnt, la)) = self
            .key_of
            .insert(id, (meta.access_count, meta.last_access))
        {
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
        if let Some((cnt, la)) = self.key_of.remove(&id) {
            self.order.remove(&(cnt, la, id));
        }
    }

    fn choose_victim(&mut self, _incoming_size: u64) -> Option<EntryId> {
        self.order.iter().next().map(|&(_, _, id)| id)
    }
}
