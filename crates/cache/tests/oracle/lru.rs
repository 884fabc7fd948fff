//! Least-Recently-Used replacement.

use std::collections::BTreeMap;
use std::collections::HashMap;

use nserver_cache::{EntryId, EntryMeta, ReplacementPolicy};

/// Classic LRU: the victim is always the entry whose last access is oldest.
///
/// Implemented as a `BTreeMap<access_tick, id>` plus an `id -> tick` index,
/// giving `O(log n)` insert/access/evict without an intrusive list.
#[derive(Debug, Default)]
pub struct Lru {
    by_recency: BTreeMap<u64, EntryId>,
    tick_of: HashMap<EntryId, u64>,
}

impl Lru {
    /// Create an empty LRU policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn touch(&mut self, id: EntryId, tick: u64) {
        if let Some(old) = self.tick_of.insert(id, tick) {
            self.by_recency.remove(&old);
        }
        self.by_recency.insert(tick, id);
    }

    /// Number of tracked entries (test/diagnostic aid).
    pub fn len(&self) -> usize {
        self.tick_of.len()
    }

    /// True when no entries are tracked.
    pub fn is_empty(&self) -> bool {
        self.tick_of.is_empty()
    }
}

impl ReplacementPolicy for Lru {
    fn name(&self) -> &'static str {
        "LRU"
    }

    fn on_insert(&mut self, id: EntryId, meta: &EntryMeta) {
        self.touch(id, meta.last_access);
    }

    fn on_access(&mut self, id: EntryId, meta: &EntryMeta) {
        self.touch(id, meta.last_access);
    }

    fn on_remove(&mut self, id: EntryId) {
        if let Some(tick) = self.tick_of.remove(&id) {
            self.by_recency.remove(&tick);
        }
    }

    fn choose_victim(&mut self, _incoming_size: u64) -> Option<EntryId> {
        self.by_recency.values().next().copied()
    }
}
