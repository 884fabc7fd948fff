//! Hyper-G replacement (Williams et al., "Removal Policies in Network
//! Caches for World-Wide Web Documents", SIGCOMM '96 — reference [29]).

use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap};

use nserver_cache::{EntryId, EntryMeta, ReplacementPolicy};

/// Hyper-G (named after the Hyper-G server): a refinement of LFU that
/// breaks frequency ties by recency, and recency ties by size. The victim
/// is the entry with the **lowest access count**; among those, the one with
/// the **oldest last access**; among those, the **largest** document.
#[derive(Debug, Default)]
pub struct HyperG {
    // Ordered by (access_count, last_access, Reverse(size), id).
    order: BTreeSet<(u64, u64, Reverse<u64>, EntryId)>,
    key_of: HashMap<EntryId, (u64, u64, Reverse<u64>)>,
}

impl HyperG {
    /// Create an empty Hyper-G policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn reindex(&mut self, id: EntryId, meta: &EntryMeta) {
        let key = (meta.access_count, meta.last_access, Reverse(meta.size));
        if let Some((c, la, sz)) = self.key_of.insert(id, key) {
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
        if let Some((c, la, sz)) = self.key_of.remove(&id) {
            self.order.remove(&(c, la, sz, id));
        }
    }

    fn choose_victim(&mut self, _incoming_size: u64) -> Option<EntryId> {
        self.order.iter().next().map(|&(_, _, _, id)| id)
    }
}
