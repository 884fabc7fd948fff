//! LRU-Threshold replacement (Abrams et al. — reference [1] of the paper).

use super::lru::Lru;
use nserver_cache::{EntryId, EntryMeta, ReplacementPolicy};

/// LRU with an admission threshold: documents larger than a configured
/// fraction of the cache capacity are never cached at all (they would
/// displace too many small, popular documents); everything admitted is
/// managed with plain LRU.
#[derive(Debug)]
pub struct LruThreshold {
    inner: Lru,
    max_size_permille: u32,
}

impl LruThreshold {
    /// `max_size_permille` is the largest cacheable object size expressed in
    /// parts-per-thousand of the cache capacity (e.g. `250` = 25 %).
    pub fn new(max_size_permille: u32) -> Self {
        Self {
            inner: Lru::new(),
            max_size_permille,
        }
    }

    /// The configured threshold in permille of capacity.
    pub fn max_size_permille(&self) -> u32 {
        self.max_size_permille
    }
}

impl ReplacementPolicy for LruThreshold {
    fn name(&self) -> &'static str {
        "LRU-Threshold"
    }

    fn admits(&self, size: u64, capacity: u64) -> bool {
        // ceil-free integer compare: size/capacity <= permille/1000.
        size.saturating_mul(1000) <= capacity.saturating_mul(self.max_size_permille as u64)
    }

    fn on_insert(&mut self, id: EntryId, meta: &EntryMeta) {
        self.inner.on_insert(id, meta);
    }

    fn on_access(&mut self, id: EntryId, meta: &EntryMeta) {
        self.inner.on_access(id, meta);
    }

    fn on_remove(&mut self, id: EntryId) {
        self.inner.on_remove(id);
    }

    fn choose_victim(&mut self, incoming_size: u64) -> Option<EntryId> {
        self.inner.choose_victim(incoming_size)
    }
}
