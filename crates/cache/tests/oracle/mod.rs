//! `FileCache` and the five built-in policies as they were before entries
//! moved into a slab (an `ids` map and an `entries` map keyed by a
//! never-reused `EntryId`, recency in a `BTreeMap`, per-entry keys in
//! id-keyed hash maps), kept verbatim as the oracle `*_oracle` compares
//! the cache against. Only the imports changed: the trait, `EntryMeta`,
//! `PolicyKind` and `CacheStats` are the crate's own, so verdicts and
//! statistics compare directly.

#![allow(dead_code)]

mod hyper_g;
mod lfu;
mod lru;
mod lru_min;
mod lru_threshold;

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use nserver_cache::{CacheStats, EntryId, EntryMeta, PolicyKind, ReplacementPolicy};

use hyper_g::HyperG;
use lfu::Lfu;
use lru::Lru;
use lru_min::LruMin;
use lru_threshold::LruThreshold;

/// `PolicyKind::build` over the oracle's policies.
fn build(kind: PolicyKind) -> Box<dyn ReplacementPolicy> {
    match kind {
        PolicyKind::Lru => Box::new(Lru::new()),
        PolicyKind::Lfu => Box::new(Lfu::new()),
        PolicyKind::LruMin => Box::new(LruMin::new()),
        PolicyKind::LruThreshold { max_size_permille } => {
            Box::new(LruThreshold::new(max_size_permille))
        }
        PolicyKind::HyperG => Box::new(HyperG::new()),
    }
}

struct Entry<K> {
    key: K,
    data: Arc<Vec<u8>>,
    meta: EntryMeta,
}

/// A byte-capacity-bounded in-memory file cache with a pluggable
/// replacement policy.
///
/// Values are `Arc<Vec<u8>>` so a hit hands out a cheap shared reference —
/// the server can keep sending a file that has since been evicted.
pub struct FileCache<K: Eq + Hash + Clone> {
    capacity: u64,
    used: u64,
    clock: u64,
    next_id: EntryId,
    ids: HashMap<K, EntryId>,
    entries: HashMap<EntryId, Entry<K>>,
    policy: Box<dyn ReplacementPolicy>,
    stats: CacheStats,
}

impl<K: Eq + Hash + Clone> FileCache<K> {
    /// Create a cache bounded to `capacity` bytes with a built-in policy.
    pub fn new(capacity: u64, policy: PolicyKind) -> Self {
        Self::with_policy(capacity, build(policy))
    }

    /// Create a cache with an arbitrary (possibly custom) policy object.
    pub fn with_policy(capacity: u64, policy: Box<dyn ReplacementPolicy>) -> Self {
        Self {
            capacity,
            used: 0,
            clock: 0,
            next_id: 0,
            ids: HashMap::new(),
            entries: HashMap::new(),
            policy,
            stats: CacheStats::default(),
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Look up a file. Counts a hit or miss and refreshes recency/frequency.
    pub fn get<Q>(&mut self, key: &Q) -> Option<Arc<Vec<u8>>>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let now = self.tick();
        if let Some(&id) = self.ids.get(key) {
            let entry = self.entries.get_mut(&id).expect("id map out of sync");
            entry.meta.last_access = now;
            entry.meta.access_count += 1;
            let meta = entry.meta;
            let data = Arc::clone(&entry.data);
            self.policy.on_access(id, &meta);
            self.stats.hits += 1;
            Some(data)
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Look up a file without counting a hit or miss (recency and
    /// frequency are still refreshed). Used by [`SharedFileCache`]'s
    /// single-flight path, whose callers have already counted the miss
    /// that brought them here.
    pub fn get_quiet<Q>(&mut self, key: &Q) -> Option<Arc<Vec<u8>>>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let now = self.tick();
        let &id = self.ids.get(key)?;
        let entry = self.entries.get_mut(&id).expect("id map out of sync");
        entry.meta.last_access = now;
        entry.meta.access_count += 1;
        let meta = entry.meta;
        let data = Arc::clone(&entry.data);
        self.policy.on_access(id, &meta);
        Some(data)
    }

    /// Check residency without perturbing statistics or recency.
    pub fn contains<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.ids.contains_key(key)
    }

    /// Insert (or replace) a file. Returns `false` when the policy's
    /// admission test refused the object (e.g. LRU-Threshold and oversized
    /// documents) — the caller then serves the bytes without caching them.
    pub fn insert(&mut self, key: K, data: Arc<Vec<u8>>) -> bool {
        let size = data.len() as u64;
        if !self.policy.admits(size, self.capacity) {
            self.stats.rejected += 1;
            return false;
        }
        // An object that cannot fit even in an empty cache must be
        // refused up front: letting the eviction loop below discover it
        // would flush every resident entry first and then fail anyway.
        if size > self.capacity {
            self.stats.rejected += 1;
            return false;
        }
        // Replacing an existing entry: drop the old one first.
        if let Some(&id) = self.ids.get(&key) {
            self.remove_id(id, false);
        }
        // Evict until the newcomer fits.
        while self.used + size > self.capacity {
            match self.policy.choose_victim(size) {
                Some(victim) => self.remove_id(victim, true),
                None => return false, // nothing left to evict; cannot fit
            }
        }
        let now = self.tick();
        let id = self.next_id;
        self.next_id += 1;
        let meta = EntryMeta {
            size,
            last_access: now,
            access_count: 1,
            inserted_at: now,
        };
        self.ids.insert(key.clone(), id);
        self.entries.insert(id, Entry { key, data, meta });
        self.used += size;
        self.policy.on_insert(id, &meta);
        true
    }

    /// Explicitly invalidate a file (e.g. after it changed on disk).
    pub fn invalidate<Q>(&mut self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        if let Some(&id) = self.ids.get(key) {
            self.remove_id(id, false);
            true
        } else {
            false
        }
    }

    fn remove_id(&mut self, id: EntryId, is_eviction: bool) {
        if let Some(entry) = self.entries.remove(&id) {
            self.ids.remove(&entry.key);
            self.used -= entry.meta.size;
            self.policy.on_remove(id);
            if is_eviction {
                self.stats.evictions += 1;
                self.stats.evicted_bytes += entry.meta.size;
            }
        }
    }

    /// Bytes currently resident.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Configured capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime statistics snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Name of the active replacement policy.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }
}
