//! The byte-bounded file cache that the generated framework embeds when
//! template option O6 is enabled.

use std::any::Any;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::policy::{EntryId, EntryMeta, PolicyKind, ReplacementPolicy};

/// Cache statistics, feeding the performance-profiling option (O11): the
/// paper explicitly lists "the file cache hit rate" among the statistics a
/// profiled N-Server gathers automatically.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the entry resident.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Insertions refused by the policy's admission test.
    pub rejected: u64,
    /// Bytes evicted over the cache lifetime.
    pub evicted_bytes: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; zero when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Component-wise accumulation (used to aggregate per-shard stats).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.rejected += other.rejected;
        self.evicted_bytes += other.evicted_bytes;
    }
}

/// What the application keeps beside an entry: state computed from the
/// entry's bytes (COPS-HTTP's encoded response heads), filled in on a hit
/// through [`FileCache::get_with`] and dropped with the entry — on
/// replacement, eviction or invalidation — because it lives in the entry.
pub type Sidecar = Option<Box<dyn Any + Send>>;

struct Entry<K> {
    key: K,
    data: Arc<Vec<u8>>,
    meta: EntryMeta,
    sidecar: Sidecar,
}

/// Multiply-rotate hashing of cache keys, in place of SipHash: a lookup
/// hashes its key once and that hash is most of what the lookup costs.
/// The map holds resident entries only — keys whose load succeeded, so
/// names the content store chose, not ones a client can make up — which
/// is why flooding it with colliding keys is not a request away.
#[derive(Clone, Copy, Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for word in bytes.chunks(8) {
            let mut le = [0u8; 8];
            le[..word.len()].copy_from_slice(word);
            // FxHash's round; the multiplier is odd, its bits evenly set.
            let word = u64::from_le_bytes(le);
            self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }

    /// The product's high bits are its best; fold them onto the low ones
    /// the map indexes by.
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A byte-capacity-bounded in-memory file cache with a pluggable
/// replacement policy.
///
/// Values are `Arc<Vec<u8>>` so a hit hands out a cheap shared reference —
/// the server can keep sending a file that has since been evicted.
/// Entries live in a slab; an [`EntryId`] is an entry's slot there, reused
/// once the entry is gone, and `ids` is the only hashed map.
pub struct FileCache<K: Eq + Hash + Clone> {
    capacity: u64,
    used: u64,
    clock: u64,
    ids: HashMap<K, EntryId, BuildHasherDefault<KeyHasher>>,
    entries: Vec<Option<Entry<K>>>,
    /// Vacant slots of `entries`.
    free: Vec<EntryId>,
    policy: Box<dyn ReplacementPolicy>,
    stats: CacheStats,
}

impl<K: Eq + Hash + Clone> FileCache<K> {
    /// Create a cache bounded to `capacity` bytes with a built-in policy.
    pub fn new(capacity: u64, policy: PolicyKind) -> Self {
        Self::with_policy(capacity, policy.build())
    }

    /// Create a cache with an arbitrary (possibly custom) policy object.
    pub fn with_policy(capacity: u64, policy: Box<dyn ReplacementPolicy>) -> Self {
        Self {
            capacity,
            used: 0,
            clock: 0,
            ids: HashMap::default(),
            entries: Vec::new(),
            free: Vec::new(),
            policy,
            stats: CacheStats::default(),
        }
    }

    /// The one lookup: a tick, a probe of `ids`, the slot, and — on a hit —
    /// the entry's recency and frequency refreshed.
    fn touch<Q>(&mut self, key: &Q) -> Option<&mut Entry<K>>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.clock += 1;
        let &id = self.ids.get(key)?;
        let entry = self.entries[id as usize].as_mut();
        let entry = entry.expect("id map out of sync");
        entry.meta.last_access = self.clock;
        entry.meta.access_count += 1;
        self.policy.on_access(id, &entry.meta);
        Some(entry)
    }

    /// Look up a file. Counts a hit or miss and refreshes recency/frequency.
    pub fn get<Q>(&mut self, key: &Q) -> Option<Arc<Vec<u8>>>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.get_with(key, |data, _| Arc::clone(data))
    }

    /// [`FileCache::get`], handing the hit — the bytes and the entry's
    /// [`Sidecar`] — to `on_hit` in place of cloning the bytes out.
    pub fn get_with<Q, R>(
        &mut self,
        key: &Q,
        on_hit: impl FnOnce(&Arc<Vec<u8>>, &mut Sidecar) -> R,
    ) -> Option<R>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let hit = self.touch(key).map(|e| on_hit(&e.data, &mut e.sidecar));
        match hit {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        hit
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
        self.touch(key).map(|e| Arc::clone(&e.data))
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
        // An object that cannot fit even in an empty cache must be
        // refused up front: letting the eviction loop below discover it
        // would flush every resident entry first and then fail anyway.
        if !self.policy.admits(size, self.capacity) || size > self.capacity {
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
        self.clock += 1;
        let meta = EntryMeta {
            size,
            last_access: self.clock,
            access_count: 1,
            inserted_at: self.clock,
        };
        // A vacant slot if there is one, else one more.
        let id = self.free.pop().unwrap_or_else(|| {
            self.entries.push(None);
            self.entries.len() as EntryId - 1
        });
        self.entries[id as usize] = Some(Entry {
            key: key.clone(),
            data,
            meta,
            sidecar: None,
        });
        self.ids.insert(key, id);
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
        let slot = self.entries.get_mut(id as usize);
        if let Some(entry) = slot.and_then(Option::take) {
            self.free.push(id);
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
        self.ids.len()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
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

/// Default shard count for [`SharedFileCache::sharded`].
pub const DEFAULT_SHARDS: usize = 8;

/// Thread-safe cache handle shared between event-processor workers.
///
/// The cache is partitioned into independent shards, each behind its own
/// lock, with keys routed by `hash(key) % shards`. Workers touching
/// different shards never contend; a single global lock would serialize
/// every worker of the Event Processor (O2) behind one mutex on the file
/// hot path (O6). Capacity is split evenly across shards, so the byte
/// bound still holds globally — the tradeoff is that no single object
/// larger than `capacity / shards` can be cached.
#[derive(Clone)]
pub struct SharedFileCache<K: Eq + Hash + Clone> {
    shards: Arc<Vec<Mutex<FileCache<K>>>>,
    /// Single-flight table: keys whose fetch is currently in progress.
    /// The first missing worker (the *leader*) runs the fetch; everyone
    /// else arriving before it finishes waits on the flight's condvar and
    /// shares the leader's result `Arc` — a thundering herd of N misses
    /// for one path issues exactly one store load.
    inflight: Arc<Mutex<HashMap<K, Arc<Flight>>>>,
    /// Lookups that were served by waiting on another worker's in-flight
    /// fetch instead of issuing their own.
    coalesced: Arc<AtomicU64>,
}

/// One in-progress fetch: waiters block on `cv` until the leader fills
/// `result` and flips `done`.
#[derive(Default)]
struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

#[derive(Default)]
struct FlightState {
    done: bool,
    result: Option<Arc<Vec<u8>>>,
}

impl<K: Eq + Hash + Clone> SharedFileCache<K> {
    /// Wrap a single pre-built cache for shared use (one shard). This is
    /// the path for custom policy objects, which cannot be replicated
    /// across shards.
    pub fn new(cache: FileCache<K>) -> Self {
        Self {
            shards: Arc::new(vec![Mutex::new(cache)]),
            inflight: Arc::new(Mutex::new(HashMap::new())),
            coalesced: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Build a sharded cache: `shards` independent partitions (≥ 1), each
    /// running its own instance of the built-in `policy` over an even
    /// split of `capacity`.
    pub fn sharded(capacity: u64, policy: PolicyKind, shards: usize) -> Self {
        let n = shards.max(1) as u64;
        let base = capacity / n;
        let remainder = capacity % n;
        let shards = (0..n)
            // Spread the rounding remainder so the shard capacities sum
            // exactly to `capacity`.
            .map(|i| base + u64::from(i < remainder))
            .map(|cap| Mutex::new(FileCache::new(cap, policy)))
            .collect();
        Self {
            shards: Arc::new(shards),
            inflight: Arc::new(Mutex::new(HashMap::new())),
            coalesced: Arc::new(AtomicU64::new(0)),
        }
    }

    fn shard_for<Q>(&self, key: &Q) -> &Mutex<FileCache<K>>
    where
        Q: Hash + ?Sized,
    {
        // One shard (`SharedFileCache::new`): there is nothing to choose,
        // so the key is not hashed to choose it.
        if let [only] = &self.shards[..] {
            return only;
        }
        // The hash's high half, which a shard's own map does not index by.
        let mut h = KeyHasher::default();
        key.hash(&mut h);
        &self.shards[((h.finish() >> 32) % self.shards.len() as u64) as usize]
    }

    /// Number of independent partitions.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// See [`FileCache::get`].
    pub fn get<Q>(&self, key: &Q) -> Option<Arc<Vec<u8>>>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.shard_for(key).lock().get(key)
    }

    /// See [`FileCache::get_with`]; `on_hit` runs under the shard's lock.
    pub fn get_with<Q, R>(
        &self,
        key: &Q,
        on_hit: impl FnOnce(&Arc<Vec<u8>>, &mut Sidecar) -> R,
    ) -> Option<R>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.shard_for(key).lock().get_with(key, on_hit)
    }

    /// See [`FileCache::insert`].
    pub fn insert(&self, key: K, data: Arc<Vec<u8>>) -> bool {
        self.shard_for(&key).lock().insert(key, data)
    }

    /// Single-flight lookup: return the cached bytes for `key`, running
    /// `fetch` at most once across all workers missing concurrently.
    ///
    /// The first worker to miss becomes the leader: it runs `fetch`
    /// (typically a blocking disk read on a Proactor helper thread),
    /// inserts the result, and wakes every waiter. Workers that arrive
    /// while the fetch is in flight block on the flight's condvar and
    /// share the leader's `Arc` — counted in
    /// [`SharedFileCache::coalesced_waits`]. A fetch that returns `None`
    /// (file absent) propagates `None` to the whole herd; a fetch that
    /// panics wakes the herd with `None` before the panic resumes on the
    /// leader, so no waiter blocks forever.
    pub fn get_or_load<F>(&self, key: K, fetch: F) -> Option<Arc<Vec<u8>>>
    where
        F: FnOnce() -> Option<Arc<Vec<u8>>>,
    {
        // Quiet re-check: the caller usually counted the miss that got it
        // here, and the object may have landed since.
        if let Some(data) = self.shard_for(&key).lock().get_quiet(&key) {
            return Some(data);
        }
        let (flight, leader) = {
            let mut inflight = self.inflight.lock();
            match inflight.get(&key) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    let f = Arc::new(Flight::default());
                    inflight.insert(key.clone(), Arc::clone(&f));
                    (f, true)
                }
            }
        };
        if !leader {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            let mut st = flight.state.lock();
            while !st.done {
                flight.cv.wait(&mut st);
            }
            return st.result.clone();
        }
        // Leader: run the fetch outside every lock. A panic must still
        // release the herd, so trap it, publish `None`, then resume.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(fetch));
        let value = match &outcome {
            Ok(v) => v.clone(),
            Err(_) => None,
        };
        if let Some(data) = &value {
            self.insert(key.clone(), Arc::clone(data));
        }
        {
            let mut st = flight.state.lock();
            st.done = true;
            st.result = value.clone();
        }
        flight.cv.notify_all();
        self.inflight.lock().remove(&key);
        match outcome {
            Ok(_) => value,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }

    /// Lookups served by joining another worker's in-flight fetch (see
    /// [`SharedFileCache::get_or_load`]).
    pub fn coalesced_waits(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// See [`FileCache::invalidate`].
    pub fn invalidate<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.shard_for(key).lock().invalidate(key)
    }

    /// Aggregate statistics summed over every shard.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in self.shards.iter() {
            total.merge(&shard.lock().stats());
        }
        total
    }

    /// Bytes resident, summed over every shard.
    pub fn used_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().used_bytes()).sum()
    }

    /// Configured capacity, summed over every shard.
    pub fn capacity_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().capacity_bytes()).sum()
    }

    /// Resident entries, summed over every shard.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when no shard holds any entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::CustomPolicy;

    fn blob(n: usize) -> Arc<Vec<u8>> {
        Arc::new(vec![0xAB; n])
    }

    #[test]
    fn hit_and_miss_counting() {
        let mut c = FileCache::new(100, PolicyKind::Lru);
        assert!(c.get(&"x").is_none());
        c.insert("x", blob(10));
        assert!(c.get(&"x").is_some());
        assert!(c.get(&"y").is_none());
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_never_exceeded_on_lru() {
        let mut c = FileCache::new(100, PolicyKind::Lru);
        for i in 0..20 {
            c.insert(i, blob(30));
            assert!(c.used_bytes() <= 100);
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.stats().evictions, 17);
    }

    #[test]
    fn lru_eviction_order_through_cache() {
        let mut c = FileCache::new(100, PolicyKind::Lru);
        c.insert("a", blob(40));
        c.insert("b", blob(40));
        c.get(&"a"); // refresh a
        c.insert("c", blob(40)); // evicts b
        assert!(c.contains(&"a"));
        assert!(!c.contains(&"b"));
        assert!(c.contains(&"c"));
    }

    #[test]
    fn replacing_a_key_reuses_space() {
        let mut c = FileCache::new(100, PolicyKind::Lru);
        c.insert("a", blob(60));
        c.insert("a", blob(80));
        assert_eq!(c.used_bytes(), 80);
        assert_eq!(c.len(), 1);
        // Replacement is not an eviction.
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn threshold_policy_rejects_oversized_insert() {
        let mut c = FileCache::new(
            1000,
            PolicyKind::LruThreshold {
                max_size_permille: 100,
            },
        );
        assert!(!c.insert("big", blob(500)));
        assert!(c.insert("small", blob(100)));
        assert_eq!(c.stats().rejected, 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn object_larger_than_capacity_is_never_cached() {
        let mut c = FileCache::new(50, PolicyKind::Lru);
        assert!(!c.insert("huge", blob(51)));
        assert!(c.is_empty());
    }

    #[test]
    fn oversized_insert_leaves_hot_cache_untouched() {
        // Regression: an object larger than the whole cache used to run
        // the eviction loop dry — flushing every resident entry — before
        // the insert failed anyway.
        let mut c = FileCache::new(100, PolicyKind::Lru);
        c.insert("a", blob(30));
        c.insert("b", blob(30));
        c.insert("c", blob(30));
        assert!(!c.insert("huge", blob(101)));
        let s = c.stats();
        assert_eq!(s.evictions, 0, "oversized insert must not evict");
        assert_eq!(s.rejected, 1, "oversized insert counts as rejected");
        assert!(c.contains(&"a"));
        assert!(c.contains(&"b"));
        assert!(c.contains(&"c"));
        assert_eq!(c.used_bytes(), 90);
    }

    #[test]
    fn oversized_insert_does_not_displace_replaced_key() {
        let mut c = FileCache::new(100, PolicyKind::Lru);
        c.insert("a", blob(60));
        // Replacing "a" with an impossible size must keep the old entry.
        assert!(!c.insert("a", blob(200)));
        assert!(c.contains(&"a"));
        assert_eq!(c.used_bytes(), 60);
    }

    #[test]
    fn get_quiet_refreshes_recency_without_stats() {
        let mut c = FileCache::new(100, PolicyKind::Lru);
        c.insert("a", blob(40));
        c.insert("b", blob(40));
        assert!(c.get_quiet(&"a").is_some());
        assert!(c.get_quiet(&"zzz").is_none());
        let s = c.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 0);
        // The quiet touch still made "a" most-recent, so "b" is evicted.
        c.insert("c", blob(40));
        assert!(c.contains(&"a"));
        assert!(!c.contains(&"b"));
    }

    #[test]
    fn invalidate_removes_without_counting_eviction() {
        let mut c = FileCache::new(100, PolicyKind::Lfu);
        c.insert("a", blob(10));
        assert!(c.invalidate(&"a"));
        assert!(!c.invalidate(&"a"));
        assert_eq!(c.used_bytes(), 0);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn hit_hands_out_shared_data() {
        let mut c = FileCache::new(100, PolicyKind::Lru);
        c.insert("a", blob(10));
        let d1 = c.get(&"a").unwrap();
        // Evict "a" and confirm the handed-out Arc stays valid.
        c.insert("b", blob(95));
        assert!(!c.contains(&"a"));
        assert_eq!(d1.len(), 10);
    }

    #[test]
    fn custom_policy_plugs_in() {
        // Evict the biggest file first.
        let policy = CustomPolicy::new(|entries, _| {
            entries
                .iter()
                .max_by_key(|(_, m)| m.size)
                .map(|(id, _)| *id)
        });
        let mut c = FileCache::with_policy(100, Box::new(policy));
        c.insert("small", blob(10));
        c.insert("big", blob(80));
        c.insert("mid", blob(50)); // must evict "big"
        assert!(c.contains(&"small"));
        assert!(!c.contains(&"big"));
        assert!(c.contains(&"mid"));
        assert_eq!(c.policy_name(), "Custom");
    }

    #[test]
    fn all_policies_respect_capacity_under_zipfish_trace() {
        for kind in PolicyKind::all() {
            let mut c = FileCache::new(10_000, kind);
            for i in 0u64..500 {
                // Skewed popularity: half the accesses go to 3 hot keys.
                let key = if i % 2 == 0 { i % 3 } else { i % 37 };
                let size = 100 + (key % 13) * 120;
                if c.get(&key).is_none() {
                    c.insert(key, blob(size as usize));
                }
                assert!(
                    c.used_bytes() <= 10_000,
                    "{} exceeded capacity",
                    kind.name()
                );
            }
            let s = c.stats();
            assert!(s.hits > 0, "{} never hit", kind.name());
        }
    }

    #[test]
    fn shared_cache_is_cloneable_and_consistent() {
        let shared = SharedFileCache::new(FileCache::new(100, PolicyKind::Lru));
        let other = shared.clone();
        shared.insert("k".to_string(), blob(10));
        assert!(other.get("k").is_some());
        assert_eq!(other.stats().hits, 1);
        assert_eq!(shared.used_bytes(), 10);
    }

    #[test]
    fn shared_cache_concurrent_access() {
        use std::thread;
        let shared = SharedFileCache::new(FileCache::new(50_000, PolicyKind::Lru));
        let mut handles = Vec::new();
        for t in 0..4 {
            let c = shared.clone();
            handles.push(thread::spawn(move || {
                for i in 0..200u64 {
                    let key = t * 1000 + i % 20;
                    if c.get(&key).is_none() {
                        c.insert(key, Arc::new(vec![0u8; 64]));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(shared.used_bytes() <= 50_000);
    }

    #[test]
    fn sharded_cache_splits_capacity_exactly() {
        let c: SharedFileCache<u64> = SharedFileCache::sharded(1003, PolicyKind::Lru, 8);
        assert_eq!(c.shard_count(), 8);
        assert_eq!(c.capacity_bytes(), 1003);
        let single: SharedFileCache<u64> =
            SharedFileCache::new(FileCache::new(100, PolicyKind::Lru));
        assert_eq!(single.shard_count(), 1);
        let zero: SharedFileCache<u64> = SharedFileCache::sharded(100, PolicyKind::Lru, 0);
        assert_eq!(zero.shard_count(), 1);
    }

    #[test]
    fn sharded_cache_routes_keys_consistently() {
        let c: SharedFileCache<String> = SharedFileCache::sharded(8_000, PolicyKind::Lru, 8);
        for i in 0..50 {
            assert!(c.insert(format!("/file/{i}"), blob(10)));
        }
        for i in 0..50 {
            // Borrowed-form lookups must land on the same shard as the
            // owned-key inserts (Borrow guarantees equal hashes).
            assert!(c.get(&format!("/file/{i}")[..]).is_some(), "lost /file/{i}");
        }
        assert_eq!(c.len(), 50);
        assert_eq!(c.used_bytes(), 500);
        let s = c.stats();
        assert_eq!(s.hits, 50);
        assert_eq!(s.misses, 0);
    }

    #[test]
    fn sharded_cache_aggregates_stats_across_shards() {
        let c: SharedFileCache<u64> = SharedFileCache::sharded(4_000, PolicyKind::Lru, 4);
        for k in 0..40u64 {
            c.insert(k, blob(50));
        }
        for k in 0..40u64 {
            c.get(&k);
        }
        for k in 1000..1010u64 {
            c.get(&k);
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 50);
        assert_eq!(s.misses, 10);
        assert!((s.hit_rate() - 0.8).abs() < 1e-12);
    }

    /// A one-shard handle skips the shard hash; what it counts is what a
    /// sharded handle counts over the same accesses (no capacity pressure,
    /// so how keys spread over shards cannot show).
    #[test]
    fn one_shard_and_sharded_handles_count_the_same_accesses_alike() {
        let handles: [SharedFileCache<String>; 3] = [
            SharedFileCache::new(FileCache::new(1 << 20, PolicyKind::Lru)),
            SharedFileCache::sharded(1 << 20, PolicyKind::Lru, 1),
            SharedFileCache::sharded(1 << 20, PolicyKind::Lru, 8),
        ];
        assert_eq!(handles.each_ref().map(|c| c.shard_count()), [1, 1, 8]);
        let stats = handles.map(|c| {
            for step in 0..400u32 {
                let key = format!("/file/{}", step * 7 % 31);
                match step % 5 {
                    0 => drop(c.insert(key, blob(10 + step as usize % 50))),
                    1 => drop(c.invalidate(key.as_str())),
                    2 => drop(c.get_or_load(key, || (step % 3 > 0).then(|| blob(20)))),
                    _ => drop(c.get(key.as_str())),
                }
            }
            (c.stats(), c.len(), c.used_bytes())
        });
        assert!(stats[0].0.hits > 0 && stats[0].0.misses > 0);
        assert_eq!(stats[0], stats[1]);
        assert_eq!(stats[0], stats[2]);
    }

    /// A hit hashes its key once on a one-shard handle — the probe of
    /// `ids`; entries and policy state are indexed by slot — and once more
    /// to pick the shard on a sharded one.
    #[test]
    fn a_lookup_hashes_its_key_once_per_map_it_must_choose_in() {
        static HASHED: AtomicU64 = AtomicU64::new(0);
        #[derive(Clone, PartialEq, Eq)]
        struct Counted(u32);
        impl Hash for Counted {
            fn hash<H: Hasher>(&self, state: &mut H) {
                HASHED.fetch_add(1, Ordering::Relaxed);
                self.0.hash(state);
            }
        }
        for kind in PolicyKind::all() {
            for (shards, allowed) in [(1, 1), (8, 2)] {
                let cache: SharedFileCache<Counted> = match shards {
                    1 => SharedFileCache::new(FileCache::new(1 << 20, kind)),
                    n => SharedFileCache::sharded(1 << 20, kind, n),
                };
                for k in 0..64 {
                    assert!(cache.insert(Counted(k), blob(100)));
                }
                let before = HASHED.load(Ordering::Relaxed);
                for k in 0..64 {
                    assert!(cache.get(&Counted(k)).is_some());
                    assert!(cache.get_with(&Counted(k), |_, _| ()).is_some());
                }
                let per_get = (HASHED.load(Ordering::Relaxed) - before) / 128;
                assert_eq!(per_get, allowed, "{} over {shards}", kind.name());
            }
        }
    }

    /// The sidecar is the entry's: a replaced, evicted or invalidated
    /// entry takes it along, and the entry that follows starts without.
    #[test]
    fn a_sidecar_lives_and_dies_with_its_entry() {
        let mut c = FileCache::new(100, PolicyKind::Lru);
        let seen = |c: &mut FileCache<&str>, key: &'static str| {
            c.get_with(&key, |data, sidecar| {
                let fresh = sidecar.is_none();
                let kept = sidecar.get_or_insert_with(|| Box::new(data.len()));
                assert_eq!(kept.downcast_ref(), Some(&data.len()), "stale for {key}");
                fresh
            })
        };
        c.insert("a", blob(40));
        assert_eq!(seen(&mut c, "a"), Some(true));
        assert_eq!(seen(&mut c, "a"), Some(false), "kept between hits");
        c.insert("a", blob(50));
        assert_eq!(seen(&mut c, "a"), Some(true), "replaced");
        c.invalidate(&"a");
        c.insert("a", blob(30));
        assert_eq!(seen(&mut c, "a"), Some(true), "invalidated");
        c.insert("b", blob(80)); // evicts a; b moves into its slot
        assert_eq!(seen(&mut c, "a"), None);
        assert_eq!(
            seen(&mut c, "b"),
            Some(true),
            "a slot is reused, a sidecar is not"
        );
        c.insert("a", blob(10));
        assert_eq!(seen(&mut c, "a"), Some(true), "evicted");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (6, 1, 1));
    }

    #[test]
    fn sharded_cache_respects_global_capacity_under_pressure() {
        let c: SharedFileCache<u64> = SharedFileCache::sharded(10_000, PolicyKind::Lru, 8);
        for k in 0..500u64 {
            c.insert(k, blob(100));
            assert!(c.used_bytes() <= 10_000);
        }
        assert!(c.stats().evictions > 0, "pressure must evict");
        assert!(!c.is_empty());
    }

    #[test]
    fn sharded_cache_invalidate_hits_the_owning_shard() {
        let c: SharedFileCache<String> = SharedFileCache::sharded(8_000, PolicyKind::Lru, 8);
        c.insert("victim".to_string(), blob(10));
        assert!(c.invalidate("victim"));
        assert!(!c.invalidate("victim"));
        assert!(c.get("victim").is_none());
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn single_flight_issues_one_fetch_for_a_racing_herd() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;
        use std::thread;

        let cache: SharedFileCache<String> =
            SharedFileCache::sharded(1 << 20, PolicyKind::Lru, DEFAULT_SHARDS);
        let fetches = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(8));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = cache.clone();
            let fetches = Arc::clone(&fetches);
            let barrier = Arc::clone(&barrier);
            handles.push(thread::spawn(move || {
                barrier.wait();
                cache.get_or_load("/hot.bin".to_string(), || {
                    fetches.fetch_add(1, Ordering::SeqCst);
                    // Hold the flight open long enough for the rest of
                    // the herd to pile up behind the leader.
                    thread::sleep(std::time::Duration::from_millis(50));
                    Some(Arc::new(vec![7u8; 1024]))
                })
            }));
        }
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(
            fetches.load(Ordering::SeqCst),
            1,
            "a herd of 8 misses must issue exactly one fetch"
        );
        for r in &results {
            let data = r.as_ref().expect("every waiter shares the result");
            assert_eq!(data.len(), 1024);
            // All callers share the leader's allocation.
            assert!(Arc::ptr_eq(data, results[0].as_ref().unwrap()));
        }
        assert!(cache.coalesced_waits() > 0, "waiters were coalesced");
        assert!(cache.get("/hot.bin").is_some(), "result was cached");
    }

    #[test]
    fn single_flight_propagates_absent_files_to_the_herd() {
        let cache: SharedFileCache<String> = SharedFileCache::sharded(4096, PolicyKind::Lru, 2);
        let got = cache.get_or_load("/missing".to_string(), || None);
        assert!(got.is_none());
        assert!(cache.get("/missing").is_none(), "absence is not cached");
        // The flight is cleaned up: a later call fetches again.
        let got = cache.get_or_load("/missing".to_string(), || Some(Arc::new(vec![1])));
        assert!(got.is_some());
    }

    #[test]
    fn single_flight_panicking_fetch_releases_waiters() {
        use std::thread;
        let cache: SharedFileCache<String> = SharedFileCache::sharded(4096, PolicyKind::Lru, 2);
        let c2 = cache.clone();
        let leader = thread::spawn(move || {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                c2.get_or_load("/boom".to_string(), || panic!("disk exploded"))
            }));
            assert!(r.is_err(), "the leader re-raises the fetch panic");
        });
        leader.join().unwrap();
        // The flight must not be left dangling: a fresh call runs anew.
        let got = cache.get_or_load("/boom".to_string(), || Some(Arc::new(vec![2])));
        assert_eq!(got.unwrap().as_slice(), &[2]);
    }

    #[test]
    fn sharded_cache_concurrent_workers_stay_bounded() {
        use std::thread;
        let shared: SharedFileCache<u64> =
            SharedFileCache::sharded(50_000, PolicyKind::Lru, DEFAULT_SHARDS);
        let mut handles = Vec::new();
        for t in 0..8 {
            let c = shared.clone();
            handles.push(thread::spawn(move || {
                for i in 0..500u64 {
                    let key = (t * 31 + i) % 200;
                    if c.get(&key).is_none() {
                        c.insert(key, Arc::new(vec![0u8; 64]));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(shared.used_bytes() <= 50_000);
        let s = shared.stats();
        assert!(s.hits > 0);
    }
}
