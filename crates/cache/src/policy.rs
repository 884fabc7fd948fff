//! Replacement-policy abstraction (template option O6).
//!
//! A [`ReplacementPolicy`] only sees opaque [`EntryId`]s plus per-entry
//! metadata; the [`crate::FileCache`] owns keys and data. This mirrors the
//! paper's design where the cache replacement policy is a pluggable hook
//! that the generated framework calls "automatically at the appropriate
//! time" — a programmer supplies a custom policy without touching any other
//! generated code.

use crate::{HyperG, Lfu, Lru, LruMin, LruThreshold};

/// A cache entry's slot: the cache keeps entries in a slab and names one
/// by its index there. An id is live from `on_insert` to `on_remove` and
/// is handed out again afterwards, so ids stay small and a policy can
/// index a vector by them — and must forget an id when it is removed.
pub type EntryId = u64;

/// Per-entry policy state in a vector indexed by [`EntryId`].
#[derive(Debug, Default)]
pub(crate) struct Slots<T>(Vec<Option<T>>);

impl<T> Slots<T> {
    /// Store `value` for `id`, returning what the slot held.
    pub(crate) fn set(&mut self, id: EntryId, value: T) -> Option<T> {
        let at = id as usize;
        if at >= self.0.len() {
            self.0.resize_with(at + 1, || None);
        }
        self.0[at].replace(value)
    }

    /// Vacate `id`'s slot.
    pub(crate) fn take(&mut self, id: EntryId) -> Option<T> {
        self.0.get_mut(id as usize)?.take()
    }

    /// The occupied slots, in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (EntryId, &T)> {
        let slots = self.0.iter().enumerate();
        slots.filter_map(|(id, slot)| Some((id as EntryId, slot.as_ref()?)))
    }
}

/// Metadata the cache tracks per entry and exposes to policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryMeta {
    /// Entry payload size in bytes.
    pub size: u64,
    /// Logical access clock value of the most recent access (monotonically
    /// increasing; larger = more recent).
    pub last_access: u64,
    /// Number of accesses since insertion (insertion counts as one).
    pub access_count: u64,
    /// Logical clock value at insertion time.
    pub inserted_at: u64,
}

/// A cache replacement policy.
///
/// The cache notifies the policy of insertions, accesses and removals, and
/// asks it to pick victims when space is needed. Implementations maintain
/// whatever index structures they need, indexed by [`EntryId`].
pub trait ReplacementPolicy: Send {
    /// Human-readable policy name (used in profiling output).
    fn name(&self) -> &'static str;

    /// Whether an object of `size` bytes should be admitted to a cache of
    /// `capacity` bytes at all. LRU-Threshold refuses outsized documents;
    /// every other built-in policy admits anything that can physically fit.
    fn admits(&self, size: u64, capacity: u64) -> bool {
        size <= capacity
    }

    /// An entry was inserted.
    fn on_insert(&mut self, id: EntryId, meta: &EntryMeta);

    /// An entry was accessed (cache hit).
    fn on_access(&mut self, id: EntryId, meta: &EntryMeta);

    /// An entry was removed (either evicted or explicitly invalidated).
    fn on_remove(&mut self, id: EntryId);

    /// Choose a victim to make room for an incoming object of
    /// `incoming_size` bytes. Returns `None` when the policy tracks no
    /// entries. The cache calls this repeatedly until enough space is free.
    fn choose_victim(&mut self, incoming_size: u64) -> Option<EntryId>;
}

/// Built-in policy selection, mirroring the legal values of option O6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Least Recently Used.
    Lru,
    /// Least Frequently Used (ties broken by recency).
    Lfu,
    /// LRU-MIN: prefer evicting documents at least as large as the incoming
    /// one; halve the size threshold until victims are found.
    LruMin,
    /// LRU with an admission threshold: documents larger than the given
    /// fraction of capacity are never cached.
    LruThreshold {
        /// Maximum cacheable object size as parts-per-thousand of capacity.
        max_size_permille: u32,
    },
    /// Hyper-G: evict least-frequently used, break ties by least recent
    /// access, break remaining ties by largest size.
    HyperG,
}

impl PolicyKind {
    /// Instantiate the corresponding policy object.
    pub fn build(self) -> Box<dyn ReplacementPolicy> {
        match self {
            PolicyKind::Lru => Box::new(Lru::new()),
            PolicyKind::Lfu => Box::new(Lfu::new()),
            PolicyKind::LruMin => Box::new(LruMin::new()),
            PolicyKind::LruThreshold { max_size_permille } => {
                Box::new(LruThreshold::new(max_size_permille))
            }
            PolicyKind::HyperG => Box::new(HyperG::new()),
        }
    }

    /// Stable display name matching the paper's terminology.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Lru => "LRU",
            PolicyKind::Lfu => "LFU",
            PolicyKind::LruMin => "LRU-MIN",
            PolicyKind::LruThreshold { .. } => "LRU-Threshold",
            PolicyKind::HyperG => "Hyper-G",
        }
    }

    /// All parameterless built-in kinds (threshold uses a default of 25%),
    /// handy for exhaustive tests and the policy-comparison bench.
    pub fn all() -> [PolicyKind; 5] {
        [
            PolicyKind::Lru,
            PolicyKind::Lfu,
            PolicyKind::LruMin,
            PolicyKind::LruThreshold {
                max_size_permille: 250,
            },
            PolicyKind::HyperG,
        ]
    }
}

/// The "Custom" legal value of O6: a user-supplied victim-selection hook.
///
/// The hook receives the candidate set (id + metadata) and the incoming
/// object size and returns the entry to evict. The surrounding bookkeeping
/// (candidate tracking, metadata, repetition until space frees up) is kept
/// in generated/framework code, exactly as the paper describes: "a
/// programmer can implement a different cache replacement policy by simply
/// adding code to a hook method".
pub struct CustomPolicy {
    entries: Vec<(EntryId, EntryMeta)>,
    select: VictimSelector,
}

/// The custom victim-selection hook: `(candidates, incoming_size) ->
/// entry to evict`.
pub type VictimSelector = Box<dyn FnMut(&[(EntryId, EntryMeta)], u64) -> Option<EntryId> + Send>;

impl CustomPolicy {
    /// Create a custom policy from a victim-selection closure.
    pub fn new(
        select: impl FnMut(&[(EntryId, EntryMeta)], u64) -> Option<EntryId> + Send + 'static,
    ) -> Self {
        Self {
            entries: Vec::new(),
            select: Box::new(select),
        }
    }
}

impl ReplacementPolicy for CustomPolicy {
    fn name(&self) -> &'static str {
        "Custom"
    }

    fn on_insert(&mut self, id: EntryId, meta: &EntryMeta) {
        self.entries.push((id, *meta));
    }

    fn on_access(&mut self, id: EntryId, meta: &EntryMeta) {
        if let Some(e) = self.entries.iter_mut().find(|(eid, _)| *eid == id) {
            e.1 = *meta;
        }
    }

    fn on_remove(&mut self, id: EntryId) {
        self.entries.retain(|(eid, _)| *eid != id);
    }

    fn choose_victim(&mut self, incoming_size: u64) -> Option<EntryId> {
        (self.select)(&self.entries, incoming_size)
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
    fn policy_kind_names_match_paper() {
        assert_eq!(PolicyKind::Lru.name(), "LRU");
        assert_eq!(PolicyKind::Lfu.name(), "LFU");
        assert_eq!(PolicyKind::LruMin.name(), "LRU-MIN");
        assert_eq!(
            PolicyKind::LruThreshold {
                max_size_permille: 100
            }
            .name(),
            "LRU-Threshold"
        );
        assert_eq!(PolicyKind::HyperG.name(), "Hyper-G");
    }

    #[test]
    fn policy_kind_builds_every_variant() {
        for kind in PolicyKind::all() {
            let built = kind.build();
            assert_eq!(built.name(), kind.name());
        }
    }

    #[test]
    fn custom_policy_uses_the_hook() {
        // Evict the largest entry regardless of recency.
        let mut p = CustomPolicy::new(|entries, _incoming| {
            entries
                .iter()
                .max_by_key(|(_, m)| m.size)
                .map(|(id, _)| *id)
        });
        p.on_insert(1, &meta(10, 0));
        p.on_insert(2, &meta(99, 1));
        p.on_insert(3, &meta(50, 2));
        assert_eq!(p.choose_victim(1), Some(2));
        p.on_remove(2);
        assert_eq!(p.choose_victim(1), Some(3));
    }

    #[test]
    fn custom_policy_on_access_updates_meta() {
        // Evict the least-recently-accessed entry.
        let mut p = CustomPolicy::new(|entries, _| {
            entries
                .iter()
                .min_by_key(|(_, m)| m.last_access)
                .map(|(id, _)| *id)
        });
        p.on_insert(1, &meta(10, 0));
        p.on_insert(2, &meta(10, 1));
        p.on_access(
            1,
            &EntryMeta {
                size: 10,
                last_access: 5,
                access_count: 2,
                inserted_at: 0,
            },
        );
        assert_eq!(p.choose_victim(1), Some(2));
    }

    #[test]
    fn default_admits_rejects_only_oversized() {
        let p = Lru::new();
        assert!(p.admits(10, 10));
        assert!(!p.admits(11, 10));
    }
}
