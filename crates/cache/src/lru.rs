//! Least-Recently-Used replacement.

use crate::policy::{EntryId, EntryMeta, ReplacementPolicy};

/// Classic LRU: the victim is always the entry whose last access is oldest.
///
/// An intrusive circular list over slot indices: node `id + 1` is entry
/// `id`, node 0 the sentinel whose `next` is the oldest entry and whose
/// `prev` the newest. A node linked to itself is on no list. Access ticks
/// only grow, so list order is recency order and a hit is an unlink and a
/// push: `O(1)`, no hashing, no allocation once the vector has grown.
#[derive(Debug, Default)]
pub struct Lru {
    /// `[prev, next]` per node.
    links: Vec<[usize; 2]>,
}

impl Lru {
    /// Create an empty LRU policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take `node` off the list (a no-op for a node that is on none).
    fn unlink(&mut self, node: usize) {
        let [prev, next] = self.links[node];
        self.links[prev][1] = next;
        self.links[next][0] = prev;
        self.links[node] = [node, node];
    }

    /// Make `id` the newest entry, tracked before or not.
    fn touch(&mut self, id: EntryId) {
        let node = id as usize + 1;
        for fresh in self.links.len()..=node {
            self.links.push([fresh, fresh]);
        }
        self.unlink(node);
        let newest = self.links[0][0];
        self.links[node] = [newest, 0];
        self.links[newest][1] = node;
        self.links[0][0] = node;
    }

    /// The oldest entry's node, 0 when there is none.
    fn oldest(&self) -> usize {
        self.links.first().map_or(0, |sentinel| sentinel[1])
    }

    /// Number of tracked entries (test/diagnostic aid; walks the list).
    pub fn len(&self) -> usize {
        let next = |&node: &usize| Some(self.links[node][1]).filter(|&n| n != 0);
        std::iter::successors(Some(self.oldest()).filter(|&n| n != 0), next).count()
    }

    /// True when no entries are tracked.
    pub fn is_empty(&self) -> bool {
        self.oldest() == 0
    }
}

impl ReplacementPolicy for Lru {
    fn name(&self) -> &'static str {
        "LRU"
    }

    fn on_insert(&mut self, id: EntryId, _meta: &EntryMeta) {
        self.touch(id);
    }

    fn on_access(&mut self, id: EntryId, _meta: &EntryMeta) {
        self.touch(id);
    }

    fn on_remove(&mut self, id: EntryId) {
        if (id as usize) + 1 < self.links.len() {
            self.unlink(id as usize + 1);
        }
    }

    fn choose_victim(&mut self, _incoming_size: u64) -> Option<EntryId> {
        (self.oldest() as EntryId).checked_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta_at(t: u64) -> EntryMeta {
        EntryMeta {
            size: 1,
            last_access: t,
            access_count: 1,
            inserted_at: t,
        }
    }

    #[test]
    fn evicts_oldest_insertion_first() {
        let mut p = Lru::new();
        p.on_insert(1, &meta_at(0));
        p.on_insert(2, &meta_at(1));
        p.on_insert(3, &meta_at(2));
        assert_eq!(p.choose_victim(0), Some(1));
    }

    #[test]
    fn access_refreshes_recency() {
        let mut p = Lru::new();
        p.on_insert(1, &meta_at(0));
        p.on_insert(2, &meta_at(1));
        p.on_access(1, &meta_at(2));
        assert_eq!(p.choose_victim(0), Some(2));
    }

    #[test]
    fn remove_untracks_entry() {
        let mut p = Lru::new();
        p.on_insert(1, &meta_at(0));
        p.on_insert(2, &meta_at(1));
        p.on_remove(1);
        assert_eq!(p.choose_victim(0), Some(2));
        p.on_remove(2);
        assert_eq!(p.choose_victim(0), None);
        assert!(p.is_empty());
    }

    #[test]
    fn remove_of_unknown_id_is_harmless() {
        let mut p = Lru::new();
        p.on_remove(42);
        assert_eq!(p.choose_victim(0), None);
    }

    #[test]
    fn victim_is_stable_without_mutation() {
        let mut p = Lru::new();
        p.on_insert(7, &meta_at(3));
        p.on_insert(8, &meta_at(4));
        assert_eq!(p.choose_victim(0), Some(7));
        assert_eq!(p.choose_victim(0), Some(7));
        assert_eq!(p.len(), 2);
    }
}
