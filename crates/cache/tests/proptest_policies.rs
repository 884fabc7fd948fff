//! Property-based tests over all cache replacement policies: whatever the
//! operation sequence, the cache must respect its byte capacity, keep its
//! key/entry indices coherent, and never lose an entry it did not evict.

use std::collections::HashSet;
use std::sync::Arc;

use nserver_cache::{FileCache, PolicyKind};
use propcheck::{check, Gen};

mod oracle;

/// An abstract cache operation.
#[derive(Debug, Clone)]
enum Op {
    Get(u8),
    Insert(u8, u16),
    Invalidate(u8),
}

fn op(g: &mut Gen) -> Op {
    match g.range(0..3u8) {
        0 => Op::Get(g.any()),
        1 => Op::Insert(g.any(), g.range(1..2048)),
        _ => Op::Invalidate(g.any()),
    }
}

/// 64 traces of 1 to 199 operations against one policy.
fn check_traces(kind: PolicyKind) {
    check(64, |g| run_trace(kind, &g.vec(1..200, op)));
}

fn run_trace(kind: PolicyKind, ops: &[Op]) {
    let capacity = 8 * 1024;
    let mut cache: FileCache<u8> = FileCache::new(capacity, kind);
    let mut maybe_resident: HashSet<u8> = HashSet::new();

    for op in ops {
        match *op {
            Op::Get(k) => {
                let hit = cache.get(&k).is_some();
                if hit {
                    assert!(
                        maybe_resident.contains(&k),
                        "{}: hit on a key never inserted",
                        kind.name()
                    );
                }
            }
            Op::Insert(k, size) => {
                let admitted = cache.insert(k, Arc::new(vec![0u8; size as usize]));
                if admitted {
                    maybe_resident.insert(k);
                }
                // On refusal the key may or may not remain resident: an
                // admission-test refusal keeps a previously cached value
                // for the key, while a cannot-fit refusal evicts it.
                // `maybe_resident` is an over-approximation either way.
            }
            Op::Invalidate(k) => {
                cache.invalidate(&k);
                maybe_resident.remove(&k);
            }
        }
        assert!(
            cache.used_bytes() <= capacity,
            "{}: capacity exceeded",
            kind.name()
        );
        // Hit rate is always a valid proportion.
        let s = cache.stats();
        assert!(
            (0.0..=1.0).contains(&s.hit_rate()),
            "{}: bad hit rate",
            kind.name()
        );
    }
}

#[test]
fn lru_trace() {
    check_traces(PolicyKind::Lru);
}

#[test]
fn lfu_trace() {
    check_traces(PolicyKind::Lfu);
}

#[test]
fn lru_min_trace() {
    check_traces(PolicyKind::LruMin);
}

#[test]
fn lru_threshold_trace() {
    check_traces(PolicyKind::LruThreshold {
        max_size_permille: 200,
    });
}

#[test]
fn hyper_g_trace() {
    check_traces(PolicyKind::HyperG);
}

/// An input `proptest` once shrank a failure to, against every policy.
fn run_recorded(ops: &[Op]) {
    for kind in [
        PolicyKind::Lru,
        PolicyKind::Lfu,
        PolicyKind::LruMin,
        PolicyKind::LruThreshold {
            max_size_permille: 200,
        },
        PolicyKind::HyperG,
    ] {
        run_trace(kind, ops);
    }
}

#[test]
fn recorded_trace_one_small_insert() {
    run_recorded(&[Op::Insert(0, 1)]);
}

#[test]
fn recorded_trace_reinsert_larger_then_get() {
    run_recorded(&[Op::Insert(68, 1), Op::Insert(68, 1639), Op::Get(68)]);
}

/// A pure-LRU cache of capacity C with unit-size entries behaves exactly
/// like a textbook LRU list of length C.
#[test]
fn lru_matches_reference_model() {
    check(64, |g| {
        let keys = g.vec(1..300, |g| g.range(0u8..16));
        let cap = 4u64;
        let mut cache: FileCache<u8> = FileCache::new(cap, PolicyKind::Lru);
        let mut model: Vec<u8> = Vec::new(); // front = most recent

        for &k in &keys {
            let hit = cache.get(&k).is_some();
            let model_hit = model.contains(&k);
            assert_eq!(hit, model_hit, "divergence on key {k}");
            if hit {
                model.retain(|&x| x != k);
                model.insert(0, k);
            } else {
                cache.insert(k, Arc::new(vec![0u8; 1]));
                model.insert(0, k);
                if model.len() > cap as usize {
                    model.pop();
                }
            }
            assert_eq!(cache.len(), model.len());
        }
    });
}

/// An operation of mixed size over few keys: re-inserts, evictions and so
/// slot reuse are the common case, and at 2 KiB of capacity the eviction
/// loop takes several victims for one newcomer.
fn oracle_op(g: &mut Gen) -> Op {
    let key = g.range(0..24u8);
    match g.range(0..6u8) {
        0..=2 => Op::Get(key),
        3 | 4 => Op::Insert(
            key,
            *g.pick(&[1, 7, 60, 300, 511, 512, 513, 1500, 2048, 2049]),
        ),
        _ => Op::Invalidate(key),
    }
}

/// The slab cache and the cache it replaced (`oracle`) agree after every
/// step of a random trace: hit or miss (and the bytes hit), the `insert`
/// verdict, `invalidate`'s, `used_bytes`, `len`, every key's residency and
/// the full `CacheStats` — so each policy names the same victims in the
/// same order, whatever slot an entry now sits in.
fn check_against_oracle(kind: PolicyKind) {
    check(96, |g| {
        let capacity = *g.pick(&[600u64, 2048, 8192]);
        let mut new: FileCache<u8> = FileCache::new(capacity, kind);
        let mut old: oracle::FileCache<u8> = oracle::FileCache::new(capacity, kind);
        for (step, op) in g.vec(1..400, oracle_op).into_iter().enumerate() {
            let at = format!("{} step {step} {op:?}", kind.name());
            match op {
                Op::Get(k) => assert_eq!(new.get(&k), old.get(&k), "{at}"),
                Op::Insert(k, size) => {
                    let data = Arc::new(vec![k; size as usize]);
                    let verdict = new.insert(k, Arc::clone(&data));
                    assert_eq!(verdict, old.insert(k, data), "{at}");
                }
                Op::Invalidate(k) => assert_eq!(new.invalidate(&k), old.invalidate(&k), "{at}"),
            }
            assert_eq!(new.stats(), old.stats(), "{at}");
            assert_eq!(new.used_bytes(), old.used_bytes(), "{at}");
            assert_eq!(new.len(), old.len(), "{at}");
            for k in 0..24u8 {
                assert_eq!(new.contains(&k), old.contains(&k), "{at}: key {k}");
            }
        }
    });
}

#[test]
fn lru_oracle() {
    check_against_oracle(PolicyKind::all()[0]);
}

#[test]
fn lfu_oracle() {
    check_against_oracle(PolicyKind::all()[1]);
}

#[test]
fn lru_min_oracle() {
    check_against_oracle(PolicyKind::all()[2]);
}

#[test]
fn lru_threshold_oracle() {
    check_against_oracle(PolicyKind::all()[3]);
}

#[test]
fn hyper_g_oracle() {
    check_against_oracle(PolicyKind::all()[4]);
}

/// An evicted entry's slot goes to the next insert, whatever its key: the
/// old key misses from then on, the newcomer is what the slot answers to,
/// and no policy ever names a vacant slot as its victim (the cache would
/// then fail to make room and refuse an insert that fits).
#[test]
fn slot_reuse_oracle() {
    for kind in PolicyKind::all() {
        let mut cache: FileCache<&str> = FileCache::new(100, kind);
        for key in ["a", "b", "c", "d"] {
            assert!(cache.insert(key, Arc::new(vec![key.as_bytes()[0]; 25])));
        }
        for key in ["b", "c", "d", "d", "c", "b"] {
            assert!(cache.get(&key).is_some());
        }
        // Full: a is the oldest, the least used and as large as any, so
        // every policy evicts a, and e moves into a's slot.
        assert!(cache.insert("e", Arc::new(vec![b'e'; 25])), "{kind:?}");
        assert_eq!(cache.stats().evictions, 1, "{kind:?}");
        assert!(
            !cache.contains(&"a") && cache.get(&"a").is_none(),
            "{kind:?}"
        );
        assert_eq!(cache.get(&"e").as_deref(), Some(&vec![b'e'; 25]));
        // An invalidated entry's slot is reused the same way.
        assert!(cache.invalidate(&"c"));
        assert!(cache.insert("f", Arc::new(vec![b'f'; 10])), "{kind:?}");
        assert!(cache.get(&"c").is_none(), "{kind:?}");
        assert_eq!(cache.get(&"f").as_deref(), Some(&vec![b'f'; 10]));
        assert_eq!((cache.len(), cache.used_bytes()), (4, 85), "{kind:?}");
        // Fill and churn: every insert fits once the policy's victims are
        // gone, so a refusal here is a vacant slot named as victim.
        for round in 0..40u8 {
            let key: &'static str = ["p", "q", "r", "s", "t"][round as usize % 5];
            let size = 5 + (round as usize * 7) % 20;
            assert!(cache.insert(key, Arc::new(vec![round; size])), "{kind:?}");
            assert_eq!(cache.get(&key).map(|d| d.len()), Some(size), "{kind:?}");
            assert!(cache.used_bytes() <= 100);
        }
        assert_eq!(cache.stats().rejected, 0, "{kind:?}");
    }
}
