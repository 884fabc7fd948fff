//! Property-based tests over all cache replacement policies: whatever the
//! operation sequence, the cache must respect its byte capacity, keep its
//! key/entry indices coherent, and never lose an entry it did not evict.

use std::collections::HashSet;
use std::sync::Arc;

use nserver_cache::{FileCache, PolicyKind};
use propcheck::{check, Gen};

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
