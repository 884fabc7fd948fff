//! Property-based tests over the core policy structures: the
//! priority-quota scheduler and the overload watermark.

use nserver_core::event::Priority;
use nserver_core::overload::Watermark;
use nserver_core::queue::{EventQueue, FifoQueue};
use nserver_core::scheduler::PriorityQuotaQueue;
use propcheck::{check, Gen};

/// FIFO preserves insertion order exactly.
#[test]
fn fifo_preserves_order() {
    check(64, |g| {
        let items = g.vec(0..200, Gen::any::<u32>);
        let mut q = FifoQueue::new();
        for &i in &items {
            q.push(i, Priority(0));
        }
        let mut out = Vec::new();
        while let Some(v) = q.pop() {
            out.push(v);
        }
        assert_eq!(out, items);
    });
}

/// Conservation: every item pushed into the priority queue is popped
/// exactly once, regardless of quota configuration and priorities.
#[test]
fn priority_queue_conserves_items() {
    check(64, |g| {
        let quotas = g.vec(1..5, |g| g.range(1u32..8));
        let items = g.vec(0..300, |g| (g.any::<u32>(), g.range(0u8..8)));
        let levels = quotas.len();
        let mut q = PriorityQuotaQueue::new(quotas);
        for &(v, p) in &items {
            q.push(v, Priority(p));
        }
        assert_eq!(q.len(), items.len());
        let mut out = Vec::new();
        while let Some(v) = q.pop() {
            out.push(v);
        }
        assert_eq!(out.len(), items.len());
        out.sort_unstable();
        let mut expect: Vec<u32> = items.iter().map(|&(v, _)| v).collect();
        expect.sort_unstable();
        assert_eq!(out, expect);
        let _ = levels;
    });
}

/// FIFO within each priority level: two items of the same level pop
/// in push order.
#[test]
fn priority_queue_fifo_within_level() {
    check(64, |g| {
        let items = g.vec(1..200, |g| (g.any::<u32>(), g.range(0u8..3)));
        let mut q = PriorityQuotaQueue::new(vec![4, 2, 1]);
        for (i, &(v, p)) in items.iter().enumerate() {
            q.push((i, v), Priority(p));
        }
        let mut last_index_per_level = [None::<usize>; 3];
        while let Some((i, _)) = q.pop() {
            let level = (items[i].1 as usize).min(2);
            if let Some(prev) = last_index_per_level[level] {
                assert!(i > prev, "level {level} reordered: {prev} then {i}");
            }
            last_index_per_level[level] = Some(i);
        }
    });
}

/// Starvation freedom: under any quota configuration, when every
/// level is backlogged, every level receives service within one
/// round (sum of quotas) of pops.
#[test]
fn no_level_starves() {
    check(64, |g| {
        let quotas = g.vec(2..5, |g| g.range(1u32..6));
        let levels = quotas.len();
        let round: u32 = quotas.iter().sum();
        let mut q = PriorityQuotaQueue::new(quotas);
        // Saturate every level.
        for i in 0..(round as usize * 10) {
            for level in 0..levels {
                q.push((level, i), Priority(level as u8));
            }
        }
        // In any window of `round` pops, every level appears.
        let mut window: Vec<usize> = Vec::new();
        for _ in 0..(round * 4) {
            let (level, _) = q.pop().expect("saturated");
            window.push(level);
            if window.len() == round as usize {
                for l in 0..levels {
                    assert!(
                        window.contains(&l),
                        "level {l} starved in a full round: {window:?}"
                    );
                }
                window.clear();
            }
        }
    });
}

/// Watermark hysteresis invariants: never paused below low+1, always
/// paused at/above high until drained, and the pause state is a pure
/// function of the crossing history.
#[test]
fn watermark_invariants() {
    check(64, |g| {
        let lens = g.vec(1..200, |g| g.range(0usize..50));
        let low = g.range(0usize..10);
        let span = g.range(1usize..20);
        let high = low + span;
        let mut wm = Watermark::new(high, low);
        let mut model_paused = false;
        for &len in &lens {
            let paused = wm.observe(len);
            // Reference model.
            if model_paused {
                if len <= low {
                    model_paused = false;
                }
            } else if len >= high {
                model_paused = true;
            }
            assert_eq!(paused, model_paused);
            if len >= high {
                assert!(paused);
            }
            if len <= low {
                assert!(!paused);
            }
        }
    });
}
