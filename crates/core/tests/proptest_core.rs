//! Property-based tests over the core policy structures: the
//! priority-quota scheduler and the overload watermark.

use nserver_core::event::Priority;
use nserver_core::overload::Watermark;
use nserver_core::queue::{EventQueue, FifoQueue};
use nserver_core::scheduler::PriorityQuotaQueue;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// FIFO preserves insertion order exactly.
    #[test]
    fn fifo_preserves_order(items in proptest::collection::vec(any::<u32>(), 0..200)) {
        let mut q = FifoQueue::new();
        for &i in &items {
            q.push(i, Priority(0));
        }
        let mut out = Vec::new();
        while let Some(v) = q.pop() {
            out.push(v);
        }
        prop_assert_eq!(out, items);
    }

    /// Conservation: every item pushed into the priority queue is popped
    /// exactly once, regardless of quota configuration and priorities.
    #[test]
    fn priority_queue_conserves_items(
        quotas in proptest::collection::vec(1u32..8, 1..5),
        items in proptest::collection::vec((any::<u32>(), 0u8..8), 0..300),
    ) {
        let levels = quotas.len();
        let mut q = PriorityQuotaQueue::new(quotas);
        for &(v, p) in &items {
            q.push(v, Priority(p));
        }
        prop_assert_eq!(q.len(), items.len());
        let mut out = Vec::new();
        while let Some(v) = q.pop() {
            out.push(v);
        }
        prop_assert_eq!(out.len(), items.len());
        out.sort_unstable();
        let mut expect: Vec<u32> = items.iter().map(|&(v, _)| v).collect();
        expect.sort_unstable();
        prop_assert_eq!(out, expect);
        let _ = levels;
    }

    /// FIFO within each priority level: two items of the same level pop
    /// in push order.
    #[test]
    fn priority_queue_fifo_within_level(
        items in proptest::collection::vec((any::<u32>(), 0u8..3), 1..200),
    ) {
        let mut q = PriorityQuotaQueue::new(vec![4, 2, 1]);
        for (i, &(v, p)) in items.iter().enumerate() {
            q.push((i, v), Priority(p));
        }
        let mut last_index_per_level = [None::<usize>; 3];
        while let Some((i, _)) = q.pop() {
            let level = (items[i].1 as usize).min(2);
            if let Some(prev) = last_index_per_level[level] {
                prop_assert!(i > prev, "level {level} reordered: {prev} then {i}");
            }
            last_index_per_level[level] = Some(i);
        }
    }

    /// Starvation freedom: under any quota configuration, when every
    /// level is backlogged, every level receives service within one
    /// round (sum of quotas) of pops.
    #[test]
    fn no_level_starves(quotas in proptest::collection::vec(1u32..6, 2..5)) {
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
                    prop_assert!(
                        window.contains(&l),
                        "level {l} starved in a full round: {window:?}"
                    );
                }
                window.clear();
            }
        }
    }

    /// Watermark hysteresis invariants: never paused below low+1, always
    /// paused at/above high until drained, and the pause state is a pure
    /// function of the crossing history.
    #[test]
    fn watermark_invariants(
        lens in proptest::collection::vec(0usize..50, 1..200),
        low in 0usize..10,
        span in 1usize..20,
    ) {
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
            prop_assert_eq!(paused, model_paused);
            if len >= high {
                prop_assert!(paused);
            }
            if len <= low {
                prop_assert!(!paused);
            }
        }
    }
}
