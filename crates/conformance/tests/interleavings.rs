//! Exhaustive small-case interleaving exploration.

use conformance::{enumerate_orders, run, ConnScript, Proto, Schedule};
use nserver_core::fault::FaultPlan;
use std::collections::HashSet;

/// Two pipelined connections, two segments each: every one of the six
/// order-preserving interleavings of their segment deliveries must
/// conform. This is the exhaustive (rather than randomized) arm of
/// schedule exploration.
#[test]
fn all_interleavings_of_a_small_http_case_conform() {
    let base = Schedule {
        proto: Proto::Http,
        seed: 0,
        plan: FaultPlan::new(1),
        conns: vec![
            ConnScript {
                segments: vec![
                    b"GET /index.html HTTP/1.1\r\nHost: c\r\n\r\nGET /miss".to_vec(),
                    b"ing.html HTTP/1.1\r\nHost: c\r\nConnection: close\r\n\r\n".to_vec(),
                ],
                close_early: false,
                data_ops: vec![],
            },
            ConnScript {
                segments: vec![
                    b"HEAD /big.bin HTTP/1.1\r\nHost: c\r\n\r\n".to_vec(),
                    b"GET /hello%20world.txt HTTP/1.1\r\nHost: c\r\n\r\n".to_vec(),
                ],
                close_early: false,
                data_ops: vec![],
            },
        ],
        order: Vec::new(),
    };
    let orders = enumerate_orders(&[2, 2]);
    assert_eq!(orders.len(), 6, "multinomial(4; 2,2)");
    let mut fingerprints = HashSet::new();
    for mut order in orders {
        // A pause after every step: the stepped server runs until it is
        // still before the next segment arrives, so each interleaving
        // reaches it as one, not as one coalesced batch.
        order.iter_mut().for_each(|step| step.pause_ms = 1);
        let sched = base.with_order(order);
        sched.check_consistency().expect("consistent");
        assert!(
            fingerprints.insert(sched.fingerprint()),
            "each interleaving is a distinct schedule"
        );
        let report = run(&sched);
        assert!(
            report.violations.is_empty(),
            "interleaving {:?}: {:?}",
            sched.order,
            report.violations
        );
    }
}
