//! Property-based tests over the experiment world at small scale: for
//! arbitrary (bounded) configurations, the simulation must uphold its
//! accounting invariants and stay deterministic.

use nserver_baselines::world::CopsParams;
use nserver_baselines::{ApacheParams, ExperimentParams, ServerKind, World};
use nserver_netsim::SimTime;
use propcheck::check;

fn tiny(clients: usize, kind: ServerKind, seed: u64) -> ExperimentParams {
    let mut p = ExperimentParams::figure3(clients, kind);
    p.warmup = SimTime::from_secs(2);
    p.measure = SimTime::from_secs(10);
    p.seed = seed;
    p
}

/// Whatever the load and server, the measured quantities are sane:
/// fairness in (0,1], non-negative times, responses consistent with
/// throughput, combined time ≥ response time.
#[test]
fn world_invariants_hold() {
    check(12, |g| {
        let clients = g.range(1usize..96);
        let apache = g.bool();
        let seed = g.range(1u64..1000);
        let kind = if apache {
            ServerKind::Apache(ApacheParams::default())
        } else {
            ServerKind::Cops(CopsParams::default())
        };
        let out = World::new(tiny(clients, kind, seed)).run();
        assert!(out.fairness > 0.0 && out.fairness <= 1.0 + 1e-12);
        assert!(out.mean_response_ms >= 0.0);
        assert!(
            out.mean_combined_ms + 1e-9 >= out.mean_response_ms,
            "combined {} < response {}",
            out.mean_combined_ms,
            out.mean_response_ms
        );
        let implied = out.responses as f64 / 10.0;
        assert!((out.throughput_rps - implied).abs() < 1e-6);
        // A live system must make progress.
        assert!(out.responses > 0, "no responses at {clients} clients");
        // p95 is at least the mean's order of magnitude.
        assert!(out.p95_response_ms >= 0.0);
    });
}

/// Same seed ⇒ bit-identical outcome; different seed ⇒ same shape
/// (throughput within a modest band), so results are robust, not
/// seed-artifacts.
#[test]
fn world_is_deterministic_and_seed_robust() {
    check(12, |g| {
        let seed = g.range(1u64..500);
        let kind = ServerKind::Cops(CopsParams::default());
        let a = World::new(tiny(32, kind, seed)).run();
        let b = World::new(tiny(32, kind, seed)).run();
        assert_eq!(a.responses, b.responses);
        assert_eq!(a.fairness, b.fairness);
        let c = World::new(tiny(32, kind, seed + 1)).run();
        let ratio = a.throughput_rps / c.throughput_rps;
        assert!((0.8..1.25).contains(&ratio), "seed sensitivity: {ratio}");
    });
}

/// Offered load monotonicity (coarse): doubling the clients never
/// *reduces* throughput by more than a small tolerance in the
/// unsaturated region.
#[test]
fn throughput_is_monotone_in_light_load() {
    check(12, |g| {
        let clients = g.range(1usize..24);
        let seed = g.range(1u64..200);
        let kind = ServerKind::Cops(CopsParams::default());
        let small = World::new(tiny(clients, kind, seed)).run();
        let big = World::new(tiny(clients * 2, kind, seed)).run();
        assert!(
            big.throughput_rps > small.throughput_rps * 1.2,
            "{} clients: {} rps, {} clients: {} rps",
            clients,
            small.throughput_rps,
            clients * 2,
            big.throughput_rps
        );
    });
}
