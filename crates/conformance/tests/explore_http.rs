//! HTTP schedule exploration: generated adversarial schedules run against
//! the real COPS-HTTP pipeline, every trace checked against the byte-exact
//! model. Four seed bands × 80 seeds = 320 schedules, and one band of
//! 1,000, in the default run; then the pipelined-past-close schedules and
//! the stall-heavy ones.
//!
//! `NSERVER_REPLAY_SEED=n` narrows every band to exactly seed `n` (the
//! counterexample replay path); `NSERVER_CONF_SEED_SPAN=lo..hi` widens
//! them all (the CI extended run).

use std::time::{Duration, Instant};

use conformance::schedule::generate_stall_heavy;
use conformance::{explore, generate, run, seed_range, Proto};

fn explore_band(lo: u64, hi: u64) {
    let seeds = seed_range(lo, hi);
    let want = seeds.len();
    let summary = explore(Proto::Http, seeds);
    assert_eq!(summary.runs, want);
    // Schedule generation embeds a fresh fault-plan seed per schedule, so
    // fingerprint collisions across seeds would indicate a generator or
    // fingerprint bug, not chance.
    assert!(
        summary.distinct_schedules * 100 >= want * 95,
        "only {} distinct schedules in {} runs",
        summary.distinct_schedules,
        want
    );
}

#[test]
fn http_band_a() {
    explore_band(0, 80);
}

#[test]
fn http_band_b() {
    explore_band(1000, 1080);
}

#[test]
fn http_band_c() {
    explore_band(2000, 2080);
}

#[test]
fn http_band_d() {
    explore_band(3000, 3080);
}

#[test]
fn http_band_e() {
    explore_band(20000, 21000);
}

/// Pipelined-past-close schedules: the client must observe the complete
/// final response — the lingering close's delivery guarantee — with no
/// violations.
#[test]
fn pipelined_close_tail_schedules_conform() {
    let close_then_more = |bytes: &[u8]| {
        let find = |hay: &[u8], needle: &[u8]| hay.windows(needle.len()).position(|w| w == needle);
        find(bytes, b"Connection: close")
            .and_then(|i| find(&bytes[i..], b"\r\n\r\n").map(|j| i + j + 4))
            .is_some_and(|end| bytes.len() > end)
    };
    let mut exercised = 0;
    for seed in 20000..20120 {
        let sched = generate(Proto::Http, seed);
        if !sched.conns.iter().any(|c| close_then_more(&c.bytes())) {
            continue;
        }
        let report = run(&sched);
        assert!(
            report.violations.is_empty(),
            "seed {seed}: {:?}",
            report.violations
        );
        exercised += 1;
        if exercised == 8 {
            break;
        }
    }
    assert!(
        exercised >= 3,
        "only {exercised} pipelined-past-close schedules in the band"
    );
}

/// Stall-heavy schedules of both protocols (every step pauses 40–120 ms)
/// conform, and a pause costs no wall-clock time: the runs take under a
/// fifth of their pauses, read off the stepped server's clock.
#[test]
fn stall_heavy_schedules_conform_in_a_fifth_of_their_pauses() {
    let (mut wall, mut paused) = (Duration::ZERO, Duration::ZERO);
    for seed in 31000..31008 {
        for proto in [Proto::Http, Proto::Ftp] {
            let sched = generate_stall_heavy(proto, seed);
            let started = Instant::now();
            let report = run(&sched);
            wall += started.elapsed();
            assert!(
                report.violations.is_empty(),
                "{proto:?} seed {seed}: {:?}",
                report.violations
            );
            let scripted: u64 = sched.order.iter().map(|step| step.pause_ms).sum();
            assert_eq!(report.elapsed, Duration::from_millis(scripted));
            paused += report.elapsed;
        }
    }
    assert!(
        wall * 5 < paused,
        "{} ms of runs for {} ms of pauses",
        wall.as_millis(),
        paused.as_millis()
    );
}
