//! A run is a function of its schedule. The explorer steps the server on
//! a virtual clock and delivers each step only when the server is still,
//! so running one schedule twice — fault plan included — must give the
//! same verdict and the same trace on every connection: each `Read` and
//! `Wrote` chunk as it was cut, and the close. That holds for FTP's data
//! connections too: they are in-memory connections the control
//! listener's stack opened, and their clients act as they open. And it
//! holds for the relay differential, whose relay arm steps a relay and
//! its backend as one world.

use conformance::{generate, relay_differential, run, seed_range, Proto, RunReport, Schedule};
use nserver_core::tap::{ConnTrace, TapEvent};

/// Each connection's events, by accept index (data connections under
/// their control connection's index, in transfer order).
fn events(report: &RunReport) -> Vec<(u64, Vec<TapEvent>)> {
    let mut conns: Vec<_> = (report.traces.iter())
        .map(|t| (t.accept_index, t.events.clone()))
        .collect();
    conns.sort_by_key(|(k, _)| *k);
    conns
}

fn runs_alike(sched: &Schedule) {
    let (first, second) = (run(sched), run(sched));
    let at = format!("{:?} seed {}", sched.proto, sched.seed);
    assert_eq!(first.violations, second.violations, "{at}: verdicts differ");
    assert_eq!(events(&first), events(&second), "{at}: traces differ");
}

#[test]
fn a_run_is_a_function_of_its_schedule() {
    for seed in seed_range(0, 50) {
        runs_alike(&generate(Proto::Http, seed));
        runs_alike(&generate(Proto::Ftp, seed));
    }
}

/// Each trace's accept index, peer label and events, in log order.
fn legs(traces: &[ConnTrace]) -> Vec<(u64, String, Vec<TapEvent>)> {
    let legs = traces
        .iter()
        .map(|t| (t.accept_index, t.peer.clone(), t.events.clone()));
    legs.collect()
}

/// The relay arm — the relay's client and backend legs and the backend's
/// connections, data connections included — runs alike twice, over HTTP
/// and FTP, and with a dead backend first in the rotation.
#[test]
fn a_relay_run_is_a_function_of_its_schedule() {
    let runs = [
        (Proto::Http, 40003, false),
        (Proto::Ftp, 41003, false),
        (Proto::Http, 42003, true),
        (Proto::Ftp, 43003, true),
    ];
    for (proto, seed, failover) in runs {
        let first = relay_differential(proto, seed, failover);
        let second = relay_differential(proto, seed, failover);
        let at = format!("{proto:?} seed {seed}, failover {failover}");
        assert!(first.equivalent(), "{at}: {:#?}", first.divergences);
        assert_eq!(
            first.divergences, second.divergences,
            "{at}: verdicts differ"
        );
        assert_eq!(
            first.dial_retries, second.dial_retries,
            "{at}: retries differ"
        );
        assert_eq!(
            first.dial_retries >= 1,
            failover,
            "{at}: {} retries",
            first.dial_retries
        );
        assert_eq!(
            legs(&first.traces),
            legs(&second.traces),
            "{at}: traces differ"
        );
    }
}
