//! A run is a function of its schedule. The explorer steps the server on
//! a virtual clock and delivers each step only when the server is still,
//! so running one schedule twice — fault plan included — must give the
//! same verdict and the same trace on every connection: each `Read` and
//! `Wrote` chunk as it was cut, and the close. That holds for FTP's data
//! connections too: they are in-memory connections the control
//! listener's stack opened, and their clients act as they open.

use conformance::{generate, run, seed_range, Proto, RunReport, Schedule};
use nserver_core::tap::TapEvent;

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
