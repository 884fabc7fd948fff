//! Data-plane conformance sweeps: schedules whose PASV transfers run
//! over data connections the control listener's stack opened, checked
//! byte-exactly against the model's replica VFS — including STOR
//! write-back visibility and the completion-after-data-close ordering
//! rule.

use std::time::{Duration, Instant};

use conformance::{explore, generate, run, seed_range, Proto};
use nserver_ftp::split_replies;

#[test]
fn ftp_data_plane_sweep_band_one() {
    let seeds = seed_range(9000, 9150);
    let runs = seeds.len();
    let summary = explore(Proto::Ftp, seeds);
    assert_eq!(summary.runs, runs);
    assert!(
        summary.distinct_schedules * 100 >= runs * 95,
        "schedule space too collapsed: {} distinct of {}",
        summary.distinct_schedules,
        runs
    );
}

#[test]
fn ftp_data_plane_sweep_band_two() {
    let seeds = seed_range(9150, 9300);
    let runs = seeds.len();
    let summary = explore(Proto::Ftp, seeds);
    assert_eq!(summary.runs, runs);
}

/// The sweeps above only prove *absence of violations*; this test proves
/// the data plane is actually exercised — real data connections are
/// accepted, tapped, and joined to their control connections — so a
/// silently-dead pump cannot fake a green sweep.
#[test]
fn data_schedules_record_joined_data_traces() {
    let mut scheduled_ops = 0usize;
    let mut data_traces = 0usize;
    let mut joined = 0usize;
    for seed in 9300..9400 {
        let sched = generate(Proto::Ftp, seed);
        let ops: usize = sched.conns.iter().map(|c| c.data_ops.len()).sum();
        if ops == 0 {
            continue;
        }
        scheduled_ops += ops;
        let report = run(&sched);
        assert!(
            report.violations.is_empty(),
            "seed {seed}: {:?}",
            report.violations
        );
        for t in &report.traces {
            if t.is_data() {
                data_traces += 1;
                let p = t.parent.expect("data traces carry their parent");
                assert!(p.transfer_ordinal >= 1, "ordinals are 1-based");
                if report
                    .traces
                    .iter()
                    .any(|c| c.parent.is_none() && c.accept_index == p.control_accept_index)
                {
                    joined += 1;
                }
            }
        }
    }
    assert!(
        scheduled_ops >= 50,
        "band too thin: only {scheduled_ops} scheduled data ops"
    );
    // Not every scripted op can land a trace: dangling PASVs are never
    // accepted, statically-failing RETRs drop the listener without
    // accepting, pre-login PASVs die at the 530 gate, and faulted or
    // early-closed connections may never reach their transfer. A quarter
    // of the scheduled ops producing real accepted-and-tapped data
    // connections is far beyond what a dead pump could fake.
    assert!(
        data_traces >= scheduled_ops / 4,
        "pump starvation: {data_traces} data traces for {scheduled_ops} scheduled ops"
    );
    assert_eq!(
        joined, data_traces,
        "every data trace must join a recorded control connection"
    );
}

/// Seeds 5020 and 21249 transfer on a control connection whose fault
/// profile (`ShortIo`) refuses part of each write. When the data plane was
/// loopback TCP, a transfer job there waited out the 3 s accept deadline
/// for a client that dialled only once the whole `227` was delivered —
/// which needed the dispatcher pass the blocked job held up — and ended
/// in `425`. Each transfer must now meet its client at once and leave a
/// joined data trace.
#[test]
fn transfers_on_faulted_connections_record_data_traces_at_once() {
    for seed in [5020, 21249] {
        let sched = generate(Proto::Ftp, seed);
        let started = Instant::now();
        let report = run(&sched);
        let took = started.elapsed();
        assert!(
            report.violations.is_empty(),
            "seed {seed}: {:?}",
            report.violations
        );
        assert!(
            took < Duration::from_millis(200),
            "seed {seed} took {took:?}"
        );
        let faulted = report
            .traces
            .iter()
            .filter(|t| !t.is_data() && t.profile != "Clean");
        let mut transfers = 0;
        for control in faulted {
            let codes: Vec<u16> = (split_replies(&control.outbound()).complete.iter())
                .map(|b| b.code)
                .collect();
            assert!(!codes.contains(&425), "seed {seed}: {codes:?}");
            let children = (report.traces.iter())
                .filter(|t| {
                    t.parent
                        .is_some_and(|p| p.control_accept_index == control.accept_index)
                })
                .count();
            let completed = codes.iter().filter(|&&c| c == 150).count();
            assert_eq!(
                children, completed,
                "seed {seed}: a data trace per transfer"
            );
            transfers += completed;
        }
        assert!(
            transfers > 0,
            "seed {seed} transfers on no faulted connection"
        );
    }
}
