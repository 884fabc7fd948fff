//! FTP schedule exploration: generated control-channel schedules run
//! against the real COPS-FTP pipeline, every trace checked against the
//! command-state-machine model. Three seed bands × 80 seeds = 240
//! schedules, and one band of 1,000, in the default run.

use conformance::{explore, seed_range, Proto};

fn explore_band(lo: u64, hi: u64) {
    let seeds = seed_range(lo, hi);
    let want = seeds.len();
    let summary = explore(Proto::Ftp, seeds);
    assert_eq!(summary.runs, want);
    assert!(
        summary.distinct_schedules * 100 >= want * 95,
        "only {} distinct schedules in {} runs",
        summary.distinct_schedules,
        want
    );
}

#[test]
fn ftp_band_a() {
    explore_band(5000, 5080);
}

#[test]
fn ftp_band_b() {
    explore_band(6000, 6080);
}

#[test]
fn ftp_band_c() {
    explore_band(7000, 7080);
}

#[test]
fn ftp_band_d() {
    explore_band(21000, 22000);
}
