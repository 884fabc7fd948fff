//! The harness's soundness check: inject a known legality bug into the
//! real service and require the models to catch it, shrink it, and leave
//! a counterexample that replays from its serialized form. A conformance
//! suite that cannot fail proves nothing — these tests are the ones that
//! keep the green exploration runs meaningful.

use conformance::{
    generate, replaying_relay_diverges, run_ftp, run_http, run_http_gather_drop,
    run_http_lingerless, run_http_off_thread_drop, run_http_on_thread_drop, shrink,
    standard_ftp_service_over, standard_http_service, truncated_retr_service, DataOpKind,
    FtpMutation, HttpMutation, MutantFtp, MutantHttp, PrematureFtp, Proto, Schedule,
};

/// Find the first seed in `0..limit` whose schedule trips `fails`, check
/// the shrunken form still fails, and check the serialized artifact
/// round-trips into an equally failing schedule.
fn caught_shrunk_and_replayable(
    proto: Proto,
    limit: u64,
    fails: &dyn Fn(&Schedule) -> bool,
) -> Schedule {
    let sched = (0..limit)
        .map(|seed| generate(proto, seed))
        .find(|s| fails(s))
        .unwrap_or_else(|| panic!("no seed in 0..{limit} tripped the mutant — harness is blind"));
    let (shrunk, runs) = shrink(&sched, fails, 40);
    assert!(
        fails(&shrunk),
        "shrinking lost the failure after {runs} runs"
    );
    assert!(
        shrunk.serialize().len() <= sched.serialize().len(),
        "shrinking must not grow the schedule"
    );
    let replayed = Schedule::parse(&shrunk.serialize()).expect("artifact parses");
    assert_eq!(replayed.fingerprint(), shrunk.fingerprint());
    assert!(fails(&replayed), "artifact must replay the failure");
    replayed
}

#[test]
fn http_phantom_200_for_misses_is_caught() {
    let fails = |s: &Schedule| {
        let svc = MutantHttp::new(standard_http_service(), HttpMutation::MissBecomesOk);
        let report = run_http(s, svc);
        report
            .violations
            .iter()
            .any(|v| v.kind == "byte-divergence")
    };
    let witness = caught_shrunk_and_replayable(Proto::Http, 25, &fails);
    assert!(
        witness
            .conns
            .iter()
            .any(|c| c.bytes().windows(8).any(|w| w == b"/missing")),
        "the shrunken witness should still request a missing path:\n{}",
        witness.serialize()
    );
}

#[test]
fn http_keep_alive_lie_on_close_is_caught() {
    let fails = |s: &Schedule| {
        let svc = MutantHttp::new(standard_http_service(), HttpMutation::DropConnectionClose);
        let report = run_http(s, svc);
        report
            .violations
            .iter()
            .any(|v| v.kind == "byte-divergence")
    };
    caught_shrunk_and_replayable(Proto::Http, 25, &fails);
}

#[test]
fn ftp_login_bypass_is_caught() {
    let fails = |s: &Schedule| {
        let report = run_ftp(s, |transport| {
            MutantFtp::new(
                standard_ftp_service_over(transport),
                FtpMutation::LoginAlwaysSucceeds,
            )
        });
        report.violations.iter().any(|v| v.kind == "reply-mismatch")
    };
    caught_shrunk_and_replayable(Proto::Ftp, 25, &fails);
}

/// Data-plane soundness, payload axis: a backend whose `/pub/hello.txt`
/// is silently truncated answers every control reply legally — only the
/// `RETR` download bytes betray it, so catching it proves the checker
/// really compares data-socket payloads against the replica VFS.
#[test]
fn ftp_truncated_retr_payload_is_caught() {
    let fails = |s: &Schedule| {
        let report = run_ftp(s, truncated_retr_service);
        report
            .violations
            .iter()
            .any(|v| v.kind == "data-payload-mismatch")
    };
    // The first witness needs a logged-in RETR of the truncated file to
    // reach a successful 226 — those are sparser than raw RETR lines, so
    // this scan band is wider than the control-channel mutants'.
    let witness = caught_shrunk_and_replayable(Proto::Ftp, 120, &fails);
    assert!(
        witness
            .conns
            .iter()
            .any(|c| c.bytes().windows(9).any(|w| w == b"hello.txt")),
        "the shrunken witness should still RETR the truncated file:\n{}",
        witness.serialize()
    );
}

/// Data-plane soundness, ordering axis: a service that acknowledges
/// `150`+`226` before the data socket has closed must be caught by the
/// global-sequence premature-completion check (or, when the late
/// transfer misses the tap entirely, as a missing data trace).
#[test]
fn ftp_premature_completion_is_caught() {
    let fails = |s: &Schedule| {
        let report = run_ftp(s, |transport| {
            PrematureFtp::new(standard_ftp_service_over(transport))
        });
        report
            .violations
            .iter()
            .any(|v| v.kind == "premature-completion" || v.kind == "missing-data-trace")
    };
    caught_shrunk_and_replayable(Proto::Ftp, 40, &fails);
}

/// Close-semantics soundness: a transport mutant that rewrites the
/// server's FIN-first half-close into an immediate hard close. The
/// server-side traces stay perfect (the outbox drains before any close),
/// so only the client-delivery check can see the loss: the hard close
/// finds pipelined request bytes unread in the receive queue, resets the
/// connection, and the reset discards the final response out of the
/// client's receive queue.
#[test]
fn http_lingerless_close_is_caught() {
    let fails = |s: &Schedule| {
        // Pause 50ms after every step: the server runs until it is still
        // before each pause, so a close the server decided on is made
        // before the next segment arrives, and a pipelined tail in a
        // later segment meets the hard close and draws the reset — by
        // construction, on every shrink candidate. 50ms is far under
        // the real server's 1s linger window.
        let mut paced = s.clone();
        for st in &mut paced.order {
            st.pause_ms = 50;
        }
        run_http_lingerless(&paced)
            .violations
            .iter()
            .any(|v| v.kind == "rst-discarded-tail")
    };
    // Tripping needs a clean connection that pipelines bytes past a
    // close-triggering request in a *later* segment — those line up less
    // often than a plain close, hence the wider band.
    caught_shrunk_and_replayable(Proto::Http, 60, &fails);
}

/// Gathered-write soundness: a transport mutant that forwards only the
/// first slice of each gathered write while reporting all of them
/// written. The dispatcher's own accounting stays perfect (the outbox
/// drains, `bytes_sent` adds up), so only the byte-exact model can see
/// that a response head went out without its body.
#[test]
fn http_gather_drop_is_caught() {
    let fails = |s: &Schedule| {
        run_http_gather_drop(s)
            .violations
            .iter()
            .any(|v| v.kind == "byte-divergence" || v.kind == "incomplete-delivery")
    };
    caught_shrunk_and_replayable(Proto::Http, 25, &fails);
}

/// Worker-side Send Reply soundness: a transport mutant that swallows
/// every write not made on the thread that accepted the stream. The
/// dispatcher's own sends arrive, so the mutant is caught only if the
/// schedules drive replies through the work item's send — a survivor
/// would mean the sweep never left the dispatcher path. Runs with every
/// event on the queue (O4 = Synchronous), so that a schedule shrunk to
/// one connection still has a worker answer it.
#[test]
fn http_off_thread_drop_is_caught() {
    let fails = |s: &Schedule| {
        run_http_off_thread_drop(s)
            .violations
            .iter()
            .any(|v| v.kind == "byte-divergence" || v.kind == "incomplete-delivery")
    };
    caught_shrunk_and_replayable(Proto::Http, 25, &fails);
}

/// Dispatcher-side handling soundness, the mirror of the above: a
/// transport mutant that swallows every write of a work item's size made
/// *on* the accepting thread. The workers' sends arrive, so under the
/// COPS-HTTP preset the mutant is caught only if the dispatcher handles
/// ready events — and sends their replies — itself.
#[test]
fn http_on_thread_drop_is_caught() {
    let fails = |s: &Schedule| {
        run_http_on_thread_drop(s)
            .violations
            .iter()
            .any(|v| v.kind == "byte-divergence" || v.kind == "incomplete-delivery")
    };
    caught_shrunk_and_replayable(Proto::Http, 25, &fails);
}

/// Cluster soundness: a relay that replays its upstream bytes — the
/// classic retry bug of re-sending a request that already succeeded —
/// must diverge from the direct arm. The witness is held to contain a
/// `STOR` upload so the replayed transfer is part of the story.
#[test]
fn relay_upstream_replay_is_caught() {
    let fails = |s: &Schedule| {
        s.conns
            .iter()
            .any(|c| c.data_ops.iter().any(|o| o.kind == DataOpKind::Write))
            && replaying_relay_diverges(Proto::Ftp, s)
    };
    caught_shrunk_and_replayable(Proto::Ftp, 40, &fails);
}

#[test]
fn unmutated_services_pass_the_same_seeds() {
    // The control arm: the exact seed band the mutation tests scan must be
    // violation-free without the mutants, or "caught" means nothing.
    for seed in 0..25 {
        let h = run_http(&generate(Proto::Http, seed), standard_http_service());
        assert!(
            h.violations.is_empty(),
            "http seed {seed}: {:?}",
            h.violations
        );
        let f = run_ftp(&generate(Proto::Ftp, seed), standard_ftp_service_over);
        assert!(
            f.violations.is_empty(),
            "ftp seed {seed}: {:?}",
            f.violations
        );
    }
}
