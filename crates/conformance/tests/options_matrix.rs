//! The paper's central claim, made checkable: servers generated under
//! different template option columns (O1–O12) have the *same observable
//! protocol behaviour*. Every variant here runs the same schedules through
//! the same byte-exact model — scheduling, pooling, caching and overload
//! options may change performance, never legality.

use conformance::{generate, run_http_with_options, standard_http_service, Proto};
use nserver_cache::PolicyKind;
use nserver_core::options::{
    CompletionMode, DispatcherThreads, EventScheduling, FileCacheOption, Mode, OverloadControl,
    ServerOptions, StageDeadlines, ThreadAllocation,
};
use nserver_http::cops_http_options;

fn variants() -> Vec<(&'static str, ServerOptions)> {
    let base = cops_http_options();
    vec![
        ("cops-http-baseline", base.clone()),
        (
            // The path a COPS-HTTP server takes on one CPU: every event
            // on the dispatcher, completions from the helpers.
            "o2-no-pool",
            ServerOptions {
                separate_handler_pool: false,
                ..base.clone()
            },
        ),
        (
            "o1-multi-dispatcher",
            ServerOptions {
                dispatcher_threads: DispatcherThreads::Multi(2),
                ..base.clone()
            },
        ),
        (
            "o4-synchronous-completions",
            ServerOptions {
                completion_mode: CompletionMode::Synchronous,
                ..base.clone()
            },
        ),
        (
            "o5-dynamic-pool",
            ServerOptions {
                thread_allocation: ThreadAllocation::Dynamic {
                    min: 1,
                    max: 4,
                    idle_keepalive_ms: 50,
                },
                ..base.clone()
            },
        ),
        (
            "o6-no-cache",
            ServerOptions {
                file_cache: FileCacheOption::No,
                ..base.clone()
            },
        ),
        (
            "o6-lfu-cache",
            ServerOptions {
                file_cache: FileCacheOption::Yes {
                    policy: PolicyKind::Lfu,
                    capacity_bytes: 1 << 20,
                },
                ..base.clone()
            },
        ),
        (
            "o8-event-scheduling",
            ServerOptions {
                event_scheduling: EventScheduling::Yes { quotas: vec![2, 1] },
                ..base.clone()
            },
        ),
        (
            "o9-max-connections",
            ServerOptions {
                // Above the generator's connection count: admission control
                // present but never rejecting, so the model still applies.
                overload_control: OverloadControl::MaxConnections { limit: 64 },
                ..base.clone()
            },
        ),
        (
            "o9-watermark",
            ServerOptions {
                overload_control: OverloadControl::Watermark { high: 16, low: 4 },
                ..base.clone()
            },
        ),
        (
            "o10-debug-mode",
            ServerOptions {
                mode: Mode::Debug,
                ..base.clone()
            },
        ),
        (
            "o7-stage-deadlines",
            ServerOptions {
                // Generous enough that no in-test connection expires.
                stage_deadlines: StageDeadlines {
                    header_read_ms: Some(60_000),
                    write_drain_ms: Some(60_000),
                },
                idle_shutdown_ms: Some(60_000),
                ..base
            },
        ),
    ]
}

#[test]
fn every_options_variant_conforms_to_the_same_model() {
    let seeds: &[u64] = &[3, 11, 17];
    for (name, opts) in variants() {
        opts.validate()
            .unwrap_or_else(|e| panic!("variant {name} is invalid: {e:?}"));
        for &seed in seeds {
            let sched = generate(Proto::Http, seed);
            let report = run_http_with_options(&sched, standard_http_service(), opts.clone());
            assert!(
                report.violations.is_empty(),
                "variant {name}, seed {seed}: {}",
                report
                    .violations
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("; "),
            );
        }
    }
}
