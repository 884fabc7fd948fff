//! The option spread the codegen integration tests share: every value
//! Table 1 names for each of O1..O12, combined.

use nserver_cache::PolicyKind;
use nserver_core::options::{
    CompletionMode, DispatcherThreads, EventScheduling, FileCacheOption, Mode, OverloadControl,
    ServerOptions, ThreadAllocation,
};

/// How many values each of O1..O12 takes here: every value Table 1
/// names, and two admitting values where a gate has parameters (O5, O6)
/// so that a gate's parameters get compared too.
pub const VALUES: [u8; 12] = [2, 2, 2, 2, 3, 3, 2, 2, 3, 2, 2, 2];

/// The option set with value `pick[k]` for option k + 1.
pub fn options(pick: &[u8; 12]) -> ServerOptions {
    ServerOptions {
        dispatcher_threads: [DispatcherThreads::Single, DispatcherThreads::Multi(2)]
            [pick[0] as usize],
        separate_handler_pool: pick[1] == 1,
        encode_decode: pick[2] == 1,
        completion_mode: [CompletionMode::Synchronous, CompletionMode::Asynchronous]
            [pick[3] as usize],
        thread_allocation: match pick[4] {
            0 => ThreadAllocation::Static { threads: 4 },
            1 => ThreadAllocation::Dynamic {
                min: 2,
                max: 8,
                idle_keepalive_ms: 100,
            },
            _ => ThreadAllocation::Dynamic {
                min: 1,
                max: 3,
                idle_keepalive_ms: 50,
            },
        },
        file_cache: match pick[5] {
            0 => FileCacheOption::No,
            1 => FileCacheOption::Yes {
                policy: PolicyKind::Lru,
                capacity_bytes: 20 << 20,
            },
            _ => FileCacheOption::Yes {
                policy: PolicyKind::HyperG,
                capacity_bytes: 4096,
            },
        },
        idle_shutdown_ms: [None, Some(30_000)][pick[6] as usize],
        event_scheduling: match pick[7] {
            0 => EventScheduling::No,
            _ => EventScheduling::Yes { quotas: vec![4, 1] },
        },
        overload_control: match pick[8] {
            0 => OverloadControl::No,
            1 => OverloadControl::MaxConnections { limit: 100 },
            _ => OverloadControl::Watermark { high: 20, low: 5 },
        },
        mode: [Mode::Production, Mode::Debug][pick[9] as usize],
        profiling: pick[10] == 1,
        logging: pick[11] == 1,
        ..ServerOptions::default()
    }
}

/// Every combination of [`VALUES`] that `validate` accepts, in counting
/// order (O12 fastest).
pub fn valid_picks() -> Vec<([u8; 12], ServerOptions)> {
    let mut picks = vec![[0u8; 12]];
    for (k, &n) in VALUES.iter().enumerate() {
        picks = picks
            .iter()
            .flat_map(|p| {
                (0..n).map(move |v| {
                    let mut q = *p;
                    q[k] = v;
                    q
                })
            })
            .collect();
    }
    picks
        .into_iter()
        .map(|p| (p, options(&p)))
        .filter(|(_, opts)| opts.validate().is_ok())
        .collect()
}
