//! Table 2 checked against the template, not beside it.
//!
//! `fragments::registry()` *declares* which options gate a class (`O`)
//! and which alter its body (`+`); `template::emit_class` is what
//! actually varies. This test derives the matrix from the emitted text —
//! over every valid combination of the option values below, two option
//! sets that differ in one option only are one group, and an option has
//! an effect on a class when some group emits two different bodies for
//! it — and holds the declaration to it, cell by cell: every declared `+`
//! has an effect, every effect is declared, and a gate alters the body it
//! gates through its own parameters or not at all.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use nserver_cache::PolicyKind;
use nserver_codegen::template::emit_class;
use nserver_codegen::{registry, Gate, OptionId};
use nserver_core::options::{
    CompletionMode, DispatcherThreads, EventScheduling, FileCacheOption, Mode, OverloadControl,
    ServerOptions, ThreadAllocation,
};

/// How many values each of O1..O12 takes here: every value Table 1
/// names, and two admitting values where a gate has parameters (O5, O6)
/// so that a gate's parameters get compared too.
const VALUES: [u8; 12] = [2, 2, 2, 2, 3, 3, 2, 2, 3, 2, 2, 2];

/// The option set with value `pick[k]` for option k + 1.
fn options(pick: &[u8; 12]) -> ServerOptions {
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

/// Every combination of [`VALUES`], valid or not.
fn all_picks() -> Vec<[u8; 12]> {
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
}

/// One hash per class of the registry: its emitted text under `opts`,
/// `None` where its gate shuts it out.
fn emitted(opts: &ServerOptions) -> Vec<Option<u64>> {
    registry()
        .iter()
        .map(|spec| {
            spec.exists(opts).then(|| {
                let mut h = DefaultHasher::new();
                emit_class(spec.module, opts).hash(&mut h);
                h.finish()
            })
        })
        .collect()
}

/// Cells where the template and the declaration are known to disagree.
/// Reactor embeds the whole `ServerOptions` literal (`pub fn options()`),
/// so its text follows O3 and O7 as it follows every option; the paper's
/// Table 2 row for Reactor has no mark there and
/// `reactor_is_affected_by_ten_options` keeps the row as printed.
const UNDECLARED_EFFECTS: [(&str, OptionId); 2] =
    [("Reactor", OptionId::O3), ("Reactor", OptionId::O7)];

#[test]
fn declared_crosscuts_are_the_ones_the_template_has() {
    // Keyed by pick; an option set `validate` refuses has no entry.
    let bodies: HashMap<[u8; 12], Vec<Option<u64>>> = all_picks()
        .into_iter()
        .map(|p| (p, options(&p)))
        .filter(|(_, opts)| opts.validate().is_ok())
        .map(|(p, opts)| (p, emitted(&opts)))
        .collect();
    assert!(
        bodies.len() >= 4096,
        "the spread shrank to {} option sets",
        bodies.len()
    );

    // effect[class][option]: some group emitted two different bodies.
    let mut effect = vec![[false; 12]; registry().len()];
    for (p, here) in &bodies {
        for k in 0..12 {
            // The rest of p's group: p with a later value of option k.
            for v in p[k] + 1..VALUES[k] {
                let mut q = *p;
                q[k] = v;
                let Some(there) = bodies.get(&q) else {
                    continue;
                };
                for (class, (a, b)) in here.iter().zip(there).enumerate() {
                    if let (Some(a), Some(b)) = (a, b) {
                        effect[class][k] |= a != b;
                    }
                }
            }
        }
    }

    let mut known = 0;
    for (spec, effect) in registry().iter().zip(&effect) {
        for (k, &opt) in OptionId::ALL.iter().enumerate() {
            let cell = format!("{} x {}", spec.name, opt.label());
            if spec.gate.map(|g| g.option()) == Some(opt) {
                // An `O`: the class is there or not. A gate with
                // parameters hands them to the class it gates (the
                // controller's bounds, the cache's policy and capacity)
                // and a gate without has nothing to alter a body with.
                let gate = spec.gate.expect("this cell is its gate's");
                let parameters = matches!(gate, Gate::DynamicAllocation | Gate::FileCache);
                assert_eq!(effect[k], parameters, "{cell}: what a gate alters");
                assert!(!spec.affected_by.contains(&opt), "{cell}: O and + both");
            } else if UNDECLARED_EFFECTS.contains(&(spec.name, opt)) {
                assert!(
                    effect[k] && !spec.affected_by.contains(&opt),
                    "{cell}: no longer an exception, drop it from the list"
                );
                known += 1;
            } else if spec.affected_by.contains(&opt) {
                assert!(effect[k], "{cell}: a declared + with no effect");
            } else {
                assert!(!effect[k], "{cell}: an effect Table 2 does not declare");
            }
        }
    }
    assert_eq!(known, UNDECLARED_EFFECTS.len());
}
