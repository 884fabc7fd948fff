//! Property-based tests of the code generator: for *arbitrary valid*
//! option configurations, generation succeeds, emits structurally sound
//! Rust, and the emitted module set agrees exactly with the Table 2
//! gating facts.

use nserver_cache::PolicyKind;
use nserver_codegen::{count_source, generate, registry};
use nserver_core::options::{
    CompletionMode, DispatcherThreads, EventScheduling, FileCacheOption, Mode, OverloadControl,
    ServerOptions, StageDeadlines, ThreadAllocation,
};
use propcheck::{check, Gen};

fn policy(g: &mut Gen) -> PolicyKind {
    match g.range(0..5u8) {
        0 => PolicyKind::Lru,
        1 => PolicyKind::Lfu,
        2 => PolicyKind::LruMin,
        3 => PolicyKind::LruThreshold {
            max_size_permille: g.range(1..1000),
        },
        _ => PolicyKind::HyperG,
    }
}

/// `Some(draw)` half the time.
fn maybe<T>(g: &mut Gen, draw: impl FnOnce(&mut Gen) -> T) -> Option<T> {
    g.bool().then(|| draw(g))
}

fn valid_options(g: &mut Gen) -> ServerOptions {
    let multi = maybe(g, |g| g.range(1u8..4));
    let pool = g.bool();
    let encode_decode = g.bool();
    let async_completion = g.bool();
    let dynamic = g.bool();
    let threads = g.range(1usize..8);
    let cache = maybe(g, |g| (policy(g), g.range(1u64..(1 << 24))));
    let idle = maybe(g, |g| g.range(1u64..100_000));
    let quotas = maybe(g, |g| g.vec(1..4, |g| g.range(1u32..16)));
    let overload = g.range(0u8..3);
    let limit = g.range(1usize..2000);
    let low = g.range(0usize..10);
    let span = g.range(1usize..30);
    let debug = g.bool();
    let profiling = g.bool();
    let logging = g.bool();
    let header_deadline = maybe(g, |g| g.range(1u64..10_000));
    let drain_deadline = maybe(g, |g| g.range(1u64..10_000));
    let separate = pool || quotas.is_some() || overload == 2 || dynamic;
    ServerOptions {
        dispatcher_threads: match multi {
            None => DispatcherThreads::Single,
            Some(n) => DispatcherThreads::Multi(n),
        },
        separate_handler_pool: separate,
        encode_decode,
        completion_mode: if async_completion {
            CompletionMode::Asynchronous
        } else {
            CompletionMode::Synchronous
        },
        thread_allocation: if dynamic {
            ThreadAllocation::Dynamic {
                min: threads,
                max: threads + 4,
                idle_keepalive_ms: 50,
            }
        } else {
            ThreadAllocation::Static { threads }
        },
        file_cache: match cache {
            None => FileCacheOption::No,
            Some((policy, capacity_bytes)) => FileCacheOption::Yes {
                policy,
                capacity_bytes,
            },
        },
        idle_shutdown_ms: idle,
        event_scheduling: match quotas {
            None => EventScheduling::No,
            Some(q) => EventScheduling::Yes { quotas: q },
        },
        overload_control: match overload {
            0 => OverloadControl::No,
            1 => OverloadControl::MaxConnections { limit },
            _ => OverloadControl::Watermark {
                high: low + span,
                low,
            },
        },
        mode: if debug { Mode::Debug } else { Mode::Production },
        profiling,
        logging,
        stage_deadlines: StageDeadlines {
            header_read_ms: header_deadline,
            write_drain_ms: drain_deadline,
        },
    }
}

/// Any valid configuration generates a framework whose Rust files
/// have balanced braces/parens and non-trivial content.
#[test]
fn generation_is_structurally_sound() {
    check(48, |g| {
        let opts = valid_options(g);
        assert!(opts.validate().is_ok());
        let fw = generate("prop", &opts, "../crates");
        for f in &fw.files {
            if !f.path.ends_with(".rs") {
                continue;
            }
            let opens = f.content.matches('{').count();
            let closes = f.content.matches('}').count();
            assert_eq!(opens, closes, "unbalanced braces in {}", &f.path);
            let po = f.content.matches('(').count();
            let pc = f.content.matches(')').count();
            assert_eq!(po, pc, "unbalanced parens in {}", &f.path);
            let stats = count_source(&f.content);
            assert!(stats.ncss > 0, "empty module {}", &f.path);
        }
    });
}

/// The emitted module set matches the registry's gating exactly, and
/// `framework/mod.rs` declares precisely the emitted modules.
#[test]
fn emitted_modules_match_gating() {
    check(48, |g| {
        let opts = valid_options(g);
        let fw = generate("prop", &opts, "../crates");
        let mod_rs = &fw.file("src/framework/mod.rs").unwrap().content;
        for spec in registry() {
            let path = format!("src/framework/{}.rs", spec.module);
            let decl = format!("pub mod {};", spec.module);
            if spec.exists(&opts) {
                assert!(fw.file(&path).is_some(), "missing {}", spec.name);
                assert!(mod_rs.contains(&decl), "undeclared {}", spec.name);
            } else {
                assert!(fw.file(&path).is_none(), "phantom {}", spec.name);
                assert!(!mod_rs.contains(&decl), "ghost decl {}", spec.name);
            }
        }
    });
}

/// Generation is a pure function of the options.
#[test]
fn generation_is_deterministic() {
    check(48, |g| {
        let opts = valid_options(g);
        let a = generate("prop", &opts, "../crates");
        let b = generate("prop", &opts, "../crates");
        assert_eq!(a.files.len(), b.files.len());
        for (fa, fb) in a.files.iter().zip(&b.files) {
            assert_eq!(&fa.path, &fb.path);
            assert_eq!(&fa.content, &fb.content);
        }
    });
}

/// The reactor module always embeds the exact option literal, so the
/// generated server is self-describing.
#[test]
fn reactor_embeds_configuration() {
    check(48, |g| {
        let opts = valid_options(g);
        let fw = generate("prop", &opts, "../crates");
        let reactor = &fw.file("src/framework/reactor.rs").unwrap().content;
        assert!(reactor.contains("pub fn options() -> ServerOptions"));
        if let EventScheduling::Yes { quotas } = &opts.event_scheduling {
            let lit = format!("quotas: vec!{quotas:?}");
            assert!(reactor.contains(&lit), "missing {}", lit);
        }
        if let OverloadControl::Watermark { high, low } = opts.overload_control {
            let lit = format!("high: {high}, low: {low}");
            assert!(reactor.contains(&lit), "missing {}", lit);
        }
    });
}
