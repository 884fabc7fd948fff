//! Every name filter CI passes to `cargo test` still selects a test.
//!
//! `cargo test` exits 0 when a filter matches nothing, so a renamed test
//! turns a filtered CI step green and empty; `ci/run-filtered.sh` catches
//! that in CI, and this test catches it here, from the sources: it reads
//! each `cargo test -p …` and `ci/run-filtered.sh -p …` command out of the
//! workflow, `taskset -c N` prefix or not, and looks the filters (and the
//! names it `--skip`s) up among the `#[test]` functions of the targets the
//! command names.

use std::fs;
use std::path::{Path, PathBuf};

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The directory of workspace package `name`.
fn package_dir(name: &str) -> PathBuf {
    let crates = fs::read_dir(repo().join("crates")).expect("crates/");
    let mut dirs: Vec<PathBuf> = crates.map(|e| e.expect("entry").path()).collect();
    dirs.push(repo().join("tests"));
    let wanted = format!("name = \"{name}\"");
    dirs.into_iter()
        .find(|d| fs::read_to_string(d.join("Cargo.toml")).is_ok_and(|m| m.contains(&wanted)))
        .unwrap_or_else(|| panic!("no workspace package named {name}"))
}

/// The `#[test]` functions of one source file, as libtest names them
/// (`prefix` is the module path of a unit-test module, empty for an
/// integration test).
fn tests_in(file: &Path, prefix: &str) -> Vec<String> {
    let text = fs::read_to_string(file).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
    let mut lines = text.lines();
    let mut names = Vec::new();
    while let Some(line) = lines.next() {
        if line.trim() != "#[test]" {
            continue;
        }
        let name = lines
            .by_ref()
            .find_map(|l| l.trim().strip_prefix("fn "))
            .and_then(|rest| rest.split('(').next())
            .expect("a fn after #[test]");
        names.push(format!("{prefix}{name}"));
    }
    names
}

fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let files = entries.map(|e| e.expect("entry").path());
    files
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect()
}

/// The names one command's targets hold. Unit tests sit in `mod tests`
/// of their file throughout this workspace.
fn selectable(dir: &Path, lib: bool, targets: &[&str]) -> Vec<String> {
    let mut names = Vec::new();
    // Neither `--lib` nor `--test`: every target of the package.
    let whole = !lib && targets.is_empty();
    if lib || whole {
        for file in rust_files(&dir.join("src")) {
            let stem = file
                .file_stem()
                .expect("stem")
                .to_string_lossy()
                .into_owned();
            let prefix = if stem == "lib" {
                "tests::".to_string()
            } else {
                format!("{stem}::tests::")
            };
            names.extend(tests_in(&file, &prefix));
        }
    }
    if whole {
        for file in rust_files(&dir.join("tests")) {
            names.extend(tests_in(&file, ""));
        }
    }
    for target in targets {
        names.extend(tests_in(&dir.join(format!("tests/{target}.rs")), ""));
    }
    names
}

#[test]
fn every_ci_name_filter_selects_a_test() {
    let workflow = fs::read_to_string(repo().join(".github/workflows/ci.yml")).expect("ci.yml");
    let tokens: Vec<&str> = workflow
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .flat_map(str::split_whitespace)
        .collect();
    let starts_command =
        |i: usize| tokens[i] == "ci/run-filtered.sh" || tokens[i..].starts_with(&["cargo", "test"]);

    let mut filters_seen = Vec::new();
    let mut commands = 0;
    let mut on_one_cpu = 0;
    for start in (0..tokens.len()).filter(|&i| starts_command(i)) {
        // A command runs to the next YAML key, list item or command, or
        // to the `taskset -c N` that confines the next one to one CPU.
        let len = (start + 1..tokens.len())
            .position(|i| {
                tokens[i].ends_with(':') && !tokens[i].contains("::")
                    || tokens[i] == "-"
                    || tokens[i] == "taskset"
                    || starts_command(i)
            })
            .unwrap_or(tokens.len() - start - 1);
        if start >= 3 && tokens[start - 3..start - 1] == ["taskset", "-c"] {
            on_one_cpu += 1;
        }
        let args = &tokens[start..=start + len];
        let after = |flag: &str| {
            let at = args.iter().enumerate().filter(move |(_, a)| **a == flag);
            at.map(|(i, _)| args[i + 1]).collect::<Vec<_>>()
        };
        let Some(package) = after("-p").first().copied() else {
            continue; // the whole workspace: nothing is filtered
        };
        let split = args.iter().position(|a| *a == "--").unwrap_or(args.len());
        let filters: Vec<&str> = args[split..]
            .iter()
            .copied()
            .filter(|a| !a.starts_with('-'))
            .collect();
        let names = selectable(
            &package_dir(package),
            args[..split].contains(&"--lib"),
            &after("--test"),
        );
        assert!(!names.is_empty(), "`{}` selects no test", args.join(" "));
        for filter in &filters {
            let selects = names.iter().any(|n| n.contains(filter));
            assert!(
                selects,
                "`{filter}` of `{}` selects no test",
                args.join(" ")
            );
        }
        filters_seen.extend(filters);
        filters_seen.extend(after("--test"));
        commands += 1;
    }

    assert!(
        commands >= 20,
        "read only {commands} commands out of ci.yml"
    );
    assert!(
        on_one_cpu >= 5,
        "ci.yml runs {on_one_cpu} commands under `taskset -c`"
    );
    // The steps that select property tests, the telemetry suite, the
    // generative path's pins, the deadline and epoll-timeout tests (the
    // stepped ones and the graceful drain's linger among them), the
    // clock-read pin, the one-CPU routing (with the one test skipped
    // where there is no second CPU), the thread pools (stepped ones
    // too), the stepped server, the explorer's determinism and its data
    // plane (the faulted-transfer pin among it), by name.
    for filter in [
        "on_one_cpu",
        "backs_off",
        "poller_refuses",
        "reactor::tests::one_cpu_routes",
        "of_two_ready_events_one_is_queued_first_and_one_is_kept",
        "deadlines_",
        "timer::tests",
        "cluster::tests::half_closed",
        "reactor::tests::stepped_",
        "cluster::tests::stepped_",
        "graceful_drain_waits_for_lingering",
        "panicking_deferred_job",
        "idle_pool",
        "retired_workers",
        "processor::tests",
        "proactor::tests",
        "processor::tests::stepped_",
        "proactor::tests::stepped_",
        "stepped::tests",
        "determinism",
        "data_plane",
        "transfers_on_faulted_connections",
        "transport::tests::epoll_wait_rounds",
        "clock_reads",
        "differential",
        "sanitize_walk",
        "oracle",
        "segmented",
        "reactor::tests",
        "watermark_props",
        "json::tests",
        "telemetry_golden",
        "emitted_bytes",
        "committed_tree",
        "table2_csv",
    ] {
        assert!(filters_seen.contains(&filter), "ci.yml lost `{filter}`");
    }
}
