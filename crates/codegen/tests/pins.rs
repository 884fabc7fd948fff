//! What the template emits, pinned: the bytes of every file under a
//! spread of option sets (as a digest), the committed expansion under
//! `generated/cops-http/`, and Table 2 as printed in
//! `results/table2_crosscut.csv`. An edit to template text shows up here
//! as a reviewed diff of a fixture, a generated file or a table cell.

mod common;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use nserver_cache::PolicyKind;
use nserver_codegen::crosscut::Mark;
use nserver_codegen::{generate, CrosscutMatrix, OptionId};
use nserver_core::options::{
    DispatcherThreads, EventScheduling, FileCacheOption, OverloadControl, ServerOptions,
    StageDeadlines,
};
use nserver_ftp::cops_ftp_options;
use nserver_http::{cops_http_options, cops_http_scheduling_options};

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The spread of `table2_from_template.rs`, the three presets, and two
/// sets with the values neither has.
fn digested_option_sets() -> Vec<ServerOptions> {
    let mut sets: Vec<ServerOptions> = common::valid_picks().into_iter().map(|(_, o)| o).collect();
    sets.push(cops_http_options());
    sets.push(cops_http_scheduling_options(1, 10));
    sets.push(cops_ftp_options());
    sets.push(ServerOptions {
        dispatcher_threads: DispatcherThreads::Multi(3),
        file_cache: FileCacheOption::Yes {
            policy: PolicyKind::LruThreshold {
                max_size_permille: 250,
            },
            capacity_bytes: 1 << 20,
        },
        event_scheduling: EventScheduling::Yes {
            quotas: vec![8, 2, 1],
        },
        stage_deadlines: StageDeadlines {
            header_read_ms: Some(750),
            write_drain_ms: Some(2_000),
        },
        ..ServerOptions::default()
    });
    sets.push(ServerOptions {
        file_cache: FileCacheOption::Yes {
            policy: PolicyKind::Lfu,
            capacity_bytes: 4096,
        },
        overload_control: OverloadControl::MaxConnections { limit: 64 },
        ..ServerOptions::default()
    });
    sets
}

/// One line per emitted path: FNV-1a-64 chained over the file's text
/// under each option set where the file exists, and how many those were.
fn digest() -> String {
    let mut files: BTreeMap<String, (u64, u32)> = BTreeMap::new();
    for opts in digested_option_sets() {
        for f in generate("digest", &opts, "../../crates").files {
            let (hash, sets) = files.entry(f.path).or_insert((0xcbf2_9ce4_8422_2325, 0));
            // 0xff ends a text: no UTF-8 text contains it.
            for byte in f.content.bytes().chain([0xff]) {
                *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            *sets += 1;
        }
    }
    let line =
        |(path, (hash, sets)): (&String, &(u64, u32))| format!("{path} {hash:016x} {sets}\n");
    files.iter().map(line).collect()
}

#[test]
fn emitted_bytes_match_the_digest() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/emitted.digest");
    let want = std::fs::read_to_string(&fixture).expect("tests/fixtures/emitted.digest");
    let got = digest();
    let moved: Vec<&str> = got.lines().filter(|l| !want.contains(l)).collect();
    assert!(
        got == want,
        "emitted text moved (tests/fixtures/README.md says how the fixture is rewritten): {moved:#?}"
    );
}

/// Every file below `dir`, by path relative to it.
fn tree(dir: &Path, prefix: &str, into: &mut BTreeMap<String, String>) {
    for entry in std::fs::read_dir(dir).expect("generated tree") {
        let entry = entry.expect("entry");
        let name = entry.file_name().into_string().expect("utf-8 name");
        // What a build of the generated crate leaves behind (.gitignore).
        if prefix.is_empty() && (name == "target" || name == "Cargo.lock") {
            continue;
        }
        let path = format!("{prefix}{name}");
        if entry.file_type().expect("file type").is_dir() {
            tree(&entry.path(), &format!("{path}/"), into);
        } else {
            let text = std::fs::read_to_string(entry.path()).expect("generated file");
            into.insert(path, text);
        }
    }
}

#[test]
fn committed_tree_is_what_generate_returns() {
    let mut committed = BTreeMap::new();
    tree(&repo().join("generated/cops-http"), "", &mut committed);
    let fw = generate("cops-http-generated", &cops_http_options(), "../../crates");
    let generated: BTreeMap<String, String> =
        fw.files.into_iter().map(|f| (f.path, f.content)).collect();
    assert_eq!(
        committed.keys().collect::<Vec<_>>(),
        generated.keys().collect::<Vec<_>>(),
        "generated/cops-http/ holds another file set: rerun generate_framework, delete stale files"
    );
    for (path, text) in &generated {
        assert!(
            committed[path] == *text,
            "generated/cops-http/{path} is stale: rerun generate_framework"
        );
    }
}

#[test]
fn table2_csv_is_the_matrix() {
    let csv = std::fs::read_to_string(repo().join("results/table2_crosscut.csv"))
        .expect("results/table2_crosscut.csv");
    let mut rows = csv.lines();
    let labels: Vec<&str> = OptionId::ALL.iter().map(|o| o.label()).collect();
    assert_eq!(
        rows.next(),
        Some(format!("class,{}", labels.join(",")).as_str())
    );

    let m = CrosscutMatrix::build();
    let mut moved = Vec::new();
    for (name, marks) in m.classes.iter().zip(&m.cells) {
        let row = rows
            .next()
            .unwrap_or_else(|| panic!("no csv row for {name}"));
        let cells: Vec<&str> = row.split(',').collect();
        assert_eq!(cells[0], *name, "row order");
        assert_eq!(cells.len(), 13, "{name}: cells");
        for ((mark, printed), label) in marks.iter().zip(&cells[1..]).zip(&labels) {
            let derived = match mark {
                Mark::Gates => "O",
                Mark::Affects => "+",
                Mark::None => "",
            };
            if derived != *printed {
                moved.push(format!(
                    "{name} x {label}: printed `{printed}`, the template has `{derived}`"
                ));
            }
        }
    }
    assert_eq!(rows.next(), None, "a csv row with no class");
    assert!(
        moved.is_empty(),
        "Table 2 moved; rerun table2_crosscut and review the diff: {moved:#?}"
    );
}
