//! The generative path: expand the N-Server pattern template into a
//! standalone framework crate, exactly as CO₂P₃S generated Java from its
//! design pattern templates.
//!
//! Generates the COPS-HTTP configuration into `generated/cops-http/`
//! (pass a different directory as the first argument) and prints the
//! emitted file list with code metrics. Note how the option settings
//! decide *which classes exist*: regenerate with a different
//! configuration and modules appear or vanish per Table 2's `O` column.
//!
//! Run: `cargo run -p nserver-examples --bin generate_framework [outdir]`

use nserver_codegen::{count_source, generate};
use nserver_http::cops_http_options;

fn main() {
    // The generated Cargo.toml points back at this workspace's crates:
    // relatively from the committed location (so that tree's bytes do not
    // depend on where the repo is checked out), absolutely from anywhere
    // else.
    let (out, crates) = match std::env::args().nth(1) {
        Some(out) => (out, concat!(env!("CARGO_MANIFEST_DIR"), "/../crates")),
        None => ("generated/cops-http".to_string(), "../../crates"),
    };
    let fw = generate("cops-http-generated", &cops_http_options(), crates);

    println!("generating COPS-HTTP framework into {out}/\n");
    let mut total_ncss = 0;
    for f in &fw.files {
        let stats = count_source(&f.content);
        total_ncss += stats.ncss;
        println!(
            "  {:<44} {:>4} NCSS  {:>2} types  {:>2} fns",
            f.path, stats.ncss, stats.classes, stats.methods
        );
    }
    let gen = fw.generated_stats();
    let hooks = fw.hook_stats();
    println!(
        "\ngenerated framework: {} NCSS, {} types, {} methods",
        gen.ncss, gen.classes, gen.methods
    );
    println!(
        "programmer-owned hook stubs: {} NCSS ({}% of the total {total_ncss})",
        hooks.ncss,
        hooks.ncss * 100 / total_ncss.max(1)
    );

    let dir = std::path::Path::new(&out);
    fw.write_to(dir).expect("write generated crate");
    println!("\nwrote {} files under {out}/", fw.files.len());
    println!("build it with: cargo build --manifest-path {out}/Cargo.toml");
}
