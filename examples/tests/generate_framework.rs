//! `generate_framework <outdir>` writes a crate that resolves from
//! wherever `outdir` is.

use std::process::Command;

#[test]
fn a_crate_generated_elsewhere_resolves_its_dependencies() {
    let dir = std::env::temp_dir().join(format!("nserver-genout-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let generated = Command::new(env!("CARGO_BIN_EXE_generate_framework"))
        .arg(&dir)
        .output()
        .expect("run generate_framework");
    assert!(generated.status.success());

    // Resolution reads the manifests of `nserver-core` and `nserver-cache`
    // at the paths the generated manifest gives.
    let metadata = Command::new("cargo")
        .args(["metadata", "--offline", "--format-version", "1"])
        .arg("--manifest-path")
        .arg(dir.join("Cargo.toml"))
        .output()
        .expect("spawn cargo");
    assert!(
        metadata.status.success(),
        "the generated crate does not resolve:\n{}",
        String::from_utf8_lossy(&metadata.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
