//! Workspace-layout smoke tests: every figure/table reproduction binary in
//! `crates/bench/src/bin/` must be declared as a `[[bin]]` target in
//! `crates/bench/Cargo.toml`, so that `cargo build --all-targets` and CI
//! actually compile them. Without this, a typo in a target name silently
//! drops a binary from the build and later PRs can break it unnoticed.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn bench_crate_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench")
}

fn rust_file_stems(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
        .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
        .collect()
}

/// Extracts the `name = "..."` values of every `[[section]]` block in the
/// bench crate manifest. A full TOML parser is overkill for the flat layout
/// cargo manifests use.
fn declared_targets(manifest: &str, section: &str) -> BTreeSet<String> {
    let header = format!("[[{section}]]");
    let mut targets = BTreeSet::new();
    let mut in_section = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_section = line == header;
            continue;
        }
        if in_section {
            if let Some(value) = line.strip_prefix("name") {
                let name = value
                    .trim_start_matches([' ', '='])
                    .trim()
                    .trim_matches('"');
                targets.insert(name.to_string());
            }
        }
    }
    targets
}

#[test]
fn every_bench_bin_is_a_declared_target() {
    let dir = bench_crate_dir();
    let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap();
    let on_disk = rust_file_stems(&dir.join("src/bin"));
    let declared = declared_targets(&manifest, "bin");

    let undeclared: Vec<_> = on_disk.difference(&declared).collect();
    assert!(
        undeclared.is_empty(),
        "bench bins on disk but missing a [[bin]] entry in crates/bench/Cargo.toml: {undeclared:?}"
    );
    let missing: Vec<_> = declared.difference(&on_disk).collect();
    assert!(
        missing.is_empty(),
        "[[bin]] entries in crates/bench/Cargo.toml with no matching src/bin file: {missing:?}"
    );
}

#[test]
fn expected_figure_and_table_bins_exist() {
    let on_disk = rust_file_stems(&bench_crate_dir().join("src/bin"));
    for required in [
        "fig10a",
        "fig10b",
        "fig11a",
        "fig11b",
        "fig11c",
        "fig12a",
        "fig12b",
        "table4",
        "security_analysis",
        "overhead_model",
        "crypto_baseline",
        "oblivious_baseline",
        "concurrent_baseline",
        "resilience_baseline",
        "recovery_baseline",
        "scale_baseline",
    ] {
        assert!(
            on_disk.contains(required),
            "expected reproduction binary crates/bench/src/bin/{required}.rs is missing"
        );
    }
}
