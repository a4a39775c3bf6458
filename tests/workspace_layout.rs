//! Workspace-layout smoke tests: every figure/table reproduction binary in
//! `crates/bench/src/bin/` must be declared as a `[[bin]]` target in
//! `crates/bench/Cargo.toml`, so that `cargo build --all-targets` and CI
//! actually compile them. Without this, a typo in a target name silently
//! drops a binary from the build and later PRs can break it unnoticed.
//!
//! The source-layout rules ride here too, so each is one mechanism that
//! runs under `cargo test`: who may implement `BlockDevice`, what
//! `ResilientStore` states once, where integers meet bytes, which
//! configuration builders the program calls, which bin and guard schema
//! each committed `BENCH_*.json` belongs to, that every decoder README's
//! formats table names still exists, and where a lock or an atomic may sit.

use std::collections::{BTreeMap, BTreeSet};
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
        "oblivious_baseline",
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

fn rust_files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files_under(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Forwarding a request to the device underneath is written once, in
/// `stegfs_blockdev::Layered`: a wrapper that spells it out again can forget
/// the ranged methods, still compile, and silently turn every ranged request
/// into N scalar ones under the disk model and the attacker's trace. The
/// next observing device or test double is an `IoHook` (or a closure), not
/// an `impl BlockDevice`. `tests/wire_images.rs` keeps its own double so
/// that the pin of the on-disk formats stays an unedited file; `benchmark/`
/// is a package of its own.
#[test]
fn block_device_is_implemented_only_by_stores_the_layer_and_scalar_device() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "examples"] {
        rust_files_under(&root.join(dir), &mut files);
    }
    let mut implementors = BTreeSet::new();
    for file in files {
        let source = std::fs::read_to_string(&file).unwrap();
        for line in source.lines().map(str::trim_start) {
            if !line.starts_with("impl") {
                continue;
            }
            if let Some((_, implementor)) = line.split_once("BlockDevice for ") {
                let implementor = implementor.trim_end_matches(['{', ' ']);
                let file = file.strip_prefix(root).unwrap().display();
                implementors.insert(format!("{implementor} ({file})"));
            }
        }
    }
    let expected: BTreeSet<String> = [
        "&T (crates/blockdev/src/device.rs)",
        "FileDevice (crates/blockdev/src/file.rs)",
        "Layered<D, H> (crates/blockdev/src/layered.rs)",
        "MemDevice (crates/blockdev/src/mem.rs)",
        "ScalarDevice<D> (crates/blockdev/src/device.rs)",
        "std::sync::Arc<T> (crates/blockdev/src/device.rs)",
    ]
    .map(String::from)
    .into();
    assert_eq!(
        implementors, expected,
        "write the new device as a hook on `stegfs_blockdev::Layered`"
    );
}

/// The non-test lines of a source file: everything before the file's
/// `#[cfg(test)]`, and nothing of a `tests.rs` (a test-only module declared
/// `#[cfg(test)]` by its parent).
fn production_lines(file: &Path) -> Vec<String> {
    if file.file_name().is_some_and(|name| name == "tests.rs") {
        return Vec::new();
    }
    let source = std::fs::read_to_string(file).unwrap();
    source
        .lines()
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
        .map(String::from)
        .collect()
}

/// `ResilientStore` states each repeated decision once. Erase-and-reconstruct
/// lives in the stripe view (`store/repair.rs`), so a second caller of the
/// codec's `reconstruct` is a second copy of "which shards are trusted";
/// what cover traffic may overwrite is the block map's call, so a `reserved`
/// set kept beside it is a list that can (and did) fall out of date; and the
/// store stays a module of files one concern long.
#[test]
fn resilient_store_states_each_decision_once() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/resilience/src");
    let mut files = Vec::new();
    rust_files_under(&src, &mut files);
    assert!(
        files.iter().any(|f| f.ends_with("store/repair.rs")),
        "the store is a module split by concern"
    );

    let mut reconstruct_calls = Vec::new();
    for file in &files {
        let lines = production_lines(file);
        let name = file.strip_prefix(&src).unwrap().display().to_string();
        for line in lines.iter().filter(|l| !l.trim_start().starts_with("//")) {
            if line.contains(".reconstruct(") {
                reconstruct_calls.push(name.clone());
            }
            let mentions_reserved_set = ["reserved:", ".reserved", "let reserved", "reserved ="]
                .iter()
                .any(|spelling| line.contains(spelling));
            assert!(
                !mentions_reserved_set,
                "{name}: `{}` — what is claimed is the block map's to know, not a set beside it",
                line.trim()
            );
        }
        if name.starts_with("store/") {
            assert!(
                lines.len() < 700,
                "{name} has {} lines of non-test code; split it by concern",
                lines.len()
            );
        }
    }
    assert_eq!(
        reconstruct_calls,
        ["store/repair.rs"],
        "erase-and-reconstruct is written once, in the stripe view"
    );
}

/// `stegfs_resilience` follows the crypto crate's `unsafe` policy: denied
/// crate-wide, allowed on one leaf module — the AVX2 multiply-accumulate
/// kernel — whose every block says why it is sound. A second file that needs
/// `unsafe` is a second place to audit; it goes through this list first.
#[test]
fn resilience_keeps_unsafe_in_the_one_kernel_file() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/resilience/src");
    let mut files = Vec::new();
    rust_files_under(&src, &mut files);
    let (mut holders, mut allows) = (BTreeSet::new(), Vec::new());
    for file in &files {
        let name = file.strip_prefix(&src).unwrap().display().to_string();
        let source = std::fs::read_to_string(file).unwrap();
        let lines: Vec<&str> = source.lines().map(str::trim_start).collect();
        for (at, line) in lines.iter().enumerate() {
            if line.starts_with("//") {
                continue;
            }
            if line.contains("allow(unsafe_code)") {
                allows.push((name.clone(), lines[at + 1].to_string()));
            }
            let uses = ["unsafe {", "unsafe fn", "unsafe impl", "unsafe extern"];
            if !uses.iter().any(|spelling| line.contains(spelling)) {
                continue;
            }
            holders.insert(name.clone());
            if line.contains("unsafe {") {
                let justified = lines[at.saturating_sub(4)..at]
                    .iter()
                    .any(|above| above.starts_with("// SAFETY:"));
                assert!(justified, "{name}:{}: no `// SAFETY:` above", at + 1);
            }
        }
    }
    assert_eq!(holders, BTreeSet::from(["gf256/avx2.rs".to_string()]));
    assert_eq!(
        allows,
        [("gf256.rs".to_string(), "mod avx2;".to_string())],
        "`#[allow(unsafe_code)]` sits on the kernel module alone"
    );
    let crate_doc = std::fs::read_to_string(src.join("lib.rs")).unwrap();
    assert!(crate_doc.contains("#![deny(unsafe_code)]"));
    assert!(
        crate_doc.contains("`unsafe` is denied crate-wide and allowed in exactly one leaf module"),
        "the crate doc states the policy"
    );
}

/// Byte order and bounds live in `stegfs_base::wire` only: every on-disk
/// codec of the three storage crates goes through it. Outside it, non-test
/// source may not convert integers to or from bytes by hand, except in the
/// files listed here with the reason the use is not a format;
/// `try_into().unwrap()` is allowed nowhere.
#[test]
fn byte_order_and_bounds_live_in_the_wire_layer_only() {
    const NOT_A_FORMAT: [(&str, &str); 4] = [
        ("crates/stegfs/src/wire.rs", "the wire layer itself"),
        (
            "crates/stegfs/src/fs.rs",
            "format-time DRBG seed and fill counter",
        ),
        (
            "crates/resilience/src/stripe.rs",
            "lanes of the keyed fast hash",
        ),
        (
            "crates/oblivious/src/det.rs",
            "lanes of the deterministic hasher",
        ),
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["stegfs", "resilience", "oblivious"] {
        rust_files_under(&root.join("crates").join(dir).join("src"), &mut files);
    }
    let mut found = Vec::new();
    for file in files {
        let name = file.strip_prefix(root).unwrap().display().to_string();
        let mut banned = vec!["try_into().unwrap()"];
        if !NOT_A_FORMAT.iter().any(|(allowed, _)| *allowed == name) {
            banned.extend(["from_le_bytes", "to_le_bytes"]);
        }
        for (at, line) in production_lines(&file).iter().enumerate() {
            if banned.iter().any(|pattern| line.contains(pattern)) {
                found.push(format!("{name}:{}: {}", at + 1, line.trim()));
            }
        }
    }
    assert!(
        found.is_empty(),
        "integers go to and from bytes through `stegfs_base::wire`:\n{}",
        found.join("\n")
    );
}

/// Production `.unwrap()` / `.expect(` sites in the library crates and the
/// root crate, by a lines-before-`#[cfg(test)]` count (comment lines
/// skipped). The bench crate — the figure bins and the harness they share,
/// where a failed setup is a panic by design — is not counted. Each site
/// left is a panic on a condition the code above it rules out, stated there
/// as an `// Invariant:` or in the `expect` message; a failure correct use
/// can meet is a typed error. The ratchet may come down, never up.
const PRODUCTION_PANIC_SITES: usize = 14;

#[test]
fn production_unwrap_and_expect_sites_do_not_grow() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files_under(&root.join("src"), &mut files);
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        let krate = entry.unwrap().path();
        if krate != bench_crate_dir() {
            rust_files_under(&krate.join("src"), &mut files);
        }
    }
    let mut sites = Vec::new();
    for file in &files {
        let name = file.strip_prefix(root).unwrap().display().to_string();
        for (at, line) in production_lines(file).iter().enumerate() {
            if line.trim_start().starts_with("//") {
                continue;
            }
            for _ in 0..line.matches(".unwrap()").count() + line.matches(".expect(").count() {
                sites.push(format!("{name}:{}: {}", at + 1, line.trim()));
            }
        }
    }
    assert!(
        sites.len() <= PRODUCTION_PANIC_SITES,
        "{} production unwrap/expect sites, past the ratchet of {PRODUCTION_PANIC_SITES}: \
         return a typed error or state the invariant, don't add a site\n{}",
        sites.len(),
        sites.join("\n")
    );
}

/// Every lock, atomic and spin-yield in the production code of the storage
/// crates, per file and type, with why it stays. Each tier serves one call
/// at a time, so shared state earns its place only where a caller shares
/// the object by `&`: `benchmark/`'s `Sut` is `Send + Sync` and shares the
/// agents, the oblivious store and the durable store that way (ROADMAP item
/// 20), and the format fill seals on worker threads. An object no caller
/// shares takes `&mut self` instead.
const SHARED_STATE_SITES: [(&str, &str, usize, &str); 12] = [
    (
        "crates/core/src/engine.rs",
        "Mutex",
        3,
        "the engine's one lock: `Sut` shares both agents by `&`",
    ),
    (
        "crates/core/src/engine.rs",
        "MutexGuard",
        2,
        "the guard a locked call holds: `Sut` shares both agents by `&`",
    ),
    (
        "crates/oblivious/src/store.rs",
        "Mutex",
        3,
        "the oblivious store's one lock: `Sut` shares the store by `&`",
    ),
    (
        "crates/resilience/src/journal.rs",
        "AtomicU64",
        3,
        "the op counter, beside the durable store's lock until item 6",
    ),
    (
        "crates/resilience/src/store/cover.rs",
        "AtomicUsize",
        3,
        "the scrub cursor's position: `Sut` advances its cursor by `&`",
    ),
    (
        "crates/resilience/src/store/mod.rs",
        "Mutex",
        3,
        "the durable store's one lock: `Sut` shares the store by `&`",
    ),
    (
        "crates/stegfs/src/blockmap.rs",
        "AtomicU64",
        3,
        "class counts of the map the agents and the durable store claim from by `&`",
    ),
    (
        "crates/stegfs/src/blockmap.rs",
        "AtomicU8",
        4,
        "block classes the agents and the durable store claim by `&`",
    ),
    (
        "crates/stegfs/src/fs.rs",
        "AtomicBool",
        3,
        "the format fill's worker pool: its stop flag",
    ),
    (
        "crates/stegfs/src/fs.rs",
        "AtomicUsize",
        3,
        "the format fill's worker pool: its next and written cursors",
    ),
    (
        "crates/stegfs/src/fs.rs",
        "Mutex",
        5,
        "the volume DRBG the shared fronts draw from by `&`, \
         and the format fill's spare buffers",
    ),
    (
        "crates/stegfs/src/fs.rs",
        "yield_now",
        2,
        "the format fill's worker pool waits for its sealer",
    ),
];

/// The words of `line` that name shared state: a `Mutex*`, `RwLock*` or
/// `Atomic*` type, or a `yield_now` spin.
fn shared_state_words(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|word| {
            word.starts_with("Mutex")
                || word.starts_with("RwLock")
                || *word == "yield_now"
                || word
                    .strip_prefix("Atomic")
                    .is_some_and(|rest| rest.starts_with(|c: char| c.is_ascii_uppercase()))
        })
}

#[test]
fn locks_and_atomics_sit_only_where_a_caller_shares_the_object() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = BTreeMap::new();
    let mut sites = Vec::new();
    for krate in ["stegfs", "core", "oblivious", "resilience", "baselines"] {
        let mut files = Vec::new();
        rust_files_under(&root.join("crates").join(krate).join("src"), &mut files);
        for file in &files {
            let name = file.strip_prefix(root).unwrap().display().to_string();
            for (at, line) in production_lines(file).iter().enumerate() {
                if line.trim_start().starts_with("//") {
                    continue;
                }
                for word in shared_state_words(line) {
                    *found.entry((name.clone(), word.to_string())).or_insert(0) += 1;
                    sites.push(format!("{name}:{}: {}", at + 1, line.trim()));
                }
            }
        }
    }
    let listed: BTreeMap<(String, String), usize> = SHARED_STATE_SITES
        .iter()
        .map(|&(file, word, count, _)| ((file.to_string(), word.to_string()), count))
        .collect();
    assert_eq!(
        found,
        listed,
        "shared state moved: an object no caller shares takes `&mut self`; \
         list a new site with why it stays, and drop a site that went\n{}",
        sites.join("\n")
    );
}

/// An option stays only while the program sets it: every `pub fn with_*` /
/// `without_*` of an `impl …Config` block needs a `.name(` call in another
/// file's production lines under `crates/*/src` (the bench bins included),
/// in `examples/` or in `benchmark/src/`. A builder that only its own tests
/// call selects a branch no bin, example or workload runs.
#[test]
fn every_config_builder_has_a_caller_outside_tests() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        rust_files_under(&entry.unwrap().path().join("src"), &mut sources);
    }
    let mut callers = sources.clone();
    for dir in ["examples", "benchmark/src"] {
        rust_files_under(&root.join(dir), &mut callers);
    }
    let callers: Vec<(PathBuf, String)> = callers
        .into_iter()
        .map(|file| {
            let lines = production_lines(&file).join("\n");
            (file, lines)
        })
        .collect();

    let mut uncalled = Vec::new();
    for file in &sources {
        let mut config: Option<String> = None;
        for line in production_lines(file) {
            if line.starts_with("impl") {
                let header = line.trim_end_matches(['{', ' ']);
                let ty = header.rsplit(' ').next().unwrap_or_default();
                let ty = ty.split('<').next().unwrap_or_default();
                config = ty.ends_with("Config").then(|| ty.to_string());
                continue;
            }
            if line.starts_with('}') {
                config = None;
            }
            let Some(ty) = &config else { continue };
            let Some(signature) = line.trim_start().strip_prefix("pub fn ") else {
                continue;
            };
            let name = signature.split(['(', '<']).next().unwrap_or_default();
            if !(name.starts_with("with_") || name.starts_with("without_")) {
                continue;
            }
            let call = format!(".{name}(");
            if !callers
                .iter()
                .any(|(caller, lines)| caller != file && lines.contains(&call))
            {
                let file = file.strip_prefix(root).unwrap().display();
                uncalled.push(format!("{ty}::{name} ({file})"));
            }
        }
    }
    assert!(
        uncalled.is_empty(),
        "configuration builders nothing outside tests calls; delete the option:\n{}",
        uncalled.join("\n")
    );
}

/// The quoted `BENCH_*.json` file names in `source`.
fn report_names(source: &str) -> BTreeSet<String> {
    source
        .split('"')
        .filter(|token| token.starts_with("BENCH_") && token.ends_with(".json"))
        .map(String::from)
        .collect()
}

/// One home per number: each committed `BENCH_*.json` is written by exactly
/// one bin and checked by exactly one `bench_guard.py` schema, and every
/// writing bin and every schema has its committed report — a report whose
/// bin is gone, or a schema no report carries, is a number nobody can
/// regenerate or a guard that guards nothing.
#[test]
fn every_bench_report_has_one_writer_and_one_guard() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut reports = Vec::new();
    let mut report_schemas = Vec::new();
    for entry in std::fs::read_dir(root).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let report = std::fs::read_to_string(root.join(&name)).unwrap();
        let schema = report
            .split_once("\"schema\": \"")
            .and_then(|(_, rest)| rest.split_once('"'))
            .unwrap_or_else(|| panic!("{name} has no schema"))
            .0;
        report_schemas.push(schema.to_string());
        reports.push(name);
    }
    reports.sort();

    let mut written = Vec::new();
    let mut bins = Vec::new();
    rust_files_under(&bench_crate_dir().join("src/bin"), &mut bins);
    for bin in bins {
        written.extend(report_names(&std::fs::read_to_string(bin).unwrap()));
    }
    written.sort();
    assert_eq!(
        written, reports,
        "reports the bins write (left) against the reports committed at the root (right)"
    );

    let guard = std::fs::read_to_string(root.join(".github/scripts/bench_guard.py")).unwrap();
    let mut guarded: Vec<String> = guard
        .lines()
        .filter_map(|line| line.strip_prefix("    \"")?.strip_suffix("\": {"))
        .map(String::from)
        .collect();
    guarded.sort();
    report_schemas.sort();
    assert_eq!(
        guarded, report_schemas,
        "schemas in bench_guard.py SPECS (left) against the committed reports' (right)"
    );
}

/// The `Type::fn` and `module::fn` names in the first column of README's
/// *On-disk formats* table.
fn format_table_decoders(readme: &str) -> Vec<String> {
    let (_, section) = readme
        .split_once("\n## On-disk formats\n")
        .expect("README has an On-disk formats section");
    let section = section.split("\n## ").next().unwrap_or_default();
    let is_ident = |segment: &str| {
        segment.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
            && segment
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_')
    };
    section
        .lines()
        .filter_map(|line| line.strip_prefix('|')?.split('|').next())
        .flat_map(|first_cell| first_cell.split('`').skip(1).step_by(2))
        .filter(|span| span.contains("::") && span.split("::").all(is_ident))
        .map(String::from)
        .collect()
}

/// The type an `impl` header implements (`impl<T> Trait for Type<T> {` →
/// `Type`), or `None` for a line that is not one.
fn implemented_type(header: &str) -> Option<&str> {
    let mut rest = header.strip_prefix("impl")?;
    if rest.starts_with('<') {
        let (mut depth, mut previous) = (0, ' ');
        for (at, c) in rest.char_indices() {
            match c {
                '<' => depth += 1,
                '>' if previous != '-' => {
                    depth -= 1;
                    if depth == 0 {
                        rest = &rest[at + 1..];
                        break;
                    }
                }
                _ => {}
            }
            previous = c;
        }
    } else if !rest.starts_with(' ') {
        return None;
    }
    let implemented = rest.rsplit(" for ").next()?.trim_start();
    let path = implemented.split(['<', ' ', '{']).next()?;
    path.rsplit("::").next()
}

/// Whether `line`, trimmed, declares `fn name`.
fn declares_fn(line: &str, name: &str) -> bool {
    let mut rest = line.trim_start();
    while let Some(next) = ["pub(crate) ", "pub(super) ", "pub ", "const ", "unsafe "]
        .iter()
        .find_map(|prefix| rest.strip_prefix(prefix))
    {
        rest = next;
    }
    rest.strip_prefix("fn ")
        .and_then(|rest| rest.strip_prefix(name))
        .is_some_and(|rest| rest.starts_with(['(', '<']))
}

/// Whether the production lines of `sources` (path, lines) define `path`: a
/// `Type::fn` as a `fn` of an `impl` block of that type, a `module::fn` as a
/// top-level `fn` of that module's file.
fn defines(sources: &[(PathBuf, Vec<String>)], path: &str) -> bool {
    let (qualifier, name) = path.rsplit_once("::").unwrap();
    let last = qualifier.rsplit("::").next().unwrap();
    if last.starts_with(|c: char| c.is_ascii_uppercase()) {
        sources.iter().any(|(_, lines)| {
            let mut in_impl = false;
            lines.iter().any(|line| {
                if line.starts_with("impl") {
                    in_impl = implemented_type(line) == Some(last);
                } else if line.starts_with('}') {
                    in_impl = false;
                }
                in_impl && declares_fn(line, name)
            })
        })
    } else {
        let module = qualifier.replace("::", "/");
        let files = [format!("/src/{module}.rs"), format!("/src/{module}/mod.rs")];
        sources.iter().any(|(file, lines)| {
            let file = file.to_string_lossy();
            files.iter().any(|suffix| file.ends_with(suffix.as_str()))
                && lines
                    .iter()
                    .any(|line| !line.starts_with(' ') && declares_fn(line, name))
        })
    }
}

/// README's *On-disk formats* table lists every decoder that parses bytes
/// an attacker can write. A row whose decoder is gone describes a format the
/// program no longer has: every `Type::fn` or `module::fn` of its first
/// column must be a `fn` of that type's `impl` or of that module, in the
/// production lines of `crates/*/src`. The type matters: a `Level::lookup`
/// does not keep a `HashIndexRegion::lookup` row alive.
#[test]
fn every_decoder_the_formats_table_names_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        rust_files_under(&entry.unwrap().path().join("src"), &mut files);
    }
    let sources: Vec<(PathBuf, Vec<String>)> = files
        .into_iter()
        .map(|file| {
            let lines = production_lines(&file);
            (file, lines)
        })
        .collect();

    // The resolver itself: a type's method, a module's function, and
    // neither under the other's name.
    assert!(defines(&sources, "SortRecord::view"));
    assert!(defines(&sources, "level::decode_item"));
    assert!(!defines(&sources, "SortRecord::decode_item"));
    assert!(!defines(&sources, "level::view"));

    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    let decoders = format_table_decoders(&readme);
    assert!(
        decoders.len() >= 10,
        "only {} decoders found in the formats table: {decoders:?}",
        decoders.len()
    );
    let missing: Vec<&String> = decoders
        .iter()
        .filter(|path| !defines(&sources, path))
        .collect();
    assert!(
        missing.is_empty(),
        "README's On-disk formats table names decoders the source does not define: {missing:?}"
    );
}
