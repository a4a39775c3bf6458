//! The metric tables: the single source of the names, units, directions and
//! bounds in `BENCHMARK.json` (a test holds the committed file to them).

use crate::stats::Json;
use crate::workloads::WORKLOADS;

/// Seconds one run measures; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u64 = 15;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// What a user of the volume sees. Every workload reports every one.
///
/// Six of the issue's twelve. `failed_frac` is the result line's `failed` /
/// `attempted` (a metric here may never be 0). The two-client rate and the
/// four latency percentiles belong here by meaning but are listed at the head
/// of [`PER_LAYER`], where a metric carries no bound: on the shared two-core
/// VM this was built on, whose speed drifts by a quarter over tens of minutes
/// and by a tenth within one, ten back-to-back runs of one binary spread
/// (interquartile over median) by 11-30% on them however they were
/// summarised. `ops_per_s` spread by 2-7%; its bound is as wide as the
/// contract allows because the drift moves the median of ten runs that far.
pub const END_TO_END: [EndToEnd; 6] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    // Counted on the simulated disk: exact for a seed, so the bound only has
    // to cover the seed-to-seed spread of the generated operations (widest
    // for `write_amp`, whose denominator is the few writes of a read mix).
    e2e("device_ios_per_op", "count", "lower", 0.05),
    e2e("write_amp", "count", "lower", 0.10),
    e2e("sim_ms_per_op", "ms", "lower", 0.05),
    e2e("peak_rss_mb", "MB", "lower", 0.10),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Single-layer numbers. A layer the workload does not cross reports 0.
pub const PER_LAYER: [PerLayer; 66] = [
    layer("ops_per_s_2c", "1/s", "higher"),
    layer("read_p50_us", "us", "lower"),
    layer("read_p99_us", "us", "lower"),
    layer("update_p50_us", "us", "lower"),
    layer("update_p99_us", "us", "lower"),
    layer("blockdev.read_calls_per_op", "count", "lower"),
    layer("blockdev.write_calls_per_op", "count", "lower"),
    layer("blockdev.blocks_read_per_op", "count", "lower"),
    layer("blockdev.blocks_written_per_op", "count", "lower"),
    layer("blockdev.ranged_block_frac", "frac", "higher"),
    layer("blockdev.busy_us_per_op", "us", "lower"),
    layer("blockdev.sim_seq_frac", "frac", "higher"),
    layer("blockdev.mem_copy_mb_s", "MB/s", "higher"),
    layer("crypto.cbc_encrypt_mb_s", "MB/s", "higher"),
    layer("crypto.cbc_decrypt_mb_s", "MB/s", "higher"),
    layer("crypto.hmac_mb_s", "MB/s", "higher"),
    layer("crypto.sha256_mb_s", "MB/s", "higher"),
    layer("crypto.derive_u64_ops_s", "1/s", "higher"),
    layer("crypto.drbg_mb_s", "MB/s", "higher"),
    layer("stegfs.seal_us", "us", "lower"),
    layer("stegfs.open_us", "us", "lower"),
    layer("stegfs.reseal_us", "us", "lower"),
    layer("stegfs.read_block_us", "us", "lower"),
    layer("stegfs.write_block_us", "us", "lower"),
    layer("stegfs.read_file_mb_s", "MB/s", "higher"),
    layer("stegfs.map_claim_ns", "ns", "lower"),
    layer("core.read_span_us", "us", "lower"),
    layer("core.update_span_us", "us", "lower"),
    layer("core.dummy_span_us_per_block", "us", "lower"),
    layer("core.above_device_us_per_op", "us", "lower"),
    layer("core.iterations_per_update", "count", "lower"),
    layer("core.model_iterations_per_update", "count", "lower"),
    layer("core.relocation_frac", "frac", "higher"),
    layer("core.in_place_frac", "frac", "lower"),
    layer("core.dummy_reseals_per_update", "count", "lower"),
    layer("core.scaling_2c", "x", "higher"),
    layer("core.flush_ms", "ms", "lower"),
    layer("oblivious.read_span_us", "us", "lower"),
    layer("oblivious.write_span_us", "us", "lower"),
    layer("oblivious.above_device_us_per_op", "us", "lower"),
    layer("oblivious.retrieve_ios_per_read", "count", "lower"),
    layer("oblivious.sort_ios_per_read", "count", "lower"),
    layer("oblivious.model_retrieve_ios", "count", "lower"),
    layer("oblivious.model_sort_ios", "count", "lower"),
    layer("oblivious.buffer_hit_frac", "frac", "higher"),
    layer("oblivious.reorders", "count", "lower"),
    layer("oblivious.reorder_stall_ms_mean", "ms", "lower"),
    layer("oblivious.reorder_stall_ms_max", "ms", "lower"),
    layer("oblivious.sort_time_frac", "frac", "lower"),
    layer("oblivious.scaling_2c", "x", "higher"),
    layer("resilience.write_block_span_us", "us", "lower"),
    layer("resilience.write_file_span_us", "us", "lower"),
    layer("resilience.read_file_span_us", "us", "lower"),
    layer("resilience.dummy_span_us_per_block", "us", "lower"),
    layer("resilience.above_device_us_per_op", "us", "lower"),
    layer("resilience.journal_writes_per_update", "count", "lower"),
    layer("resilience.other_writes_per_update", "count", "lower"),
    layer("resilience.reads_per_update", "count", "lower"),
    layer("resilience.encode_mb_s", "MB/s", "higher"),
    layer("resilience.apply_delta_mb_s", "MB/s", "higher"),
    layer("resilience.reconstruct_mb_s", "MB/s", "higher"),
    layer("resilience.open_ms", "ms", "lower"),
    layer("resilience.scrub_mb_s", "MB/s", "higher"),
    layer("resilience.scaling_2c", "x", "higher"),
    layer("workload.gen_ns_per_op", "ns", "lower"),
    layer("trace.overhead_frac", "frac", "lower"),
];

/// The contents of the root `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--quiet",
                "--release",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for (i, name) in names.iter().enumerate() {
            assert!(well_formed(name, 64, "_.-"), "{name}");
            assert!(
                name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{name}"
            );
            assert!(!names[..i].contains(name), "{name} used twice");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(well_formed(unit, 16, "_/%.-"), "{unit}");
        }
        let betters = END_TO_END
            .iter()
            .map(|m| m.better)
            .chain(PER_LAYER.iter().map(|m| m.better));
        for better in betters {
            assert!(better == "lower" || better == "higher");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn every_direct_measurement_is_a_listed_per_layer_metric() {
        // Units and the output order come from the table, so a name missing
        // from it would be dropped without a word.
        let direct = crate::adapters::direct_layer_metrics(std::time::Duration::from_millis(1));
        for (name, value) in direct {
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
            assert!(value.is_finite() && value > 0.0, "{name} = {value}");
        }
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed.trim_end(),
            benchmark_json().render_pretty(),
            "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- --print-benchmark-json > BENCHMARK.json"
        );
    }
}
