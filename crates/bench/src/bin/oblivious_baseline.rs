//! `oblivious_baseline`: the simulated cost of the oblivious store's level
//! re-order, written to `BENCH_oblivious.json`.
//!
//! The same populate workload runs twice on the 2004 disk model: once with
//! the ranged `read_blocks`/`write_blocks` pipeline (one positioning per
//! batch), once with every ranged request re-expressed as scalar per-block
//! requests via [`ScalarDevice`] — the access stream is identical, only the
//! billing differs. Their ratio is the batched-I/O delta; the batched run
//! also gives the mean simulated time and the sort I/Os of one re-order.
//!
//! Wall-clock throughput, re-order stalls, thread scaling and the Figure 12
//! points are not measured here: `benchmark/`'s `oblivious_read` workload
//! publishes the first three (`ops_per_s`, `oblivious.reorder_stall_ms_*`,
//! `oblivious.sort_time_frac`, `oblivious.scaling_2c`) and `fig12a` /
//! `fig12b` print the last.
//!
//! Run with `--quick` (or `STEGFS_BENCH_QUICK=1`) for a CI-sized run; the
//! JSON schema is identical, with `"quick": true` recorded so trajectory
//! tooling can separate the two.

use stegfs_bench::harness::{fan_out, pick, quick_mode, Sim, BLOCK_SIZE};
use stegfs_bench::report::{print_metrics_table, render_bench_json, BenchMetric as Metric};
use stegfs_blockdev::sim::{DiskModel, SimClock, SimDevice};
use stegfs_blockdev::{BlockDevice, MemDevice, ScalarDevice};
use stegfs_crypto::Key256;
use stegfs_oblivious::{ObliviousConfig, ObliviousStats, ObliviousStore};

/// Populate `items` distinct blocks through the store's insert/flush/cascade
/// path and return the collected statistics (the simulated clock accumulates
/// into whatever `clock` the devices share).
fn populate<D: BlockDevice, S: BlockDevice>(
    device: D,
    sort_device: S,
    cfg: ObliviousConfig,
    clock: SimClock,
    items: u64,
) -> ObliviousStats {
    let store = ObliviousStore::new(
        device,
        sort_device,
        cfg,
        Key256::from_passphrase("oblivious baseline"),
        4242,
        Some(clock),
    )
    .expect("construct store");
    let payload = vec![0xA5u8; BLOCK_SIZE];
    for id in 0..items {
        store.insert(id, payload.clone()).expect("populate");
    }
    assert!(
        store.membership_is_consistent(),
        "membership invariant violated after populate cascade"
    );
    store.stats()
}

/// Run the reorder-path workload on the simulated 2004 disk, batched or
/// scalar. Identical geometry, seed and access stream in both modes; only
/// the request granularity the disk model bills changes.
fn reorder_scenario(scalar: bool, buffer: u64, last_level: u64, items: u64) -> ObliviousStats {
    let store_block = ObliviousStore::<Sim, Sim>::block_size_for_item(BLOCK_SIZE);
    let cfg = ObliviousConfig::new(buffer, last_level);
    let model = DiskModel::ultra_ata_2004();
    let clock = SimClock::new();
    let device = SimDevice::with_shared_clock(
        MemDevice::new(
            ObliviousStore::<Sim, Sim>::blocks_required(&cfg, store_block),
            store_block,
        ),
        model,
        clock.clone(),
    );
    let sort_device = SimDevice::with_shared_clock(
        MemDevice::new(
            ObliviousStore::<Sim, Sim>::sort_blocks_required(&cfg) + 8,
            ObliviousStore::<Sim, Sim>::sort_block_size_for(store_block),
        ),
        model,
        clock.clone(),
    );
    if scalar {
        populate(
            ScalarDevice::new(device),
            ScalarDevice::new(sort_device),
            cfg,
            clock,
            items,
        )
    } else {
        populate(device, sort_device, cfg, clock, items)
    }
}

fn main() {
    let quick = quick_mode();
    let mut metrics: Vec<Metric> = Vec::new();

    // k = 3 levels; the buffer is large enough that run/batch sweeps dominate
    // over seeks, as in the paper's unscaled geometry.
    let (buffer, last_level) = pick((1024u64, 8192u64), (256, 2048));
    let items = last_level;
    let geometry = format!("{items} items, buffer {buffer} blocks, last level {last_level}");
    let modes = fan_out(vec![true, false], |scalar| {
        reorder_scenario(scalar, buffer, last_level, items)
    });
    let (scalar_stats, batched_stats) = (modes[0], modes[1]);
    assert_eq!(
        scalar_stats.sort_ios, batched_stats.sort_ios,
        "scalar and batched modes must issue the identical access stream"
    );
    let speedup = scalar_stats.sort_time_us as f64 / batched_stats.sort_time_us as f64;
    metrics.push(Metric::new(
        "reorder_sim_time_scalar",
        "s",
        scalar_stats.sort_time_us as f64 / 1e6,
        format!("{geometry}; per-block requests"),
    ));
    metrics.push(Metric::new(
        "reorder_sim_time_batched",
        "s",
        batched_stats.sort_time_us as f64 / 1e6,
        format!("{geometry}; ranged requests"),
    ));
    metrics.push(Metric::new(
        "batch_io_speedup_reorder",
        "x",
        speedup,
        "scalar / batched simulated time, identical access stream".to_string(),
    ));
    metrics.push(Metric::new(
        "reorder_mean_sim_ms",
        "ms",
        batched_stats.sort_time_us as f64 / 1e3 / batched_stats.reorders as f64,
        format!("{} reorders", batched_stats.reorders),
    ));
    metrics.push(Metric::new(
        "sort_ios_per_reorder",
        "ios",
        batched_stats.sort_ios as f64 / batched_stats.reorders as f64,
        "sweep + spill + merge + rewrite + index blocks".to_string(),
    ));

    print_metrics_table(
        &format!(
            "oblivious_baseline (simulated 2004 disk{}): level re-order, batched vs scalar I/O",
            if quick { ", quick mode" } else { "" }
        ),
        &metrics,
    );
    println!(
        "\nBatched vs scalar I/O on the level-reorder path: {speedup:.2}x simulated-time \
         speedup ({} sort I/Os across {} reorders)",
        batched_stats.sort_ios, batched_stats.reorders
    );

    let path = "BENCH_oblivious.json";
    std::fs::write(
        path,
        render_bench_json("stegfs-oblivious-baseline/v1", quick, &metrics),
    )
    .expect("write BENCH_oblivious.json");
    println!("wrote {path} ({} metrics)", metrics.len());
}
