//! `recovery_baseline`: cost trajectory of the crash-consistency tier, written
//! to `BENCH_recovery.json`.
//!
//! Two groups of metrics, neither of which `benchmark/` publishes:
//!
//! 1. **Mount-time recovery latency.** `ResilientStore::open` wall clock
//!    against a volume carrying 0 / 1 / 2 / 4 staged in-flight intents
//!    (each staged by cutting power right after the intent record landed);
//!    `benchmark/`'s `resilience.open_ms` only ever opens a clean volume.
//! 2. **Delta vs full rewrite.** Device writes for a 2-of-16-block
//!    `write_file` through the journaled delta-parity path vs what a
//!    re-encode of the whole file would issue (every data block, every
//!    parity row, the shadow stripe map — a closed form, not a second write
//!    path).
//!
//! What the journal costs per update is `resilience.journal_writes_per_update`
//! / `other_writes_per_update` / `reads_per_update` on `benchmark/`'s
//! `durable_mixed` workload; that journal slots look like free space is
//! asserted by `tests/resilience.rs`.
//!
//! Run with `--quick` (or `STEGFS_BENCH_QUICK=1`) for a CI-sized run; the
//! JSON schema is identical, with `"quick": true` recorded.

use std::sync::Arc;

use stegfs_base::StegFsConfig;
use stegfs_bench::harness::{pick, quick_mode, timed, BLOCK_SIZE};
use stegfs_bench::report::{print_metrics_table, render_bench_json, BenchMetric as Metric};
use stegfs_blockdev::{clone_to_mem, FaultDevice, MemDevice};
use stegfs_crypto::Key256;
use stegfs_resilience::{IntentBody, IntentJournal, ResilienceConfig, ResilientStore, StripeMap};

fn master() -> Key256 {
    Key256::from_passphrase("recovery baseline")
}

/// Deterministic payload bytes.
fn pattern(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 56) as u8
        })
        .collect()
}

fn store_cfg() -> ResilienceConfig {
    ResilienceConfig::default()
        .with_fs(StegFsConfig::default().with_block_size(BLOCK_SIZE))
        .with_stripe(4, 2)
}

fn main() {
    let quick = quick_mode();
    let mut metrics: Vec<Metric> = Vec::new();

    // --- 1. Mount-time recovery latency vs staged in-flight intents. ---
    // One volume with four files, so up to four concurrent intents (the
    // journal keys staleness per path) can be staged.
    let staged_file_blocks = pick(16u64, 8);
    let dev = Arc::new(FaultDevice::new(MemDevice::new(
        4 * staged_file_blocks * 3 + 96,
        BLOCK_SIZE,
    )));
    let store =
        ResilientStore::format(Arc::clone(&dev), store_cfg(), &master(), 61).expect("format");
    let per = store.fs().content_bytes_per_block();
    for f in 0..4u64 {
        store
            .create_file(
                &format!("/f{f}"),
                &pattern(staged_file_blocks as usize * per, f),
            )
            .expect("create");
    }
    drop(store);
    let image = clone_to_mem(&dev.inner()).expect("clone");
    drop(dev);

    let open_iters = pick(20u64, 5);
    for staged in [0usize, 1, 2, 4] {
        let dev = Arc::new(FaultDevice::new(clone_to_mem(&image).expect("clone")));
        let store =
            ResilientStore::open(Arc::clone(&dev), store_cfg(), &master(), 62).expect("open");
        // Stage `staged` live intents, one per logical slot, each sealed
        // through a journal over that slot's pair alone: the recovery scan's
        // cost per live record. The store itself leaves at most one (it
        // journals into slot 0 only). Ghost paths make the recovery pass do
        // its full undo-by-derivation probe per intent.
        let slots = store.journal_slots();
        for (f, pair) in slots.chunks(2).take(staged).enumerate() {
            IntentJournal::new(&master(), pair.to_vec())
                .begin(store.fs(), &format!("/ghost{f}"), IntentBody::Create)
                .expect("stage intent");
        }
        let snapshot = dev.snapshot_to_mem().expect("snapshot");
        drop(store);

        let opened = ResilientStore::open(
            clone_to_mem(&snapshot).expect("clone"),
            store_cfg(),
            &master(),
            63,
        )
        .expect("recovery open");
        assert_eq!(
            opened.last_recovery().intents_found,
            staged as u64,
            "staging produced the wrong intent count"
        );
        drop(opened);

        let secs = timed(open_iters, || {
            let dev = clone_to_mem(&snapshot).expect("clone");
            drop(ResilientStore::open(dev, store_cfg(), &master(), 63).expect("open"));
        });
        metrics.push(Metric::new(
            format!("mount_recovery_ms_{staged}"),
            "ms",
            secs / open_iters as f64 * 1e3,
            format!("ResilientStore::open with {staged} staged intents (incl. image clone)"),
        ));
    }

    // --- 2. Delta write_file vs full rewrite. ---
    let rewrite_blocks = pick(16u64, 8);
    let changed = 2usize;
    let mk_new = |old: &[u8], per: usize| {
        let mut new = old.to_vec();
        for c in 0..changed {
            // Indices 2 and 7: inside the file in both full (16-block) and
            // quick (8-block) geometry.
            let at = (c * 5 + 2) * per;
            let blk = pattern(per, 8000 + c as u64);
            new[at..at + per].copy_from_slice(&blk);
        }
        new
    };
    // A write-counting device with no cut armed.
    let dev = Arc::new(FaultDevice::new(MemDevice::new(
        rewrite_blocks * 3 + 64,
        BLOCK_SIZE,
    )));
    let store =
        ResilientStore::format(Arc::clone(&dev), store_cfg(), &master(), 81).expect("format");
    let per = store.fs().content_bytes_per_block();
    let old = pattern(rewrite_blocks as usize * per, 81);
    store.create_file("/bench", &old).expect("create");
    let new = mk_new(&old, per);
    dev.reset_counters();
    store.write_file("/bench", &new).expect("delta rewrite");
    let delta_writes = dev.writes_attempted();
    assert_eq!(store.read_file("/bench").expect("read"), new);

    // A whole-file re-encode reseals every data block and every parity row
    // of every stripe, then rewrites the shadow stripe map.
    let stripe = store.stripe_config();
    let shadow_blocks = StripeMap::encoded_len(stripe, rewrite_blocks)
        .div_ceil(store.fs().content_bytes_per_block()) as u64;
    let full_writes =
        rewrite_blocks + stripe.m as u64 * stripe.num_stripes(rewrite_blocks) + shadow_blocks;
    if !quick {
        assert_eq!(full_writes, 25, "full-rewrite write count moved");
    }

    metrics.push(Metric::new(
        "delta_rewrite_writes",
        "writes",
        delta_writes as f64,
        format!("write_file touching {changed} of {rewrite_blocks} blocks"),
    ));
    metrics.push(Metric::new(
        "full_rewrite_writes",
        "writes",
        full_writes as f64,
        format!("re-encode of all {rewrite_blocks} blocks: data + parity rows + shadow map"),
    ));
    metrics.push(Metric::new(
        "delta_rewrite_io_saving",
        "x",
        full_writes as f64 / delta_writes as f64,
        "full-rewrite writes / delta writes for the same logical change",
    ));

    // --- Report. ---
    print_metrics_table(
        &format!(
            "recovery_baseline (wall clock{}): crash-consistency tier trajectory",
            if quick { ", quick mode" } else { "" }
        ),
        &metrics,
    );
    if !quick {
        assert!(
            delta_writes < full_writes,
            "delta rewrite must beat the full re-encode ({delta_writes} vs {full_writes})"
        );
    }

    let path = "BENCH_recovery.json";
    std::fs::write(
        path,
        render_bench_json("stegfs-recovery-baseline/v1", quick, &metrics),
    )
    .expect("write BENCH_recovery.json");
    println!("wrote {path} ({} metrics)", metrics.len());
}
