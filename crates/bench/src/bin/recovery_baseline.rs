//! `recovery_baseline`: cost and visibility trajectory of the crash-consistency
//! tier, written to `BENCH_recovery.json`.
//!
//! Four groups of metrics:
//!
//! 1. **Journal write amplification.** Device writes per batched `write_file`
//!    delta update (the update path: several changed blocks per op) with the
//!    intent journal on (4 slots) vs off (0 slots, the pre-journal path). The
//!    journal seals one batched intent record per capacity-sized chunk of
//!    changed blocks, so its cost amortises across the batch; the issue's
//!    budget is < 15% total-I/O amplification, asserted in the full-mode run.
//!    Single-block `write_block` numbers — where the intent record cannot
//!    amortise — are reported alongside as the unbudgeted worst case.
//! 2. **Mount-time recovery latency.** `ResilientStore::open` wall clock
//!    against a volume carrying 0 / 1 / 2 / 4 staged in-flight intents
//!    (each staged by cutting power right after the intent record landed).
//! 3. **Journal visibility.** Raw bytes of the journal slot blocks sampled
//!    across an update stream must pass the same uniformity bounds as any
//!    hidden block: χ² at α = 0.01 not rejecting, per-byte KL < 0.01. A
//!    journal an attacker could find would defeat the deniability story.
//! 4. **Delta vs full rewrite.** Device writes for a 2-of-16-block
//!    `write_file` through the journaled delta-parity path vs what a
//!    re-encode of the whole file would issue (every data block, every
//!    parity row, the shadow stripe map — a closed form, not a second write
//!    path).
//!
//! Run with `--quick` (or `STEGFS_BENCH_QUICK=1`) for a CI-sized run; the
//! JSON schema is identical, with `"quick": true` recorded.

use std::sync::Arc;

use stegfs_analysis::{byte_value_chi_square, byte_value_kl};
use stegfs_base::StegFsConfig;
use stegfs_bench::harness::{pick, quick_mode, timed, BLOCK_SIZE};
use stegfs_bench::report::{print_metrics_table, render_bench_json, BenchMetric as Metric};
use stegfs_blockdev::{clone_to_mem, BlockDeviceExt, CrashDevice, MemDevice};
use stegfs_crypto::Key256;
use stegfs_resilience::{IntentBody, IntentJournal, ResilienceConfig, ResilientStore, StripeMap};

const MB: f64 = (1 << 20) as f64;

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

fn store_cfg(journal_slots: usize) -> ResilienceConfig {
    ResilienceConfig::default()
        .with_fs(StegFsConfig::default().with_block_size(BLOCK_SIZE))
        .with_stripe(4, 2)
        .with_journal_slots(journal_slots)
}

type CountingStore = ResilientStore<Arc<CrashDevice<MemDevice>>>;

/// Fresh volume (write-counting device, no cut armed) holding one file of
/// `file_blocks` content blocks.
fn counting_store(
    journal_slots: usize,
    file_blocks: u64,
    seed: u64,
) -> (Arc<CrashDevice<MemDevice>>, CountingStore, Vec<u8>) {
    let num_blocks = file_blocks * 3 + 64;
    let dev = Arc::new(CrashDevice::new(MemDevice::new(num_blocks, BLOCK_SIZE)));
    let store = ResilientStore::format(Arc::clone(&dev), store_cfg(journal_slots), &master(), seed)
        .expect("format");
    let per = store.fs().content_bytes_per_block();
    let payload = pattern(file_blocks as usize * per, seed);
    store.create_file("/bench", &payload).expect("create");
    (dev, store, payload)
}

fn main() {
    let quick = quick_mode();
    let mut metrics: Vec<Metric> = Vec::new();

    let file_blocks = pick(64u64, 16);
    let updates = pick(200u64, 40);

    // --- 1. Journal write amplification on the update path. ---
    // Budgeted metric: a batched `write_file` delta update touching
    // `changed_per_update` blocks per op. The journal seals one intent
    // record per capacity-sized chunk of changed blocks, so its cost
    // amortises across the batch.
    let changed_per_update = pick(8u64, 4);
    let batch_updates = pick(40u64, 10);
    let mut batch_writes = [0.0f64; 2]; // [journaled, unjournaled]
    for (idx, slots) in [4usize, 0].into_iter().enumerate() {
        let (dev, store, payload) = counting_store(slots, file_blocks, 51);
        let per = store.fs().content_bytes_per_block();
        let mut cur = payload;
        let stride = (file_blocks / changed_per_update).max(1);
        dev.reset_counters();
        let secs = timed(batch_updates, {
            let mut r = 0u64;
            move || {
                for j in 0..changed_per_update {
                    let i = ((r + j * stride) % file_blocks) as usize;
                    let blk = pattern(per, 1_000 + r * 64 + j);
                    cur[i * per..(i + 1) * per].copy_from_slice(&blk);
                }
                store.write_file("/bench", &cur).expect("update");
                r += 1;
            }
        });
        batch_writes[idx] = dev.writes_attempted() as f64 / batch_updates as f64;
        let label = if slots > 0 {
            "journaled"
        } else {
            "unjournaled"
        };
        metrics.push(Metric::new(
            format!("batch_update_writes_{label}"),
            "writes/op",
            batch_writes[idx],
            format!(
                "device writes per {changed_per_update}-block write_file, {slots} journal slots"
            ),
        ));
        metrics.push(Metric::new(
            format!("batch_update_latency_{label}_ms"),
            "ms",
            secs / batch_updates as f64 * 1e3,
            format!("{changed_per_update}-block write_file wall clock, {slots} journal slots"),
        ));
    }
    let amplification = batch_writes[0] / batch_writes[1];
    metrics.push(Metric::new(
        "journal_write_amplification_pct",
        "%",
        (amplification - 1.0) * 100.0,
        "extra device writes from the intent journal on the batched update path; budget < 15%",
    ));

    // Supplementary worst case: single-block write_block, where the one
    // intent record has nothing to amortise over. Unbudgeted.
    let mut single_writes = [0.0f64; 2];
    for (idx, slots) in [4usize, 0].into_iter().enumerate() {
        let (dev, store, _) = counting_store(slots, file_blocks, 51);
        let per = store.fs().content_bytes_per_block();
        let blocks: Vec<Vec<u8>> = (0..8).map(|i| pattern(per, 500 + i)).collect();
        dev.reset_counters();
        let secs = timed(updates, {
            let mut i = 0u64;
            move || {
                store
                    .write_block("/bench", i % file_blocks, &blocks[(i % 8) as usize])
                    .expect("update");
                i += 1;
            }
        });
        single_writes[idx] = dev.writes_attempted() as f64 / updates as f64;
        let label = if slots > 0 {
            "journaled"
        } else {
            "unjournaled"
        };
        metrics.push(Metric::new(
            format!("single_update_writes_{label}"),
            "writes/op",
            single_writes[idx],
            format!("device writes per write_block, {slots} journal slots"),
        ));
        metrics.push(Metric::new(
            format!("single_update_latency_{label}_ms"),
            "ms",
            secs / updates as f64 * 1e3,
            format!("write_block wall clock, {slots} journal slots"),
        ));
    }
    metrics.push(Metric::new(
        "journal_single_block_overhead_pct",
        "%",
        (single_writes[0] / single_writes[1] - 1.0) * 100.0,
        "intent overhead on a lone write_block (worst case, unbudgeted)",
    ));

    // --- 2. Mount-time recovery latency vs staged in-flight intents. ---
    // One volume with four files, so up to four concurrent intents (the
    // journal keys staleness per path) can be staged.
    let staged_file_blocks = pick(16u64, 8);
    let dev = Arc::new(CrashDevice::new(MemDevice::new(
        4 * staged_file_blocks * 3 + 96,
        BLOCK_SIZE,
    )));
    let store =
        ResilientStore::format(Arc::clone(&dev), store_cfg(4), &master(), 61).expect("format");
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
        let dev = Arc::new(CrashDevice::new(clone_to_mem(&image).expect("clone")));
        let store =
            ResilientStore::open(Arc::clone(&dev), store_cfg(4), &master(), 62).expect("open");
        // Stage `staged` concurrently in-flight mutations: write each intent
        // record through a parallel journal handle over the same slots and
        // leak the guard, exactly the on-disk state `staged` racing writers
        // would leave behind at a power cut. Ghost paths make the recovery
        // pass do its full undo-by-derivation probe per intent.
        let journal = IntentJournal::new(&master(), store.journal_slots());
        for f in 0..staged {
            let guard = journal
                .begin(store.fs(), &format!("/ghost{f}"), IntentBody::Create)
                .expect("stage intent")
                .expect("journal enabled");
            std::mem::forget(guard);
        }
        let snapshot = dev.snapshot_to_mem().expect("snapshot");
        drop(store);

        let opened = ResilientStore::open(
            clone_to_mem(&snapshot).expect("clone"),
            store_cfg(4),
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
            drop(ResilientStore::open(dev, store_cfg(4), &master(), 63).expect("open"));
        });
        metrics.push(Metric::new(
            format!("mount_recovery_ms_{staged}"),
            "ms",
            secs / open_iters as f64 * 1e3,
            format!("ResilientStore::open with {staged} staged intents (incl. image clone)"),
        ));
    }

    // --- 3. Journal slot visibility across an update stream. ---
    let (dev, store, _) = counting_store(4, staged_file_blocks, 71);
    let slots = store.journal_slots();
    let rounds = pick(300u64, 60);
    let per = store.fs().content_bytes_per_block();
    let mut slot_bytes: Vec<u8> = Vec::with_capacity(rounds as usize * BLOCK_SIZE * 2);
    // Only accumulate a slot when its content changed since the last sample:
    // re-counting an untouched slot's bytes round after round multiplies that
    // one sample's chi-square deviation by the repeat count and manufactures a
    // spurious rejection out of perfectly uniform data.
    let mut last: Vec<Vec<u8>> = slots
        .iter()
        .map(|&s| dev.read_block_vec(s).expect("read slot"))
        .collect();
    for r in 0..rounds {
        store
            .write_block("/bench", r % staged_file_blocks, &pattern(per, 7000 + r))
            .expect("update");
        for (i, &s) in slots.iter().enumerate() {
            let now = dev.read_block_vec(s).expect("read slot");
            if now != last[i] {
                slot_bytes.extend_from_slice(&now);
                last[i] = now;
            }
        }
    }
    let chi = byte_value_chi_square(&slot_bytes, 0.01);
    let kl = byte_value_kl(&slot_bytes);
    metrics.push(Metric::new(
        "journal_slot_chi2",
        "stat",
        chi.statistic,
        format!(
            "byte-value chi-square over {:.1} MB of journal slots; critical {:.0}",
            slot_bytes.len() as f64 / MB,
            chi.critical_value
        ),
    ));
    metrics.push(Metric::new(
        "journal_slot_kl",
        "bits",
        kl,
        "per-byte KL vs uniform over journal slot bytes; bound 0.01",
    ));
    assert!(
        !chi.rejects_uniformity,
        "journal slots show structure: {chi:?}"
    );
    assert!(kl < 0.01, "journal slot KL too high: {kl}");

    // --- 4. Delta write_file vs full rewrite. ---
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
    let (dev, store, old) = counting_store(4, rewrite_blocks, 81);
    let new = mk_new(&old, store.fs().content_bytes_per_block());
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
    println!(
        "\nJournal write amplification: {:.1}% (budget < 15%)",
        (amplification - 1.0) * 100.0
    );
    if !quick {
        assert!(
            amplification < 1.15,
            "journal write amplification budget exceeded: {amplification:.3}x"
        );
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
