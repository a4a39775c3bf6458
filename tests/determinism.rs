//! Bit-for-bit replayability of the oblivious-storage experiments.
//!
//! Before the deterministic-container change, `std::collections::HashMap`'s
//! per-process random hash seed made the store's merge/re-order pipeline
//! consume its DRBG in a different order on every run, so the
//! fig12a/fig12b/security_analysis outputs drifted in the last digit between
//! two invocations of the same binary. These tests run the same experiment
//! logic twice **in one process** — two `HashMap`s built identically in one
//! process still disagree on iteration order, so they would fail on seeded
//! `std` maps — and require byte-identical results.

use stegfs_bench::harness::oblivious_sweep_scaled;
use stegfs_repro::blockdev::{IoKind, MemDevice, TraceLog, TracingDevice};
use stegfs_repro::oblivious::{ObliviousConfig, ObliviousStore};
use stegfs_repro::prelude::*;
use stegfs_workload::AccessPattern;

mod support;
use support::ConcurrentDriver;

/// One fig12a/fig12b data point rendered exactly as the bins render it.
fn fig12_point_rendered() -> Vec<String> {
    // The identical sweep logic the fig12a/fig12b bins run (same seed
    // formula), shrunk from the bins' 2048-block last level so a debug
    // build finishes in seconds; the N/B ratio (and hierarchy height) of
    // the 8 MB Table-4 point is preserved.
    let sweep = oblivious_sweep_scaled(256, 8, 2, 12_008);
    vec![
        format!("{:.4}", sweep.mean_read_us / 1_000_000.0),
        format!("{:.4}", sweep.stegfs_read_us / 1_000_000.0),
        format!("{:.1}x", sweep.mean_read_us / sweep.stegfs_read_us),
        format!("{:.1}%", sweep.sort_time_fraction * 100.0),
        format!("{:.1}%", sweep.sort_io_fraction * 100.0),
        format!("{}", sweep.stats.total_ios()),
        format!("{}", sweep.stats.reorders),
    ]
}

#[test]
fn fig12_sweep_is_bit_for_bit_reproducible() {
    let first = fig12_point_rendered();
    let second = fig12_point_rendered();
    assert_eq!(
        first, second,
        "two in-process runs of the fig12a/fig12b sweep logic must render identically"
    );
}

/// The security_analysis bin's traffic-analysis scenario: physical read
/// positions observed on the oblivious partition under a Zipf-skewed
/// workload. The exact position sequence depends on every permutation the
/// store has drawn, so any nondeterminism in DRBG consumption shows up here.
fn oblivious_read_trace(reads: u64) -> Vec<u64> {
    let items = 256u64;
    let block_size = 1024usize;
    let store_block = ObliviousStore::<MemDevice, MemDevice>::block_size_for_item(block_size);
    let cfg = ObliviousConfig::new(16, items);
    let num_blocks = ObliviousStore::<MemDevice, MemDevice>::blocks_required(&cfg, store_block);
    let log = TraceLog::new();
    let device = TracingDevice::with_log(MemDevice::new(num_blocks, store_block), log.clone());
    let sort_device = MemDevice::new(
        ObliviousStore::<MemDevice, MemDevice>::sort_blocks_required(&cfg) + 8,
        ObliviousStore::<MemDevice, MemDevice>::sort_block_size_for(store_block),
    );
    let store = ObliviousStore::new(
        device,
        sort_device,
        cfg,
        Key256::from_passphrase("determinism security"),
        5,
        None,
    )
    .expect("store");
    for id in 0..items {
        store.insert(id, vec![0u8; 256]).expect("populate");
    }

    let mut rng = HashDrbg::from_u64(29);
    let mut pattern = AccessPattern::zipf(items, 1.2);
    log.clear();
    for _ in 0..reads {
        let id = pattern.next(&mut rng);
        store.read(id).expect("read");
    }
    assert!(store.membership_is_consistent());
    log.records()
        .iter()
        .filter(|r| r.kind == IoKind::Read)
        .map(|r| r.block)
        .collect()
}

#[test]
fn security_analysis_trace_is_bit_for_bit_reproducible() {
    let first = oblivious_read_trace(300);
    let second = oblivious_read_trace(300);
    assert!(!first.is_empty());
    assert_eq!(
        first, second,
        "two in-process runs of the traffic-analysis scenario must observe identical positions"
    );
}

/// Backend choice must never leak into experiment outputs: the fig12a sweep
/// and the security_analysis read trace must be byte-identical whether the
/// crypto stack runs its portable paths (T-table AES, scalar SHA-256) or any
/// hardware backend this CPU has (AES-NI, VAES; SHA-NI). This is the
/// cross-backend analogue of the in-process double runs above — an attacker
/// observing traces, and a reviewer replaying committed bench numbers, must
/// see the same bytes on every host.
#[test]
fn experiment_outputs_are_backend_invariant() {
    use stegfs_repro::crypto::backend::{self, Backend};

    backend::force(Backend::Portable);
    let portable_fig12 = fig12_point_rendered();
    let portable_trace = oblivious_read_trace(120);
    assert!(!portable_trace.is_empty());

    for hardware in [Backend::AesNi, Backend::Vaes] {
        if !hardware.is_available() {
            continue;
        }
        backend::force(hardware);
        assert_eq!(
            portable_fig12,
            fig12_point_rendered(),
            "fig12a point must not depend on the crypto backend ({})",
            hardware.name()
        );
        assert_eq!(
            portable_trace,
            oblivious_read_trace(120),
            "security_analysis read positions must not depend on the crypto backend ({})",
            hardware.name()
        );
    }
    backend::force_auto();
}

/// The concurrent serving layer in single-threaded mode
/// (`STEGFS_BENCH_THREADS=1` on the bins, `threads = 1` on the driver) must
/// remain bit-for-bit deterministic: one worker round-robins the tasks in
/// input order, so the agent's DRBGs are consumed in a fixed sequence and two
/// identically seeded runs observe identical physical traces. (Multi-threaded
/// runs are *value*-deterministic — every file reads back what was last
/// written, invariants hold — but trace order depends on scheduling; see the
/// README's Concurrency section.)
fn concurrent_single_thread_trace() -> (Vec<(IoKind, u64)>, Vec<u8>) {
    use steghide::{AgentConfig, ConcurrentAgent};

    let log = TraceLog::new();
    let device = TracingDevice::with_log(MemDevice::new(1024, 512), log.clone());
    let agent = ConcurrentAgent::format(
        device,
        StegFsConfig::default().with_block_size(512),
        AgentConfig::default(),
        Key256::from_passphrase("determinism concurrent"),
        61,
        8,
    )
    .expect("format");
    let per = agent.fs().content_bytes_per_block();
    let ids: Vec<_> = (0..3)
        .map(|u| {
            let secret = Key256::from_passphrase(&format!("det-user-{u}"));
            agent
                .create_file(&secret, &format!("/det{u}"), &vec![u as u8; per * 4])
                .expect("create")
        })
        .collect();

    log.clear();
    let tasks: Vec<_> = ids
        .iter()
        .enumerate()
        .map(|(u, &id)| {
            let mut round = 0u64;
            move |a: &ConcurrentAgent<TracingDevice<MemDevice>>| {
                a.update_block(id, round % 4, &vec![(u as u8) ^ round as u8; per])
                    .expect("update");
                a.dummy_update_batch(2).expect("dummy batch");
                round += 1;
                round == 10
            }
        })
        .collect();
    ConcurrentDriver::run(&agent, tasks, 1, || 0);

    let trace = log.records().iter().map(|r| (r.kind, r.block)).collect();
    let content = agent.read_file(ids[0]).expect("read back");
    (trace, content)
}

#[test]
fn concurrent_driver_single_thread_is_bit_for_bit_reproducible() {
    let (trace_a, content_a) = concurrent_single_thread_trace();
    let (trace_b, content_b) = concurrent_single_thread_trace();
    assert!(!trace_a.is_empty());
    assert_eq!(
        trace_a, trace_b,
        "two in-process single-threaded concurrent runs must produce identical I/O traces"
    );
    assert_eq!(content_a, content_b);
}

#[test]
fn store_state_is_reproducible_after_heavy_cascades() {
    let run = || {
        let cfg = ObliviousConfig::new(4, 64);
        let store_block = ObliviousStore::<MemDevice, MemDevice>::block_size_for_item(512);
        let store = ObliviousStore::new(
            MemDevice::new(
                ObliviousStore::<MemDevice, MemDevice>::blocks_required(&cfg, store_block),
                store_block,
            ),
            MemDevice::new(
                ObliviousStore::<MemDevice, MemDevice>::sort_blocks_required(&cfg) + 8,
                ObliviousStore::<MemDevice, MemDevice>::sort_block_size_for(store_block),
            ),
            cfg,
            Key256::from_passphrase("determinism cascade"),
            77,
            None,
        )
        .expect("store");
        let mut rng = HashDrbg::from_u64(3);
        for step in 0..300u64 {
            let id = rng.gen_range(48);
            if rng.next_u64().is_multiple_of(3) {
                store
                    .write(id, vec![(step % 251) as u8; 64])
                    .expect("write");
            } else if store.contains(id) {
                store.read(id).expect("read");
            }
        }
        assert!(store.membership_is_consistent());
        (store.occupancy(), store.stats())
    };
    assert_eq!(run(), run());
}

/// Build an identically seeded store over a tracing device.
fn traced_cascade_store() -> (
    ObliviousStore<TracingDevice<MemDevice>, MemDevice>,
    TraceLog,
) {
    let items = 64u64;
    let cfg = ObliviousConfig::new(8, items);
    let store_block = ObliviousStore::<MemDevice, MemDevice>::block_size_for_item(256);
    let log = TraceLog::new();
    let device = TracingDevice::with_log(
        MemDevice::new(
            ObliviousStore::<MemDevice, MemDevice>::blocks_required(&cfg, store_block),
            store_block,
        ),
        log.clone(),
    );
    let sort_device = MemDevice::new(
        ObliviousStore::<MemDevice, MemDevice>::sort_blocks_required(&cfg) + 8,
        ObliviousStore::<MemDevice, MemDevice>::sort_block_size_for(store_block),
    );
    let store = ObliviousStore::new(
        device,
        sort_device,
        cfg,
        Key256::from_passphrase("determinism decomposed"),
        43,
        None,
    )
    .expect("store");
    for id in 0..items {
        store
            .insert(id, vec![(id % 251) as u8; 120])
            .expect("populate");
    }
    log.clear();
    (store, log)
}

/// The item user `u` reads in round `r` — shared by both runs below.
fn decomposed_item(u: u64, r: u64) -> u64 {
    (u * 19 + r * 7) % 64
}

/// The store driven by `ConcurrentDriver` at one thread must be
/// trace-identical to the same store called directly in the driver's visit
/// order — sharing it by reference behind its lock changes nothing about
/// single-threaded behaviour: every DRBG draw, flush cascade and physical
/// I/O lands at the same program point, so the traces match bit for bit.
#[test]
fn single_thread_decomposed_store_is_trace_identical_to_direct_calls() {
    const USERS: u64 = 3;
    const ROUNDS: u64 = 40;

    // Direct sequential calls in the one-thread driver's round-robin order.
    let (direct, direct_log) = traced_cascade_store();
    for r in 0..ROUNDS {
        for u in 0..USERS {
            direct.read(decomposed_item(u, r)).expect("direct read");
        }
    }
    let direct_trace: Vec<(IoKind, u64)> = direct_log
        .records()
        .iter()
        .map(|rec| (rec.kind, rec.block))
        .collect();

    // The same per-user access sequences as driver tasks at one thread.
    let (driven, driven_log) = traced_cascade_store();
    let tasks: Vec<_> = (0..USERS)
        .map(|u| {
            let mut round = 0u64;
            move |s: &ObliviousStore<TracingDevice<MemDevice>, MemDevice>| {
                s.read(decomposed_item(u, round)).expect("driven read");
                round += 1;
                round == ROUNDS
            }
        })
        .collect();
    ConcurrentDriver::run(&driven, tasks, 1, || 0);
    let driven_trace: Vec<(IoKind, u64)> = driven_log
        .records()
        .iter()
        .map(|rec| (rec.kind, rec.block))
        .collect();

    assert!(!direct_trace.is_empty());
    assert_eq!(
        direct_trace, driven_trace,
        "one-thread decomposed store must replay the sequential trace exactly"
    );
    assert_eq!(direct.stats(), driven.stats());
    assert_eq!(direct.occupancy(), driven.occupancy());
}

// ---------------------------------------------------------------------------
// Persistent registry: reopening the sharded registry from disk must be
// behaviour- AND trace-identical to the session that built it in RAM. The
// registry's lazy shard loads, checkpoint slot choices and the blocks its
// batches write all consume persisted state only — nothing in the reopened
// store may depend on in-memory residue of the building session.

fn registry_det_cfg() -> ResilienceConfig {
    ResilienceConfig::default()
        .with_fs(StegFsConfig::default().with_block_size(512))
        .with_stripe(2, 1)
}

/// Registry shards kept resident by both sessions.
const REGISTRY_RESIDENT: usize = 2;

/// A deterministic single-threaded registry workload: interleaved lookups,
/// overwrites and checkpoints over 12 users spread across 4 shards. Returns
/// every lookup result so behaviour can be compared alongside the I/O trace.
fn registry_workload<D: BlockDevice>(
    registry: &mut stegfs_repro::resilience::Registry<'_, D>,
) -> Vec<Option<Vec<u8>>> {
    let mut observed = Vec::new();
    for i in 0..32u64 {
        let user = format!("det-reg-{}", i % 12);
        if i % 3 == 0 {
            registry
                .put(&user, format!("gen-{i}").as_bytes())
                .expect("put");
        }
        observed.push(registry.get(&user).expect("get"));
        if i % 8 == 7 {
            registry.checkpoint().expect("checkpoint");
        }
    }
    observed
}

#[test]
fn reopened_registry_is_trace_identical_to_the_fresh_build() {
    use std::sync::Arc;
    use stegfs_repro::resilience::Registry;

    // Session 1 builds the registry in RAM and checkpoints it out.
    let log_a = TraceLog::new();
    let dev_a = Arc::new(TracingDevice::with_log(
        MemDevice::new(512, 512),
        log_a.clone(),
    ));
    let master = Key256::from_passphrase("registry determinism");
    let store_a =
        ResilientStore::format(Arc::clone(&dev_a), registry_det_cfg(), &master, 0xd373).unwrap();
    let mut registry_a = Registry::create(&store_a, 4, REGISTRY_RESIDENT).unwrap();
    for i in 0..12u64 {
        registry_a
            .put(&format!("det-reg-{i}"), format!("seed-{i}").as_bytes())
            .unwrap();
    }
    registry_a.checkpoint().unwrap();

    // Freeze the image for session 2, then put session 1's caches in the
    // same cold state a reopen starts from.
    let image = stegfs_repro::blockdev::clone_to_mem(&*dev_a).unwrap();
    registry_a.drop_caches().unwrap();
    log_a.clear();
    let observed_a = registry_workload(&mut registry_a);
    let trace_a: Vec<(IoKind, u64)> = log_a.records().iter().map(|r| (r.kind, r.block)).collect();

    // Session 2 reopens the identical image from disk.
    let log_b = TraceLog::new();
    let dev_b = Arc::new(TracingDevice::with_log(image, log_b.clone()));
    let store_b =
        ResilientStore::open(Arc::clone(&dev_b), registry_det_cfg(), &master, 0xd373).unwrap();
    let mut registry_b = Registry::open(&store_b, REGISTRY_RESIDENT)
        .unwrap()
        .expect("reopen must rediscover the registry");
    assert_eq!(
        registry_b.stats().resident_shards,
        0,
        "a reopened registry starts cold: resident memory is O(active users)"
    );
    log_b.clear();
    let observed_b = registry_workload(&mut registry_b);
    let trace_b: Vec<(IoKind, u64)> = log_b.records().iter().map(|r| (r.kind, r.block)).collect();

    assert_eq!(
        observed_a, observed_b,
        "reopened registry answered a lookup differently"
    );
    assert!(!trace_a.is_empty(), "the workload must touch the device");
    assert_eq!(
        trace_a, trace_b,
        "reopened registry drove a different I/O schedule than the fresh build"
    );
}
