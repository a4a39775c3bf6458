//! Attacker-statistics regression for the concurrent serving layer:
//! concurrency must not leak.
//!
//! The `security_analysis` bin's traffic scenario — users hammering a
//! Zipf-hot working set while dummy traffic runs — is replayed through a
//! [`TracingDevice`] under [`ConcurrentDriver`] at 8 threads, and the same
//! statistical distinguishers (`stegfs_analysis`) that clear the sequential
//! run must clear the concurrent one:
//!
//! * the write-position stream (data updates + dummy updates mixed across
//!   all threads) stays uniform — chi-square does not reject, so the
//!   snapshot-diffing / request-stream attacker still loses;
//! * the concurrent position distribution stays within the same bounds as
//!   the single-thread reference run of the identical workload (symmetric KL
//!   between the two streams is near zero);
//! * the distinguishers still have power: the ablation (relocation off)
//!   under the same concurrent driver is flagged immediately.

use std::sync::Mutex;

use stegfs_repro::analysis::{
    chi_square_uniform, kl_divergence_between, repetition_rate, TrafficAnalysisAttacker,
};
use stegfs_repro::blockdev::{IoKind, TraceLog};
use stegfs_repro::oblivious::{ObliviousConfig, ObliviousStore};
use stegfs_repro::prelude::*;
use stegfs_repro::stegfs::DEFAULT_MAP_SHARDS;
use stegfs_repro::workload::AccessPattern;
use steghide::{AgentConfig, ConcurrentAgent, FileId};

mod support;
use support::ConcurrentDriver;

const VOLUME_BLOCKS: u64 = 2048;
const HOT_BLOCKS: u64 = 48;
const USERS: usize = 4;
const UPDATES_PER_USER: u64 = 60;

struct TracedSystem {
    agent: ConcurrentAgent<TracingDevice<MemDevice>>,
    /// Zipf patterns need a DRBG; one per user, pre-seeded, behind a lock so
    /// the task closures stay `Send`.
    rngs: Vec<Mutex<HashDrbg>>,
}

/// Build the traced serving bed: per-user hot files plus filler to ~25 %
/// utilisation, identically seeded for every invocation.
fn build(relocate: bool) -> (TracedSystem, TraceLog, Vec<FileId>) {
    let log = TraceLog::new();
    let device = TracingDevice::with_log(MemDevice::new(VOLUME_BLOCKS, 512), log.clone());
    let cfg = if relocate {
        AgentConfig::default()
    } else {
        AgentConfig::default().without_relocation()
    };
    let agent = ConcurrentAgent::format(
        device,
        StegFsConfig::default().with_block_size(512).without_fill(),
        cfg,
        Key256::from_passphrase("concurrent security agent"),
        31,
        DEFAULT_MAP_SHARDS,
    )
    .expect("format volume");
    let per = agent.fs().content_bytes_per_block() as u64;
    let ids: Vec<FileId> = (0..USERS)
        .map(|u| {
            let secret = Key256::from_passphrase(&format!("hot-user-{u}"));
            agent
                .create_file_sparse(&secret, &format!("/hot{u}"), HOT_BLOCKS * per)
                .expect("create hot file")
        })
        .collect();
    agent
        .create_file_sparse(&Key256::from_passphrase("filler"), "/filler", 320 * per)
        .expect("create filler");
    let rngs = (0..USERS)
        .map(|u| Mutex::new(HashDrbg::from_u64(17 + u as u64)))
        .collect();
    (TracedSystem { agent, rngs }, log, ids)
}

/// Run the traffic scenario at `threads` workers and return the observed
/// physical write positions (the update-analysis attacker's view: every
/// changed block, data and dummy alike).
fn write_positions(threads: usize, relocate: bool) -> Vec<u64> {
    let (system, log, ids) = build(relocate);
    let per = system.agent.fs().content_bytes_per_block();

    // Measure the serving phase only.
    log.clear();
    let tasks: Vec<_> = ids
        .iter()
        .enumerate()
        .map(|(u, &id)| {
            let mut pattern = AccessPattern::zipf(HOT_BLOCKS, 1.0);
            let payload = vec![0x5A; per];
            let mut remaining = UPDATES_PER_USER;
            move |s: &TracedSystem| {
                let block = pattern.next(&mut s.rngs[u].lock().unwrap());
                s.agent.update_block(id, block, &payload).expect("update");
                remaining -= 1;
                // Interleave the idle-time dummy stream the way the paper's
                // serving loop does: one batched dummy round per data update.
                s.agent.dummy_update_batch(2).expect("dummy updates");
                remaining == 0
            }
        })
        .collect();
    ConcurrentDriver::run(&system, tasks, threads, || 0);

    log.records()
        .iter()
        .filter(|r| r.kind == IoKind::Write)
        .map(|r| r.block)
        .collect()
}

#[test]
fn concurrent_write_stream_stays_indistinguishable() {
    let concurrent = write_positions(8, true);
    assert!(
        concurrent.len() as u64 >= USERS as u64 * UPDATES_PER_USER * 3,
        "expected data + dummy writes, saw {}",
        concurrent.len()
    );

    let mut attacker = TrafficAnalysisAttacker::new(VOLUME_BLOCKS);
    for (i, &b) in concurrent.iter().enumerate() {
        attacker.observe(&stegfs_repro::blockdev::IoRecord {
            seq: i as u64,
            kind: IoKind::Write,
            block: b,
        });
    }
    let verdict = attacker.write_verdict(0.01);
    assert!(
        !verdict.distinguishable,
        "attacker wins against the concurrent serving layer: chi {} vs critical {}, repetition {}",
        verdict.chi_square, verdict.critical_value, verdict.repetition_rate
    );
}

#[test]
fn concurrent_distribution_matches_sequential_reference() {
    let concurrent = write_positions(8, true);
    let sequential = write_positions(1, true);

    // Both streams pass the uniformity bound the sequential run sets…
    for (label, positions) in [("concurrent", &concurrent), ("sequential", &sequential)] {
        let mut attacker = TrafficAnalysisAttacker::new(VOLUME_BLOCKS);
        for (i, &b) in positions.iter().enumerate() {
            attacker.observe(&stegfs_repro::blockdev::IoRecord {
                seq: i as u64,
                kind: IoKind::Write,
                block: b,
            });
        }
        let verdict = attacker.write_verdict(0.01);
        assert!(
            !verdict.distinguishable,
            "{label} run flagged: chi {} vs critical {}",
            verdict.chi_square, verdict.critical_value
        );
    }

    // …and against each other they are the same distribution (Definition 1,
    // read numerically: symmetric KL in bits near zero).
    let kl = kl_divergence_between(&concurrent, &sequential, VOLUME_BLOCKS, 64);
    assert!(
        kl < 0.5,
        "concurrent vs sequential write distributions diverge by {kl} bits"
    );
}

#[test]
fn distinguishers_still_catch_the_ablation_under_concurrency() {
    // Power check: with relocation disabled the hot files are rewritten in
    // place, and the same attacker flags the concentration immediately —
    // proving the pass above is not a toothless test.
    let ablation = write_positions(8, false);
    let mut attacker = TrafficAnalysisAttacker::new(VOLUME_BLOCKS);
    for (i, &b) in ablation.iter().enumerate() {
        attacker.observe(&stegfs_repro::blockdev::IoRecord {
            seq: i as u64,
            kind: IoKind::Write,
            block: b,
        });
    }
    let verdict = attacker.write_verdict(0.01);
    assert!(
        verdict.distinguishable,
        "in-place concurrent updates must be distinguishable (chi {} vs critical {})",
        verdict.chi_square, verdict.critical_value
    );
}

// ---------------------------------------------------------------------------
// Concurrent oblivious reads: the shared store's position stream at 8
// threads must satisfy the same statistical bounds as the sequential stream.

const OBLIVIOUS_ITEMS: u64 = 128;
const OBLIVIOUS_USERS: usize = 8;
const OBLIVIOUS_READS_PER_USER: u64 = 40;

/// The shared oblivious bed: the store over a tracing device plus
/// per-user pre-seeded Zipf DRBGs (locked so the tasks stay `Send`).
struct ObliviousBed {
    store: ObliviousStore<TracingDevice<MemDevice>, MemDevice>,
    rngs: Vec<Mutex<HashDrbg>>,
}

/// Run `OBLIVIOUS_USERS` tasks of Zipf-skewed (or uniform) oblivious reads at
/// `threads` workers and return the physical read positions observed on the
/// oblivious partition plus the partition size.
fn oblivious_read_positions(threads: usize, skewed: bool) -> (Vec<u64>, u64) {
    let store_block = ObliviousStore::<MemDevice, MemDevice>::block_size_for_item(512);
    let cfg = ObliviousConfig::new(16, OBLIVIOUS_ITEMS);
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
        Key256::from_passphrase("concurrent oblivious security"),
        13,
        None,
    )
    .expect("store");
    for id in 0..OBLIVIOUS_ITEMS {
        store.insert(id, vec![id as u8; 256]).expect("populate");
    }
    let bed = ObliviousBed {
        store,
        rngs: (0..OBLIVIOUS_USERS)
            .map(|u| Mutex::new(HashDrbg::from_u64(101 + u as u64)))
            .collect(),
    };

    // Measure the steady-state read phase only.
    log.clear();
    let tasks: Vec<_> = (0..OBLIVIOUS_USERS)
        .map(|u| {
            let mut pattern = if skewed {
                AccessPattern::zipf(OBLIVIOUS_ITEMS, 1.2)
            } else {
                AccessPattern::uniform(OBLIVIOUS_ITEMS)
            };
            let mut remaining = OBLIVIOUS_READS_PER_USER;
            move |s: &ObliviousBed| {
                let item = pattern.next(&mut s.rngs[u].lock().unwrap());
                let value = s.store.read(item).expect("oblivious read");
                assert_eq!(value[..256], vec![item as u8; 256][..], "item {item}");
                remaining -= 1;
                remaining == 0
            }
        })
        .collect();
    ConcurrentDriver::run(&bed, tasks, threads, || 0);
    assert!(bed.store.membership_is_consistent());
    assert_eq!(bed.store.write_epoch() % 2, 0);

    let positions: Vec<u64> = log
        .records()
        .iter()
        .filter(|r| r.kind == IoKind::Read)
        .map(|r| r.block)
        .collect();
    (positions, num_blocks)
}

#[test]
fn concurrent_oblivious_reads_match_sequential_statistics() {
    let (concurrent, universe) = oblivious_read_positions(8, true);
    let (sequential, _) = oblivious_read_positions(1, true);
    assert!(!concurrent.is_empty() && !sequential.is_empty());

    // Same position distribution at 8 threads as at 1 (symmetric KL in bits
    // near zero): interleaving reads leaks nothing the sequential stream
    // does not already show.
    let kl = kl_divergence_between(&concurrent, &sequential, universe, 64);
    assert!(
        kl < 0.5,
        "concurrent vs sequential oblivious read streams diverge by {kl} bits"
    );

    // Repetition rate (re-read of the same physical position back to back,
    // the signal a request-stream attacker correlates) stays at the
    // sequential level.
    let rep_concurrent = repetition_rate(&concurrent);
    let rep_sequential = repetition_rate(&sequential);
    assert!(
        (rep_concurrent - rep_sequential).abs() < 0.05,
        "repetition rate drifted: {rep_concurrent} concurrent vs {rep_sequential} sequential"
    );

    // Chi-square against uniform over the partition: the hierarchy gives the
    // stream structure (every read touches every level), so the statistic is
    // non-zero for *both* streams — the bound is that concurrency does not
    // add concentration beyond the sequential reference.
    let chi_concurrent = chi_square_uniform(&concurrent, universe, 64, 0.01).statistic;
    let chi_sequential = chi_square_uniform(&sequential, universe, 64, 0.01).statistic;
    assert!(
        chi_concurrent < chi_sequential * 1.5 + 50.0,
        "concurrent chi-square {chi_concurrent} well above sequential {chi_sequential}"
    );
}

#[test]
fn concurrent_oblivious_reads_hide_the_workload_skew() {
    // Workload independence under concurrency — the oblivious property
    // itself, Definition 1 read numerically: the position stream of a
    // Zipf-skewed workload at 8 threads is the same distribution as that of
    // a uniform workload at 8 threads.
    let (skewed, universe) = oblivious_read_positions(8, true);
    let (uniform, _) = oblivious_read_positions(8, false);
    let kl = kl_divergence_between(&skewed, &uniform, universe, 64);
    assert!(
        kl < 0.5,
        "skewed vs uniform workload position streams diverge by {kl} bits under concurrency"
    );
}
