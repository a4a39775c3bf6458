//! Hiding read traffic with the oblivious storage (Section 5).
//!
//! Run with `cargo run --release --example oblivious_reads`.
//!
//! A user keeps re-reading a small, skewed subset of a hidden file — the kind
//! of access pattern a traffic-analysis attacker loves. Served directly from
//! the StegFS partition, the same physical blocks recur over and over; served
//! through the oblivious read front, each partition block is fetched at most
//! once and all further reads land on constantly re-shuffled cache levels.

use stegfs_repro::analysis::{repetition_rate, TrafficAnalysisAttacker};
use stegfs_repro::blockdev::{TraceLog, TracingDevice};
use stegfs_repro::oblivious::{ObliviousConfig, ObliviousReadFront, ObliviousStore};
use stegfs_repro::prelude::*;
use stegfs_repro::stegfs::{FileAccessKey, StegFsConfig};
use stegfs_repro::workload::AccessPattern;

const BLOCK_SIZE: usize = 4096;

fn main() {
    // ---- A StegFS partition holding one hidden file. ----------------------
    let steg_log = TraceLog::new();
    let steg_device = TracingDevice::with_log(MemDevice::new(2048, BLOCK_SIZE), steg_log.clone());
    let (fs, map) =
        StegFs::format(steg_device, StegFsConfig::default(), 5).expect("format partition");
    let fak = FileAccessKey::from_passphrase("analyst");
    let per = fs.content_bytes_per_block();
    let content: Vec<u8> = (0..per * 200).map(|i| (i % 251) as u8).collect();
    let file = fs
        .create_file(&map, "/warehouse/fact_table", &fak, &content)
        .expect("create file");

    // ---- An oblivious store + read front over that partition. -------------
    let store_block = ObliviousStore::<MemDevice, MemDevice>::block_size_for_item(BLOCK_SIZE);
    let cfg = ObliviousConfig::new(16, 1024);
    let cache_device = MemDevice::new(
        ObliviousStore::<MemDevice, MemDevice>::blocks_required(&cfg, store_block),
        store_block,
    );
    let sort_device = MemDevice::new(
        ObliviousStore::<MemDevice, MemDevice>::sort_blocks_required(&cfg) + 8,
        ObliviousStore::<MemDevice, MemDevice>::sort_block_size_for(store_block),
    );
    let store = ObliviousStore::new(
        cache_device,
        sort_device,
        cfg,
        Key256::from_passphrase("cache master key"),
        11,
        None,
    )
    .expect("build oblivious store");
    let mut front = ObliviousReadFront::new(fs.device(), store, 23);

    // ---- The skewed workload: 2000 reads, 80 % of them on 20 hot blocks. ---
    let mut pattern = AccessPattern::zipf(file.header.num_blocks(), 1.2);
    let mut positions_direct = Vec::new();
    let mut rng = HashDrbg::from_u64(3);
    steg_log.clear();

    // (a) Direct reads from the partition.
    for _ in 0..2000 {
        let logical = pattern.next(&mut rng);
        let physical = file.header.blocks[logical as usize];
        positions_direct.push(physical);
        fs.read_content_block(&file, logical).expect("direct read");
    }
    let mut direct_attacker = TrafficAnalysisAttacker::new(2048);
    direct_attacker.observe_trace(&steg_log.records());
    let direct = direct_attacker.read_verdict(0.01);

    // (b) The same workload through the oblivious read front.
    steg_log.clear();
    let mut pattern = AccessPattern::zipf(file.header.num_blocks(), 1.2);
    let mut rng = HashDrbg::from_u64(3);
    for _ in 0..2000 {
        let logical = pattern.next(&mut rng);
        let physical = file.header.blocks[logical as usize];
        front.read_block(physical).expect("oblivious read");
    }
    let partition_reads = steg_log.records();
    let front_stats = front.stats();

    println!("Direct reads from the StegFS partition:");
    println!(
        "  partition requests observed by the attacker: {}",
        direct.observations
    );
    println!(
        "  repetition rate of physical positions: {:.2}",
        direct.repetition_rate
    );
    println!(
        "  attacker distinguishes the workload: {}",
        if direct.distinguishable { "YES" } else { "no" }
    );

    println!("\nReads through the oblivious storage:");
    println!(
        "  partition requests seen by the attacker: {} (each block fetched at most once: {} fetches, {} decoys)",
        partition_reads.len(),
        front_stats.steg_fetches,
        front_stats.steg_dummy_reads
    );
    println!(
        "  repetition rate of partition positions: {:.2}",
        repetition_rate(&partition_reads.iter().map(|r| r.block).collect::<Vec<_>>())
    );
    println!(
        "  cache hits served obliviously: {} of {} reads",
        front_stats.cache_hits, front_stats.reads_served
    );
    println!(
        "  oblivious cache I/O per read: {:.1} (hierarchy of {} levels)",
        front.store().stats().overhead_factor(),
        front.store().num_levels()
    );

    assert!(direct.distinguishable);
    println!("\nThe hot-set structure visible in the direct trace disappears behind the oblivious store.");
}
