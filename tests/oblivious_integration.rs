//! Cross-crate integration of the oblivious read path (Section 5): a StegFS
//! partition, the Figure 8(a) read front and the Figure 8(b) hierarchy
//! working together on a real hidden file.

use stegfs_repro::blockdev::{TraceLog, TracingDevice};
use stegfs_repro::oblivious::{ObliviousConfig, ObliviousReadFront, ObliviousStore};
use stegfs_repro::prelude::*;
use stegfs_repro::stegfs::{FileAccessKey, StegFsConfig};

const BLOCK_SIZE: usize = 512;

fn build_partition() -> (
    StegFs<TracingDevice<MemDevice>>,
    stegfs_base::OpenFile,
    TraceLog,
    Vec<u8>,
) {
    let log = TraceLog::new();
    let device = TracingDevice::with_log(MemDevice::new(2048, BLOCK_SIZE), log.clone());
    let (fs, map) = StegFs::format(
        device,
        StegFsConfig::default().with_block_size(BLOCK_SIZE),
        9,
    )
    .unwrap();
    let fak = FileAccessKey::from_passphrase("reader");
    let per = fs.content_bytes_per_block();
    let content: Vec<u8> = (0..per * 40).map(|i| (i % 253) as u8).collect();
    let file = fs.create_file(&map, "/data", &fak, &content).unwrap();
    (fs, file, log, content)
}

fn build_front(
    fs: &StegFs<TracingDevice<MemDevice>>,
) -> ObliviousReadFront<&TracingDevice<MemDevice>, MemDevice, MemDevice> {
    let store_block = ObliviousStore::<MemDevice, MemDevice>::block_size_for_item(BLOCK_SIZE);
    let cfg = ObliviousConfig::new(8, 512);
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
        Key256::from_passphrase("cache"),
        13,
        None,
    )
    .unwrap();
    ObliviousReadFront::new(fs.device(), store, 31)
}

#[test]
fn file_contents_read_through_the_oblivious_front_match() {
    let (fs, file, _log, content) = build_partition();
    let mut front = build_front(&fs);
    let per = fs.content_bytes_per_block();
    let key = file.fak.content_key().unwrap();

    // Read every logical block twice, in an awkward order, through the front.
    for pass in 0..2 {
        for logical in (0..file.header.num_blocks()).rev() {
            let physical = file.header.blocks[logical as usize];
            let raw = front.read_block(physical).unwrap();
            // The front caches raw (encrypted) partition blocks; decrypt with
            // the file's content key and compare against the original data.
            let plain = fs.codec().open(key, &raw).unwrap();
            let start = logical as usize * per;
            assert_eq!(
                &plain[..per],
                &content[start..start + per],
                "pass {pass}, logical block {logical}"
            );
        }
    }
    let stats = front.stats();
    assert_eq!(stats.reads_served, 2 * file.header.num_blocks());
    assert_eq!(
        stats.steg_fetches,
        file.header.num_blocks(),
        "each partition block must be fetched at most once"
    );
    assert!(stats.cache_hits >= file.header.num_blocks());
}

#[test]
fn partition_sees_each_block_once_plus_decoys() {
    let (fs, file, log, _content) = build_partition();
    let mut front = build_front(&fs);
    log.clear();

    // A skewed workload over a few hot blocks.
    for i in 0..200u64 {
        let logical = i % 7; // only 7 distinct blocks
        let physical = file.header.blocks[logical as usize];
        front.read_block(physical).unwrap();
    }

    // The partition trace contains at most one fetch per distinct block plus
    // decoy reads of already-fetched blocks; repeatedly reading the hot set
    // generates no repeated fetch pattern.
    let records = log.records();
    let fetched: std::collections::HashSet<u64> = records.iter().map(|r| r.block).collect();
    assert!(fetched.len() <= 7);
    assert_eq!(front.stats().steg_fetches, 7);
    assert_eq!(front.stats().cache_hits, 200 - 7);
}

#[test]
fn write_back_keeps_cache_and_partition_consistent() {
    let (fs, mut file, _log, content) = build_partition();
    let per = fs.content_bytes_per_block();
    let mut front = build_front(&fs);

    // Read block 3 through the front, then update it through the file system
    // (in place, for simplicity) and write the new version back to the cache.
    let physical = file.header.blocks[3];
    front.read_block(physical).unwrap();

    let new_plain = vec![0x44u8; per];
    fs.write_content_block(&mut file, 3, &new_plain).unwrap();
    let mut raw = vec![0u8; BLOCK_SIZE];
    fs.device().read_block(physical, &mut raw).unwrap();
    front.write_back(physical, raw).unwrap();

    let cached = front.read_block(physical).unwrap();
    let key = file.fak.content_key().unwrap();
    let plain = fs.codec().open(key, &cached).unwrap();
    assert_eq!(&plain[..per], &new_plain[..]);
    // Other blocks are untouched.
    let other = front.read_block(file.header.blocks[0]).unwrap();
    let plain = fs.codec().open(key, &other).unwrap();
    assert_eq!(&plain[..per], &content[..per]);
}
