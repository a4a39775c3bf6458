//! Read hiding, seen from where the data reads land.
//!
//! A Figure 8(b) read touches one data slot in every level: the real one in
//! the shallowest level that holds the block, a dummy in every other. How
//! full a level is, is public — the re-order that filled it wrote exactly
//! its occupied prefix — so a dummy must be drawn from that prefix, like the
//! real reads it stands in for. Drawn from the whole capacity it can land
//! behind the prefix, where no real read ever does; and because only the
//! levels *below* the hit were probed that way, one such read told the
//! observer the block had been found further up — that it was requested
//! recently.
//!
//! The same holds for what the index probes land on. An observer with the
//! read trace and one device image may decode the index block each level's
//! probe read and ask whether it names the data slot read in that level.
//! While index blocks held `(keyed hash, slot)` entries, the level that
//! served a read always passed and a dummy level only by chance, so a scan
//! told a re-read of a recent id (found high up) from a first read (found
//! deep down). Index blocks now hold noise, and must name nothing.

use std::sync::Arc;

use stegfs_repro::analysis::chi_square_uniform;
use stegfs_repro::blockdev::{BlockDevice, IoKind, MemDevice, TraceLog, TracingDevice};
use stegfs_repro::crypto::Key256;
use stegfs_repro::oblivious::{ObliviousConfig, ObliviousStore};

type Store = ObliviousStore<TracingDevice<MemDevice>, MemDevice>;

const BLOCK: usize = 512;
const BUFFER: u64 = 8;
const LAST_LEVEL: u64 = 2048;
/// Blocks read over and over; few enough that their fresh copies never sink
/// below the first two levels between two reads.
const HOT: u64 = 24;

/// Data region of level `i` (1-based): first block and slot count. Every
/// level's index region lies at the front of the partition, then every
/// level's slots, in level order.
fn data_region(i: u32) -> (u64, u64) {
    let cfg = ObliviousConfig::new(BUFFER, LAST_LEVEL);
    let index_area = Store::blocks_required(&cfg, BLOCK) - cfg.total_slots();
    let shallower: u64 = (1..i).map(|j| cfg.level_capacity(j)).sum();
    (index_area + shallower, cfg.level_capacity(i))
}

#[test]
fn dummy_data_probes_stay_inside_the_occupied_prefix_and_are_uniform_over_it() {
    let cfg = ObliviousConfig::new(BUFFER, LAST_LEVEL);
    let levels = cfg.num_levels();
    let log = TraceLog::new();
    let store = Store::new(
        TracingDevice::with_log(
            MemDevice::new(Store::blocks_required(&cfg, BLOCK), BLOCK),
            log.clone(),
        ),
        MemDevice::new(
            Store::sort_blocks_required(&cfg) + 8,
            Store::sort_block_size_for(BLOCK),
        ),
        cfg,
        Key256::from_passphrase("read hiding"),
        29,
        None,
    )
    .unwrap();
    let payload = |id: u64| vec![id as u8; 100];
    // 700 of 2048 ids: deep levels end up part full.
    for id in 0..700 {
        store.insert(id, payload(id)).unwrap();
    }
    // Bring every hot block up once; from here on each is found in a
    // shallow level and every deeper level sees a dummy probe.
    for id in 0..HOT {
        store.read(id).unwrap();
    }

    // Per level, for the scans that found it part full: which sixteenth of
    // the occupied prefix the data read landed in.
    const BINS: u64 = 16;
    let mut sixteenths: Vec<Vec<u64>> = vec![Vec::new(); levels as usize];
    let mut scans = 0;
    let before_reads = store.stats();
    for n in 0..2400 {
        let id = n % HOT;
        let occupancy = store.occupancy();
        log.clear();
        assert_eq!(store.read(id).unwrap(), payload(id));
        if occupancy[0] as u64 == BUFFER - 1 {
            // This read filled the buffer: the trace holds a flush too.
            continue;
        }
        scans += 1;
        let reads: Vec<u64> = log
            .records()
            .iter()
            .inspect(|r| assert_eq!(r.kind, IoKind::Read, "a scan only reads"))
            .map(|r| r.block)
            .collect();
        for i in 1..=levels {
            let (start, capacity) = data_region(i);
            let level = i as usize - 1;
            let in_region: Vec<u64> = reads
                .iter()
                .filter(|&&b| (start..start + capacity).contains(&b))
                .map(|&b| b - start)
                .collect();
            let [slot] = in_region[..] else {
                panic!("read {n}: level {i} saw data reads at {in_region:?}");
            };
            let occupied = occupancy[i as usize] as u64;
            assert!(
                occupied == 0 || slot < occupied,
                "read {n}: level {i} holds {occupied} of {capacity} slots, data read at slot {slot}"
            );
            // Prefixes that split into equal sixteenths only.
            if occupied > 0 && occupied < capacity && occupied.is_multiple_of(BINS) {
                sixteenths[level].push(slot * BINS / occupied);
            }
        }
    }
    let during = store.stats().since(&before_reads);
    assert_eq!(during.buffer_hits, 0, "every read reached the levels");
    assert!(scans >= 2000, "only {scans} scans checked");

    // Below the first two levels every probe was a dummy: over the occupied
    // prefix, however it grew between cascades, they must look uniform.
    let mut tested = 0;
    for (level, landed) in sixteenths.iter().enumerate().skip(2) {
        if landed.len() < 1000 {
            continue;
        }
        let chi = chi_square_uniform(landed, BINS, BINS, 0.001);
        assert!(
            !chi.rejects_uniformity,
            "level {}: {} dummy probes over the occupied prefix give {chi:?}",
            level + 1,
            landed.len()
        );
        tested += 1;
    }
    assert!(
        tested >= 2,
        "only {tested} part-full levels were probed enough: {:?}",
        sixteenths.iter().map(Vec::len).collect::<Vec<_>>()
    );
}

/// The data slots an index block names when read with the layout index
/// blocks once had: a little-endian `u16` entry count, then `(keyed hash,
/// slot)` pairs of little-endian `u64`s, at most `(BLOCK - 2) / 16` of them.
fn slots_named(bucket: &[u8]) -> impl Iterator<Item = u64> + '_ {
    let count = usize::from(u16::from_le_bytes([bucket[0], bucket[1]])).min((BLOCK - 2) / 16);
    bucket[2..]
        .chunks_exact(16)
        .take(count)
        .map(|entry| u64::from_le_bytes(entry[8..].try_into().unwrap()))
}

#[test]
fn probed_index_blocks_do_not_name_the_slot_read() {
    let cfg = ObliviousConfig::new(BUFFER, LAST_LEVEL);
    let k = cfg.num_levels() as usize;
    let log = TraceLog::new();
    let disk = Arc::new(MemDevice::new(Store::blocks_required(&cfg, BLOCK), BLOCK));
    let store = ObliviousStore::new(
        TracingDevice::with_log(Arc::clone(&disk), log.clone()),
        MemDevice::new(
            Store::sort_blocks_required(&cfg) + 8,
            Store::sort_block_size_for(BLOCK),
        ),
        cfg,
        Key256::from_passphrase("read hiding"),
        29,
        None,
    )
    .unwrap();
    let payload = |id: u64| vec![id as u8; 100];
    for id in 0..700 {
        store.insert(id, payload(id)).unwrap();
    }
    for id in 0..HOT {
        store.read(id).unwrap();
    }

    // Two streams of 600 reads: the hot ids round and round, then ids
    // 100..700 once each. Per stream and level: scans whose probed index
    // block names the slot read. A read that flushed is skipped (the image
    // the observer would hold is no longer the one the scan probed), and so
    // is one that is not k index reads then k data reads.
    let hot: Vec<u64> = (0..600).map(|n| n % HOT).collect();
    let cold: Vec<u64> = (100..700).collect();
    let mut named = vec![[0u64; 2]; k];
    let mut scans = [0u64; 2];
    let mut bucket = vec![0u8; BLOCK];
    for (stream, ids) in [hot, cold].iter().enumerate() {
        for &id in ids {
            log.clear();
            assert_eq!(store.read(id).unwrap(), payload(id));
            let records = log.records();
            if records.len() != 2 * k || records.iter().any(|r| r.kind != IoKind::Read) {
                continue;
            }
            scans[stream] += 1;
            for (level, named) in named.iter_mut().enumerate() {
                disk.read_block(records[level].block, &mut bucket).unwrap();
                let slot = records[k + level].block - data_region(level as u32 + 1).0;
                if slots_named(&bucket).any(|named| named == slot) {
                    named[stream] += 1;
                }
            }
        }
    }
    assert!(
        scans.iter().all(|&n| n >= 400),
        "only {scans:?} scans checked"
    );
    let mut telling = Vec::new();
    for (level, named) in named.iter().enumerate() {
        let [hot, cold] = [0, 1].map(|s| named[s] as f64 / scans[s] as f64);
        println!(
            "level {}: the probed block names the slot read in {hot:.3} of hot and {cold:.3} of cold scans",
            level + 1
        );
        if (hot - cold).abs() > 0.05 {
            telling.push(format!(
                "level {}: hot {hot:.3} vs cold {cold:.3}",
                level + 1
            ));
        }
    }
    assert!(
        telling.is_empty(),
        "the index tells re-reads from first reads over {scans:?} scans: {telling:?}"
    );
}
