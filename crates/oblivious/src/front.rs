//! Figure 8(a): the randomized read front over the StegFS partition.
//!
//! Persistent hidden files live in the StegFS partition; the oblivious store
//! is only a cache (its constant shuffling cannot be reflected in file
//! headers whose owners are offline, Section 5). The read front guarantees
//! that each persistent block is fetched from the StegFS partition *at most
//! once* — after which it is served obliviously from the cache — and that the
//! sequence of first-time fetches, interleaved with dummy reads, looks like a
//! uniformly random process to an observer of the partition.
//!
//! The front serves one caller: the fetched set `S` of Figure 8(a), the draw
//! DRBG and the counters are plain fields, and every call takes `&mut self`.
//! A caller that shares a front wraps it in a lock of its own.

use stegfs_blockdev::{BlockDevice, BlockId};
use stegfs_crypto::HashDrbg;

use crate::error::ObliviousError;
use crate::store::ObliviousStore;

/// Counters describing the read front's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontStats {
    /// Logical block reads served.
    pub reads_served: u64,
    /// Reads satisfied by the oblivious cache.
    pub cache_hits: u64,
    /// First-time fetches from the StegFS partition.
    pub steg_fetches: u64,
    /// Decoy reads issued against the StegFS partition (both the re-draw
    /// reads of Figure 8(a) and explicit dummy reads).
    pub steg_dummy_reads: u64,
}

/// The oblivious read front (Figure 8(a)) combining a StegFS partition device
/// with an [`ObliviousStore`] cache.
pub struct ObliviousReadFront<P, D, S> {
    steg_partition: P,
    store: ObliviousStore<D, S>,
    /// The already-fetched set `S` of Figure 8(a), in insertion order for
    /// decoy sampling. Every block in `S` is in the store, which never drops
    /// an item.
    fetched: Vec<BlockId>,
    rng: HashDrbg,
    stats: FrontStats,
}

impl<P, D, S> ObliviousReadFront<P, D, S>
where
    P: BlockDevice,
    D: BlockDevice,
    S: BlockDevice,
{
    /// Create a read front over `steg_partition` backed by `store`.
    pub fn new(steg_partition: P, store: ObliviousStore<D, S>, seed: u64) -> Self {
        Self {
            steg_partition,
            store,
            fetched: Vec::new(),
            rng: HashDrbg::new(&seed.to_be_bytes()),
            stats: FrontStats::default(),
        }
    }

    /// The underlying oblivious store.
    pub fn store(&self) -> &ObliviousStore<D, S> {
        &self.store
    }

    /// The StegFS partition device.
    pub fn steg_partition(&self) -> &P {
        &self.steg_partition
    }

    /// Counters collected so far.
    pub fn stats(&self) -> FrontStats {
        self.stats
    }

    fn read_steg_raw(&self, block: BlockId) -> Result<Vec<u8>, ObliviousError> {
        let mut buf = vec![0u8; self.steg_partition.block_size()];
        self.steg_partition.read_block(block, &mut buf)?;
        Ok(buf)
    }

    /// Read the raw (encrypted) contents of StegFS-partition block `block`,
    /// hiding the access pattern.
    ///
    /// Cache hits are served by the oblivious store (Figure 8(b)); misses run
    /// the randomized fetch loop of Figure 8(a): keep drawing a random
    /// position in the partition, and as long as the draw lands inside the
    /// already-fetched set `S`, read a random already-fetched block instead
    /// and re-draw. Only when the draw falls outside `S` is the wanted block
    /// actually copied into the cache — so the partition sees reads whose
    /// positions are uniform and independent of the request stream.
    ///
    /// A miss the full store could not take fails with
    /// [`ObliviousError::CapacityExhausted`] before any draw, partition read
    /// or count, so `S`, the DRBG and the stats are as they were.
    pub fn read_block(&mut self, block: BlockId) -> Result<Vec<u8>, ObliviousError> {
        if self.store.contains(block) {
            self.stats.reads_served += 1;
            self.stats.cache_hits += 1;
            return self.store.read(block);
        }
        if self.store.len() >= self.store.config().last_level_blocks as usize {
            return Err(ObliviousError::CapacityExhausted);
        }
        self.stats.reads_served += 1;

        let m = self.steg_partition.num_blocks();
        while self.rng.gen_range(m) < self.fetched.len() as u64 {
            let decoy = self.fetched[self.rng.gen_range(self.fetched.len() as u64) as usize];
            self.read_steg_raw(decoy)?;
            self.stats.steg_dummy_reads += 1;
        }
        let raw = self.read_steg_raw(block)?;
        self.store.insert(block, raw.clone())?;
        self.stats.steg_fetches += 1;
        self.fetched.push(block);
        Ok(raw)
    }

    /// Issue one dummy read against the StegFS partition ("dummy reads are
    /// also mixed in to conceal the real reads", Section 5.1.1).
    pub fn dummy_read(&mut self) -> Result<(), ObliviousError> {
        let block = self.rng.gen_range(self.steg_partition.num_blocks());
        self.read_steg_raw(block)?;
        self.stats.steg_dummy_reads += 1;
        Ok(())
    }

    /// Write-through: update the cached copy of `block` (the caller is
    /// responsible for also updating the StegFS partition through the
    /// update-hiding agent, Section 5.1.2).
    pub fn write_back(&mut self, block: BlockId, raw: Vec<u8>) -> Result<(), ObliviousError> {
        let first = !self.store.contains(block);
        self.store.insert(block, raw)?;
        if first {
            self.stats.steg_fetches += 1;
            self.fetched.push(block);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ObliviousConfig;
    use parking_lot::Mutex;
    use std::collections::HashSet;
    use stegfs_blockdev::{BlockDeviceExt, MemDevice, TracingDevice};
    use stegfs_crypto::Key256;

    const STEG_BLOCK: usize = 512;

    type Front = ObliviousReadFront<TracingDevice<MemDevice>, MemDevice, MemDevice>;

    fn new_front(steg_blocks: u64) -> Front {
        front_over(steg_blocks, ObliviousConfig::new(4, steg_blocks.max(8)))
    }

    fn front_over(steg_blocks: u64, cfg: ObliviousConfig) -> Front {
        let steg = MemDevice::new(steg_blocks, STEG_BLOCK);
        for b in 0..steg_blocks {
            steg.fill_block(b, (b % 251) as u8).unwrap();
        }
        let steg = TracingDevice::new(steg);

        let store_block = ObliviousStore::<MemDevice, MemDevice>::block_size_for_item(STEG_BLOCK);
        let blocks = ObliviousStore::<MemDevice, MemDevice>::blocks_required(&cfg, store_block);
        let sort_blocks = ObliviousStore::<MemDevice, MemDevice>::sort_blocks_required(&cfg);
        let store = ObliviousStore::new(
            MemDevice::new(blocks, store_block),
            MemDevice::new(sort_blocks + 8, store_block + 32),
            cfg,
            Key256::from_passphrase("front master"),
            7,
            None,
        )
        .unwrap();
        ObliviousReadFront::new(steg, store, 99)
    }

    #[test]
    fn reads_return_partition_contents() {
        let mut front = new_front(64);
        for b in [3u64, 17, 40, 3, 17] {
            let data = front.read_block(b).unwrap();
            assert!(data.iter().all(|&x| x == (b % 251) as u8), "block {b}");
        }
        let stats = front.stats();
        assert_eq!(stats.reads_served, 5);
        assert_eq!(stats.steg_fetches, 3, "each block fetched at most once");
        assert_eq!(stats.cache_hits, 2);
    }

    #[test]
    fn each_partition_block_is_fetched_at_most_once() {
        let mut front = new_front(32);
        for round in 0..3 {
            for b in 0..32u64 {
                let data = front.read_block(b).unwrap();
                assert_eq!(data[0], (b % 251) as u8, "round {round}");
            }
        }
        assert_eq!(front.stats().steg_fetches, 32);
    }

    #[test]
    fn decoy_reads_only_touch_already_fetched_blocks() {
        let mut front = new_front(16);
        // Fetch a few blocks, then observe the partition trace: every read
        // must address either a first-time fetch or an already fetched block.
        let mut wanted = HashSet::new();
        for b in [1u64, 5, 9, 13, 2, 6] {
            front.read_block(b).unwrap();
            wanted.insert(b);
        }
        let trace = front.steg_partition().log().records();
        let mut seen = HashSet::new();
        for record in trace {
            // A decoy must target a block that had already been fetched at
            // some earlier point; since only `wanted` blocks ever get
            // fetched, every traced block must be in `wanted`.
            assert!(
                wanted.contains(&record.block),
                "unexpected read of {}",
                record.block
            );
            seen.insert(record.block);
        }
        assert_eq!(seen, wanted);
    }

    /// Regression: a miss the full store could not take used to put its
    /// block into `S` first, so a retry reported a cache hit and then
    /// `NotCached`. It is refused before any partition read, DRBG draw or
    /// count, however often it is retried.
    #[test]
    fn a_miss_on_a_full_store_is_refused_before_any_partition_read() {
        let mut front = front_over(16, ObliviousConfig::new(2, 8));
        let mut twin = front_over(16, ObliviousConfig::new(2, 8));
        for b in 0..8u64 {
            front.read_block(b).unwrap();
            twin.read_block(b).unwrap();
        }
        let (stats, requests) = (front.stats(), front.steg_partition().log().len());
        for _ in 0..3 {
            assert_eq!(front.read_block(8), Err(ObliviousError::CapacityExhausted));
        }
        assert_eq!(front.stats(), stats);
        assert_eq!(front.steg_partition().log().len(), requests);
        assert_eq!(
            front.read_block(5).unwrap()[0],
            5,
            "cached blocks still served"
        );

        // The DRBG drew nothing: the next draws match a twin that never
        // asked for block 8.
        twin.read_block(5).unwrap();
        for f in [&mut front, &mut twin] {
            f.steg_partition().log().clear();
            for _ in 0..8 {
                f.dummy_read().unwrap();
            }
        }
        assert_eq!(
            front.steg_partition().log().records(),
            twin.steg_partition().log().records()
        );
    }

    #[test]
    fn dummy_reads_touch_the_partition() {
        let mut front = new_front(32);
        for _ in 0..10 {
            front.dummy_read().unwrap();
        }
        assert_eq!(front.stats().steg_dummy_reads, 10);
        assert_eq!(front.steg_partition().log().len(), 10);
    }

    #[test]
    fn write_back_updates_cached_copy() {
        let mut front = new_front(32);
        front.read_block(4).unwrap();
        front.write_back(4, vec![0xAB; STEG_BLOCK]).unwrap();
        assert_eq!(front.read_block(4).unwrap(), vec![0xAB; STEG_BLOCK]);
        // Write-back of a never-read block is also cached and served later.
        front.write_back(20, vec![0xCD; STEG_BLOCK]).unwrap();
        assert_eq!(front.read_block(20).unwrap(), vec![0xCD; STEG_BLOCK]);
    }

    /// Threads that share one front through a lock of their own, as the
    /// `&mut self` API asks, still fetch every partition block once.
    #[test]
    fn concurrent_readers_fetch_each_block_once() {
        let front = Mutex::new(new_front(32));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let front = &front;
                s.spawn(move || {
                    for i in 0..64u64 {
                        let b = (t * 11 + i * 3) % 32;
                        let data = front.lock().read_block(b).unwrap();
                        assert_eq!(data[0], (b % 251) as u8, "block {b}");
                    }
                });
            }
        });
        let front = front.into_inner();
        let stats = front.stats();
        assert_eq!(stats.reads_served, 4 * 64);
        assert_eq!(
            stats.steg_fetches, 32,
            "racing readers must not double-fetch a partition block"
        );
        assert!(front.store().membership_is_consistent());
    }

    #[test]
    fn racing_readers_on_a_tiny_partition_terminate() {
        // Regression: a reader that reached the miss loop for a block that a
        // racer had already fetched used to spin on decoy reads forever once
        // every partition block was in `S` (every draw then lands inside
        // `S`). A tiny partition that the readers exhaust, over many fresh
        // fronts, hits that case; the test passing at all is the assertion.
        for round in 0..24u64 {
            let front = Mutex::new(new_front(4));
            std::thread::scope(|s| {
                for t in 0..4u64 {
                    let front = &front;
                    s.spawn(move || {
                        for i in 0..8u64 {
                            let b = (t + i + round) % 4;
                            let data = front.lock().read_block(b).unwrap();
                            assert_eq!(data[0], (b % 251) as u8, "block {b}");
                        }
                    });
                }
            });
            let front = front.into_inner();
            assert_eq!(front.stats().steg_fetches, 4);
            assert!(front.store().membership_is_consistent());
        }
    }
}
