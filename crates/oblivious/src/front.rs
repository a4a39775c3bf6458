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
//! Like the store it fronts, the read front takes `&self` everywhere: the
//! fetch bookkeeping (the set `S` of Figure 8(a)) lives behind a `RwLock`,
//! the draw DRBG behind a `Mutex`, and the counters are relaxed atomics.
//! Lock order: fetch state → DRBG → store locks (a guard on the fetch state
//! may be held while calling into the store, never the reverse).

use parking_lot::{Mutex, RwLock};
use stegfs_blockdev::{BlockDevice, BlockId};
use stegfs_crypto::HashDrbg;

use crate::det::DetHashSet;
use crate::error::ObliviousError;
use crate::store::ObliviousStore;

stegfs_blockdev::counters! {
    /// Counters describing the read front's activity.
    pub struct FrontStats,
    /// The live counters of the `&self` read path.
    struct SharedFrontStats {
        /// Logical block reads served.
        reads_served,
        /// Reads satisfied by the oblivious cache.
        cache_hits,
        /// First-time fetches from the StegFS partition.
        steg_fetches,
        /// Decoy reads issued against the StegFS partition (both the re-draw
        /// reads of Figure 8(a) and explicit dummy reads).
        steg_dummy_reads,
    }
}

/// The already-fetched set `S` of Figure 8(a): insertion-ordered for decoy
/// sampling, hashed for membership checks.
#[derive(Default)]
struct FetchState {
    fetched: Vec<BlockId>,
    fetched_set: DetHashSet<BlockId>,
}

/// The oblivious read front (Figure 8(a)) combining a StegFS partition device
/// with an [`ObliviousStore`] cache.
pub struct ObliviousReadFront<P, D, S> {
    steg_partition: P,
    store: ObliviousStore<D, S>,
    state: RwLock<FetchState>,
    rng: Mutex<HashDrbg>,
    stats: SharedFrontStats,
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
            state: RwLock::new(FetchState::default()),
            rng: Mutex::new(HashDrbg::new(&seed.to_be_bytes())),
            stats: SharedFrontStats::default(),
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

    /// Counters collected so far (a relaxed snapshot; exact at quiescence).
    pub fn stats(&self) -> FrontStats {
        self.stats.snapshot()
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
    pub fn read_block(&self, block: BlockId) -> Result<Vec<u8>, ObliviousError> {
        self.stats.reads_served.inc();
        if self.store.contains(block) {
            self.stats.cache_hits.inc();
            return self.store.read(block);
        }

        let m = self.steg_partition.num_blocks();
        loop {
            // Draw under one DRBG lock with the fetch state held shared, so
            // the draw is compared against the same `|S|` a decoy would be
            // sampled from; the partition wait happens outside both locks.
            let decoy: Option<BlockId> = {
                let state = self.state.read();
                // A racing thread may have fetched `block` after the
                // cache-hit check above. Without this re-check the loop
                // livelocks once every partition block is in `S` (each draw
                // then lands inside `S`, so the genuine-fetch branch — the
                // only other exit — is never taken). The winner inserts into
                // the store before releasing the state write lock, so
                // membership here guarantees the cached copy is in place.
                if state.fetched_set.contains(&block) {
                    drop(state);
                    self.stats.cache_hits.inc();
                    return self.store.read(block);
                }
                let mut rng = self.rng.lock();
                let x = rng.gen_range(m);
                if x < state.fetched.len() as u64 {
                    let idx = rng.gen_range(state.fetched.len() as u64) as usize;
                    Some(state.fetched[idx])
                } else {
                    None
                }
            };
            if let Some(decoy) = decoy {
                let _ = self.read_steg_raw(decoy)?;
                self.stats.steg_dummy_reads.inc();
                continue;
            }

            // Genuine fetch. The racing-fetch check runs under the state
            // write lock, and the winner inserts into the store while still
            // holding it — so a loser that observes `block ∈ S` knows the
            // cache copy is already in place.
            let raw = self.read_steg_raw(block)?;
            let mut state = self.state.write();
            if state.fetched_set.contains(&block) {
                // Another thread fetched it first; our partition read was
                // indistinguishable from a decoy, and the cached copy (which
                // may be fresher than our raw bytes) is authoritative.
                drop(state);
                self.stats.steg_dummy_reads.inc();
                return self.store.read(block);
            }
            self.stats.steg_fetches.inc();
            state.fetched.push(block);
            state.fetched_set.insert(block);
            self.store.insert(block, raw.clone())?;
            return Ok(raw);
        }
    }

    /// Issue one dummy read against the StegFS partition ("dummy reads are
    /// also mixed in to conceal the real reads", Section 5.1.1).
    pub fn dummy_read(&self) -> Result<(), ObliviousError> {
        let m = self.steg_partition.num_blocks();
        let block = self.rng.lock().gen_range(m);
        let _ = self.read_steg_raw(block)?;
        self.stats.steg_dummy_reads.inc();
        Ok(())
    }

    /// Write-through: update the cached copy of `block` (the caller is
    /// responsible for also updating the StegFS partition through the
    /// update-hiding agent, Section 5.1.2).
    pub fn write_back(&self, block: BlockId, raw: Vec<u8>) -> Result<(), ObliviousError> {
        let mut state = self.state.write();
        if self.store.contains(block) || state.fetched_set.contains(&block) {
            self.store.write(block, raw)
        } else {
            self.stats.steg_fetches.inc();
            state.fetched.push(block);
            state.fetched_set.insert(block);
            self.store.insert(block, raw)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ObliviousConfig;
    use std::collections::HashSet;
    use stegfs_blockdev::{BlockDeviceExt, MemDevice, TracingDevice};
    use stegfs_crypto::Key256;

    const STEG_BLOCK: usize = 512;

    fn new_front(
        steg_blocks: u64,
    ) -> ObliviousReadFront<TracingDevice<MemDevice>, MemDevice, MemDevice> {
        let steg = MemDevice::new(steg_blocks, STEG_BLOCK);
        for b in 0..steg_blocks {
            steg.fill_block(b, (b % 251) as u8).unwrap();
        }
        let steg = TracingDevice::new(steg);

        let store_block = ObliviousStore::<MemDevice, MemDevice>::block_size_for_item(STEG_BLOCK);
        let cfg = ObliviousConfig::new(4, steg_blocks.max(8));
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
        let front = new_front(64);
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
        let front = new_front(32);
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
        let front = new_front(16);
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

    #[test]
    fn dummy_reads_touch_the_partition() {
        let front = new_front(32);
        for _ in 0..10 {
            front.dummy_read().unwrap();
        }
        assert_eq!(front.stats().steg_dummy_reads, 10);
        assert_eq!(front.steg_partition().log().len(), 10);
    }

    #[test]
    fn write_back_updates_cached_copy() {
        let front = new_front(32);
        front.read_block(4).unwrap();
        front.write_back(4, vec![0xAB; STEG_BLOCK]).unwrap();
        assert_eq!(front.read_block(4).unwrap(), vec![0xAB; STEG_BLOCK]);
        // Write-back of a never-read block is also cached and served later.
        front.write_back(20, vec![0xCD; STEG_BLOCK]).unwrap();
        assert_eq!(front.read_block(20).unwrap(), vec![0xCD; STEG_BLOCK]);
    }

    #[test]
    fn concurrent_readers_fetch_each_block_once() {
        let front = new_front(32);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let front = &front;
                s.spawn(move || {
                    for i in 0..64u64 {
                        let b = (t * 11 + i * 3) % 32;
                        let data = front.read_block(b).unwrap();
                        assert_eq!(data[0], (b % 251) as u8, "block {b}");
                    }
                });
            }
        });
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
        // Regression: a reader that entered the miss loop before its block
        // was fetched by a racer used to spin on decoy reads forever once
        // every partition block was in `S` (every draw then lands inside
        // `S`). A tiny partition and many fresh fronts hit that window with
        // near-certainty; the test passing at all is the assertion.
        for round in 0..24u64 {
            let front = new_front(4);
            std::thread::scope(|s| {
                for t in 0..4u64 {
                    let front = &front;
                    s.spawn(move || {
                        for i in 0..8u64 {
                            let b = (t + i + round) % 4;
                            let data = front.read_block(b).unwrap();
                            assert_eq!(data[0], (b % 251) as u8, "block {b}");
                        }
                    });
                }
            });
            assert_eq!(front.stats().steg_fetches, 4);
            assert!(front.store().membership_is_consistent());
        }
    }
}
