//! The agent's block classification map.
//!
//! [`ShardedBlockMap`] splits the map into `N` shards keyed by
//! `block_id % N`, each behind its own `parking_lot::RwLock`, so every
//! operation takes `&self` and classifications and reclassifications on
//! different shards proceed in parallel. Per-class counters are map-global
//! relaxed atomics maintained alongside the class changes, so
//! [`ShardedBlockMap::data_blocks`] (and the utilisation the Figure 6 loop
//! depends on) is a single lock-free load — it never takes a shard lock and
//! never sweeps a class vector.
//!
//! The shard count is invisible to everything but contention: the
//! `sharded_equivalence` proptest drives maps of 1–32 shards and a plain
//! `Vec<BlockClass>` through identical operation sequences and requires
//! identical `class()` / `data_blocks()` / `utilisation()` results.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use stegfs_blockdev::BlockId;

use crate::blockmap::{decode_classes, encode_classes, BlockClass};

/// Default shard count: enough to spread the map's readers and claims over
/// an 8–32-thread serving layer with negligible per-shard memory overhead.
/// The agents keep it for their maps and group a dummy batch's reseals by
/// it.
pub const DEFAULT_MAP_SHARDS: usize = 16;

/// One shard: the classes of every block `b` with `b % num_shards == index`,
/// stored at position `b / num_shards`.
#[derive(Debug)]
struct Shard {
    classes: Vec<BlockClass>,
}

/// A sharded map from physical block number to [`BlockClass`], safe to share
/// across threads by reference.
#[derive(Debug)]
pub struct ShardedBlockMap {
    shards: Vec<RwLock<Shard>>,
    /// Map-global per-class counts indexed by class. Updated with
    /// relaxed RMWs *while the owning shard's write lock is held* (so each
    /// class change is paired with its counter transfer), read with relaxed
    /// loads and **no** shard lock: `data_blocks()` / `utilisation()` on the
    /// hot Figure 6 path cost four atomic loads regardless of shard count or
    /// write traffic.
    counts: [AtomicU64; 4],
    num_blocks: u64,
}

impl ShardedBlockMap {
    /// Create a map of `num_blocks` blocks split over `num_shards` shards,
    /// every block `fill` except block 0 which is [`BlockClass::Reserved`].
    fn new_filled(num_blocks: u64, num_shards: usize, fill: BlockClass) -> Self {
        assert!(num_shards > 0, "shard count must be positive");
        let mut shards: Vec<Shard> = (0..num_shards)
            .map(|s| {
                // Shard s holds blocks s, s + N, s + 2N, …
                let len = (num_blocks.saturating_sub(s as u64)).div_ceil(num_shards as u64);
                Shard {
                    classes: vec![fill; len as usize],
                }
            })
            .collect();
        let counts: [AtomicU64; 4] = Default::default();
        counts[fill.index()].store(num_blocks, Ordering::Relaxed);
        if num_blocks > 0 {
            counts[fill.index()].fetch_sub(1, Ordering::Relaxed);
            counts[BlockClass::Reserved.index()].fetch_add(1, Ordering::Relaxed);
            shards[0].classes[0] = BlockClass::Reserved;
        }
        Self {
            shards: shards.into_iter().map(RwLock::new).collect(),
            counts,
            num_blocks,
        }
    }

    /// All-unknown map (the Construction 2 agent's zero-knowledge start).
    pub fn new_unknown(num_blocks: u64, num_shards: usize) -> Self {
        Self::new_filled(num_blocks, num_shards, BlockClass::Unknown)
    }

    /// All-dummy map (the view of a freshly formatted volume).
    pub fn new_all_dummy(num_blocks: u64, num_shards: usize) -> Self {
        Self::new_filled(num_blocks, num_shards, BlockClass::Dummy)
    }

    fn from_classes(classes: &[BlockClass], num_shards: usize) -> Self {
        let map = Self::new_filled(classes.len() as u64, num_shards, BlockClass::Unknown);
        for (b, &class) in classes.iter().enumerate() {
            map.set(b as BlockId, class);
        }
        map
    }

    /// Every block's class, block 0 first.
    fn classes(&self) -> Vec<BlockClass> {
        (0..self.num_blocks).map(|b| self.class(b)).collect()
    }

    /// The same classification split over `num_shards` shards — the shard
    /// count changes contention, nothing else.
    pub fn with_shards(self, num_shards: usize) -> Self {
        if num_shards == self.shards.len() {
            return self;
        }
        Self::from_classes(&self.classes(), num_shards)
    }

    /// Serialize to the compact persisted form (2 bits per block) that a
    /// Construction 1 agent keeps beside its key. The shard count is not
    /// part of the format.
    pub fn to_bytes(&self) -> Vec<u8> {
        encode_classes(&self.classes())
    }

    /// Reconstruct a map (over [`DEFAULT_MAP_SHARDS`] shards) from
    /// [`ShardedBlockMap::to_bytes`] output; `None` for anything that is not
    /// exactly one well-formed map.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        decode_classes(bytes).map(|classes| Self::from_classes(&classes, DEFAULT_MAP_SHARDS))
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of blocks covered.
    pub fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    /// The shard index responsible for `block` — the order in which the
    /// agents reseal a dummy batch (shards ascending).
    pub fn shard_of(&self, block: BlockId) -> usize {
        (block % self.shards.len() as u64) as usize
    }

    /// Classification of `block`.
    pub fn class(&self, block: BlockId) -> BlockClass {
        assert!(block < self.num_blocks, "block {block} out of range");
        let shard = self.shards[self.shard_of(block)].read();
        shard.classes[(block / self.shards.len() as u64) as usize]
    }

    /// Transfer one block's worth of count from `from` to `to`. Callers hold
    /// the owning shard's write lock, which orders the transfer with the
    /// class change it mirrors; relaxed is enough because readers only ever
    /// sum the counters, never use them to synchronise.
    fn transfer_count(&self, from: BlockClass, to: BlockClass) {
        self.counts[from.index()].fetch_sub(1, Ordering::Relaxed);
        self.counts[to.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Reclassify `block` through a shared reference.
    pub fn set(&self, block: BlockId, class: BlockClass) {
        assert!(block < self.num_blocks, "block {block} out of range");
        let mut shard = self.shards[self.shard_of(block)].write();
        let idx = (block / self.shards.len() as u64) as usize;
        let old = shard.classes[idx];
        if old == class {
            return;
        }
        self.transfer_count(old, class);
        shard.classes[idx] = class;
    }

    /// Atomically reclassify `block` from `from` to `to`; returns whether the
    /// block was in class `from`. The check and the reclassification happen
    /// under one shard write lock, so two threads can never claim the same
    /// block.
    pub fn claim(&self, block: BlockId, from: BlockClass, to: BlockClass) -> bool {
        assert!(block < self.num_blocks, "block {block} out of range");
        let mut shard = self.shards[self.shard_of(block)].write();
        let idx = (block / self.shards.len() as u64) as usize;
        if shard.classes[idx] != from {
            return false;
        }
        if from != to {
            self.transfer_count(from, to);
            shard.classes[idx] = to;
        }
        true
    }

    fn count_of(&self, class: BlockClass) -> u64 {
        self.counts[class.index()].load(Ordering::Relaxed)
    }

    /// Number of data blocks — one relaxed atomic load, no shard lock. Exact
    /// at quiescence; while writers are mid-flight a reader may observe a
    /// transfer's decrement before its increment (the counters momentarily
    /// undercount by in-flight transfers), which is fine for the utilisation
    /// throttle this feeds.
    pub fn data_blocks(&self) -> u64 {
        self.count_of(BlockClass::Data)
    }

    /// Number of dummy blocks.
    pub fn dummy_blocks(&self) -> u64 {
        self.count_of(BlockClass::Dummy)
    }

    /// Number of unknown blocks.
    pub fn unknown_blocks(&self) -> u64 {
        self.count_of(BlockClass::Unknown)
    }

    /// Number of reserved blocks.
    pub fn reserved_blocks(&self) -> u64 {
        self.count_of(BlockClass::Reserved)
    }

    /// Space utilisation as the paper defines it: fraction of the payload
    /// blocks that hold data. (`D/N` complement; Section 4.1.5 expresses the
    /// update overhead as `N/D` where `D` is the number of dummy blocks.)
    pub fn utilisation(&self) -> f64 {
        let payload = self.num_blocks.saturating_sub(1);
        if payload == 0 {
            0.0
        } else {
            self.data_blocks() as f64 / payload as f64
        }
    }

    /// Blocks in a given class, ascending. (A materialised `Vec` rather than
    /// an iterator: the shard locks must not be held across caller code.)
    pub fn blocks_in_class(&self, class: BlockClass) -> Vec<BlockId> {
        let n = self.shards.len() as u64;
        let mut out = Vec::new();
        for (s, shard) in self.shards.iter().enumerate() {
            let shard = shard.read();
            for (i, &c) in shard.classes.iter().enumerate() {
                if c == class {
                    out.push(i as u64 * n + s as u64);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Whether the lock-free per-class counters agree with a full recount of
    /// every shard's class vector and the totals cover the whole volume —
    /// the conservation invariant the stress suite checks after concurrent
    /// runs. (Call at quiescence: a recount races with in-flight writers.)
    pub fn counters_are_consistent(&self) -> bool {
        let mut totals = [0u64; 4];
        for shard in &self.shards {
            let shard = shard.read();
            for &c in &shard.classes {
                totals[c.index()] += 1;
            }
        }
        let cached: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        totals[..] == cached[..] && totals.iter().sum::<u64>() == self.num_blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_all_dummy_matches_scalar_counts() {
        let sharded = ShardedBlockMap::new_all_dummy(100, 7);
        let scalar = ShardedBlockMap::new_all_dummy(100, 1);
        assert_eq!(sharded.num_blocks(), 100);
        assert_eq!(sharded.num_shards(), 7);
        assert_eq!(sharded.class(0), BlockClass::Reserved);
        assert_eq!(sharded.class(1), BlockClass::Dummy);
        assert_eq!(sharded.data_blocks(), scalar.data_blocks());
        assert_eq!(sharded.dummy_blocks(), scalar.dummy_blocks());
        assert_eq!(sharded.reserved_blocks(), 1);
        assert_eq!(sharded.unknown_blocks(), 0);
        assert!(sharded.counters_are_consistent());
    }

    #[test]
    fn set_and_claim_update_cached_counters() {
        let map = ShardedBlockMap::new_all_dummy(64, 4);
        map.set(3, BlockClass::Data);
        map.set(17, BlockClass::Data);
        assert_eq!(map.data_blocks(), 2);
        assert_eq!(map.dummy_blocks(), 61);
        assert!(map.claim(5, BlockClass::Dummy, BlockClass::Data));
        assert!(!map.claim(5, BlockClass::Dummy, BlockClass::Data));
        assert_eq!(map.data_blocks(), 3);
        // Same-class set is a no-op.
        map.set(3, BlockClass::Data);
        assert_eq!(map.data_blocks(), 3);
        assert!(map.counters_are_consistent());
    }

    #[test]
    fn utilisation_matches_scalar_definition() {
        let sharded = ShardedBlockMap::new_all_dummy(101, 8);
        let scalar = ShardedBlockMap::new_all_dummy(101, 1);
        for b in 1..=25 {
            sharded.set(b, BlockClass::Data);
            scalar.set(b, BlockClass::Data);
        }
        assert!((sharded.utilisation() - scalar.utilisation()).abs() < 1e-12);
        assert!((sharded.utilisation() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn blocks_in_class_sorted_ascending() {
        let map = ShardedBlockMap::new_all_dummy(40, 3);
        map.set(2, BlockClass::Data);
        map.set(31, BlockClass::Data);
        map.set(7, BlockClass::Data);
        assert_eq!(map.blocks_in_class(BlockClass::Data), vec![2, 7, 31]);
    }

    #[test]
    fn scalar_roundtrip_preserves_classes() {
        // Through the one-shard layout and back: resharding moves every
        // block to a different (shard, slot) and must lose nothing.
        let sharded = ShardedBlockMap::new_all_dummy(50, 6);
        sharded.set(5, BlockClass::Data);
        sharded.set(11, BlockClass::Unknown);
        sharded.set(49, BlockClass::Data);
        let bytes = sharded.to_bytes();
        let scalar = sharded.with_shards(1);
        assert_eq!(scalar.num_shards(), 1);
        assert_eq!(scalar.to_bytes(), bytes);
        assert!(scalar.counters_are_consistent());
        let back = scalar.with_shards(6);
        assert_eq!(back.num_shards(), 6);
        assert_eq!(back.class(5), BlockClass::Data);
        assert_eq!(back.class(11), BlockClass::Unknown);
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.data_blocks(), 2);
        assert!(back.counters_are_consistent());
    }

    #[test]
    fn concurrent_claims_never_double_allocate() {
        let map = std::sync::Arc::new(ShardedBlockMap::new_all_dummy(1024, 8));
        let claimed: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let map = map.clone();
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        for b in 1..1024u64 {
                            if map.claim(b, BlockClass::Dummy, BlockClass::Data) {
                                mine.push(b);
                            }
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut all: Vec<u64> = claimed.into_iter().flatten().collect();
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total, "a block was claimed twice");
        assert_eq!(total, 1023, "every dummy block claimed exactly once");
        assert_eq!(map.data_blocks(), 1023);
        assert!(map.counters_are_consistent());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_class_panics() {
        let map = ShardedBlockMap::new_all_dummy(10, 2);
        map.class(10);
    }
}
