//! The agent's block map: one class per physical block.
//!
//! The raw volume itself never records which blocks hold data — that is the
//! whole point of the steganographic layout. The *agent*, however, needs to
//! know where it may allocate and which blocks it may dummy-update:
//!
//! * under **Construction 1** it keeps a complete map persistently ("we use
//!   a bitmap to mark data blocks against dummy blocks", Section 6.2) — the
//!   2-bit-per-block wire format of [`ShardedBlockMap::to_bytes`];
//! * under **Construction 2** it starts with an all-unknown map and fills it
//!   in as users log on and disclose their files' FAKs (Section 4.2.2).
//!
//! [`ShardedBlockMap`] is one flat vector of classes, one atomic byte per
//! block, beside four per-class counters. Every tier that owns a map serves
//! one call at a time, so the map needs no lock: a claim is one
//! compare-exchange on the block's byte, a reclassification one swap, and
//! [`ShardedBlockMap::data_blocks`] (the utilisation the Figure 6 loop
//! throttles on) one counter load. The atomics keep the map sound when it
//! is shared by reference anyway.
//!
//! The map holds no shards. Its shard count is a plain number kept for one
//! job, the order in which the agents reseal a dummy batch
//! ([`ShardedBlockMap::shard_of`]); the `sharded_equivalence` proptest
//! drives maps of 1–32 "shards" and a plain `Vec<BlockClass>` through
//! identical operation sequences and requires identical observations.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use stegfs_blockdev::BlockId;

use crate::wire::{Reader, Writer};

/// Default shard count: the grouping the agents reseal a dummy batch by
/// ([`ShardedBlockMap::shard_of`]). It splits nothing.
pub const DEFAULT_MAP_SHARDS: usize = 16;

/// Classification of one physical block from the agent's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockClass {
    /// Reserved for volume metadata (the superblock).
    Reserved,
    /// Known to hold live data: a file header, indirect block or content
    /// block of a registered hidden file.
    Data,
    /// Abandoned / dummy: contains random bytes (or belongs to a dummy file)
    /// and may be overwritten or dummy-updated freely.
    Dummy,
    /// Not yet classified — the Construction 2 agent has not seen a file
    /// covering this block. Unknown blocks must not be allocated (they might
    /// belong to a user who has not logged in) and cannot be dummy-updated
    /// (the agent has no key for them).
    Unknown,
}

impl BlockClass {
    /// Dense index of the class: its 2-bit wire code, its byte in the map
    /// and its slot in the map's per-class counters.
    pub(crate) fn index(self) -> usize {
        match self {
            BlockClass::Reserved => 0,
            BlockClass::Data => 1,
            BlockClass::Dummy => 2,
            BlockClass::Unknown => 3,
        }
    }

    fn bits(self) -> u8 {
        self.index() as u8
    }

    fn from_bits(bits: u8) -> Self {
        match bits & 0b11 {
            0 => BlockClass::Reserved,
            1 => BlockClass::Data,
            2 => BlockClass::Dummy,
            _ => BlockClass::Unknown,
        }
    }
}

/// A map from physical block number to [`BlockClass`], safe to share
/// across threads by reference.
///
/// Every access is relaxed: each block's byte is its own atomic, so a
/// compare-exchange can never hand one block to two claimers whatever the
/// ordering, and the map publishes nothing else — the tiers that need a
/// happens-before hold their own lock. The counters are exact at
/// quiescence; mid-flight a reader may see a transfer's decrement before
/// its increment.
#[derive(Debug)]
pub struct ShardedBlockMap {
    /// `BlockClass::index()` of every block, block 0 first.
    classes: Vec<AtomicU8>,
    /// Per-class block counts, indexed by class.
    counts: [AtomicU64; 4],
    /// The dummy-batch reseal grouping of [`ShardedBlockMap::shard_of`].
    num_shards: usize,
}

impl ShardedBlockMap {
    /// The map of `classes` (block 0 first), counted in the same one pass,
    /// over [`DEFAULT_MAP_SHARDS`] shards.
    fn counted(classes: impl Iterator<Item = BlockClass>) -> Self {
        let mut counts = [0u64; 4];
        let classes = classes
            .map(|class| {
                counts[class.index()] += 1;
                AtomicU8::new(class.bits())
            })
            .collect();
        Self {
            classes,
            counts: counts.map(AtomicU64::new),
            num_shards: DEFAULT_MAP_SHARDS,
        }
    }

    /// Create a map of `num_blocks` blocks, every block `fill` except block
    /// 0 which is [`BlockClass::Reserved`].
    fn new_filled(num_blocks: u64, num_shards: usize, fill: BlockClass) -> Self {
        let class = |b| if b == 0 { BlockClass::Reserved } else { fill };
        Self::counted((0..num_blocks).map(class)).with_shards(num_shards)
    }

    /// All-unknown map (the Construction 2 agent's zero-knowledge start).
    pub fn new_unknown(num_blocks: u64, num_shards: usize) -> Self {
        Self::new_filled(num_blocks, num_shards, BlockClass::Unknown)
    }

    /// All-dummy map (the view of a freshly formatted volume).
    pub fn new_all_dummy(num_blocks: u64, num_shards: usize) -> Self {
        Self::new_filled(num_blocks, num_shards, BlockClass::Dummy)
    }

    /// The same classification under another shard count, which changes
    /// only the dummy-batch reseal grouping.
    pub fn with_shards(self, num_shards: usize) -> Self {
        assert!(num_shards > 0, "shard count must be positive");
        Self { num_shards, ..self }
    }

    /// Serialize to the compact persisted form that a Construction 1 agent
    /// keeps beside its key: an 8-byte little-endian block count followed
    /// by 2 bits per block, four blocks per byte, low bits first. The shard
    /// count is not part of the format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(8 + self.classes.len().div_ceil(4));
        w.u64(self.num_blocks());
        for quad in self.classes.chunks(4) {
            let byte = quad.iter().enumerate().fold(0u8, |byte, (i, class)| {
                byte | class.load(Ordering::Relaxed) << (i * 2)
            });
            w.u8(byte);
        }
        w.finish()
    }

    /// Reconstruct a map (over [`DEFAULT_MAP_SHARDS`] shards) from
    /// [`ShardedBlockMap::to_bytes`] output. `None` unless the byte length
    /// matches the declared block count exactly — so a hostile count is
    /// checked against the bytes actually supplied before anything is
    /// allocated for it — and block 0 is [`BlockClass::Reserved`].
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let n = usize::try_from(r.u64().ok()?).ok()?;
        let packed = r.bytes(n.div_ceil(4)).ok()?;
        if !r.rest().is_empty() {
            return None;
        }
        let map =
            Self::counted((0..n).map(|i| BlockClass::from_bits(packed[i / 4] >> ((i % 4) * 2))));
        (n == 0 || map.class(0) == BlockClass::Reserved).then_some(map)
    }

    /// The reseal grouping number: what [`ShardedBlockMap::shard_of`]
    /// divides by.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Number of blocks covered.
    pub fn num_blocks(&self) -> u64 {
        self.classes.len() as u64
    }

    /// `block % num_shards` — the order in which the agents reseal a dummy
    /// batch (groups ascending). No storage layout follows it.
    pub fn shard_of(&self, block: BlockId) -> usize {
        (block % self.num_shards as u64) as usize
    }

    fn slot(&self, block: BlockId) -> &AtomicU8 {
        assert!(block < self.num_blocks(), "block {block} out of range");
        &self.classes[block as usize]
    }

    /// Classification of `block`.
    pub fn class(&self, block: BlockId) -> BlockClass {
        BlockClass::from_bits(self.slot(block).load(Ordering::Relaxed))
    }

    /// Move one block's worth of count from `from` to `to`, after the
    /// block's byte changed.
    fn transfer_count(&self, from: BlockClass, to: BlockClass) {
        self.counts[from.index()].fetch_sub(1, Ordering::Relaxed);
        self.counts[to.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Reclassify `block` through a shared reference.
    pub fn set(&self, block: BlockId, class: BlockClass) {
        let old = BlockClass::from_bits(self.slot(block).swap(class.bits(), Ordering::Relaxed));
        if old != class {
            self.transfer_count(old, class);
        }
    }

    /// Atomically reclassify `block` from `from` to `to`; returns whether the
    /// block was in class `from`. One compare-exchange, so two threads can
    /// never claim the same block.
    pub fn claim(&self, block: BlockId, from: BlockClass, to: BlockClass) -> bool {
        let won = self
            .slot(block)
            .compare_exchange(from.bits(), to.bits(), Ordering::Relaxed, Ordering::Relaxed)
            .is_ok();
        if won && from != to {
            self.transfer_count(from, to);
        }
        won
    }

    fn count_of(&self, class: BlockClass) -> u64 {
        self.counts[class.index()].load(Ordering::Relaxed)
    }

    /// Number of data blocks — one counter load, no scan.
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
        let payload = self.num_blocks().saturating_sub(1);
        if payload == 0 {
            0.0
        } else {
            self.data_blocks() as f64 / payload as f64
        }
    }

    /// Blocks in a given class, ascending.
    pub fn blocks_in_class(&self, class: BlockClass) -> Vec<BlockId> {
        (0..self.num_blocks())
            .filter(|&b| self.class(b) == class)
            .collect()
    }

    /// Whether the per-class counters agree with a full recount of the
    /// class vector — the conservation invariant the stress suite checks
    /// after concurrent runs. (Call at quiescence: a recount races with
    /// in-flight writers.)
    pub fn counters_are_consistent(&self) -> bool {
        let mut totals = [0u64; 4];
        for class in &self.classes {
            totals[usize::from(class.load(Ordering::Relaxed))] += 1;
        }
        (totals.iter().zip(&self.counts))
            .all(|(&total, count)| total == count.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_all_dummy_counts() {
        let map = ShardedBlockMap::new_all_dummy(100, 1);
        assert_eq!(map.num_blocks(), 100);
        assert_eq!(map.class(0), BlockClass::Reserved);
        assert_eq!(map.class(1), BlockClass::Dummy);
        assert_eq!(map.dummy_blocks(), 99);
        assert_eq!(map.data_blocks(), 0);
        assert_eq!(map.utilisation(), 0.0);
    }

    #[test]
    fn set_updates_counts() {
        let map = ShardedBlockMap::new_all_dummy(10, 1);
        map.set(3, BlockClass::Data);
        map.set(4, BlockClass::Data);
        assert_eq!(map.data_blocks(), 2);
        assert_eq!(map.dummy_blocks(), 7);
        map.set(3, BlockClass::Dummy);
        assert_eq!(map.data_blocks(), 1);
        assert_eq!(map.dummy_blocks(), 8);
        // Setting the same class twice is a no-op.
        map.set(4, BlockClass::Data);
        assert_eq!(map.data_blocks(), 1);
    }

    #[test]
    fn utilisation_matches_definition() {
        let map = ShardedBlockMap::new_all_dummy(101, 1);
        for b in 1..=25 {
            map.set(b, BlockClass::Data);
        }
        assert!((map.utilisation() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn unknown_map_starts_unclassified() {
        let map = ShardedBlockMap::new_unknown(10, 1);
        assert_eq!(map.class(0), BlockClass::Reserved);
        assert_eq!(map.class(5), BlockClass::Unknown);
        assert_eq!(map.data_blocks(), 0);
        assert_eq!(map.dummy_blocks(), 0);
    }

    #[test]
    fn blocks_in_class_iterates() {
        let map = ShardedBlockMap::new_all_dummy(10, 1);
        map.set(2, BlockClass::Data);
        map.set(7, BlockClass::Data);
        assert_eq!(map.blocks_in_class(BlockClass::Data), vec![2, 7]);
    }

    #[test]
    fn serialization_roundtrip() {
        // 37 blocks: the last byte carries one block and three padding pairs.
        let map = ShardedBlockMap::new_all_dummy(37, 5);
        map.set(5, BlockClass::Data);
        map.set(11, BlockClass::Unknown);
        map.set(36, BlockClass::Data);
        let bytes = map.to_bytes();
        assert_eq!(bytes.len(), 8 + 10);
        // Block 0 Reserved (00), blocks 1–3 Dummy (10): low bits first.
        assert_eq!(bytes[8], 0b10_10_10_00);
        let restored = ShardedBlockMap::from_bytes(&bytes).unwrap();
        for b in 0..37 {
            assert_eq!(restored.class(b), map.class(b), "block {b}");
        }
        assert_eq!(restored.data_blocks(), 2);
        assert_eq!(restored.dummy_blocks(), 33);
        assert!(restored.counters_are_consistent());
        assert_eq!(restored.to_bytes(), bytes);
    }

    #[test]
    fn from_bytes_rejects_truncated_input() {
        let bytes = ShardedBlockMap::new_all_dummy(64, 4).to_bytes();
        assert!(ShardedBlockMap::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        assert!(ShardedBlockMap::from_bytes(&[1, 2, 3]).is_none());
    }

    /// Bytes produced by the encoder as it stood before the port onto
    /// `wire`: the format must not move.
    #[test]
    fn golden_vector_is_bit_identical() {
        const GOLDEN_CLASSES: &[u8] = b"\
            \x0b\x00\x00\x00\x00\x00\x00\x00\xe4\xa5\x1b";
        use BlockClass::*;
        let classes = [
            Reserved, Data, Dummy, Unknown, Data, Data, Dummy, Dummy, Unknown, Dummy, Data,
        ];
        let map = ShardedBlockMap::new_unknown(classes.len() as u64, 1);
        for (b, &class) in classes.iter().enumerate() {
            map.set(b as BlockId, class);
        }
        assert_eq!(map.to_bytes(), GOLDEN_CLASSES);
        let decoded = ShardedBlockMap::from_bytes(GOLDEN_CLASSES).unwrap();
        for (b, &class) in classes.iter().enumerate() {
            assert_eq!(decoded.class(b as BlockId), class, "block {b}");
        }
    }

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
        // Through one shard and back: the grouping number moves no class
        // and no byte of the persisted form.
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
