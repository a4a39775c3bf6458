//! Property tests: [`ShardedBlockMap`] must be observationally identical to
//! a plain `Vec<BlockClass>` under every operation sequence and every shard
//! count — the shard count is only the agents' dummy-batch reseal grouping
//! and may never change a classification result.
//! Same shape as `blockdev/tests/batched_equivalence.rs`: drive the map and
//! the oracle through one generated op stream and require identical
//! `class()` / `data_blocks()` / `dummy_blocks()` / `utilisation()`
//! observations at every step. The persisted form is held to the same
//! standard from the other side: hostile bytes decode to `None` or to a
//! consistent map, never to a panic.

use proptest::prelude::*;
use stegfs_base::{BlockClass, ShardedBlockMap};

const NUM_BLOCKS: u64 = 96;

/// One generated operation on the map.
#[derive(Debug, Clone, Copy)]
enum MapOp {
    Set(u64, BlockClass),
    Claim(u64, BlockClass, BlockClass),
}

fn class_of(tag: u8) -> BlockClass {
    match tag % 4 {
        0 => BlockClass::Reserved,
        1 => BlockClass::Data,
        2 => BlockClass::Dummy,
        _ => BlockClass::Unknown,
    }
}

fn ops_strategy() -> impl Strategy<Value = Vec<MapOp>> {
    proptest::collection::vec(
        (0u64..NUM_BLOCKS, any::<u8>(), any::<u8>(), any::<bool>()),
        1..60,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(block, a, b, is_claim)| {
                if is_claim {
                    MapOp::Claim(block, class_of(a), class_of(b))
                } else {
                    MapOp::Set(block, class_of(a))
                }
            })
            .collect()
    })
}

/// The oracle: one class per block, counted by scanning.
struct Oracle(Vec<BlockClass>);

impl Oracle {
    fn new_all_dummy() -> Self {
        let mut classes = vec![BlockClass::Dummy; NUM_BLOCKS as usize];
        classes[0] = BlockClass::Reserved;
        Self(classes)
    }

    fn apply(&mut self, op: MapOp) -> Option<bool> {
        match op {
            MapOp::Set(block, class) => {
                self.0[block as usize] = class;
                None
            }
            MapOp::Claim(block, from, to) => {
                let hit = self.0[block as usize] == from;
                if hit {
                    self.0[block as usize] = to;
                }
                Some(hit)
            }
        }
    }

    fn blocks_in_class(&self, class: BlockClass) -> Vec<u64> {
        (0..NUM_BLOCKS)
            .filter(|&b| self.0[b as usize] == class)
            .collect()
    }
}

fn assert_maps_agree(
    oracle: &Oracle,
    sharded: &ShardedBlockMap,
    context: &str,
) -> Result<(), TestCaseError> {
    let data = oracle.blocks_in_class(BlockClass::Data).len() as u64;
    prop_assert_eq!(
        data,
        sharded.data_blocks(),
        "data counts diverge {}",
        context
    );
    prop_assert_eq!(
        oracle.blocks_in_class(BlockClass::Dummy).len() as u64,
        sharded.dummy_blocks(),
        "dummy counts diverge {}",
        context
    );
    prop_assert!(
        (data as f64 / (NUM_BLOCKS - 1) as f64 - sharded.utilisation()).abs() < 1e-12,
        "utilisation diverges {}",
        context
    );
    Ok(())
}

proptest! {
    /// Identical op sequences produce identical observations, for every shard
    /// count from degenerate (1) to more shards than blocks: the grouping
    /// number changes no observation.
    #[test]
    fn sharded_map_matches_scalar(ops in ops_strategy(), shards in 1usize..33) {
        let mut oracle = Oracle::new_all_dummy();
        let sharded = ShardedBlockMap::new_all_dummy(NUM_BLOCKS, shards);

        for (i, &op) in ops.iter().enumerate() {
            let expected_claim = oracle.apply(op);
            match op {
                MapOp::Set(block, class) => sharded.set(block, class),
                MapOp::Claim(block, from, to) => {
                    prop_assert_eq!(
                        expected_claim, Some(sharded.claim(block, from, to)),
                        "claim outcome diverges at op {}", i
                    );
                }
            }
            prop_assert_eq!(
                oracle.0[op.block() as usize],
                sharded.class(op.block()),
                "class diverges after op {}",
                i
            );
            assert_maps_agree(&oracle, &sharded, &format!("after op {i}"))?;
        }

        // Full sweep at the end: every block's class and the per-class
        // iteration agree.
        for b in 0..NUM_BLOCKS {
            prop_assert_eq!(oracle.0[b as usize], sharded.class(b), "final class of {}", b);
        }
        for class in [
            BlockClass::Reserved,
            BlockClass::Data,
            BlockClass::Dummy,
            BlockClass::Unknown,
        ] {
            prop_assert_eq!(oracle.blocks_in_class(class), sharded.blocks_in_class(class));
        }
        prop_assert!(sharded.counters_are_consistent());
    }

    /// Changing the shard count, and a trip through the persisted form, are
    /// both the identity on classifications (and on the persisted bytes).
    #[test]
    fn resharding_roundtrips(ops in ops_strategy(), from in 1usize..33, to in 1usize..33) {
        let mut oracle = Oracle::new_all_dummy();
        let sharded = ShardedBlockMap::new_all_dummy(NUM_BLOCKS, from);
        for &op in &ops {
            // Block 0 stays Reserved, as on every real volume (the persisted
            // form insists on it).
            if let MapOp::Set(block @ 1.., class) = op {
                oracle.apply(op);
                sharded.set(block, class);
            }
        }
        let bytes = sharded.to_bytes();
        let resharded = sharded.with_shards(to);
        prop_assert_eq!(resharded.num_shards(), to);
        let restored = ShardedBlockMap::from_bytes(&bytes).expect("own output decodes");
        for map in [&resharded, &restored] {
            for b in 0..NUM_BLOCKS {
                prop_assert_eq!(oracle.0[b as usize], map.class(b), "class of {}", b);
            }
            prop_assert!(map.counters_are_consistent());
            prop_assert_eq!(&map.to_bytes(), &bytes);
        }
    }

    /// Mutate-and-decode: truncations, extensions, a hostile block count and
    /// byte flips of a valid encoding all decode to `None` or to a map that
    /// is internally consistent and re-encodes to exactly the bytes it was
    /// given. A count far beyond the supplied bytes is refused before any
    /// allocation is sized from it.
    #[test]
    fn hostile_map_bytes_never_panic(
        blocks in 0u64..200,
        cut in any::<u16>(),
        extra in proptest::collection::vec(any::<u8>(), 0..4),
        count in any::<u64>(),
        flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..4),
    ) {
        let valid = ShardedBlockMap::new_all_dummy(blocks, 3).to_bytes();
        prop_assert!(ShardedBlockMap::from_bytes(&valid).is_some());

        let truncated = &valid[..cut as usize % valid.len()];
        prop_assert!(ShardedBlockMap::from_bytes(truncated).is_none());

        if !extra.is_empty() {
            let mut trailing = valid.clone();
            trailing.extend_from_slice(&extra);
            prop_assert!(ShardedBlockMap::from_bytes(&trailing).is_none());
        }

        let mut oversized = valid.clone();
        oversized[..8].copy_from_slice(&count.to_le_bytes());
        if count.div_ceil(4) != blocks.div_ceil(4) {
            prop_assert!(ShardedBlockMap::from_bytes(&oversized).is_none());
        }

        if blocks > 0 {
            let mut unreserved = valid.clone();
            unreserved[8] |= 0b01;
            prop_assert!(ShardedBlockMap::from_bytes(&unreserved).is_none());
        }

        let mut flipped = valid.clone();
        for &(at, xor) in &flips {
            let at = at as usize % flipped.len();
            flipped[at] ^= xor;
        }
        if let Some(map) = ShardedBlockMap::from_bytes(&flipped) {
            prop_assert!(map.counters_are_consistent());
            prop_assert_eq!(map.class(0), BlockClass::Reserved);
            prop_assert_eq!(map.num_blocks().div_ceil(4) as usize, flipped.len() - 8);
        }
    }
}

impl MapOp {
    fn block(&self) -> u64 {
        match *self {
            MapOp::Set(b, _) | MapOp::Claim(b, _, _) => b,
        }
    }
}
