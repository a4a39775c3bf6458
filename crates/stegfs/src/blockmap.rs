//! Block classes and the persisted form of the agent's block map.
//!
//! The raw volume itself never records which blocks hold data — that is the
//! whole point of the steganographic layout. The *agent*, however, needs to
//! know where it may allocate and which blocks it may dummy-update:
//!
//! * under **Construction 1** it keeps a complete map persistently ("we use
//!   a bitmap to mark data blocks against dummy blocks", Section 6.2) — the
//!   2-bit-per-block wire format below;
//! * under **Construction 2** it starts with an all-unknown map and fills it
//!   in as users log on and disclose their files' FAKs (Section 4.2.2).
//!
//! The map itself is [`ShardedBlockMap`](crate::ShardedBlockMap).

use crate::wire::{Reader, Writer};

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
    /// Dense index of the class: its 2-bit wire code and its slot in the
    /// map's per-class counters.
    pub(crate) fn index(self) -> usize {
        match self {
            BlockClass::Reserved => 0,
            BlockClass::Data => 1,
            BlockClass::Dummy => 2,
            BlockClass::Unknown => 3,
        }
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

/// Encode `classes` (block 0 first) as an 8-byte little-endian block count
/// followed by 2 bits per block, four blocks per byte, low bits first.
pub(crate) fn encode_classes(classes: &[BlockClass]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(classes.len() as u64);
    for quad in classes.chunks(4) {
        let mut byte = 0u8;
        for (i, &class) in quad.iter().enumerate() {
            byte |= (class.index() as u8) << (i * 2);
        }
        w.u8(byte);
    }
    w.finish()
}

/// Decode [`encode_classes`] output. `None` unless the byte length matches
/// the declared block count exactly — so a hostile count is checked against
/// the bytes actually supplied before anything is allocated for it — and
/// block 0 is [`BlockClass::Reserved`].
pub(crate) fn decode_classes(bytes: &[u8]) -> Option<Vec<BlockClass>> {
    let mut r = Reader::new(bytes);
    let n = usize::try_from(r.u64().ok()?).ok()?;
    let packed = r.bytes(n.div_ceil(4)).ok()?;
    if !r.rest().is_empty() {
        return None;
    }
    let classes: Vec<BlockClass> = (0..n)
        .map(|i| BlockClass::from_bits(packed[i / 4] >> ((i % 4) * 2)))
        .collect();
    matches!(classes.first(), None | Some(BlockClass::Reserved)).then_some(classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedBlockMap;

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
        assert_eq!(encode_classes(&classes), GOLDEN_CLASSES);
        assert_eq!(decode_classes(GOLDEN_CLASSES).unwrap(), classes);
    }
}
