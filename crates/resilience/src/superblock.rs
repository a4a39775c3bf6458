//! The replicated, self-healing volume anchor.
//!
//! The anchor extends the plaintext superblock of block 0 with a generation
//! counter and an opaque sealed payload (the store keeps its file-access-key
//! table there), and replicates the whole structure 3 ways: block 0, the
//! middle block and the last block of the volume. Each replica carries an
//! HMAC-SHA-256 over its content *and its slot index*, so a corrupt replica,
//! a stale replica (lower generation) and a replica spliced in from another
//! slot are all detected. A quorum read returns the newest valid replica and
//! rewrites every other replica in place — the self-healing step.
//!
//! The first 40 bytes of every replica are a standard superblock encoding,
//! so block 0 remains mountable by the plain `StegFs` paths. Replicas are
//! declared volume metadata (reserved in the block map), like block 0 always
//! was: they hold nothing secret — the payload is sealed — and their
//! existence reveals only that the volume uses the resilience tier, not how
//! many hidden files it holds.

use stegfs_base::layout::Superblock;
use stegfs_base::wire::{Reader, WireError, Writer};
use stegfs_blockdev::{BlockDevice, BlockId};
use stegfs_crypto::{HmacSha256, Key256};

use crate::error::ResilienceError;

/// Magic identifying the anchor extension after the superblock bytes.
const ANCHOR_MAGIC: [u8; 8] = *b"STEGANC1";

/// Offset of the anchor extension (right after the superblock encoding).
const EXT_OFF: usize = Superblock::ENCODED_LEN;

/// Fixed framing bytes: superblock + magic + generation + payload length.
const FRAME_LEN: usize = EXT_OFF + 8 + 8 + 4;

/// MAC length appended after the payload.
const MAC_LEN: usize = 32;

/// The volume anchor: superblock, generation counter and sealed payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VolumeAnchor {
    /// The volume superblock (geometry + salt).
    pub superblock: Superblock,
    /// Monotone generation, bumped on every anchor update; quorum reads pick
    /// the replica with the highest valid generation.
    pub generation: u64,
    /// Opaque payload — the store keeps its sealed FAK table here.
    pub payload: Vec<u8>,
}

impl VolumeAnchor {
    /// The three replica locations on a volume of `num_blocks` blocks:
    /// first, middle and last block. Duplicates are removed on tiny volumes.
    pub fn replica_blocks(num_blocks: u64) -> Vec<BlockId> {
        let mut v = vec![0, num_blocks / 2, num_blocks - 1];
        v.dedup();
        v
    }

    /// Maximum payload bytes one replica block can carry.
    pub fn payload_capacity(block_size: usize) -> usize {
        block_size.saturating_sub(FRAME_LEN + MAC_LEN)
    }

    /// Encode one replica for `slot` into a block-sized buffer, MAC'd under
    /// `key`.
    #[doc(hidden)]
    pub fn encode_replica(
        &self,
        block_size: usize,
        slot: usize,
        key: &Key256,
    ) -> Result<Vec<u8>, ResilienceError> {
        if self.payload.len() > Self::payload_capacity(block_size) {
            return Err(ResilienceError::AnchorOverflow {
                needed: FRAME_LEN + MAC_LEN + self.payload.len(),
                capacity: block_size,
            });
        }
        let mut buf = vec![0u8; block_size];
        self.superblock.encode_into(&mut buf);
        Writer::over(&mut buf[EXT_OFF..])
            .bytes(&ANCHOR_MAGIC)
            .u64(self.generation)
            .u32(self.payload.len() as u32)
            .bytes(&self.payload);
        let content_end = FRAME_LEN + self.payload.len();
        let mac = Self::replica_mac(&buf[..content_end], slot, key);
        buf[content_end..content_end + MAC_LEN].copy_from_slice(&mac);
        Ok(buf)
    }

    /// Decode and verify one replica read from `slot`.
    #[doc(hidden)]
    pub fn decode_replica(buf: &[u8], slot: usize, key: &Key256) -> Result<Self, String> {
        let superblock = Superblock::decode(buf)?;
        let mut r = Reader::new(buf);
        let mut parse = || -> Result<_, WireError> {
            r.skip_to(EXT_OFF)?;
            r.magic(&ANCHOR_MAGIC)?;
            let generation = r.u64()?;
            let payload_len = r.u32()?;
            let payload = r.bytes(payload_len as usize)?;
            let content_end = r.pos();
            Ok((generation, payload, content_end, r.array::<MAC_LEN>()?))
        };
        let (generation, payload, content_end, mac) =
            parse().map_err(|e| format!("anchor replica: {e}"))?;
        if mac != Self::replica_mac(&buf[..content_end], slot, key) {
            return Err("replica MAC mismatch".to_string());
        }
        Ok(Self {
            superblock,
            generation,
            payload: payload.to_vec(),
        })
    }

    fn replica_mac(content: &[u8], slot: usize, key: &Key256) -> [u8; MAC_LEN] {
        let mut mac = HmacSha256::new(key.as_bytes());
        mac.update(content);
        mac.update(&[slot as u8]);
        mac.finalize()
    }

    /// Write every replica of this anchor to `device`.
    pub fn write_replicas<D: BlockDevice + ?Sized>(
        &self,
        device: &D,
        key: &Key256,
    ) -> Result<(), ResilienceError> {
        let replicas = Self::replica_blocks(device.num_blocks());
        for (slot, &block) in replicas.iter().enumerate() {
            let buf = self.encode_replica(device.block_size(), slot, key)?;
            device.write_block(block, &buf)?;
        }
        Ok(())
    }

    /// Quorum read: decode every replica, pick the newest valid one, and
    /// rewrite any stale or corrupt replica in place. Returns the winning
    /// anchor and the block numbers that were repaired. Fails with
    /// [`ResilienceError::AnchorUnrecoverable`] when no replica verifies.
    pub fn read_quorum<D: BlockDevice + ?Sized>(
        device: &D,
        key: &Key256,
    ) -> Result<(Self, Vec<BlockId>), ResilienceError> {
        let replicas = Self::replica_blocks(device.num_blocks());
        let mut buf = vec![0u8; device.block_size()];
        let mut decoded: Vec<Option<Self>> = Vec::with_capacity(replicas.len());
        let mut last_err = String::new();
        for (slot, &block) in replicas.iter().enumerate() {
            device.read_block(block, &mut buf)?;
            match Self::decode_replica(&buf, slot, key) {
                Ok(anchor) => decoded.push(Some(anchor)),
                Err(e) => {
                    last_err = e;
                    decoded.push(None);
                }
            }
        }
        let winner = decoded
            .iter()
            .flatten()
            .max_by_key(|a| a.generation)
            .cloned()
            .ok_or(ResilienceError::AnchorUnrecoverable(last_err))?;

        let mut repaired = Vec::new();
        for (slot, &block) in replicas.iter().enumerate() {
            let stale = match &decoded[slot] {
                Some(a) => a.generation < winner.generation,
                None => true,
            };
            if stale {
                let fresh = winner.encode_replica(device.block_size(), slot, key)?;
                device.write_block(block, &fresh)?;
                repaired.push(block);
            }
        }
        Ok((winner, repaired))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stegfs_blockdev::{BlockDeviceExt, MemDevice};

    fn anchor(generation: u64) -> VolumeAnchor {
        VolumeAnchor {
            superblock: Superblock::new(512, 64, [7u8; 16]),
            generation,
            payload: vec![0xab; 100],
        }
    }

    fn key() -> Key256 {
        Key256::from_passphrase("anchor-key")
    }

    #[test]
    fn replica_placement() {
        assert_eq!(VolumeAnchor::replica_blocks(64), vec![0, 32, 63]);
        assert_eq!(VolumeAnchor::replica_blocks(2), vec![0, 1]);
    }

    #[test]
    fn roundtrip_through_quorum() {
        let dev = MemDevice::new(64, 512);
        let a = anchor(5);
        a.write_replicas(&dev, &key()).unwrap();
        let (read, repaired) = VolumeAnchor::read_quorum(&dev, &key()).unwrap();
        assert_eq!(read, a);
        assert!(repaired.is_empty(), "clean volume needs no repair");
    }

    #[test]
    fn block_zero_stays_mountable() {
        let dev = MemDevice::new(64, 512);
        anchor(1).write_replicas(&dev, &key()).unwrap();
        let blk = dev.read_block_vec(0).unwrap();
        let sb = Superblock::decode(&blk).unwrap();
        assert_eq!(sb.num_blocks, 64);
    }

    #[test]
    fn corrupt_replica_is_repaired_in_place() {
        let dev = MemDevice::new(64, 512);
        let a = anchor(9);
        a.write_replicas(&dev, &key()).unwrap();
        // Trash the middle replica.
        dev.fill_block(32, 0x00).unwrap();
        let (read, repaired) = VolumeAnchor::read_quorum(&dev, &key()).unwrap();
        assert_eq!(read, a);
        assert_eq!(repaired, vec![32]);
        // A second read finds everything healthy again.
        let (_, repaired2) = VolumeAnchor::read_quorum(&dev, &key()).unwrap();
        assert!(repaired2.is_empty());
    }

    #[test]
    fn stale_replica_loses_to_higher_generation() {
        let dev = MemDevice::new(64, 512);
        anchor(3).write_replicas(&dev, &key()).unwrap();
        // Write a newer anchor to only two replicas, simulating a torn
        // update that missed the last one.
        let newer = VolumeAnchor {
            payload: vec![0xcd; 50],
            ..anchor(4)
        };
        let buf0 = newer.encode_replica(512, 0, &key()).unwrap();
        dev.write_block(0, &buf0).unwrap();
        let buf1 = newer.encode_replica(512, 1, &key()).unwrap();
        dev.write_block(32, &buf1).unwrap();

        let (read, repaired) = VolumeAnchor::read_quorum(&dev, &key()).unwrap();
        assert_eq!(read, newer);
        assert_eq!(repaired, vec![63]);
        let (again, _) = VolumeAnchor::read_quorum(&dev, &key()).unwrap();
        assert_eq!(again, newer);
    }

    #[test]
    fn replica_cannot_be_spliced_between_slots() {
        let dev = MemDevice::new(64, 512);
        let a = anchor(2);
        a.write_replicas(&dev, &key()).unwrap();
        // Copy slot 0's replica over slot 2: same bytes, wrong slot → the
        // slot-bound MAC rejects it and the quorum repairs it.
        let blk0 = dev.read_block_vec(0).unwrap();
        dev.write_block(63, &blk0).unwrap();
        let (read, repaired) = VolumeAnchor::read_quorum(&dev, &key()).unwrap();
        assert_eq!(read, a);
        assert_eq!(repaired, vec![63]);
    }

    #[test]
    fn all_replicas_lost_is_an_error() {
        let dev = MemDevice::new(64, 512);
        anchor(1).write_replicas(&dev, &key()).unwrap();
        for b in VolumeAnchor::replica_blocks(64) {
            dev.fill_block(b, 0xff).unwrap();
        }
        assert!(matches!(
            VolumeAnchor::read_quorum(&dev, &key()),
            Err(ResilienceError::AnchorUnrecoverable(_))
        ));
    }

    #[test]
    fn wrong_key_rejects_all_replicas() {
        let dev = MemDevice::new(64, 512);
        anchor(1).write_replicas(&dev, &key()).unwrap();
        assert!(VolumeAnchor::read_quorum(&dev, &Key256::from_passphrase("wrong")).is_err());
    }

    #[test]
    fn oversized_payload_rejected() {
        let dev = MemDevice::new(64, 512);
        let big = VolumeAnchor {
            payload: vec![0u8; 512],
            ..anchor(1)
        };
        assert!(matches!(
            big.write_replicas(&dev, &key()),
            Err(ResilienceError::AnchorOverflow { .. })
        ));
    }

    #[test]
    fn payload_capacity_matches_encoding() {
        let cap = VolumeAnchor::payload_capacity(512);
        let dev = MemDevice::new(64, 512);
        let full = VolumeAnchor {
            payload: vec![0x11; cap],
            ..anchor(7)
        };
        full.write_replicas(&dev, &key()).unwrap();
        let (read, _) = VolumeAnchor::read_quorum(&dev, &key()).unwrap();
        assert_eq!(read.payload.len(), cap);
    }

    /// Bytes produced by the encoder as it stood before the port onto
    /// `wire`: the format must not move.
    #[test]
    fn golden_vector_is_bit_identical() {
        const GOLDEN_REPLICA: &[u8] = b"\
            \x53\x54\x45\x47\x46\x53\x30\x34\x00\x02\x00\x00\x40\x00\x00\x00\x00\x00\x00\x00\
            \x01\x00\x00\x00\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\
            \x53\x54\x45\x47\x41\x4e\x43\x31\x08\x07\x06\x05\x04\x03\x02\x01\x14\x00\x00\x00\
            \x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\x10\x11\x12\x13\
            \xe5\xe8\x9c\xc0\x60\x9a\x68\x4e\xd3\x68\x60\xbc\xc0\x73\x53\xb2\x46\x9d\x75\x92\
            \x29\x71\x42\xf1\xb3\x27\xeb\x15\xec\x46\x40\xa3\x00\x00\x00\x00\x00\x00\x00\x00\
            \x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\
            \x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00";
        let a = VolumeAnchor {
            superblock: Superblock::new(512, 64, [7u8; 16]),
            generation: 0x0102_0304_0506_0708,
            payload: (0..20u8).collect(),
        };
        assert_eq!(a.encode_replica(160, 1, &key()).unwrap(), GOLDEN_REPLICA);
        assert_eq!(
            VolumeAnchor::decode_replica(GOLDEN_REPLICA, 1, &key()),
            Ok(a)
        );
        assert!(VolumeAnchor::decode_replica(GOLDEN_REPLICA, 0, &key()).is_err());
    }

    #[test]
    fn truncated_or_overlong_replicas_are_errors_not_panics() {
        let buf = anchor(3).encode_replica(512, 0, &key()).unwrap();
        for cut in 0..FRAME_LEN + 100 + MAC_LEN {
            assert!(VolumeAnchor::decode_replica(&buf[..cut], 0, &key()).is_err());
        }
        // A payload length pointing past the block.
        let mut long = buf.clone();
        long[EXT_OFF + 16..EXT_OFF + 20].fill(0xff);
        assert!(VolumeAnchor::decode_replica(&long, 0, &key()).is_err());
    }
}
