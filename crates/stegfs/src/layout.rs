//! On-disk volume layout: superblock and block geometry.
//!
//! The volume is a flat array of `block_size`-byte blocks. Block 0 holds the
//! (plaintext) superblock — geometry plus a public salt for header-location
//! hashing. Every other block is `IV || data field`, where the data field is
//! CBC-encrypted (real blocks) or random bytes (abandoned blocks). Because
//! CBC output under a fresh IV is indistinguishable from random bytes, a
//! scan of the volume reveals nothing about how many hidden files exist —
//! the core StegFS property the paper builds on.

use crate::wire::{Reader, WireError, Writer};

/// Default block size used throughout the paper's experiments (Table 2).
pub const DEFAULT_BLOCK_SIZE: usize = 4096;

/// Size of the per-block initial vector, in bytes.
pub const IV_SIZE: usize = 16;

/// The physical block that holds the superblock.
pub const SUPERBLOCK_BLOCK: u64 = 0;

/// Magic value identifying a formatted volume.
pub const SUPERBLOCK_MAGIC: [u8; 8] = *b"STEGFS04";

/// Plaintext volume metadata stored in block 0.
///
/// The superblock deliberately contains nothing secret: geometry, a format
/// version and a random public salt. The salt randomises the header-location
/// hash so that an attacker cannot precompute header positions for guessed
/// (key, path) pairs across volumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Superblock {
    /// Block size in bytes.
    pub block_size: u32,
    /// Total number of blocks on the volume (including block 0).
    pub num_blocks: u64,
    /// Format version.
    pub version: u32,
    /// Public salt mixed into header-location derivation.
    pub salt: [u8; 16],
}

impl Superblock {
    /// Serialized size in bytes.
    pub const ENCODED_LEN: usize = 8 + 4 + 8 + 4 + 16;

    /// Create a superblock for a new volume.
    pub fn new(block_size: u32, num_blocks: u64, salt: [u8; 16]) -> Self {
        Self {
            block_size,
            num_blocks,
            version: 1,
            salt,
        }
    }

    /// Encode into the start of a block-sized buffer.
    pub fn encode_into(&self, buf: &mut [u8]) {
        Writer::over(buf)
            .bytes(&SUPERBLOCK_MAGIC)
            .u32(self.block_size)
            .u64(self.num_blocks)
            .u32(self.version)
            .bytes(&self.salt);
    }

    /// Decode from the start of a block-sized buffer.
    pub fn decode(buf: &[u8]) -> Result<Self, String> {
        let mut r = Reader::new(buf);
        let mut parse = || -> Result<Self, WireError> {
            r.magic(&SUPERBLOCK_MAGIC)?;
            Ok(Self {
                block_size: r.u32()?,
                num_blocks: r.u64()?,
                version: r.u32()?,
                salt: r.array()?,
            })
        };
        let sb = parse().map_err(|e| format!("superblock: {e}"))?;
        if sb.block_size == 0 || sb.num_blocks < 2 {
            return Err(format!(
                "implausible geometry: block_size={}, num_blocks={}",
                sb.block_size, sb.num_blocks
            ));
        }
        Ok(sb)
    }

    /// Size of the encrypted data field within each payload block.
    pub fn data_field_len(&self) -> usize {
        self.block_size as usize - IV_SIZE
    }

    /// Number of blocks usable for payload (everything except the
    /// superblock).
    pub fn payload_blocks(&self) -> u64 {
        self.num_blocks - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let sb = Superblock::new(4096, 262_144, [7u8; 16]);
        let mut buf = vec![0u8; 4096];
        sb.encode_into(&mut buf);
        let decoded = Superblock::decode(&buf).unwrap();
        assert_eq!(decoded, sb);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut buf = vec![0u8; 4096];
        Superblock::new(4096, 100, [0u8; 16]).encode_into(&mut buf);
        buf[0] ^= 0xff;
        assert!(Superblock::decode(&buf).is_err());
    }

    #[test]
    fn rejects_implausible_geometry() {
        let mut buf = vec![0u8; 64];
        let sb = Superblock {
            block_size: 0,
            num_blocks: 100,
            version: 1,
            salt: [0u8; 16],
        };
        sb.encode_into(&mut buf);
        assert!(Superblock::decode(&buf).is_err());
    }

    #[test]
    fn data_field_leaves_room_for_iv() {
        let sb = Superblock::new(4096, 100, [0u8; 16]);
        assert_eq!(sb.data_field_len(), 4080);
        assert_eq!(sb.payload_blocks(), 99);
    }

    #[test]
    fn rejects_short_buffer() {
        assert!(Superblock::decode(&[0u8; 10]).is_err());
    }

    /// Bytes produced by the encoder as it stood before the port onto
    /// `wire`: the format must not move.
    #[test]
    fn golden_vector_is_bit_identical() {
        const GOLDEN_SUPERBLOCK: &[u8] = b"\
            \x53\x54\x45\x47\x46\x53\x30\x34\x00\x10\x00\x00\x01\x00\x00\x00\x01\x00\x00\x00\
            \x07\x00\x00\x00\xa0\xa1\xa2\xa3\xa4\xa5\xa6\xa7\xa8\xa9\xaa\xab\xac\xad\xae\xaf\
            \x00\x00\x00\x00\x00\x00\x00\x00";
        let sb = Superblock {
            block_size: 4096,
            num_blocks: 0x1_0000_0001,
            version: 7,
            salt: core::array::from_fn(|i| 0xa0 + i as u8),
        };
        let mut buf = [0u8; 48];
        sb.encode_into(&mut buf);
        assert_eq!(buf, GOLDEN_SUPERBLOCK);
        assert_eq!(Superblock::decode(GOLDEN_SUPERBLOCK), Ok(sb));
    }
}
