//! Per-level on-disk hash index.
//!
//! Section 5.1.2: "A secondary hash index is built for each level for locating
//! its data blocks. \[...\] Each hash index has to be rebuilt whenever the
//! corresponding level is re-ordered. The key for the hash index is composed
//! of the block's logical address and a random number generated when the hash
//! index is rebuilt. Therefore, attackers could not detect anything from the
//! accesses to the indices."
//!
//! Each level's index occupies a fixed region of blocks. The store lays out
//! every level's region back to back, in level order, ahead of all the data
//! regions, so a read's one-bucket-per-level index phase crosses a few
//! dozen blocks in short forward skips. Buckets are whole blocks; an entry
//! is `(keyed hash of the logical id, slot)`. Overflowing buckets spill
//! into the next bucket block (linear probing), and a lookup stops at the
//! first non-full bucket that does not contain the key — the standard
//! open-addressing invariant. With the region sized for a 50 % load factor
//! a lookup almost always costs exactly one block read, which is the "1
//! index I/O per level" the paper's `2k` retrieving cost assumes.

use std::sync::OnceLock;

use stegfs_base::wire::{Reader, Writer};
use stegfs_blockdev::{BlockDevice, BlockId};
use stegfs_crypto::HmacSha256;

use crate::error::ObliviousError;

/// The index's fixed HMAC key state, padded and hashed exactly once; every
/// keyed-hash call afterwards reuses it instead of re-absorbing the key.
fn index_hmac() -> &'static HmacSha256 {
    static KEYED: OnceLock<HmacSha256> = OnceLock::new();
    KEYED.get_or_init(|| HmacSha256::new(b"stegfs-oblivious-index"))
}

/// Bytes per index entry: keyed id hash (8) + slot (8).
const ENTRY_SIZE: usize = 16;
/// Per-bucket header: number of live entries (2 bytes).
const BUCKET_HEADER: usize = 2;

/// Layout and lookup logic for one level's hash index region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashIndexRegion {
    /// First block of the index region.
    pub offset: BlockId,
    /// Number of bucket blocks in the region.
    pub num_blocks: u64,
    /// Device block size.
    pub block_size: usize,
}

impl HashIndexRegion {
    /// Entries that fit in one bucket block.
    pub fn entries_per_bucket(block_size: usize) -> usize {
        (block_size - BUCKET_HEADER) / ENTRY_SIZE
    }

    /// Number of bucket blocks needed to index `capacity` items at roughly
    /// 50 % load.
    pub fn blocks_for_capacity(capacity: u64, block_size: usize) -> u64 {
        let per_bucket = Self::entries_per_bucket(block_size) as u64;
        (capacity * 2).div_ceil(per_bucket).max(1)
    }

    pub(crate) fn keyed_hash(nonce: u64, id: u64) -> u64 {
        let mut msg = [0u8; 16];
        Writer::over(&mut msg[..]).u64(nonce).u64(id);
        index_hmac().derive_u64_with(&msg)
    }

    fn bucket_of(&self, hash: u64) -> u64 {
        hash % self.num_blocks
    }

    /// Build (rebuild) the index for `entries` = `(id, slot)` pairs under a
    /// fresh `nonce`, rewriting the whole region as ranged sequential writes.
    /// Returns the number of blocks written (all of them — the attacker
    /// learns nothing from which buckets changed).
    pub fn build<D: BlockDevice + ?Sized>(
        &self,
        device: &D,
        nonce: u64,
        entries: impl Iterator<Item = (u64, u64)>,
    ) -> Result<u64, ObliviousError> {
        let bs = self.block_size;
        let per_bucket = Self::entries_per_bucket(bs);
        // The region is laid out in memory as it will lie on the device:
        // each entry is encoded once, behind the entries its bucket already
        // holds, whatever the number of entries.
        let mut image = vec![0u8; self.num_blocks as usize * bs];
        let mut counts = vec![0usize; self.num_blocks as usize];

        for (id, slot) in entries {
            let hash = Self::keyed_hash(nonce, id);
            let mut b = self.bucket_of(hash) as usize;
            let mut probes = 0;
            while counts[b] >= per_bucket {
                b = (b + 1) % self.num_blocks as usize;
                probes += 1;
                if probes > self.num_blocks {
                    return Err(ObliviousError::Corrupt(
                        "hash index region overflow".to_string(),
                    ));
                }
            }
            let entry = b * bs + BUCKET_HEADER + counts[b] * ENTRY_SIZE;
            Writer::over(&mut image[entry..][..ENTRY_SIZE])
                .u64(hash)
                .u64(slot);
            counts[b] += 1;
        }
        for (bucket, &count) in image.chunks_exact_mut(bs).zip(&counts) {
            Writer::over(bucket).u16(count as u16);
        }

        let batch = crate::level::IO_BATCH_BLOCKS as usize;
        for (i, window) in image.chunks(batch * bs).enumerate() {
            device.write_blocks(self.offset + (i * batch) as u64, window)?;
        }
        Ok(self.num_blocks)
    }

    /// Look up `id`, returning its slot if present, together with the number
    /// of bucket blocks read. Buckets are read into `scratch`, one block of
    /// the caller's.
    pub fn lookup<D: BlockDevice + ?Sized>(
        &self,
        device: &D,
        nonce: u64,
        id: u64,
        scratch: &mut [u8],
    ) -> Result<(Option<u64>, u64), ObliviousError> {
        let per_bucket = Self::entries_per_bucket(self.block_size);
        let hash = Self::keyed_hash(nonce, id);
        let mut bucket = self.bucket_of(hash);
        let mut reads = 0u64;
        for _ in 0..self.num_blocks {
            device.read_block(self.offset + bucket, scratch)?;
            reads += 1;
            // The index is plaintext on the device: a count the bucket block
            // cannot hold is corruption, not a walk past its end.
            let mut r = Reader::new(scratch);
            let count = r.u16()?;
            let count = r.count(count, ENTRY_SIZE)?;
            for _ in 0..count {
                let (entry_hash, slot) = (r.u64()?, r.u64()?);
                if entry_hash == hash {
                    return Ok((Some(slot), reads));
                }
            }
            if count < per_bucket {
                // Open-addressing invariant: the key cannot live further on.
                return Ok((None, reads));
            }
            bucket = (bucket + 1) % self.num_blocks;
        }
        Ok((None, reads))
    }

    /// Read one uniformly "random-looking" bucket block into `scratch` (used
    /// to make a dummy probe indistinguishable from a real one). The caller
    /// supplies the bucket choice.
    pub fn dummy_probe<D: BlockDevice + ?Sized>(
        &self,
        device: &D,
        bucket: u64,
        scratch: &mut [u8],
    ) -> Result<(), ObliviousError> {
        device.read_block(self.offset + (bucket % self.num_blocks), scratch)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stegfs_blockdev::MemDevice;

    /// [`HashIndexRegion::lookup`] through a scratch block of its own.
    fn lookup(
        region: &HashIndexRegion,
        device: &MemDevice,
        nonce: u64,
        id: u64,
    ) -> Result<(Option<u64>, u64), ObliviousError> {
        region.lookup(device, nonce, id, &mut vec![0u8; region.block_size])
    }

    fn region(capacity: u64, block_size: usize) -> (MemDevice, HashIndexRegion) {
        let num_blocks = HashIndexRegion::blocks_for_capacity(capacity, block_size);
        let device = MemDevice::new(num_blocks + 4, block_size);
        (
            device,
            HashIndexRegion {
                offset: 2,
                num_blocks,
                block_size,
            },
        )
    }

    #[test]
    fn build_and_lookup_all_entries() {
        let (device, region) = region(500, 512);
        let entries: Vec<(u64, u64)> = (0..500).map(|i| (i * 13 + 7, i)).collect();
        let written = region.build(&device, 42, entries.iter().copied()).unwrap();
        assert_eq!(written, region.num_blocks);
        for &(id, slot) in &entries {
            let (found, reads) = lookup(&region, &device, 42, id).unwrap();
            assert_eq!(found, Some(slot), "id {id}");
            assert!(reads <= 3, "lookup took {reads} reads");
        }
    }

    #[test]
    fn absent_keys_return_none_quickly() {
        let (device, region) = region(100, 512);
        region
            .build(&device, 1, (0..100u64).map(|i| (i, i)))
            .unwrap();
        let mut total_reads = 0;
        for id in 1000..1100u64 {
            let (found, reads) = lookup(&region, &device, 1, id).unwrap();
            assert_eq!(found, None);
            total_reads += reads;
        }
        // Average close to one read per miss at 50 % load.
        assert!(total_reads < 200, "misses took {total_reads} reads");
    }

    #[test]
    fn nonce_changes_bucket_placement() {
        let (device, region) = region(200, 512);
        region
            .build(&device, 7, (0..200u64).map(|i| (i, i)))
            .unwrap();
        // Looking up under the wrong nonce finds nothing (the keyed hashes
        // differ), which is exactly why index accesses leak nothing across
        // rebuilds.
        let mut hits = 0;
        for id in 0..200u64 {
            if lookup(&region, &device, 8, id).unwrap().0.is_some() {
                hits += 1;
            }
        }
        assert_eq!(hits, 0);
    }

    #[test]
    fn rebuild_replaces_old_contents() {
        let (device, region) = region(50, 512);
        region
            .build(&device, 1, (0..50u64).map(|i| (i, i)))
            .unwrap();
        region
            .build(&device, 2, (100..120u64).map(|i| (i, i * 2)))
            .unwrap();
        assert_eq!(lookup(&region, &device, 2, 110).unwrap().0, Some(220));
        assert_eq!(lookup(&region, &device, 2, 10).unwrap().0, None);
    }

    #[test]
    fn region_overflow_is_detected() {
        let block_size = 512;
        let device = MemDevice::new(4, block_size);
        let tiny = HashIndexRegion {
            offset: 0,
            num_blocks: 1,
            block_size,
        };
        let per_bucket = HashIndexRegion::entries_per_bucket(block_size) as u64;
        let too_many = (0..per_bucket + 1).map(|i| (i, i));
        assert!(matches!(
            tiny.build(&device, 0, too_many),
            Err(ObliviousError::Corrupt(_))
        ));
    }

    #[test]
    fn sizing_helpers() {
        assert_eq!(HashIndexRegion::entries_per_bucket(512), 31);
        // 50 % load factor: 100 items need ceil(200/31) = 7 buckets.
        assert_eq!(HashIndexRegion::blocks_for_capacity(100, 512), 7);
        assert!(HashIndexRegion::blocks_for_capacity(0, 512) >= 1);
    }

    /// Bytes produced by the encoder as it stood before the port onto
    /// `wire`: the format must not move.
    #[test]
    fn bucket_golden_vector_is_bit_identical() {
        const GOLDEN_BUCKETS: &[u8] = b"\
            \x01\x00\xf8\xfe\xbb\xbe\x3a\x37\x0d\xb3\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\
            \x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\
            \x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\
            \x00\x00\x00\x00\x03\x00\xfd\x73\x19\x19\x22\x14\xb3\x8e\x01\x01\x00\x00\x00\x00\
            \x00\x00\xb5\x26\xa4\x2b\x80\xf2\x4f\xb3\x03\x01\x00\x00\x00\x00\x00\x00\x01\x8b\
            \x23\xd7\xbe\x1c\x10\xcf\x06\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\
            \x00\x00\x00\x00\x00\x00\x00\x00\x03\x00\xe6\xd9\xb2\xa2\x3f\x2a\xfd\xfc\x02\x01\
            \x00\x00\x00\x00\x00\x00\x76\xa2\xc4\x2c\xdb\x4c\x57\x9e\x04\x01\x00\x00\x00\x00\
            \x00\x00\x3e\x6c\x42\x6d\xa0\xc1\x36\x40\x05\x01\x00\x00\x00\x00\x00\x00\x00\x00\
            \x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\
            \x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\
            \x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\
            \x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00";
        let device = MemDevice::new(6, 64);
        let region = HashIndexRegion {
            offset: 1,
            num_blocks: 4,
            block_size: 64,
        };
        let entries = || (0..7u64).map(|i| (i * 13 + 7, 0x100 + i));
        region.build(&device, 42, entries()).unwrap();
        let mut image = vec![0u8; 4 * 64];
        device.read_blocks(1, &mut image).unwrap();
        assert_eq!(image, GOLDEN_BUCKETS);

        let pinned = MemDevice::new(6, 64);
        pinned.write_blocks(1, GOLDEN_BUCKETS).unwrap();
        for (id, slot) in entries() {
            assert_eq!(lookup(&region, &pinned, 42, id).unwrap().0, Some(slot));
        }
        assert_eq!(lookup(&region, &pinned, 42, 9999).unwrap().0, None);
    }

    /// Regression: a count field of `0xffff` walked the parent past the end
    /// of the bucket block (a slice panic, in release builds too).
    #[test]
    fn bucket_count_beyond_the_block_is_corrupt() {
        let (device, region) = region(50, 512);
        region.build(&device, 42, (0..50).map(|i| (i, i))).unwrap();
        let per_bucket = HashIndexRegion::entries_per_bucket(512) as u16;
        for count in [per_bucket + 1, 0x7fff, 0xffff] {
            let mut bucket = vec![0u8; 512];
            bucket[..2].copy_from_slice(&count.to_le_bytes());
            for b in 0..region.num_blocks {
                device.write_block(region.offset + b, &bucket).unwrap();
            }
            assert!(
                matches!(
                    lookup(&region, &device, 42, 7),
                    Err(ObliviousError::Corrupt(_))
                ),
                "count {count}"
            );
        }
    }
}
