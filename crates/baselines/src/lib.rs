//! # stegfs-baselines
//!
//! The two native-file-system baselines of the paper's evaluation (Table 3):
//!
//! * **CleanDisk** — "a fresh Linux file system, whose files reside on
//!   contiguous data blocks";
//! * **FragDisk** — "a well used file system whose storage are fragmented,
//!   and we simulate it by breaking each file into fragments of 8 blocks".
//!
//! Both are modelled by [`NativeFs`] with an [`AllocationPolicy`]: an
//! unencrypted extent-based file system over a [`stegfs_blockdev::BlockDevice`].
//! Their only purpose is to generate the I/O patterns (long sequential runs
//! versus 8-block fragments) that the paper compares the steganographic file
//! systems against, so the metadata layer is kept in memory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;

use stegfs_blockdev::{BlockDevice, BlockId, DeviceError};

/// How a [`NativeFs`] lays files out on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationPolicy {
    /// CleanDisk: each file is one contiguous extent.
    Contiguous,
    /// FragDisk: each file is broken into fragments of `fragment_blocks`
    /// contiguous blocks, and consecutive fragments of one file are placed in
    /// different allocation zones spread across the disk — so every fragment
    /// boundary costs a seek, without wasting any capacity (the way a well
    /// used, fragmented file system ends up behaving).
    Fragmented {
        /// Blocks per fragment (the paper uses 8).
        fragment_blocks: u64,
        /// Number of allocation zones fragments rotate through.
        zones: u64,
    },
}

impl AllocationPolicy {
    /// The paper's CleanDisk baseline.
    pub fn clean_disk() -> Self {
        AllocationPolicy::Contiguous
    }

    /// The paper's FragDisk baseline: fragments of 8 blocks.
    pub fn frag_disk() -> Self {
        AllocationPolicy::Fragmented {
            fragment_blocks: 8,
            zones: 16,
        }
    }
}

/// Errors from the native file system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NativeFsError {
    /// Underlying device error.
    Device(DeviceError),
    /// The volume is out of space.
    NoSpace,
    /// File not found.
    NotFound(String),
    /// File already exists.
    AlreadyExists(String),
    /// Request outside the file's extent.
    OutOfBounds {
        /// Requested block index within the file.
        index: u64,
        /// Number of blocks in the file.
        len: u64,
    },
}

impl core::fmt::Display for NativeFsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NativeFsError::Device(e) => write!(f, "device error: {e}"),
            NativeFsError::NoSpace => write!(f, "no space left on device"),
            NativeFsError::NotFound(p) => write!(f, "file not found: {p}"),
            NativeFsError::AlreadyExists(p) => write!(f, "file already exists: {p}"),
            NativeFsError::OutOfBounds { index, len } => {
                write!(f, "block index {index} out of bounds for {len}-block file")
            }
        }
    }
}

impl std::error::Error for NativeFsError {}

impl From<DeviceError> for NativeFsError {
    fn from(e: DeviceError) -> Self {
        NativeFsError::Device(e)
    }
}

/// Metadata of one file in a [`NativeFs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NativeFile {
    /// File name.
    pub name: String,
    /// Size in bytes.
    pub size: u64,
    /// Extents as `(start_block, num_blocks)` pairs, in file order.
    pub extents: Vec<(BlockId, u64)>,
}

impl NativeFile {
    /// Total number of blocks.
    pub fn num_blocks(&self) -> u64 {
        self.extents.iter().map(|&(_, n)| n).sum()
    }

    /// Physical block holding content block `index`.
    pub fn block_at(&self, index: u64) -> Option<BlockId> {
        let mut remaining = index;
        for &(start, len) in &self.extents {
            if remaining < len {
                return Some(start + remaining);
            }
            remaining -= len;
        }
        None
    }
}

/// An unencrypted, extent-based native file system baseline. Creating a
/// file takes `&mut self`; reads and in-place updates change no metadata and
/// take `&self`.
pub struct NativeFs<D> {
    device: D,
    policy: AllocationPolicy,
    next_free: BlockId,
    /// Per-zone allocation cursors (fragmented layout only).
    zone_cursors: Vec<BlockId>,
    /// Next zone to place a fragment in.
    next_zone: usize,
    files: HashMap<String, NativeFile>,
}

impl<D: BlockDevice> NativeFs<D> {
    /// Create a native file system on `device` with the given layout policy.
    /// Block 0 is reserved (mirroring the superblock of the steganographic
    /// volume so the two kinds of volume have identical usable capacity).
    pub fn new(device: D, policy: AllocationPolicy) -> Self {
        let zone_cursors = match policy {
            AllocationPolicy::Contiguous => Vec::new(),
            AllocationPolicy::Fragmented { zones, .. } => {
                let zone_size = (device.num_blocks() - 1) / zones;
                (0..zones).map(|z| 1 + z * zone_size).collect()
            }
        };
        Self {
            device,
            policy,
            next_free: 1,
            zone_cursors,
            next_zone: 0,
            files: HashMap::new(),
        }
    }

    /// Number of blocks needed for `len` bytes.
    fn blocks_for_len(&self, len: u64) -> u64 {
        len.div_ceil(self.device.block_size() as u64).max(1)
    }

    fn allocate(&mut self, num_blocks: u64) -> Result<Vec<(BlockId, u64)>, NativeFsError> {
        let total = self.device.num_blocks();
        match self.policy {
            AllocationPolicy::Contiguous => {
                if self.next_free + num_blocks > total {
                    return Err(NativeFsError::NoSpace);
                }
                let start = self.next_free;
                self.next_free += num_blocks;
                Ok(vec![(start, num_blocks)])
            }
            AllocationPolicy::Fragmented {
                fragment_blocks,
                zones,
            } => {
                let zones = zones as usize;
                let zone_size = (total - 1) / zones as u64;
                let mut extents = Vec::new();
                let mut remaining = num_blocks;
                while remaining > 0 {
                    let take = remaining.min(fragment_blocks);
                    // Place this fragment in the next zone with room,
                    // rotating so consecutive fragments land far apart.
                    let mut placed = false;
                    for probe in 0..zones {
                        let zone = (self.next_zone + probe) % zones;
                        let zone_end = 1 + (zone as u64 + 1) * zone_size;
                        if self.zone_cursors[zone] + take <= zone_end.min(total) {
                            extents.push((self.zone_cursors[zone], take));
                            self.zone_cursors[zone] += take;
                            self.next_zone = (zone + 1) % zones;
                            placed = true;
                            break;
                        }
                    }
                    if !placed {
                        return Err(NativeFsError::NoSpace);
                    }
                    remaining -= take;
                }
                Ok(extents)
            }
        }
    }

    /// Create a file of `size` bytes without writing content (blocks are
    /// whatever the device already holds). Used by the benchmark harness to
    /// set up large populations quickly; the I/O pattern of later reads and
    /// updates is identical to a fully written file.
    pub fn create_file_sparse(
        &mut self,
        name: &str,
        size: u64,
    ) -> Result<NativeFile, NativeFsError> {
        if self.files.contains_key(name) {
            return Err(NativeFsError::AlreadyExists(name.to_string()));
        }
        let num_blocks = self.blocks_for_len(size);
        let extents = self.allocate(num_blocks)?;
        let file = NativeFile {
            name: name.to_string(),
            size,
            extents,
        };
        self.files.insert(name.to_string(), file.clone());
        Ok(file)
    }

    /// Look up a file's metadata.
    fn stat(&self, name: &str) -> Result<&NativeFile, NativeFsError> {
        self.files
            .get(name)
            .ok_or_else(|| NativeFsError::NotFound(name.to_string()))
    }

    /// Read `count` consecutive content blocks starting at `start_index`,
    /// discarding the data (the benchmark only cares about the I/O pattern).
    pub fn read_range(
        &self,
        name: &str,
        start_index: u64,
        count: u64,
    ) -> Result<(), NativeFsError> {
        self.for_blocks(name, start_index, count, |block, buf| {
            self.device.read_block(block, buf)
        })
    }

    /// Update `count` consecutive content blocks in place (read-modify-write),
    /// the conventional-file-system behaviour the paper charges two I/Os per
    /// block for (Section 4.1.5).
    pub fn update_range(
        &self,
        name: &str,
        start_index: u64,
        count: u64,
        fill: u8,
    ) -> Result<(), NativeFsError> {
        self.for_blocks(name, start_index, count, |block, buf| {
            self.device.read_block(block, buf)?;
            buf.fill(fill);
            self.device.write_block(block, buf)
        })
    }

    /// Run `io` on the physical block of each of `count` consecutive content
    /// blocks from `start_index`, in index order, with one block buffer.
    fn for_blocks(
        &self,
        name: &str,
        start_index: u64,
        count: u64,
        mut io: impl FnMut(BlockId, &mut [u8]) -> Result<(), DeviceError>,
    ) -> Result<(), NativeFsError> {
        let file = self.stat(name)?;
        let mut buf = vec![0u8; self.device.block_size()];
        for i in start_index..start_index + count {
            let block = file.block_at(i).ok_or(NativeFsError::OutOfBounds {
                index: i,
                len: file.num_blocks(),
            })?;
            io(block, &mut buf)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stegfs_blockdev::MemDevice;

    #[test]
    fn clean_disk_allocates_contiguously() {
        let mut fs = NativeFs::new(MemDevice::new(1024, 512), AllocationPolicy::clean_disk());
        let a = fs.create_file_sparse("a", 512 * 10).unwrap();
        let b = fs.create_file_sparse("b", 512 * 5).unwrap();
        assert_eq!(a.extents, vec![(1, 10)]);
        assert_eq!(b.extents, vec![(11, 5)]);
        assert_eq!(a.block_at(0), Some(1));
        assert_eq!(a.block_at(9), Some(10));
        assert_eq!(a.block_at(10), None);
    }

    #[test]
    fn frag_disk_breaks_files_into_fragments() {
        let mut fs = NativeFs::new(MemDevice::new(4096, 512), AllocationPolicy::frag_disk());
        let f = fs.create_file_sparse("f", 512 * 20).unwrap();
        assert_eq!(f.num_blocks(), 20);
        assert_eq!(f.extents.len(), 3); // 8 + 8 + 4
        assert_eq!(f.extents[0].1, 8);
        assert_eq!(f.extents[2].1, 4);
        // Fragments are separated by gaps.
        assert!(f.extents[1].0 > f.extents[0].0 + 8);
    }

    #[test]
    fn update_range_changes_blocks_in_place() {
        let dev = MemDevice::new(256, 512);
        let mut fs = NativeFs::new(&dev, AllocationPolicy::clean_disk());
        let before = fs.create_file_sparse("f", 512 * 4).unwrap();
        fs.update_range("f", 1, 2, 0xee).unwrap();
        let after = fs.stat("f").unwrap();
        assert_eq!(before.extents, after.extents, "no relocation happens");
        let block = |index: u64| {
            let mut buf = vec![0u8; 512];
            dev.read_block(after.block_at(index).unwrap(), &mut buf)
                .unwrap();
            buf
        };
        assert!(block(1).iter().chain(&block(2)).all(|&b| b == 0xee));
        assert!(block(0).iter().chain(&block(3)).all(|&b| b == 0));
    }

    #[test]
    fn out_of_bounds_and_missing_files_error() {
        let mut fs = NativeFs::new(MemDevice::new(256, 512), AllocationPolicy::clean_disk());
        fs.create_file_sparse("f", 512).unwrap();
        assert!(matches!(
            fs.update_range("f", 5, 1, 0),
            Err(NativeFsError::OutOfBounds { .. })
        ));
        assert!(matches!(
            fs.read_range("nope", 0, 1),
            Err(NativeFsError::NotFound(_))
        ));
        assert!(matches!(
            fs.create_file_sparse("f", 1),
            Err(NativeFsError::AlreadyExists(_))
        ));
    }

    #[test]
    fn no_space_is_reported() {
        let mut fs = NativeFs::new(MemDevice::new(8, 512), AllocationPolicy::clean_disk());
        assert!(matches!(
            fs.create_file_sparse("big", 512 * 100),
            Err(NativeFsError::NoSpace)
        ));
    }

    #[test]
    fn frag_disk_read_is_mostly_sequential_within_fragments() {
        use stegfs_blockdev::sim::SimDevice;
        let dev = SimDevice::new(MemDevice::new(65536, 4096));
        let mut fs = NativeFs::new(&dev, AllocationPolicy::frag_disk());
        fs.create_file_sparse("f", 4096 * 64).unwrap();
        fs.read_range("f", 0, 64).unwrap();
        let stats = dev.stats().snapshot();
        // 8 fragments of 8 blocks: 8 random-ish jumps, 56 sequential reads.
        assert_eq!(stats.reads, 64);
        assert!(stats.sequential >= 50, "sequential = {}", stats.sequential);
        assert!(stats.random <= 14, "random = {}", stats.random);
    }

    #[test]
    fn clean_disk_read_is_almost_entirely_sequential() {
        use stegfs_blockdev::sim::SimDevice;
        let dev = SimDevice::new(MemDevice::new(65536, 4096));
        let mut fs = NativeFs::new(&dev, AllocationPolicy::clean_disk());
        fs.create_file_sparse("f", 4096 * 64).unwrap();
        fs.read_range("f", 0, 64).unwrap();
        let stats = dev.stats().snapshot();
        assert_eq!(stats.reads, 64);
        assert_eq!(stats.random, 1);
        assert_eq!(stats.sequential, 63);
    }
}
