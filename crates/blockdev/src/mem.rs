//! In-memory block device.

use parking_lot::RwLock;

use crate::device::{BlockDevice, BlockId, DeviceError};

/// An in-memory block device.
///
/// This is the workhorse backing store for tests, examples and the benchmark
/// harness: 2004-scale volumes (1–2 GB) fit comfortably in RAM, and because
/// simulated time comes from [`crate::sim::DiskModel`] rather than real device
/// latency, a memory store is exactly as faithful as a disk store for the
/// reproduction while keeping the experiment sweeps fast.
///
/// A block that has never been written reads as zeros. Its buffer is
/// reserved when the device is made but not filled until the block's first
/// write: formatting a volume overwrites every block with the fill anyway,
/// so zeroing the whole device first would write every byte twice. The
/// buffer is allocated up front all the same, so no write allocates.
pub struct MemDevice {
    /// One buffer per block: empty until the block's first write, then
    /// exactly `block_size` bytes, with `block_size` bytes reserved throughout.
    blocks: Vec<RwLock<Vec<u8>>>,
    block_size: usize,
}

impl MemDevice {
    /// Create a device with `num_blocks` blocks of `block_size` bytes each,
    /// every one reading as zeros until it is written.
    pub fn new(num_blocks: u64, block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be non-zero");
        let blocks = (0..num_blocks)
            .map(|_| RwLock::new(Vec::with_capacity(block_size)))
            .collect();
        Self { blocks, block_size }
    }

    /// Create a device sized for `capacity_bytes` bytes (rounded down to whole
    /// blocks).
    pub fn with_capacity(capacity_bytes: u64, block_size: usize) -> Self {
        Self::new(capacity_bytes / block_size as u64, block_size)
    }

    /// The blocks whose contents differ from `other`'s, in order, over the
    /// blocks both devices have.
    pub(crate) fn changed_blocks(&self, other: &MemDevice) -> Vec<BlockId> {
        self.blocks
            .iter()
            .zip(&other.blocks)
            .enumerate()
            .filter(|(_, (a, b))| {
                let (a, b) = (a.read(), b.read());
                // A never-written (empty) block equals one written with zeros.
                *a != *b && !(is_zero(&a) && is_zero(&b))
            })
            .map(|(i, _)| i as BlockId)
            .collect()
    }
}

/// Copy every block of `dev` into a fresh [`MemDevice`] with the same
/// geometry, one scalar read per block in address order: the image a
/// recovery test mounts and a [`Snapshot`](crate::Snapshot) holds.
pub fn clone_to_mem<D: BlockDevice + ?Sized>(dev: &D) -> Result<MemDevice, DeviceError> {
    let mut copy = MemDevice::new(dev.num_blocks(), dev.block_size());
    let mut buf = vec![0u8; dev.block_size()];
    for (b, block) in copy.blocks.iter_mut().enumerate() {
        dev.read_block(b as BlockId, &mut buf)?;
        store(block.get_mut(), &buf);
    }
    Ok(copy)
}

fn is_zero(stored: &[u8]) -> bool {
    stored.iter().all(|&x| x == 0)
}

/// Copy a stored block into `buf`; a never-written block reads as zeros.
fn load(stored: &[u8], buf: &mut [u8]) {
    if stored.is_empty() {
        buf.fill(0);
    } else {
        buf.copy_from_slice(stored);
    }
}

/// Copy `buf` into a stored block: the first write fills the reserved
/// buffer, every later one overwrites it in place.
fn store(stored: &mut Vec<u8>, buf: &[u8]) {
    if stored.is_empty() {
        stored.extend_from_slice(buf);
    } else {
        stored.copy_from_slice(buf);
    }
}

impl BlockDevice for MemDevice {
    fn num_blocks(&self) -> u64 {
        self.blocks.len() as u64
    }

    fn block_size(&self) -> usize {
        self.block_size
    }

    fn read_block(&self, block: BlockId, buf: &mut [u8]) -> Result<(), DeviceError> {
        self.check_access(block, buf.len())?;
        load(&self.blocks[block as usize].read(), buf);
        Ok(())
    }

    fn write_block(&self, block: BlockId, buf: &[u8]) -> Result<(), DeviceError> {
        self.check_access(block, buf.len())?;
        store(&mut self.blocks[block as usize].write(), buf);
        Ok(())
    }

    fn read_blocks(&self, start: BlockId, buf: &mut [u8]) -> Result<(), DeviceError> {
        self.check_range_access(start, buf.len())?;
        for (i, chunk) in buf.chunks_exact_mut(self.block_size).enumerate() {
            load(&self.blocks[start as usize + i].read(), chunk);
        }
        Ok(())
    }

    fn write_blocks(&self, start: BlockId, buf: &[u8]) -> Result<(), DeviceError> {
        self.check_range_access(start, buf.len())?;
        for (i, chunk) in buf.chunks_exact(self.block_size).enumerate() {
            store(&mut self.blocks[start as usize + i].write(), chunk);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::BlockDeviceExt;
    use crate::Snapshot;

    #[test]
    fn new_device_is_zeroed() {
        let dev = MemDevice::new(16, 4096);
        assert_eq!(dev.num_blocks(), 16);
        assert_eq!(dev.block_size(), 4096);
        for b in 0..16 {
            assert!(dev.read_block_vec(b).unwrap().iter().all(|&x| x == 0));
        }
    }

    #[test]
    fn write_then_read_roundtrip() {
        let dev = MemDevice::new(4, 512);
        let data: Vec<u8> = (0..512).map(|i| (i % 251) as u8).collect();
        dev.write_block(2, &data).unwrap();
        assert_eq!(dev.read_block_vec(2).unwrap(), data);
        // Other blocks untouched.
        assert!(dev.read_block_vec(1).unwrap().iter().all(|&x| x == 0));
    }

    #[test]
    fn out_of_range_access_fails() {
        let dev = MemDevice::new(4, 512);
        let mut buf = vec![0u8; 512];
        assert!(dev.read_block(4, &mut buf).is_err());
        assert!(dev.write_block(100, &buf).is_err());
    }

    #[test]
    fn wrong_buffer_size_fails() {
        let dev = MemDevice::new(4, 512);
        let mut small = vec![0u8; 511];
        assert!(dev.read_block(0, &mut small).is_err());
        assert!(dev.write_block(0, &small).is_err());
    }

    #[test]
    fn batched_round_trip_and_range_checks() {
        let dev = MemDevice::new(8, 512);
        let data: Vec<u8> = (0..4 * 512).map(|i| (i % 253) as u8).collect();
        dev.write_blocks(3, &data).unwrap();
        let mut back = vec![0u8; 4 * 512];
        dev.read_blocks(3, &mut back).unwrap();
        assert_eq!(back, data);
        // Matches what scalar reads observe.
        assert_eq!(dev.read_block_vec(4).unwrap(), data[512..1024]);
        // A range running off the end is rejected before any write happens.
        assert!(dev.write_blocks(6, &data).is_err());
        assert!(dev.read_blocks(6, &mut back).is_err());
        assert!(dev.read_blocks(0, &mut [0u8; 100]).is_err());
    }

    #[test]
    fn never_written_blocks_read_as_zeros() {
        let (fresh, zeroed) = (MemDevice::new(4, 512), MemDevice::new(4, 512));
        zeroed.write_blocks(0, &[0u8; 4 * 512]).unwrap();
        let mut ranged = vec![0xffu8; 4 * 512];
        fresh.read_blocks(0, &mut ranged).unwrap();
        assert_eq!(
            (
                fresh.read_block_vec(1).unwrap(),
                ranged,
                Snapshot::capture(&fresh).unwrap()
            ),
            (
                vec![0u8; 512],
                vec![0u8; 4 * 512],
                Snapshot::capture(&zeroed).unwrap()
            )
        );
    }

    #[test]
    fn clone_to_mem_copies_a_partly_written_device() {
        let dev = MemDevice::new(6, 512);
        dev.fill_block(1, 0xa5).unwrap();
        dev.write_blocks(3, &[7u8; 2 * 512]).unwrap();
        let image = |d: &MemDevice| {
            let mut buf = vec![0xffu8; 6 * 512];
            d.read_blocks(0, &mut buf).unwrap();
            buf
        };
        assert_eq!(image(&clone_to_mem(&dev).unwrap()), image(&dev));
    }

    #[test]
    fn changed_blocks_treats_never_written_as_zeros() {
        let (fresh, written) = (MemDevice::new(3, 512), MemDevice::new(3, 512));
        written.write_block(0, &[0u8; 512]).unwrap();
        written.fill_block(2, 1).unwrap();
        assert_eq!(
            (
                fresh.changed_blocks(&written),
                written.changed_blocks(&fresh)
            ),
            (vec![2], vec![2])
        );
    }

    #[test]
    fn writes_keep_the_reserved_buffer() {
        let dev = MemDevice::new(2, 512);
        let buffer = |d: &MemDevice| {
            let block = d.blocks[0].read();
            (block.as_ptr(), block.capacity())
        };
        let reserved = buffer(&dev);
        let mut after = Vec::new();
        for fill in 1..4u8 {
            dev.fill_block(0, fill).unwrap();
            dev.write_blocks(0, &[fill; 2 * 512]).unwrap();
            after.push(buffer(&dev));
        }
        assert_eq!(after, vec![reserved; 3]);
    }

    #[test]
    fn with_capacity_rounds_down() {
        let dev = MemDevice::with_capacity(10_000, 4096);
        assert_eq!(dev.num_blocks(), 2);
    }

    #[test]
    fn concurrent_access_is_safe() {
        use std::sync::Arc;
        let dev = Arc::new(MemDevice::new(64, 512));
        let mut handles = Vec::new();
        for t in 0..8u8 {
            let dev = Arc::clone(&dev);
            handles.push(std::thread::spawn(move || {
                for i in 0..64u64 {
                    if i % 8 == t as u64 {
                        dev.fill_block(i, t).unwrap();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for i in 0..64u64 {
            let expected = (i % 8) as u8;
            assert!(dev
                .read_block_vec(i)
                .unwrap()
                .iter()
                .all(|&b| b == expected));
        }
    }
}
