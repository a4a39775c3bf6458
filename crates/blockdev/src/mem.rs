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
pub struct MemDevice {
    blocks: Vec<RwLock<Vec<u8>>>,
    block_size: usize,
}

impl MemDevice {
    /// Create a zero-filled device with `num_blocks` blocks of `block_size`
    /// bytes each.
    pub fn new(num_blocks: u64, block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be non-zero");
        let blocks = (0..num_blocks)
            .map(|_| RwLock::new(vec![0u8; block_size]))
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
            .filter(|(_, (a, b))| *a.read() != *b.read())
            .map(|(i, _)| i as BlockId)
            .collect()
    }
}

/// Copy every block of `dev` into a fresh [`MemDevice`] with the same
/// geometry, one scalar read per block in address order: the image a
/// recovery test mounts and a [`Snapshot`](crate::Snapshot) holds.
pub fn clone_to_mem<D: BlockDevice + ?Sized>(dev: &D) -> Result<MemDevice, DeviceError> {
    let mut copy = MemDevice::new(dev.num_blocks(), dev.block_size());
    for (b, block) in copy.blocks.iter_mut().enumerate() {
        dev.read_block(b as BlockId, block.get_mut())?;
    }
    Ok(copy)
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
        let guard = self.blocks[block as usize].read();
        buf.copy_from_slice(&guard);
        Ok(())
    }

    fn write_block(&self, block: BlockId, buf: &[u8]) -> Result<(), DeviceError> {
        self.check_access(block, buf.len())?;
        let mut guard = self.blocks[block as usize].write();
        guard.copy_from_slice(buf);
        Ok(())
    }

    fn read_blocks(&self, start: BlockId, buf: &mut [u8]) -> Result<(), DeviceError> {
        self.check_range_access(start, buf.len())?;
        for (i, chunk) in buf.chunks_exact_mut(self.block_size).enumerate() {
            chunk.copy_from_slice(&self.blocks[start as usize + i].read());
        }
        Ok(())
    }

    fn write_blocks(&self, start: BlockId, buf: &[u8]) -> Result<(), DeviceError> {
        self.check_range_access(start, buf.len())?;
        for (i, chunk) in buf.chunks_exact(self.block_size).enumerate() {
            self.blocks[start as usize + i]
                .write()
                .copy_from_slice(chunk);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::BlockDeviceExt;

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
