//! The block device trait and shared error/geometry types.

/// Identifier of a physical block on the raw storage (block number, not a
/// byte offset).
pub type BlockId = u64;

/// Errors returned by block devices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// A block number beyond the end of the device was addressed.
    OutOfRange {
        /// The requested block.
        block: BlockId,
        /// Number of blocks on the device.
        num_blocks: u64,
    },
    /// A buffer with the wrong length was supplied.
    BadBufferSize {
        /// Expected length (the device block size).
        expected: usize,
        /// Observed length.
        got: usize,
    },
    /// An I/O error from a file-backed device.
    Io(String),
}

impl core::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DeviceError::OutOfRange { block, num_blocks } => {
                write!(
                    f,
                    "block {block} out of range (device has {num_blocks} blocks)"
                )
            }
            DeviceError::BadBufferSize { expected, got } => {
                write!(f, "bad buffer size: expected {expected} bytes, got {got}")
            }
            DeviceError::Io(msg) => write!(f, "I/O error: {msg}"),
        }
    }
}

impl std::error::Error for DeviceError {}

impl From<std::io::Error> for DeviceError {
    fn from(e: std::io::Error) -> Self {
        DeviceError::Io(e.to_string())
    }
}

/// A fixed-geometry array of blocks — the "raw storage" of the paper's system
/// model. All StegFS structures, the baselines and the oblivious storage are
/// built on top of this trait, so any of them can run over memory, a file, a
/// tracing wrapper or the simulated disk.
///
/// Implementations must be usable from multiple threads (`&self` methods);
/// interior mutability is expected. This mirrors a real shared network volume
/// where many users route requests through the agent concurrently.
pub trait BlockDevice: Send + Sync {
    /// Number of blocks on the device.
    fn num_blocks(&self) -> u64;

    /// Block size in bytes.
    fn block_size(&self) -> usize;

    /// Read block `block` into `buf` (whose length must equal the block size).
    fn read_block(&self, block: BlockId, buf: &mut [u8]) -> Result<(), DeviceError>;

    /// Write `buf` (whose length must equal the block size) to block `block`.
    fn write_block(&self, block: BlockId, buf: &[u8]) -> Result<(), DeviceError>;

    /// Read `buf.len() / block_size` consecutive blocks starting at `start`
    /// into `buf` (whose length must be a whole number of blocks).
    ///
    /// This is the streaming primitive behind the oblivious store's level
    /// sweeps and the external merge sort: one ranged request instead of N
    /// scalar ones, which the simulated disk bills as a single seek plus N
    /// transfers. The default implementation delegates to [`read_block`] so
    /// every device stays correct; devices with a cheaper contiguous path
    /// (files, the timing model) override it.
    ///
    /// [`read_block`]: BlockDevice::read_block
    fn read_blocks(&self, start: BlockId, buf: &mut [u8]) -> Result<(), DeviceError> {
        self.check_range_access(start, buf.len())?;
        for (i, chunk) in buf.chunks_exact_mut(self.block_size()).enumerate() {
            self.read_block(start + i as u64, chunk)?;
        }
        Ok(())
    }

    /// Write `buf.len() / block_size` consecutive blocks starting at `start`
    /// from `buf` (whose length must be a whole number of blocks).
    ///
    /// Counterpart of [`read_blocks`](BlockDevice::read_blocks); the default
    /// implementation delegates to [`write_block`](BlockDevice::write_block).
    fn write_blocks(&self, start: BlockId, buf: &[u8]) -> Result<(), DeviceError> {
        self.check_range_access(start, buf.len())?;
        for (i, chunk) in buf.chunks_exact(self.block_size()).enumerate() {
            self.write_block(start + i as u64, chunk)?;
        }
        Ok(())
    }

    /// Flush any caches to stable storage. Defaults to a no-op.
    fn sync(&self) -> Result<(), DeviceError> {
        Ok(())
    }

    /// Validate that `block` and `buf` are usable; helper for implementors.
    fn check_access(&self, block: BlockId, buf_len: usize) -> Result<(), DeviceError> {
        if block >= self.num_blocks() {
            return Err(DeviceError::OutOfRange {
                block,
                num_blocks: self.num_blocks(),
            });
        }
        if buf_len != self.block_size() {
            return Err(DeviceError::BadBufferSize {
                expected: self.block_size(),
                got: buf_len,
            });
        }
        Ok(())
    }

    /// Validate a ranged request: `buf_len` must be a non-empty whole number
    /// of blocks and the range `start..start + buf_len / block_size` must lie
    /// on the device. Helper for implementors of the batched operations.
    fn check_range_access(&self, start: BlockId, buf_len: usize) -> Result<(), DeviceError> {
        let bs = self.block_size();
        if buf_len == 0 || !buf_len.is_multiple_of(bs) {
            return Err(DeviceError::BadBufferSize {
                expected: bs,
                got: buf_len,
            });
        }
        let count = (buf_len / bs) as u64;
        if start >= self.num_blocks() || count > self.num_blocks() - start {
            return Err(DeviceError::OutOfRange {
                // `start` may be anything a caller decoded from disk.
                block: start.saturating_add(count - 1),
                num_blocks: self.num_blocks(),
            });
        }
        Ok(())
    }
}

/// Convenience extension methods available on every [`BlockDevice`].
pub trait BlockDeviceExt: BlockDevice {
    /// Read a block into a freshly allocated vector.
    fn read_block_vec(&self, block: BlockId) -> Result<Vec<u8>, DeviceError> {
        let mut buf = vec![0u8; self.block_size()];
        self.read_block(block, &mut buf)?;
        Ok(buf)
    }

    /// Fill a block with a repeated byte; mostly used by tests.
    fn fill_block(&self, block: BlockId, byte: u8) -> Result<(), DeviceError> {
        let buf = vec![byte; self.block_size()];
        self.write_block(block, &buf)
    }
}

impl<T: BlockDevice + ?Sized> BlockDeviceExt for T {}

// Blanket implementations so devices can be shared behind Arc / references.
impl<T: BlockDevice + ?Sized> BlockDevice for std::sync::Arc<T> {
    fn num_blocks(&self) -> u64 {
        (**self).num_blocks()
    }
    fn block_size(&self) -> usize {
        (**self).block_size()
    }
    fn read_block(&self, block: BlockId, buf: &mut [u8]) -> Result<(), DeviceError> {
        (**self).read_block(block, buf)
    }
    fn write_block(&self, block: BlockId, buf: &[u8]) -> Result<(), DeviceError> {
        (**self).write_block(block, buf)
    }
    fn read_blocks(&self, start: BlockId, buf: &mut [u8]) -> Result<(), DeviceError> {
        (**self).read_blocks(start, buf)
    }
    fn write_blocks(&self, start: BlockId, buf: &[u8]) -> Result<(), DeviceError> {
        (**self).write_blocks(start, buf)
    }
    fn sync(&self) -> Result<(), DeviceError> {
        (**self).sync()
    }
}

impl<T: BlockDevice + ?Sized> BlockDevice for &T {
    fn num_blocks(&self) -> u64 {
        (**self).num_blocks()
    }
    fn block_size(&self) -> usize {
        (**self).block_size()
    }
    fn read_block(&self, block: BlockId, buf: &mut [u8]) -> Result<(), DeviceError> {
        (**self).read_block(block, buf)
    }
    fn write_block(&self, block: BlockId, buf: &[u8]) -> Result<(), DeviceError> {
        (**self).write_block(block, buf)
    }
    fn read_blocks(&self, start: BlockId, buf: &mut [u8]) -> Result<(), DeviceError> {
        (**self).read_blocks(start, buf)
    }
    fn write_blocks(&self, start: BlockId, buf: &[u8]) -> Result<(), DeviceError> {
        (**self).write_blocks(start, buf)
    }
    fn sync(&self) -> Result<(), DeviceError> {
        (**self).sync()
    }
}

/// A wrapper that hides the wrapped device's batched implementations, forcing
/// every ranged request through the default scalar loop.
///
/// This is the "before" side of the batched-I/O comparison: wrapping a
/// [`sim::SimDevice`](crate::sim::SimDevice) in a `ScalarDevice` makes the
/// timing model bill a level sweep as N independent requests again, which is
/// what the `oblivious_baseline` bench and the equivalence tests measure
/// against.
///
/// It is the one wrapper that is not a [`Layered`](crate::Layered): that
/// layer forwards every request in the caller's shape, and the whole point
/// here is not to.
pub struct ScalarDevice<D>(pub D);

impl<D: BlockDevice> ScalarDevice<D> {
    /// Wrap `inner`.
    pub fn new(inner: D) -> Self {
        Self(inner)
    }

    /// Access the wrapped device.
    pub fn inner(&self) -> &D {
        &self.0
    }
}

impl<D: BlockDevice> BlockDevice for ScalarDevice<D> {
    fn num_blocks(&self) -> u64 {
        self.0.num_blocks()
    }
    fn block_size(&self) -> usize {
        self.0.block_size()
    }
    fn read_block(&self, block: BlockId, buf: &mut [u8]) -> Result<(), DeviceError> {
        self.0.read_block(block, buf)
    }
    fn write_block(&self, block: BlockId, buf: &[u8]) -> Result<(), DeviceError> {
        self.0.write_block(block, buf)
    }
    // read_blocks / write_blocks deliberately NOT forwarded: the trait
    // defaults re-express them as scalar loops against the inner device.
    fn sync(&self) -> Result<(), DeviceError> {
        self.0.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemDevice;
    use std::sync::Arc;

    #[test]
    fn arc_wrapper_delegates() {
        let dev = Arc::new(MemDevice::new(8, 512));
        assert_eq!(BlockDevice::num_blocks(&dev), 8);
        dev.fill_block(3, 0xaa).unwrap();
        let read = dev.read_block_vec(3).unwrap();
        assert!(read.iter().all(|&b| b == 0xaa));
    }

    #[test]
    fn check_access_rejects_bad_requests() {
        let dev = MemDevice::new(4, 512);
        assert!(matches!(
            dev.check_access(4, 512),
            Err(DeviceError::OutOfRange { .. })
        ));
        assert!(matches!(
            dev.check_access(0, 100),
            Err(DeviceError::BadBufferSize { .. })
        ));
        assert!(dev.check_access(3, 512).is_ok());
    }

    #[test]
    fn check_range_access_rejects_bad_ranges() {
        let dev = MemDevice::new(8, 512);
        assert!(dev.check_range_access(2, 3 * 512).is_ok());
        assert!(dev.check_range_access(0, 8 * 512).is_ok());
        assert!(matches!(
            dev.check_range_access(6, 3 * 512),
            Err(DeviceError::OutOfRange { block: 8, .. })
        ));
        assert!(matches!(
            dev.check_range_access(8, 512),
            Err(DeviceError::OutOfRange { .. })
        ));
        assert!(matches!(
            dev.check_range_access(0, 0),
            Err(DeviceError::BadBufferSize { .. })
        ));
        assert!(matches!(
            dev.check_range_access(0, 700),
            Err(DeviceError::BadBufferSize { .. })
        ));
    }

    #[test]
    fn a_huge_start_block_is_out_of_range_not_an_overflow() {
        // `start + count - 1` used to be computed unchecked for the error.
        let dev = MemDevice::new(4, 512);
        for start in [u64::MAX, u64::MAX - 1] {
            // The reported block is the last one addressed, capped.
            for (blocks, last) in [(1, start), (2, u64::MAX), (4, u64::MAX)] {
                assert_eq!(
                    dev.check_range_access(start, blocks * 512),
                    Err(DeviceError::OutOfRange {
                        block: last,
                        num_blocks: 4
                    }),
                    "start {start}, {blocks} blocks"
                );
            }
            let mut buf = [0u8; 512];
            assert!(matches!(
                dev.read_blocks(start, &mut buf),
                Err(DeviceError::OutOfRange { .. })
            ));
            assert!(matches!(
                dev.write_blocks(start, &buf),
                Err(DeviceError::OutOfRange { .. })
            ));
        }
    }

    #[test]
    fn scalar_device_round_trips_through_default_impls() {
        let dev = ScalarDevice::new(MemDevice::new(8, 512));
        let data: Vec<u8> = (0..3 * 512).map(|i| (i % 251) as u8).collect();
        dev.write_blocks(2, &data).unwrap();
        let mut back = vec![0u8; 3 * 512];
        dev.read_blocks(2, &mut back).unwrap();
        assert_eq!(back, data);
        // The inner device really received the writes.
        assert_eq!(dev.inner().read_block_vec(3).unwrap(), data[512..1024]);
        // Blocks outside the range stay untouched.
        assert!(dev
            .inner()
            .read_block_vec(5)
            .unwrap()
            .iter()
            .all(|&b| b == 0));
    }

    #[test]
    fn error_display_messages() {
        let e = DeviceError::OutOfRange {
            block: 9,
            num_blocks: 4,
        };
        assert!(e.to_string().contains("block 9"));
        let e = DeviceError::BadBufferSize {
            expected: 4096,
            got: 100,
        };
        assert!(e.to_string().contains("4096"));
    }
}
