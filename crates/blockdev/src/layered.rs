//! The one forwarding layer: [`Layered`] sits on a device, hands every
//! request to the device underneath **in the caller's shape** — a scalar call
//! stays one scalar call, a ranged call one ranged call of the same length —
//! and tells an [`IoHook`] about it.
//!
//! Shape is the reason this is written once. A wrapper that forwards only
//! the scalar methods still compiles, and the trait defaults then re-issue
//! every range as N scalar requests: under [`SimDevice`](crate::sim::SimDevice)
//! that bills a level sweep as N positionings, under
//! [`TracingDevice`](crate::TracingDevice) it changes the attacker's trace.
//! A hook cannot make that mistake, because it never forwards a read and
//! forwards a write only through [`Io::forward_write`].
//!
//! Every observing device of the workspace is an alias
//! `Layered<D, SomeHook>` with its constructors and accessors as inherent
//! methods; a test double is a closure `Fn(&D, Io) -> Result<(), DeviceError>`
//! (run as [`IoHook::before`]) or a few lines of hook.

use crate::device::{BlockDevice, BlockId, DeviceError};

/// Kind of I/O request observed on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoKind {
    /// A block read.
    Read,
    /// A block write.
    Write,
}

/// One request as a [`Layered`] device received it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Io {
    /// Read or write.
    pub kind: IoKind,
    /// First block addressed.
    pub start: BlockId,
    /// Number of blocks addressed: 1 for a scalar call, `buf.len() /
    /// block_size` for a ranged one (a malformed length is the inner
    /// device's to refuse, so hooks that run before it may see 0).
    pub blocks: u64,
    /// Whether the caller used `read_blocks` / `write_blocks`.
    pub ranged: bool,
}

impl Io {
    /// Whether the request addresses `block`.
    pub fn contains(&self, block: BlockId) -> bool {
        block >= self.start && block - self.start < self.blocks
    }

    /// The blocks the request addresses, in order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        let start = self.start;
        (0..self.blocks).map(move |i| start + i)
    }

    /// Validate `buf_len` and the addressed range against `dev`, by the
    /// scalar or the ranged rule as the caller's shape demands. For hooks
    /// that take a request apart before the inner device has judged it.
    pub fn check<D: BlockDevice + ?Sized>(
        &self,
        dev: &D,
        buf_len: usize,
    ) -> Result<(), DeviceError> {
        if self.ranged {
            dev.check_range_access(self.start, buf_len)
        } else {
            dev.check_access(self.start, buf_len)
        }
    }

    /// Issue this read to `dev` in the caller's shape.
    fn forward_read<D: BlockDevice + ?Sized>(
        &self,
        dev: &D,
        buf: &mut [u8],
    ) -> Result<(), DeviceError> {
        if self.ranged {
            dev.read_blocks(self.start, buf)
        } else {
            dev.read_block(self.start, buf)
        }
    }

    /// Issue this write to `dev` in the caller's shape — what
    /// [`IoHook::write`] does unless a hook decides otherwise.
    pub fn forward_write<D: BlockDevice + ?Sized>(
        &self,
        dev: &D,
        buf: &[u8],
    ) -> Result<(), DeviceError> {
        if self.ranged {
            dev.write_blocks(self.start, buf)
        } else {
            dev.write_block(self.start, buf)
        }
    }
}

/// What a [`Layered`] device does besides forwarding. Every method defaults
/// to nothing, so a hook states only what it adds. For one request the order
/// is `before`, the transfer (`write` for writes), `after_read` for reads,
/// `after`; the first error ends the request and is returned unchanged.
pub trait IoHook<D: BlockDevice>: Send + Sync {
    /// Runs before anything reaches `inner`; may wait, and may refuse the
    /// request, in which case nothing is forwarded.
    fn before(&self, _inner: &D, _io: Io) -> Result<(), DeviceError> {
        Ok(())
    }

    /// Carries out a write. The default forwards it; a hook that models a
    /// failing medium overrides this to decide what lands.
    fn write(&self, inner: &D, io: Io, buf: &[u8]) -> Result<(), DeviceError> {
        io.forward_write(inner, buf)
    }

    /// Sees (and may alter) the buffer a successful read filled.
    fn after_read(&self, _inner: &D, _io: Io, _buf: &mut [u8]) {}

    /// The request succeeded.
    fn after(&self, _inner: &D, _io: Io) {}

    /// Carries out a `sync`; forwards by default.
    fn sync(&self, inner: &D) -> Result<(), DeviceError> {
        inner.sync()
    }
}

/// A closure is a hook that runs before each request: observe it, wait, or
/// refuse it.
impl<D, F> IoHook<D> for F
where
    D: BlockDevice,
    F: Fn(&D, Io) -> Result<(), DeviceError> + Send + Sync,
{
    fn before(&self, inner: &D, io: Io) -> Result<(), DeviceError> {
        self(inner, io)
    }
}

/// Overlay the first `landed` bytes of `new` on what `block` holds and write
/// the result back: a sector write that lost power part-way. Zero bytes
/// landing touches nothing.
pub(crate) fn write_torn<D: BlockDevice + ?Sized>(
    dev: &D,
    block: BlockId,
    new: &[u8],
    landed: usize,
) -> Result<(), DeviceError> {
    let landed = landed.min(new.len());
    if landed == 0 {
        return Ok(());
    }
    let mut old = vec![0u8; new.len()];
    dev.read_block(block, &mut old)?;
    old[..landed].copy_from_slice(&new[..landed]);
    dev.write_block(block, &old)
}

/// A device `D` with a hook `H` on its request path: the one
/// `impl BlockDevice` that forwards. See the [crate docs](crate).
pub struct Layered<D, H> {
    inner: D,
    hook: H,
}

impl<D: BlockDevice, H: IoHook<D>> Layered<D, H> {
    /// Put `hook` on `inner`'s request path.
    pub fn with_hook(inner: D, hook: H) -> Self {
        Self { inner, hook }
    }

    /// The device underneath.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Consume the layer and return the device underneath.
    pub fn into_inner(self) -> D {
        self.inner
    }

    /// The hook.
    pub fn hook(&self) -> &H {
        &self.hook
    }

    fn ranged(&self, kind: IoKind, start: BlockId, buf_len: usize) -> Io {
        Io {
            kind,
            start,
            blocks: buf_len.checked_div(self.inner.block_size()).unwrap_or(0) as u64,
            ranged: true,
        }
    }

    fn read(&self, io: Io, buf: &mut [u8]) -> Result<(), DeviceError> {
        self.hook.before(&self.inner, io)?;
        io.forward_read(&self.inner, buf)?;
        self.hook.after_read(&self.inner, io, buf);
        self.hook.after(&self.inner, io);
        Ok(())
    }

    fn write(&self, io: Io, buf: &[u8]) -> Result<(), DeviceError> {
        self.hook.before(&self.inner, io)?;
        self.hook.write(&self.inner, io, buf)?;
        self.hook.after(&self.inner, io);
        Ok(())
    }
}

fn scalar(kind: IoKind, block: BlockId) -> Io {
    Io {
        kind,
        start: block,
        blocks: 1,
        ranged: false,
    }
}

impl<D: BlockDevice, H: IoHook<D>> BlockDevice for Layered<D, H> {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn read_block(&self, block: BlockId, buf: &mut [u8]) -> Result<(), DeviceError> {
        self.read(scalar(IoKind::Read, block), buf)
    }

    fn write_block(&self, block: BlockId, buf: &[u8]) -> Result<(), DeviceError> {
        self.write(scalar(IoKind::Write, block), buf)
    }

    fn read_blocks(&self, start: BlockId, buf: &mut [u8]) -> Result<(), DeviceError> {
        self.read(self.ranged(IoKind::Read, start, buf.len()), buf)
    }

    fn write_blocks(&self, start: BlockId, buf: &[u8]) -> Result<(), DeviceError> {
        self.write(self.ranged(IoKind::Write, start, buf.len()), buf)
    }

    fn sync(&self) -> Result<(), DeviceError> {
        self.hook.sync(&self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimDevice;
    use crate::{FaultDevice, MemDevice, TracingDevice};
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    const BLOCKS: u64 = 16;
    const BS: usize = 64;

    /// What the layer under the one being tested saw, and a switch that
    /// makes it refuse everything.
    #[derive(Default)]
    struct Below {
        seen: Mutex<Vec<Io>>,
        syncs: AtomicU64,
        refuse: AtomicBool,
    }

    struct Record(Arc<Below>);

    impl IoHook<MemDevice> for Record {
        fn before(&self, _inner: &MemDevice, io: Io) -> Result<(), DeviceError> {
            if self.0.refuse.load(Ordering::SeqCst) {
                return Err(refusal());
            }
            self.0.seen.lock().push(io);
            Ok(())
        }

        fn sync(&self, inner: &MemDevice) -> Result<(), DeviceError> {
            self.0.syncs.fetch_add(1, Ordering::SeqCst);
            inner.sync()
        }
    }

    type Recorder = Layered<MemDevice, Record>;

    fn recorder(below: &Arc<Below>) -> Recorder {
        Layered::with_hook(MemDevice::new(BLOCKS, BS), Record(below.clone()))
    }

    fn refusal() -> DeviceError {
        DeviceError::Io("refused below".to_string())
    }

    fn io(kind: IoKind, start: BlockId, blocks: u64, ranged: bool) -> Io {
        Io {
            kind,
            start,
            blocks,
            ranged,
        }
    }

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len).map(|i| seed.wrapping_add(i as u8)).collect()
    }

    /// What every layer owes the device under it, whatever its hook adds.
    fn conforms<H: IoHook<Recorder>>(name: &str, wrap: impl Fn(Recorder) -> Layered<Recorder, H>) {
        let below = Arc::new(Below::default());
        let dev = wrap(recorder(&below));

        assert_eq!((dev.num_blocks(), dev.block_size()), (BLOCKS, BS), "{name}");

        // One request in, the same request out: a scalar call arrives as one
        // scalar call, a ranged call as one ranged call of the same length.
        let (one, three) = (pattern(BS, 1), pattern(3 * BS, 2));
        dev.write_block(2, &one).unwrap();
        dev.write_blocks(5, &three).unwrap();
        let (mut back_one, mut back_three) = (vec![0u8; BS], vec![0u8; 3 * BS]);
        dev.read_block(2, &mut back_one).unwrap();
        dev.read_blocks(5, &mut back_three).unwrap();
        assert_eq!(
            *below.seen.lock(),
            [
                io(IoKind::Write, 2, 1, false),
                io(IoKind::Write, 5, 3, true),
                io(IoKind::Read, 2, 1, false),
                io(IoKind::Read, 5, 3, true),
            ],
            "{name}"
        );
        assert_eq!((&back_one, &back_three), (&one, &three), "{name}");
        let mut stored = vec![0u8; BS];
        dev.inner().inner().read_block(6, &mut stored).unwrap();
        assert_eq!(stored, three[BS..2 * BS], "{name}");

        dev.sync().unwrap();
        assert_eq!(below.syncs.load(Ordering::SeqCst), 1, "{name}");

        // Errors from below come back unchanged, in both shapes.
        below.refuse.store(true, Ordering::SeqCst);
        assert_eq!(dev.read_block(2, &mut back_one), Err(refusal()), "{name}");
        assert_eq!(
            dev.read_blocks(5, &mut back_three),
            Err(refusal()),
            "{name}"
        );
        assert_eq!(dev.write_block(2, &one), Err(refusal()), "{name}");
        assert_eq!(dev.write_blocks(5, &three), Err(refusal()), "{name}");
        below.refuse.store(false, Ordering::SeqCst);
        assert_eq!(
            dev.read_blocks(BLOCKS - 1, &mut back_three),
            Err(DeviceError::OutOfRange {
                block: BLOCKS + 1,
                num_blocks: BLOCKS
            }),
            "{name}"
        );
        assert_eq!(
            dev.write_block(BLOCKS, &one),
            Err(DeviceError::OutOfRange {
                block: BLOCKS,
                num_blocks: BLOCKS
            }),
            "{name}"
        );
        assert_eq!(
            dev.write_blocks(0, &one[..BS - 1]),
            Err(DeviceError::BadBufferSize {
                expected: BS,
                got: BS - 1
            }),
            "{name}"
        );
    }

    #[test]
    fn every_hook_forwards_each_request_once_in_the_callers_shape() {
        conforms("tracing", TracingDevice::new);
        conforms("sim", SimDevice::new);
        conforms("fault, unarmed", FaultDevice::new);
        conforms("closure", |d| {
            Layered::with_hook(d, |_: &Recorder, _: Io| Ok(()))
        });
    }

    #[test]
    fn a_failing_before_forwards_nothing() {
        let below = Arc::new(Below::default());
        let no_writes = |_: &Recorder, io: Io| match io.kind {
            IoKind::Write => Err(DeviceError::Io("read-only".to_string())),
            IoKind::Read => Ok(()),
        };
        let dev = Layered::with_hook(recorder(&below), no_writes);
        let data = pattern(2 * BS, 9);
        let read_only = Err(DeviceError::Io("read-only".to_string()));
        assert_eq!(dev.write_block(1, &data[..BS]), read_only);
        assert_eq!(dev.write_blocks(1, &data), read_only);
        assert!(below.seen.lock().is_empty());
        let mut back = vec![0xFFu8; 2 * BS];
        dev.read_blocks(1, &mut back).unwrap();
        assert_eq!(back, vec![0u8; 2 * BS], "nothing landed");
        assert_eq!(*below.seen.lock(), [io(IoKind::Read, 1, 2, true)]);
    }

    #[test]
    fn hooks_run_in_order_and_the_first_error_ends_the_request() {
        /// Notes each call; alters what a read returns; refuses to land
        /// writes to block 7.
        #[derive(Default)]
        struct Noting(Mutex<Vec<&'static str>>);
        impl IoHook<MemDevice> for Noting {
            fn before(&self, _: &MemDevice, _: Io) -> Result<(), DeviceError> {
                self.0.lock().push("before");
                Ok(())
            }
            fn write(&self, inner: &MemDevice, io: Io, buf: &[u8]) -> Result<(), DeviceError> {
                self.0.lock().push("write");
                if io.contains(7) {
                    return Err(DeviceError::Io("bad sector".to_string()));
                }
                io.forward_write(inner, buf)
            }
            fn after_read(&self, _: &MemDevice, io: Io, buf: &mut [u8]) {
                self.0.lock().push("after_read");
                assert_eq!(buf.len(), io.blocks as usize * BS);
                assert!(buf.iter().all(|&b| b == 0x11), "sees the filled buffer");
                buf[0] = 0xEE;
            }
            fn after(&self, _: &MemDevice, _: Io) {
                self.0.lock().push("after");
            }
        }
        let dev = Layered::with_hook(MemDevice::new(BLOCKS, BS), Noting::default());
        let notes = || std::mem::take(&mut *dev.hook().0.lock());

        dev.write_blocks(2, &[0x11u8; 2 * BS]).unwrap();
        assert_eq!(notes(), ["before", "write", "after"]);
        let mut buf = vec![0u8; 2 * BS];
        dev.read_blocks(2, &mut buf).unwrap();
        assert_eq!(notes(), ["before", "after_read", "after"]);
        assert_eq!((buf[0], buf[1]), (0xEE, 0x11));

        assert!(dev.write_blocks(6, &[0x11u8; 2 * BS]).is_err());
        assert_eq!(notes(), ["before", "write"], "no `after` for a failure");
        assert!(dev.read_block(BLOCKS, &mut buf[..BS]).is_err());
        assert_eq!(notes(), ["before"]);
    }

    #[test]
    fn io_names_the_blocks_it_addresses() {
        let ranged = io(IoKind::Read, u64::MAX - 1, 2, true);
        assert!(ranged.contains(u64::MAX - 1) && ranged.contains(u64::MAX));
        assert!(!ranged.contains(u64::MAX - 2) && !ranged.contains(0));
        assert_eq!(
            io(IoKind::Write, 4, 3, true)
                .block_ids()
                .collect::<Vec<_>>(),
            [4, 5, 6]
        );
        assert!(!io(IoKind::Write, 4, 0, true).contains(4));
    }

    #[test]
    fn a_torn_write_overlays_a_prefix_on_the_old_block() {
        let dev = MemDevice::new(4, BS);
        dev.write_block(1, &[0xAAu8; BS]).unwrap();
        write_torn(&dev, 1, &[0xBBu8; BS], 10).unwrap();
        let mut blk = vec![0u8; BS];
        dev.read_block(1, &mut blk).unwrap();
        assert!(blk[..10].iter().all(|&b| b == 0xBB) && blk[10..].iter().all(|&b| b == 0xAA));
        // Nothing landing touches nothing — not even a block that is not there.
        write_torn(&dev, 99, &[0xBBu8; BS], 0).unwrap();
        // More than a block's worth is the whole block.
        write_torn(&dev, 1, &[0xCCu8; BS], BS + 1).unwrap();
        dev.read_block(1, &mut blk).unwrap();
        assert!(blk.iter().all(|&b| b == 0xCC));
    }
}
