//! Power-cut injection — the crash model the journal layer is proven against.
//!
//! [`CrashDevice`] wraps any [`BlockDevice`] and counts every write at *block*
//! granularity: a scalar write is one unit, a ranged write of `c` blocks is
//! `c` units, so a cut can land mid-range. Once a cut is armed, the first `N`
//! units land and every later write is silently dropped (`Ok` is still
//! returned). The caller's in-memory state therefore runs to completion while
//! the device retains exactly the prefix a power cut would have preserved;
//! recovery is then exercised by re-opening from a snapshot of the surviving
//! bytes.
//!
//! The base model is **sector-atomic**: each block is entirely old or entirely
//! new, which is the standard disk contract recovery reasons about. The unit
//! that crosses the cut can optionally be *torn* instead of dropped
//! ([`CrashDevice::arm_cut_torn`]), landing only its first `t` bytes — the
//! sub-sector failure shape [`FaultDevice`](crate::FaultDevice) injects — for
//! targeted tests beyond the sector-atomic contract.
//!
//! [`CrashPoint`] discovers the total write count of an operation by running
//! it once uncut, then enumerates every cut index `N = 0..=total` so a test
//! matrix can assert that *every* prefix recovers to exactly the old or the
//! new state.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::device::{BlockDevice, DeviceError};
use crate::layered::{write_torn, Io, IoHook, Layered};
use crate::mem::MemDevice;

#[derive(Debug, Clone, Copy)]
struct CutPlan {
    /// Write units (block-granular) that still land before the cut.
    after: u64,
    /// If set, the unit that crosses the cut lands only this many bytes.
    torn_bytes: Option<usize>,
}

/// A [`BlockDevice`] that cuts power after a configured number of
/// block-granular write units. See the [module docs](self) for the model.
pub type CrashDevice<D> = Layered<D, CrashHook>;

/// The hook of a [`CrashDevice`]: counts write units and decides which land.
#[derive(Default)]
pub struct CrashHook {
    cut: Mutex<Option<CutPlan>>,
    attempted: AtomicU64,
    dropped: AtomicU64,
}

impl CrashHook {
    fn power_is_cut(&self) -> bool {
        match *self.cut.lock() {
            Some(plan) => self.attempted.load(Ordering::Relaxed) >= plan.after,
            None => false,
        }
    }

    /// Account for one write unit of a `block_size`-byte block and decide its
    /// fate. Returns how many bytes of the block should land (`block_size` =
    /// all, `0` = dropped).
    fn admit_unit(&self, block_size: usize) -> usize {
        let plan = self.cut.lock();
        let idx = self.attempted.fetch_add(1, Ordering::Relaxed);
        match *plan {
            None => block_size,
            Some(p) if idx < p.after => block_size,
            Some(p) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                if idx == p.after {
                    p.torn_bytes.unwrap_or(0).min(block_size)
                } else {
                    0
                }
            }
        }
    }
}

impl<D: BlockDevice> IoHook<D> for CrashHook {
    fn write(&self, inner: &D, io: Io, buf: &[u8]) -> Result<(), DeviceError> {
        io.check(inner, buf.len())?;
        let bs = inner.block_size();
        // Per-block admission so the cut can fall mid-range; a request that
        // lands whole is forwarded as the caller issued it, so the inner
        // device's I/O accounting keeps the uncut shape.
        let total = io.blocks as usize;
        for i in 0..total {
            let landed = self.admit_unit(bs);
            if landed == bs {
                continue;
            }
            // Flush the fully-landing prefix, then the torn remainder.
            if i > 0 {
                inner.write_blocks(io.start, &buf[..i * bs])?;
            }
            write_torn(
                inner,
                io.start + i as u64,
                &buf[i * bs..(i + 1) * bs],
                landed,
            )?;
            // Account for the remaining units, all dropped.
            for _ in i + 1..total {
                self.admit_unit(bs);
            }
            return Ok(());
        }
        io.forward_write(inner, buf)
    }

    fn sync(&self, inner: &D) -> Result<(), DeviceError> {
        if self.power_is_cut() {
            Ok(())
        } else {
            inner.sync()
        }
    }
}

impl<D: BlockDevice> Layered<D, CrashHook> {
    /// Wrap `inner` with no cut armed (all writes land; units are counted).
    pub fn new(inner: D) -> Self {
        Self::with_hook(inner, CrashHook::default())
    }

    /// Arm a power cut: counting from now, the next `after_writes` write
    /// units land and everything later is silently dropped.
    pub fn arm_cut(&self, after_writes: u64) {
        *self.hook().cut.lock() = Some(CutPlan {
            after: after_writes,
            torn_bytes: None,
        });
    }

    /// Like [`arm_cut`](Self::arm_cut), but the unit that crosses the cut is
    /// torn rather than dropped: its first `landed_bytes` bytes land and the
    /// rest of the block keeps its previous content.
    pub fn arm_cut_torn(&self, after_writes: u64, landed_bytes: usize) {
        *self.hook().cut.lock() = Some(CutPlan {
            after: after_writes,
            torn_bytes: Some(landed_bytes),
        });
    }

    /// Remove any armed cut; subsequent writes land again ("power restored").
    /// Counters are unaffected.
    pub fn disarm(&self) {
        *self.hook().cut.lock() = None;
    }

    /// Whether an armed cut has already been crossed.
    pub fn power_is_cut(&self) -> bool {
        self.hook().power_is_cut()
    }

    /// Total write units attempted through this wrapper (landed or not).
    pub fn writes_attempted(&self) -> u64 {
        self.hook().attempted.load(Ordering::Relaxed)
    }

    /// Write units dropped (or torn) because of an armed cut.
    pub fn writes_dropped(&self) -> u64 {
        self.hook().dropped.load(Ordering::Relaxed)
    }

    /// Reset both counters to zero (an armed cut keeps counting from the new
    /// zero, so disarm first if that is not intended).
    pub fn reset_counters(&self) {
        self.hook().attempted.store(0, Ordering::Relaxed);
        self.hook().dropped.store(0, Ordering::Relaxed);
    }

    /// Copy the surviving on-device bytes into a fresh [`MemDevice`] — the
    /// "what a fsck would find after the power cut" snapshot that recovery
    /// tests mount from. Reads bypass the cut, so this is usable at any time.
    pub fn snapshot_to_mem(&self) -> Result<MemDevice, DeviceError> {
        clone_to_mem(self.inner())
    }
}

/// Copy every block of `dev` into a fresh [`MemDevice`] with the same
/// geometry. Used to snapshot a baseline volume before a crash-point sweep.
pub fn clone_to_mem(dev: &impl BlockDevice) -> Result<MemDevice, DeviceError> {
    let copy = MemDevice::new(dev.num_blocks(), dev.block_size());
    let bs = dev.block_size();
    let mut buf = vec![0u8; bs];
    for b in 0..dev.num_blocks() {
        dev.read_block(b, &mut buf)?;
        copy.write_block(b, &buf)?;
    }
    Ok(copy)
}

/// The discovered write count of one operation, enumerating every power-cut
/// index. `N = 0` means the crash hit before any write landed; `N = total`
/// is the no-crash case and must equal the fully-new state.
#[derive(Debug, Clone, Copy)]
pub struct CrashPoint {
    total: u64,
}

impl CrashPoint {
    /// Run `op` with no cut armed and record how many write units it issued.
    /// The operation's effects land on the device, so discovery is typically
    /// run against a scratch copy of the baseline.
    pub fn discover<D: BlockDevice>(dev: &CrashDevice<D>, op: impl FnOnce()) -> Self {
        let before = dev.writes_attempted();
        op();
        Self {
            total: dev.writes_attempted() - before,
        }
    }

    /// A crash point with a known total, for re-sweeping without rediscovery.
    pub fn with_total(total: u64) -> Self {
        Self { total }
    }

    /// Total write units the operation issued.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Every cut index to test: `0..=total`.
    pub fn iter(&self) -> std::ops::RangeInclusive<u64> {
        0..=self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::BlockDeviceExt;

    #[test]
    fn uncut_device_is_transparent_and_counts() {
        let dev = CrashDevice::new(MemDevice::new(8, 512));
        dev.fill_block(1, 0x11).unwrap();
        let data: Vec<u8> = (0..3 * 512).map(|i| (i % 251) as u8).collect();
        dev.write_blocks(2, &data).unwrap();
        assert_eq!(dev.writes_attempted(), 4); // 1 scalar + 3 ranged units
        assert_eq!(dev.writes_dropped(), 0);
        let mut back = vec![0u8; 3 * 512];
        dev.read_blocks(2, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn cut_lands_exactly_the_prefix() {
        // 5 scalar writes, cut after 3: exactly blocks 0..3 land.
        let dev = CrashDevice::new(MemDevice::new(8, 512));
        dev.arm_cut(3);
        for b in 0..5 {
            dev.fill_block(b, 0xbb).unwrap();
        }
        for b in 0..3u64 {
            assert!(dev.read_block_vec(b).unwrap().iter().all(|&x| x == 0xbb));
        }
        for b in 3..5u64 {
            assert!(dev.read_block_vec(b).unwrap().iter().all(|&x| x == 0));
        }
        assert_eq!(dev.writes_attempted(), 5);
        assert_eq!(dev.writes_dropped(), 2);
        assert!(dev.power_is_cut());
    }

    #[test]
    fn cut_mid_range_tears_a_ranged_write_at_block_granularity() {
        let dev = CrashDevice::new(MemDevice::new(8, 512));
        for b in 0..8 {
            dev.inner().fill_block(b, 0xee).unwrap();
        }
        dev.arm_cut(2);
        dev.write_blocks(1, &vec![0x33u8; 4 * 512]).unwrap();
        assert!(dev.read_block_vec(1).unwrap().iter().all(|&x| x == 0x33));
        assert!(dev.read_block_vec(2).unwrap().iter().all(|&x| x == 0x33));
        assert!(dev.read_block_vec(3).unwrap().iter().all(|&x| x == 0xee));
        assert!(dev.read_block_vec(4).unwrap().iter().all(|&x| x == 0xee));
        assert_eq!(dev.writes_attempted(), 4);
        assert_eq!(dev.writes_dropped(), 2);
    }

    #[test]
    fn torn_cut_lands_partial_bytes_of_the_crossing_unit() {
        let dev = CrashDevice::new(MemDevice::new(8, 512));
        dev.inner().fill_block(2, 0xaa).unwrap();
        dev.inner().fill_block(3, 0xaa).unwrap();
        dev.arm_cut_torn(1, 100);
        dev.fill_block(2, 0xbb).unwrap(); // lands fully (index 0 < 1)
        dev.fill_block(3, 0xcc).unwrap(); // crossing unit: torn at 100 bytes
        dev.fill_block(4, 0xdd).unwrap(); // dropped
        assert!(dev.read_block_vec(2).unwrap().iter().all(|&x| x == 0xbb));
        let blk = dev.read_block_vec(3).unwrap();
        assert!(blk[..100].iter().all(|&x| x == 0xcc));
        assert!(blk[100..].iter().all(|&x| x == 0xaa));
        assert!(dev.read_block_vec(4).unwrap().iter().all(|&x| x == 0));
    }

    #[test]
    fn disarm_restores_power() {
        let dev = CrashDevice::new(MemDevice::new(8, 512));
        dev.arm_cut(0);
        dev.fill_block(1, 0x77).unwrap();
        assert!(dev.read_block_vec(1).unwrap().iter().all(|&x| x == 0));
        dev.disarm();
        assert!(!dev.power_is_cut());
        dev.fill_block(1, 0x77).unwrap();
        assert!(dev.read_block_vec(1).unwrap().iter().all(|&x| x == 0x77));
    }

    #[test]
    fn snapshot_copies_surviving_bytes() {
        let dev = CrashDevice::new(MemDevice::new(4, 512));
        dev.arm_cut(1);
        dev.fill_block(0, 0x11).unwrap();
        dev.fill_block(1, 0x22).unwrap(); // dropped
        let snap = dev.snapshot_to_mem().unwrap();
        assert!(snap.read_block_vec(0).unwrap().iter().all(|&x| x == 0x11));
        assert!(snap.read_block_vec(1).unwrap().iter().all(|&x| x == 0));
        // The snapshot is decoupled from the original.
        snap.fill_block(0, 0x99).unwrap();
        assert!(dev.read_block_vec(0).unwrap().iter().all(|&x| x == 0x11));
    }

    #[test]
    fn crash_point_discovers_and_enumerates() {
        let dev = CrashDevice::new(MemDevice::new(8, 512));
        dev.fill_block(0, 1).unwrap(); // pre-existing traffic
        let cp = CrashPoint::discover(&dev, || {
            dev.fill_block(1, 2).unwrap();
            dev.write_blocks(2, &vec![3u8; 2 * 512]).unwrap();
        });
        assert_eq!(cp.total(), 3);
        let points: Vec<u64> = cp.iter().collect();
        assert_eq!(points, vec![0, 1, 2, 3]);
        assert_eq!(CrashPoint::with_total(2).total(), 2);
    }

    #[test]
    fn every_prefix_of_a_multi_write_op_is_reachable() {
        // Exhaustively check that cutting at N lands exactly N units.
        let op_writes = 6u64;
        for n in 0..=op_writes {
            let dev = CrashDevice::new(MemDevice::new(8, 512));
            dev.arm_cut(n);
            for b in 0..op_writes {
                dev.fill_block(b, 0x55).unwrap();
            }
            let landed = (0..op_writes)
                .filter(|&b| dev.read_block_vec(b).unwrap().iter().all(|&x| x == 0x55))
                .count() as u64;
            assert_eq!(landed, n, "cut at {n}");
        }
    }
}
