//! Failure injection — the one failure model the journal and the resilience
//! tier are proven against.
//!
//! A steg volume's hidden blocks are indistinguishable from free space, so in
//! any deployed setting cover traffic eventually overwrites some of them, and
//! power can fail in the middle of a multi-block update. [`FaultDevice`] wraps
//! any [`BlockDevice`] and injects exactly those failures on demand:
//!
//! * **power cuts** — every write is counted at *block* granularity: a scalar
//!   write is one unit, a ranged write of `c` blocks is `c` units, so a cut
//!   can land mid-range. Once a cut is armed ([`FaultDevice::arm_cut`]), the
//!   first `N` units land and every later write is silently dropped (`Ok` is
//!   still returned), as is every `sync`. The caller's in-memory state
//!   therefore runs to completion while the device retains exactly the
//!   prefix a power cut would have preserved; recovery is then exercised by
//!   re-opening from [`FaultDevice::snapshot_to_mem`]. The crash-state
//!   explorer (`tests/crash_recovery.rs`) learns an op sequence's total from
//!   [`FaultDevice::writes_attempted`] in one uncut run and then cuts at every
//!   `N = 0..=total`: `N = 0` is a crash before any write landed, `N = total`
//!   the no-crash case.
//! * **torn sectors** — the base model is sector-atomic (each block is
//!   entirely old or entirely new, the disk contract recovery reasons about),
//!   but the unit that crosses a cut can be torn instead of dropped
//!   ([`FaultDevice::arm_cut_torn`]), and the next scalar write can be torn
//!   without cutting power ([`FaultDevice::arm_partial_scalar_write`]): the
//!   block keeps its old bytes past the first `t`.
//! * **content faults** — bit flips and zeroed blocks from a seeded
//!   [`FaultPlan`], so a test run is bit-for-bit reproducible. A plan is
//!   applied straight to the storage underneath, so an armed cut or tear
//!   never swallows it.

use std::collections::VecDeque;

use parking_lot::Mutex;

use crate::device::{BlockDevice, BlockId, DeviceError};
use crate::layered::{write_torn, Io, IoHook, Layered};
use crate::mem::{clone_to_mem, MemDevice};

/// A deterministic, seeded plan of content faults (bit flips and zeroed
/// blocks). Building the same plan from the same seed over the same targets
/// injects byte-identical corruption, so every resilience test is replayable.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    state: u64,
    ops: Vec<PlannedFault>,
}

#[derive(Debug, Clone, Copy)]
enum PlannedFault {
    Flip { block: BlockId, raw: u64 },
    Zero { block: BlockId },
}

impl FaultPlan {
    /// Create an empty plan with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed,
            ops: Vec::new(),
        }
    }

    fn next_raw(&mut self) -> u64 {
        // splitmix64: full-period, trivially seedable, no state to misuse.
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Deterministically choose one of `candidates` (for picking fault
    /// targets from, e.g., a file's block list).
    pub fn choose(&mut self, candidates: &[BlockId]) -> BlockId {
        assert!(!candidates.is_empty(), "no candidates to choose from");
        candidates[(self.next_raw() % candidates.len() as u64) as usize]
    }

    /// Plan a single-bit flip at a deterministically chosen position inside
    /// `block`.
    pub fn flip_bit(&mut self, block: BlockId) -> &mut Self {
        let raw = self.next_raw();
        self.ops.push(PlannedFault::Flip { block, raw });
        self
    }

    /// Plan zeroing `block` entirely.
    pub fn zero_block(&mut self, block: BlockId) -> &mut Self {
        self.ops.push(PlannedFault::Zero { block });
        self
    }

    /// Number of planned content faults.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// A [`BlockDevice`] that cuts power, tears writes and corrupts content on
/// demand, under the failure model described at the top of `fault.rs`.
pub type FaultDevice<D> = Layered<D, FaultHook>;

/// The hook of a [`FaultDevice`]: counts write units and decides, from the
/// armed cut and tears, how much of each write lands.
#[derive(Default)]
pub struct FaultHook {
    state: Mutex<State>,
}

#[derive(Default)]
struct State {
    /// Write units attempted so far, landed or not.
    attempted: u64,
    /// The armed power cut: the units that land before it, and how many
    /// bytes of the unit that crosses it land.
    cut: Option<(u64, usize)>,
    /// One-shot tears of the next scalar writes, in arming order: how many
    /// bytes of each land.
    scalar_tears: VecDeque<usize>,
}

impl State {
    fn power_is_cut(&self) -> bool {
        matches!(self.cut, Some((after, _)) if self.attempted > after)
    }

    /// Count `io`'s write units and work out how many of its leading bytes
    /// land: `None` if all of them do.
    fn landed_bytes(&mut self, io: Io, block_size: usize) -> Option<usize> {
        let first = self.attempted;
        self.attempted += io.blocks;
        let crossed = self.cut.filter(|&(after, _)| self.attempted > after);
        let cut = crossed.map(|(after, torn)| match after.checked_sub(first) {
            // Units before `after` land whole, unit `after` lands `torn`
            // bytes, the rest are dropped.
            Some(whole) => whole as usize * block_size + torn.min(block_size),
            // An earlier request crossed the cut.
            None => 0,
        });
        let tear = if io.ranged {
            None
        } else {
            self.scalar_tears.pop_front()
        };
        cut.into_iter().chain(tear).min()
    }
}

impl<D: BlockDevice> IoHook<D> for FaultHook {
    fn write(&self, inner: &D, io: Io, buf: &[u8]) -> Result<(), DeviceError> {
        // A request the device refuses lands nothing and uses up nothing.
        io.check(inner, buf.len())?;
        let bs = inner.block_size();
        let landed = match self.state.lock().landed_bytes(io, bs) {
            Some(landed) if landed < buf.len() => landed,
            // Landing whole, a request keeps the caller's shape.
            _ => return io.forward_write(inner, buf),
        };
        // Forward the whole blocks that land, tear the next, drop the rest.
        let whole = landed / bs * bs;
        if whole > 0 {
            inner.write_blocks(io.start, &buf[..whole])?;
        }
        write_torn(
            inner,
            io.start + (whole / bs) as u64,
            &buf[whole..whole + bs],
            landed - whole,
        )
    }

    fn sync(&self, inner: &D) -> Result<(), DeviceError> {
        if self.state.lock().power_is_cut() {
            Ok(())
        } else {
            inner.sync()
        }
    }
}

impl<D: BlockDevice> Layered<D, FaultHook> {
    /// Wrap `inner` with nothing armed (all writes land; units are counted).
    pub fn new(inner: D) -> Self {
        Self::with_hook(inner, FaultHook::default())
    }

    /// Arm a power cut after the first `after_writes` write units counted
    /// since the last [`reset_counters`](Self::reset_counters) (or since the
    /// wrap): those land, everything later is silently dropped.
    pub fn arm_cut(&self, after_writes: u64) {
        self.arm_cut_torn(after_writes, 0);
    }

    /// Like [`arm_cut`](Self::arm_cut), but the unit that crosses the cut is
    /// torn rather than dropped: its first `landed_bytes` bytes land and the
    /// rest of the block keeps its previous content.
    pub fn arm_cut_torn(&self, after_writes: u64, landed_bytes: usize) {
        self.hook().state.lock().cut = Some((after_writes, landed_bytes));
    }

    /// Arm a partial scalar write: the next call to
    /// [`BlockDevice::write_block`] lands only its first `landed_bytes`
    /// bytes; the rest of the block keeps its previous content (a torn
    /// sector write). Ranged writes pass untouched; multiple arms queue in
    /// order.
    pub fn arm_partial_scalar_write(&self, landed_bytes: usize) {
        self.hook()
            .state
            .lock()
            .scalar_tears
            .push_back(landed_bytes);
    }

    /// Remove the armed cut and any armed tears; later writes land whole
    /// again ("power restored"). The unit count is unaffected.
    pub fn disarm(&self) {
        let mut state = self.hook().state.lock();
        state.cut = None;
        state.scalar_tears.clear();
    }

    /// Whether an armed cut has dropped or torn a write unit.
    pub fn power_is_cut(&self) -> bool {
        self.hook().state.lock().power_is_cut()
    }

    /// Total write units attempted through this wrapper (landed or not).
    pub fn writes_attempted(&self) -> u64 {
        self.hook().state.lock().attempted
    }

    /// Reset the unit count to zero (an armed cut keeps counting from the
    /// new zero, so disarm first if that is not intended).
    pub fn reset_counters(&self) {
        self.hook().state.lock().attempted = 0;
    }

    /// Copy the surviving on-device bytes into a fresh [`MemDevice`] — the
    /// "what a fsck would find after the power cut" image that recovery
    /// tests mount from. Reads bypass the cut, so this is usable at any time.
    pub fn snapshot_to_mem(&self) -> Result<MemDevice, DeviceError> {
        clone_to_mem(self.inner())
    }

    /// Apply every content fault in `plan` to the stored data right now.
    pub fn apply_plan(&self, plan: &FaultPlan) -> Result<(), DeviceError> {
        let bs = self.inner().block_size();
        let mut buf = vec![0u8; bs];
        for op in &plan.ops {
            match *op {
                PlannedFault::Flip { block, raw } => {
                    self.inner().read_block(block, &mut buf)?;
                    let byte = (raw as usize) % bs;
                    let bit = ((raw >> 32) % 8) as u8;
                    buf[byte] ^= 1 << bit;
                    self.inner().write_block(block, &buf)?;
                }
                PlannedFault::Zero { block } => {
                    buf.fill(0);
                    self.inner().write_block(block, &buf)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::BlockDeviceExt;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn plan_is_deterministic() {
        let build = || {
            let mut p = FaultPlan::new(0xDEAD);
            let t1 = p.choose(&[3, 5, 7, 9]);
            p.flip_bit(t1);
            let t2 = p.choose(&[3, 5, 7, 9]);
            p.zero_block(t2);
            (p, t1, t2)
        };
        let (p1, a1, b1) = build();
        let (_p2, a2, b2) = build();
        assert_eq!((a1, b1), (a2, b2));
        assert_eq!(p1.len(), 2);

        let dev1 = FaultDevice::new(MemDevice::new(16, 512));
        let dev2 = FaultDevice::new(MemDevice::new(16, 512));
        for dev in [&dev1, &dev2] {
            for b in 0..16 {
                dev.inner().fill_block(b, 0x5a).unwrap();
            }
        }
        dev1.apply_plan(&p1).unwrap();
        dev2.apply_plan(&p1).unwrap();
        for b in 0..16 {
            assert_eq!(
                dev1.inner().read_block_vec(b).unwrap(),
                dev2.inner().read_block_vec(b).unwrap(),
                "block {b}"
            );
        }
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit() {
        let dev = FaultDevice::new(MemDevice::new(8, 512));
        dev.inner().fill_block(3, 0xaa).unwrap();
        let before = dev.read_block_vec(3).unwrap();
        let mut plan = FaultPlan::new(1);
        plan.flip_bit(3);
        dev.apply_plan(&plan).unwrap();
        let after = dev.read_block_vec(3).unwrap();
        let flipped: u32 = before
            .iter()
            .zip(after.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn zero_block_zeroes() {
        let dev = FaultDevice::new(MemDevice::new(8, 512));
        dev.inner().fill_block(5, 0x11).unwrap();
        let mut plan = FaultPlan::new(2);
        plan.zero_block(5);
        dev.apply_plan(&plan).unwrap();
        assert!(dev.read_block_vec(5).unwrap().iter().all(|&b| b == 0));
    }

    #[test]
    fn a_plan_bypasses_what_is_armed() {
        let dev = FaultDevice::new(MemDevice::new(8, 512));
        dev.inner().fill_block(5, 0x22).unwrap();
        dev.arm_partial_scalar_write(10);
        let mut plan = FaultPlan::new(3);
        plan.zero_block(4).flip_bit(6);
        dev.apply_plan(&plan).unwrap();
        // The tear is still there for the next scalar write.
        dev.fill_block(5, 0x33).unwrap();
        let blk = dev.read_block_vec(5).unwrap();
        assert!(blk[..10].iter().all(|&b| b == 0x33));
        assert!(blk[10..].iter().all(|&b| b == 0x22));
        // A cut neither swallows a plan nor counts it.
        dev.arm_cut(0);
        let mut plan = FaultPlan::new(4);
        plan.zero_block(5);
        dev.apply_plan(&plan).unwrap();
        assert!(dev.read_block_vec(5).unwrap().iter().all(|&b| b == 0));
        assert_eq!(dev.writes_attempted(), 1);
    }

    #[test]
    fn untorn_traffic_is_transparent() {
        let dev = FaultDevice::new(MemDevice::new(8, 512));
        dev.fill_block(1, 0x11).unwrap();
        let data: Vec<u8> = (0..3 * 512).map(|i| (i % 251) as u8).collect();
        dev.write_blocks(2, &data).unwrap();
        assert_eq!(dev.writes_attempted(), 4); // 1 scalar + 3 ranged units
        assert!(!dev.power_is_cut());
        let mut back = vec![0u8; 3 * 512];
        dev.read_blocks(2, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn uncut_device_is_transparent_and_counts() {
        // A cut armed beyond the traffic drops nothing but still counts units.
        let dev = FaultDevice::new(MemDevice::new(8, 512));
        dev.arm_cut(10);
        dev.fill_block(1, 0x11).unwrap();
        let data: Vec<u8> = (0..3 * 512).map(|i| (i % 251) as u8).collect();
        dev.write_blocks(2, &data).unwrap();
        assert_eq!(dev.writes_attempted(), 4); // 1 scalar + 3 ranged units
        assert!(!dev.power_is_cut());
        assert!(dev.read_block_vec(1).unwrap().iter().all(|&x| x == 0x11));
        let mut back = vec![0u8; 3 * 512];
        dev.read_blocks(2, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn cut_lands_exactly_the_prefix() {
        // 5 scalar writes, cut after 3: exactly blocks 0..3 land.
        let dev = FaultDevice::new(MemDevice::new(8, 512));
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
        assert!(dev.power_is_cut());
    }

    #[test]
    fn torn_ranged_write_lands_prefix_only() {
        let dev = FaultDevice::new(MemDevice::new(8, 512));
        for b in 0..8 {
            dev.inner().fill_block(b, 0xee).unwrap();
        }
        dev.arm_cut(2);
        dev.write_blocks(1, &vec![0x33u8; 4 * 512]).unwrap();
        // First two blocks landed, last two kept their old content.
        assert!(dev.read_block_vec(1).unwrap().iter().all(|&b| b == 0x33));
        assert!(dev.read_block_vec(2).unwrap().iter().all(|&b| b == 0x33));
        assert!(dev.read_block_vec(3).unwrap().iter().all(|&b| b == 0xee));
        assert!(dev.read_block_vec(4).unwrap().iter().all(|&b| b == 0xee));
        assert_eq!(dev.writes_attempted(), 4);
        // Power restored: the next write is whole.
        dev.disarm();
        dev.write_blocks(1, &vec![0x44u8; 4 * 512]).unwrap();
        assert!(dev.read_block_vec(4).unwrap().iter().all(|&b| b == 0x44));
    }

    #[test]
    fn cut_mid_range_tears_a_ranged_write_at_block_granularity() {
        let dev = FaultDevice::new(MemDevice::new(8, 512));
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
        assert!(dev.power_is_cut());
        // The cut holds: a later ranged write lands nothing.
        dev.write_blocks(5, &vec![0x33u8; 2 * 512]).unwrap();
        assert!(dev.read_block_vec(5).unwrap().iter().all(|&x| x == 0xee));
        assert!(dev.read_block_vec(6).unwrap().iter().all(|&x| x == 0xee));
        assert_eq!(dev.writes_attempted(), 6);
    }

    #[test]
    fn mid_range_tear_lands_partial_bytes_of_the_next_block() {
        let dev = FaultDevice::new(MemDevice::new(8, 512));
        for b in 0..8 {
            dev.inner().fill_block(b, 0xee).unwrap();
        }
        dev.arm_cut_torn(1, 64);
        dev.write_blocks(1, &vec![0x33u8; 4 * 512]).unwrap();
        // Block 1 landed whole; block 2 got its first 64 bytes; 3, 4 intact.
        assert!(dev.read_block_vec(1).unwrap().iter().all(|&b| b == 0x33));
        let torn = dev.read_block_vec(2).unwrap();
        assert!(torn[..64].iter().all(|&b| b == 0x33));
        assert!(torn[64..].iter().all(|&b| b == 0xee));
        assert!(dev.read_block_vec(3).unwrap().iter().all(|&b| b == 0xee));
        assert!(dev.read_block_vec(4).unwrap().iter().all(|&b| b == 0xee));
    }

    #[test]
    fn torn_cut_lands_partial_bytes_of_the_crossing_unit() {
        let dev = FaultDevice::new(MemDevice::new(8, 512));
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
    fn partial_scalar_write_tears_a_sector() {
        let dev = FaultDevice::new(MemDevice::new(8, 512));
        dev.inner().fill_block(2, 0xaa).unwrap();
        dev.arm_partial_scalar_write(100);
        dev.fill_block(2, 0xbb).unwrap();
        let blk = dev.read_block_vec(2).unwrap();
        assert!(blk[..100].iter().all(|&b| b == 0xbb));
        assert!(blk[100..].iter().all(|&b| b == 0xaa));
    }

    #[test]
    fn zero_landed_scalar_tear_drops_the_write() {
        let dev = FaultDevice::new(MemDevice::new(8, 512));
        dev.inner().fill_block(2, 0xaa).unwrap();
        dev.arm_partial_scalar_write(0);
        dev.fill_block(2, 0xbb).unwrap();
        assert!(dev.read_block_vec(2).unwrap().iter().all(|&b| b == 0xaa));
    }

    #[test]
    fn a_scalar_tear_waits_for_a_scalar_write() {
        let dev = FaultDevice::new(MemDevice::new(8, 512));
        dev.inner().fill_block(1, 0xaa).unwrap();
        dev.arm_partial_scalar_write(100);
        dev.write_blocks(4, &[0x55u8; 2 * 512]).unwrap();
        assert!(dev.read_block_vec(5).unwrap().iter().all(|&b| b == 0x55));
        dev.fill_block(1, 0xbb).unwrap();
        let blk = dev.read_block_vec(1).unwrap();
        assert!(blk[..100].iter().all(|&b| b == 0xbb));
        assert!(blk[100..].iter().all(|&b| b == 0xaa));
    }

    #[test]
    fn a_refused_write_leaves_the_tear_armed() {
        let dev = FaultDevice::new(MemDevice::new(4, 512));
        dev.inner().fill_block(1, 0xaa).unwrap();
        dev.arm_partial_scalar_write(100);
        assert!(dev.fill_block(99, 0xbb).is_err());
        dev.fill_block(1, 0xbb).unwrap();
        let blk = dev.read_block_vec(1).unwrap();
        assert!(blk[..100].iter().all(|&b| b == 0xbb));
        assert!(blk[100..].iter().all(|&b| b == 0xaa));
    }

    #[test]
    fn power_stays_on_until_a_unit_is_lost() {
        struct Syncs(AtomicU64);
        impl IoHook<MemDevice> for Syncs {
            fn sync(&self, inner: &MemDevice) -> Result<(), DeviceError> {
                self.0.fetch_add(1, Ordering::Relaxed);
                inner.sync()
            }
        }
        let below = Layered::with_hook(MemDevice::new(4, 512), Syncs(AtomicU64::new(0)));
        let dev = FaultDevice::new(below);
        let syncs = || dev.inner().hook().0.load(Ordering::Relaxed);
        dev.arm_cut(1);
        dev.fill_block(0, 0x11).unwrap();
        assert!(!dev.power_is_cut(), "every unit so far landed");
        dev.sync().unwrap();
        assert_eq!(syncs(), 1, "the flush reaches the device");
        dev.fill_block(1, 0x22).unwrap();
        assert!(dev.power_is_cut());
        dev.sync().unwrap();
        assert_eq!(syncs(), 1, "a cut device withholds the flush");
    }

    #[test]
    fn disarm_restores_power() {
        let dev = FaultDevice::new(MemDevice::new(8, 512));
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
        let dev = FaultDevice::new(MemDevice::new(4, 512));
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
    fn every_prefix_of_a_multi_write_op_is_reachable() {
        // Exhaustively check that cutting at N lands exactly N units.
        let op_writes = 6u64;
        for n in 0..=op_writes {
            let dev = FaultDevice::new(MemDevice::new(8, 512));
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
