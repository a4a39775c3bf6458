//! Deterministic fault injection — the failure model the resilience tier is
//! proven against.
//!
//! A steg volume's hidden blocks are indistinguishable from free space, so in
//! any deployed setting cover traffic eventually overwrites some of them, and
//! a crash can tear a multi-block write in half. [`FaultDevice`] wraps any
//! [`BlockDevice`] and injects exactly those failures on demand:
//!
//! * **bit flips** and **zeroed blocks**, applied immediately from a seeded
//!   [`FaultPlan`] so a test run is bit-for-bit reproducible;
//! * **torn ranged writes** — the next ranged write lands only its first `j`
//!   blocks, simulating a crash mid-batch;
//! * **partial scalar writes** — the next single-block write lands only its
//!   first `n` bytes, simulating a torn sector write mid-reseal.
//!
//! Every injected fault is recorded as a [`FaultSite`], so tests can assert
//! exactly which faults a scrub pass detected and repaired.

use std::collections::VecDeque;

use parking_lot::Mutex;

use crate::device::{BlockDevice, BlockId, DeviceError};
use crate::layered::{write_torn, Io, IoHook, Layered};

/// The kind of an injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// One bit of the stored block was flipped.
    BitFlip,
    /// The stored block was overwritten with zeros.
    ZeroBlock,
    /// A write addressed to this block was (wholly or partially) dropped.
    TornWrite,
}

/// One injected fault: which block, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FaultSite {
    /// The affected physical block.
    pub block: BlockId,
    /// What was done to it.
    pub kind: FaultKind,
}

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

/// One armed tear of a write: how many leading whole blocks land, plus how
/// many bytes of the block after them (a torn sector).
#[derive(Debug, Clone, Copy)]
struct Tear {
    landed_blocks: u64,
    partial_bytes: usize,
}

/// A [`BlockDevice`] that injects faults and keeps bookkeeping of every fault
/// it injected.
pub type FaultDevice<D> = Layered<D, FaultHook>;

/// The hook of a [`FaultDevice`]: the armed tears and the sites injected so
/// far.
#[derive(Default)]
pub struct FaultHook {
    injected: Mutex<Vec<FaultSite>>,
    /// Armed torn ranged writes, applied in order to the next ranged writes.
    torn_ranged: Mutex<VecDeque<Tear>>,
    /// Armed partial scalar writes, applied in order to the next scalar
    /// writes (no whole block of a one-block write lands).
    torn_scalar: Mutex<VecDeque<Tear>>,
}

impl<D: BlockDevice> IoHook<D> for FaultHook {
    fn write(&self, inner: &D, io: Io, buf: &[u8]) -> Result<(), DeviceError> {
        let armed = if io.ranged {
            &self.torn_ranged
        } else {
            &self.torn_scalar
        };
        let Some(tear) = armed.lock().pop_front() else {
            return io.forward_write(inner, buf);
        };
        io.check(inner, buf.len())?;
        let bs = inner.block_size();
        let landed = tear.landed_blocks.min(io.blocks);
        let off = landed as usize * bs;
        if landed > 0 {
            inner.write_blocks(io.start, &buf[..off])?;
        }
        // The block after the landed prefix keeps what the tear let through.
        if landed < io.blocks {
            write_torn(
                inner,
                io.start + landed,
                &buf[off..off + bs],
                tear.partial_bytes,
            )?;
        }
        self.injected
            .lock()
            .extend((landed..io.blocks).map(|b| FaultSite {
                block: io.start + b,
                kind: FaultKind::TornWrite,
            }));
        Ok(())
    }
}

impl<D: BlockDevice> Layered<D, FaultHook> {
    /// Wrap `inner` with no faults armed.
    pub fn new(inner: D) -> Self {
        Self::with_hook(inner, FaultHook::default())
    }

    /// Apply every content fault in `plan` to the stored data right now,
    /// returning the sites that were injected (also added to the
    /// bookkeeping).
    pub fn apply_plan(&self, plan: &FaultPlan) -> Result<Vec<FaultSite>, DeviceError> {
        let mut applied = Vec::with_capacity(plan.ops.len());
        let bs = self.inner().block_size();
        let mut buf = vec![0u8; bs];
        for op in &plan.ops {
            let site = match *op {
                PlannedFault::Flip { block, raw } => {
                    self.inner().read_block(block, &mut buf)?;
                    let byte = (raw as usize) % bs;
                    let bit = ((raw >> 32) % 8) as u8;
                    buf[byte] ^= 1 << bit;
                    self.inner().write_block(block, &buf)?;
                    FaultSite {
                        block,
                        kind: FaultKind::BitFlip,
                    }
                }
                PlannedFault::Zero { block } => {
                    buf.fill(0);
                    self.inner().write_block(block, &buf)?;
                    FaultSite {
                        block,
                        kind: FaultKind::ZeroBlock,
                    }
                }
            };
            applied.push(site);
        }
        self.hook().injected.lock().extend_from_slice(&applied);
        Ok(applied)
    }

    /// Arm a torn ranged write: the next call to
    /// [`BlockDevice::write_blocks`] lands only its first `landed_blocks`
    /// blocks and silently drops the rest (recorded as
    /// [`FaultKind::TornWrite`] sites). Multiple arms queue in order.
    pub fn arm_torn_ranged_write(&self, landed_blocks: u64) {
        self.arm_torn_ranged_write_partial(landed_blocks, 0);
    }

    /// Arm a torn ranged write that tears *mid-block*: the next call to
    /// [`BlockDevice::write_blocks`] lands its first `landed_blocks` whole
    /// blocks plus the first `partial_bytes` bytes of the following block
    /// (whose remainder keeps its previous content), and drops the rest.
    /// This is the sub-sector crash shape: a ranged write dies inside a
    /// sector rather than on a block boundary.
    pub fn arm_torn_ranged_write_partial(&self, landed_blocks: u64, partial_bytes: usize) {
        self.hook().torn_ranged.lock().push_back(Tear {
            landed_blocks,
            partial_bytes,
        });
    }

    /// Arm a partial scalar write: the next call to
    /// [`BlockDevice::write_block`] lands only its first `landed_bytes`
    /// bytes; the rest of the block keeps its previous content (a torn
    /// sector write). Recorded as a [`FaultKind::TornWrite`] site.
    pub fn arm_partial_scalar_write(&self, landed_bytes: usize) {
        self.hook().torn_scalar.lock().push_back(Tear {
            landed_blocks: 0,
            partial_bytes: landed_bytes,
        });
    }

    /// Every fault injected so far, in injection order.
    pub fn injected_sites(&self) -> Vec<FaultSite> {
        self.hook().injected.lock().clone()
    }

    /// Injected sites of one kind, sorted and deduplicated — the form tests
    /// compare against a scrub report's detection list.
    pub fn injected_blocks(&self, kind: FaultKind) -> Vec<BlockId> {
        let mut v: Vec<BlockId> = self
            .hook()
            .injected
            .lock()
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.block)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Forget all bookkeeping (armed tears stay armed).
    pub fn clear_sites(&self) {
        self.hook().injected.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::BlockDeviceExt;
    use crate::mem::MemDevice;

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
        let sites = dev.apply_plan(&plan).unwrap();
        assert_eq!(
            sites,
            vec![FaultSite {
                block: 3,
                kind: FaultKind::BitFlip
            }]
        );
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
        assert_eq!(dev.injected_blocks(FaultKind::ZeroBlock), vec![5]);
    }

    #[test]
    fn torn_ranged_write_lands_prefix_only() {
        let dev = FaultDevice::new(MemDevice::new(8, 512));
        for b in 0..8 {
            dev.inner().fill_block(b, 0xee).unwrap();
        }
        dev.arm_torn_ranged_write(2);
        dev.write_blocks(1, &vec![0x33u8; 4 * 512]).unwrap();
        // First two blocks landed, last two kept their old content.
        assert!(dev.read_block_vec(1).unwrap().iter().all(|&b| b == 0x33));
        assert!(dev.read_block_vec(2).unwrap().iter().all(|&b| b == 0x33));
        assert!(dev.read_block_vec(3).unwrap().iter().all(|&b| b == 0xee));
        assert!(dev.read_block_vec(4).unwrap().iter().all(|&b| b == 0xee));
        assert_eq!(dev.injected_blocks(FaultKind::TornWrite), vec![3, 4]);
        // The tear is consumed: the next write is whole.
        dev.write_blocks(1, &vec![0x44u8; 4 * 512]).unwrap();
        assert!(dev.read_block_vec(4).unwrap().iter().all(|&b| b == 0x44));
    }

    #[test]
    fn mid_range_tear_lands_partial_bytes_of_the_next_block() {
        let dev = FaultDevice::new(MemDevice::new(8, 512));
        for b in 0..8 {
            dev.inner().fill_block(b, 0xee).unwrap();
        }
        dev.arm_torn_ranged_write_partial(1, 64);
        dev.write_blocks(1, &vec![0x33u8; 4 * 512]).unwrap();
        // Block 1 landed whole; block 2 got its first 64 bytes; 3, 4 intact.
        assert!(dev.read_block_vec(1).unwrap().iter().all(|&b| b == 0x33));
        let torn = dev.read_block_vec(2).unwrap();
        assert!(torn[..64].iter().all(|&b| b == 0x33));
        assert!(torn[64..].iter().all(|&b| b == 0xee));
        assert!(dev.read_block_vec(3).unwrap().iter().all(|&b| b == 0xee));
        assert!(dev.read_block_vec(4).unwrap().iter().all(|&b| b == 0xee));
        // The torn block and the dropped tail are all recorded.
        assert_eq!(dev.injected_blocks(FaultKind::TornWrite), vec![2, 3, 4]);
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
        assert_eq!(dev.injected_blocks(FaultKind::TornWrite), vec![2]);
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
    fn untorn_traffic_is_transparent() {
        let dev = FaultDevice::new(MemDevice::new(8, 512));
        let data: Vec<u8> = (0..3 * 512).map(|i| (i % 251) as u8).collect();
        dev.write_blocks(2, &data).unwrap();
        let mut back = vec![0u8; 3 * 512];
        dev.read_blocks(2, &mut back).unwrap();
        assert_eq!(back, data);
        assert!(dev.injected_sites().is_empty());
    }

    #[test]
    fn clear_sites_resets_bookkeeping() {
        let dev = FaultDevice::new(MemDevice::new(8, 512));
        let mut plan = FaultPlan::new(3);
        plan.zero_block(1);
        dev.apply_plan(&plan).unwrap();
        assert_eq!(dev.injected_sites().len(), 1);
        dev.clear_sites();
        assert!(dev.injected_sites().is_empty());
    }
}
