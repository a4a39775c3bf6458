//! I/O tracing and snapshotting — the attacker's view of the raw storage.
//!
//! Section 3.2.2 of the paper defines two attacker groups:
//!
//! * attackers who "can scan the whole raw storage repeatedly, so they can
//!   identify any updates conducted on the raw storage" — modelled by
//!   [`Snapshot`] / [`SnapshotDiff`];
//! * attackers who "are able to observe the I/O requests between the agent and
//!   the storage" — modelled by [`TraceLog`] records collected by a
//!   [`TracingDevice`].

use std::sync::Arc;

use parking_lot::Mutex;

use crate::device::{BlockDevice, BlockId, DeviceError};
use crate::layered::{Io, IoHook, IoKind, Layered};
use crate::mem::{clone_to_mem, MemDevice};

/// One observed I/O request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoRecord {
    /// Monotonic sequence number of the request.
    pub seq: u64,
    /// Whether it was a read or a write.
    pub kind: IoKind,
    /// The physical block addressed.
    pub block: BlockId,
}

/// A log of I/O requests, shared between a [`TracingDevice`] and the analysis
/// code that inspects it.
#[derive(Clone, Default)]
pub struct TraceLog {
    inner: Arc<Mutex<Vec<IoRecord>>>,
}

impl TraceLog {
    /// Create an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&self, kind: IoKind, block: BlockId) {
        let mut log = self.inner.lock();
        let seq = log.len() as u64;
        log.push(IoRecord { seq, kind, block });
    }

    /// Copy out all records observed so far.
    pub fn records(&self) -> Vec<IoRecord> {
        self.inner.lock().clone()
    }

    /// Number of records observed so far.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True if no requests have been observed.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Discard all records.
    pub fn clear(&self) {
        self.inner.lock().clear();
    }
}

/// A full copy of the raw storage contents at one instant — what the paper's
/// first attacker group obtains by scanning the volume.
pub struct Snapshot {
    image: MemDevice,
}

impl Snapshot {
    /// Scan `device` into a snapshot.
    pub fn capture<D: BlockDevice + ?Sized>(device: &D) -> Result<Self, DeviceError> {
        clone_to_mem(device).map(|image| Self { image })
    }

    /// Number of blocks captured.
    pub fn num_blocks(&self) -> u64 {
        self.image.num_blocks()
    }

    /// Compare with a later snapshot, returning the set of changed blocks —
    /// the information the update-analysis attacker works from (Figure 1).
    pub fn diff(&self, later: &Snapshot) -> SnapshotDiff {
        assert_eq!(
            self.num_blocks(),
            later.num_blocks(),
            "snapshots must cover the same device"
        );
        SnapshotDiff {
            changed: self.image.changed_blocks(&later.image),
        }
    }
}

impl PartialEq for Snapshot {
    fn eq(&self, other: &Self) -> bool {
        self.image.block_size() == other.image.block_size()
            && self.num_blocks() == other.num_blocks()
            && self.diff(other).is_empty()
    }
}

impl Eq for Snapshot {}

impl core::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Snapshot")
            .field("num_blocks", &self.num_blocks())
            .field("block_size", &self.image.block_size())
            .finish()
    }
}

/// The result of diffing two snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotDiff {
    /// Blocks whose contents changed between the two snapshots.
    pub changed: Vec<BlockId>,
}

impl SnapshotDiff {
    /// Number of changed blocks.
    pub fn num_changed(&self) -> usize {
        self.changed.len()
    }

    /// True if nothing changed.
    pub fn is_empty(&self) -> bool {
        self.changed.is_empty()
    }
}

/// A device that records every request into a [`TraceLog`].
///
/// The log is the traffic-analysis attacker's input; the wrapped device is
/// otherwise transparent.
pub type TracingDevice<D> = Layered<D, TraceHook>;

/// The hook of a [`TracingDevice`]: one record per block of every request
/// that succeeded. The attacker observes the bus, where a ranged transfer
/// still addresses every block of its range, so the traffic-analysis
/// statistics do not depend on how the agent batches.
pub struct TraceHook {
    log: TraceLog,
}

impl<D: BlockDevice> IoHook<D> for TraceHook {
    fn after(&self, _inner: &D, io: Io) {
        for block in io.block_ids() {
            self.log.push(io.kind, block);
        }
    }
}

impl<D: BlockDevice> Layered<D, TraceHook> {
    /// Wrap `inner`, recording requests into a fresh log.
    pub fn new(inner: D) -> Self {
        Self::with_log(inner, TraceLog::new())
    }

    /// Wrap `inner`, recording requests into the provided shared log.
    pub fn with_log(inner: D, log: TraceLog) -> Self {
        Self::with_hook(inner, TraceHook { log })
    }

    /// The shared trace log.
    pub fn log(&self) -> &TraceLog {
        &self.hook().log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::BlockDeviceExt;

    #[test]
    fn tracing_records_requests_in_order() {
        let dev = TracingDevice::new(MemDevice::new(8, 512));
        dev.fill_block(3, 1).unwrap();
        let _ = dev.read_block_vec(3).unwrap();
        dev.fill_block(5, 2).unwrap();
        let records = dev.log().records();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].kind, IoKind::Write);
        assert_eq!(records[0].block, 3);
        assert_eq!(records[1].kind, IoKind::Read);
        assert_eq!(records[2].block, 5);
        assert_eq!(records[0].seq, 0);
        assert_eq!(records[2].seq, 2);
    }

    #[test]
    fn batched_requests_are_logged_per_block() {
        let dev = TracingDevice::new(MemDevice::new(8, 512));
        dev.write_blocks(2, &vec![7u8; 3 * 512]).unwrap();
        let mut buf = vec![0u8; 2 * 512];
        dev.read_blocks(4, &mut buf).unwrap();
        let records = dev.log().records();
        let observed: Vec<(IoKind, u64)> = records.iter().map(|r| (r.kind, r.block)).collect();
        assert_eq!(
            observed,
            vec![
                (IoKind::Write, 2),
                (IoKind::Write, 3),
                (IoKind::Write, 4),
                (IoKind::Read, 4),
                (IoKind::Read, 5),
            ]
        );
    }

    #[test]
    fn snapshot_diff_detects_exact_changes() {
        let dev = MemDevice::new(16, 512);
        let before = Snapshot::capture(&dev).unwrap();
        dev.fill_block(4, 0xff).unwrap();
        dev.fill_block(9, 0x01).unwrap();
        let after = Snapshot::capture(&dev).unwrap();
        let diff = before.diff(&after);
        assert_eq!(diff.changed, vec![4, 9]);
        assert_eq!(diff.num_changed(), 2);
        assert!(!diff.is_empty());
    }

    #[test]
    fn identical_snapshots_have_empty_diff() {
        let dev = MemDevice::new(4, 512);
        let a = Snapshot::capture(&dev).unwrap();
        let b = Snapshot::capture(&dev).unwrap();
        assert!(a.diff(&b).is_empty());
    }

    #[test]
    fn rewriting_same_content_is_not_a_visible_change() {
        // A write that does not change the bytes is invisible to the
        // snapshot attacker (but visible to the traffic attacker).
        let dev = TracingDevice::new(MemDevice::new(4, 512));
        dev.fill_block(1, 0x7).unwrap();
        let before = Snapshot::capture(&dev).unwrap();
        let log_before = dev.log().len();
        dev.fill_block(1, 0x7).unwrap();
        let after = Snapshot::capture(&dev).unwrap();
        assert!(before.diff(&after).is_empty());
        assert!(dev.log().len() > log_before);
    }

    #[test]
    fn shared_log_can_be_cleared() {
        let log = TraceLog::new();
        let dev = TracingDevice::with_log(MemDevice::new(4, 512), log.clone());
        dev.fill_block(0, 1).unwrap();
        assert_eq!(log.len(), 1);
        log.clear();
        assert!(log.is_empty());
    }
}
