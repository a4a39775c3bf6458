//! Simulated disk timing model.
//!
//! The paper's experiments (Section 6.2, Table 1) ran on a 20 GB Ultra-ATA/100
//! disk attached to a Pentium 4 PC. Since the reproduction runs entirely in
//! memory, this module substitutes a deterministic timing model for the
//! physical disk: every block request is charged seek + rotational latency +
//! transfer time, with requests that continue the previous request's position
//! (the disk head) charged only transfer time.
//!
//! That distinction — random versus sequential I/O — is the sole mechanism
//! behind every curve in the paper's evaluation:
//!
//! * steganographic file systems scatter blocks, so they pay a seek per
//!   block: a full seek when a file is read in index order (the paper's
//!   model; `StegFs::read_file` and the agents), a near seek for each short
//!   forward gap when it is read as one ascending sweep
//!   (`ResilientStore::read_file`);
//! * CleanDisk/FragDisk read contiguous runs, so they mostly pay transfer
//!   time — until concurrent users interleave their requests and destroy the
//!   sequential runs (Figures 10(b) and 11(c));
//! * the oblivious storage's re-ordering passes are sequential merge-sort
//!   sweeps, which is why sorting contributes fewer milliseconds than its I/O
//!   count suggests (Figure 12(b)).
//!
//! The model is charged through [`SimDevice`], which wraps any
//! [`BlockDevice`] and advances a shared [`SimClock`].

use std::sync::Arc;

use parking_lot::Mutex;

use crate::device::{BlockDevice, BlockId};
use crate::layered::{Io, IoHook, IoKind, Layered};
use crate::stats::IoStats;

/// Parameters of the simulated disk.
///
/// Defaults approximate the paper's 2004-era 20 GB Ultra-ATA/100 drive
/// (7200 RPM class): 8.5 ms average seek, 4.17 ms average rotational latency,
/// 40 MB/s sequential transfer and 0.1 ms controller overhead per request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Average seek time for a random request, in microseconds.
    pub avg_seek_us: u64,
    /// Average rotational latency (half a revolution), in microseconds.
    pub rotational_latency_us: u64,
    /// Sequential transfer rate in bytes per second.
    pub transfer_bytes_per_sec: u64,
    /// Fixed per-request controller/command overhead in microseconds.
    pub per_request_overhead_us: u64,
    /// Threshold (in blocks) under which a forward skip is billed as a cheap
    /// "near seek" (track-to-track) instead of a full average seek.
    pub near_seek_window: u64,
    /// Cost of a near seek in microseconds.
    pub near_seek_us: u64,
}

impl Default for DiskModel {
    fn default() -> Self {
        Self::ultra_ata_2004()
    }
}

impl DiskModel {
    /// The drive class used in the paper's testbed (Table 1).
    pub fn ultra_ata_2004() -> Self {
        Self {
            avg_seek_us: 8_500,
            rotational_latency_us: 4_170,
            transfer_bytes_per_sec: 40_000_000,
            per_request_overhead_us: 100,
            near_seek_window: 64,
            near_seek_us: 1_500,
        }
    }

    /// Service time in microseconds for a request of `bytes` at `block`, given
    /// the current head position.
    pub fn service_time_us(&self, head: Option<BlockId>, block: BlockId, bytes: usize) -> u64 {
        let transfer = (bytes as u128 * 1_000_000u128 / self.transfer_bytes_per_sec as u128) as u64;
        let positioning = match head {
            // Continuing exactly after the previous request: streaming read,
            // no positioning cost.
            Some(h) if block == h + 1 || block == h => 0,
            // Short forward skip within the near-seek window: track-to-track
            // seek plus settle.
            Some(h)
                if self.near_seek_window > 0 && block > h && block - h <= self.near_seek_window =>
            {
                self.near_seek_us
            }
            // Anything else: full average seek + rotational latency.
            _ => self.avg_seek_us + self.rotational_latency_us,
        };
        self.per_request_overhead_us + positioning + transfer
    }

    /// Service time in microseconds for a ranged request of `count` blocks of
    /// `bytes_per_block` starting at `start`: the head positions once, then
    /// the whole range streams at transfer speed. This is the paper's disk
    /// model for the oblivious store's sequential sweeps — N scalar requests
    /// pay N per-request overheads (and, when other streams interleave, N
    /// seeks), a ranged request pays one.
    pub fn batch_service_time_us(
        &self,
        head: Option<BlockId>,
        start: BlockId,
        count: u64,
        bytes_per_block: usize,
    ) -> u64 {
        let transfer = (count as u128 * bytes_per_block as u128 * 1_000_000u128
            / self.transfer_bytes_per_sec as u128) as u64;
        self.service_time_us(head, start, 0) + transfer
    }

    /// Convenience: the cost of a single fully random block request.
    pub fn random_block_us(&self, block_size: usize) -> u64 {
        self.service_time_us(None, 1_000_000, block_size)
    }

    /// Convenience: the cost of one block inside a long sequential run.
    pub fn sequential_block_us(&self, block_size: usize) -> u64 {
        self.service_time_us(Some(41), 42, block_size)
    }
}

/// Shared simulated clock and disk-head state.
///
/// The clock is global and the head position is global: all streams contend
/// for the same disk, exactly as the paper's concurrent users contend for one
/// spindle. A user's *access time* for an operation is the difference of
/// [`SimClock::now_us`] around the operation, which therefore includes the
/// queueing delay induced by other users — the effect behind Figures 10(b)
/// and 11(c).
#[derive(Clone, Default)]
pub struct SimClock {
    state: Arc<Mutex<ClockState>>,
}

#[derive(Default)]
struct ClockState {
    now_us: u64,
    head: Option<BlockId>,
}

impl SimClock {
    /// New clock at time zero with an unknown head position.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.state.lock().now_us
    }

    /// Total time the disk spent servicing requests: the clock advances by
    /// service time only, so this is [`now_us`](Self::now_us).
    pub fn busy_us(&self) -> u64 {
        self.now_us()
    }

    /// Charge one request of `count` consecutive blocks against `model`;
    /// returns (service_us, was_sequential) where the flag says whether the
    /// *first* block continued the head (the rest stream by construction).
    /// The head ends on the last block. A scalar request is `count == 1`.
    pub fn charge_batch(
        &self,
        model: &DiskModel,
        start: BlockId,
        count: u64,
        bytes_per_block: usize,
    ) -> (u64, bool) {
        debug_assert!(count > 0, "empty batches are rejected by the devices");
        let mut s = self.state.lock();
        let sequential = matches!(s.head, Some(h) if start == h + 1 || start == h);
        let service = model.batch_service_time_us(s.head, start, count, bytes_per_block);
        s.now_us += service;
        s.head = Some(start + count - 1);
        (service, sequential)
    }

    /// Reset time to zero and forget the head position.
    pub fn reset(&self) {
        let mut s = self.state.lock();
        *s = ClockState::default();
    }
}

/// A [`BlockDevice`] that charges every request to a [`DiskModel`] via a
/// shared [`SimClock`] and tallies [`IoStats`].
pub type SimDevice<D> = Layered<D, SimHook>;

/// The hook of a [`SimDevice`]. Every request that succeeded is billed as
/// one positioning plus its transfers; the stats count one operation per
/// block (an I/O *count* is blocks moved, as in the paper's Table 4), the
/// first block carrying the head-dependent locality flag and the rest
/// sequential by construction.
pub struct SimHook {
    model: DiskModel,
    clock: SimClock,
    stats: IoStats,
}

impl<D: BlockDevice> IoHook<D> for SimHook {
    fn after(&self, inner: &D, io: Io) {
        let (_, sequential) =
            self.clock
                .charge_batch(&self.model, io.start, io.blocks, inner.block_size());
        let record = match io.kind {
            IoKind::Read => IoStats::record_read,
            IoKind::Write => IoStats::record_write,
        };
        record(&self.stats, sequential);
        for _ in 1..io.blocks {
            record(&self.stats, true);
        }
    }
}

impl<D: BlockDevice> Layered<D, SimHook> {
    /// Wrap `inner` with the default (paper-era) disk model.
    pub fn new(inner: D) -> Self {
        Self::with_model(inner, DiskModel::default())
    }

    /// Wrap `inner` with an explicit disk model.
    pub fn with_model(inner: D, model: DiskModel) -> Self {
        Self::with_shared_clock(inner, model, SimClock::new())
    }

    /// Wrap `inner`, sharing an existing clock (e.g. so a StegFS partition and
    /// an oblivious-storage partition contend for the same simulated disk).
    pub fn with_shared_clock(inner: D, model: DiskModel, clock: SimClock) -> Self {
        Self::with_hook(
            inner,
            SimHook {
                model,
                clock,
                stats: IoStats::default(),
            },
        )
    }

    /// The shared simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.hook().clock
    }

    /// The I/O statistics collected so far.
    pub fn stats(&self) -> &IoStats {
        &self.hook().stats
    }

    /// The timing model in use.
    pub fn model(&self) -> &DiskModel {
        &self.hook().model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::BlockDeviceExt;
    use crate::mem::MemDevice;

    #[test]
    fn sequential_is_cheaper_than_random() {
        let model = DiskModel::default();
        let seq = model.sequential_block_us(4096);
        let rnd = model.random_block_us(4096);
        assert!(
            rnd > 10 * seq,
            "random ({rnd} us) should dwarf sequential ({seq} us)"
        );
    }

    #[test]
    fn near_seek_cheaper_than_full_seek() {
        let model = DiskModel::default();
        let near = model.service_time_us(Some(100), 110, 4096);
        let far = model.service_time_us(Some(100), 100_000, 4096);
        let back = model.service_time_us(Some(100), 50, 4096);
        assert!(near < far);
        // Backward skips always pay the full seek.
        assert_eq!(back, far);
    }

    #[test]
    fn clock_accumulates_and_detects_sequential_runs() {
        let dev = SimDevice::new(MemDevice::new(1024, 4096));
        // Sequential run of 10 blocks.
        for b in 100..110 {
            let _ = dev.read_block_vec(b).unwrap();
        }
        let seq_time = dev.clock().now_us();
        let stats = dev.stats().snapshot();
        assert_eq!(stats.reads, 10);
        // First request is random (unknown head), rest sequential.
        assert_eq!(stats.sequential, 9);
        assert_eq!(stats.random, 1);

        // Ten random blocks cost much more.
        dev.clock().reset();
        dev.stats().reset();
        for b in [5u64, 900, 17, 463, 88, 702, 311, 999, 250, 601] {
            let _ = dev.read_block_vec(b).unwrap();
        }
        let rnd_time = dev.clock().now_us();
        assert!(rnd_time > 5 * seq_time, "{rnd_time} vs {seq_time}");
    }

    #[test]
    fn batch_pays_one_seek_plus_n_transfers() {
        let model = DiskModel::default();
        let scalar_random = model.random_block_us(4096);
        let batch = model.batch_service_time_us(None, 1_000_000, 64, 4096);
        // One positioning + 64 transfers, far below 64 random requests.
        assert!(batch < 3 * scalar_random, "{batch} vs {scalar_random}");
        // The transfer component still scales linearly.
        let single = model.batch_service_time_us(None, 1_000_000, 1, 4096);
        assert_eq!(single, scalar_random);
        let double = model.batch_service_time_us(None, 1_000_000, 2, 4096);
        assert!(double > single && double < 2 * single);
    }

    #[test]
    fn batched_device_requests_beat_interleaved_scalar_streams() {
        // The motivating scenario: a level sweep interleaved with sort-
        // partition writes on a shared disk. Scalar pipelines ping-pong the
        // head (every request pays a full seek); ranged requests reposition
        // once per batch.
        let clock = SimClock::new();
        let model = DiskModel::default();
        let dev = SimDevice::with_shared_clock(MemDevice::new(4096, 4096), model, clock.clone());
        let mut buf = vec![0u8; 4096];
        for i in 0..32u64 {
            dev.read_block(i, &mut buf).unwrap();
            dev.write_block(2048 + i, &buf).unwrap();
        }
        let scalar_us = clock.now_us();

        clock.reset();
        let mut big = vec![0u8; 32 * 4096];
        dev.read_blocks(0, &mut big).unwrap();
        dev.write_blocks(2048, &big).unwrap();
        let batched_us = clock.now_us();
        assert!(
            scalar_us > 20 * batched_us,
            "scalar {scalar_us} us vs batched {batched_us} us"
        );
    }

    #[test]
    fn batch_stats_count_per_block_with_streamed_locality() {
        let dev = SimDevice::new(MemDevice::new(64, 512));
        let mut buf = vec![0u8; 8 * 512];
        dev.read_blocks(10, &mut buf).unwrap();
        let stats = dev.stats().snapshot();
        assert_eq!(stats.reads, 8);
        assert_eq!(stats.random, 1, "first block of a cold batch seeks");
        assert_eq!(stats.sequential, 7);
        // A second adjacent batch continues the head: fully sequential.
        dev.read_blocks(18, &mut buf).unwrap();
        assert_eq!(dev.stats().snapshot().sequential, 15);
    }

    #[test]
    fn drained_elevator_batch_beats_arrival_order() {
        // Four logical streams (level sweeps at distant offsets) whose ranged
        // requests arrive round-robin interleaved. Charged in arrival order,
        // every request switches streams and pays the full average seek;
        // sorted by start block, each stream's requests coalesce into
        // ascending runs that continue the head.
        let model = DiskModel::default();
        let clock = SimClock::new();
        let mut arrival: Vec<(u64, u64, usize)> = Vec::new();
        for step in 0..8u64 {
            for stream in 0..4u64 {
                arrival.push((stream * 1000 + step * 8, 8, 512));
            }
        }
        for &(start, count, bytes) in &arrival {
            clock.charge_batch(&model, start, count, bytes);
        }
        let interleaved_us = clock.now_us();

        clock.reset();
        let mut drained = arrival.clone();
        drained.sort_by_key(|r| r.0);
        let total: u64 = drained
            .iter()
            .map(|&(start, count, bytes)| clock.charge_batch(&model, start, count, bytes).0)
            .sum();
        assert_eq!(total, clock.now_us(), "busy time equals elapsed time");
        assert_eq!(clock.busy_us(), total);
        assert!(
            interleaved_us > 3 * total,
            "interleaved {interleaved_us} us vs drained elevator {total} us"
        );
    }

    #[test]
    fn rereading_same_block_counts_as_sequential() {
        let dev = SimDevice::new(MemDevice::new(16, 512));
        let _ = dev.read_block_vec(3).unwrap();
        let _ = dev.read_block_vec(3).unwrap();
        assert_eq!(dev.stats().snapshot().sequential, 1);
    }

    #[test]
    fn shared_clock_accumulates_across_devices() {
        let clock = SimClock::new();
        let model = DiskModel::default();
        let a = SimDevice::with_shared_clock(MemDevice::new(16, 512), model, clock.clone());
        let b = SimDevice::with_shared_clock(MemDevice::new(16, 512), model, clock.clone());
        let _ = a.read_block_vec(1).unwrap();
        let t1 = clock.now_us();
        let _ = b.read_block_vec(2).unwrap();
        assert!(clock.now_us() > t1);
    }

    #[test]
    fn default_model_random_block_cost_is_realistic() {
        // ~12.8 ms for a random 4 KB request on the 2004 disk.
        let us = DiskModel::default().random_block_us(4096);
        assert!((10_000..16_000).contains(&us), "{us}");
        // ~0.2 ms when streaming.
        let us = DiskModel::default().sequential_block_us(4096);
        assert!(us < 1_000, "{us}");
    }
}
