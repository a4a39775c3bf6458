//! # stegfs-blockdev
//!
//! The raw shared storage of the paper's system model (Section 3.2): a flat
//! array of fixed-size blocks that the agent reads and writes, and that the
//! attacker can snapshot (update analysis) or whose request stream the
//! attacker can observe (traffic analysis).
//!
//! The crate provides:
//!
//! * [`BlockDevice`] — the storage trait: scalar `read_block` / `write_block`
//!   plus ranged `read_blocks` / `write_blocks` for contiguous sweeps (the
//!   batched primitives the oblivious store's re-ordering pipeline streams
//!   through).
//! * [`ScalarDevice`] — wrapper that disables a device's batched paths,
//!   re-expressing every ranged request as N scalar ones (the baseline side
//!   of batched-I/O measurements).
//! * [`MemDevice`] — in-memory backing store, used by tests, examples and the
//!   benchmark harness.
//! * [`FileDevice`] — file-backed store for persistence demos.
//! * [`FaultDevice`] — wrapper that injects deterministic seeded faults (bit
//!   flips, zeroed blocks, torn ranged/scalar writes) with per-site
//!   bookkeeping, the failure model the resilience tier is tested against.
//! * [`CrashDevice`] — wrapper that cuts power after a configured write
//!   index, landing exactly a prefix of an operation's writes, plus the
//!   [`CrashPoint`] enumerator behind the exhaustive crash-recovery matrix.
//! * [`TracingDevice`] — wrapper that records every I/O request (the
//!   traffic-analysis attacker's view) and can take full snapshots (the
//!   update-analysis attacker's view).
//! * [`sim::SimDevice`] — wrapper that charges every request to a
//!   [`sim::DiskModel`] so experiments can report simulated elapsed time on
//!   the paper's 2004-era Ultra-ATA disk.
//! * [`IoStats`] — cheap shared counters of read/write/sequential/random I/O.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crash;
mod device;
mod fault;
mod file;
mod latency;
mod mem;
pub mod sim;
mod stats;
mod trace;

pub use crash::{clone_to_mem, CrashDevice, CrashPoint};
pub use device::{BlockDevice, BlockDeviceExt, BlockId, DeviceError, DeviceGeometry, ScalarDevice};
pub use fault::{FaultDevice, FaultKind, FaultPlan, FaultSite};
pub use file::FileDevice;
pub use latency::LatencyDevice;
pub use mem::MemDevice;
pub use stats::{IoCounters, IoStats};
pub use trace::{IoKind, IoRecord, Snapshot, SnapshotDiff, TraceLog, TracingDevice};
