//! # stegfs-blockdev
//!
//! The raw shared storage of the paper's system model (Section 3.2): a flat
//! array of fixed-size blocks that the agent reads and writes, and that the
//! attacker can snapshot (update analysis) or whose request stream the
//! attacker can observe (traffic analysis).
//!
//! **Devices that store.**
//!
//! * [`BlockDevice`] — the storage trait: scalar `read_block` / `write_block`
//!   plus ranged `read_blocks` / `write_blocks` for contiguous sweeps (the
//!   batched primitives the oblivious store's re-ordering pipeline streams
//!   through).
//! * [`MemDevice`] — in-memory backing store, used by tests, examples and the
//!   benchmark harness; [`clone_to_mem`] copies any device into one.
//! * [`FileDevice`] — file-backed store for persistence demos.
//!
//! **One layer that observes.** [`Layered<D, H>`](Layered) is the only
//! `impl BlockDevice` that forwards to a device underneath. It describes each
//! request once as an [`Io`] `{ kind, start, blocks, ranged }`, always
//! forwards it in the caller's shape — a ranged request reaches the inner
//! device as one ranged request, which is what the disk model bills and the
//! attacker's trace records — and calls an [`IoHook`] whose methods all
//! default to nothing: `before` (may wait or refuse), `write` (decides what
//! lands), `after_read` (sees the filled buffer), `after` (the request
//! succeeded), `sync`. Everything else here that wraps a device is that
//! layer with a hook, under an alias that carries the constructors:
//!
//! * [`TracingDevice`] (`after`) — records every I/O request, the
//!   traffic-analysis attacker's view; [`Snapshot`] is the update-analysis
//!   attacker's.
//! * [`sim::SimDevice`] (`after`) — charges every request to a
//!   [`sim::DiskModel`] so experiments can report simulated elapsed time on
//!   the paper's 2004-era Ultra-ATA disk, and tallies [`IoStats`].
//! * [`FaultDevice`] (`write`, `sync`) — the one failure model: cuts power
//!   after a configured write unit (landing exactly a prefix of an
//!   operation's writes, optionally tearing the unit that crosses the cut),
//!   tears the next scalar writes, and applies seeded [`FaultPlan`]s of bit
//!   flips and zeroed blocks. The crash-recovery matrix and the resilience
//!   tier are tested against it.
//! * a closure `Fn(&D, Io) -> Result<(), DeviceError>` is a `before` hook —
//!   the form a test double takes
//!   (`Layered::with_hook(dev, |_: &MemDevice, io: Io| …)`).
//!
//! [`ScalarDevice`] is the deliberate exception: it re-expresses every ranged
//! request as N scalar ones (the baseline side of batched-I/O measurements),
//! which is exactly what the layer exists to prevent, so it stays a hand
//! implementation.
//!
//! **Counters.** [`Counter`] and [`counters!`] declare a live counter struct
//! and its plain snapshot twin from one field list; [`IoStats`] /
//! [`IoCounters`] here and the agents', stores' and front's statistics
//! elsewhere in the workspace are invocations of it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod device;
mod fault;
mod file;
mod layered;
mod mem;
pub mod sim;
mod stats;
mod trace;

pub use counters::Counter;
pub use device::{BlockDevice, BlockDeviceExt, BlockId, DeviceError, ScalarDevice};
pub use fault::{FaultDevice, FaultHook, FaultPlan};
pub use file::FileDevice;
pub use layered::{Io, IoHook, IoKind, Layered};
pub use mem::{clone_to_mem, MemDevice};
pub use stats::{IoCounters, IoStats};
pub use trace::{IoRecord, Snapshot, SnapshotDiff, TraceHook, TraceLog, TracingDevice};
