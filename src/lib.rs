//! # stegfs-repro
//!
//! Umbrella crate for the reproduction of *Hiding Data Accesses in
//! Steganographic File System* (Zhou, Pang, Tan — ICDE 2004).
//!
//! This crate re-exports the workspace members so that the runnable
//! `examples/` and the cross-crate integration tests in `tests/` can use a
//! single dependency. Library users should normally depend on the individual
//! crates instead:
//!
//! * [`steghide`] — the paper's primary contribution: the StegHide agents
//!   (Constructions 1 and 2 of Section 4, two keyings of one Figure 6
//!   engine) that hide data updates.
//! * [`stegfs_oblivious`] — the oblivious storage of Section 5 that hides
//!   read traffic.
//! * [`stegfs_resilience`] — erasure-coded stripes, the replicated
//!   self-healing volume anchor, the scrub/repair sweep, and the deniable
//!   write-ahead intent journal with open-time crash recovery.
//! * [`stegfs_base`] — the underlying steganographic file system substrate
//!   (ICDE 2003 StegFS).
//! * [`stegfs_blockdev`] — raw block devices, I/O tracing, the simulated
//!   disk timing model used by the benchmarks, and the fault/power-cut
//!   injection devices behind the corruption and crash-recovery suites.
//! * [`stegfs_crypto`] — AES/CBC, SHA-256, HMAC and the SHA-256 DRBG.
//! * [`stegfs_baselines`] — CleanDisk / FragDisk native-file-system baselines.
//! * [`stegfs_analysis`] — update-analysis and traffic-analysis attackers plus
//!   statistical distinguishers.
//! * [`stegfs_workload`] — workload generators and the concurrent user driver.

pub use stegfs_analysis as analysis;
pub use stegfs_base as stegfs;
pub use stegfs_baselines as baselines;
pub use stegfs_blockdev as blockdev;
pub use stegfs_crypto as crypto;
pub use stegfs_oblivious as oblivious;
pub use stegfs_resilience as resilience;
pub use stegfs_workload as workload;
pub use steghide;

/// Convenience prelude re-exporting the types used by most examples.
pub mod prelude {
    pub use stegfs_base::{FileAccessKey, StegFs, StegFsConfig};
    pub use stegfs_blockdev::{
        sim::{DiskModel, SimDevice},
        BlockDevice, FaultDevice, MemDevice, TracingDevice,
    };
    pub use stegfs_crypto::{Aes256, CbcCipher, HashDrbg, Key256, Sha256};
    pub use stegfs_oblivious::{ObliviousConfig, ObliviousStore};
    pub use stegfs_resilience::{
        IntentJournal, Registry, ResilienceConfig, ResilientStore, StripeConfig,
    };
    pub use steghide::{AgentConfig, ConcurrentAgent, ConcurrentVolatileAgent, UserCredential};
}
