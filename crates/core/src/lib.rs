//! # steghide
//!
//! The paper's primary contribution, part 1 (Section 4): an *agent* that sits
//! between users and the raw shared storage and hides data **updates** from an
//! attacker who can diff storage snapshots (update analysis).
//!
//! Two cooperating ideas make the update stream indistinguishable from noise:
//!
//! 1. **Dummy updates** (Section 4.1.3). Whenever the system is idle the agent
//!    re-encrypts randomly chosen blocks under fresh IVs. The ciphertext of the
//!    whole block changes while the plaintext does not, so an attacker cannot
//!    tell a dummy update from a real one.
//! 2. **Relocation on update** (Section 4.1.4, Figure 6). A real update never
//!    rewrites a block in place; the updated logical block moves to a
//!    uniformly random physical block (swapping places with a dummy block).
//!    Real updates therefore hit uniformly random locations — exactly the
//!    distribution of the dummy updates — which is the paper's *perfect
//!    security* argument (Section 4.1.4) under Definition 1.
//!
//! The paper describes *one* update-hiding algorithm run under two keying
//! constructions, and so does this crate: a single private Figure 6 engine
//! (relocation loop, reseal, flush, and the one lock that lets many threads
//! share it through `&self`, each call taking its turn), instantiated
//! statically by two thin agents that differ only in keying and
//! file/session lifecycle:
//!
//! * [`ConcurrentAgent`] (the paper's **StegHide\***, Construction 1): the
//!   agent persistently holds one volume-wide encryption key plus the dummy
//!   file's access key and its block map, giving it a complete view of the
//!   volume at all times.
//! * [`ConcurrentVolatileAgent`] (the paper's **StegHide**, Construction 2):
//!   the agent keeps *no* persistent secrets. Users hold the FAKs of their
//!   hidden files *and* of their own dummy files and disclose them only at
//!   login; the agent's view — and therefore the region of the disk it
//!   touches — grows as users log in and is forgotten when the agent
//!   restarts.
//!
//! The agents drive the [`stegfs_base::StegFs`] substrate; read-traffic hiding
//! is provided separately by the `stegfs-oblivious` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod concurrent;
mod config;
mod engine;
mod error;
mod registry;
mod stats;
mod volatile_concurrent;

pub use concurrent::ConcurrentAgent;
pub use config::AgentConfig;
pub use engine::UpdateOutcome;
pub use error::AgentError;
pub use registry::FileId;
pub use stats::{SharedUpdateStats, UpdateStats};
pub use volatile_concurrent::{ConcurrentVolatileAgent, SessionId, UserCredential};

/// Behavioural suites that exercise the engine through both fronts, grouped
/// by the paper's own names — the Figure 6 update loop, Construction 1 (the
/// "non-volatile agent") and Construction 2 (the "volatile agent") — under
/// the module paths these tests have always been reported as.
#[cfg(test)]
mod update {
    mod tests;
}
#[cfg(test)]
mod nonvolatile {
    mod tests;
}
#[cfg(test)]
mod volatile {
    mod tests;
}
