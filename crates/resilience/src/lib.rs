//! # stegfs-resilience
//!
//! The resilience tier of the reproduction: a steganographic volume that
//! survives silent corruption and torn writes without ever betraying which
//! blocks it is protecting.
//!
//! The problem: the substrate's plausible-deniability design makes ordinary
//! fault tolerance impossible to bolt on. The volume cannot carry an
//! allocation bitmap, a checksum table or a parity log — any plaintext
//! structure that says "these blocks matter" is exactly the evidence a
//! steganographic file system exists to withhold. Meanwhile its *own* cover
//! traffic constantly overwrites blocks, so a single misdirected write
//! silently destroys hidden data with no fsck to notice.
//!
//! The pieces, each shaped to stay inside the steganographic envelope:
//!
//! * [`gf256`] — GF(2⁸) arithmetic with constant-time-built log/exp tables
//!   and per-coefficient multiply tables, whose multiply-accumulate over a
//!   whole shard runs as a split-nibble `vpshufb` kernel where the CPU has
//!   AVX2 and as a table loop elsewhere.
//! * [`ErasureCodec`] — a systematic Cauchy-matrix Reed–Solomon coder:
//!   `m` parity shards per `k` data shards, any `k` survivors reconstruct.
//!   Parity is computed over *plaintext* data fields (reseals re-randomise
//!   ciphertext, so ciphertext parity would go stale on every dummy update)
//!   and the parity shards are sealed and scattered like hidden data.
//! * [`StripeMap`] / [`ChecksumKeys`] — per-file integrity metadata: a cheap
//!   keyed hash verified on every read plus a truncated HMAC verified by
//!   scrub, persisted as a shadow hidden file.
//! * [`VolumeAnchor`] — the 3-way replicated, generation-counted,
//!   slot-MAC'd superblock + sealed FAK table; quorum reads self-heal stale
//!   or corrupt replicas.
//! * [`IntentJournal`] — a deniable write-ahead intent log: sealed,
//!   self-authenticating records in uniformly claimed slot blocks, written
//!   before every multi-block mutation so a power cut leaves the volume
//!   recoverable to exactly the old or the new state — never a partial one.
//! * [`ResilientStore`] — ties it together, as a `store/` module split by
//!   concern: volume assembly and the anchor payload (`format`, `open`); a
//!   managed file's state and the one enumeration of the blocks it owns; a
//!   verify-always read path whose every failed check goes through one
//!   heal-then-reread helper; a journaled delta-parity write plan; the
//!   stripe view (load a stripe, MAC it, erase what is out of state,
//!   reconstruct) under stripe repair, crash recovery and
//!   [`ResilientStore::scrub`] — a ranged-batch MAC sweep that repairs every
//!   degraded stripe onto freshly claimed blocks; open-time journal
//!   recovery; and cover traffic, which can carry the scrub via
//!   [`ScrubCursor`]. Cover traffic follows one rule: *the block map decides
//!   what is free; the owner index only supplies keys.* A victim some managed
//!   file owns is resealed under that file's key, a victim the block map
//!   classes `Dummy` is re-randomised, and every other block — anchor
//!   replicas, journal slots, an allocation not yet adopted by a file — is
//!   left alone.
//! * [`Registry`] — the persistent sharded registry, a client of the store:
//!   it borrows a [`ResilientStore`], keeps its records in one managed
//!   hidden file at [`REGISTRY_PATH`] (one shard per content block), reads
//!   through the healing read and checkpoints through the write plan.
//!
//! The failure model it is tested against lives in `stegfs-blockdev`'s
//! `FaultDevice`: deterministic seeded bit flips and zeroed blocks, torn
//! scalar writes, and power cuts after any write unit.
//!
//! `unsafe` is denied crate-wide and allowed in exactly one leaf module (the
//! AVX2 multiply-accumulate kernel, `gf256/avx2.rs`), where every block is a
//! `core::arch` intrinsic call guarded by runtime feature detection or an
//! unaligned load/store whose bounds the module's safe entry point checks.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod error;
pub mod gf256;
mod journal;
mod stats;
mod store;
mod stripe;
mod superblock;

pub use codec::ErasureCodec;
pub use error::ResilienceError;
pub use journal::{
    BlockWriteIntent, IntentBody, IntentJournal, IntentRecord, ParityIntent, SHADOW_ENTRY_BASE,
};
pub use stats::{RecoveryReport, ResilienceStats, ScrubReport};
/// The registry's record codec, for the hostile-input suite
/// (`tests/hostile_decoders.rs`) only.
#[doc(hidden)]
pub use store::{decode_records, encode_records};
pub use store::{
    Registry, RegistryStats, ResilienceConfig, ResilientStore, ScrubCursor, REGISTRY_PATH,
};
pub use stripe::{BlockCheck, ChecksumKeys, ParityEntry, StripeConfig, StripeMap, FAST_LANES};
pub use superblock::VolumeAnchor;
