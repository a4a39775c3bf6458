//! # stegfs-oblivious
//!
//! The paper's primary contribution, part 2 (Section 5): an **oblivious
//! storage** that hides read traffic from an attacker who can observe the I/O
//! requests between the agent and the raw storage.
//!
//! Write traffic is already hidden by the relocation scheme of the `steghide`
//! crate; reads are harder because data must be fetched from wherever it
//! lives. The oblivious storage solves this with a hierarchy of shuffled
//! cache levels inspired by the oblivious RAM of Goldreich & Ostrovsky:
//!
//! * level *i* holds `2^i · B` blocks, where `B` is the agent's buffer size;
//!   the last of the `k = log2(N/B)` levels is big enough for every block
//!   users may read;
//! * a read touches **one block in every level** — the real block in the
//!   highest level that holds it, uniformly random blocks in all the others —
//!   so the access pattern is independent of what was actually requested;
//! * whenever the buffer fills it is flushed into level 1, and a full level
//!   *i* cascades into level *i+1*; the receiving level is then re-encrypted
//!   and **re-ordered to a fresh random permutation with an external merge
//!   sort**, so any block is read at most once per permutation epoch;
//! * a per-level **hash index** (rewritten at every re-order) costs one
//!   extra I/O per level per read — which is why the paper's per-read cost
//!   is `2k + 4k(log_B 2^k + 1) ≈ 10·k` I/Os (Table 4). Here each level's
//!   manifest, in agent memory, maps ids to slots; the on-disk index region
//!   keeps the paper's size and rewrites, so that cost is unchanged, but
//!   holds noise under the level's epoch key instead of `(hash, slot)`
//!   entries, and each read probes it at a DRBG-drawn block — what a hashed
//!   lookup of an (id, epoch) pair, made at most once, looks like: a device
//!   image names no slot a read hit, and every read is exactly `2k`
//!   requests.
//!
//! [`ObliviousStore`] implements the hierarchy (Figure 8(b));
//! [`ObliviousReadFront`] implements the randomized first-fetch path from the
//! persistent StegFS partition (Figure 8(a)). The persistent partition is
//! needed because the oblivious store shuffles blocks constantly and the
//! agent cannot update headers of files whose owners are not logged in.
//!
//! Three implementation properties matter for the reproduction:
//!
//! * **one call at a time** — as the sequential hierarchy of Goldreich &
//!   Ostrovsky has it: a read is one scan, a flush one cascade, and nothing
//!   runs in between. Every store method takes `&self`, so threads can
//!   share a store, and the store keeps its state behind one lock held for
//!   the whole call; its counters are relaxed atomics. A single-threaded
//!   caller sees bit-for-bit the sequential behaviour; at N threads the
//!   store is value-deterministic (every id reads back its last write)
//!   while the order of the calls depends on scheduling. The front serves
//!   one caller: its fetched set, DRBG and counters are plain fields, and
//!   every front method that reads or fetches takes `&mut self`;
//! * **batched maintenance I/O** — level sweeps, the external sort's run
//!   spills/refills and index rewrites move data through the ranged
//!   `read_blocks`/`write_blocks` device operations, so on the simulated
//!   disk they run at transfer speed (one positioning per batch) exactly as
//!   the paper's sequential-sweep argument requires; cascade merges stream
//!   the receiving level straight into the sort (upper copies win on
//!   duplicate ids) instead of materializing both levels in agent memory;
//! * **bit-for-bit determinism** — all agent-memory bookkeeping uses the
//!   fixed-seed hashed containers of [`DetHashMap`]/[`DetHashSet`], so two
//!   runs of any experiment consume the DRBG identically and produce
//!   byte-identical output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod det;
mod error;
mod extsort;
mod front;
mod level;
mod stats;
mod store;

pub use config::ObliviousConfig;
pub use det::{DetHashMap, DetHashSet, DetHasher};
pub use error::ObliviousError;
pub use extsort::{ExternalSorter, SortRecord};
pub use front::{FrontStats, ObliviousReadFront};
/// The per-item codecs, for the hostile-input suite
/// (`tests/hostile_decoders.rs`) only.
#[doc(hidden)]
pub use level::{decode_item, encode_item_into};
pub use stats::ObliviousStats;
pub use store::ObliviousStore;
