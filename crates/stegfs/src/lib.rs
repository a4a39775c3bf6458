//! # stegfs-base
//!
//! The steganographic file system substrate that the paper builds on — their
//! earlier StegFS (Pang, Tan, Zhou; ICDE 2003, reference \[12\] of the paper).
//!
//! The substrate provides:
//!
//! * a **volume layout** ([`layout`]) where every block is
//!   `IV || CBC-encrypted data field` and a freshly formatted volume is filled
//!   with random bytes, so used and abandoned blocks are indistinguishable;
//! * **file access keys** ([`FileAccessKey`]) whose three components (header
//!   location secret, header key, content key) match Section 4.2.1 of the
//!   paper, plus the plausible-deniability trick of revealing a header key
//!   with a wrong content key;
//! * **hidden files** ([`header::FileHeader`], [`StegFs`]) stored as a tree of
//!   blocks rooted at a header block whose location is derived from the FAK
//!   and path name — without the FAK the file cannot be found, with it the
//!   whole tree can be recovered;
//! * **dummy files** — headers marked as dummies whose content blocks carry
//!   only random bytes, handed to users under Construction 2;
//! * one **block classification map** ([`ShardedBlockMap`]) giving the
//!   agent's view of which physical blocks hold data versus dummy bytes —
//!   shared by reference, with atomic claims, and persisted in a 2-bit wire
//!   format;
//! * the **wire layer** ([`wire`]) — the one bounds-checked cursor and one
//!   authenticated frame every on-disk encoder and decoder of the workspace
//!   goes through.
//!
//! The ICDE 2003 substrate's hidden directories are not carried: every
//! caller here names a file by its FAK and full path, which is all the
//! paper's agents and experiments need.
//!
//! The access-hiding mechanisms themselves (dummy updates, Figure 6
//! relocation, oblivious reads) live in the `steghide` and `stegfs-oblivious`
//! crates; this crate is deliberately the *unprotected* baseline so that the
//! evaluation can compare "StegFS" against "StegHide"/"StegHide\*" exactly as
//! the paper does.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blockmap;
mod codec;
mod error;
mod fak;
mod fs;
pub mod header;
pub mod layout;
mod sharded_map;
pub mod wire;

pub use blockmap::BlockClass;
pub use codec::BlockCodec;
pub use error::FsError;
pub use fak::FileAccessKey;
pub use fs::{OpenFile, StegFs, StegFsConfig};
pub use header::{FileHeader, FileKind};
pub use layout::{Superblock, DEFAULT_BLOCK_SIZE, IV_SIZE, SUPERBLOCK_BLOCK};
pub use sharded_map::{ShardedBlockMap, DEFAULT_MAP_SHARDS};
