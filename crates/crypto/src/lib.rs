//! # stegfs-crypto
//!
//! The cryptographic substrate used by the StegFS reproduction.
//!
//! The paper (Section 6.1) states:
//!
//! > We use AES \[3\] for the block cipher, and the pseudo-random number
//! > generator is constructed from SHA256 \[4\].
//!
//! This crate therefore provides, implemented from scratch in safe Rust:
//!
//! * [`Aes256`] — the FIPS-197 block cipher with a 256-bit key, the one key
//!   size every block, header, journal record and anchor is sealed under
//!   (encrypt and decrypt), implemented with compile-time fused T-tables and
//!   word-oriented state; the original byte-oriented implementation survives
//!   as the [`reference`](mod@reference) module that property tests compare against.
//! * [`CbcCipher`] — CBC mode over whole 16-byte blocks, exactly the
//!   `IV || data field` layout that Section 4.1.1 places in every storage block.
//! * [`Sha256`] — FIPS 180-2 SHA-256.
//! * [`HmacSha256`] — HMAC (RFC 2104) over SHA-256, used for deriving block
//!   locations and per-file keys from a file access key (FAK).
//! * [`HashDrbg`] — a SHA-256 based deterministic random bit generator in the
//!   spirit of NIST SP 800-90A Hash_DRBG, used wherever the paper requires a
//!   pseudo-random number generator (dummy-update selection, block scattering,
//!   level re-ordering permutations).
//!
//! None of this code is intended to be side-channel hardened; it exists so the
//! reproduction is self-contained and exercises the same data layout and key
//! schedule costs as the paper's prototype.
//!
//! ## Backends
//!
//! AES and SHA-256 each have hardware paths (VAES and AES-NI; SHA-NI) beside
//! a portable one, selected once per process by the [`backend`] module from
//! CPU feature detection plus the `STEGFS_CRYPTO_BACKEND` environment
//! override; the SHA-256 path follows the AES setting. CBC is a method of
//! the AES backend ([`BlockCipher`]), which the hardware ones implement as
//! fused kernels; [`CbcCipher`] is the checked front every caller goes
//! through. All backends are byte-for-byte equivalent; only throughput
//! differs.
//!
//! `unsafe` is denied crate-wide and allowed in exactly three leaf modules
//! (the AES-NI and VAES ciphers and the SHA-NI compressor), where every
//! block is a `core::arch` intrinsic call guarded by runtime feature
//! detection or an unaligned load/store whose bounds the module's safe entry
//! points check.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod aes;
pub mod backend;
mod cbc;
mod drbg;
mod hmac;
mod keys;
mod sha256;

pub use aes::reference;
pub use aes::{Aes256, BlockCipher, AES_BLOCK_SIZE, PIPELINE_WIDTH};
pub use backend::{backend_name, sha256_backend_name, Backend, Sha256Backend};
pub use cbc::{CbcCipher, CbcError};
pub use drbg::HashDrbg;
pub use hmac::HmacSha256;
pub use keys::{AesScheduleCache, Key256, KeyError};
pub use sha256::{sha256, Sha256, SHA256_OUTPUT_SIZE, SHA_LANES};

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// A buffer whose length must be a multiple of the AES block size was not.
    NotBlockAligned {
        /// The offending length in bytes.
        len: usize,
    },
    /// A key had the wrong length.
    BadKeyLength {
        /// Expected length in bytes.
        expected: usize,
        /// Observed length in bytes.
        got: usize,
    },
    /// An explicitly requested backend cannot run on this CPU.
    BackendUnavailable {
        /// The requested backend's [`Backend::name`].
        backend: &'static str,
    },
}

impl core::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CryptoError::NotBlockAligned { len } => {
                write!(f, "buffer length {len} is not a multiple of 16 bytes")
            }
            CryptoError::BadKeyLength { expected, got } => {
                write!(f, "bad key length: expected {expected} bytes, got {got}")
            }
            CryptoError::BackendUnavailable { backend } => {
                write!(f, "crypto backend {backend:?} is not available on this CPU")
            }
        }
    }
}

impl std::error::Error for CryptoError {}
