//! FIPS-197 AES block cipher with a 256-bit key, encryption and decryption,
//! behind a runtime-dispatched backend.
//!
//! Four implementations live side by side:
//!
//! * [`ttable`] — the portable fused-T-table cipher (a round is 16 table
//!   lookups and a handful of XORs); compiles and runs everywhere.
//! * `aesni` — hardware AES via `aesenc`/`aesdec`/`aeskeygenassist`
//!   intrinsics (x86-64 only), with CBC kernels that keep chain values and
//!   round keys in registers.
//! * `vaes` — the same key schedule and narrow kernels, with CBC decrypt and
//!   the eight-lane CBC encrypt on 512-bit `vaesdec`/`vaesenc` (four blocks
//!   an instruction; needs VAES and AVX-512F).
//! * [`reference`] — the original table-free byte-oriented implementation,
//!   kept as the correctness oracle; property tests assert all backends agree
//!   on random keys and blocks.
//!
//! CBC lives here, not above the cipher: [`BlockCipher`] carries the mode's
//! three bulk operations, whose defaults are plain loops over
//! [`BlockCipher::encrypt_block`] / [`BlockCipher::decrypt_block`] and which
//! the hardware backends override with fused kernels. [`crate::CbcCipher`] is
//! the checked front: it turns malformed calls into typed errors and forwards.
//!
//! [`Aes256`] snapshots the process-wide selection from [`crate::backend`] at
//! construction time, so which machine code runs is decided once (CPU
//! detection + `STEGFS_CRYPTO_BACKEND` override) and the rest of the
//! workspace stays backend-oblivious. Round keys for every backend live in
//! fixed-size stack arrays — no heap allocation — and are overwritten on
//! drop.

pub mod reference;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod aesni;
mod ttable;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod vaes;

use crate::backend::{self, Backend};
use crate::CryptoError;

/// The AES block size in bytes.
pub const AES_BLOCK_SIZE: usize = 16;

/// How many independent CBC chains one multi-buffer encrypt keeps in flight.
/// Eight 128-bit lanes fill the `aesenc` pipeline on every post-2010 x86 core
/// while still leaving half the XMM register file for round keys. A caller
/// fills the lanes with whatever independent chains it has: a StegFS block
/// codec cuts one block's data field into this many lanes, an oblivious
/// level re-order seals this many one-chain slots a call.
pub const PIPELINE_WIDTH: usize = 8;

/// A block cipher operating on 16-byte blocks, and CBC mode over it.
///
/// [`Aes256`] implements this trait; the rest of the workspace is generic
/// over it so tests can plug in lighter ciphers. The three `cbc_*` methods
/// default to loops over the single-block methods; hardware backends
/// override them with kernels that never leave registers.
/// They are the unchecked half of [`crate::CbcCipher`], which every caller
/// outside this crate should go through.
pub trait BlockCipher: Send + Sync {
    /// Encrypt a single 16-byte block in place.
    fn encrypt_block(&self, block: &mut [u8; AES_BLOCK_SIZE]);
    /// Decrypt a single 16-byte block in place.
    fn decrypt_block(&self, block: &mut [u8; AES_BLOCK_SIZE]);

    /// CBC-encrypt every buffer of `bufs` in place, buffer `i` under
    /// `ivs[i]`. The buffers are independent chains, so an implementation
    /// may advance up to [`PIPELINE_WIDTH`] of them together; the bytes are
    /// those of one serial chain per buffer either way.
    ///
    /// # Panics
    /// Panics unless there is one IV per buffer and every buffer has the same
    /// length, a multiple of [`AES_BLOCK_SIZE`].
    fn cbc_encrypt_many(&self, ivs: &[[u8; AES_BLOCK_SIZE]], bufs: &mut [&mut [u8]]) {
        check_lanes(ivs, bufs);
        for (ivs, bufs) in ivs
            .chunks(PIPELINE_WIDTH)
            .zip(bufs.chunks_mut(PIPELINE_WIDTH))
        {
            // Step the group's chains together: consecutive calls then work
            // on independent blocks, which an out-of-order core overlaps.
            let mut chains = [[0u8; AES_BLOCK_SIZE]; PIPELINE_WIDTH];
            chains[..ivs.len()].copy_from_slice(ivs);
            let mut lanes: [core::slice::IterMut<'_, [u8; AES_BLOCK_SIZE]>; PIPELINE_WIDTH] =
                Default::default();
            for (lane, buf) in lanes.iter_mut().zip(bufs.iter_mut()) {
                *lane = buf.as_chunks_mut().0.iter_mut();
            }
            // The lanes are of one length, so the first to run out ends them
            // all, at the top of a round.
            'blocks: loop {
                for (chain, lane) in chains.iter_mut().zip(&mut lanes).take(ivs.len()) {
                    let Some(block) = lane.next() else {
                        break 'blocks;
                    };
                    xor_block(block, chain);
                    self.encrypt_block(block);
                    *chain = *block;
                }
            }
        }
    }

    /// CBC-decrypt `data` in place under `iv`.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of [`AES_BLOCK_SIZE`].
    fn cbc_decrypt_in_place(&self, iv: &[u8; AES_BLOCK_SIZE], data: &mut [u8]) {
        check_blocks(data.len());
        let mut chain = *iv;
        for block in data.as_chunks_mut().0 {
            let ciphertext = *block;
            self.decrypt_block(block);
            xor_block(block, &chain);
            chain = ciphertext;
        }
    }

    /// CBC-decrypt `src` under `iv` into `dst`, leaving `src` as it is.
    ///
    /// # Panics
    /// Panics if the two lengths differ or are not a multiple of
    /// [`AES_BLOCK_SIZE`].
    fn cbc_decrypt(&self, iv: &[u8; AES_BLOCK_SIZE], src: &[u8], dst: &mut [u8]) {
        check_src_dst(src, dst);
        let mut chain = iv;
        for (ciphertext, block) in src.as_chunks().0.iter().zip(dst.as_chunks_mut().0) {
            *block = *ciphertext;
            self.decrypt_block(block);
            xor_block(block, chain);
            chain = ciphertext;
        }
    }
}

#[inline]
fn xor_block(block: &mut [u8; AES_BLOCK_SIZE], with: &[u8; AES_BLOCK_SIZE]) {
    *block = (u128::from_ne_bytes(*block) ^ u128::from_ne_bytes(*with)).to_ne_bytes();
}

/// The length condition every bulk entry point shares. The hardware kernels
/// walk raw pointers in 16-byte steps, so for them this is a safety check.
#[inline]
fn check_blocks(len: usize) {
    assert!(
        len.is_multiple_of(AES_BLOCK_SIZE),
        "data must be 16-byte blocks"
    );
}

/// [`BlockCipher::cbc_encrypt_many`]'s conditions: one IV per buffer, equal
/// block-aligned lengths.
#[inline]
fn check_lanes(ivs: &[[u8; AES_BLOCK_SIZE]], bufs: &[&mut [u8]]) {
    assert_eq!(ivs.len(), bufs.len(), "one IV per buffer");
    let len = bufs.first().map_or(0, |b| b.len());
    check_blocks(len);
    assert!(
        bufs.iter().all(|b| b.len() == len),
        "buffers of one call must have equal lengths"
    );
}

/// [`BlockCipher::cbc_decrypt`]'s conditions: equal block-aligned lengths.
#[inline]
fn check_src_dst(src: &[u8], dst: &[u8]) {
    assert_eq!(
        src.len(),
        dst.len(),
        "source and destination lengths differ"
    );
    check_blocks(src.len());
}

// The blanket impls must forward the CBC methods explicitly — falling back to
// the trait defaults here would silently strip the fused kernels from every
// cipher reaching CBC through `&C` or the schedule cache's `Arc<Aes256>`.
macro_rules! forward_block_cipher {
    () => {
        #[inline]
        fn encrypt_block(&self, block: &mut [u8; AES_BLOCK_SIZE]) {
            (**self).encrypt_block(block);
        }

        #[inline]
        fn decrypt_block(&self, block: &mut [u8; AES_BLOCK_SIZE]) {
            (**self).decrypt_block(block);
        }

        #[inline]
        fn cbc_encrypt_many(&self, ivs: &[[u8; AES_BLOCK_SIZE]], bufs: &mut [&mut [u8]]) {
            (**self).cbc_encrypt_many(ivs, bufs);
        }

        #[inline]
        fn cbc_decrypt_in_place(&self, iv: &[u8; AES_BLOCK_SIZE], data: &mut [u8]) {
            (**self).cbc_decrypt_in_place(iv, data);
        }

        #[inline]
        fn cbc_decrypt(&self, iv: &[u8; AES_BLOCK_SIZE], src: &[u8], dst: &mut [u8]) {
            (**self).cbc_decrypt(iv, src, dst);
        }
    };
}

impl<C: BlockCipher + ?Sized> BlockCipher for &C {
    forward_block_cipher!();
}

impl<C: BlockCipher + ?Sized> BlockCipher for std::sync::Arc<C> {
    forward_block_cipher!();
}

pub(crate) const SBOX: [u8; 256] = build_sbox();
pub(crate) const INV_SBOX: [u8; 256] = build_inv_sbox();

// Precomputed GF(2^8) multiplication tables for the MixColumns coefficients;
// computed at compile time so both implementations are pure table lookups.
pub(crate) const MUL2: [u8; 256] = build_mul_table(2);
pub(crate) const MUL3: [u8; 256] = build_mul_table(3);
pub(crate) const MUL9: [u8; 256] = build_mul_table(9);
pub(crate) const MUL11: [u8; 256] = build_mul_table(11);
pub(crate) const MUL13: [u8; 256] = build_mul_table(13);
pub(crate) const MUL14: [u8; 256] = build_mul_table(14);

const fn build_mul_table(factor: u8) -> [u8; 256] {
    let mut table = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        table[i] = gf_mul(i as u8, factor);
        i += 1;
    }
    table
}

/// Multiply in GF(2^8) with the AES reduction polynomial 0x11b.
pub(crate) const fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    let mut i = 0;
    while i < 8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
        i += 1;
    }
    p
}

const fn gf_inv(a: u8) -> u8 {
    // Brute-force inverse; runs at compile time only.
    if a == 0 {
        return 0;
    }
    let mut x = 1u16;
    while x < 256 {
        if gf_mul(a, x as u8) == 1 {
            return x as u8;
        }
        x += 1;
    }
    0
}

const fn build_sbox() -> [u8; 256] {
    let mut sbox = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        let inv = gf_inv(i as u8);
        // Affine transformation.
        let mut x = inv;
        let mut res = inv;
        let mut c = 0;
        while c < 4 {
            x = x.rotate_left(1);
            res ^= x;
            c += 1;
        }
        sbox[i] = res ^ 0x63;
        i += 1;
    }
    sbox
}

const fn build_inv_sbox() -> [u8; 256] {
    let sbox = build_sbox();
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[sbox[i] as usize] = i as u8;
        i += 1;
    }
    inv
}

pub(crate) const RCON: [u8; 15] = [
    0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36, 0x6c, 0xd8, 0xab, 0x4d, 0x9a,
];

/// One backend's expanded schedule. The enum tag is the per-instance snapshot
/// of the process-wide selection; taken at construction so an instance's
/// behaviour never changes mid-flight even if [`backend::force`] runs later.
#[derive(Clone)]
enum Aes256Inner {
    TTable(ttable::Aes256),
    #[cfg(target_arch = "x86_64")]
    AesNi(aesni::Aes256Ni),
    #[cfg(target_arch = "x86_64")]
    Vaes(vaes::Vaes<15>),
}

/// AES with a 256-bit key (14 rounds). This is the cipher used throughout the
/// reproduction, matching the paper's choice of AES for the block cipher.
#[derive(Clone)]
pub struct Aes256 {
    inner: Aes256Inner,
}

/// Run `$call` on whichever backend's cipher `$value` holds. Every backend
/// implements [`BlockCipher`] in full (the T-table one through the trait's
/// default CBC loops), so every method of the dispatcher is this one match.
macro_rules! on_backend {
    ($value:expr, $c:ident => $call:expr) => {
        match $value {
            Aes256Inner::TTable($c) => $call,
            #[cfg(target_arch = "x86_64")]
            Aes256Inner::AesNi($c) => $call,
            #[cfg(target_arch = "x86_64")]
            Aes256Inner::Vaes($c) => $call,
        }
    };
}

impl Aes256 {
    /// Construct a cipher on the active backend (see [`crate::backend`]).
    /// Allocation-free.
    pub fn new(key: &[u8; 32]) -> Self {
        // Invariant: the key is 32 bytes by its type, and the active backend
        // is one selection picked as available on this CPU.
        Self::with_backend(key.as_slice(), backend::active())
            .expect("active backend is always available")
    }

    /// Construct from a slice on the active backend, rejecting wrong key
    /// lengths with a typed error.
    pub fn from_slice(key: &[u8]) -> Result<Self, CryptoError> {
        Self::with_backend(key, backend::active())
    }

    /// Construct on an explicitly chosen backend. Fails with
    /// [`CryptoError::BackendUnavailable`] if this CPU cannot run it, or
    /// [`CryptoError::BadKeyLength`] for a wrong-sized key. Used by the
    /// cross-backend equivalence suites; production code should use
    /// [`Self::new`] and the process-wide selection.
    pub fn with_backend(key: &[u8], backend: Backend) -> Result<Self, CryptoError> {
        if !backend.is_available() {
            return Err(CryptoError::BackendUnavailable {
                backend: backend.name(),
            });
        }
        #[cfg(target_arch = "x86_64")]
        let hardware = || -> Result<aesni::Aes256Ni, CryptoError> {
            let key: &[u8; 32] = key.try_into().map_err(|_| CryptoError::BadKeyLength {
                expected: 32,
                got: key.len(),
            })?;
            Ok(aesni::Aes256Ni::new(key))
        };
        let inner = match backend {
            Backend::Portable => Aes256Inner::TTable(ttable::Aes256::from_slice(key)?),
            #[cfg(target_arch = "x86_64")]
            Backend::AesNi => Aes256Inner::AesNi(hardware()?),
            #[cfg(target_arch = "x86_64")]
            Backend::Vaes => Aes256Inner::Vaes(vaes::Vaes::new(hardware()?)),
            #[cfg(not(target_arch = "x86_64"))]
            Backend::AesNi | Backend::Vaes => unreachable!("checked is_available above"),
        };
        Ok(Self { inner })
    }

    /// Which backend this instance snapshotted at construction.
    pub fn backend(&self) -> Backend {
        match &self.inner {
            Aes256Inner::TTable(_) => Backend::Portable,
            #[cfg(target_arch = "x86_64")]
            Aes256Inner::AesNi(_) => Backend::AesNi,
            #[cfg(target_arch = "x86_64")]
            Aes256Inner::Vaes(_) => Backend::Vaes,
        }
    }
}

impl BlockCipher for Aes256 {
    #[inline]
    fn encrypt_block(&self, block: &mut [u8; AES_BLOCK_SIZE]) {
        on_backend!(&self.inner, c => c.encrypt_block(block))
    }

    #[inline]
    fn decrypt_block(&self, block: &mut [u8; AES_BLOCK_SIZE]) {
        on_backend!(&self.inner, c => c.decrypt_block(block))
    }

    #[inline]
    fn cbc_encrypt_many(&self, ivs: &[[u8; AES_BLOCK_SIZE]], bufs: &mut [&mut [u8]]) {
        on_backend!(&self.inner, c => c.cbc_encrypt_many(ivs, bufs))
    }

    #[inline]
    fn cbc_decrypt_in_place(&self, iv: &[u8; AES_BLOCK_SIZE], data: &mut [u8]) {
        on_backend!(&self.inner, c => c.cbc_decrypt_in_place(iv, data))
    }

    #[inline]
    fn cbc_decrypt(&self, iv: &[u8; AES_BLOCK_SIZE], src: &[u8], dst: &mut [u8]) {
        on_backend!(&self.inner, c => c.cbc_decrypt(iv, src, dst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex_to_bytes(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn sbox_matches_known_values() {
        // Spot-check values from the FIPS-197 S-box table.
        assert_eq!(SBOX[0x00], 0x63);
        assert_eq!(SBOX[0x01], 0x7c);
        assert_eq!(SBOX[0x53], 0xed);
        assert_eq!(SBOX[0xff], 0x16);
        assert_eq!(INV_SBOX[0x63], 0x00);
        assert_eq!(INV_SBOX[0x16], 0xff);
    }

    #[test]
    fn gf_mul_known_products() {
        assert_eq!(gf_mul(0x57, 0x83), 0xc1);
        assert_eq!(gf_mul(0x57, 0x13), 0xfe);
    }

    #[test]
    fn aes256_fips197_appendix_c3() {
        // FIPS-197 Appendix C.3 example vectors.
        let key: [u8; 32] =
            hex_to_bytes("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
                .try_into()
                .unwrap();
        let plaintext: [u8; 16] = hex_to_bytes("00112233445566778899aabbccddeeff")
            .try_into()
            .unwrap();
        let expected: [u8; 16] = hex_to_bytes("8ea2b7ca516745bfeafc49904b496089")
            .try_into()
            .unwrap();
        let cipher = Aes256::new(&key);
        let mut block = plaintext;
        cipher.encrypt_block(&mut block);
        assert_eq!(block, expected);
        cipher.decrypt_block(&mut block);
        assert_eq!(block, plaintext);
    }

    #[test]
    fn sp800_38a_ecb_aes256_known_answers() {
        // NIST SP 800-38A F.1.5 ECB-AES256.Encrypt, all four blocks.
        let key: [u8; 32] =
            hex_to_bytes("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4")
                .try_into()
                .unwrap();
        let cipher = Aes256::new(&key);
        let vectors = [
            (
                "6bc1bee22e409f96e93d7e117393172a",
                "f3eed1bdb5d2a03c064b5a7e3db181f8",
            ),
            (
                "ae2d8a571e03ac9c9eb76fac45af8e51",
                "591ccb10d410ed26dc5ba74a31362870",
            ),
            (
                "30c81c46a35ce411e5fbc1191a0a52ef",
                "b6ed21b99ca6f4f9f153e7b1beafed1d",
            ),
            (
                "f69f2445df4f9b17ad2b417be66c3710",
                "23304b7a39f9f3ff067d8d8f9e24ecc7",
            ),
        ];
        for (pt, ct) in vectors {
            let mut block: [u8; 16] = hex_to_bytes(pt).try_into().unwrap();
            cipher.encrypt_block(&mut block);
            assert_eq!(block.to_vec(), hex_to_bytes(ct), "plaintext {pt}");
            cipher.decrypt_block(&mut block);
            assert_eq!(block.to_vec(), hex_to_bytes(pt), "ciphertext {ct}");
        }
    }

    #[test]
    fn from_slice_rejects_wrong_lengths() {
        assert!(Aes256::from_slice(&[0u8; 32]).is_ok());
        for len in [0usize, 15, 16, 17, 24, 31, 33, 64] {
            assert!(matches!(
                Aes256::from_slice(&vec![0u8; len]),
                Err(CryptoError::BadKeyLength {
                    expected: 32,
                    got
                }) if got == len
            ));
        }
    }

    #[test]
    fn with_backend_rejects_wrong_lengths_on_every_backend() {
        for b in [Backend::Portable, Backend::AesNi, Backend::Vaes] {
            if !b.is_available() {
                continue;
            }
            assert!(matches!(
                Aes256::with_backend(&[0u8; 31], b),
                Err(CryptoError::BadKeyLength {
                    expected: 32,
                    got: 31
                })
            ));
        }
    }

    #[test]
    fn matches_reference_implementation() {
        // Pseudo-random keys/blocks through the *active* backend; the
        // exhaustive cross-backend comparison lives in tests/backends.rs and
        // tests/proptests.rs.
        let mut x = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..64 {
            let mut key = [0u8; 32];
            for chunk in key.chunks_exact_mut(8) {
                chunk.copy_from_slice(&next().to_be_bytes());
            }
            let mut block = [0u8; 16];
            for chunk in block.chunks_exact_mut(8) {
                chunk.copy_from_slice(&next().to_be_bytes());
            }

            let fast = Aes256::new(&key);
            let slow = reference::Aes256::new(&key);
            let mut a = block;
            let mut b = block;
            fast.encrypt_block(&mut a);
            slow.encrypt_block(&mut b);
            assert_eq!(a, b, "encrypt mismatch");
            fast.decrypt_block(&mut a);
            slow.decrypt_block(&mut b);
            assert_eq!(a, b, "decrypt mismatch");
            assert_eq!(a, block);
        }
    }

    #[test]
    fn aes256_roundtrip_many_blocks() {
        let key = [7u8; 32];
        let cipher = Aes256::new(&key);
        for i in 0..64u8 {
            let original = [i; 16];
            let mut block = original;
            cipher.encrypt_block(&mut block);
            assert_ne!(block, original, "encryption must change the block");
            cipher.decrypt_block(&mut block);
            assert_eq!(block, original);
        }
    }

    #[test]
    fn different_keys_produce_different_ciphertexts() {
        let c1 = Aes256::new(&[1u8; 32]);
        let c2 = Aes256::new(&[2u8; 32]);
        let mut b1 = [0u8; 16];
        let mut b2 = [0u8; 16];
        c1.encrypt_block(&mut b1);
        c2.encrypt_block(&mut b2);
        assert_ne!(b1, b2);
    }

    /// The textbook chain over `cipher`'s single-block methods.
    fn chain_by_hand<C: BlockCipher>(cipher: &C, iv: &[u8; 16], plain: &[u8]) -> Vec<u8> {
        let mut out = plain.to_vec();
        let mut chain = *iv;
        for block in out.chunks_exact_mut(16) {
            let block: &mut [u8; 16] = block.try_into().unwrap();
            xor_block(block, &chain);
            cipher.encrypt_block(block);
            chain = *block;
        }
        out
    }

    #[test]
    fn batched_api_matches_per_block_api() {
        // Every available backend: 13 blocks are one full decrypt group plus
        // a remainder, three buffers a partial lane group.
        fn check<C: BlockCipher>(cipher: &C, what: &str) {
            let ivs = [[0x11u8; 16], [0x22; 16], [0x33; 16]];
            let plain: Vec<Vec<u8>> = (0..3usize)
                .map(|n| (0..13 * 16).map(|i| (i * 7 + n) as u8).collect())
                .collect();
            let mut sealed = plain.clone();
            let mut bufs: Vec<&mut [u8]> = sealed.iter_mut().map(Vec::as_mut_slice).collect();
            cipher.cbc_encrypt_many(&ivs, &mut bufs);
            for ((iv, sealed), plain) in ivs.iter().zip(&sealed).zip(&plain) {
                assert_eq!(
                    sealed,
                    &chain_by_hand(cipher, iv, plain),
                    "encrypt on {what}"
                );
                let mut opened = vec![0xEEu8; sealed.len()];
                cipher.cbc_decrypt(iv, sealed, &mut opened);
                assert_eq!(&opened, plain, "decrypt on {what}");
                let mut in_place = sealed.clone();
                cipher.cbc_decrypt_in_place(iv, &mut in_place);
                assert_eq!(&in_place, plain, "decrypt in place on {what}");
            }
        }
        for b in [Backend::Portable, Backend::AesNi, Backend::Vaes] {
            if !b.is_available() {
                continue;
            }
            check(&Aes256::with_backend(&[3u8; 32], b).unwrap(), b.name());
        }
    }

    #[test]
    #[should_panic(expected = "16-byte blocks")]
    fn batched_api_rejects_ragged_lengths() {
        let cipher = Aes256::new(&[0u8; 32]);
        let mut data = vec![0u8; 24];
        cipher.cbc_decrypt_in_place(&[0u8; 16], &mut data);
    }

    #[test]
    fn bulk_preconditions_hold_on_every_backend() {
        // The hardware kernels walk raw pointers: a malformed call must stop
        // at the entry point's check on every backend, not only where
        // `CbcCipher` stands in front.
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for b in [Backend::Portable, Backend::AesNi, Backend::Vaes] {
            if !b.is_available() {
                continue;
            }
            let cipher = Aes256::with_backend(&[0u8; 32], b).unwrap();
            let iv = [0u8; 16];
            let ivs = [iv; 9];
            let ragged = catch_unwind(AssertUnwindSafe(|| {
                cipher.cbc_decrypt_in_place(&iv, &mut [0u8; 24]);
            }));
            assert!(ragged.is_err(), "ragged in-place decrypt on {}", b.name());
            let short_dst = catch_unwind(AssertUnwindSafe(|| {
                cipher.cbc_decrypt(&iv, &[0u8; 32], &mut [0u8; 16]);
            }));
            assert!(short_dst.is_err(), "short destination on {}", b.name());
            // One short buffer among nine: in the second group of lanes.
            let unequal = catch_unwind(AssertUnwindSafe(|| {
                let mut data = vec![[0u8; 32]; 9];
                let mut bufs: Vec<&mut [u8]> = data
                    .iter_mut()
                    .enumerate()
                    .map(|(n, d)| &mut d[..if n == 8 { 16 } else { 32 }])
                    .collect();
                cipher.cbc_encrypt_many(&ivs, &mut bufs);
            }));
            assert!(unequal.is_err(), "unequal lanes on {}", b.name());
            let missing_iv = catch_unwind(AssertUnwindSafe(|| {
                cipher.cbc_encrypt_many(&ivs[..1], &mut [&mut [0u8; 16], &mut [0u8; 16]]);
            }));
            assert!(missing_iv.is_err(), "missing IV on {}", b.name());
        }
    }

    #[test]
    fn backend_accessor_reports_construction_backend() {
        let _selection = crate::backend::tests::selection_lock();
        let portable = Aes256::with_backend(&[0u8; 32], Backend::Portable).unwrap();
        assert_eq!(portable.backend(), Backend::Portable);
        assert_eq!(Aes256::new(&[0u8; 32]).backend(), backend::active());
    }

    #[test]
    fn blanket_impls_delegate() {
        let cipher = Aes256::new(&[5u8; 32]);
        let mut direct = [9u8; 16];
        cipher.encrypt_block(&mut direct);

        let via_ref = &cipher;
        let mut b = [9u8; 16];
        via_ref.encrypt_block(&mut b);
        assert_eq!(b, direct);

        let via_arc = std::sync::Arc::new(Aes256::new(&[5u8; 32]));
        let mut b = [9u8; 16];
        via_arc.encrypt_block(&mut b);
        assert_eq!(b, direct);
        via_arc.decrypt_block(&mut b);
        assert_eq!(b, [9u8; 16]);

        // The CBC methods must also delegate (not fall back to the trait
        // defaults, which would bypass the fused kernels through Arc); the
        // counting cipher in tests/backends.rs proves it call by call.
        let iv = [1u8; 16];
        let expected = chain_by_hand(&cipher, &iv, &[9u8; 48]);
        let mut sealed = vec![9u8; 48];
        via_arc.cbc_encrypt_many(&[iv], &mut [&mut sealed]);
        assert_eq!(sealed, expected);
        let mut opened = vec![0u8; 48];
        via_ref.cbc_decrypt(&iv, &sealed, &mut opened);
        assert_eq!(opened, vec![9u8; 48]);
        via_arc.cbc_decrypt_in_place(&iv, &mut sealed);
        assert_eq!(sealed, vec![9u8; 48]);
    }
}
