//! The AES-NI hardware backend (x86-64 only).
//!
//! Round keys are expanded with `aeskeygenassist` and kept as `__m128i`
//! arrays on the stack (no heap allocation, overwritten on drop, exactly like
//! the T-table [`super::ttable`] schedules). A block round is a single
//! `aesenc`/`aesdec` instruction, so single-block throughput is already an
//! order of magnitude over the T-tables — and because the instructions are
//! pipelined, the batched entry points below run **eight independent blocks
//! in flight at once**, which is where CBC *decryption* (parallelisable,
//! unlike encryption) and the reseal round trip get their multi-GB/s path.
//!
//! Safety: every `#[target_feature(enable = "aes,sse2")]` function in this module
//! is only reachable through the constructors, which assert AES-NI support at
//! runtime (`is_x86_feature_detected!`). The remaining `unsafe` blocks are
//! unaligned 16-byte loads/stores over slices whose bounds are checked by the
//! callers.

use core::arch::x86_64::{
    __m128i, _mm_aesdec_si128, _mm_aesdeclast_si128, _mm_aesenc_si128, _mm_aesenclast_si128,
    _mm_aesimc_si128, _mm_aeskeygenassist_si128, _mm_loadu_si128, _mm_setzero_si128,
    _mm_shuffle_epi32, _mm_slli_si128, _mm_storeu_si128, _mm_xor_si128,
};

use super::{AES_BLOCK_SIZE, PIPELINE_WIDTH};

const WIDE_BYTES: usize = PIPELINE_WIDTH * AES_BLOCK_SIZE;

/// Unaligned 16-byte load from a slice of at least 16 bytes.
#[inline(always)]
fn load(bytes: &[u8]) -> __m128i {
    debug_assert!(bytes.len() >= AES_BLOCK_SIZE);
    // SAFETY: the slice holds at least 16 readable bytes and `loadu` has no
    // alignment requirement.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
}

/// Unaligned 16-byte store into a slice of at least 16 bytes.
#[inline(always)]
fn store(bytes: &mut [u8], v: __m128i) {
    debug_assert!(bytes.len() >= AES_BLOCK_SIZE);
    // SAFETY: the slice holds at least 16 writable bytes and `storeu` has no
    // alignment requirement.
    unsafe { _mm_storeu_si128(bytes.as_mut_ptr().cast(), v) }
}

/// The xor-fold shared by every `aeskeygenassist` expansion step: the running
/// key word cascades left through the lane while the assist word lands on top.
/// (`sse2` is baseline on x86-64; the attribute only satisfies the
/// target-feature call rules for the intrinsics.)
#[inline]
#[target_feature(enable = "sse2")]
fn key_fold(mut a: __m128i, assist: __m128i) -> __m128i {
    a = _mm_xor_si128(a, _mm_slli_si128(a, 4));
    a = _mm_xor_si128(a, _mm_slli_si128(a, 4));
    a = _mm_xor_si128(a, _mm_slli_si128(a, 4));
    _mm_xor_si128(a, assist)
}

#[target_feature(enable = "aes,sse2")]
fn expand128(key: &[u8; 16]) -> [__m128i; 11] {
    let mut rk = [_mm_setzero_si128(); 11];
    rk[0] = load(key);
    macro_rules! step {
        ($i:expr, $rcon:literal) => {
            rk[$i] = key_fold(
                rk[$i - 1],
                _mm_shuffle_epi32(_mm_aeskeygenassist_si128(rk[$i - 1], $rcon), 0xff),
            );
        };
    }
    step!(1, 0x01);
    step!(2, 0x02);
    step!(3, 0x04);
    step!(4, 0x08);
    step!(5, 0x10);
    step!(6, 0x20);
    step!(7, 0x40);
    step!(8, 0x80);
    step!(9, 0x1b);
    step!(10, 0x36);
    rk
}

#[target_feature(enable = "aes,sse2")]
fn expand256(key: &[u8; 32]) -> [__m128i; 15] {
    let mut rk = [_mm_setzero_si128(); 15];
    rk[0] = load(&key[..16]);
    rk[1] = load(&key[16..]);
    // Even round keys use the rcon assist on the 0xff-shuffled word; the odd
    // ones re-assist the fresh even key with rcon 0 shuffled to 0xaa
    // (FIPS-197's extra SubWord step for 256-bit keys).
    macro_rules! even {
        ($i:expr, $rcon:literal) => {
            rk[$i] = key_fold(
                rk[$i - 2],
                _mm_shuffle_epi32(_mm_aeskeygenassist_si128(rk[$i - 1], $rcon), 0xff),
            );
        };
    }
    macro_rules! odd {
        ($i:expr) => {
            rk[$i] = key_fold(
                rk[$i - 2],
                _mm_shuffle_epi32(_mm_aeskeygenassist_si128(rk[$i - 1], 0), 0xaa),
            );
        };
    }
    even!(2, 0x01);
    odd!(3);
    even!(4, 0x02);
    odd!(5);
    even!(6, 0x04);
    odd!(7);
    even!(8, 0x08);
    odd!(9);
    even!(10, 0x10);
    odd!(11);
    even!(12, 0x20);
    odd!(13);
    even!(14, 0x40);
    rk
}

/// Decryption round keys for the equivalent inverse cipher: the encryption
/// schedule reversed, with `aesimc` (InvMixColumns) on every middle round.
#[target_feature(enable = "aes,sse2")]
fn invert_schedule<const R: usize>(enc: &[__m128i; R]) -> [__m128i; R] {
    let mut dec = [_mm_setzero_si128(); R];
    dec[0] = enc[R - 1];
    for i in 1..R - 1 {
        dec[i] = _mm_aesimc_si128(enc[R - 1 - i]);
    }
    dec[R - 1] = enc[0];
    dec
}

#[target_feature(enable = "aes,sse2")]
fn encrypt1<const R: usize>(rk: &[__m128i; R], block: &mut [u8; AES_BLOCK_SIZE]) {
    let mut b = _mm_xor_si128(load(block), rk[0]);
    for key in &rk[1..R - 1] {
        b = _mm_aesenc_si128(b, *key);
    }
    store(block, _mm_aesenclast_si128(b, rk[R - 1]));
}

#[target_feature(enable = "aes,sse2")]
fn decrypt1<const R: usize>(rk: &[__m128i; R], block: &mut [u8; AES_BLOCK_SIZE]) {
    let mut b = _mm_xor_si128(load(block), rk[0]);
    for key in &rk[1..R - 1] {
        b = _mm_aesdec_si128(b, *key);
    }
    store(block, _mm_aesdeclast_si128(b, rk[R - 1]));
}

/// Eight independent blocks through the cipher with the rounds interleaved:
/// each `aesenc` issues while the previous lanes' results are still in
/// flight, hiding the instruction latency entirely.
#[target_feature(enable = "aes,sse2")]
fn encrypt8<const R: usize>(rk: &[__m128i; R], data: &mut [u8]) {
    debug_assert_eq!(data.len(), WIDE_BYTES);
    let mut lanes = [_mm_setzero_si128(); PIPELINE_WIDTH];
    for (i, lane) in lanes.iter_mut().enumerate() {
        *lane = _mm_xor_si128(load(&data[i * AES_BLOCK_SIZE..]), rk[0]);
    }
    for key in &rk[1..R - 1] {
        for lane in &mut lanes {
            *lane = _mm_aesenc_si128(*lane, *key);
        }
    }
    for (i, lane) in lanes.iter().enumerate() {
        store(
            &mut data[i * AES_BLOCK_SIZE..],
            _mm_aesenclast_si128(*lane, rk[R - 1]),
        );
    }
}

#[target_feature(enable = "aes,sse2")]
fn decrypt8<const R: usize>(rk: &[__m128i; R], data: &mut [u8]) {
    debug_assert_eq!(data.len(), WIDE_BYTES);
    let mut lanes = [_mm_setzero_si128(); PIPELINE_WIDTH];
    for (i, lane) in lanes.iter_mut().enumerate() {
        *lane = _mm_xor_si128(load(&data[i * AES_BLOCK_SIZE..]), rk[0]);
    }
    for key in &rk[1..R - 1] {
        for lane in &mut lanes {
            *lane = _mm_aesdec_si128(*lane, *key);
        }
    }
    for (i, lane) in lanes.iter().enumerate() {
        store(
            &mut data[i * AES_BLOCK_SIZE..],
            _mm_aesdeclast_si128(*lane, rk[R - 1]),
        );
    }
}

#[target_feature(enable = "aes,sse2")]
fn encrypt_blocks<const R: usize>(rk: &[__m128i; R], data: &mut [u8]) {
    debug_assert_eq!(data.len() % AES_BLOCK_SIZE, 0);
    let mut wide = data.chunks_exact_mut(WIDE_BYTES);
    for chunk in &mut wide {
        encrypt8(rk, chunk);
    }
    for block in wide.into_remainder().chunks_exact_mut(AES_BLOCK_SIZE) {
        encrypt1(rk, block.try_into().expect("16-byte lanes"));
    }
}

#[target_feature(enable = "aes,sse2")]
fn decrypt_blocks<const R: usize>(rk: &[__m128i; R], data: &mut [u8]) {
    debug_assert_eq!(data.len() % AES_BLOCK_SIZE, 0);
    let mut wide = data.chunks_exact_mut(WIDE_BYTES);
    for chunk in &mut wide {
        decrypt8(rk, chunk);
    }
    for block in wide.into_remainder().chunks_exact_mut(AES_BLOCK_SIZE) {
        decrypt1(rk, block.try_into().expect("16-byte lanes"));
    }
}

/// Assert once that the CPU actually has AES-NI. `is_x86_feature_detected!`
/// caches its CPUID probe, so this is a single atomic load on the hot path —
/// and it makes every `unsafe` call below locally justified: the type cannot
/// exist on a CPU without the instructions.
fn assert_detected() {
    assert!(
        std::arch::is_x86_feature_detected!("aes"),
        "AES-NI backend constructed on a CPU without AES-NI"
    );
}

macro_rules! aesni_cipher {
    ($name:ident, $keylen:expr, $rounds:expr, $expand:ident) => {
        /// Hardware-AES key schedule; see the module docs.
        #[derive(Clone)]
        pub(crate) struct $name {
            enc: [__m128i; $rounds],
            dec: [__m128i; $rounds],
        }

        impl $name {
            pub(crate) fn new(key: &[u8; $keylen]) -> Self {
                assert_detected();
                // SAFETY: `assert_detected` proved AES-NI support.
                let enc = unsafe { $expand(key) };
                let dec = unsafe { invert_schedule(&enc) };
                Self { enc, dec }
            }

            #[inline]
            pub(crate) fn encrypt_block(&self, block: &mut [u8; AES_BLOCK_SIZE]) {
                // SAFETY: construction proved AES-NI support.
                unsafe { encrypt1(&self.enc, block) }
            }

            #[inline]
            pub(crate) fn decrypt_block(&self, block: &mut [u8; AES_BLOCK_SIZE]) {
                // SAFETY: construction proved AES-NI support.
                unsafe { decrypt1(&self.dec, block) }
            }

            #[inline]
            pub(crate) fn encrypt_blocks(&self, data: &mut [u8]) {
                // SAFETY: construction proved AES-NI support; `data` is
                // 16-byte aligned in length (checked by the dispatcher).
                unsafe { encrypt_blocks(&self.enc, data) }
            }

            #[inline]
            pub(crate) fn decrypt_blocks(&self, data: &mut [u8]) {
                // SAFETY: construction proved AES-NI support; `data` is
                // 16-byte aligned in length (checked by the dispatcher).
                unsafe { decrypt_blocks(&self.dec, data) }
            }
        }

        impl Drop for $name {
            fn drop(&mut self) {
                // Clear expanded key material; `black_box` keeps the writes
                // from being elided as dead stores.
                // SAFETY: `_mm_setzero_si128` only needs SSE2, which is
                // baseline on every x86-64 CPU this module compiles for.
                unsafe {
                    self.enc = [_mm_setzero_si128(); $rounds];
                    self.dec = [_mm_setzero_si128(); $rounds];
                }
                core::hint::black_box(&self.enc);
                core::hint::black_box(&self.dec);
            }
        }
    };
}

aesni_cipher!(Aes128Ni, 16, 11, expand128);
aesni_cipher!(Aes256Ni, 32, 15, expand256);

#[cfg(test)]
mod tests {
    use super::*;

    fn available() -> bool {
        std::arch::is_x86_feature_detected!("aes")
    }

    #[test]
    fn fips197_appendix_c_vectors() {
        if !available() {
            return;
        }
        // C.1 AES-128 and C.3 AES-256, both directions.
        let plaintext: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let key128: [u8; 16] = core::array::from_fn(|i| i as u8);
        let c = Aes128Ni::new(&key128);
        let mut block = plaintext;
        c.encrypt_block(&mut block);
        assert_eq!(
            block,
            [
                0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
                0xc5, 0x5a
            ]
        );
        c.decrypt_block(&mut block);
        assert_eq!(block, plaintext);

        let key256: [u8; 32] = core::array::from_fn(|i| i as u8);
        let c = Aes256Ni::new(&key256);
        let mut block = plaintext;
        c.encrypt_block(&mut block);
        assert_eq!(
            block,
            [
                0x8e, 0xa2, 0xb7, 0xca, 0x51, 0x67, 0x45, 0xbf, 0xea, 0xfc, 0x49, 0x90, 0x4b, 0x49,
                0x60, 0x89
            ]
        );
        c.decrypt_block(&mut block);
        assert_eq!(block, plaintext);
    }

    #[test]
    fn wide_paths_match_single_block_paths() {
        if !available() {
            return;
        }
        let cipher = Aes256Ni::new(&[0x42u8; 32]);
        // 19 blocks: two full 8-wide chunks plus a 3-block remainder.
        let mut wide: Vec<u8> = (0..19 * 16).map(|i| (i % 251) as u8).collect();
        let mut single = wide.clone();
        cipher.encrypt_blocks(&mut wide);
        for block in single.chunks_exact_mut(16) {
            cipher.encrypt_block(block.try_into().unwrap());
        }
        assert_eq!(wide, single);
        cipher.decrypt_blocks(&mut wide);
        for block in single.chunks_exact_mut(16) {
            cipher.decrypt_block(block.try_into().unwrap());
        }
        assert_eq!(wide, single);
        assert_eq!(wide[..16], core::array::from_fn::<u8, 16, _>(|i| i as u8));
    }
}
