//! The x86-64 kernel under [`MulTable::mul_xor_into`](super::MulTable): a
//! multiply by a constant is linear over GF(2), so `c · x` is the XOR of
//! `c · (x & 0x0f)` and `c · (x & 0xf0)` — two 16-entry tables, which
//! `vpshufb` looks up for 32 bytes at a time.
//!
//! The crate's only `unsafe`: one call into a `#[target_feature]` function
//! behind runtime detection, and unaligned 32-byte loads and stores over
//! chunks whose length `chunks_exact` fixes.

use core::arch::x86_64::{
    __m256i, _mm256_and_si256, _mm256_broadcastsi128_si256, _mm256_loadu_si256, _mm256_set1_epi8,
    _mm256_shuffle_epi8, _mm256_srli_epi64, _mm256_storeu_si256, _mm256_xor_si256, _mm_loadu_si128,
};

/// Bytes one step of the kernel covers.
const VECTOR: usize = 32;

/// Whether this CPU runs the kernel.
pub(super) fn detected() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// `dst[i] ^= c · src[i]` over the leading whole vectors of the two
/// buffers, `lo[x] = c · x` and `hi[x] = c · (x << 4)` being the constant's
/// nibble tables. Returns the number of bytes done — a multiple of 32, and 0
/// on a CPU without AVX2 — and leaves the rest to the caller's table loop.
///
/// # Panics
/// If the buffers differ in length.
pub(super) fn mul_xor_into(lo: &[u8; 16], hi: &[u8; 16], dst: &mut [u8], src: &[u8]) -> usize {
    assert_eq!(dst.len(), src.len(), "buffers of one length");
    if !detected() {
        return 0;
    }
    let whole = dst.len() - dst.len() % VECTOR;
    // SAFETY: AVX2 was detected on this CPU just above.
    unsafe { mul_xor_vectors(lo, hi, &mut dst[..whole], &src[..whole]) };
    whole
}

/// A 16-entry table in both 128-bit lanes, as `vpshufb` looks it up.
#[target_feature(enable = "avx2")]
fn both_lanes(table: &[u8; 16]) -> __m256i {
    // SAFETY: `table` is 16 readable bytes; `loadu` takes any alignment.
    _mm256_broadcastsi128_si256(unsafe { _mm_loadu_si128(table.as_ptr().cast()) })
}

#[target_feature(enable = "avx2")]
fn mul_xor_vectors(lo: &[u8; 16], hi: &[u8; 16], dst: &mut [u8], src: &[u8]) {
    let (lo, hi) = (both_lanes(lo), both_lanes(hi));
    let nibble = _mm256_set1_epi8(0x0f);
    for (d, s) in dst.chunks_exact_mut(VECTOR).zip(src.chunks_exact(VECTOR)) {
        // SAFETY: `chunks_exact` makes `s` 32 readable and `d` 32 writable
        // bytes, distinct borrows; `loadu`/`storeu` take any alignment.
        unsafe {
            let x = _mm256_loadu_si256(s.as_ptr().cast());
            let low = _mm256_shuffle_epi8(lo, _mm256_and_si256(x, nibble));
            let high = _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64(x, 4), nibble));
            let acc = _mm256_loadu_si256(d.as_ptr().cast());
            let out = _mm256_xor_si256(acc, _mm256_xor_si256(low, high));
            _mm256_storeu_si256(d.as_mut_ptr().cast(), out);
        }
    }
}
