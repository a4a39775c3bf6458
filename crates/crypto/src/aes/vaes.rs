//! The VAES backend (x86-64 with VAES and AVX-512F): [`super::aesni`]'s key
//! schedule and narrow kernels, with the two CBC passes that have independent
//! blocks to spare moved onto 512-bit `vaesdec`/`vaesenc`, four AES blocks an
//! instruction.
//!
//! * **Decrypt**: eight blocks a group as two ZMM registers. The "previous
//!   ciphertext" vector each needs is its own ciphertext shifted up one
//!   128-bit lane with the block before it shifted in (`valignq`), so the IV,
//!   the seam between groups and in-place operation need no special case.
//!   Fewer than eight blocks at the end go to the 128-bit group kernel.
//! * **Encrypt, eight chains**: two ZMM registers of four chains each. A
//!   buffer's next 64 bytes are four *consecutive* blocks of one chain, a
//!   round wants the *same* block of four chains, so each 64-byte step
//!   transposes a 4×4 matrix of 128-bit lanes on the way in and again on the
//!   way out. The last `len % 64` bytes of every buffer go to the 128-bit
//!   eight-lane kernel.
//!
//! One chain, and two to seven, have no second block to put beside the
//! first: they stay on the `aesni` kernels, as do single blocks.
//!
//! Safety: the `#[target_feature]` functions here are only reachable through
//! [`Vaes`], whose constructor asserts at runtime every CPU feature
//! [`Backend::Vaes`] stands for. The remaining `unsafe` is unaligned loads and
//! stores through raw pointers; the safe methods of [`Vaes`] check the slice
//! lengths the kernels rely on.

use core::arch::x86_64::{
    __m128i, __m512i, _mm512_aesdec_epi128, _mm512_aesdeclast_epi128, _mm512_aesenc_epi128,
    _mm512_aesenclast_epi128, _mm512_alignr_epi64, _mm512_broadcast_i32x4,
    _mm512_extracti32x4_epi32, _mm512_loadu_si512, _mm512_setzero_si512, _mm512_shuffle_i32x4,
    _mm512_storeu_si512, _mm512_xor_si512,
};

use super::aesni::{self, load_block, AesNi};
use super::{
    check_blocks, check_lanes, check_src_dst, BlockCipher, AES_BLOCK_SIZE, PIPELINE_WIDTH,
};
use crate::backend::Backend;

/// Bytes in a ZMM register: four AES blocks.
const ZMM: usize = 4 * AES_BLOCK_SIZE;

#[inline]
#[target_feature(enable = "avx512f")]
fn broadcast_keys<const R: usize>(rk: &[__m128i; R]) -> [__m512i; R] {
    let mut wide = [_mm512_setzero_si512(); R];
    for (wide, key) in wide.iter_mut().zip(rk) {
        *wide = _mm512_broadcast_i32x4(*key);
    }
    wide
}

/// CBC-decrypt the `len` bytes at `src` into `dst` under `iv`.
///
/// # Safety
/// `src` must be valid for reads and `dst` for writes of `len` bytes, `len` a
/// multiple of 16, and the two regions must be the same or not overlap.
#[target_feature(enable = "vaes,avx512f,aes,sse2")]
unsafe fn cbc_decrypt_raw<const R: usize>(
    rk: &[__m128i; R],
    iv: __m128i,
    src: *const u8,
    dst: *mut u8,
    len: usize,
) {
    let keys = broadcast_keys(rk);
    // Lane 3 is the block before the group: the IV, then the last ciphertext
    // block of the group just done.
    let mut before = _mm512_broadcast_i32x4(iv);
    let mut at = 0;
    while len - at >= 2 * ZMM {
        // SAFETY: `at + 128 <= len`, inside the caller's `len` bytes. Both
        // loads come before either store, so `src == dst` is fine.
        let (c0, c1) = unsafe {
            (
                _mm512_loadu_si512(src.add(at).cast()),
                _mm512_loadu_si512(src.add(at + ZMM).cast()),
            )
        };
        let mut s0 = _mm512_xor_si512(c0, keys[0]);
        let mut s1 = _mm512_xor_si512(c1, keys[0]);
        for key in &keys[1..R - 1] {
            s0 = _mm512_aesdec_epi128(s0, *key);
            s1 = _mm512_aesdec_epi128(s1, *key);
        }
        // `valignq` by six quadwords: lane 3 of the vector before, then
        // lanes 0..3 of this one — every block's previous ciphertext block,
        // folded into the last round's key.
        let p0 = _mm512_xor_si512(keys[R - 1], _mm512_alignr_epi64::<6>(c0, before));
        let p1 = _mm512_xor_si512(keys[R - 1], _mm512_alignr_epi64::<6>(c1, c0));
        // SAFETY: as for the loads.
        unsafe {
            _mm512_storeu_si512(dst.add(at).cast(), _mm512_aesdeclast_epi128(s0, p0));
            _mm512_storeu_si512(dst.add(at + ZMM).cast(), _mm512_aesdeclast_epi128(s1, p1));
        }
        before = c1;
        at += 2 * ZMM;
    }
    let chain = _mm512_extracti32x4_epi32::<3>(before);
    // SAFETY: the `len - at` bytes left are the tail of the caller's regions.
    unsafe { aesni::cbc_decrypt_raw(rk, chain, src.add(at), dst.add(at), len - at) }
}

/// Transpose a 4×4 matrix of 128-bit lanes: lane `j` of output `i` is lane
/// `i` of input `j`.
#[inline]
#[target_feature(enable = "avx512f")]
fn transpose(rows: [__m512i; 4]) -> [__m512i; 4] {
    let [r0, r1, r2, r3] = rows;
    // 0x88 picks lanes 0 and 2 of each operand, 0xdd lanes 1 and 3.
    let even01 = _mm512_shuffle_i32x4::<0x88>(r0, r1);
    let odd01 = _mm512_shuffle_i32x4::<0xdd>(r0, r1);
    let even23 = _mm512_shuffle_i32x4::<0x88>(r2, r3);
    let odd23 = _mm512_shuffle_i32x4::<0xdd>(r2, r3);
    [
        _mm512_shuffle_i32x4::<0x88>(even01, even23),
        _mm512_shuffle_i32x4::<0x88>(odd01, odd23),
        _mm512_shuffle_i32x4::<0xdd>(even01, even23),
        _mm512_shuffle_i32x4::<0xdd>(odd01, odd23),
    ]
}

/// CBC-encrypt eight buffers of `len` bytes in place, buffer `i` under
/// `ivs[i]`: chains 0..4 in one ZMM register, 4..8 in another.
///
/// # Safety
/// Every pointer of `bufs` must be valid for reads and writes of `len` bytes,
/// `len` a multiple of 16, and no two of the regions may overlap.
#[target_feature(enable = "vaes,avx512f,aes,sse2")]
unsafe fn cbc_encrypt_8<const R: usize>(
    rk: &[__m128i; R],
    ivs: &[[u8; AES_BLOCK_SIZE]],
    bufs: [*mut u8; PIPELINE_WIDTH],
    len: usize,
) {
    // Invariant: `cbc_encrypt_groups` hands this kernel only full groups,
    // after `check_lanes` matched one IV to every buffer.
    let ivs: &[[u8; AES_BLOCK_SIZE]; PIPELINE_WIDTH] =
        ivs.try_into().expect("eight chains, eight IVs");
    let keys = broadcast_keys(rk);
    let wide = len - len % ZMM;
    // SAFETY: eight 16-byte IVs are two 64-byte reads.
    let mut chain = unsafe {
        [
            _mm512_loadu_si512(ivs.as_ptr().cast()),
            _mm512_loadu_si512(ivs.as_ptr().add(4).cast()),
        ]
    };
    for at in (0..wide).step_by(ZMM) {
        // Four buffers' next 64 bytes, transposed: vector `j` is block `j`
        // of each of the four chains.
        let read = |quad: &[*mut u8]| {
            // SAFETY: `at + 64 <= len`, inside the caller's `len` bytes.
            transpose(core::array::from_fn(|i| unsafe {
                _mm512_loadu_si512(quad[i].add(at).cast())
            }))
        };
        let (mut lo, mut hi) = (read(&bufs[..4]), read(&bufs[4..]));
        for (lo, hi) in lo.iter_mut().zip(&mut hi) {
            let mut s0 = _mm512_xor_si512(_mm512_xor_si512(*lo, chain[0]), keys[0]);
            let mut s1 = _mm512_xor_si512(_mm512_xor_si512(*hi, chain[1]), keys[0]);
            for key in &keys[1..R - 1] {
                s0 = _mm512_aesenc_epi128(s0, *key);
                s1 = _mm512_aesenc_epi128(s1, *key);
            }
            chain = [
                _mm512_aesenclast_epi128(s0, keys[R - 1]),
                _mm512_aesenclast_epi128(s1, keys[R - 1]),
            ];
            (*lo, *hi) = (chain[0], chain[1]);
        }
        for (quad, blocks) in bufs.chunks_exact(4).zip([lo, hi]) {
            for (buf, row) in quad.iter().zip(transpose(blocks)) {
                // SAFETY: as for the loads.
                unsafe { _mm512_storeu_si512(buf.add(at).cast(), row) };
            }
        }
    }
    if wide == len {
        return;
    }
    // The blocks left over, on the 128-bit lanes. Each chain value is the
    // ciphertext block just written in front of them.
    let mut tail_ivs = *ivs;
    if wide > 0 {
        for (iv, buf) in tail_ivs.iter_mut().zip(bufs) {
            // SAFETY: `wide - 16 .. wide` is inside the buffer.
            unsafe { aesni::store(iv.as_mut_ptr(), aesni::load(buf.add(wide - AES_BLOCK_SIZE))) };
        }
    }
    // SAFETY: `wide <= len`, and the `len - wide` bytes from there on are
    // the tail of each of the caller's regions.
    unsafe {
        let tails = bufs.map(|buf| buf.add(wide));
        aesni::cbc_encrypt_lanes::<R, PIPELINE_WIDTH>(rk, &tail_ivs, tails, len - wide)
    }
}

/// [`AesNi`]'s key schedule on a CPU that also has VAES and AVX-512F. As
/// with [`AesNi`], the constructor asserts the CPU features, so the type
/// cannot exist where its kernels cannot run.
#[derive(Clone)]
pub(crate) struct Vaes<const R: usize>(AesNi<R>);

impl<const R: usize> Vaes<R> {
    pub(crate) fn new(schedule: AesNi<R>) -> Self {
        assert!(
            Backend::Vaes.is_available(),
            "VAES backend constructed on a CPU without VAES and AVX-512F"
        );
        Self(schedule)
    }
}

impl<const R: usize> BlockCipher for Vaes<R> {
    #[inline]
    fn encrypt_block(&self, block: &mut [u8; AES_BLOCK_SIZE]) {
        self.0.encrypt_block(block);
    }

    #[inline]
    fn decrypt_block(&self, block: &mut [u8; AES_BLOCK_SIZE]) {
        self.0.decrypt_block(block);
    }

    fn cbc_encrypt_many(&self, ivs: &[[u8; AES_BLOCK_SIZE]], bufs: &mut [&mut [u8]]) {
        check_lanes(ivs, bufs);
        // SAFETY: construction proved VAES, AVX-512F and AES-NI support;
        // `check_lanes` passed.
        unsafe {
            aesni::cbc_encrypt_groups(self.0.encryption_keys(), ivs, bufs, cbc_encrypt_8::<R>)
        }
    }

    fn cbc_decrypt_in_place(&self, iv: &[u8; AES_BLOCK_SIZE], data: &mut [u8]) {
        check_blocks(data.len());
        let (at, len) = (data.as_mut_ptr(), data.len());
        // SAFETY: the CPU features as above; source and destination are the
        // same `len` bytes, `len` a multiple of 16.
        unsafe { cbc_decrypt_raw(self.0.decryption_keys(), load_block(iv), at, at, len) }
    }

    fn cbc_decrypt(&self, iv: &[u8; AES_BLOCK_SIZE], src: &[u8], dst: &mut [u8]) {
        check_src_dst(src, dst);
        // SAFETY: the CPU features as above; `src` and `dst` are distinct
        // borrows of equal length, a multiple of 16.
        unsafe {
            cbc_decrypt_raw(
                self.0.decryption_keys(),
                load_block(iv),
                src.as_ptr(),
                dst.as_mut_ptr(),
                src.len(),
            )
        }
    }
}
