//! The AES-NI hardware backend (x86-64 only).
//!
//! Round keys are expanded with `aeskeygenassist` and kept as `__m128i`
//! arrays on the stack (no heap allocation, overwritten on drop, exactly like
//! the T-table [`super::ttable`] schedules). A block round is a single
//! `aesenc`/`aesdec` instruction with a latency of a few cycles and a
//! throughput of one or two a cycle, so what a CBC pass costs is decided by
//! how the mode is laid around the rounds — which is why the mode lives here:
//!
//! * **Encrypt** ([`cbc_encrypt_lanes`], `N` = 1…8 chains): within a buffer
//!   block `j + 1` cannot start before block `j` is done, so one chain runs
//!   at the latency of its rounds. Its chain value stays in a register from
//!   the first block to the last, and the inter-block XOR is folded into a
//!   second `aesenclast`, so nothing but the rounds themselves is on the
//!   critical path. Independent buffers' chains advance together, round by
//!   round, and fill the pipeline the single chain leaves idle.
//! * **Decrypt** ([`cbc_decrypt_raw`]): every plaintext block is
//!   `D(c[j]) ^ c[j-1]`, no chain to wait for, so eight blocks are in flight
//!   at once, the previous ciphertext folded into `aesdeclast`'s key; the
//!   blocks left over at the end go through as one narrower group.
//!
//! Safety: every `#[target_feature(enable = "aes,sse2")]` function in this
//! module is only reachable through [`AesNi`], whose constructors assert
//! AES-NI support at runtime (`is_x86_feature_detected!`). The remaining
//! `unsafe` is unaligned 16-byte loads and stores through raw pointers; the
//! safe methods of [`AesNi`] check the slice lengths those kernels rely on.

use core::arch::x86_64::{
    __m128i, _mm_aesdec_si128, _mm_aesdeclast_si128, _mm_aesenc_si128, _mm_aesenclast_si128,
    _mm_aesimc_si128, _mm_aeskeygenassist_si128, _mm_loadu_si128, _mm_setzero_si128,
    _mm_shuffle_epi32, _mm_slli_si128, _mm_storeu_si128, _mm_xor_si128,
};

use super::{
    check_blocks, check_lanes, check_src_dst, BlockCipher, AES_BLOCK_SIZE, PIPELINE_WIDTH,
};

/// Blocks a full decrypt group keeps in flight.
const DECRYPT_GROUP: usize = 8;

/// Unaligned 16-byte load.
///
/// # Safety
/// `p` must be valid for a 16-byte read.
#[inline(always)]
pub(super) unsafe fn load(p: *const u8) -> __m128i {
    // SAFETY: the caller vouches for 16 readable bytes; `loadu` has no
    // alignment requirement.
    unsafe { _mm_loadu_si128(p.cast()) }
}

/// Unaligned 16-byte store.
///
/// # Safety
/// `p` must be valid for a 16-byte write.
#[inline(always)]
pub(super) unsafe fn store(p: *mut u8, v: __m128i) {
    // SAFETY: the caller vouches for 16 writable bytes; `storeu` has no
    // alignment requirement.
    unsafe { _mm_storeu_si128(p.cast(), v) }
}

#[inline(always)]
pub(super) fn load_block(block: &[u8; AES_BLOCK_SIZE]) -> __m128i {
    // SAFETY: a `[u8; 16]` is 16 readable bytes.
    unsafe { load(block.as_ptr()) }
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
fn expand256(key: &[u8; 32]) -> [__m128i; 15] {
    let (lo, hi) = key.split_at(16);
    let mut rk = [_mm_setzero_si128(); 15];
    // Invariant: a 32-byte key splits at 16 into two 16-byte halves.
    rk[0] = load_block(lo.try_into().expect("split at 16"));
    rk[1] = load_block(hi.try_into().expect("split at 16"));
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
    let mut b = _mm_xor_si128(load_block(block), rk[0]);
    for key in &rk[1..R - 1] {
        b = _mm_aesenc_si128(b, *key);
    }
    // SAFETY: a `[u8; 16]` is 16 writable bytes.
    unsafe { store(block.as_mut_ptr(), _mm_aesenclast_si128(b, rk[R - 1])) }
}

#[target_feature(enable = "aes,sse2")]
fn decrypt1<const R: usize>(rk: &[__m128i; R], block: &mut [u8; AES_BLOCK_SIZE]) {
    let mut b = _mm_xor_si128(load_block(block), rk[0]);
    for key in &rk[1..R - 1] {
        b = _mm_aesdec_si128(b, *key);
    }
    // SAFETY: a `[u8; 16]` is 16 writable bytes.
    unsafe { store(block.as_mut_ptr(), _mm_aesdeclast_si128(b, rk[R - 1])) }
}

/// CBC-encrypt `N` buffers of `len` bytes in place, buffer `i` under
/// `ivs[i]`, the `N` chains advancing together one round at a time.
///
/// `aesenclast(s, k)` is `SubBytes(ShiftRows(s)) ^ k`, so the same
/// last-round state yields both the ciphertext block (`k` the last round
/// key) and, with `k = rk[0] ^ rk[last] ^ next plaintext`, the next block's
/// state after its round-0 key: the chaining XOR is paid inside an
/// instruction the chain has to wait for anyway, and the ciphertext store
/// hangs off to the side.
///
/// # Safety
/// Every pointer of `bufs` must be valid for reads and writes of `len` bytes,
/// `len` a multiple of 16, and no two of the regions may overlap.
#[target_feature(enable = "aes,sse2")]
pub(super) unsafe fn cbc_encrypt_lanes<const R: usize, const N: usize>(
    rk: &[__m128i; R],
    ivs: &[[u8; AES_BLOCK_SIZE]],
    bufs: [*mut u8; N],
    len: usize,
) {
    debug_assert_eq!(ivs.len(), N);
    if len == 0 {
        return;
    }
    let last = rk[R - 1];
    let fold = _mm_xor_si128(rk[0], last);
    let mut state = [_mm_setzero_si128(); N];
    for ((state, iv), buf) in state.iter_mut().zip(ivs).zip(bufs) {
        // SAFETY: `len >= 16`.
        let first = unsafe { load(buf) };
        *state = _mm_xor_si128(_mm_xor_si128(first, load_block(iv)), rk[0]);
    }
    let mut at = 0;
    loop {
        for key in &rk[1..R - 1] {
            for state in &mut state {
                *state = _mm_aesenc_si128(*state, *key);
            }
        }
        for (state, buf) in state.iter().zip(bufs) {
            // SAFETY: `at` is a multiple of 16 below `len`, so `at + 16 <=
            // len`, inside the caller's `len` bytes.
            unsafe { store(buf.add(at), _mm_aesenclast_si128(*state, last)) };
        }
        at += AES_BLOCK_SIZE;
        if at == len {
            return;
        }
        for (state, buf) in state.iter_mut().zip(bufs) {
            // SAFETY: as for the store above, `at` having just been checked.
            let next = unsafe { load(buf.add(at)) };
            *state = _mm_aesenclast_si128(*state, _mm_xor_si128(fold, next));
        }
    }
}

/// The kernel that takes a full group of [`PIPELINE_WIDTH`] chains: the
/// contract of [`cbc_encrypt_lanes`].
pub(super) type EightLanes<const R: usize> =
    unsafe fn(&[__m128i; R], &[[u8; AES_BLOCK_SIZE]], [*mut u8; PIPELINE_WIDTH], usize);

/// Every buffer of `bufs` through the kernel its group fills:
/// [`PIPELINE_WIDTH`] chains at a time through `eight`, what is left over
/// through the `N`-lane kernel of its size.
///
/// # Safety
/// The CPU must support AES-NI and whatever else `eight` needs, and
/// `check_lanes(ivs, bufs)` must have passed.
pub(super) unsafe fn cbc_encrypt_groups<const R: usize>(
    rk: &[__m128i; R],
    ivs: &[[u8; AES_BLOCK_SIZE]],
    bufs: &mut [&mut [u8]],
    eight: EightLanes<R>,
) {
    let len = bufs.first().map_or(0, |b| b.len());
    for (ivs, bufs) in ivs
        .chunks(PIPELINE_WIDTH)
        .zip(bufs.chunks_mut(PIPELINE_WIDTH))
    {
        macro_rules! lanes {
            ($n:literal, $kernel:expr) => {{
                let ptrs: [*mut u8; $n] = core::array::from_fn(|i| bufs[i].as_mut_ptr());
                // SAFETY: the caller vouches for the CPU features; the
                // pointers come from `$n` distinct `&mut [u8]` of `len` bytes
                // each, `len` a multiple of 16 (`check_lanes`).
                unsafe { $kernel(rk, ivs, ptrs, len) }
            }};
        }
        match bufs.len() {
            1 => lanes!(1, cbc_encrypt_lanes::<R, 1>),
            2 => lanes!(2, cbc_encrypt_lanes::<R, 2>),
            3 => lanes!(3, cbc_encrypt_lanes::<R, 3>),
            4 => lanes!(4, cbc_encrypt_lanes::<R, 4>),
            5 => lanes!(5, cbc_encrypt_lanes::<R, 5>),
            6 => lanes!(6, cbc_encrypt_lanes::<R, 6>),
            7 => lanes!(7, cbc_encrypt_lanes::<R, 7>),
            8 => lanes!(8, eight),
            n => unreachable!("chunks({PIPELINE_WIDTH}) yielded {n} buffers"),
        }
    }
}

/// CBC-decrypt `N` consecutive blocks at `src` into `dst`, the first chained
/// to `chain`; returns the last ciphertext block, the next group's `chain`.
/// Every read of a ciphertext block comes before the first plaintext block
/// is stored, so `src == dst` is fine. (A block is read twice, as input and
/// as its successor's chain value, rather than held: sixteen live values
/// plus round keys do not fit the sixteen XMM registers.)
///
/// # Safety
/// `src` must be valid for reads and `dst` for writes of `16 * N` bytes, and
/// the two regions must be the same or not overlap.
#[inline]
#[target_feature(enable = "aes,sse2")]
unsafe fn cbc_decrypt_group<const R: usize, const N: usize>(
    rk: &[__m128i; R],
    chain: __m128i,
    src: *const u8,
    dst: *mut u8,
) -> __m128i {
    // SAFETY: only called with `i < N`, inside the caller's `16 * N` bytes.
    let block = |i: usize| unsafe { load(src.add(i * AES_BLOCK_SIZE)) };
    let mut state: [__m128i; N] = core::array::from_fn(|i| _mm_xor_si128(block(i), rk[0]));
    for key in &rk[1..R - 1] {
        for state in &mut state {
            *state = _mm_aesdec_si128(*state, *key);
        }
    }
    // `aesdeclast(s, k)` ends in `^ k`: fold the previous ciphertext block
    // into the key and the chaining XOR costs no instruction of its own.
    let plain: [__m128i; N] = core::array::from_fn(|i| {
        let previous = if i == 0 { chain } else { block(i - 1) };
        _mm_aesdeclast_si128(state[i], _mm_xor_si128(rk[R - 1], previous))
    });
    let next = block(N - 1);
    for (i, plain) in plain.into_iter().enumerate() {
        // SAFETY: `i < N`, inside the caller's `16 * N` bytes.
        unsafe { store(dst.add(i * AES_BLOCK_SIZE), plain) };
    }
    next
}

/// CBC-decrypt the `len` bytes at `src` into `dst` under `iv`:
/// [`DECRYPT_GROUP`] blocks at a time, then whatever is left as one partial
/// group (the 4 080-byte data field of a 4 KB block is 31 full groups and
/// seven blocks over).
///
/// # Safety
/// `src` must be valid for reads and `dst` for writes of `len` bytes, `len` a
/// multiple of 16, and the two regions must be the same or not overlap.
#[target_feature(enable = "aes,sse2")]
pub(super) unsafe fn cbc_decrypt_raw<const R: usize>(
    rk: &[__m128i; R],
    iv: __m128i,
    src: *const u8,
    dst: *mut u8,
    len: usize,
) {
    const FULL: usize = DECRYPT_GROUP * AES_BLOCK_SIZE;
    let mut chain = iv;
    let mut at = 0;
    while len - at >= FULL {
        // SAFETY: `at + FULL <= len`, inside the caller's regions, which
        // overlap at `at` exactly as they do at 0.
        chain =
            unsafe { cbc_decrypt_group::<R, DECRYPT_GROUP>(rk, chain, src.add(at), dst.add(at)) };
        at += FULL;
    }
    macro_rules! tail {
        ($n:literal) => {{
            // SAFETY: exactly `$n` blocks are left at `at`.
            unsafe { cbc_decrypt_group::<R, $n>(rk, chain, src.add(at), dst.add(at)) };
        }};
    }
    match (len - at) / AES_BLOCK_SIZE {
        0 => {}
        1 => tail!(1),
        2 => tail!(2),
        3 => tail!(3),
        4 => tail!(4),
        5 => tail!(5),
        6 => tail!(6),
        7 => tail!(7),
        n => unreachable!("{n} blocks left after the full groups"),
    }
}

/// Assert once that the CPU actually has AES-NI. `is_x86_feature_detected!`
/// caches its CPUID probe, so this is a single atomic load — and it makes
/// every `unsafe` call below locally justified: the type cannot exist on a
/// CPU without the instructions.
fn assert_detected() {
    assert!(
        std::arch::is_x86_feature_detected!("aes"),
        "AES-NI backend constructed on a CPU without AES-NI"
    );
}

/// Hardware-AES key schedule of `R` round keys a direction; see the module
/// docs. Shared by the `aesni` and `vaes` backends.
#[derive(Clone)]
pub(crate) struct AesNi<const R: usize> {
    enc: [__m128i; R],
    dec: [__m128i; R],
}

pub(crate) type Aes256Ni = AesNi<15>;

impl Aes256Ni {
    pub(crate) fn new(key: &[u8; 32]) -> Self {
        assert_detected();
        // SAFETY: `assert_detected` proved AES-NI support.
        let (enc, dec) = unsafe {
            let enc = expand256(key);
            (enc, invert_schedule(&enc))
        };
        Self { enc, dec }
    }
}

impl<const R: usize> AesNi<R> {
    /// The encryption round keys, for the wide kernels in [`super::vaes`].
    pub(super) fn encryption_keys(&self) -> &[__m128i; R] {
        &self.enc
    }

    /// The equivalent-inverse-cipher round keys, for [`super::vaes`].
    pub(super) fn decryption_keys(&self) -> &[__m128i; R] {
        &self.dec
    }
}

impl<const R: usize> BlockCipher for AesNi<R> {
    #[inline]
    fn encrypt_block(&self, block: &mut [u8; AES_BLOCK_SIZE]) {
        // SAFETY: construction proved AES-NI support.
        unsafe { encrypt1(&self.enc, block) }
    }

    #[inline]
    fn decrypt_block(&self, block: &mut [u8; AES_BLOCK_SIZE]) {
        // SAFETY: construction proved AES-NI support.
        unsafe { decrypt1(&self.dec, block) }
    }

    fn cbc_encrypt_many(&self, ivs: &[[u8; AES_BLOCK_SIZE]], bufs: &mut [&mut [u8]]) {
        check_lanes(ivs, bufs);
        // SAFETY: construction proved AES-NI support; `check_lanes` passed.
        unsafe { cbc_encrypt_groups(&self.enc, ivs, bufs, cbc_encrypt_lanes::<R, PIPELINE_WIDTH>) }
    }

    fn cbc_decrypt_in_place(&self, iv: &[u8; AES_BLOCK_SIZE], data: &mut [u8]) {
        check_blocks(data.len());
        let (at, len) = (data.as_mut_ptr(), data.len());
        // SAFETY: construction proved AES-NI support; source and destination
        // are the same `len` bytes, `len` a multiple of 16.
        unsafe { cbc_decrypt_raw(&self.dec, load_block(iv), at, at, len) }
    }

    fn cbc_decrypt(&self, iv: &[u8; AES_BLOCK_SIZE], src: &[u8], dst: &mut [u8]) {
        check_src_dst(src, dst);
        // SAFETY: construction proved AES-NI support; `src` and `dst` are
        // distinct borrows of equal length, a multiple of 16.
        unsafe {
            cbc_decrypt_raw(
                &self.dec,
                load_block(iv),
                src.as_ptr(),
                dst.as_mut_ptr(),
                src.len(),
            )
        }
    }
}

impl<const R: usize> Drop for AesNi<R> {
    fn drop(&mut self) {
        // Clear expanded key material; `black_box` keeps the writes from
        // being elided as dead stores.
        // SAFETY: `_mm_setzero_si128` only needs SSE2, which is baseline on
        // every x86-64 CPU this module compiles for.
        unsafe {
            self.enc = [_mm_setzero_si128(); R];
            self.dec = [_mm_setzero_si128(); R];
        }
        core::hint::black_box(&self.enc);
        core::hint::black_box(&self.dec);
    }
}

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
        // C.3 AES-256, both directions.
        let plaintext: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
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

    /// The trait's default loops over this cipher's own single-block
    /// methods: what every kernel must reproduce byte for byte.
    struct SingleBlocks<'a>(&'a Aes256Ni);

    impl BlockCipher for SingleBlocks<'_> {
        fn encrypt_block(&self, block: &mut [u8; AES_BLOCK_SIZE]) {
            self.0.encrypt_block(block);
        }

        fn decrypt_block(&self, block: &mut [u8; AES_BLOCK_SIZE]) {
            self.0.decrypt_block(block);
        }
    }

    #[test]
    fn wide_paths_match_single_block_paths() {
        if !available() {
            return;
        }
        let cipher = Aes256Ni::new(&[0x42u8; 32]);
        let single = SingleBlocks(&cipher);
        // Every lane count — each `N`-lane kernel, a full group and one over
        // — over 19 blocks: two full decrypt groups plus a 3-block partial
        // one.
        for lanes in 1..=9usize {
            let ivs: Vec<[u8; 16]> = (0..lanes).map(|i| [0x30 + i as u8; 16]).collect();
            let plain: Vec<Vec<u8>> = (0..lanes)
                .map(|i| (0..19 * 16).map(|j| ((i * 19 + j) % 251) as u8).collect())
                .collect();
            let seal = |cipher: &dyn BlockCipher| {
                let mut sealed = plain.clone();
                let mut bufs: Vec<&mut [u8]> = sealed.iter_mut().map(Vec::as_mut_slice).collect();
                cipher.cbc_encrypt_many(&ivs, &mut bufs);
                sealed
            };
            let sealed = seal(&cipher);
            assert_eq!(sealed, seal(&single), "{lanes} lanes");

            for ((iv, sealed), plain) in ivs.iter().zip(&sealed).zip(&plain) {
                let mut by_blocks = sealed.clone();
                single.cbc_decrypt_in_place(iv, &mut by_blocks);
                assert_eq!(&by_blocks, plain, "the oracle itself");
                let mut into = vec![0xEEu8; sealed.len()];
                cipher.cbc_decrypt(iv, sealed, &mut into);
                assert_eq!(&into, plain);
                let mut in_place = sealed.clone();
                cipher.cbc_decrypt_in_place(iv, &mut in_place);
                assert_eq!(&in_place, plain);
            }
        }
    }
}
