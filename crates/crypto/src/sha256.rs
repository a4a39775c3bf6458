//! FIPS 180-2 SHA-256, with runtime-dispatched compression backends.
//!
//! Two compression paths produce identical digests:
//!
//! * scalar — the portable FIPS 180-2 implementation; runs everywhere.
//! * SHA-NI — hardware compression via `sha256rnds2`/`sha256msg1`/`sha256msg2`
//!   (two rounds per instruction).
//!
//! Each [`Sha256`] instance snapshots the process-wide selection (see
//! [`crate::backend`]) at construction, so a hasher's behaviour is fixed for
//! its lifetime. [`HmacSha256`](crate::HmacSha256)'s precomputed ipad/opad
//! states inherit whichever path was active when the MAC key was installed.

use crate::backend::{self, Sha256Backend};

/// Size of a SHA-256 digest in bytes.
pub const SHA256_OUTPUT_SIZE: usize = 32;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Independent SHA-256 streams the multi-buffer callers
/// ([`HmacSha256::mac_many`](crate::HmacSha256::mac_many),
/// [`HashDrbg::fill_bytes`](crate::HashDrbg::fill_bytes)) walk in lockstep.
///
/// One SHA-NI stream is bound by the latency of its `sha256rnds2` chain, not
/// by the unit's throughput, so a second independent stream is nearly free.
/// Chosen by measurement (the `sha256_xN` and `hmac_sha256_xN` rows of
/// `crypto_baseline`): on the Xeon this was sized on two streams already use
/// the unit up and three or four run no slower, although only two fit the
/// sixteen xmm registers without spilling message words. Four takes a
/// delta-parity write plan's three MACs in one pass, divides a 4 KB DRBG fill
/// evenly, and leaves room on cores with more SHA throughput.
pub const SHA_LANES: usize = 4;

/// Run `nblocks` 64-byte blocks of each of `N` independent streams through
/// the compression function on `backend`: stream `i` advances `states[i]`
/// over the first `64 * nblocks` bytes of `data[i]`.
///
/// This is the single funnel every path in the crate goes through —
/// [`Sha256::update`] and finalisation (one stream),
/// [`HmacSha256`](crate::HmacSha256)'s one- and many-message MACs and
/// [`HashDrbg`](crate::HashDrbg)'s output blocks. On SHA-NI the streams move
/// in lockstep with every stream's state held in registers for the whole
/// run; the scalar path takes the streams one after another.
///
/// # Panics
/// If a stream holds fewer than `64 * nblocks` bytes.
pub(crate) fn compress_many<const N: usize>(
    backend: Sha256Backend,
    states: &mut [[u32; 8]; N],
    data: [&[u8]; N],
    nblocks: usize,
) {
    if nblocks == 0 {
        return;
    }
    let data = data.map(|stream| &stream[..64 * nblocks]);
    match backend {
        #[cfg(target_arch = "x86_64")]
        Sha256Backend::ShaNi => x86::compress_shani(states, data),
        // Off x86-64 SHA-NI never reports available, so selection cannot
        // produce it. Scalar output is identical anyway.
        _ => {
            for (state, stream) in states.iter_mut().zip(data) {
                for block in stream.as_chunks().0 {
                    compress_scalar(state, block);
                }
            }
        }
    }
}

/// One 64-byte block of one stream: the `N = 1`, one-block case of
/// [`compress_many`].
pub(crate) fn compress_block(backend: Sha256Backend, state: &mut [u32; 8], block: &[u8; 64]) {
    compress_many(backend, core::array::from_mut(state), [block], 1);
}

fn compress_scalar(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// The x86-64 SHA-NI compression path. `unsafe` here is confined to
/// `core::arch` intrinsics reached only once [`Sha256Backend::ShaNi`]'s
/// [`Sha256Backend::is_available`] detection passed, plus unaligned 16-byte
/// loads/stores over arrays whose bounds are statically known.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use super::K;
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_setzero_si128, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
        _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// `pshufb` mask flipping each 32-bit lane from big-endian message bytes
    /// to native words.
    #[target_feature(enable = "sse2")]
    fn flip_mask() -> __m128i {
        _mm_set_epi64x(
            0x0c0d_0e0f_0809_0a0bu64 as i64,
            0x0405_0607_0001_0203u64 as i64,
        )
    }

    /// One stream of [`compress_lanes`]: its state in the `ABEF`/`CDGH`
    /// packing `sha256rnds2` expects, the sixteen message words in flight and
    /// the current four `w + K` sums.
    #[derive(Clone, Copy)]
    struct Lane {
        abef: __m128i,
        cdgh: __m128i,
        w: [__m128i; 4],
        wk: __m128i,
    }

    /// `nblocks` blocks of each of `N` streams through the SHA extensions, in
    /// lockstep. A stream's state stays in its two registers from the first
    /// block to the last; every step retires four rounds of every stream
    /// (two per `sha256rnds2`) while `sha256msg1`/`msg2` expand the message
    /// groups in flight. One stream alone waits out the latency of each
    /// `sha256rnds2` before it can issue the next; with several, another
    /// stream's round fills that wait.
    ///
    /// # Safety
    /// Besides the target features, every stream of `data` must hold at
    /// least `64 * nblocks` readable bytes.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    unsafe fn compress_lanes<const N: usize>(
        states: &mut [[u32; 8]; N],
        data: [&[u8]; N],
        nblocks: usize,
    ) {
        let flip = flip_mask();
        let zero = _mm_setzero_si128();
        let mut lanes = [Lane {
            abef: zero,
            cdgh: zero,
            w: [zero; 4],
            wk: zero,
        }; N];
        for (lane, state) in lanes.iter_mut().zip(states.iter()) {
            // Repack (a,b,c,d)(e,f,g,h) into ABEF/CDGH.
            // SAFETY: `state` holds 8 readable words.
            let (lo, hi) = unsafe {
                (
                    _mm_loadu_si128(state.as_ptr().cast()),
                    _mm_loadu_si128(state.as_ptr().add(4).cast()),
                )
            };
            let tmp = _mm_shuffle_epi32(lo, 0xB1); // CDAB
            let st1 = _mm_shuffle_epi32(hi, 0x1B); // EFGH
            lane.abef = _mm_alignr_epi8(tmp, st1, 8);
            lane.cdgh = _mm_blend_epi16(st1, tmp, 0xF0);
        }

        // Rounds 4j..4j+4 of every stream on message group `$cur`, which is
        // then (while there are rounds left to feed) replaced by the group
        // sixteen words on: msg2(msg1(w_j, w_{j+1}) + alignr(w_{j+3},
        // w_{j+2}, 4), w_{j+3}) — the full FIPS 180-2 recurrence.
        macro_rules! four_rounds {
            ($j:expr, $cur:literal, $n1:literal, $n2:literal, $n3:literal) => {{
                // SAFETY: `K` holds 64 words; 4 * j + 4 ≤ 64.
                let k = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * $j).cast()) };
                for lane in lanes.iter_mut() {
                    lane.wk = _mm_add_epi32(lane.w[$cur], k);
                }
                for lane in lanes.iter_mut() {
                    lane.cdgh = _mm_sha256rnds2_epu32(lane.cdgh, lane.abef, lane.wk);
                }
                for lane in lanes.iter_mut() {
                    let wk_hi = _mm_shuffle_epi32(lane.wk, 0x0E);
                    lane.abef = _mm_sha256rnds2_epu32(lane.abef, lane.cdgh, wk_hi);
                }
                if $j < 12 {
                    for lane in lanes.iter_mut() {
                        let t = _mm_alignr_epi8(lane.w[$n3], lane.w[$n2], 4);
                        lane.w[$cur] = _mm_sha256msg2_epu32(
                            _mm_add_epi32(_mm_sha256msg1_epu32(lane.w[$cur], lane.w[$n1]), t),
                            lane.w[$n3],
                        );
                    }
                }
            }};
        }

        for block in 0..nblocks {
            for (lane, stream) in lanes.iter_mut().zip(&data) {
                for (i, group) in lane.w.iter_mut().enumerate() {
                    // SAFETY: the caller guarantees `stream` holds
                    // 64 * nblocks bytes, and 64 * block + 16 * i + 16 is at
                    // most 64 * (block + 1).
                    let m =
                        unsafe { _mm_loadu_si128(stream.as_ptr().add(64 * block + 16 * i).cast()) };
                    *group = _mm_shuffle_epi8(m, flip);
                }
            }
            let saved = lanes;
            for quad in 0..4 {
                four_rounds!(4 * quad, 0, 1, 2, 3);
                four_rounds!(4 * quad + 1, 1, 2, 3, 0);
                four_rounds!(4 * quad + 2, 2, 3, 0, 1);
                four_rounds!(4 * quad + 3, 3, 0, 1, 2);
            }
            for (lane, saved) in lanes.iter_mut().zip(&saved) {
                lane.abef = _mm_add_epi32(lane.abef, saved.abef);
                lane.cdgh = _mm_add_epi32(lane.cdgh, saved.cdgh);
            }
        }

        for (lane, state) in lanes.iter().zip(states.iter_mut()) {
            // Unpack ABEF/CDGH back to (a..d)(e..h).
            let tmp = _mm_shuffle_epi32(lane.abef, 0x1B); // FEBA
            let st1 = _mm_shuffle_epi32(lane.cdgh, 0xB1); // DCHG
            let out_lo = _mm_blend_epi16(tmp, st1, 0xF0); // DCBA
            let out_hi = _mm_alignr_epi8(st1, tmp, 8); // HGFE

            // SAFETY: `state` holds 8 writable words.
            unsafe {
                _mm_storeu_si128(state.as_mut_ptr().cast(), out_lo);
                _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), out_hi);
            }
        }
    }

    /// Every stream of `data` (all of one length, a whole number of blocks)
    /// through [`compress_lanes`].
    pub(super) fn compress_shani<const N: usize>(states: &mut [[u32; 8]; N], data: [&[u8]; N]) {
        let len = data.first().map_or(0, |stream| stream.len());
        assert!(
            len.is_multiple_of(64) && data.iter().all(|stream| stream.len() == len),
            "streams of one whole-block length"
        );
        // SAFETY: this path is only selected when SHA-NI detection passed
        // (`Sha256Backend::ShaNi.is_available()` checks every feature
        // `compress_lanes` enables), and every stream holds the `len` bytes
        // the call walks.
        unsafe { compress_lanes(states, data, len / 64) }
    }
}

/// Incremental SHA-256 hasher.
///
/// ```
/// use stegfs_crypto::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(digest[0], 0xba);
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
    backend: Sha256Backend,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher on the active backend (see [`crate::backend`]).
    pub fn new() -> Self {
        Self::with_backend(backend::sha256_active())
    }

    /// Create a hasher on an explicitly chosen compression path. Used by the
    /// cross-backend equivalence suites; production code should use
    /// [`Self::new`] and the process-wide selection.
    ///
    /// # Panics
    /// Panics if `backend` is not available on this CPU.
    pub fn with_backend(backend: Sha256Backend) -> Self {
        assert!(
            backend.is_available(),
            "SHA-256 backend {:?} is not available on this CPU",
            backend
        );
        Self {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
            backend,
        }
    }

    /// Which compression path this hasher snapshotted at construction.
    pub fn backend(&self) -> Sha256Backend {
        self.backend
    }

    /// The current chaining state. Only meaningful at a 64-byte boundary
    /// (`buffer_len == 0`); HMAC starts both its hashes from exactly that
    /// after absorbing the one-block ipad/opad.
    pub(crate) fn chaining_state(&self) -> [u32; 8] {
        debug_assert_eq!(self.buffer_len, 0, "state read mid-block");
        self.state
    }

    /// Absorb `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffer_len > 0 {
            let need = 64 - self.buffer_len;
            let take = need.min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len == 64 {
                self.compress_buffer();
            }
        }
        // Every whole block in one call, straight from the caller's bytes.
        let whole = input.len() / 64;
        compress_many(
            self.backend,
            core::array::from_mut(&mut self.state),
            [input],
            whole,
        );
        input = &input[64 * whole..];
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffer_len = input.len();
        }
    }

    /// Finish the computation and return the 32-byte digest.
    pub fn finalize(mut self) -> [u8; SHA256_OUTPUT_SIZE] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Append 0x80 then zero padding then the 64-bit length.
        self.update_padding_byte(0x80);
        while self.buffer_len != 56 {
            self.update_padding_byte(0x00);
        }
        let len_bytes = bit_len.to_be_bytes();
        self.buffer[56..64].copy_from_slice(&len_bytes);
        self.compress_buffer();
        digest_bytes(&self.state)
    }

    fn update_padding_byte(&mut self, byte: u8) {
        self.buffer[self.buffer_len] = byte;
        self.buffer_len += 1;
        if self.buffer_len == 64 {
            self.compress_buffer();
        }
    }

    /// Compress the (full) buffer and empty it.
    fn compress_buffer(&mut self) {
        compress_block(self.backend, &mut self.state, &self.buffer);
        self.buffer_len = 0;
    }
}

/// A chaining state as the big-endian digest bytes.
pub(crate) fn digest_bytes(state: &[u32; 8]) -> [u8; SHA256_OUTPUT_SIZE] {
    let mut out = [0u8; SHA256_OUTPUT_SIZE];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Finish `N` lockstep hashes: `states` have absorbed `prefix_len` bytes (a
/// whole number of blocks) each; absorb the equal-length `msgs` — the whole
/// blocks straight from the callers' bytes, then the padded tails (one block,
/// or two when fewer than nine bytes are left in the last one) — and return
/// the digests.
pub(crate) fn finish_many<const N: usize>(
    backend: Sha256Backend,
    mut states: [[u32; 8]; N],
    msgs: [&[u8]; N],
    prefix_len: usize,
) -> [[u8; SHA256_OUTPUT_SIZE]; N] {
    let len = msgs[0].len();
    debug_assert!(prefix_len.is_multiple_of(64) && msgs.iter().all(|m| m.len() == len));
    let whole = len / 64;
    compress_many(backend, &mut states, msgs, whole);

    let rest = len - 64 * whole;
    let tail_len = if rest + 9 <= 64 { 64 } else { 128 };
    let bit_len = ((prefix_len + len) as u64).wrapping_mul(8);
    let mut tails = [[0u8; 128]; N];
    for (tail, msg) in tails.iter_mut().zip(msgs) {
        tail[..rest].copy_from_slice(&msg[64 * whole..]);
        tail[rest] = 0x80;
        tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
    }
    let tails = core::array::from_fn(|lane| &tails[lane][..]);
    compress_many(backend, &mut states, tails, tail_len / 64);
    states.map(|state| digest_bytes(&state))
}

/// A hash of whole messages that can take `N` equal-length ones in lockstep:
/// plain SHA-256, or HMAC under one key.
pub(crate) trait LaneHash {
    /// The hash of each of `msgs`, all of one length.
    fn lanes<const N: usize>(&self, msgs: [&[u8]; N]) -> [[u8; SHA256_OUTPUT_SIZE]; N];
}

/// `hash` of every message of `msgs`, written to the matching entry of `out`:
/// messages are taken [`SHA_LANES`] at a time and a group of one length goes
/// through `hash` together; a group of mixed lengths falls back to one
/// message at a time, which gives the same values.
///
/// # Panics
/// If `out` is not as long as `msgs`.
pub(crate) fn hash_many<H: LaneHash>(
    hash: &H,
    msgs: &[&[u8]],
    out: &mut [[u8; SHA256_OUTPUT_SIZE]],
) {
    const _: () = assert!(SHA_LANES == 4, "one arm per group size below");
    assert_eq!(msgs.len(), out.len(), "one digest per message");
    for (group, digests) in msgs.chunks(SHA_LANES).zip(out.chunks_mut(SHA_LANES)) {
        let one_length = group.iter().all(|m| m.len() == group[0].len());
        match *group {
            [a, b] if one_length => digests.copy_from_slice(&hash.lanes([a, b])),
            [a, b, c] if one_length => digests.copy_from_slice(&hash.lanes([a, b, c])),
            [a, b, c, d] if one_length => digests.copy_from_slice(&hash.lanes([a, b, c, d])),
            _ => {
                for (msg, digest) in group.iter().zip(digests) {
                    [*digest] = hash.lanes([msg]);
                }
            }
        }
    }
}

/// Plain SHA-256 on one backend, as a [`LaneHash`].
struct Plain(Sha256Backend);

impl LaneHash for Plain {
    fn lanes<const N: usize>(&self, msgs: [&[u8]; N]) -> [[u8; SHA256_OUTPUT_SIZE]; N] {
        finish_many(self.0, [H0; N], msgs, 0)
    }
}

/// One-shot SHA-256 of `data`: the one-message case of [`sha256_many`].
pub fn sha256(data: &[u8]) -> [u8; SHA256_OUTPUT_SIZE] {
    Plain(backend::sha256_active()).lanes([data])[0]
}

/// [`sha256`] of every message of `msgs`, written to the matching entry of
/// `out`. Messages of one length are hashed [`SHA_LANES`] at a time in
/// lockstep, which on SHA-NI costs little more than one of them alone.
///
/// # Panics
/// If `out` is not as long as `msgs`.
pub fn sha256_many(msgs: &[&[u8]], out: &mut [[u8; SHA256_OUTPUT_SIZE]]) {
    hash_many(&Plain(backend::sha256_active()), msgs, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(digest: &[u8]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn available_backends() -> Vec<Sha256Backend> {
        [Sha256Backend::Scalar, Sha256Backend::ShaNi]
            .into_iter()
            .filter(|b| b.is_available())
            .collect()
    }

    #[test]
    fn empty_string() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_abc_on_every_backend() {
        for b in available_backends() {
            let mut h = Sha256::with_backend(b);
            h.update(b"abc");
            assert_eq!(
                hex(&h.finalize()),
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
                "backend {}",
                b.name()
            );
        }
    }

    #[test]
    fn fips_vector_two_blocks() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let oneshot = sha256(&data);
        let mut h = Sha256::new();
        for chunk in data.chunks(37) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), oneshot);
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths around the 55/56/64-byte padding boundaries must all work.
        for len in [0usize, 1, 54, 55, 56, 57, 63, 64, 65, 127, 128, 129] {
            let data = vec![0xabu8; len];
            let d1 = sha256(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(core::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d1, "length {len}");
        }
    }

    /// The digests of `N` equal-length messages hashed as `N` lockstep
    /// streams: padding done here, every block through one `compress_many`.
    fn digest_lanes<const N: usize>(
        backend: Sha256Backend,
        msgs: [&[u8]; N],
    ) -> [[u8; SHA256_OUTPUT_SIZE]; N] {
        let padded = msgs.map(|msg| {
            let mut p = msg.to_vec();
            p.push(0x80);
            p.resize((msg.len() + 9).div_ceil(64) * 64 - 8, 0);
            p.extend_from_slice(&(msg.len() as u64 * 8).to_be_bytes());
            p
        });
        let mut states = [H0; N];
        compress_many(
            backend,
            &mut states,
            core::array::from_fn(|lane| padded[lane].as_slice()),
            padded[0].len() / 64,
        );
        states.map(|state| digest_bytes(&state))
    }

    /// Run `$check::<N>(args…)` at every lane width up to [`SHA_LANES`].
    macro_rules! at_every_width {
        ($check:ident($($arg:expr),*)) => {{
            const _: () = assert!(SHA_LANES == 4, "cover the new widths");
            $check::<1>($($arg),*);
            $check::<2>($($arg),*);
            $check::<3>($($arg),*);
            $check::<4>($($arg),*);
        }};
    }

    #[test]
    fn fips_vectors_through_every_lane_width_on_every_backend() {
        fn check<const N: usize>(backend: Sha256Backend, msg: &[u8], expected: &str) {
            for (lane, digest) in digest_lanes(backend, [msg; N]).iter().enumerate() {
                assert_eq!(
                    hex(digest),
                    expected,
                    "{} bytes, lane {lane} of {N} on {}",
                    msg.len(),
                    backend.name()
                );
            }
        }
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 4] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        for backend in available_backends() {
            for (msg, expected) in vectors {
                at_every_width!(check(backend, msg, expected));
            }
        }
    }

    #[test]
    fn lockstep_streams_do_not_mix() {
        // Every lane its own bytes: each digest is the one-stream digest of
        // that lane's message, at lengths of zero, one, two and many blocks.
        fn check<const N: usize>(backend: Sha256Backend, len: usize) {
            let msgs: [Vec<u8>; N] = core::array::from_fn(|lane| {
                (0..len).map(|i| (i * 31 + lane * 101 + 7) as u8).collect()
            });
            let digests = digest_lanes::<N>(backend, core::array::from_fn(|lane| &msgs[lane][..]));
            for (lane, msg) in msgs.iter().enumerate() {
                let mut h = Sha256::with_backend(Sha256Backend::Scalar);
                h.update(msg);
                assert_eq!(
                    digests[lane],
                    h.finalize(),
                    "{len} bytes, lane {lane} of {N} on {}",
                    backend.name()
                );
            }
        }
        for backend in available_backends() {
            for len in [0usize, 1, 55, 56, 64, 119, 120, 1000, 4080] {
                at_every_width!(check(backend, len));
            }
        }
    }

    #[test]
    fn compress_many_walks_exactly_the_blocks_asked_for() {
        let data: Vec<u8> = (0..256u32).map(|i| (i * 7) as u8).collect();
        for backend in available_backends() {
            // No blocks: the states stay put.
            let mut none = [H0; 2];
            compress_many(backend, &mut none, [&data, &data[64..]], 0);
            assert_eq!(none, [H0; 2]);
            // Two of the four blocks a stream holds: the rest is not read.
            let mut two = [H0; 2];
            compress_many(backend, &mut two, [&data, &data[64..]], 2);
            let mut steps = [H0; 2];
            for block in 0..2 {
                compress_many(
                    backend,
                    &mut steps,
                    [&data[64 * block..], &data[64 * (block + 1)..]],
                    1,
                );
            }
            assert_eq!(two, steps, "{}", backend.name());
            // `compress_block` is the one-stream, one-block case.
            let mut one = H0;
            compress_block(backend, &mut one, data[..64].try_into().unwrap());
            let mut many = [H0];
            compress_many(backend, &mut many, [&data], 1);
            assert_eq!([one], many, "{}", backend.name());
        }
    }

    #[test]
    #[should_panic]
    fn compress_many_refuses_a_short_stream() {
        let data = [0u8; 128];
        compress_many(Sha256Backend::Scalar, &mut [H0; 2], [&data, &data[1..]], 2);
    }

    #[test]
    fn backends_agree_on_many_lengths() {
        let backends = available_backends();
        let data: Vec<u8> = (0..1024u32).map(|i| (i * 31 % 257) as u8).collect();
        for len in [0usize, 1, 55, 56, 63, 64, 65, 128, 500, 1024] {
            let digests: Vec<_> = backends
                .iter()
                .map(|&b| {
                    let mut h = Sha256::with_backend(b);
                    h.update(&data[..len]);
                    h.finalize()
                })
                .collect();
            for (d, b) in digests.iter().zip(&backends) {
                assert_eq!(d, &digests[0], "backend {} diverged at {len}", b.name());
            }
        }
    }
}
