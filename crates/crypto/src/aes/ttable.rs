//! The portable fused-T-table AES backend.
//!
//! Each of the four 256×`u32` encryption tables combines SubBytes, ShiftRows
//! and MixColumns into a single lookup (and the four decryption tables fuse
//! the inverse transformations), so a round is 16 table lookups and a handful
//! of XORs instead of dozens of byte operations. All tables are computed at
//! compile time, and the round keys live in fixed-size stack arrays, so
//! constructing a cipher performs no heap allocation.
//!
//! This is the fallback behind the runtime-dispatched [`crate::Aes256`]
//! wrapper: it compiles and runs on every architecture, while hosts with
//! AES-NI get the [`super::aesni`] backend instead.

use super::{
    BlockCipher, AES_BLOCK_SIZE, INV_SBOX, MUL11, MUL13, MUL14, MUL2, MUL3, MUL9, RCON, SBOX,
};
use crate::CryptoError;

/// Fused encryption table: `TE0[x]` is the MixColumns image of the column
/// `(S[x], 0, 0, 0)`, i.e. the big-endian word `(2·S[x], S[x], S[x], 3·S[x])`.
/// `TE1..TE3` are byte rotations of `TE0` covering the other three rows, which
/// is exactly where ShiftRows lands each state byte.
const TE0: [u32; 256] = build_te0();
const TE1: [u32; 256] = rotate_table(&TE0, 8);
const TE2: [u32; 256] = rotate_table(&TE0, 16);
const TE3: [u32; 256] = rotate_table(&TE0, 24);

/// Fused decryption table: `TD0[x]` is the InvMixColumns image of the column
/// `(Si[x], 0, 0, 0)` — the word `(14·Si[x], 9·Si[x], 13·Si[x], 11·Si[x])`.
const TD0: [u32; 256] = build_td0();
const TD1: [u32; 256] = rotate_table(&TD0, 8);
const TD2: [u32; 256] = rotate_table(&TD0, 16);
const TD3: [u32; 256] = rotate_table(&TD0, 24);

const fn build_te0() -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        t[i] = ((MUL2[s as usize] as u32) << 24)
            | ((s as u32) << 16)
            | ((s as u32) << 8)
            | (MUL3[s as usize] as u32);
        i += 1;
    }
    t
}

const fn build_td0() -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = INV_SBOX[i] as usize;
        t[i] = ((MUL14[s] as u32) << 24)
            | ((MUL9[s] as u32) << 16)
            | ((MUL13[s] as u32) << 8)
            | (MUL11[s] as u32);
        i += 1;
    }
    t
}

const fn rotate_table(base: &[u32; 256], bits: u32) -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        t[i] = base[i].rotate_right(bits);
        i += 1;
    }
    t
}

#[inline]
fn sub_word(w: u32) -> u32 {
    ((SBOX[(w >> 24) as usize] as u32) << 24)
        | ((SBOX[((w >> 16) & 0xff) as usize] as u32) << 16)
        | ((SBOX[((w >> 8) & 0xff) as usize] as u32) << 8)
        | (SBOX[(w & 0xff) as usize] as u32)
}

/// InvMixColumns of one big-endian column word; applied to the middle rounds
/// of the decryption schedule so decryption can use the fused `TD` tables
/// (the "equivalent inverse cipher" of FIPS-197 Section 5.3.5).
#[inline]
fn inv_mix_word(w: u32) -> u32 {
    let [a0, a1, a2, a3] = w.to_be_bytes();
    let (a0, a1, a2, a3) = (a0 as usize, a1 as usize, a2 as usize, a3 as usize);
    u32::from_be_bytes([
        MUL14[a0] ^ MUL11[a1] ^ MUL13[a2] ^ MUL9[a3],
        MUL9[a0] ^ MUL14[a1] ^ MUL11[a2] ^ MUL13[a3],
        MUL13[a0] ^ MUL9[a1] ^ MUL14[a2] ^ MUL11[a3],
        MUL11[a0] ^ MUL13[a1] ^ MUL9[a2] ^ MUL14[a3],
    ])
}

/// Key length in 32-bit words: an 8-word (256-bit) key.
const KEY_WORDS: usize = 8;
/// Rounds of AES-256.
const ROUNDS: usize = 14;
/// Round-key words a direction: four for each of the `ROUNDS + 1` keys.
const SCHEDULE_WORDS: usize = 4 * (ROUNDS + 1);

/// Expanded round keys for both directions, in fixed-size stack arrays.
/// Construction never touches the heap.
#[derive(Clone)]
struct Schedule {
    enc: [u32; SCHEDULE_WORDS],
    dec: [u32; SCHEDULE_WORDS],
}

impl Schedule {
    /// FIPS-197 key expansion into both directions' round keys. The key
    /// length is checked once here with a typed error; nothing downstream can
    /// panic on a short slice.
    fn expand(key: &[u8]) -> Result<Self, CryptoError> {
        if key.len() != KEY_WORDS * 4 {
            return Err(CryptoError::BadKeyLength {
                expected: KEY_WORDS * 4,
                got: key.len(),
            });
        }
        let mut enc = [0u32; SCHEDULE_WORDS];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            enc[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in KEY_WORDS..SCHEDULE_WORDS {
            let mut temp = enc[i - 1];
            if i % KEY_WORDS == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ ((RCON[i / KEY_WORDS - 1] as u32) << 24);
            } else if i % KEY_WORDS == 4 {
                // The extra SubWord step of keys longer than six words.
                temp = sub_word(temp);
            }
            enc[i] = enc[i - KEY_WORDS] ^ temp;
        }

        // Decryption schedule: round keys in reverse round order, with
        // InvMixColumns folded into every middle round.
        let mut dec = [0u32; SCHEDULE_WORDS];
        for r in 0..=ROUNDS {
            for c in 0..4 {
                dec[4 * r + c] = enc[4 * (ROUNDS - r) + c];
            }
        }
        for w in dec[4..4 * ROUNDS].iter_mut() {
            *w = inv_mix_word(*w);
        }
        Ok(Self { enc, dec })
    }
}

impl Drop for Schedule {
    fn drop(&mut self) {
        // Explicit clearing of key material on drop. `black_box` keeps the
        // optimiser from eliding the writes as dead stores.
        self.enc.fill(0);
        self.dec.fill(0);
        core::hint::black_box(&self.enc);
        core::hint::black_box(&self.dec);
    }
}

/// One full encryption through the schedule. The round count is a
/// compile-time constant, so the loop unrolls and every round-key access is
/// bounds-check free.
#[inline]
fn encrypt_words(block: &mut [u8; AES_BLOCK_SIZE], rk: &[u32; SCHEDULE_WORDS]) {
    let mut s0 = u32::from_be_bytes([block[0], block[1], block[2], block[3]]) ^ rk[0];
    let mut s1 = u32::from_be_bytes([block[4], block[5], block[6], block[7]]) ^ rk[1];
    let mut s2 = u32::from_be_bytes([block[8], block[9], block[10], block[11]]) ^ rk[2];
    let mut s3 = u32::from_be_bytes([block[12], block[13], block[14], block[15]]) ^ rk[3];

    let mut k = 4;
    for _ in 1..ROUNDS {
        let t0 = TE0[(s0 >> 24) as usize]
            ^ TE1[((s1 >> 16) & 0xff) as usize]
            ^ TE2[((s2 >> 8) & 0xff) as usize]
            ^ TE3[(s3 & 0xff) as usize]
            ^ rk[k];
        let t1 = TE0[(s1 >> 24) as usize]
            ^ TE1[((s2 >> 16) & 0xff) as usize]
            ^ TE2[((s3 >> 8) & 0xff) as usize]
            ^ TE3[(s0 & 0xff) as usize]
            ^ rk[k + 1];
        let t2 = TE0[(s2 >> 24) as usize]
            ^ TE1[((s3 >> 16) & 0xff) as usize]
            ^ TE2[((s0 >> 8) & 0xff) as usize]
            ^ TE3[(s1 & 0xff) as usize]
            ^ rk[k + 2];
        let t3 = TE0[(s3 >> 24) as usize]
            ^ TE1[((s0 >> 16) & 0xff) as usize]
            ^ TE2[((s1 >> 8) & 0xff) as usize]
            ^ TE3[(s2 & 0xff) as usize]
            ^ rk[k + 3];
        s0 = t0;
        s1 = t1;
        s2 = t2;
        s3 = t3;
        k += 4;
    }

    // Final round: SubBytes ∘ ShiftRows only (no MixColumns).
    let t0 = last_round_word(s0, s1, s2, s3, &SBOX) ^ rk[k];
    let t1 = last_round_word(s1, s2, s3, s0, &SBOX) ^ rk[k + 1];
    let t2 = last_round_word(s2, s3, s0, s1, &SBOX) ^ rk[k + 2];
    let t3 = last_round_word(s3, s0, s1, s2, &SBOX) ^ rk[k + 3];

    block[0..4].copy_from_slice(&t0.to_be_bytes());
    block[4..8].copy_from_slice(&t1.to_be_bytes());
    block[8..12].copy_from_slice(&t2.to_be_bytes());
    block[12..16].copy_from_slice(&t3.to_be_bytes());
}

#[inline]
fn decrypt_words(block: &mut [u8; AES_BLOCK_SIZE], rk: &[u32; SCHEDULE_WORDS]) {
    let mut s0 = u32::from_be_bytes([block[0], block[1], block[2], block[3]]) ^ rk[0];
    let mut s1 = u32::from_be_bytes([block[4], block[5], block[6], block[7]]) ^ rk[1];
    let mut s2 = u32::from_be_bytes([block[8], block[9], block[10], block[11]]) ^ rk[2];
    let mut s3 = u32::from_be_bytes([block[12], block[13], block[14], block[15]]) ^ rk[3];

    let mut k = 4;
    for _ in 1..ROUNDS {
        let t0 = TD0[(s0 >> 24) as usize]
            ^ TD1[((s3 >> 16) & 0xff) as usize]
            ^ TD2[((s2 >> 8) & 0xff) as usize]
            ^ TD3[(s1 & 0xff) as usize]
            ^ rk[k];
        let t1 = TD0[(s1 >> 24) as usize]
            ^ TD1[((s0 >> 16) & 0xff) as usize]
            ^ TD2[((s3 >> 8) & 0xff) as usize]
            ^ TD3[(s2 & 0xff) as usize]
            ^ rk[k + 1];
        let t2 = TD0[(s2 >> 24) as usize]
            ^ TD1[((s1 >> 16) & 0xff) as usize]
            ^ TD2[((s0 >> 8) & 0xff) as usize]
            ^ TD3[(s3 & 0xff) as usize]
            ^ rk[k + 2];
        let t3 = TD0[(s3 >> 24) as usize]
            ^ TD1[((s2 >> 16) & 0xff) as usize]
            ^ TD2[((s1 >> 8) & 0xff) as usize]
            ^ TD3[(s0 & 0xff) as usize]
            ^ rk[k + 3];
        s0 = t0;
        s1 = t1;
        s2 = t2;
        s3 = t3;
        k += 4;
    }

    let t0 = last_round_word(s0, s3, s2, s1, &INV_SBOX) ^ rk[k];
    let t1 = last_round_word(s1, s0, s3, s2, &INV_SBOX) ^ rk[k + 1];
    let t2 = last_round_word(s2, s1, s0, s3, &INV_SBOX) ^ rk[k + 2];
    let t3 = last_round_word(s3, s2, s1, s0, &INV_SBOX) ^ rk[k + 3];

    block[0..4].copy_from_slice(&t0.to_be_bytes());
    block[4..8].copy_from_slice(&t1.to_be_bytes());
    block[8..12].copy_from_slice(&t2.to_be_bytes());
    block[12..16].copy_from_slice(&t3.to_be_bytes());
}

/// Assemble one final-round output word from the top/high/low/bottom bytes of
/// the four words ShiftRows (or InvShiftRows) routes into it.
#[inline]
fn last_round_word(a: u32, b: u32, c: u32, d: u32, sbox: &[u8; 256]) -> u32 {
    ((sbox[(a >> 24) as usize] as u32) << 24)
        | ((sbox[((b >> 16) & 0xff) as usize] as u32) << 16)
        | ((sbox[((c >> 8) & 0xff) as usize] as u32) << 8)
        | (sbox[(d & 0xff) as usize] as u32)
}

/// T-table AES with a 256-bit key (14 rounds).
#[derive(Clone)]
pub(crate) struct Aes256 {
    keys: Schedule,
}

impl Aes256 {
    pub(crate) fn from_slice(key: &[u8]) -> Result<Self, CryptoError> {
        Ok(Self {
            keys: Schedule::expand(key)?,
        })
    }
}

/// CBC stays on the trait's default loops: a table-lookup round has no
/// pipeline for a fused kernel to fill.
impl BlockCipher for Aes256 {
    #[inline]
    fn encrypt_block(&self, block: &mut [u8; AES_BLOCK_SIZE]) {
        encrypt_words(block, &self.keys.enc);
    }

    #[inline]
    fn decrypt_block(&self, block: &mut [u8; AES_BLOCK_SIZE]) {
        decrypt_words(block, &self.keys.dec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_tables_are_consistent_rotations() {
        for x in 0..256usize {
            assert_eq!(TE1[x], TE0[x].rotate_right(8));
            assert_eq!(TE2[x], TE0[x].rotate_right(16));
            assert_eq!(TE3[x], TE0[x].rotate_right(24));
            assert_eq!(TD1[x], TD0[x].rotate_right(8));
            // The table entry must be the MixColumns image of (S[x],0,0,0).
            let s = SBOX[x] as usize;
            let expected = u32::from_be_bytes([MUL2[s], SBOX[x], SBOX[x], MUL3[s]]);
            assert_eq!(TE0[x], expected);
            let si = INV_SBOX[x] as usize;
            let expected = u32::from_be_bytes([MUL14[si], MUL9[si], MUL13[si], MUL11[si]]);
            assert_eq!(TD0[x], expected);
        }
    }

    #[test]
    fn ttable_roundtrip() {
        let cipher = Aes256::from_slice(&[7u8; 32]).unwrap();
        for i in 0..32u8 {
            let original = [i; 16];
            let mut block = original;
            cipher.encrypt_block(&mut block);
            assert_ne!(block, original);
            cipher.decrypt_block(&mut block);
            assert_eq!(block, original);
        }
    }
}
