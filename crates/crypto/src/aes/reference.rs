//! The byte-oriented AES implementation, kept as an executable specification.
//!
//! The word-oriented T-table cipher in the parent module is the hot path used
//! by the rest of the workspace; this module exists so property tests (and the
//! `crypto_baseline` bench bin) can check the fast path against an
//! independent, maximally-literal transcription of FIPS-197. It is
//! deliberately table-free beyond the S-box (which FIPS-197 itself specifies
//! as a table): MixColumns multiplies in GF(2^8) at runtime, exactly as the
//! standard's pseudocode does. Do not use it in production paths — it is
//! roughly an order of magnitude slower than the T-table cipher.

use super::{gf_mul, BlockCipher, AES_BLOCK_SIZE, INV_SBOX, RCON, SBOX};
use crate::CryptoError;

/// FIPS-197 `KeyExpansion`: `nk` = key length in words, `nr` = number of
/// rounds, producing `4 * (nr + 1)` words. Rejects keys whose length is not
/// `4 * nk` bytes with a typed error instead of panicking.
fn expand_key(key: &[u8], nk: usize, nr: usize) -> Result<Vec<[u8; 4]>, CryptoError> {
    if key.len() != nk * 4 {
        return Err(CryptoError::BadKeyLength {
            expected: nk * 4,
            got: key.len(),
        });
    }
    let total_words = 4 * (nr + 1);
    let mut w: Vec<[u8; 4]> = Vec::with_capacity(total_words);
    for i in 0..nk {
        w.push([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
    }
    for i in nk..total_words {
        let mut temp = w[i - 1];
        if i % nk == 0 {
            temp.rotate_left(1);
            for b in temp.iter_mut() {
                *b = SBOX[*b as usize];
            }
            temp[0] ^= RCON[i / nk - 1];
        } else if nk > 6 && i % nk == 4 {
            for b in temp.iter_mut() {
                *b = SBOX[*b as usize];
            }
        }
        let prev = w[i - nk];
        w.push([
            prev[0] ^ temp[0],
            prev[1] ^ temp[1],
            prev[2] ^ temp[2],
            prev[3] ^ temp[3],
        ]);
    }
    Ok(w)
}

fn add_round_key(state: &mut [u8; 16], round_keys: &[[u8; 4]], round: usize) {
    for col in 0..4 {
        let rk = round_keys[round * 4 + col];
        for row in 0..4 {
            state[4 * col + row] ^= rk[row];
        }
    }
}

fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

fn inv_sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = INV_SBOX[*b as usize];
    }
}

fn shift_rows(state: &mut [u8; 16]) {
    // State is column-major: state[4*col + row].
    for row in 1..4 {
        let mut tmp = [0u8; 4];
        for col in 0..4 {
            tmp[col] = state[4 * ((col + row) % 4) + row];
        }
        for col in 0..4 {
            state[4 * col + row] = tmp[col];
        }
    }
}

fn inv_shift_rows(state: &mut [u8; 16]) {
    for row in 1..4 {
        let mut tmp = [0u8; 4];
        for col in 0..4 {
            tmp[(col + row) % 4] = state[4 * col + row];
        }
        for col in 0..4 {
            state[4 * col + row] = tmp[col];
        }
    }
}

fn mix_columns(state: &mut [u8; 16]) {
    for col in 0..4 {
        let a0 = state[4 * col];
        let a1 = state[4 * col + 1];
        let a2 = state[4 * col + 2];
        let a3 = state[4 * col + 3];
        state[4 * col] = gf_mul(a0, 2) ^ gf_mul(a1, 3) ^ a2 ^ a3;
        state[4 * col + 1] = a0 ^ gf_mul(a1, 2) ^ gf_mul(a2, 3) ^ a3;
        state[4 * col + 2] = a0 ^ a1 ^ gf_mul(a2, 2) ^ gf_mul(a3, 3);
        state[4 * col + 3] = gf_mul(a0, 3) ^ a1 ^ a2 ^ gf_mul(a3, 2);
    }
}

fn inv_mix_columns(state: &mut [u8; 16]) {
    for col in 0..4 {
        let a0 = state[4 * col];
        let a1 = state[4 * col + 1];
        let a2 = state[4 * col + 2];
        let a3 = state[4 * col + 3];
        state[4 * col] = gf_mul(a0, 14) ^ gf_mul(a1, 11) ^ gf_mul(a2, 13) ^ gf_mul(a3, 9);
        state[4 * col + 1] = gf_mul(a0, 9) ^ gf_mul(a1, 14) ^ gf_mul(a2, 11) ^ gf_mul(a3, 13);
        state[4 * col + 2] = gf_mul(a0, 13) ^ gf_mul(a1, 9) ^ gf_mul(a2, 14) ^ gf_mul(a3, 11);
        state[4 * col + 3] = gf_mul(a0, 11) ^ gf_mul(a1, 13) ^ gf_mul(a2, 9) ^ gf_mul(a3, 14);
    }
}

fn encrypt_with_schedule(block: &mut [u8; 16], round_keys: &[[u8; 4]], nr: usize) {
    add_round_key(block, round_keys, 0);
    for round in 1..nr {
        sub_bytes(block);
        shift_rows(block);
        mix_columns(block);
        add_round_key(block, round_keys, round);
    }
    sub_bytes(block);
    shift_rows(block);
    add_round_key(block, round_keys, nr);
}

fn decrypt_with_schedule(block: &mut [u8; 16], round_keys: &[[u8; 4]], nr: usize) {
    add_round_key(block, round_keys, nr);
    for round in (1..nr).rev() {
        inv_shift_rows(block);
        inv_sub_bytes(block);
        add_round_key(block, round_keys, round);
        inv_mix_columns(block);
    }
    inv_shift_rows(block);
    inv_sub_bytes(block);
    add_round_key(block, round_keys, 0);
}

/// Clear a round-key schedule before it is freed.
fn wipe_schedule(round_keys: &mut [[u8; 4]]) {
    for w in round_keys.iter_mut() {
        *w = [0u8; 4];
    }
    core::hint::black_box(&*round_keys);
}

/// Byte-oriented AES with a 256-bit key (14 rounds).
#[derive(Clone)]
pub struct Aes256 {
    round_keys: Vec<[u8; 4]>,
}

impl Aes256 {
    /// Number of rounds for AES-256.
    const ROUNDS: usize = 14;

    /// Construct a cipher instance from a 32-byte key.
    pub fn new(key: &[u8; 32]) -> Self {
        // Invariant: the key is 32 bytes by its type, the length
        // `expand_key` checks for an 8-word key.
        Self {
            round_keys: expand_key(key, 8, Self::ROUNDS).expect("32-byte key is always valid"),
        }
    }

    /// Construct from a slice, rejecting wrong lengths with a typed error.
    pub fn from_slice(key: &[u8]) -> Result<Self, CryptoError> {
        Ok(Self {
            round_keys: expand_key(key, 8, Self::ROUNDS)?,
        })
    }
}

impl Drop for Aes256 {
    fn drop(&mut self) {
        wipe_schedule(&mut self.round_keys);
    }
}

impl BlockCipher for Aes256 {
    fn encrypt_block(&self, block: &mut [u8; AES_BLOCK_SIZE]) {
        encrypt_with_schedule(block, &self.round_keys, Self::ROUNDS);
    }

    fn decrypt_block(&self, block: &mut [u8; AES_BLOCK_SIZE]) {
        decrypt_with_schedule(block, &self.round_keys, Self::ROUNDS);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aes256_fips197_appendix_c3() {
        // FIPS-197 Appendix C.3 example vectors.
        let key: [u8; 32] = [
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f, 0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, 0x19, 0x1a, 0x1b,
            0x1c, 0x1d, 0x1e, 0x1f,
        ];
        let plaintext: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let expected: [u8; 16] = [
            0x8e, 0xa2, 0xb7, 0xca, 0x51, 0x67, 0x45, 0xbf, 0xea, 0xfc, 0x49, 0x90, 0x4b, 0x49,
            0x60, 0x89,
        ];
        let cipher = Aes256::new(&key);
        let mut block = plaintext;
        cipher.encrypt_block(&mut block);
        assert_eq!(block, expected);
        cipher.decrypt_block(&mut block);
        assert_eq!(block, plaintext);
    }

    #[test]
    fn expand_key_rejects_wrong_lengths() {
        assert!(expand_key(&[0u8; 32], 8, 14).is_ok());
        assert_eq!(
            expand_key(&[0u8; 33], 8, 14).err(),
            Some(CryptoError::BadKeyLength {
                expected: 32,
                got: 33
            })
        );
        assert!(Aes256::from_slice(&[0u8; 24]).is_err());
    }
}
