//! CBC (Cipher Block Chaining) mode over whole 16-byte blocks.
//!
//! Section 4.1.1 of the paper:
//!
//! > each block contains an initial vector (IV) and a data field. \[...\] its
//! > data field is encrypted by the agent using a CBC (Cipher Block Chaining)
//! > block cipher with the IV as seed. Whenever the agent re-encrypts a block,
//! > it resets the IV so that the content of the whole encrypted block
//! > changes.
//!
//! Storage block payloads are always exact multiples of the AES block size, so
//! no padding scheme is needed; [`CbcCipher`] rejects unaligned buffers
//! instead.
//!
//! The mode itself — the chaining loops — is a method of the cipher
//! ([`BlockCipher::cbc_encrypt_many`] and the two decrypts), so that a
//! hardware backend can keep chain values and round keys in registers across
//! a whole buffer. This module is the checked front: every malformed call is
//! a typed [`CbcError`] here and never reaches a kernel.

use crate::aes::{BlockCipher, AES_BLOCK_SIZE};

/// Errors returned by CBC operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CbcError {
    /// Input length was not a multiple of the AES block size.
    NotBlockAligned {
        /// Offending input length.
        len: usize,
    },
    /// The buffers of one call — the lanes of a multi-buffer encrypt, or a
    /// decrypt's source and destination — did not all have the same length.
    UnequalLengths {
        /// Length of the first buffer.
        expected: usize,
        /// Length of the first buffer that differs.
        got: usize,
    },
    /// A multi-buffer call was not given exactly one IV per buffer.
    IvCountMismatch {
        /// Number of IVs supplied.
        ivs: usize,
        /// Number of buffers supplied.
        bufs: usize,
    },
}

impl core::fmt::Display for CbcError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CbcError::NotBlockAligned { len } => {
                write!(f, "CBC input length {len} is not a multiple of 16")
            }
            CbcError::UnequalLengths { expected, got } => {
                write!(f, "CBC buffer lengths differ: {got} bytes after {expected}")
            }
            CbcError::IvCountMismatch { ivs, bufs } => {
                write!(f, "CBC multi-buffer call with {ivs} IVs for {bufs} buffers")
            }
        }
    }
}

impl std::error::Error for CbcError {}

/// CBC-mode wrapper around any [`BlockCipher`].
pub struct CbcCipher<C: BlockCipher> {
    cipher: C,
}

impl<C: BlockCipher> CbcCipher<C> {
    /// Wrap a block cipher instance.
    pub fn new(cipher: C) -> Self {
        Self { cipher }
    }

    /// Access the underlying block cipher.
    pub fn cipher(&self) -> &C {
        &self.cipher
    }

    /// Encrypt `data` in place under `iv`. `data.len()` must be a multiple of
    /// 16 bytes. The one-buffer case of [`Self::encrypt_many_in_place`].
    pub fn encrypt_in_place(
        &self,
        iv: &[u8; AES_BLOCK_SIZE],
        data: &mut [u8],
    ) -> Result<(), CbcError> {
        self.encrypt_many_in_place(core::slice::from_ref(iv), &mut [data])
    }

    /// Encrypt every buffer of `bufs` in place, buffer `i` under `ivs[i]`;
    /// byte-identical to one [`Self::encrypt_in_place`] call per buffer. All
    /// buffers must have the same 16-byte-aligned length.
    ///
    /// Within one buffer CBC encryption is a serial chain — block `j` cannot
    /// start before block `j - 1` is done — so a single buffer leaves a
    /// pipelined cipher idle. *Different* buffers' chains are independent, so
    /// the cipher advances up to [`crate::PIPELINE_WIDTH`] of them together
    /// ([`BlockCipher::cbc_encrypt_many`]).
    pub fn encrypt_many_in_place(
        &self,
        ivs: &[[u8; AES_BLOCK_SIZE]],
        bufs: &mut [&mut [u8]],
    ) -> Result<(), CbcError> {
        if ivs.len() != bufs.len() {
            return Err(CbcError::IvCountMismatch {
                ivs: ivs.len(),
                bufs: bufs.len(),
            });
        }
        let len = bufs.first().map_or(0, |b| b.len());
        check_aligned(len)?;
        if let Some(other) = bufs.iter().find(|b| b.len() != len) {
            return Err(CbcError::UnequalLengths {
                expected: len,
                got: other.len(),
            });
        }
        self.cipher.cbc_encrypt_many(ivs, bufs);
        Ok(())
    }

    /// Decrypt `data` in place under `iv`.
    ///
    /// Unlike encryption, CBC decryption has no serial dependency between
    /// blocks — every plaintext block is `D(c[i]) ^ c[i-1]` — so a hardware
    /// backend keeps a whole group of blocks in flight
    /// ([`BlockCipher::cbc_decrypt_in_place`]).
    pub fn decrypt_in_place(
        &self,
        iv: &[u8; AES_BLOCK_SIZE],
        data: &mut [u8],
    ) -> Result<(), CbcError> {
        check_aligned(data.len())?;
        self.cipher.cbc_decrypt_in_place(iv, data);
        Ok(())
    }

    /// Decrypt `src` under `iv` into `dst`, which must be exactly as long;
    /// `src` is left as it is. Saves [`Self::decrypt_in_place`]'s caller the
    /// copy when the ciphertext has to stay, or sits in a buffer the
    /// plaintext should not.
    pub fn decrypt_into(
        &self,
        iv: &[u8; AES_BLOCK_SIZE],
        src: &[u8],
        dst: &mut [u8],
    ) -> Result<(), CbcError> {
        check_aligned(src.len())?;
        if dst.len() != src.len() {
            return Err(CbcError::UnequalLengths {
                expected: src.len(),
                got: dst.len(),
            });
        }
        self.cipher.cbc_decrypt(iv, src, dst);
        Ok(())
    }

    /// Encrypt `data` into a new vector.
    pub fn encrypt(&self, iv: &[u8; AES_BLOCK_SIZE], data: &[u8]) -> Result<Vec<u8>, CbcError> {
        let mut out = data.to_vec();
        self.encrypt_in_place(iv, &mut out)?;
        Ok(out)
    }

    /// Decrypt `data` into a new vector.
    pub fn decrypt(&self, iv: &[u8; AES_BLOCK_SIZE], data: &[u8]) -> Result<Vec<u8>, CbcError> {
        let mut out = vec![0u8; data.len()];
        self.decrypt_into(iv, data, &mut out)?;
        Ok(out)
    }
}

fn check_aligned(len: usize) -> Result<(), CbcError> {
    if !len.is_multiple_of(AES_BLOCK_SIZE) {
        return Err(CbcError::NotBlockAligned { len });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::{Aes256, PIPELINE_WIDTH};

    fn hex_to_bytes(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn nist_sp800_38a_cbc_aes256() {
        // NIST SP 800-38A F.2.5 CBC-AES256.Encrypt / F.2.6 Decrypt, all four
        // blocks.
        let key: [u8; 32] =
            hex_to_bytes("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4")
                .try_into()
                .unwrap();
        let iv: [u8; 16] = hex_to_bytes("000102030405060708090a0b0c0d0e0f")
            .try_into()
            .unwrap();
        let plaintext = hex_to_bytes(
            "6bc1bee22e409f96e93d7e117393172a\
             ae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411e5fbc1191a0a52ef\
             f69f2445df4f9b17ad2b417be66c3710",
        );
        let expected = hex_to_bytes(
            "f58c4c04d6e5f1ba779eabfb5f7bfbd6\
             9cfc4e967edb808d679f777bc6702c7d\
             39f23369a9d9bacfa530e26304231461\
             b2eb05e2c39be9fcda6c19078c6a9d1b",
        );
        let cbc = CbcCipher::new(Aes256::new(&key));
        let ciphertext = cbc.encrypt(&iv, &plaintext).unwrap();
        assert_eq!(ciphertext, expected);
        assert_eq!(cbc.decrypt(&iv, &ciphertext).unwrap(), plaintext);
    }

    #[test]
    fn changing_iv_changes_every_ciphertext_block() {
        // This property is exactly what makes the paper's dummy updates work:
        // re-encrypting the same plaintext under a fresh IV changes the whole
        // encrypted block.
        let cbc = CbcCipher::new(Aes256::new(&[9u8; 32]));
        let plaintext = vec![0x42u8; 4096];
        let c1 = cbc.encrypt(&[1u8; 16], &plaintext).unwrap();
        let c2 = cbc.encrypt(&[2u8; 16], &plaintext).unwrap();
        assert_eq!(c1.len(), c2.len());
        // Every 16-byte block must differ thanks to chaining.
        for (b1, b2) in c1.chunks(16).zip(c2.chunks(16)) {
            assert_ne!(b1, b2);
        }
        assert_eq!(cbc.decrypt(&[1u8; 16], &c1).unwrap(), plaintext);
        assert_eq!(cbc.decrypt(&[2u8; 16], &c2).unwrap(), plaintext);
    }

    #[test]
    fn unaligned_input_is_rejected() {
        let cbc = CbcCipher::new(Aes256::new(&[0u8; 32]));
        let err = cbc.encrypt(&[0u8; 16], &[0u8; 15]).unwrap_err();
        assert_eq!(err, CbcError::NotBlockAligned { len: 15 });
        let err = cbc.decrypt(&[0u8; 16], &[0u8; 17]).unwrap_err();
        assert_eq!(err, CbcError::NotBlockAligned { len: 17 });
    }

    #[test]
    fn wide_decrypt_matches_serial_decrypt_at_every_length() {
        // Lengths straddling the 8-block wide-path boundary: pure remainder,
        // exactly one wide chunk, wide chunks plus remainder, many chunks.
        let cbc = CbcCipher::new(Aes256::new(&[0xA5u8; 32]));
        let iv = [0x3Cu8; 16];
        for blocks in [0usize, 1, 7, 8, 9, 15, 16, 17, 255, 256] {
            let plaintext: Vec<u8> = (0..blocks * 16).map(|i| (i % 241) as u8).collect();
            let ciphertext = cbc.encrypt(&iv, &plaintext).unwrap();
            // Serial oracle: the textbook one-block-at-a-time chain.
            let mut serial = ciphertext.clone();
            let mut chain = u128::from_ne_bytes(iv);
            for block in serial.chunks_exact_mut(16) {
                let block: &mut [u8; 16] = block.try_into().unwrap();
                let ct = u128::from_ne_bytes(*block);
                cbc.cipher().decrypt_block(block);
                *block = (u128::from_ne_bytes(*block) ^ chain).to_ne_bytes();
                chain = ct;
            }
            assert_eq!(serial, plaintext, "oracle broken at {blocks} blocks");
            let decrypted = cbc.decrypt(&iv, &ciphertext).unwrap();
            assert_eq!(
                decrypted, plaintext,
                "wide path diverged at {blocks} blocks"
            );
        }
    }

    #[test]
    fn interleaved_encrypt_matches_the_textbook_chain() {
        // Every group shape from no buffer to two full groups and one over,
        // against the one-block-at-a-time chain written out by hand (the
        // single-buffer entry point is itself the one-lane case, so it
        // cannot serve as the oracle here).
        let cbc = CbcCipher::new(Aes256::new(&[0x6Bu8; 32]));
        for n in 0..=2 * PIPELINE_WIDTH + 1 {
            let ivs: Vec<[u8; 16]> = (0..n).map(|i| [0x10 + i as u8; 16]).collect();
            let plaintexts: Vec<Vec<u8>> = (0..n)
                .map(|i| (0..5 * 16).map(|j| (i * 37 + j * 11) as u8).collect())
                .collect();
            let mut many = plaintexts.clone();
            let mut bufs: Vec<&mut [u8]> = many.iter_mut().map(Vec::as_mut_slice).collect();
            cbc.encrypt_many_in_place(&ivs, &mut bufs).unwrap();
            for (i, (got, plain)) in many.iter().zip(&plaintexts).enumerate() {
                let mut serial = plain.clone();
                let mut chain = u128::from_ne_bytes(ivs[i]);
                for block in serial.chunks_exact_mut(16) {
                    let block: &mut [u8; 16] = block.try_into().unwrap();
                    *block = (u128::from_ne_bytes(*block) ^ chain).to_ne_bytes();
                    cbc.cipher().encrypt_block(block);
                    chain = u128::from_ne_bytes(*block);
                }
                assert_eq!(got, &serial, "buffer {i} of {n}");
            }
        }
    }

    #[test]
    fn wrong_iv_garbles_first_block_only() {
        let cbc = CbcCipher::new(Aes256::new(&[3u8; 32]));
        let plaintext = vec![7u8; 64];
        let ciphertext = cbc.encrypt(&[5u8; 16], &plaintext).unwrap();
        let decrypted = cbc.decrypt(&[6u8; 16], &ciphertext).unwrap();
        assert_ne!(&decrypted[..16], &plaintext[..16]);
        assert_eq!(&decrypted[16..], &plaintext[16..]);
    }
}
