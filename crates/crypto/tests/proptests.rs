//! Property-based tests for the cryptographic substrate.

use proptest::prelude::*;

use stegfs_crypto::{
    Aes256, Backend, BlockCipher, CbcCipher, HashDrbg, HmacSha256, Key256, Sha256, Sha256Backend,
};

fn aes_backends() -> Vec<Backend> {
    [Backend::Portable, Backend::AesNi, Backend::Vaes]
        .into_iter()
        .filter(|b| b.is_available())
        .collect()
}

fn sha_backends() -> Vec<Sha256Backend> {
    [Sha256Backend::Scalar, Sha256Backend::ShaNi]
        .into_iter()
        .filter(|b| b.is_available())
        .collect()
}

proptest! {
    /// The word-oriented T-table AES agrees with the byte-oriented reference
    /// implementation in both directions, on random keys and blocks. This is the safety net under the hot-path rewrite: the two
    /// implementations share no round code.
    #[test]
    fn ttable_matches_reference(key in any::<[u8; 32]>(), block in any::<[u8; 16]>()) {
        let fast = Aes256::new(&key);
        let slow = stegfs_crypto::reference::Aes256::new(&key);
        let mut a = block;
        let mut b = block;
        fast.encrypt_block(&mut a);
        slow.encrypt_block(&mut b);
        prop_assert_eq!(a, b);
        fast.decrypt_block(&mut a);
        slow.decrypt_block(&mut b);
        prop_assert_eq!(a, b);
        prop_assert_eq!(a, block);
    }

    /// AES encrypt∘decrypt is the identity.
    #[test]
    fn aes_roundtrip(key in any::<[u8; 32]>(), block in any::<[u8; 16]>()) {
        let aes256 = Aes256::new(&key);
        let mut buf = block;
        aes256.encrypt_block(&mut buf);
        aes256.decrypt_block(&mut buf);
        prop_assert_eq!(buf, block);
    }

    /// CBC decryption inverts encryption for arbitrary block-aligned inputs,
    /// and a different IV never yields the same ciphertext.
    #[test]
    fn cbc_roundtrip_and_iv_sensitivity(
        key in any::<[u8; 32]>(),
        iv1 in any::<[u8; 16]>(),
        iv2 in any::<[u8; 16]>(),
        blocks in 1usize..16,
        seed in any::<u8>(),
    ) {
        let data = vec![seed; blocks * 16];
        let cbc = CbcCipher::new(Aes256::new(&key));
        let c1 = cbc.encrypt(&iv1, &data).unwrap();
        prop_assert_eq!(cbc.decrypt(&iv1, &c1).unwrap(), data.clone());
        if iv1 != iv2 {
            let c2 = cbc.encrypt(&iv2, &data).unwrap();
            prop_assert_ne!(c1, c2);
        }
    }

    /// Incremental SHA-256 hashing equals one-shot hashing for any chunking.
    #[test]
    fn sha256_chunking_invariance(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        chunk in 1usize..97,
    ) {
        let oneshot = stegfs_crypto::sha256(&data);
        let mut hasher = Sha256::new();
        for piece in data.chunks(chunk) {
            hasher.update(piece);
        }
        prop_assert_eq!(hasher.finalize(), oneshot);
    }

    /// HMAC is deterministic and sensitive to both key and message.
    #[test]
    fn hmac_sensitivity(
        key in proptest::collection::vec(any::<u8>(), 1..64),
        msg in proptest::collection::vec(any::<u8>(), 0..256),
        flip in 0usize..64,
    ) {
        let mac = HmacSha256::mac(&key, &msg);
        prop_assert_eq!(HmacSha256::mac(&key, &msg), mac);
        let mut other_key = key.clone();
        other_key[flip % key.len()] ^= 0x01;
        prop_assert_ne!(HmacSha256::mac(&other_key, &msg), mac);
        let mut other_msg = msg.clone();
        if other_msg.is_empty() {
            other_msg.push(1);
        } else {
            let idx = flip % other_msg.len();
            other_msg[idx] ^= 0x01;
        }
        prop_assert_ne!(HmacSha256::mac(&key, &other_msg), mac);
    }

    /// The DRBG is a pure function of its seed, regardless of how output is
    /// chunked out of it.
    #[test]
    fn drbg_chunking_invariance(seed in any::<u64>(), sizes in proptest::collection::vec(1usize..64, 1..10)) {
        let total: usize = sizes.iter().sum();
        let mut a = HashDrbg::from_u64(seed);
        let expected = a.bytes(total);
        let mut b = HashDrbg::from_u64(seed);
        let mut got = Vec::new();
        for s in sizes {
            got.extend(b.bytes(s));
        }
        prop_assert_eq!(got, expected);
    }

    /// Every available AES backend (plus the byte-oriented reference) gives
    /// byte-identical ECB output in both directions, on random keys and
    /// multi-block buffers — so runtime backend selection can
    /// never change what lands on disk.
    #[test]
    fn aes_backends_are_byte_identical(
        key in any::<[u8; 32]>(),
        blocks in 1usize..20,
        seed in any::<u8>(),
    ) {
        let data: Vec<u8> = (0..blocks * 16).map(|i| seed.wrapping_add(i as u8)).collect();
        let reference = stegfs_crypto::reference::Aes256::new(&key);
        let mut expected = data.clone();
        for block in expected.chunks_exact_mut(16) {
            reference.encrypt_block(block.try_into().unwrap());
        }
        for b in aes_backends() {
            let cipher = Aes256::with_backend(&key, b).unwrap();
            let mut got = data.clone();
            for block in got.chunks_exact_mut(16) {
                cipher.encrypt_block(block.try_into().unwrap());
            }
            prop_assert_eq!(&got, &expected, "encrypt on {}", b.name());
            for block in got.chunks_exact_mut(16) {
                cipher.decrypt_block(block.try_into().unwrap());
            }
            prop_assert_eq!(&got, &data, "decrypt on {}", b.name());
        }
    }

    /// CBC ciphertexts equal a chain written out over the byte-oriented
    /// reference cipher on every backend, for random keys, IVs and payload
    /// sizes (including sizes exercising the 8-wide decrypt path and its
    /// remainder), and every backend decrypts them, in place and into a
    /// second buffer alike. On every backend the multi-buffer encrypt over
    /// 0..=17 buffers (no group, partial groups, two full groups and one
    /// over) equals one single-buffer encrypt per buffer.
    #[test]
    fn cbc_backends_are_byte_identical(
        key in any::<[u8; 32]>(),
        iv in any::<[u8; 16]>(),
        blocks in 1usize..24,
        seed in any::<u8>(),
        buffers in 0usize..18,
    ) {
        let data: Vec<u8> = (0..blocks * 16).map(|i| seed.wrapping_mul(i as u8)).collect();
        let backends = aes_backends();
        let ciphertexts: Vec<Vec<u8>> = backends
            .iter()
            .map(|&b| {
                CbcCipher::new(Aes256::with_backend(&key, b).unwrap())
                    .encrypt(&iv, &data)
                    .unwrap()
            })
            .collect();
        let reference = stegfs_crypto::reference::Aes256::new(&key);
        let mut expected = data.clone();
        let mut chain = iv;
        for block in expected.chunks_exact_mut(16) {
            let block: &mut [u8; 16] = block.try_into().unwrap();
            for (b, c) in block.iter_mut().zip(chain) {
                *b ^= c;
            }
            reference.encrypt_block(block);
            chain = *block;
        }
        for (ct, b) in ciphertexts.iter().zip(&backends) {
            prop_assert_eq!(ct, &expected, "encrypt diverged on {}", b.name());
        }
        for &b in &backends {
            let cbc = CbcCipher::new(Aes256::with_backend(&key, b).unwrap());
            let mut into = vec![0xEEu8; expected.len()];
            cbc.decrypt_into(&iv, &expected, &mut into).unwrap();
            prop_assert_eq!(&into, &data, "decrypt diverged on {}", b.name());
            let mut in_place = expected.clone();
            cbc.decrypt_in_place(&iv, &mut in_place).unwrap();
            prop_assert_eq!(&in_place, &data, "in-place decrypt diverged on {}", b.name());
        }

        let ivs: Vec<[u8; 16]> = (0..buffers)
            .map(|n| iv.map(|b| b.wrapping_add(n as u8)))
            .collect();
        let plaintexts: Vec<Vec<u8>> = (0..buffers)
            .map(|n| data.iter().map(|b| b ^ (n as u8).wrapping_mul(0x3D)).collect())
            .collect();
        for &b in &backends {
            let cbc = CbcCipher::new(Aes256::with_backend(&key, b).unwrap());
            let mut many = plaintexts.clone();
            let mut bufs: Vec<&mut [u8]> = many.iter_mut().map(Vec::as_mut_slice).collect();
            cbc.encrypt_many_in_place(&ivs, &mut bufs).unwrap();
            for (n, (got, plain)) in many.iter().zip(&plaintexts).enumerate() {
                prop_assert_eq!(
                    got,
                    &cbc.encrypt(&ivs[n], plain).unwrap(),
                    "buffer {} of {} diverged on {}",
                    n,
                    buffers,
                    b.name()
                );
            }
        }
    }

    /// SHA-256 digests and HMAC MACs (including the truncated derive_u64
    /// fast path) are byte-identical across every available compression
    /// backend for random messages and keys.
    #[test]
    fn sha_and_hmac_backends_are_byte_identical(
        key in proptest::collection::vec(any::<u8>(), 1..80),
        msg in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let backends = sha_backends();
        let digests: Vec<_> = backends
            .iter()
            .map(|&b| {
                let mut h = Sha256::with_backend(b);
                h.update(&msg);
                h.finalize()
            })
            .collect();
        for (d, b) in digests.iter().zip(&backends) {
            prop_assert_eq!(d, &digests[0], "sha256 diverged on {}", b.name());
        }

        let reference_mac = HmacSha256::with_backend(&key, Sha256Backend::Scalar).mac_with(&msg);
        for &b in &backends {
            let hmac = HmacSha256::with_backend(&key, b);
            let mac = hmac.mac_with(&msg);
            let derived = hmac.derive_u64_with(&msg);
            let expected = u64::from_be_bytes(mac[..8].try_into().unwrap());
            prop_assert_eq!(derived, expected, "derive_u64 diverged on {}", b.name());
            prop_assert_eq!(mac, reference_mac, "hmac diverged on {}", b.name());
        }
    }

    /// Derived sub-keys never equal their parent or each other for distinct
    /// labels.
    #[test]
    fn key_derivation_separation(pass in "[ -~]{1,32}", a in "[a-z]{1,8}", b in "[a-z]{1,8}") {
        let master = Key256::from_passphrase(&pass);
        let ka = master.derive(&a);
        let kb = master.derive(&b);
        prop_assert_ne!(ka, master);
        if a != b {
            prop_assert_ne!(ka, kb);
        } else {
            prop_assert_eq!(ka, kb);
        }
    }
}
