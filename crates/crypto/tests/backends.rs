//! Cross-backend equivalence: every compiled-in AES and SHA-256 backend must
//! produce byte-identical output on the standard vectors (FIPS-197,
//! SP 800-38A, RFC 4231) and on structured bulk data. The randomized
//! counterpart lives in `tests/proptests.rs`; this suite pins the named
//! vectors per backend so a single failing backend is identified by name.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use stegfs_crypto::{
    backend_name, reference, sha256_backend_name, Aes256, Backend, BlockCipher, CbcCipher,
    CbcError, CryptoError, HmacSha256, Sha256, Sha256Backend, PIPELINE_WIDTH,
};

fn hex_to_bytes(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

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

#[test]
fn fips197_kats_on_every_backend() {
    let key256: Vec<u8> =
        hex_to_bytes("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
    let plaintext: [u8; 16] = hex_to_bytes("00112233445566778899aabbccddeeff")
        .try_into()
        .unwrap();
    for b in aes_backends() {
        // FIPS-197 Appendix C.3 (AES-256).
        let cipher = Aes256::with_backend(&key256, b).unwrap();
        let mut block = plaintext;
        cipher.encrypt_block(&mut block);
        assert_eq!(
            hex(&block),
            "8ea2b7ca516745bfeafc49904b496089",
            "C.3 encrypt on {}",
            b.name()
        );
        cipher.decrypt_block(&mut block);
        assert_eq!(block, plaintext, "C.3 decrypt on {}", b.name());
    }
}

#[test]
fn sp800_38a_cbc_aes256_on_every_backend() {
    // NIST SP 800-38A F.2.5 / F.2.6, all four blocks.
    let key: Vec<u8> =
        hex_to_bytes("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
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
    for b in aes_backends() {
        let cbc = CbcCipher::new(Aes256::with_backend(&key, b).unwrap());
        let ciphertext = cbc.encrypt(&iv, &plaintext).unwrap();
        assert_eq!(ciphertext, expected, "F.2.5 on {}", b.name());
        let decrypted = cbc.decrypt(&iv, &ciphertext).unwrap();
        assert_eq!(decrypted, plaintext, "F.2.6 on {}", b.name());
    }
}

#[test]
fn sp800_38a_cbc_aes256_in_every_lane_on_every_backend() {
    // F.2.5 again, through the multi-buffer encrypt: the vector sits in each
    // lane position of a full group (and of the partial group after it) in
    // turn while every other lane carries a different message under a
    // different IV, so a lane that leaks into its neighbour, or a chain
    // value scattered back to the wrong buffer, shows up by position.
    let key: Vec<u8> =
        hex_to_bytes("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
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
    const BUFFERS: usize = PIPELINE_WIDTH + 3;
    for b in aes_backends() {
        let cbc = CbcCipher::new(Aes256::with_backend(&key, b).unwrap());
        for position in 0..BUFFERS {
            let mut ivs = [[0u8; 16]; BUFFERS];
            let mut data: Vec<Vec<u8>> = (0..BUFFERS)
                .map(|n| vec![0x11u8.wrapping_mul(n as u8 + 1); plaintext.len()])
                .collect();
            for (n, iv) in ivs.iter_mut().enumerate() {
                iv.fill(0xF0 ^ n as u8);
            }
            ivs[position] = iv;
            data[position] = plaintext.clone();
            let mut bufs: Vec<&mut [u8]> = data.iter_mut().map(Vec::as_mut_slice).collect();
            cbc.encrypt_many_in_place(&ivs, &mut bufs).unwrap();
            assert_eq!(
                data[position],
                expected,
                "F.2.5 in lane {position} on {}",
                b.name()
            );
        }
    }
}

#[test]
fn malformed_multi_buffer_calls_are_typed_errors() {
    for b in aes_backends() {
        let cbc = CbcCipher::new(Aes256::with_backend(&[7u8; 32], b).unwrap());
        let ivs = [[0u8; 16]; 3];
        let (mut x, mut y, mut z) = ([0u8; 32], [0u8; 32], [0u8; 48]);

        assert_eq!(
            cbc.encrypt_many_in_place(&ivs[..2], &mut [&mut x, &mut y, &mut z[..32]]),
            Err(CbcError::IvCountMismatch { ivs: 2, bufs: 3 })
        );
        assert_eq!(
            cbc.encrypt_many_in_place(&ivs, &mut [&mut x, &mut y, &mut z]),
            Err(CbcError::UnequalLengths {
                expected: 32,
                got: 48
            })
        );
        assert_eq!(
            cbc.encrypt_many_in_place(&ivs[..2], &mut [&mut x[..17], &mut y[..17]]),
            Err(CbcError::NotBlockAligned { len: 17 })
        );
        assert_eq!(
            cbc.decrypt_into(&ivs[0], &x, &mut z),
            Err(CbcError::UnequalLengths {
                expected: 32,
                got: 48
            })
        );
        assert_eq!(
            cbc.decrypt_into(&ivs[0], &x[..17], &mut y[..17]),
            Err(CbcError::NotBlockAligned { len: 17 })
        );
        // A rejected call touched nothing.
        assert_eq!((x, y, z), ([0u8; 32], [0u8; 32], [0u8; 48]));
        // No buffers at all is a valid, empty call.
        assert_eq!(cbc.encrypt_many_in_place(&[], &mut []), Ok(()));
    }
}

/// One CBC chain written out by hand over the byte-oriented reference cipher,
/// which shares no code with any backend.
fn reference_chain(key: &[u8; 32], iv: &[u8; 16], plain: &[u8]) -> Vec<u8> {
    let cipher = reference::Aes256::new(key);
    let mut out = plain.to_vec();
    let mut chain = *iv;
    for block in out.chunks_exact_mut(16) {
        let block: &mut [u8; 16] = block.try_into().unwrap();
        for (b, c) in block.iter_mut().zip(chain) {
            *b ^= c;
        }
        cipher.encrypt_block(block);
        chain = *block;
    }
    out
}

#[test]
fn every_cbc_kernel_matches_the_reference_chain() {
    // Lane counts on both sides of every group width (one chain, each
    // N-lane kernel, a full group of eight, two groups and one over) times
    // field lengths on both sides of every kernel's step (one block; 112,
    // 128, 144 around the eight-block decrypt group and the 64-byte wide
    // encrypt step; 1008 and 4080, the data fields of 1 KB and 4 KB blocks,
    // both 48 bytes past a multiple of 64 and seven blocks past a multiple of
    // eight) times buffers starting on and off a 16-byte boundary.
    const MAX_LANES: usize = 2 * PIPELINE_WIDTH + 1;
    let key = [0xC3u8; 32];
    let iv_of = |n: usize| -> [u8; 16] { core::array::from_fn(|i| (n * 16 + i) as u8 ^ 0x5A) };
    for len in [16usize, 32, 112, 128, 144, 1008, 4080] {
        let plain: Vec<Vec<u8>> = (0..MAX_LANES)
            .map(|n| (0..len).map(|i| (i * 131 + n * 17) as u8).collect())
            .collect();
        let expected: Vec<Vec<u8>> = plain
            .iter()
            .enumerate()
            .map(|(n, p)| reference_chain(&key, &iv_of(n), p))
            .collect();
        for b in aes_backends() {
            let cbc = CbcCipher::new(Aes256::with_backend(&key, b).unwrap());
            for lanes in 1..=MAX_LANES {
                for offset in [0usize, 1] {
                    let what = format!("{lanes} x {len} B at +{offset} on {}", b.name());
                    let ivs: Vec<[u8; 16]> = (0..lanes).map(iv_of).collect();
                    let mut data: Vec<Vec<u8>> = plain[..lanes]
                        .iter()
                        .map(|p| [&[0xEE][..offset], p].concat())
                        .collect();
                    let mut bufs: Vec<&mut [u8]> =
                        data.iter_mut().map(|d| &mut d[offset..]).collect();
                    cbc.encrypt_many_in_place(&ivs, &mut bufs).unwrap();
                    for (n, buf) in bufs.iter().enumerate() {
                        assert_eq!(**buf, expected[n][..], "lane {n} of {what}");
                    }
                }
            }
            // Decrypt has no lanes: once per buffer position is every shape.
            for offset in [0usize, 1] {
                let what = format!("{len} B at +{offset} on {}", b.name());
                let sealed = [&[0xEE][..offset], &expected[0]].concat();
                let mut opened = vec![0xEEu8; offset + len];
                cbc.decrypt_into(&iv_of(0), &sealed[offset..], &mut opened[offset..])
                    .unwrap();
                assert_eq!(opened[offset..], plain[0][..], "src -> dst, {what}");
                assert_eq!(opened[..offset], sealed[..offset], "stray write, {what}");
                let mut in_place = sealed.clone();
                cbc.decrypt_in_place(&iv_of(0), &mut in_place[offset..])
                    .unwrap();
                assert_eq!(in_place, opened, "in place, {what}");
            }
        }
    }
}

/// A cipher that counts which entry points reach it.
#[derive(Default)]
struct Counting {
    blocks: AtomicUsize,
    encrypt_many: AtomicUsize,
    decrypt_in_place: AtomicUsize,
    decrypt: AtomicUsize,
}

impl Counting {
    fn counts(&self) -> [usize; 4] {
        [
            &self.blocks,
            &self.encrypt_many,
            &self.decrypt_in_place,
            &self.decrypt,
        ]
        .map(|c| c.load(Ordering::Relaxed))
    }
}

impl BlockCipher for Counting {
    fn encrypt_block(&self, _: &mut [u8; 16]) {
        self.blocks.fetch_add(1, Ordering::Relaxed);
    }

    fn decrypt_block(&self, _: &mut [u8; 16]) {
        self.blocks.fetch_add(1, Ordering::Relaxed);
    }

    fn cbc_encrypt_many(&self, _: &[[u8; 16]], _: &mut [&mut [u8]]) {
        self.encrypt_many.fetch_add(1, Ordering::Relaxed);
    }

    fn cbc_decrypt_in_place(&self, _: &[u8; 16], _: &mut [u8]) {
        self.decrypt_in_place.fetch_add(1, Ordering::Relaxed);
    }

    fn cbc_decrypt(&self, _: &[u8; 16], _: &[u8], _: &mut [u8]) {
        self.decrypt.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn reference_and_arc_forward_the_cbc_methods() {
    // A cipher's own CBC methods are its fast path. A wrapper that forwards
    // only the single-block methods still produces the right bytes, through
    // the trait's default loops, so nothing but a count can see the
    // difference — and every production caller reaches its cipher through
    // `Arc<Aes256>` (the schedule cache) inside a `CbcCipher`.
    fn drive<C: BlockCipher>(cbc: &CbcCipher<C>) {
        let iv = [0u8; 16];
        let (mut a, mut b) = ([0u8; 64], [0u8; 64]);
        cbc.encrypt_in_place(&iv, &mut a).unwrap();
        cbc.encrypt_many_in_place(&[iv, iv], &mut [&mut a, &mut b])
            .unwrap();
        cbc.decrypt_in_place(&iv, &mut a).unwrap();
        cbc.decrypt_into(&iv, &a, &mut b).unwrap();
        cbc.decrypt(&iv, &a).unwrap();
    }
    let direct = Counting::default();
    drive(&CbcCipher::new(&direct));
    assert_eq!(direct.counts(), [0, 2, 1, 2], "through &C");

    let shared = Arc::new(Counting::default());
    drive(&CbcCipher::new(shared.clone()));
    assert_eq!(shared.counts(), [0, 2, 1, 2], "through Arc<C>");

    let nested = Arc::new(Counting::default());
    drive(&CbcCipher::new(&&nested));
    assert_eq!(nested.counts(), [0, 2, 1, 2], "through &&Arc<C>");
}

#[test]
fn backends_agree_on_bulk_cbc_payloads() {
    // A full 4080-byte data field (the codec's CBC payload) plus odd sizes
    // that exercise the 8-wide decrypt path and its remainder handling.
    let backends = aes_backends();
    let key = [0x5Au8; 32];
    let iv = [0x99u8; 16];
    for len in [16usize, 112, 128, 144, 4080] {
        let plaintext: Vec<u8> = (0..len).map(|i| (i * 131 % 256) as u8).collect();
        let outputs: Vec<Vec<u8>> = backends
            .iter()
            .map(|&b| {
                let cbc = CbcCipher::new(Aes256::with_backend(&key, b).unwrap());
                let ct = cbc.encrypt(&iv, &plaintext).unwrap();
                let rt = cbc.decrypt(&iv, &ct).unwrap();
                assert_eq!(rt, plaintext, "roundtrip on {} at {len}", b.name());
                ct
            })
            .collect();
        for (ct, b) in outputs.iter().zip(&backends) {
            assert_eq!(ct, &outputs[0], "{} diverged at {len} bytes", b.name());
        }
    }
}

#[test]
fn rfc4231_vectors_on_every_sha_backend() {
    // RFC 4231 test cases 1, 2 and 6 (short key, short message; long key).
    let cases: [(&[u8], &[u8], &str); 3] = [
        (
            &[0x0bu8; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        ),
        (
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        ),
        (
            &[0xaau8; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        ),
    ];
    for b in sha_backends() {
        for (key, msg, expected) in cases {
            let hmac = HmacSha256::with_backend(key, b);
            assert_eq!(
                hex(&hmac.mac_with(msg)),
                expected,
                "RFC 4231 on {}",
                b.name()
            );
            // The derive_u64 fast path must agree with the full MAC.
            let mac = hmac.mac_with(msg);
            let expected_u64 = u64::from_be_bytes(mac[..8].try_into().unwrap());
            assert_eq!(
                hmac.derive_u64_with(msg),
                expected_u64,
                "derive_u64 fast path on {}",
                b.name()
            );
        }
    }
}

#[test]
fn sha_backends_agree_on_structured_data() {
    let backends = sha_backends();
    let data: Vec<u8> = (0..8192u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
        .collect();
    for len in [0usize, 1, 55, 56, 64, 65, 127, 128, 1000, 8192] {
        let digests: Vec<_> = backends
            .iter()
            .map(|&b| {
                let mut h = Sha256::with_backend(b);
                h.update(&data[..len]);
                h.finalize()
            })
            .collect();
        for (d, b) in digests.iter().zip(&backends) {
            assert_eq!(d, &digests[0], "{} diverged at {len} bytes", b.name());
        }
    }
}

#[test]
fn unavailable_backend_is_a_typed_error() {
    // Either the hardware backend is available (constructing works) or
    // requesting it is the typed BackendUnavailable error — never a silent
    // fallback.
    for b in [Backend::AesNi, Backend::Vaes] {
        match Aes256::with_backend(&[0u8; 32], b) {
            Ok(cipher) => {
                assert!(b.is_available());
                assert_eq!(cipher.backend(), b);
            }
            Err(CryptoError::BackendUnavailable { backend }) => {
                assert!(!b.is_available());
                assert_eq!(backend, b.name());
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    // The wide kernels fall back on the narrow ones for tails.
    assert!(!Backend::Vaes.is_available() || Backend::AesNi.is_available());
}

#[test]
fn backend_names_report_active_selection() {
    // What `STEGFS_CRYPTO_BACKEND` asks for is what runs: a named backend
    // exactly, `auto` (or unset) the best one detected. Every CI matrix leg
    // runs this under its own setting, so a leg pinned to `aesni` cannot
    // quietly test another backend.
    let requested = std::env::var("STEGFS_CRYPTO_BACKEND").unwrap_or_default();
    let expected = match requested.as_str() {
        "" | "auto" => [Backend::Vaes, Backend::AesNi, Backend::Portable]
            .into_iter()
            .find(|b| b.is_available())
            .expect("portable is always available"),
        named => [Backend::Portable, Backend::AesNi, Backend::Vaes]
            .into_iter()
            .find(|b| b.name() == named)
            .unwrap_or_else(|| panic!("unexpected STEGFS_CRYPTO_BACKEND={named:?}")),
    };
    assert_eq!(
        backend_name(),
        expected.name(),
        "STEGFS_CRYPTO_BACKEND={requested:?}"
    );
    // SHA-256 follows the AES setting: scalar under `portable`, else SHA-NI
    // exactly where it is detected.
    let sha = if expected != Backend::Portable && Sha256Backend::ShaNi.is_available() {
        Sha256Backend::ShaNi
    } else {
        Sha256Backend::Scalar
    };
    assert_eq!(
        sha256_backend_name(),
        sha.name(),
        "STEGFS_CRYPTO_BACKEND={requested:?}"
    );
}
