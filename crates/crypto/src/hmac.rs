//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1).
//!
//! Used throughout the reproduction as the keyed derivation primitive: the
//! location of a hidden file's header is derived from its access key and path
//! name (Section 4.1.2), and the index block a read probes in each level of
//! the oblivious storage is derived from a logical address and the level's
//! epoch nonce (Section 5.1.2).

use crate::backend::{self, Sha256Backend};
use crate::sha256::{finish_many, hash_many, LaneHash, Sha256, SHA256_OUTPUT_SIZE};

const BLOCK_SIZE: usize = 64;

/// Keyed HMAC-SHA-256 instance.
///
/// The ipad/opad digest states are computed once at construction and kept
/// pristine, so one instance can MAC any number of messages (via
/// [`HmacSha256::mac_with`]) without rehashing the key — two compression
/// functions saved per MAC, which matters on the block-location derivation
/// paths that call HMAC once per storage block.
#[derive(Clone)]
pub struct HmacSha256 {
    /// Digest state after absorbing `key ⊕ ipad`; never mutated.
    inner0: Sha256,
    /// Digest state after absorbing `key ⊕ opad`; never mutated.
    outer0: Sha256,
    /// Working copy of `inner0` driven by the incremental `update` API.
    inner: Sha256,
}

impl HmacSha256 {
    /// Create an HMAC instance from an arbitrary-length key, hashing on the
    /// active backend (see [`crate::backend`]).
    pub fn new(key: &[u8]) -> Self {
        Self::with_backend(key, backend::sha256_active())
    }

    /// Create an instance on an explicitly chosen compression path. Used by
    /// the cross-backend equivalence suites; production code should use
    /// [`Self::new`] and the process-wide selection.
    ///
    /// # Panics
    /// Panics if `backend` is not available on this CPU.
    pub fn with_backend(key: &[u8], backend: Sha256Backend) -> Self {
        let mut key_block = [0u8; BLOCK_SIZE];
        if key.len() > BLOCK_SIZE {
            let mut h = Sha256::with_backend(backend);
            h.update(key);
            key_block[..SHA256_OUTPUT_SIZE].copy_from_slice(&h.finalize());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }

        let mut ipad = [0x36u8; BLOCK_SIZE];
        let mut opad = [0x5cu8; BLOCK_SIZE];
        for i in 0..BLOCK_SIZE {
            ipad[i] ^= key_block[i];
            opad[i] ^= key_block[i];
        }

        let mut inner0 = Sha256::with_backend(backend);
        inner0.update(&ipad);
        let mut outer0 = Sha256::with_backend(backend);
        outer0.update(&opad);
        let inner = inner0.clone();
        Self {
            inner0,
            outer0,
            inner,
        }
    }

    /// Absorb message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finish and return the 32-byte MAC.
    pub fn finalize(self) -> [u8; SHA256_OUTPUT_SIZE] {
        let inner_digest = self.inner.finalize();
        let mut outer = self.outer0;
        outer.update(&inner_digest);
        outer.finalize()
    }

    /// MAC a complete message without consuming (or disturbing) this
    /// instance: both hashes start from the precomputed key states, so
    /// repeated MACs under the same key skip the key-block hashing entirely.
    /// The one-message case of [`Self::mac_many`].
    pub fn mac_with(&self, data: &[u8]) -> [u8; SHA256_OUTPUT_SIZE] {
        self.lanes([data])[0]
    }

    /// [`Self::mac_with`] of every message of `msgs`, written to the matching
    /// entry of `out`. One message's MAC is a serial chain of compressions;
    /// messages of one length are taken [`SHA_LANES`](crate::SHA_LANES) at a
    /// time and their chains — inner hash, padded tail and outer block alike
    /// — walked in lockstep, which on SHA-NI costs little more than one of
    /// them alone. Values are exactly those of a [`Self::mac_with`] loop,
    /// which is also what a group of mixed lengths falls back to.
    ///
    /// # Panics
    /// If `out` is not as long as `msgs`.
    pub fn mac_many(&self, msgs: &[&[u8]], out: &mut [[u8; SHA256_OUTPUT_SIZE]]) {
        hash_many(self, msgs, out);
    }

    /// [`HmacSha256::derive_u64`] against the precomputed key state: the
    /// first 8 bytes of [`Self::mac_with`]. For messages of at most 55 bytes
    /// — every block-location derivation in the system — that is exactly two
    /// compression calls on stack buffers: one from the cached ipad state
    /// over the padded message, one from the cached opad state over the
    /// padded inner digest.
    pub fn derive_u64_with(&self, data: &[u8]) -> u64 {
        let mac = self.mac_with(data);
        u64::from_be_bytes([
            mac[0], mac[1], mac[2], mac[3], mac[4], mac[5], mac[6], mac[7],
        ])
    }

    /// One-shot HMAC of `data` under `key`.
    pub fn mac(key: &[u8], data: &[u8]) -> [u8; SHA256_OUTPUT_SIZE] {
        Self::new(key).mac_with(data)
    }

    /// Derive a 64-bit value from `key` and `data`; convenience helper used to
    /// map (FAK, path) pairs and (logical block, nonce) pairs onto block
    /// numbers.
    pub fn derive_u64(key: &[u8], data: &[u8]) -> u64 {
        Self::new(key).derive_u64_with(data)
    }
}

impl LaneHash for HmacSha256 {
    /// Both hashes of every message `N` wide, from the precomputed key
    /// states: the inner one over the messages, the outer one over the
    /// 32-byte inner digests (one padded block each).
    fn lanes<const N: usize>(&self, msgs: [&[u8]; N]) -> [[u8; SHA256_OUTPUT_SIZE]; N] {
        let backend = self.inner0.backend();
        let keyed = |key_state: &Sha256, msgs| {
            finish_many(backend, [key_state.chaining_state(); N], msgs, BLOCK_SIZE)
        };
        let inner = keyed(&self.inner0, msgs);
        keyed(&self.outer0, core::array::from_fn(|lane| &inner[lane][..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SHA_LANES;

    fn hex(digest: &[u8]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc4231_test_case_1() {
        let key = [0x0bu8; 20];
        let mac = HmacSha256::mac(&key, b"Hi There");
        assert_eq!(
            hex(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_test_case_2() {
        let mac = HmacSha256::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_test_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let mac = HmacSha256::mac(&key, &data);
        assert_eq!(
            hex(&mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_test_case_4() {
        let key: Vec<u8> = (0x01..=0x19).collect();
        let data = [0xcdu8; 50];
        let mac = HmacSha256::mac(&key, &data);
        assert_eq!(
            hex(&mac),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    #[test]
    fn rfc4231_test_case_5_truncated() {
        // RFC 4231 specifies the output truncated to 128 bits for this case.
        let key = [0x0cu8; 20];
        let mac = HmacSha256::mac(&key, b"Test With Truncation");
        assert_eq!(hex(&mac[..16]), "a3b6167473100ee06e0c796c2955552b");
    }

    #[test]
    fn rfc4231_test_case_6_long_key() {
        let key = [0xaau8; 131];
        let mac = HmacSha256::mac(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_test_case_7_long_key_and_data() {
        let key = [0xaau8; 131];
        let mac = HmacSha256::mac(
            &key,
            b"This is a test using a larger than block-size key and a larger than \
              block-size data. The key needs to be hashed before being used by the \
              HMAC algorithm.",
        );
        assert_eq!(
            hex(&mac),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    fn available_backends() -> Vec<Sha256Backend> {
        [Sha256Backend::Scalar, Sha256Backend::ShaNi]
            .into_iter()
            .filter(|b| b.is_available())
            .collect()
    }

    #[test]
    fn rfc4231_vectors_through_every_lane_width_on_every_backend() {
        let long_key = [0xaau8; 131];
        let key4: Vec<u8> = (0x01..=0x19).collect();
        let cases: [(&[u8], &[u8], &str); 6] = [
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
                &[0xaau8; 20],
                &[0xddu8; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                &key4,
                &[0xcdu8; 50],
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            ),
            (
                &long_key,
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            (
                &long_key,
                b"This is a test using a larger than block-size key and a larger than \
                  block-size data. The key needs to be hashed before being used by the \
                  HMAC algorithm.",
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ];
        for backend in available_backends() {
            for (key, msg, expected) in cases {
                let keyed = HmacSha256::with_backend(key, backend);
                // One group of every width, and one past a full group.
                for n in 1..=SHA_LANES + 1 {
                    let mut macs = vec![[0u8; SHA256_OUTPUT_SIZE]; n];
                    keyed.mac_many(&vec![msg; n], &mut macs);
                    for (lane, mac) in macs.iter().enumerate() {
                        assert_eq!(
                            hex(mac),
                            expected,
                            "{} bytes, message {lane} of {n} on {}",
                            msg.len(),
                            backend.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mac_many_matches_a_mac_with_loop() {
        // 0..=9 messages — none, every partial group, full groups and one
        // over two — at every length around the padding boundaries (a tail of
        // one block or two) and at the sizes the stores MAC, each message its
        // own bytes. The reference is the incremental API, whose padding is
        // `Sha256::finalize`'s, not `finish_many`'s.
        let reference = |keyed: &HmacSha256, msg: &[u8]| {
            let mut h = keyed.clone();
            h.update(msg);
            h.finalize()
        };
        let bytes = |len: usize, salt: usize| -> Vec<u8> {
            (0..len).map(|i| (i * 29 + salt * 113 + 5) as u8).collect()
        };
        let lens = [0usize, 1, 55, 56, 63, 64, 65, 119, 120, 128, 4080, 4096];
        for backend in available_backends() {
            let keyed = HmacSha256::with_backend(b"many-message key", backend);
            for n in 0..=9usize {
                for len in lens {
                    let msgs: Vec<Vec<u8>> = (0..n).map(|i| bytes(len, i)).collect();
                    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
                    let mut many = vec![[0u8; SHA256_OUTPUT_SIZE]; n];
                    keyed.mac_many(&refs, &mut many);
                    for (i, msg) in refs.iter().enumerate() {
                        let expected = reference(&keyed, msg);
                        assert_eq!(many[i], expected, "{n} x {len} on {}", backend.name());
                        assert_eq!(keyed.mac_with(msg), expected);
                    }
                }
                // Mixed lengths: groups that fall back buffer by buffer next
                // to groups that do not.
                let msgs: Vec<Vec<u8>> = (0..n)
                    .map(|i| bytes(if i < 4 { 4080 } else { lens[i] }, i))
                    .collect();
                let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
                let mut many = vec![[0u8; SHA256_OUTPUT_SIZE]; n];
                keyed.mac_many(&refs, &mut many);
                let looped: Vec<_> = refs.iter().map(|msg| reference(&keyed, msg)).collect();
                assert_eq!(many, looped, "{n} mixed on {}", backend.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "one digest per message")]
    fn mac_many_wants_one_slot_per_message() {
        HmacSha256::new(b"k").mac_many(&[b"a", b"b"], &mut [[0u8; SHA256_OUTPUT_SIZE]]);
    }

    #[test]
    fn mac_with_reuses_key_state() {
        let keyed = HmacSha256::new(b"reusable key");
        for msg in [b"first".as_slice(), b"second", b"", b"first"] {
            assert_eq!(keyed.mac_with(msg), HmacSha256::mac(b"reusable key", msg));
            assert_eq!(
                keyed.derive_u64_with(msg),
                HmacSha256::derive_u64(b"reusable key", msg)
            );
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = b"some key material";
        let data = b"the quick brown fox jumps over the lazy dog";
        let oneshot = HmacSha256::mac(key, data);
        let mut h = HmacSha256::new(key);
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), oneshot);
    }

    #[test]
    fn derive_u64_fast_path_matches_generic_mac() {
        // Straddle the 55-byte boundary between a one-block and a two-block
        // padded tail; every length must agree with the incrementally
        // computed MAC truncated to its first 8 bytes.
        let keyed = HmacSha256::new(b"fast path key");
        for len in [0usize, 1, 8, 31, 54, 55, 56, 57, 120] {
            let data: Vec<u8> = (0..len).map(|i| (i * 13 % 251) as u8).collect();
            let mut incremental = keyed.clone();
            incremental.update(&data);
            let mac = incremental.finalize();
            let expected = u64::from_be_bytes(mac[..8].try_into().unwrap());
            assert_eq!(keyed.derive_u64_with(&data), expected, "length {len}");
        }
    }

    #[test]
    fn derive_u64_is_deterministic_and_key_sensitive() {
        let a = HmacSha256::derive_u64(b"key-a", b"/secret/report.doc");
        let b = HmacSha256::derive_u64(b"key-a", b"/secret/report.doc");
        let c = HmacSha256::derive_u64(b"key-b", b"/secret/report.doc");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
