//! Stripe geometry, per-block integrity checks and the per-file stripe map.
//!
//! Every hidden file's content blocks are grouped into stripes of `k`
//! consecutive blocks; each stripe gets `m` parity blocks placed like any
//! other hidden block. The [`StripeMap`] records, per data block, two
//! integrity checks over the *plaintext* data field, plus the location and
//! checks of every parity block:
//!
//! * a 16-byte truncated HMAC-SHA-256 — the authoritative check the scrub
//!   pass verifies (forging it requires the MAC key);
//! * an 8-byte keyed multiply-xor hash — the cheap check the read path
//!   verifies on every block so that silent corruption is caught inline
//!   without paying a second SHA-256 pass per read (HMAC on the read path
//!   would cost more than the AES decrypt itself and blow the striping
//!   overhead budget).
//!
//! The map is persisted as the content of a *shadow hidden file* — sealed and
//! scattered like every other hidden file — so it never appears in plaintext
//! on disk.

use stegfs_base::wire::{Reader, Sink, WireError, Writer};
use stegfs_crypto::{HmacSha256, Key256, SHA_LANES};

use crate::error::ResilienceError;

/// Magic prefix of an encoded stripe map.
const MAP_MAGIC: [u8; 8] = *b"RSMAP001";

/// Striping parameters: `k` data blocks + `m` parity blocks per stripe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeConfig {
    /// Data blocks per stripe.
    pub k: usize,
    /// Parity blocks per stripe.
    pub m: usize,
}

impl StripeConfig {
    /// Create a configuration, validating the code shape.
    pub fn new(k: usize, m: usize) -> Self {
        assert!(k >= 1 && m >= 1 && k + m <= 256, "invalid stripe shape");
        Self { k, m }
    }

    /// Stripe index covering data block `index`.
    pub fn stripe_of(&self, index: u64) -> u64 {
        index / self.k as u64
    }

    /// Number of stripes needed for `num_data` data blocks.
    pub fn num_stripes(&self, num_data: u64) -> u64 {
        num_data.div_ceil(self.k as u64)
    }
}

/// The pair of integrity checks kept for one block's plaintext.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockCheck {
    /// Keyed multiply-xor hash; verified on every read.
    pub fast: u64,
    /// Truncated HMAC-SHA-256; verified by scrub.
    pub mac: [u8; 16],
}

impl BlockCheck {
    pub(crate) const ENCODED_LEN: usize = 8 + 16;

    pub(crate) fn write<B: Sink>(&self, w: &mut Writer<B>) {
        w.u64(self.fast).bytes(&self.mac);
    }

    pub(crate) fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            fast: r.u64()?,
            mac: r.array()?,
        })
    }
}

/// Location and checks of one parity block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParityEntry {
    /// Physical block holding the sealed parity shard.
    pub location: u64,
    /// Checks over the parity plaintext.
    pub check: BlockCheck,
}

impl ParityEntry {
    const ENCODED_LEN: usize = 8 + BlockCheck::ENCODED_LEN;
}

/// Buffers whose [`ChecksumKeys::fast`] chains are walked together by
/// [`ChecksumKeys::fast_many`].
pub const FAST_LANES: usize = 8;

/// Keys for computing both block checks, derived once per file.
pub struct ChecksumKeys {
    hmac: HmacSha256,
    s0: u64,
    s1: u64,
}

impl ChecksumKeys {
    /// Derive the check keys from a file key (the content key for data and
    /// parity blocks).
    pub fn derive(key: &Key256) -> Self {
        let mac_key = key.derive("resilience:mac");
        let fast_key = key.derive("resilience:fast");
        let mut seeds = Reader::new(fast_key.as_bytes());
        // Invariant: a `Key256` is 32 bytes and the two seeds take 16.
        let mut seed = || seeds.u64().expect("32-byte key") | 1;
        Self {
            hmac: HmacSha256::new(mac_key.as_bytes()),
            s0: seed(),
            s1: seed(),
        }
    }

    /// The authoritative 16-byte truncated HMAC of `data`.
    pub fn mac16(&self, data: &[u8]) -> [u8; 16] {
        let mut out = [[0u8; 16]];
        self.mac16_many(&[data], &mut out);
        out[0]
    }

    /// [`Self::mac16`] of every buffer of `bufs`, written to the matching
    /// entry of `out`: buffers of one length go through the hash
    /// [`SHA_LANES`] at a time ([`HmacSha256::mac_many`]), so a plan that
    /// needs several independent 4 KB MACs pays for a group little more than
    /// for one of them.
    ///
    /// # Panics
    /// If `out` is not as long as `bufs`.
    pub fn mac16_many(&self, bufs: &[&[u8]], out: &mut [[u8; 16]]) {
        assert_eq!(bufs.len(), out.len(), "one MAC per buffer");
        let mut full = [[0u8; 32]; SHA_LANES];
        for (group, macs) in bufs.chunks(SHA_LANES).zip(out.chunks_mut(SHA_LANES)) {
            let full = &mut full[..group.len()];
            self.hmac.mac_many(group, full);
            for (mac, full) in macs.iter_mut().zip(full) {
                mac.copy_from_slice(&full[..16]);
            }
        }
    }

    /// The cheap keyed hash of `data`: a wyhash-style multiply-xor fold over
    /// 8-byte lanes. Not collision-resistant against an adversary who knows
    /// the key — that is what [`ChecksumKeys::mac16`] is for — but any bit
    /// flip or zeroed block changes it with overwhelming probability, which
    /// is the failure model of cover-traffic overwrites.
    pub fn fast(&self, data: &[u8]) -> u64 {
        self.fast_lanes([data])[0]
    }

    /// [`Self::fast`] of every buffer of `bufs`, written to the matching
    /// entry of `out`. One buffer's hash is a serial multiply chain, so a
    /// lone call is bound by the multiplier's latency; buffers of one length
    /// are taken [`FAST_LANES`] at a time and their independent chains walked
    /// in one loop, which keeps the multiplier busy instead. Values are
    /// exactly those of a [`Self::fast`] loop, which is also what a group of
    /// mixed lengths falls back to.
    ///
    /// # Panics
    /// If `out` is not as long as `bufs`.
    pub fn fast_many(&self, bufs: &[&[u8]], out: &mut [u64]) {
        assert_eq!(bufs.len(), out.len(), "one hash per buffer");
        for (group, hashes) in bufs.chunks(FAST_LANES).zip(out.chunks_mut(FAST_LANES)) {
            if group.iter().any(|b| b.len() != group[0].len()) {
                for (buf, hash) in group.iter().zip(hashes) {
                    *hash = self.fast(buf);
                }
                continue;
            }
            // A short group runs at the next power-of-two width, its spare
            // lanes repeating the last buffer: cheaper than splitting it
            // into narrower interleaves.
            match group.len() {
                1 => self.fast_group::<1>(group, hashes),
                2 => self.fast_group::<2>(group, hashes),
                3..=4 => self.fast_group::<4>(group, hashes),
                _ => self.fast_group::<FAST_LANES>(group, hashes),
            }
        }
    }

    fn fast_group<const N: usize>(&self, group: &[&[u8]], hashes: &mut [u64]) {
        let lanes: [&[u8]; N] = core::array::from_fn(|i| group[i.min(group.len() - 1)]);
        hashes.copy_from_slice(&self.fast_lanes(lanes)[..group.len()]);
    }

    /// The hash chains of `N` equal-length buffers, advanced in lockstep.
    fn fast_lanes<const N: usize>(&self, bufs: [&[u8]; N]) -> [u64; N] {
        const M: u64 = 0x9e37_79b9_7f4a_7c15;
        let len = bufs[0].len();
        debug_assert!(bufs.iter().all(|b| b.len() == len));
        let step = |h: u64, v: u64| (h ^ v).wrapping_mul(M).rotate_left(29) ^ self.s1;
        let mut h = [self.s0 ^ (len as u64).wrapping_mul(M); N];
        let whole = len - len % 8;
        for at in (0..whole).step_by(8) {
            for (h, buf) in h.iter_mut().zip(&bufs) {
                let mut lane = [0u8; 8];
                lane.copy_from_slice(&buf[at..at + 8]);
                *h = step(*h, u64::from_le_bytes(lane));
            }
        }
        if whole < len {
            for (h, buf) in h.iter_mut().zip(&bufs) {
                let mut tail = [0u8; 8];
                tail[..len - whole].copy_from_slice(&buf[whole..]);
                *h = step(*h, u64::from_le_bytes(tail));
            }
        }
        // Final avalanche.
        h.map(|mut h| {
            h ^= h >> 32;
            h = h.wrapping_mul(M);
            h ^ (h >> 29)
        })
    }

    /// Both checks of `data` at once.
    pub fn check(&self, data: &[u8]) -> BlockCheck {
        BlockCheck {
            fast: self.fast(data),
            mac: self.mac16(data),
        }
    }

    /// [`Self::check`] of every buffer of `bufs`, the fast halves through
    /// [`Self::fast_many`] and the MAC halves through [`Self::mac16_many`].
    pub fn check_many(&self, bufs: &[&[u8]]) -> Vec<BlockCheck> {
        let mut fast = vec![0u64; bufs.len()];
        self.fast_many(bufs, &mut fast);
        let mut macs = vec![[0u8; 16]; bufs.len()];
        self.mac16_many(bufs, &mut macs);
        fast.into_iter()
            .zip(macs)
            .map(|(fast, mac)| BlockCheck { fast, mac })
            .collect()
    }
}

/// The per-file stripe map: data-block checks plus parity locations/checks.
///
/// Its encoded form has a fixed length for a given (k, m, number of data
/// blocks), so the shadow file holding it can be rewritten in place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripeMap {
    cfg: StripeConfig,
    data: Vec<BlockCheck>,
    parity: Vec<ParityEntry>,
}

impl StripeMap {
    /// Create an all-zero map for a file of `num_data` data blocks.
    pub fn new(cfg: StripeConfig, num_data: u64) -> Self {
        let stripes = cfg.num_stripes(num_data);
        Self {
            cfg,
            data: vec![BlockCheck::default(); num_data as usize],
            parity: vec![ParityEntry::default(); (stripes * cfg.m as u64) as usize],
        }
    }

    /// The striping parameters.
    pub fn config(&self) -> StripeConfig {
        self.cfg
    }

    /// Number of data blocks covered.
    pub fn num_data(&self) -> u64 {
        self.data.len() as u64
    }

    /// Number of stripes.
    pub fn num_stripes(&self) -> u64 {
        self.cfg.num_stripes(self.num_data())
    }

    /// Check of data block `index`.
    pub fn data_check(&self, index: u64) -> &BlockCheck {
        &self.data[index as usize]
    }

    /// Record the check of data block `index`.
    pub fn set_data_check(&mut self, index: u64, check: BlockCheck) {
        self.data[index as usize] = check;
    }

    /// Parity entry `row` of `stripe`.
    pub fn parity_entry(&self, stripe: u64, row: usize) -> &ParityEntry {
        &self.parity[stripe as usize * self.cfg.m + row]
    }

    /// Record parity entry `row` of `stripe`.
    pub fn set_parity_entry(&mut self, stripe: u64, row: usize, entry: ParityEntry) {
        self.parity[stripe as usize * self.cfg.m + row] = entry;
    }

    /// Record a new check for parity row `row` of `stripe` where it lies.
    pub(crate) fn set_parity_check(&mut self, stripe: u64, row: usize, check: BlockCheck) {
        self.parity[stripe as usize * self.cfg.m + row].check = check;
    }

    /// The data-block indices belonging to `stripe` (the final stripe may be
    /// shorter than `k`).
    pub fn stripe_data_range(&self, stripe: u64) -> core::ops::Range<u64> {
        let start = stripe * self.cfg.k as u64;
        let end = (start + self.cfg.k as u64).min(self.num_data());
        start..end
    }

    /// All parity locations in the map, in (stripe, row) order.
    pub fn parity_locations(&self) -> Vec<u64> {
        self.parity.iter().map(|e| e.location).collect()
    }

    /// Encoded length of a map for `num_data` data blocks under `cfg`.
    pub fn encoded_len(cfg: StripeConfig, num_data: u64) -> usize {
        let stripes = cfg.num_stripes(num_data);
        16 + num_data as usize * BlockCheck::ENCODED_LEN
            + (stripes * cfg.m as u64) as usize * ParityEntry::ENCODED_LEN
    }

    /// Serialize; the output length is [`StripeMap::encoded_len`].
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(Self::encoded_len(self.cfg, self.num_data()));
        w.bytes(&MAP_MAGIC)
            .u16(self.cfg.k as u16)
            .u16(self.cfg.m as u16)
            .u32(self.data.len() as u32);
        for c in &self.data {
            c.write(&mut w);
        }
        for e in &self.parity {
            w.u64(e.location);
            e.check.write(&mut w);
        }
        w.finish()
    }

    /// Reconstruct a map from [`StripeMap::encode`] output, validating the
    /// magic, shape and length.
    pub fn decode(buf: &[u8]) -> Result<Self, ResilienceError> {
        let mut r = Reader::new(buf);
        r.magic(&MAP_MAGIC)?;
        let (k, m) = (r.u16()? as usize, r.u16()? as usize);
        if k < 1 || m < 1 || k + m > 256 {
            return Err(ResilienceError::Corrupt(format!(
                "implausible stripe shape k={k} m={m}"
            )));
        }
        let cfg = StripeConfig { k, m };
        let num_data = r.u32()?;
        let data = (0..r.count(num_data, BlockCheck::ENCODED_LEN)?)
            .map(|_| BlockCheck::read(&mut r))
            .collect::<Result<Vec<_>, _>>()?;
        let entries = cfg.num_stripes(num_data as u64) * m as u64;
        let parity = (0..r.count(entries, ParityEntry::ENCODED_LEN)?)
            .map(|_| {
                Ok(ParityEntry {
                    location: r.u64()?,
                    check: BlockCheck::read(&mut r)?,
                })
            })
            .collect::<Result<Vec<_>, WireError>>()?;
        Ok(Self { cfg, data, parity })
    }
}

#[cfg(test)]
impl ChecksumKeys {
    /// A buffer that differs from `data` (16 bytes or more) in its first two
    /// lanes and has the same [`Self::fast`] hash — what "not
    /// collision-resistant against an adversary who knows the key" looks
    /// like: flip a bit of the first lane, then pick the second so that the
    /// chain ([`Self::fast_lanes`]' `step`) is back where it was.
    pub(crate) fn fast_collision(&self, data: &[u8]) -> Vec<u8> {
        const M: u64 = 0x9e37_79b9_7f4a_7c15;
        let step = |h: u64, v: u64| (h ^ v).wrapping_mul(M).rotate_left(29) ^ self.s1;
        let lane = |at: usize| u64::from_le_bytes(data[at..at + 8].try_into().unwrap());
        let start = self.s0 ^ (data.len() as u64).wrapping_mul(M);
        let flipped = lane(0) ^ 1;
        let steered = lane(8) ^ step(start, lane(0)) ^ step(start, flipped);
        let mut out = data.to_vec();
        out[..8].copy_from_slice(&flipped.to_le_bytes());
        out[8..16].copy_from_slice(&steered.to_le_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys() -> ChecksumKeys {
        ChecksumKeys::derive(&Key256::from_passphrase("stripe-test"))
    }

    #[test]
    fn stripe_geometry() {
        let cfg = StripeConfig::new(4, 2);
        assert_eq!(cfg.stripe_of(0), 0);
        assert_eq!(cfg.stripe_of(3), 0);
        assert_eq!(cfg.stripe_of(4), 1);
        assert_eq!(cfg.num_stripes(0), 0);
        assert_eq!(cfg.num_stripes(1), 1);
        assert_eq!(cfg.num_stripes(4), 1);
        assert_eq!(cfg.num_stripes(5), 2);
    }

    #[test]
    fn fast_hash_detects_corruption() {
        let k = keys();
        let data = vec![0x5au8; 4080];
        let h = k.fast(&data);
        assert_eq!(h, k.fast(&data), "deterministic");

        let mut flipped = data.clone();
        flipped[1000] ^= 0x01;
        assert_ne!(h, k.fast(&flipped), "single bit flip detected");

        let zeroed = vec![0u8; 4080];
        assert_ne!(h, k.fast(&zeroed), "zeroing detected");
        assert_ne!(k.fast(&data[..100]), k.fast(&data[..101]), "length bound");
    }

    #[test]
    fn fast_hash_values_are_pinned() {
        // Values of the single-chain loop this crate shipped before
        // `fast_many`: they sit in every persisted stripe map and journal
        // record, so the interleaved walk must reproduce them exactly.
        let k = keys();
        let data: Vec<u8> = (0..4100u32).map(|i| (i * 31 % 251) as u8).collect();
        for (len, pinned) in [
            (0usize, 0xa8c2f343c5ef2f22u64),
            (1, 0xc84a7db603e7e954),
            (7, 0xd5fbf16c606a2a4d),
            (8, 0xc0904fe35683f0fd),
            (13, 0xfbdee8509d5773a4),
            (496, 0x5dafccdb63d86eea),
            (4080, 0xdaa9c5b31b28116e),
            (4100, 0xc0a5b97aedd86a6b),
        ] {
            assert_eq!(k.fast(&data[..len]), pinned, "length {len}");
        }
    }

    proptest::proptest! {
        /// Any number of buffers, equal lengths or not: `fast_many` is a
        /// `fast` loop, and `check_many` a `check` loop.
        #[test]
        fn fast_many_matches_a_fast_loop(
            lens in proptest::collection::vec(0usize..4101, 0..18),
            equal in proptest::prelude::any::<bool>(),
            fill in proptest::prelude::any::<u64>(),
        ) {
            let k = keys();
            let mut x = fill | 1;
            let bufs: Vec<Vec<u8>> = lens
                .iter()
                .map(|&len| {
                    let len = if equal { lens[0] } else { len };
                    (0..len)
                        .map(|_| {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            x as u8
                        })
                        .collect()
                })
                .collect();
            let refs: Vec<&[u8]> = bufs.iter().map(Vec::as_slice).collect();
            let mut many = vec![0u64; refs.len()];
            k.fast_many(&refs, &mut many);
            let looped: Vec<u64> = refs.iter().map(|b| k.fast(b)).collect();
            proptest::prop_assert_eq!(&many, &looped);
            let checks: Vec<BlockCheck> = refs.iter().map(|b| k.check(b)).collect();
            proptest::prop_assert_eq!(k.check_many(&refs), checks);
        }
    }

    #[test]
    fn fast_hash_is_keyed() {
        let a = ChecksumKeys::derive(&Key256::from_passphrase("a"));
        let b = ChecksumKeys::derive(&Key256::from_passphrase("b"));
        let data = vec![7u8; 256];
        assert_ne!(a.fast(&data), b.fast(&data));
        assert_ne!(a.mac16(&data), b.mac16(&data));
    }

    #[test]
    fn mac_matches_plain_hmac_truncation() {
        let master = Key256::from_passphrase("x");
        let k = ChecksumKeys::derive(&master);
        let data = b"payload bytes";
        let expect = HmacSha256::mac(master.derive("resilience:mac").as_bytes(), data);
        assert_eq!(k.mac16(data), expect[..16]);
    }

    #[test]
    fn check_combines_both() {
        let k = keys();
        let data = vec![3u8; 64];
        let c = k.check(&data);
        assert_eq!(c.fast, k.fast(&data));
        assert_eq!(c.mac, k.mac16(&data));
    }

    #[test]
    fn map_roundtrip_and_fixed_length() {
        let cfg = StripeConfig::new(4, 2);
        let mut map = StripeMap::new(cfg, 10);
        assert_eq!(map.num_stripes(), 3);
        let k = keys();
        for i in 0..10u64 {
            map.set_data_check(i, k.check(&[i as u8; 32]));
        }
        for s in 0..3u64 {
            for r in 0..2 {
                map.set_parity_entry(
                    s,
                    r,
                    ParityEntry {
                        location: 100 + s * 10 + r as u64,
                        check: k.check(&[0xF0 ^ s as u8; 32]),
                    },
                );
            }
        }
        let bytes = map.encode();
        assert_eq!(bytes.len(), StripeMap::encoded_len(cfg, 10));
        let decoded = StripeMap::decode(&bytes).unwrap();
        assert_eq!(decoded, map);
        // A fresh map of the same shape encodes to the same length, so the
        // shadow file can be rewritten in place.
        assert_eq!(StripeMap::new(cfg, 10).encode().len(), bytes.len());
    }

    #[test]
    fn short_final_stripe_range() {
        let map = StripeMap::new(StripeConfig::new(4, 1), 6);
        assert_eq!(map.stripe_data_range(0), 0..4);
        assert_eq!(map.stripe_data_range(1), 4..6);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(StripeMap::decode(b"short").is_err());
        let mut bytes = StripeMap::new(StripeConfig::new(4, 2), 5).encode();
        bytes[0] ^= 0xff;
        assert!(StripeMap::decode(&bytes).is_err());
        let bytes = StripeMap::new(StripeConfig::new(4, 2), 5).encode();
        assert!(StripeMap::decode(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn parity_locations_in_order() {
        let mut map = StripeMap::new(StripeConfig::new(2, 2), 4);
        for s in 0..2u64 {
            for r in 0..2 {
                map.set_parity_entry(
                    s,
                    r,
                    ParityEntry {
                        location: s * 2 + r as u64,
                        check: BlockCheck::default(),
                    },
                );
            }
        }
        assert_eq!(map.parity_locations(), vec![0, 1, 2, 3]);
    }

    /// Bytes produced by the encoder as it stood before the port onto
    /// `wire`: the format must not move.
    #[test]
    fn golden_vector_is_bit_identical() {
        const GOLDEN_STRIPE_MAP: &[u8] = b"\
            \x52\x53\x4d\x41\x50\x30\x30\x31\x02\x00\x02\x00\x03\x00\x00\x00\x00\x07\x06\x05\
            \x04\x03\x02\x01\x10\x10\x10\x10\x10\x10\x10\x10\x10\x10\x10\x10\x10\x10\x10\x10\
            \x01\x07\x06\x05\x04\x03\x02\x01\x11\x11\x11\x11\x11\x11\x11\x11\x11\x11\x11\x11\
            \x11\x11\x11\x11\x02\x07\x06\x05\x04\x03\x02\x01\x12\x12\x12\x12\x12\x12\x12\x12\
            \x12\x12\x12\x12\x12\x12\x12\x12\x00\x01\x00\x00\x00\x00\x00\x00\xf0\x00\x00\x00\
            \x00\x00\x00\x00\xa0\xa0\xa0\xa0\xa0\xa0\xa0\xa0\xa0\xa0\xa0\xa0\xa0\xa0\xa0\xa0\
            \x01\x01\x00\x00\x00\x00\x00\x00\xf1\x00\x00\x00\x00\x00\x00\x00\xa1\xa1\xa1\xa1\
            \xa1\xa1\xa1\xa1\xa1\xa1\xa1\xa1\xa1\xa1\xa1\xa1\x10\x01\x00\x00\x00\x00\x00\x00\
            \xf2\x00\x00\x00\x00\x00\x00\x00\xa2\xa2\xa2\xa2\xa2\xa2\xa2\xa2\xa2\xa2\xa2\xa2\
            \xa2\xa2\xa2\xa2\x11\x01\x00\x00\x00\x00\x00\x00\xf3\x00\x00\x00\x00\x00\x00\x00\
            \xa3\xa3\xa3\xa3\xa3\xa3\xa3\xa3\xa3\xa3\xa3\xa3\xa3\xa3\xa3\xa3";
        let mut map = StripeMap::new(StripeConfig::new(2, 2), 3);
        for i in 0..3u64 {
            let check = BlockCheck {
                fast: 0x0102_0304_0506_0700 + i,
                mac: [0x10 + i as u8; 16],
            };
            map.set_data_check(i, check);
        }
        for s in 0..2u64 {
            for r in 0..2usize {
                let check = BlockCheck {
                    fast: 0xf0 + s * 2 + r as u64,
                    mac: [0xa0 + (s * 2) as u8 + r as u8; 16],
                };
                let location = 0x100 + s * 16 + r as u64;
                map.set_parity_entry(s, r, ParityEntry { location, check });
            }
        }
        assert_eq!(map.encode(), GOLDEN_STRIPE_MAP);
        assert_eq!(StripeMap::decode(GOLDEN_STRIPE_MAP).unwrap(), map);
    }
}
