//! SHA-256 based deterministic random bit generator.
//!
//! The paper (Section 6.1): "the pseudo-random number generator is constructed
//! from SHA256". `HashDrbg` follows the shape of NIST SP 800-90A's Hash_DRBG:
//! an internal value `V` and constant `C` derived from the seed, output blocks
//! produced by hashing a counter chained with `V`, and a reseed operation that
//! folds new entropy into the state.
//!
//! The generator is deterministic for a given seed, which the reproduction
//! relies on: experiments become reproducible and property tests can replay
//! exact block-selection sequences.

use crate::backend;
use crate::sha256::{compress_many, digest_bytes, Sha256, H0, SHA256_OUTPUT_SIZE, SHA_LANES};

const OUT: usize = SHA256_OUTPUT_SIZE;

/// Deterministic random bit generator backed by SHA-256.
#[derive(Clone)]
pub struct HashDrbg {
    /// `V` followed by its constant SHA-256 padding: the one 64-byte block
    /// whose digest is the next output block.
    v_block: [u8; 64],
    c: [u8; 32],
    reseed_counter: u64,
    /// The last output block; bytes from `cursor` on are not yet handed out.
    buffer: [u8; OUT],
    cursor: usize,
}

impl HashDrbg {
    /// Instantiate from arbitrary seed material.
    pub fn new(seed: &[u8]) -> Self {
        let tagged = |tag: u8| {
            let mut h = Sha256::new();
            h.update(&[tag]);
            h.update(seed);
            h.finalize()
        };
        let mut rng = Self {
            v_block: [0u8; 64],
            c: tagged(0x02),
            reseed_counter: 1,
            buffer: [0u8; OUT],
            cursor: OUT,
        };
        rng.v_block[..OUT].copy_from_slice(&tagged(0x01));
        // SHA-256 padding of a 32-byte message: 0x80, zeros, bit length 256.
        rng.v_block[OUT] = 0x80;
        rng.v_block[56..].copy_from_slice(&(8 * OUT as u64).to_be_bytes());
        rng
    }

    /// Instantiate from a 64-bit seed; convenience for tests and experiments.
    pub fn from_u64(seed: u64) -> Self {
        Self::new(&seed.to_be_bytes())
    }

    /// Fold additional entropy into the generator state.
    pub fn reseed(&mut self, extra: &[u8]) {
        let mut h = Sha256::new();
        h.update(&[0x03]);
        h.update(&self.v_block[..OUT]);
        h.update(extra);
        self.v_block[..OUT].copy_from_slice(&h.finalize());
        let mut h = Sha256::new();
        h.update(&[0x04]);
        h.update(&self.c);
        h.update(extra);
        self.c = h.finalize();
        self.reseed_counter = self.reseed_counter.wrapping_add(1);
        self.cursor = OUT;
    }

    /// The next `N` output blocks. Each is SHA-256(V), after which
    /// V = V + C + reseed_counter (mod 2^256, big-endian): V never depends on
    /// an output, so the `N` values of V are laid out first and hashed as `N`
    /// independent one-block streams.
    fn next_blocks<const N: usize>(&mut self) -> [[u8; OUT]; N] {
        let mut vs = [[0u8; 64]; N];
        for v in &mut vs {
            *v = self.v_block;
            let mut carry = self.reseed_counter;
            for (v, c) in self.v_block[..OUT]
                .as_chunks_mut::<8>()
                .0
                .iter_mut()
                .zip(self.c.as_chunks::<8>().0)
                .rev()
            {
                let sum =
                    u64::from_be_bytes(*v) as u128 + u64::from_be_bytes(*c) as u128 + carry as u128;
                *v = (sum as u64).to_be_bytes();
                carry = (sum >> 64) as u64;
            }
            self.reseed_counter = self.reseed_counter.wrapping_add(1);
        }
        let mut states = [H0; N];
        compress_many(
            backend::sha256_active(),
            &mut states,
            core::array::from_fn(|lane| &vs[lane][..]),
            1,
        );
        states.map(|state| digest_bytes(&state))
    }

    /// Fill `dest` with pseudo-random bytes: what is left of the last output
    /// block, then whole blocks written straight into `dest` —
    /// [`SHA_LANES`] at a time while that many are wanted — then the head
    /// of one more block whose rest stays buffered.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        let take = (OUT - self.cursor).min(dest.len());
        dest[..take].copy_from_slice(&self.buffer[self.cursor..self.cursor + take]);
        self.cursor += take;
        let mut groups = dest[take..].chunks_exact_mut(SHA_LANES * OUT);
        for group in &mut groups {
            let blocks = self.next_blocks::<SHA_LANES>();
            for (dest, block) in group.chunks_exact_mut(OUT).zip(&blocks) {
                dest.copy_from_slice(block);
            }
        }
        let mut blocks = groups.into_remainder().chunks_exact_mut(OUT);
        for block in &mut blocks {
            block.copy_from_slice(&self.next_blocks::<1>()[0]);
        }
        let tail = blocks.into_remainder();
        if !tail.is_empty() {
            [self.buffer] = self.next_blocks();
            tail.copy_from_slice(&self.buffer[..tail.len()]);
            self.cursor = tail.len();
        }
    }

    /// Produce a vector of `n` pseudo-random bytes.
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut v = vec![0u8; n];
        self.fill_bytes(&mut v);
        v
    }

    /// Next pseudo-random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill_bytes(&mut b);
        u64::from_be_bytes(b)
    }

    /// Uniform value in `[0, bound)` using rejection sampling to avoid modulo
    /// bias. `bound` must be non-zero.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be non-zero");
        if bound == 1 {
            return 0;
        }
        // Largest multiple of bound that fits in u64.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle of a slice, used for level re-ordering
    /// permutations in the oblivious storage.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        if items.len() < 2 {
            return;
        }
        for i in (1..items.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

impl core::fmt::Debug for HashDrbg {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print internal state.
        f.debug_struct("HashDrbg")
            .field("reseed_counter", &self.reseed_counter)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // First 256 output bytes, generated by the Vec-buffered implementation
    // this one replaced: the stream is part of every pinned device image.
    const KAT_SEED_0: [&str; 8] = [
        "e5d196bfb21caca9dbd654cafb3b4dc0c4882c8927d2eb300d9539dd0b934228",
        "7bef84a9f5b98906b30c0e7facafaa6f4b8b8164312600d56cb1fb4bb7de55fa",
        "56310cd40715d077b13cfbc4737eabb99844cc8f3461b85544887ee4e7d19a4f",
        "d6a2457cdf8ccabd539b82d4cdf892ad9a2d54588f8aca3b63605339586da7d7",
        "8f04ac428a38c35324788ec42a914a0712b934d7facf21f2d816d866fb90a168",
        "0ffdcdfe0f27bcc66ec7bfd3fb6523720d76ca4fc9f852bce5d33cd8a59cc7ea",
        "71d09d2153d366bb587756f09151cbbd0426c5b7a9a7c9c300c2e82e97d31a04",
        "576280c06f96d6e8a465ffdee2b300ee31974dcbbcaff932b0487ce5e1fc601b",
    ];
    const KAT_SEED_1: [&str; 8] = [
        "a9dd41242dfb82d7800d4c5c95163da288426d6b4cf357cfd9d00e25096247a0",
        "7612a8172744ff6b12c165ec3e05820c6a72979b464b7250d5f99283c2d4e1b7",
        "613501d81752d925a3bd5cb8fedfd46c2d815be04da8f6de6f0e5fb39460024c",
        "2574d80fd418be31ab54b3bade8ac430c3ac8699542382491a7ead3e89ab8167",
        "d5715183017ff6fa972f9350fa69145596cd162b96db67a33fdcc99aa66475ed",
        "6bb50f8ff6604396060c085ba21efe5f56467bdcf5d66cd06c77ac04392d5b04",
        "ffb1f8de9c5f5fb0bee7c2d6e0818e2e788a593dee56f4c78406815bc2aa49cf",
        "a5beb3e478f8524a1f7554b338fe6db5eb6a912beb382caa18d6c9f58a2622f0",
    ];
    const KAT_SEED_42: [&str; 8] = [
        "6bb983db9f8c133ef78e9cb6f66ddc42de5f7c4857c801b95f4cadbce381c00b",
        "f4ec241f38befc58e21d4d0a4cb661e2180d4509761d90902879d02d03189860",
        "4b588136fa07891b677503267f2fe60aee6f87afe8d21b142b1ad6a40b16fb97",
        "5226807c1955ff1c00d1ef90bc3c305982d8f381f5ad836443a1ba3209f71827",
        "bf54407c4e1ae1069396e38238551c0e491ccade1feae67254e780d801fd450a",
        "3c351bf92485efde64a4cc6423e02b16439926c70719b365ed5a36346127d663",
        "e563066d7db3daa25725718686666bb0409853ee4d22cdc05d2d765e870105d5",
        "8885ac1a8a5b121d1ed719ce27856943e7afbfb43707b338eb901da7a6cbb352",
    ];
    const KAT_RESEED: [&str; 8] = [
        "fe06a9ab2daaa157b21d0e50f7a970d3ae8ae6bb8dad5eb91859fef07bdc8960",
        "0e6e1cc8d47596317e224a0eae343a3fd622c45e68531fa4abfe21e73ee922cb",
        "3b80b3f188011942be24ed924516fcf53d2c2774705566becaab51b716bec558",
        "7948674d07f9329d6218f1c158598da0c3c14befc2c2f0321f6f606177a60daa",
        "b5b84628e89a65da07d321f40ab2ba2ddedabba8506bfa29ee9b3fa0e38be20b",
        "b8a0c661b9c01060712fe09e19a82b32b8d8496428dc61cd8f45cf3d07c5ee29",
        "56b1e98a318ef224efe9bbcaf19baeab4c03c564d549df9c4b625572aa64e198",
        "8e20737dec655a7d675a2c6851cde00f8d63e4150f96040f4b293fbd43ffd51a",
    ];
    const KAT_CHUNKED: [&str; 8] = [
        "29bc1834515b006437386f9e6974615fa5a4fb4873eac68ace24357a889f75c7",
        "de384412d10f1fcb820845222e6e8e1c95f14d7ece0595b27103a9ac6324e99d",
        "7f0a0c6504dcbc7906f225527d2afc525b418d44ebe35d9b370c0f51a1de3b48",
        "e8dec522b1716b8a3a61cf7070c6d9324ee9b159e685155c7515e2f129ee3616",
        "ad77fcae49534a7db479eba92907a2cf661a8330ef68082a8f88a7efc0cb05c8",
        "5008ca555860427d3da4b279dc20f53bca011e0b0c71a1713b70a68dd7bbea99",
        "192a9547e46fbe1d28f21e0f0c3b46a8c5e43b1cdba1ba4e52b49caa3bc1d027",
        "4ee4ba554f0b11ed3cb284c6c3ee203d4266af3ece5fcb1bf7c2e908ac931ad6",
    ];

    fn unhex(rows: &[&str]) -> Vec<u8> {
        rows.iter()
            .flat_map(|row| {
                (0..row.len())
                    .step_by(2)
                    .map(|i| u8::from_str_radix(&row[i..i + 2], 16).unwrap())
            })
            .collect()
    }

    #[test]
    fn known_answers() {
        for (seed, kat) in [(0, KAT_SEED_0), (1, KAT_SEED_1), (42, KAT_SEED_42)] {
            assert_eq!(
                HashDrbg::from_u64(seed).bytes(256),
                unhex(&kat),
                "seed {seed}"
            );
        }

        // A reseed drops the 27 buffered bytes and moves both V and C.
        let mut rng = HashDrbg::from_u64(42);
        assert_eq!(rng.bytes(5), unhex(&KAT_SEED_42)[..5]);
        rng.reseed(b"extra entropy");
        assert_eq!(rng.bytes(256), unhex(&KAT_RESEED));

        // Draws that start and end inside, on and across block boundaries.
        let mut rng = HashDrbg::from_u64(7);
        let drawn: Vec<u8> = [5usize, 32, 7, 4096]
            .into_iter()
            .flat_map(|n| rng.bytes(n))
            .collect();
        assert_eq!(drawn[..256], unhex(&KAT_CHUNKED));
        assert_eq!(
            crate::sha256(&drawn).to_vec(),
            unhex(&["bcc7e0ddc344198af1fcc57b498a4718e556c827bcd7e8ae7966628f4dfa01f5"])
        );
        assert_eq!(rng.next_u64(), 0x9b62_a8a1_1211_34bc);
        assert_eq!(HashDrbg::from_u64(7).bytes(drawn.len()), drawn);
    }

    /// The generator one block at a time through the one-shot hash, bytes
    /// handed out singly: what the lane-grouped `fill_bytes` must reproduce.
    struct Reference {
        v: [u8; 32],
        c: [u8; 32],
        reseed_counter: u64,
        left: Vec<u8>,
    }

    impl Reference {
        fn tagged(tag: u8, parts: &[&[u8]]) -> [u8; 32] {
            let mut input = vec![tag];
            parts.iter().for_each(|p| input.extend_from_slice(p));
            crate::sha256(&input)
        }

        fn new(seed: u64) -> Self {
            let seed = seed.to_be_bytes();
            Self {
                v: Self::tagged(0x01, &[&seed]),
                c: Self::tagged(0x02, &[&seed]),
                reseed_counter: 1,
                left: Vec::new(),
            }
        }

        fn reseed(&mut self, extra: &[u8]) {
            self.v = Self::tagged(0x03, &[&self.v, extra]);
            self.c = Self::tagged(0x04, &[&self.c, extra]);
            self.reseed_counter += 1;
            self.left.clear();
        }

        fn bytes(&mut self, n: usize) -> Vec<u8> {
            while self.left.len() < n {
                self.left.extend_from_slice(&crate::sha256(&self.v));
                // V = V + C + reseed_counter, byte by byte from the low end.
                let mut addend = [0u8; 32];
                addend[24..].copy_from_slice(&self.reseed_counter.to_be_bytes());
                for term in [self.c, addend] {
                    let mut carry = 0u16;
                    for (v, t) in self.v.iter_mut().zip(term).rev() {
                        let sum = *v as u16 + t as u16 + carry;
                        *v = sum as u8;
                        carry = sum >> 8;
                    }
                }
                self.reseed_counter += 1;
            }
            self.left.drain(..n).collect()
        }
    }

    #[test]
    fn every_split_of_a_draw_gives_the_one_shot_stream() {
        let one_shot = HashDrbg::from_u64(11).bytes(1024);
        assert_eq!(one_shot, Reference::new(11).bytes(1024));
        for split in 0..=1024 {
            let mut rng = HashDrbg::from_u64(11);
            let mut drawn = vec![0u8; 1024];
            let (head, tail) = drawn.split_at_mut(split);
            rng.fill_bytes(head);
            rng.fill_bytes(tail);
            assert_eq!(drawn, one_shot, "split at {split}");
        }
    }

    #[test]
    fn clone_and_reseed_inside_a_lane_group_keep_the_stream() {
        // Stop at every offset of the first two lane groups — inside a block,
        // on a block boundary that is not a group boundary, on a group
        // boundary — then clone, and reseed the clone's twin.
        for stop in 0..=2 * SHA_LANES * OUT {
            let mut rng = HashDrbg::from_u64(12);
            let mut reference = Reference::new(12);
            assert_eq!(rng.bytes(stop), reference.bytes(stop), "stop {stop}");
            let mut twin = rng.clone();
            assert_eq!(twin.bytes(300), rng.clone().bytes(300), "clone at {stop}");
            assert_eq!(rng.bytes(300), reference.bytes(300), "clone at {stop}");
            twin.reseed(b"mid-group");
            reference.reseed(b"mid-group");
            assert_eq!(twin.bytes(4096), reference.bytes(4096), "reseed at {stop}");
        }
    }

    #[test]
    fn iv_sized_and_block_sized_draws_interleave_on_one_stream() {
        // The volume DRBG's real diet: 16-byte IVs and 8-byte values between
        // 4 KB randomised blocks.
        let mut rng = HashDrbg::from_u64(13);
        let mut reference = Reference::new(13);
        let mut drawn = Vec::new();
        for round in 0..6 {
            for n in [16usize, 4096, 8, 16, 16, 4096, 4080, 8 + round] {
                let bytes = rng.bytes(n);
                assert_eq!(bytes, reference.bytes(n), "round {round}, draw of {n}");
                drawn.extend(bytes);
            }
        }
        assert_eq!(HashDrbg::from_u64(13).bytes(drawn.len()), drawn);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = HashDrbg::from_u64(42);
        let mut b = HashDrbg::from_u64(42);
        assert_eq!(a.bytes(100), b.bytes(100));
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = HashDrbg::from_u64(1);
        let mut b = HashDrbg::from_u64(2);
        assert_ne!(a.bytes(64), b.bytes(64));
    }

    #[test]
    fn reseed_changes_stream() {
        let mut a = HashDrbg::from_u64(7);
        let mut b = HashDrbg::from_u64(7);
        b.reseed(b"extra entropy");
        assert_ne!(a.bytes(64), b.bytes(64));
    }

    #[test]
    fn gen_range_respects_bound() {
        let mut rng = HashDrbg::from_u64(123);
        for bound in [1u64, 2, 3, 7, 100, 1 << 40] {
            for _ in 0..200 {
                assert!(rng.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = HashDrbg::from_u64(999);
        let bound = 10u64;
        let mut counts = [0usize; 10];
        let samples = 50_000;
        for _ in 0..samples {
            counts[rng.gen_range(bound) as usize] += 1;
        }
        let expected = samples as f64 / bound as f64;
        for (i, &c) in counts.iter().enumerate() {
            let deviation = (c as f64 - expected).abs() / expected;
            assert!(deviation < 0.05, "bucket {i} deviates by {deviation}");
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = HashDrbg::from_u64(5);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = HashDrbg::from_u64(77);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        // With 100 elements the identity permutation is astronomically
        // unlikely.
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn byte_stream_is_balanced() {
        // Rough sanity check that bit frequencies are near 50 %.
        let mut rng = HashDrbg::from_u64(31337);
        let bytes = rng.bytes(64 * 1024);
        let ones: u64 = bytes.iter().map(|b| b.count_ones() as u64).sum();
        let total_bits = (bytes.len() * 8) as f64;
        let ratio = ones as f64 / total_bits;
        assert!((0.49..0.51).contains(&ratio), "bit ratio {ratio}");
    }
}
