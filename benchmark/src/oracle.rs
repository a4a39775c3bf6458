//! The correctness oracle: a shadow model of what every block must hold.
//!
//! A block's payload is a pure function of `(seed, file, block, version)`, so
//! the oracle stores one version number per block instead of the bytes, a
//! writer regenerates the payload it is about to write, and a reader checks
//! every byte it got back against the version the oracle expects. Versions
//! are assigned when an operation is *generated* (operations on one block are
//! generated and executed in the same order), so operations carry what they
//! need and clients share no mutable oracle state while they run.

/// Counts checks made and checks failed; both feed the result line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

fn mix(mut z: u64) -> u64 {
    // splitmix64 finaliser
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The payload function `f(seed, file, block, version)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadFn {
    pub seed: u64,
    /// Bytes per block payload.
    pub len: usize,
}

impl PayloadFn {
    fn base(&self, file: u32, block: u32, version: u32) -> u64 {
        let place = mix(self.seed ^ ((file as u64) << 32 | block as u64).wrapping_mul(GOLDEN));
        mix(place ^ (version as u64).wrapping_mul(GOLDEN))
    }

    fn word(base: u64, i: usize) -> u64 {
        base.wrapping_add((i as u64).wrapping_mul(GOLDEN))
    }

    /// Write the payload into `buf` (`buf.len()` must be `self.len`).
    pub fn fill(&self, file: u32, block: u32, version: u32, buf: &mut [u8]) {
        assert_eq!(buf.len(), self.len);
        let base = self.base(file, block, version);
        let mut words = buf.chunks_exact_mut(8);
        for (i, chunk) in (&mut words).enumerate() {
            chunk.copy_from_slice(&Self::word(base, i).to_le_bytes());
        }
        let tail = words.into_remainder();
        let last = Self::word(base, self.len / 8).to_le_bytes();
        tail.copy_from_slice(&last[..tail.len()]);
    }

    /// Whether `bytes` is exactly the payload — every byte is compared.
    pub fn matches(&self, file: u32, block: u32, version: u32, bytes: &[u8]) -> bool {
        if bytes.len() != self.len {
            return false;
        }
        let base = self.base(file, block, version);
        let words = bytes.chunks_exact(8);
        let tail = words.remainder();
        // Accumulate differences instead of returning early so the loop
        // vectorises; the oracle runs inside the timed loop.
        let mut diff = 0u64;
        for (i, chunk) in words.enumerate() {
            let got = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            diff |= got ^ Self::word(base, i);
        }
        let last = Self::word(base, self.len / 8).to_le_bytes();
        diff == 0 && tail == &last[..tail.len()]
    }

    /// Check a whole file image against the versions of its blocks, one
    /// tally entry per block. A wrong length fails every block.
    pub fn verify_file(&self, file: u32, versions: &[u32], bytes: &[u8], tally: &mut Tally) {
        if bytes.len() != versions.len() * self.len {
            for _ in versions {
                tally.record(false);
            }
            return;
        }
        for (block, (chunk, &version)) in bytes.chunks_exact(self.len).zip(versions).enumerate() {
            tally.record(self.matches(file, block as u32, version, chunk));
        }
    }

    /// Build a whole file image from the versions of its blocks.
    pub fn fill_file(&self, file: u32, versions: &[u32], out: &mut Vec<u8>) {
        out.resize(versions.len() * self.len, 0);
        for (block, (chunk, &version)) in out.chunks_exact_mut(self.len).zip(versions).enumerate() {
            self.fill(file, block as u32, version, chunk);
        }
    }
}

/// The shadow model: the current version of every block of every file.
#[derive(Debug, Clone)]
pub struct Oracle {
    versions: Vec<Vec<u32>>,
}

impl Oracle {
    /// Every block starts at version 0 — what set-up writes.
    pub fn new(files: u32, blocks_per_file: u32) -> Self {
        Self {
            versions: vec![vec![0; blocks_per_file as usize]; files as usize],
        }
    }

    pub fn version(&self, file: u32, block: u32) -> u32 {
        self.versions[file as usize][block as usize]
    }

    /// Advance a block to its next version and return it.
    pub fn bump(&mut self, file: u32, block: u32) -> u32 {
        let v = &mut self.versions[file as usize][block as usize];
        *v += 1;
        *v
    }

    pub fn file_versions(&self, file: u32) -> &[u32] {
        &self.versions[file as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PF: PayloadFn = PayloadFn { seed: 7, len: 4080 };

    #[test]
    fn payload_round_trips_and_depends_on_every_input() {
        let mut a = vec![0u8; PF.len];
        PF.fill(3, 5, 2, &mut a);
        assert!(PF.matches(3, 5, 2, &a));
        assert!(!PF.matches(3, 5, 3, &a), "version");
        assert!(!PF.matches(3, 6, 2, &a), "block");
        assert!(!PF.matches(4, 5, 2, &a), "file");
        let other_seed = PayloadFn { seed: 8, ..PF };
        assert!(!other_seed.matches(3, 5, 2, &a), "seed");
        assert!(!PF.matches(3, 5, 2, &a[..PF.len - 1]), "length");
    }

    #[test]
    fn odd_lengths_check_the_tail_bytes_too() {
        let pf = PayloadFn { seed: 1, len: 21 };
        let mut a = vec![0u8; 21];
        pf.fill(0, 0, 0, &mut a);
        assert!(pf.matches(0, 0, 0, &a));
        a[20] ^= 1;
        assert!(!pf.matches(0, 0, 0, &a));
    }

    #[test]
    fn one_planted_wrong_byte_is_counted_once() {
        let mut oracle = Oracle::new(2, 8);
        oracle.bump(1, 3);
        oracle.bump(1, 3);
        let mut image = Vec::new();
        PF.fill_file(1, oracle.file_versions(1), &mut image);

        let mut clean = Tally::default();
        PF.verify_file(1, oracle.file_versions(1), &image, &mut clean);
        assert_eq!(
            clean,
            Tally {
                attempted: 8,
                failed: 0
            }
        );

        // Flip the last byte of block 3: exactly that block must fail, at
        // every byte position the check covers.
        image[4 * PF.len - 1] ^= 0x01;
        let mut planted = Tally::default();
        PF.verify_file(1, oracle.file_versions(1), &image, &mut planted);
        assert_eq!(
            planted,
            Tally {
                attempted: 8,
                failed: 1
            }
        );

        // A stale version (a lost update) is a wrong block too.
        let mut stale = Vec::new();
        PF.fill_file(1, &[0; 8], &mut stale);
        let mut lost = Tally::default();
        PF.verify_file(1, oracle.file_versions(1), &stale, &mut lost);
        assert_eq!(lost.failed, 1);

        // A truncated image fails every block rather than passing some.
        let mut short = Tally::default();
        PF.verify_file(1, oracle.file_versions(1), &image[..PF.len], &mut short);
        assert_eq!(
            short,
            Tally {
                attempted: 8,
                failed: 8
            }
        );
    }
}
