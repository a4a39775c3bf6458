//! Arithmetic in GF(2⁸), the symbol field of the erasure codec.
//!
//! The field is GF(2)[x] / (x⁸ + x⁴ + x³ + x² + 1) — the polynomial
//! conventionally used by Reed–Solomon coders (0x11d), *not* the AES
//! polynomial 0x11b; the two fields are isomorphic but their byte encodings
//! differ, and 0x11d keeps the tables comparable with every published RS
//! implementation. Like the AES T-tables in `stegfs_crypto`, the exp/log
//! tables are fused at compile time, so there is no runtime table-building
//! step and no lazy-init synchronisation.

/// The reduction polynomial, x⁸ + x⁴ + x³ + x² + 1, with the x⁸ bit included.
const POLY: u16 = 0x11d;

/// `EXP[i] = g^i` for the generator `g = 2`, doubled to 510 entries so that
/// `EXP[LOG[a] + LOG[b]]` never needs a `mod 255`.
const EXP: [u8; 510] = build_exp();

/// `LOG[a]` = discrete log of `a` base 2; `LOG[0]` is unused (set to 0).
const LOG: [u8; 256] = build_log();

const fn build_exp() -> [u8; 510] {
    let mut table = [0u8; 510];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        table[i] = x as u8;
        table[i + 255] = x as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        i += 1;
    }
    table
}

const fn build_log() -> [u8; 256] {
    let exp = build_exp();
    let mut table = [0u8; 256];
    let mut i = 0;
    while i < 255 {
        table[exp[i] as usize] = i as u8;
        i += 1;
    }
    table
}

/// Multiply two field elements.
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

/// Multiplicative inverse. Panics on zero, which has no inverse.
#[inline]
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "zero has no inverse in GF(256)");
    EXP[255 - LOG[a as usize] as usize]
}

/// The x86-64 vector kernel; the one module of the crate that may hold
/// `unsafe`.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2;

/// A precomputed multiply-by-constant table: `table[x] = c · x`.
///
/// The codec's hot loops multiply whole 4 KB data fields by one coefficient.
/// The 256-byte table turns that into a lookup per byte; its two 16-entry
/// halves — `c · x` for the low nibble, `c · (x << 4)` for the high one, which
/// XOR to `c · x` because the multiply is linear over GF(2) — are what the
/// vector kernel looks up 32 bytes at a time where the CPU has one.
pub struct MulTable {
    table: [u8; 256],
    /// `c · x` and `c · (x << 4)` for `x` in `0..16`.
    #[cfg(target_arch = "x86_64")]
    nibbles: ([u8; 16], [u8; 16]),
}

impl MulTable {
    /// Build the table for constant `c`.
    pub fn new(c: u8) -> Self {
        let mut table = [0u8; 256];
        if c != 0 {
            let log_c = LOG[c as usize] as usize;
            for (x, slot) in table.iter_mut().enumerate().skip(1) {
                *slot = EXP[log_c + LOG[x] as usize];
            }
        }
        Self {
            #[cfg(target_arch = "x86_64")]
            nibbles: (
                core::array::from_fn(|x| table[x]),
                core::array::from_fn(|x| table[x << 4]),
            ),
            table,
        }
    }

    /// `c · x` via the table.
    #[inline]
    pub fn mul(&self, x: u8) -> u8 {
        self.table[x as usize]
    }

    /// `dst[i] ^= c · src[i]` — the accumulate step of encoding, delta update
    /// and reconstruction. The vector kernel takes the leading whole vectors
    /// when the CPU has it (runtime detection, nothing to configure); the
    /// table loop takes the tail, and everything where it does not.
    ///
    /// # Panics
    /// If the buffers differ in length.
    #[inline]
    pub fn mul_xor_into(&self, dst: &mut [u8], src: &[u8]) {
        assert_eq!(dst.len(), src.len(), "buffers of one length");
        #[cfg(target_arch = "x86_64")]
        let done = self.vector_prefix(dst, src);
        #[cfg(not(target_arch = "x86_64"))]
        let done = 0;
        for (d, &s) in dst[done..].iter_mut().zip(&src[done..]) {
            *d ^= self.table[s as usize];
        }
    }

    /// Run the vector kernel over what it can take; the number of bytes done.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    fn vector_prefix(&self, dst: &mut [u8], src: &[u8]) -> usize {
        #[cfg(test)]
        {
            if TABLE_LOOP_ONLY.get() {
                return 0;
            }
        }
        avx2::mul_xor_into(&self.nibbles.0, &self.nibbles.1, dst, src)
    }
}

#[cfg(test)]
thread_local! {
    /// Set while [`with_table_loop`] runs its closure on this thread.
    static TABLE_LOOP_ONLY: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Run `f` with every [`MulTable::mul_xor_into`] of this thread on the table
/// loop alone — the portable entry the equivalence tests compare the kernel
/// against, so a machine with the kernel and one without both run both loops.
#[cfg(test)]
pub(crate) fn with_table_loop<R>(f: impl FnOnce() -> R) -> R {
    let was = TABLE_LOOP_ONLY.replace(true);
    let out = f();
    TABLE_LOOP_ONLY.set(was);
    out
}

/// The loop detection picked for this machine, for the test log.
#[cfg(test)]
pub(crate) fn kernel_name() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if avx2::detected() {
        return "avx2 split-nibble vpshufb";
    }
    "table loop"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_zero() {
        for a in 0..=255u8 {
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(1, a), a);
            assert_eq!(mul(a, 0), 0);
            assert_eq!(mul(0, a), 0);
        }
    }

    #[test]
    fn multiplication_is_commutative_and_associative() {
        // Deterministic sample sweep; exhaustive associativity is 16M cases.
        for a in (1..=255u8).step_by(7) {
            for b in (1..=255u8).step_by(11) {
                assert_eq!(mul(a, b), mul(b, a));
                for c in (1..=255u8).step_by(31) {
                    assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
                }
            }
        }
    }

    #[test]
    fn distributes_over_xor() {
        for a in (0..=255u8).step_by(5) {
            for b in (0..=255u8).step_by(9) {
                for c in (0..=255u8).step_by(13) {
                    assert_eq!(mul(a, b ^ c), mul(a, b) ^ mul(a, c));
                }
            }
        }
    }

    #[test]
    fn every_nonzero_element_has_an_inverse() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "inv({a})");
        }
    }

    #[test]
    #[should_panic(expected = "no inverse")]
    fn inverse_of_zero_panics() {
        inv(0);
    }

    #[test]
    fn mul_table_matches_scalar_mul() {
        for c in [0u8, 1, 2, 0x1d, 137, 255] {
            let t = MulTable::new(c);
            for x in 0..=255u8 {
                assert_eq!(t.mul(x), mul(c, x));
            }
        }
    }

    #[test]
    fn mul_xor_into_accumulates() {
        let t = MulTable::new(0x37);
        let src = [1u8, 2, 3, 250];
        let mut dst = [0xaau8; 4];
        t.mul_xor_into(&mut dst, &src);
        for i in 0..4 {
            assert_eq!(dst[i], 0xaa ^ mul(0x37, src[i]));
        }
    }

    /// `mul_xor_into` by whatever loop detection picks against the table
    /// loop alone, on buffers cut `dst_at` / `src_at` bytes into an
    /// allocation so neither starts on a vector boundary.
    fn assert_loops_agree(c: u8, len: usize, dst_at: usize, src_at: usize) {
        let t = MulTable::new(c);
        let src: Vec<u8> = (0..src_at + len).map(|i| (i * 37 + 11) as u8).collect();
        let dst: Vec<u8> = (0..dst_at + len).map(|i| (i * 101 + 7) as u8).collect();
        let (mut picked, mut table) = (dst.clone(), dst.clone());
        t.mul_xor_into(&mut picked[dst_at..], &src[src_at..]);
        with_table_loop(|| t.mul_xor_into(&mut table[dst_at..], &src[src_at..]));
        assert_eq!(picked, table, "c={c} len={len} dst+{dst_at} src+{src_at}");
        // The table loop itself against the scalar multiply, and nothing
        // written in front of the buffer.
        assert_eq!(table[..dst_at], dst[..dst_at]);
        for i in 0..len {
            assert_eq!(table[dst_at + i], dst[dst_at + i] ^ mul(c, src[src_at + i]));
        }
    }

    #[test]
    fn kernel_matches_the_table_loop_for_every_constant_and_length() {
        println!("gf256 kernel: {}", kernel_name());
        for c in 0..=255u8 {
            for len in (0..=97).chain([4080, 4096]) {
                assert_loops_agree(c, len, len % 32, c as usize % 32);
            }
        }
    }

    #[test]
    fn kernel_matches_the_table_loop_at_every_offset() {
        // Lengths around one and three vectors: no whole vector, exactly
        // whole vectors, and a tail shorter than a vector behind them.
        for c in [0u8, 1, 2, 0x1d, 0x8e, 255] {
            for len in [31, 32, 33, 96, 97] {
                for dst_at in 0..32 {
                    for src_at in 0..32 {
                        assert_loops_agree(c, len, dst_at, src_at);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one length")]
    fn unequal_buffers_are_refused() {
        MulTable::new(3).mul_xor_into(&mut [0u8; 64], &[0u8; 63]);
    }

    #[test]
    fn generator_has_full_order() {
        // 2 must generate the whole multiplicative group for the log table to
        // be well-defined.
        let mut seen = [false; 256];
        let mut x = 1u8;
        for _ in 0..255 {
            assert!(!seen[x as usize], "generator order < 255");
            seen[x as usize] = true;
            x = mul(x, 2);
        }
        assert_eq!(x, 1, "2^255 must be 1");
    }
}
