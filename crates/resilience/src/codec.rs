//! The systematic erasure codec: `k` data shards + `m` parity shards.
//!
//! The parity rows come from a Cauchy matrix `C[i][j] = 1 / (x_i ⊕ y_j)` with
//! `x_i = k + i` and `y_j = j`. Stacked under a k×k identity this gives an
//! MDS generator: *every* k×k minor of the (k+m)×k generator is invertible,
//! so any k surviving shards — data or parity, in any combination —
//! reconstruct the stripe. (A Vandermonde block below an identity does not
//! guarantee this; Cauchy does, which is why production RS coders use it.)
//!
//! Shards here are plaintext data fields of storage blocks. Coding over
//! plaintext rather than ciphertext is deliberate: a dummy update (reseal)
//! re-randomises every ciphertext byte of a block while leaving its plaintext
//! untouched, so ciphertext parity would go stale on every reseal, but
//! plaintext parity survives arbitrarily many of them. Parity shards are then
//! sealed and placed exactly like hidden data blocks, so on disk they remain
//! indistinguishable from free space.

use crate::error::ResilienceError;
use crate::gf256::{self, MulTable};

/// A fixed-(k, m) erasure coder with precomputed parity tables.
pub struct ErasureCodec {
    k: usize,
    m: usize,
    /// `coeff[i][j]` = Cauchy coefficient of data shard `j` in parity row `i`.
    coeff: Vec<Vec<u8>>,
    /// Per-coefficient 256-byte multiply tables, same shape as `coeff`.
    tables: Vec<Vec<MulTable>>,
}

impl ErasureCodec {
    /// Create a coder for stripes of `k` data shards and `m` parity shards.
    ///
    /// Panics unless `k ≥ 1`, `m ≥ 1` and `k + m ≤ 256` (the field has only
    /// 256 evaluation points).
    pub fn new(k: usize, m: usize) -> Self {
        assert!(
            k >= 1 && m >= 1,
            "need at least one data and one parity shard"
        );
        assert!(k + m <= 256, "k + m must not exceed the field size");
        let mut coeff = Vec::with_capacity(m);
        let mut tables = Vec::with_capacity(m);
        for i in 0..m {
            let x = (k + i) as u8;
            let mut row = Vec::with_capacity(k);
            let mut trow = Vec::with_capacity(k);
            for j in 0..k {
                let c = gf256::inv(x ^ j as u8);
                row.push(c);
                trow.push(MulTable::new(c));
            }
            coeff.push(row);
            tables.push(trow);
        }
        Self {
            k,
            m,
            coeff,
            tables,
        }
    }

    /// Number of data shards per stripe.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of parity shards per stripe.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The Cauchy coefficient of data shard `j` in parity row `i`; exposed so
    /// the store can delta-update parity (`p' = p ⊕ C[i][j]·(old ⊕ new)`)
    /// without re-reading the whole stripe.
    pub fn coefficient(&self, parity_row: usize, data_index: usize) -> u8 {
        self.coeff[parity_row][data_index]
    }

    /// Compute the `m` parity shards for one stripe of `k` data shards, all of
    /// equal length.
    pub fn encode(&self, data: &[&[u8]]) -> Vec<Vec<u8>> {
        assert_eq!(data.len(), self.k, "stripe must supply exactly k shards");
        let len = data[0].len();
        for shard in data {
            assert_eq!(shard.len(), len, "shards must be equal length");
        }
        let mut parity = vec![vec![0u8; len]; self.m];
        for (i, p) in parity.iter_mut().enumerate() {
            for (j, shard) in data.iter().enumerate() {
                self.tables[i][j].mul_xor_into(p, shard);
            }
        }
        parity
    }

    /// Fold a data-shard change into existing parity: given
    /// `delta = old ⊕ new` for data shard `data_index`, update every parity
    /// shard in place. Equivalent to re-encoding the stripe, at the cost of
    /// one multiply-accumulate per parity row.
    pub fn apply_delta(&self, data_index: usize, delta: &[u8], parity: &mut [Vec<u8>]) {
        assert_eq!(parity.len(), self.m);
        for (i, p) in parity.iter_mut().enumerate() {
            self.tables[i][data_index].mul_xor_into(p, delta);
        }
    }

    /// Reconstruct every missing shard of a stripe in place.
    ///
    /// `shards` must hold `k + m` entries — data shards `0..k`, then parity
    /// shards `k..k+m` — with `None` marking an erasure. On success all
    /// entries are `Some` and hold `shard_len` bytes. Fails with
    /// [`ResilienceError::TooManyErasures`] when fewer than `k` shards
    /// survive; surviving shards are left untouched in that case.
    pub fn reconstruct(
        &self,
        shards: &mut [Option<Vec<u8>>],
        shard_len: usize,
    ) -> Result<(), ResilienceError> {
        assert_eq!(
            shards.len(),
            self.k + self.m,
            "stripe must have k + m slots"
        );
        let present: Vec<usize> = shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .map(|(i, _)| i)
            .collect();
        if present.len() < self.k {
            return Err(ResilienceError::TooManyErasures {
                present: present.len(),
                needed: self.k,
            });
        }

        let missing_data: Vec<usize> = (0..self.k).filter(|&j| shards[j].is_none()).collect();
        if !missing_data.is_empty() {
            // Select the first k surviving shards and build the k×k submatrix
            // of the generator that produced them, then invert it.
            let rows: Vec<usize> = present.iter().copied().take(self.k).collect();
            let mut matrix = Vec::with_capacity(self.k);
            for &r in &rows {
                if r < self.k {
                    let mut unit = vec![0u8; self.k];
                    unit[r] = 1;
                    matrix.push(unit);
                } else {
                    matrix.push(self.coeff[r - self.k].clone());
                }
            }
            let inverse = invert(matrix, self.k);

            // data[j] = Σ_r inverse[j][r] · shards[rows[r]]; only the missing
            // data shards need materialising.
            for &j in &missing_data {
                let mut out = vec![0u8; shard_len];
                for (r, &row) in rows.iter().enumerate() {
                    let c = inverse[j][r];
                    if c != 0 {
                        // Invariant: `rows` come from `present`, the slots
                        // that held a shard on entry, and this loop fills
                        // only missing data slots, so none of them is taken.
                        let src = shards[row].as_ref().expect("surviving shard");
                        MulTable::new(c).mul_xor_into(&mut out, src);
                    }
                }
                shards[j] = Some(out);
            }
        }

        // All data shards exist now; re-derive any missing parity.
        for i in 0..self.m {
            if shards[self.k + i].is_some() {
                continue;
            }
            let mut out = vec![0u8; shard_len];
            for (j, shard) in shards.iter().enumerate().take(self.k) {
                // Invariant: a data slot held a shard on entry or is one of
                // `missing_data`, which the block above has filled.
                let src = shard.as_ref().expect("data shard reconstructed");
                self.tables[i][j].mul_xor_into(&mut out, src);
            }
            shards[self.k + i] = Some(out);
        }
        Ok(())
    }
}

/// Gauss–Jordan inversion of a k×k matrix over GF(256). The matrix is
/// guaranteed invertible by the Cauchy construction, so a zero pivot would
/// mean a codec bug — it panics rather than returning an error.
fn invert(mut matrix: Vec<Vec<u8>>, k: usize) -> Vec<Vec<u8>> {
    let mut inverse: Vec<Vec<u8>> = (0..k)
        .map(|i| {
            let mut row = vec![0u8; k];
            row[i] = 1;
            row
        })
        .collect();
    for col in 0..k {
        // Find a non-zero pivot at or below the diagonal.
        // Invariant: the caller passes k distinct rows of the generator, and
        // every k×k minor of identity-over-Cauchy is invertible (the module
        // doc's MDS property), so elimination never runs out of pivots.
        let pivot = (col..k)
            .find(|&r| matrix[r][col] != 0)
            .expect("Cauchy submatrix must be invertible");
        matrix.swap(col, pivot);
        inverse.swap(col, pivot);
        // Scale the pivot row to 1.
        let inv_p = gf256::inv(matrix[col][col]);
        for v in matrix[col].iter_mut() {
            *v = gf256::mul(*v, inv_p);
        }
        for v in inverse[col].iter_mut() {
            *v = gf256::mul(*v, inv_p);
        }
        // Eliminate the column everywhere else.
        for row in 0..k {
            if row == col || matrix[row][col] == 0 {
                continue;
            }
            let factor = matrix[row][col];
            for c in 0..k {
                let (m_val, i_val) = (matrix[col][c], inverse[col][c]);
                matrix[row][c] ^= gf256::mul(factor, m_val);
                inverse[row][c] ^= gf256::mul(factor, i_val);
            }
        }
    }
    inverse
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(tag: u8, len: usize) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(31) ^ tag).collect()
    }

    fn stripe(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k).map(|j| shard(j as u8 + 1, len)).collect()
    }

    /// Every erasure pattern of up to m shards (data and parity mixed)
    /// reconstructs the stripe exactly.
    #[test]
    fn all_erasure_patterns_recover_4_2() {
        all_erasure_patterns_recover();
        gf256::with_table_loop(all_erasure_patterns_recover);
    }

    fn all_erasure_patterns_recover() {
        let codec = ErasureCodec::new(4, 2);
        let data = stripe(4, 96);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = codec.encode(&refs);
        let n = 6;
        for mask in 0u32..(1 << n) {
            if mask.count_ones() > 2 {
                continue;
            }
            let mut shards: Vec<Option<Vec<u8>>> = data
                .iter()
                .chain(parity.iter())
                .cloned()
                .map(Some)
                .collect();
            for (i, shard) in shards.iter_mut().enumerate().take(n) {
                if mask & (1 << i) != 0 {
                    *shard = None;
                }
            }
            codec.reconstruct(&mut shards, 96).unwrap();
            for j in 0..4 {
                assert_eq!(shards[j].as_ref().unwrap(), &data[j], "mask {mask:#b}");
            }
            for i in 0..2 {
                assert_eq!(
                    shards[4 + i].as_ref().unwrap(),
                    &parity[i],
                    "mask {mask:#b}"
                );
            }
        }
    }

    #[test]
    fn more_than_m_erasures_rejected() {
        let codec = ErasureCodec::new(4, 2);
        let data = stripe(4, 32);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = codec.encode(&refs);
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .chain(parity.iter())
            .cloned()
            .map(Some)
            .collect();
        shards[0] = None;
        shards[2] = None;
        shards[4] = None;
        let err = codec.reconstruct(&mut shards, 32).unwrap_err();
        assert!(matches!(
            err,
            ResilienceError::TooManyErasures {
                present: 3,
                needed: 4
            }
        ));
        // Survivors untouched.
        assert_eq!(shards[1].as_ref().unwrap(), &data[1]);
        assert_eq!(shards[5].as_ref().unwrap(), &parity[1]);
    }

    #[test]
    fn single_parity_detectable_shapes() {
        for (k, m) in [(4usize, 1usize), (8, 2), (2, 3), (1, 1), (16, 4)] {
            let codec = ErasureCodec::new(k, m);
            let data = stripe(k, 48);
            let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
            let parity = codec.encode(&refs);
            // Erase the worst case: the last m shards among data where
            // possible (forces a real matrix solve).
            let mut shards: Vec<Option<Vec<u8>>> = data
                .iter()
                .chain(parity.iter())
                .cloned()
                .map(Some)
                .collect();
            for i in 0..m.min(k) {
                shards[k - 1 - i] = None;
            }
            codec.reconstruct(&mut shards, 48).unwrap();
            for j in 0..k {
                assert_eq!(shards[j].as_ref().unwrap(), &data[j], "(k,m)=({k},{m})");
            }
        }
    }

    #[test]
    fn xor_parity_for_m_equals_one() {
        // With m = 1 and the Cauchy construction the parity is a weighted sum,
        // not a plain XOR — but erasing any single shard must still recover.
        let codec = ErasureCodec::new(4, 1);
        let data = stripe(4, 64);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = codec.encode(&refs);
        for lost in 0..5 {
            let mut shards: Vec<Option<Vec<u8>>> = data
                .iter()
                .chain(parity.iter())
                .cloned()
                .map(Some)
                .collect();
            shards[lost] = None;
            codec.reconstruct(&mut shards, 64).unwrap();
            for j in 0..4 {
                assert_eq!(shards[j].as_ref().unwrap(), &data[j]);
            }
        }
    }

    #[test]
    fn delta_update_matches_reencode() {
        delta_update_matches();
        gf256::with_table_loop(delta_update_matches);
    }

    fn delta_update_matches() {
        let codec = ErasureCodec::new(4, 2);
        let mut data = stripe(4, 80);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let mut parity = codec.encode(&refs);

        // Change data shard 2 and delta-update the parity.
        let new_shard = shard(0xCC, 80);
        let delta: Vec<u8> = data[2]
            .iter()
            .zip(new_shard.iter())
            .map(|(a, b)| a ^ b)
            .collect();
        codec.apply_delta(2, &delta, &mut parity);
        data[2] = new_shard;

        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        assert_eq!(codec.encode(&refs), parity);
    }

    #[test]
    fn encode_is_deterministic_and_nontrivial() {
        let codec = ErasureCodec::new(8, 2);
        let data = stripe(8, 32);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let p1 = codec.encode(&refs);
        let p2 = codec.encode(&refs);
        assert_eq!(p1, p2);
        assert_ne!(p1[0], p1[1], "parity rows must be independent");
        for row in &p1 {
            assert!(row.iter().any(|&b| b != 0));
        }
    }

    #[test]
    #[should_panic(expected = "field size")]
    fn oversized_code_panics() {
        ErasureCodec::new(200, 57);
    }
}
