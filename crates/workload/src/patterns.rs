//! Access-pattern generators.
//!
//! [`ZipfDistribution`] is the shared primitive: the block-level traces here
//! draw hot blocks from it, and the session-level
//! [`ChurnWorkload`](crate::churn::ChurnWorkload) draws hot *users* from it
//! for the registry-scale login/logout streams.

use stegfs_crypto::HashDrbg;

/// A Zipf-like distribution over `0..n` with skew parameter `theta`
/// (`theta = 0` is uniform; larger values concentrate accesses on a few hot
/// items). Implemented with the standard inverse-CDF-over-precomputed-weights
/// method, which is plenty fast for workload generation.
#[derive(Debug, Clone)]
pub struct ZipfDistribution {
    cumulative: Vec<f64>,
}

impl ZipfDistribution {
    /// Build a distribution over `0..n` with skew `theta`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "universe must be non-empty");
        assert!(theta >= 0.0, "theta must be non-negative");
        let mut weights: Vec<f64> = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in weights.iter_mut() {
            acc += *w / total;
            *w = acc;
        }
        Self {
            cumulative: weights,
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether the distribution is over an empty universe (never true — the
    /// constructor rejects `n = 0`).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Draw one item.
    pub fn sample(&self, rng: &mut HashDrbg) -> u64 {
        let u = rng.next_f64();
        match self
            .cumulative
            .binary_search_by(|probe| probe.total_cmp(&u))
        {
            Ok(i) => i as u64,
            Err(i) => (i as u64).min(self.cumulative.len() as u64 - 1),
        }
    }
}

/// A generator of block indices within a file (or of file indices within a
/// population), reproducing the access patterns used in the evaluation.
#[derive(Debug, Clone)]
pub enum AccessPattern {
    /// Uniformly random positions in `0..n`.
    Uniform {
        /// Universe size.
        n: u64,
    },
    /// Sequential scan `0, 1, …, n-1, 0, 1, …` — the "table scan" pattern the
    /// paper singles out as the kind of regularity an attacker could exploit.
    Sequential {
        /// Universe size.
        n: u64,
        /// Next position to return.
        next: u64,
    },
    /// Zipf-skewed positions (hot spots), typical of OLTP-style updates.
    Zipf {
        /// The underlying distribution.
        distribution: ZipfDistribution,
    },
}

impl AccessPattern {
    /// Uniform pattern over `0..n`.
    pub fn uniform(n: u64) -> Self {
        AccessPattern::Uniform { n }
    }

    /// Sequential scan over `0..n`.
    pub fn sequential(n: u64) -> Self {
        AccessPattern::Sequential { n, next: 0 }
    }

    /// Zipf pattern over `0..n` with skew `theta`.
    pub fn zipf(n: u64, theta: f64) -> Self {
        AccessPattern::Zipf {
            distribution: ZipfDistribution::new(n, theta),
        }
    }

    /// Produce the next position.
    pub fn next(&mut self, rng: &mut HashDrbg) -> u64 {
        match self {
            AccessPattern::Uniform { n } => rng.gen_range(*n),
            AccessPattern::Sequential { n, next } => {
                let value = *next;
                *next = (*next + 1) % *n;
                value
            }
            AccessPattern::Zipf { distribution } => distribution.sample(rng),
        }
    }

    /// Produce `count` positions.
    pub fn take(&mut self, rng: &mut HashDrbg, count: usize) -> Vec<u64> {
        (0..count).map(|_| self.next(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_wraps_around() {
        let mut p = AccessPattern::sequential(3);
        let mut rng = HashDrbg::from_u64(0);
        assert_eq!(p.take(&mut rng, 7), vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn uniform_stays_in_range_and_spreads() {
        let mut p = AccessPattern::uniform(100);
        let mut rng = HashDrbg::from_u64(1);
        let samples = p.take(&mut rng, 5000);
        assert!(samples.iter().all(|&x| x < 100));
        let distinct: std::collections::HashSet<_> = samples.iter().collect();
        assert!(distinct.len() > 90);
    }

    #[test]
    fn zipf_concentrates_on_low_ranks() {
        let mut p = AccessPattern::zipf(1000, 1.0);
        let mut rng = HashDrbg::from_u64(2);
        let samples = p.take(&mut rng, 10_000);
        let hot = samples.iter().filter(|&&x| x < 10).count();
        let cold = samples.iter().filter(|&&x| x >= 500).count();
        assert!(hot > cold, "hot {hot} vs cold {cold}");
        assert!(samples.iter().all(|&x| x < 1000));
    }

    #[test]
    fn zipf_theta_zero_is_uniformish() {
        let dist = ZipfDistribution::new(100, 0.0);
        let mut rng = HashDrbg::from_u64(3);
        let mut counts = vec![0u32; 100];
        for _ in 0..20_000 {
            counts[dist.sample(&mut rng) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max / min < 2.0, "max {max}, min {min}");
    }

    #[test]
    fn zipf_len() {
        let dist = ZipfDistribution::new(42, 0.5);
        assert_eq!(dist.len(), 42);
        assert!(!dist.is_empty());
    }
}
