//! Statistical distinguishers.

use std::collections::HashMap;

/// Result of a chi-square goodness-of-fit test against the uniform
/// distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChiSquareResult {
    /// The chi-square statistic.
    pub statistic: f64,
    /// Degrees of freedom (number of bins − 1).
    pub degrees_of_freedom: u64,
    /// Critical value at the chosen significance level.
    pub critical_value: f64,
    /// Whether the statistic exceeds the critical value — i.e. the
    /// observations are *not* compatible with the uniform distribution and an
    /// attacker can claim to have found structure.
    pub rejects_uniformity: bool,
}

/// Approximate upper critical value of the chi-square distribution with `df`
/// degrees of freedom at significance `alpha`, using the Wilson–Hilferty
/// normal approximation. Accurate to a few percent for `df ≥ 5`, which is
/// ample for a yes/no distinguisher.
pub fn chi_square_critical_value(df: u64, alpha: f64) -> f64 {
    assert!(df > 0, "degrees of freedom must be positive");
    let z = normal_quantile(1.0 - alpha);
    let d = df as f64;
    let term = 1.0 - 2.0 / (9.0 * d) + z * (2.0 / (9.0 * d)).sqrt();
    d * term * term * term
}

/// Approximate standard-normal quantile (Acklam-style rational approximation
/// reduced to the central/upper region we use).
fn normal_quantile(p: f64) -> f64 {
    assert!((0.0..1.0).contains(&p));
    // Beasley-Springer-Moro style approximation.
    let a = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    let b = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    let c = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    let d = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    let p_low = 0.02425;
    if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
            / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    } else if p <= 1.0 - p_low {
        let q = p - 0.5;
        let r = q * q;
        (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q
            / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
            / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0))
    }
}

/// Histogram of how often each value occurs.
pub fn frequency_histogram(values: &[u64]) -> HashMap<u64, u64> {
    let mut hist = HashMap::new();
    for &v in values {
        *hist.entry(v).or_insert(0) += 1;
    }
    hist
}

/// Chi-square goodness-of-fit test of `observations` (values in
/// `0..universe`) against the uniform distribution over the universe, with
/// values bucketed into `bins` equal-width bins so the expected count per bin
/// is large enough for the test to be meaningful.
pub fn chi_square_uniform(
    observations: &[u64],
    universe: u64,
    bins: u64,
    alpha: f64,
) -> ChiSquareResult {
    chi_square_of_counts(&bucket_counts(observations, universe, bins), alpha)
}

/// `observations` counted into `bins` equal-width bins over `0..universe`
/// (at most one bin per value).
fn bucket_counts(observations: &[u64], universe: u64, bins: u64) -> Vec<u64> {
    assert!(universe > 0 && bins > 0);
    let bins = bins.min(universe);
    let mut counts = vec![0u64; bins as usize];
    for &obs in observations {
        let bin = (obs.min(universe - 1) * bins) / universe;
        counts[bin as usize] += 1;
    }
    counts
}

/// Pearson's Σ(c − e)²/e of `counts` against their total spread evenly over
/// the bins, tested at `alpha` with one degree of freedom per bin but one.
fn chi_square_of_counts(counts: &[u64], alpha: f64) -> ChiSquareResult {
    let bins = counts.len() as u64;
    let expected = counts.iter().sum::<u64>() as f64 / bins as f64;
    let statistic: f64 = if expected == 0.0 {
        0.0
    } else {
        counts
            .iter()
            .map(|&c| {
                let diff = c as f64 - expected;
                diff * diff / expected
            })
            .sum()
    };
    let df = bins - 1;
    let critical_value = chi_square_critical_value(df.max(1), alpha);
    ChiSquareResult {
        statistic,
        degrees_of_freedom: df,
        critical_value,
        rejects_uniformity: statistic > critical_value,
    }
}

/// Kullback–Leibler divergence (in bits) between the empirical distribution
/// of `observations` (bucketed into `bins` over `0..universe`) and the
/// uniform distribution. Zero means identical; larger means more structure
/// for the attacker to exploit.
pub fn kl_divergence_from_uniform(observations: &[u64], universe: u64, bins: u64) -> f64 {
    kl_of_counts(&bucket_counts(observations, universe, bins))
}

/// Σ p·log₂(p/q) of the distribution `counts` describe against the uniform
/// one over as many bins; zero for no observations at all.
fn kl_of_counts(counts: &[u64]) -> f64 {
    let n = counts.iter().sum::<u64>();
    if n == 0 {
        return 0.0;
    }
    let n = n as f64;
    let q = 1.0 / counts.len() as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            p * (p / q).log2()
        })
        .sum()
}

/// Symmetric Kullback–Leibler divergence (Jeffreys divergence, in bits)
/// between the empirical position distributions of two observation sets,
/// bucketed into the same `bins` over `0..universe`, with add-one smoothing.
///
/// This is the direct numerical reading of Definition 1: `a` is the access
/// stream with user activity (`P_{X|Y}`), `b` the stream of pure dummy
/// traffic (`P_{X|∅}`); a value near zero means an attacker cannot tell them
/// apart from positions alone.
pub fn kl_divergence_between(a: &[u64], b: &[u64], universe: u64, bins: u64) -> f64 {
    assert!(universe > 0 && bins > 0);
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let bins = bins.min(universe);
    let histogram = |obs: &[u64]| {
        let mut counts = vec![1.0f64; bins as usize]; // add-one smoothing
        for &o in obs {
            counts[((o.min(universe - 1) * bins) / universe) as usize] += 1.0;
        }
        let total: f64 = counts.iter().sum();
        counts.into_iter().map(|c| c / total).collect::<Vec<f64>>()
    };
    let p = histogram(a);
    let q = histogram(b);
    p.iter()
        .zip(q.iter())
        .map(|(&pi, &qi)| pi * (pi / qi).log2() + qi * (qi / pi).log2())
        .sum()
}

/// Chi-square goodness-of-fit test of raw volume content against the uniform
/// byte-value distribution.
///
/// This is the *content* counterpart of the positional tests above: a
/// properly sealed volume (every block `IV ‖ CBC ciphertext`, abandoned
/// blocks random-filled) has byte values indistinguishable from uniform, and
/// any metadata a protection tier leaves in plaintext — parity tables,
/// checksum logs, allocation maps — shows up as a rejected test. The
/// resilience tier's parity-visibility check feeds whole volumes through
/// this to confirm erasure coding leaves no such fingerprint.
pub fn byte_value_chi_square(data: &[u8], alpha: f64) -> ChiSquareResult {
    chi_square_of_counts(&byte_counts(data), alpha)
}

/// Kullback–Leibler divergence (in bits) of `data`'s byte-value distribution
/// from uniform. Zero for perfectly uniform content; plaintext structure
/// (ASCII, zeros, tables) pushes it up sharply.
pub fn byte_value_kl(data: &[u8]) -> f64 {
    kl_of_counts(&byte_counts(data))
}

/// How often each byte value occurs in `data`.
fn byte_counts(data: &[u8]) -> [u64; 256] {
    let mut counts = [0u64; 256];
    for &b in data {
        counts[b as usize] += 1;
    }
    counts
}

/// Fraction of observations that repeat a value already seen — a cheap but
/// effective traffic-analysis signal: an unprotected workload re-reads the
/// same physical blocks, while relocation and oblivious shuffling make
/// repeats no more likely than chance.
pub fn repetition_rate(observations: &[u64]) -> f64 {
    if observations.is_empty() {
        return 0.0;
    }
    let mut seen = std::collections::HashSet::new();
    let mut repeats = 0usize;
    for &v in observations {
        if !seen.insert(v) {
            repeats += 1;
        }
    }
    repeats as f64 / observations.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn critical_values_match_tables() {
        // Known chi-square critical values: df=10, alpha=0.05 -> 18.31;
        // df=100, alpha=0.01 -> 135.8.
        let v = chi_square_critical_value(10, 0.05);
        assert!((v - 18.31).abs() < 0.5, "{v}");
        let v = chi_square_critical_value(100, 0.01);
        assert!((v - 135.8).abs() < 2.0, "{v}");
    }

    #[test]
    fn uniform_data_is_not_rejected() {
        // A deterministic low-discrepancy sequence over the universe.
        let universe = 10_000u64;
        let obs: Vec<u64> = (0..5000u64).map(|i| (i * 7919) % universe).collect();
        let result = chi_square_uniform(&obs, universe, 50, 0.01);
        assert!(!result.rejects_uniformity, "statistic {}", result.statistic);
        assert!(kl_divergence_from_uniform(&obs, universe, 50) < 0.05);
    }

    #[test]
    fn concentrated_data_is_rejected() {
        let universe = 10_000u64;
        // All updates hit the same small region — the in-place update
        // signature.
        let obs: Vec<u64> = (0..5000u64).map(|i| 100 + (i % 20)).collect();
        let result = chi_square_uniform(&obs, universe, 50, 0.01);
        assert!(result.rejects_uniformity);
        assert!(kl_divergence_from_uniform(&obs, universe, 50) > 1.0);
    }

    #[test]
    fn kl_between_similar_and_different_distributions() {
        let universe = 10_000u64;
        let a: Vec<u64> = (0..4000u64).map(|i| (i * 4241) % universe).collect();
        let b: Vec<u64> = (0..4000u64).map(|i| (i * 6367) % universe).collect();
        let c: Vec<u64> = (0..4000u64).map(|i| i % 50).collect();
        let same = kl_divergence_between(&a, &b, universe, 40);
        let different = kl_divergence_between(&a, &c, universe, 40);
        assert!(same < 0.2, "similar distributions diverge by {same}");
        assert!(
            different > 2.0,
            "different distributions diverge by {different}"
        );
        assert_eq!(kl_divergence_between(&[], &b, universe, 40), 0.0);
    }

    #[test]
    fn repetition_rate_extremes() {
        assert_eq!(repetition_rate(&[]), 0.0);
        assert_eq!(repetition_rate(&[1, 2, 3, 4]), 0.0);
        let all_same = vec![7u64; 100];
        assert!((repetition_rate(&all_same) - 0.99).abs() < 1e-9);
    }

    #[test]
    fn histogram_counts() {
        let h = frequency_histogram(&[1, 1, 2, 5, 5, 5]);
        assert_eq!(h[&1], 2);
        assert_eq!(h[&2], 1);
        assert_eq!(h[&5], 3);
        assert_eq!(h.get(&9), None);
    }

    #[test]
    fn empty_observations_are_neutral() {
        let r = chi_square_uniform(&[], 100, 10, 0.01);
        assert!(!r.rejects_uniformity);
        assert_eq!(kl_divergence_from_uniform(&[], 100, 10), 0.0);
    }

    #[test]
    fn byte_distribution_distinguishes_plaintext_from_sealed() {
        // Pseudo-random bytes (a weak LCG is plenty for a statistical test).
        let mut state = 0x1234_5678_9abc_def0u64;
        let random: Vec<u8> = (0..65_536)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 56) as u8
            })
            .collect();
        let r = byte_value_chi_square(&random, 0.01);
        assert!(!r.rejects_uniformity, "statistic {}", r.statistic);
        assert!(byte_value_kl(&random) < 0.01);

        let ascii: Vec<u8> = b"parity table v1 "
            .iter()
            .copied()
            .cycle()
            .take(65_536)
            .collect();
        assert!(byte_value_chi_square(&ascii, 0.01).rejects_uniformity);
        assert!(byte_value_kl(&ascii) > 3.0);

        assert!(!byte_value_chi_square(&[], 0.01).rejects_uniformity);
        assert_eq!(byte_value_kl(&[]), 0.0);
    }

    #[test]
    fn normal_quantile_sanity() {
        assert!((normal_quantile(0.5)).abs() < 1e-6);
        assert!((normal_quantile(0.975) - 1.96).abs() < 0.01);
        assert!((normal_quantile(0.99) - 2.326).abs() < 0.01);
        assert!((normal_quantile(0.01) + 2.326).abs() < 0.01);
    }
}
