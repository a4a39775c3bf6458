//! The two attacker models of Section 3.2.2.

use stegfs_blockdev::{IoKind, IoRecord, SnapshotDiff};

use crate::statistics::{chi_square_uniform, kl_divergence_from_uniform, repetition_rate};

/// Verdict of the update-analysis attacker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateVerdict {
    /// Number of changed-block observations analysed.
    pub observations: usize,
    /// Chi-square statistic of changed-block positions against uniform.
    pub chi_square: f64,
    /// Critical value used for the decision.
    pub critical_value: f64,
    /// KL divergence (bits) of the observed position distribution from
    /// uniform.
    pub kl_divergence: f64,
    /// `true` when the attacker can claim the update stream contains real
    /// data accesses (the distribution deviates from pure dummy noise).
    pub distinguishable: bool,
}

/// An attacker from the paper's first group: scans the raw storage
/// repeatedly, diffs consecutive snapshots, and analyses where changes land
/// (Figure 1).
///
/// Against dummy updates plus the Figure 6 relocation scheme, changed
/// positions are uniform and the attacker learns nothing; against in-place
/// updates (plain StegFS, or the agent with relocation disabled) the user's
/// working set shows up as a hot region.
#[derive(Debug, Default, Clone)]
pub struct UpdateAnalysisAttacker {
    changed_blocks: Vec<u64>,
    num_blocks: u64,
}

impl UpdateAnalysisAttacker {
    /// Create an attacker for a volume of `num_blocks` blocks.
    pub fn new(num_blocks: u64) -> Self {
        Self {
            changed_blocks: Vec::new(),
            num_blocks,
        }
    }

    /// Record the diff of two consecutive snapshots.
    pub fn observe_diff(&mut self, diff: &SnapshotDiff) {
        self.changed_blocks.extend_from_slice(&diff.changed);
    }

    /// Record a single changed block.
    pub fn observe_changed_block(&mut self, block: u64) {
        self.changed_blocks.push(block);
    }

    /// Number of changed-block observations so far.
    pub fn observations(&self) -> usize {
        self.changed_blocks.len()
    }

    /// Run the distinguisher at significance level `alpha` (e.g. `0.01`).
    pub fn verdict(&self, alpha: f64) -> UpdateVerdict {
        let bins = self.bins();
        let chi = chi_square_uniform(&self.changed_blocks, self.num_blocks, bins, alpha);
        let kl = kl_divergence_from_uniform(&self.changed_blocks, self.num_blocks, bins);
        UpdateVerdict {
            observations: self.changed_blocks.len(),
            chi_square: chi.statistic,
            critical_value: chi.critical_value,
            kl_divergence: kl,
            distinguishable: chi.rejects_uniformity,
        }
    }

    fn bins(&self) -> u64 {
        // Aim for an expected count of ~20 per bin, with sane bounds.
        (self.changed_blocks.len() as u64 / 20).clamp(10, 200)
    }
}

/// Verdict of the traffic-analysis attacker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficVerdict {
    /// Number of I/O requests analysed.
    pub observations: usize,
    /// Chi-square statistic of request positions against uniform.
    pub chi_square: f64,
    /// Critical value used for the decision.
    pub critical_value: f64,
    /// Fraction of requests that revisit a previously seen block.
    pub repetition_rate: f64,
    /// Repetition rate expected from uniformly random requests over the same
    /// number of observations (birthday-style baseline).
    pub expected_repetition_rate: f64,
    /// `true` when the attacker can claim the trace carries real accesses.
    pub distinguishable: bool,
}

/// An attacker from the paper's second group: observes the I/O requests
/// between the agent and the raw storage (from the activity log or by
/// trapping requests) and looks for structure.
#[derive(Debug, Default, Clone)]
pub struct TrafficAnalysisAttacker {
    reads: Vec<u64>,
    writes: Vec<u64>,
    num_blocks: u64,
}

impl TrafficAnalysisAttacker {
    /// Create an attacker for a volume of `num_blocks` blocks.
    pub fn new(num_blocks: u64) -> Self {
        Self {
            reads: Vec::new(),
            writes: Vec::new(),
            num_blocks,
        }
    }

    /// Record one observed request.
    pub fn observe(&mut self, record: &IoRecord) {
        match record.kind {
            IoKind::Read => self.reads.push(record.block),
            IoKind::Write => self.writes.push(record.block),
        }
    }

    /// Record a whole trace.
    pub fn observe_trace(&mut self, records: &[IoRecord]) {
        for r in records {
            self.observe(r);
        }
    }

    /// Number of observed requests.
    pub fn observations(&self) -> usize {
        self.reads.len() + self.writes.len()
    }

    fn verdict_for(&self, observations: &[u64], alpha: f64) -> TrafficVerdict {
        let bins = (observations.len() as u64 / 20).clamp(10, 200);
        let chi = chi_square_uniform(observations, self.num_blocks, bins, alpha);
        let rep = repetition_rate(observations);
        let expected_rep = expected_repetition_rate(observations.len() as u64, self.num_blocks);
        // The trace is distinguishable if the positions are non-uniform or
        // blocks repeat far more often than chance allows.
        let repeats_suspicious = rep > (expected_rep * 3.0 + 0.05);
        TrafficVerdict {
            observations: observations.len(),
            chi_square: chi.statistic,
            critical_value: chi.critical_value,
            repetition_rate: rep,
            expected_repetition_rate: expected_rep,
            distinguishable: chi.rejects_uniformity || repeats_suspicious,
        }
    }

    /// Distinguisher over the read requests only.
    pub fn read_verdict(&self, alpha: f64) -> TrafficVerdict {
        self.verdict_for(&self.reads, alpha)
    }

    /// Distinguisher over the write requests only.
    pub fn write_verdict(&self, alpha: f64) -> TrafficVerdict {
        self.verdict_for(&self.writes, alpha)
    }

    /// Distinguisher over the full trace.
    pub fn verdict(&self, alpha: f64) -> TrafficVerdict {
        let mut all = self.reads.clone();
        all.extend_from_slice(&self.writes);
        self.verdict_for(&all, alpha)
    }
}

/// Expected fraction of repeated values when drawing `n` uniform samples from
/// a universe of `m` values: `1 - E[#distinct]/n` with
/// `E[#distinct] = m(1 - (1 - 1/m)^n)`.
fn expected_repetition_rate(n: u64, m: u64) -> f64 {
    if n == 0 || m == 0 {
        return 0.0;
    }
    let n_f = n as f64;
    let m_f = m as f64;
    let expected_distinct = m_f * (1.0 - (1.0 - 1.0 / m_f).powf(n_f));
    (1.0 - expected_distinct / n_f).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stegfs_blockdev::IoKind;
    use stegfs_crypto::HashDrbg;

    fn record(seq: u64, kind: IoKind, block: u64) -> IoRecord {
        IoRecord { seq, kind, block }
    }

    #[test]
    fn uniform_updates_are_indistinguishable() {
        let n = 100_000u64;
        let mut rng = HashDrbg::from_u64(11);
        let mut attacker = UpdateAnalysisAttacker::new(n);
        for _ in 0..4000u64 {
            attacker.observe_changed_block(rng.gen_range(n));
        }
        let v = attacker.verdict(0.01);
        assert!(
            !v.distinguishable,
            "chi {} vs crit {}",
            v.chi_square, v.critical_value
        );
    }

    #[test]
    fn localized_updates_are_distinguishable() {
        let n = 100_000u64;
        let mut attacker = UpdateAnalysisAttacker::new(n);
        // Dummy background...
        let mut rng = HashDrbg::from_u64(12);
        for _ in 0..2000u64 {
            attacker.observe_changed_block(rng.gen_range(n));
        }
        // ...plus a hot table repeatedly updated in place.
        for i in 0..2000u64 {
            attacker.observe_changed_block(5000 + (i % 30));
        }
        let v = attacker.verdict(0.01);
        assert!(v.distinguishable);
        assert!(v.kl_divergence > 0.1);
    }

    #[test]
    fn observe_diff_accumulates() {
        let mut attacker = UpdateAnalysisAttacker::new(100);
        attacker.observe_diff(&SnapshotDiff {
            changed: vec![1, 5, 9],
        });
        attacker.observe_diff(&SnapshotDiff { changed: vec![2] });
        assert_eq!(attacker.observations(), 4);
    }

    #[test]
    fn random_traffic_is_indistinguishable() {
        let n = 50_000u64;
        let mut rng = HashDrbg::from_u64(13);
        let mut attacker = TrafficAnalysisAttacker::new(n);
        for i in 0..3000u64 {
            attacker.observe(&record(i, IoKind::Read, rng.gen_range(n)));
        }
        let v = attacker.read_verdict(0.01);
        assert!(!v.distinguishable, "{v:?}");
    }

    #[test]
    fn repeated_reads_of_a_hot_file_are_distinguishable() {
        let n = 50_000u64;
        let mut attacker = TrafficAnalysisAttacker::new(n);
        // A database repeatedly scanning the same 100-block table.
        for i in 0..3000u64 {
            attacker.observe(&record(i, IoKind::Read, 700 + (i % 100)));
        }
        let v = attacker.read_verdict(0.01);
        assert!(v.distinguishable);
        assert!(v.repetition_rate > 0.9);
    }

    #[test]
    fn reads_and_writes_are_tracked_separately() {
        let mut attacker = TrafficAnalysisAttacker::new(1000);
        for i in 0..500u64 {
            attacker.observe(&record(i, IoKind::Write, (i * 761) % 1000));
            attacker.observe(&record(i, IoKind::Read, 42));
        }
        assert_eq!(attacker.observations(), 1000);
        assert!(attacker.read_verdict(0.01).distinguishable);
        assert!(!attacker.write_verdict(0.01).distinguishable);
    }

    #[test]
    fn expected_repetition_rate_behaviour() {
        assert_eq!(expected_repetition_rate(0, 100), 0.0);
        // Sampling as many items as the universe size repeats ~37 % of draws.
        let r = expected_repetition_rate(1000, 1000);
        assert!((r - 0.37).abs() < 0.02, "{r}");
        // Tiny sample from a huge universe: almost no repeats.
        assert!(expected_repetition_rate(10, 1_000_000) < 1e-3);
    }
}
