//! Oblivious storage configuration and the paper's analytical cost model.

/// Geometry of the oblivious storage hierarchy.
///
/// `k = ceil(log2(last_level_blocks / buffer_blocks))` levels are created;
/// level `i` (1-based) holds `2^i * buffer_blocks` item slots, so the last
/// level holds at least `last_level_blocks` items — "enough to accommodate
/// all the data blocks that could be read by users" (Section 5.1.2).
///
/// The two sizes are the whole configuration: the store is a cache over the
/// StegFS partition and keeps nothing on its partitions that a later start
/// reads back, so there is no on-disk state to configure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObliviousConfig {
    /// Size of the agent's in-memory buffer, in items (the paper's `B`).
    pub buffer_blocks: u64,
    /// Number of items the last level must be able to hold (the paper's `N`).
    pub last_level_blocks: u64,
}

impl ObliviousConfig {
    /// Create a configuration; both values must be non-zero and
    /// `last_level_blocks` must be at least `2 * buffer_blocks`.
    pub fn new(buffer_blocks: u64, last_level_blocks: u64) -> Self {
        assert!(buffer_blocks > 0, "buffer must hold at least one block");
        assert!(
            last_level_blocks >= 2 * buffer_blocks,
            "the last level must be at least twice the buffer"
        );
        Self {
            buffer_blocks,
            last_level_blocks,
        }
    }

    /// Number of levels `k = ceil(log2(N/B))`.
    pub fn num_levels(&self) -> u32 {
        let ratio = self.last_level_blocks.div_ceil(self.buffer_blocks);
        // Smallest k with 2^k >= ratio.
        let mut k = 0u32;
        while (1u64 << k) < ratio {
            k += 1;
        }
        k.max(1)
    }

    /// Item capacity of level `i` (1-based): `2^i * B`.
    pub fn level_capacity(&self, level: u32) -> u64 {
        self.buffer_blocks << level
    }

    /// Total number of item slots across all levels.
    pub fn total_slots(&self) -> u64 {
        (1..=self.num_levels())
            .map(|i| self.level_capacity(i))
            .sum()
    }

    /// The paper's analytical per-read retrieving cost: one index probe and
    /// one block read per level, `2k` I/Os (Section 5.2).
    pub fn retrieving_cost_ios(&self) -> u64 {
        2 * self.num_levels() as u64
    }

    /// The paper's analytical amortised sorting cost per read:
    /// `4k * (log_B 2^k + 1)` I/Os (Section 5.2).
    ///
    /// The number of merge passes `log_B 2^k` is 1 for every configuration in
    /// the paper's Table 4 (and for any realistic buffer size), so the
    /// per-level amortised cost is 8 I/Os — read the level, write the runs,
    /// read the runs, write the level, each once per `2^(i-1)·B` reads — and
    /// the total sorting cost is `8k`.
    pub fn sorting_cost_ios(&self) -> f64 {
        let k = self.num_levels() as f64;
        let b = self.buffer_blocks as f64;
        let merge_passes = ((k * 2f64.ln()) / b.ln()).ceil().max(1.0);
        4.0 * k * (merge_passes + 1.0)
    }

    /// The paper's overall analytical overhead factor per read:
    /// `2k + 4k(log_B 2^k + 1)`. For the parameters of Table 4 this evaluates
    /// to almost exactly `10 * k` (e.g. 70 for k = 7).
    pub fn overhead_factor(&self) -> f64 {
        self.retrieving_cost_ios() as f64 + self.sorting_cost_ios()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Table 4 setup: a 1 GB last level (262 144 blocks of 4 KB)
    /// and buffers from 8 MB to 128 MB.
    fn table4_config(buffer_mb: u64) -> ObliviousConfig {
        let block = 4096u64;
        ObliviousConfig::new(buffer_mb * 1024 * 1024 / block, 1024 * 1024 * 1024 / block)
    }

    #[test]
    fn table4_heights_match_paper() {
        assert_eq!(table4_config(8).num_levels(), 7);
        assert_eq!(table4_config(16).num_levels(), 6);
        assert_eq!(table4_config(32).num_levels(), 5);
        assert_eq!(table4_config(64).num_levels(), 4);
        assert_eq!(table4_config(128).num_levels(), 3);
    }

    #[test]
    fn table4_overhead_factors_match_paper() {
        // The paper reports overhead = 10 * height (70, 60, 50, 40, 30).
        for (mb, expected) in [
            (8u64, 70.0),
            (16, 60.0),
            (32, 50.0),
            (64, 40.0),
            (128, 30.0),
        ] {
            let got = table4_config(mb).overhead_factor();
            let err = (got - expected).abs() / expected;
            assert!(
                err < 0.12,
                "buffer {mb} MB: got {got}, expected ~{expected}"
            );
        }
    }

    #[test]
    fn level_capacities_double() {
        let cfg = ObliviousConfig::new(4, 64);
        assert_eq!(cfg.num_levels(), 4);
        assert_eq!(cfg.level_capacity(1), 8);
        assert_eq!(cfg.level_capacity(2), 16);
        assert_eq!(cfg.level_capacity(4), 64);
        assert_eq!(cfg.total_slots(), 8 + 16 + 32 + 64);
    }

    #[test]
    fn non_power_of_two_ratio_rounds_up() {
        let cfg = ObliviousConfig::new(10, 100);
        // ratio 10 -> k = 4 (2^4 = 16 >= 10)
        assert_eq!(cfg.num_levels(), 4);
        assert!(cfg.level_capacity(cfg.num_levels()) >= 100);
    }

    #[test]
    #[should_panic(expected = "twice the buffer")]
    fn too_small_last_level_panics() {
        ObliviousConfig::new(100, 150);
    }

    #[test]
    fn retrieving_cost_is_2k() {
        assert_eq!(table4_config(8).retrieving_cost_ios(), 14);
        assert_eq!(table4_config(128).retrieving_cost_ios(), 6);
    }
}
