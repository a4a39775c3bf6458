//! Counters describing the agent's update activity.

/// Counters collected by an agent while servicing updates and idle ticks.
///
/// The key figure of merit is [`UpdateStats::mean_iterations_per_data_update`],
/// which the paper's analysis predicts to be `E = N/D` (Section 4.1.5) — the
/// reciprocal of the dummy-block fraction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Number of user-requested (data) updates serviced.
    pub data_updates: u64,
    /// Number of dummy updates issued (both idle-tick dummies and the
    /// dummy updates produced by retries inside the Figure 6 loop).
    pub dummy_updates: u64,
    /// Number of data updates that relocated the block to a new position.
    pub relocations: u64,
    /// Number of data updates that landed back on the same block (the
    /// `B2 = B1` branch of Figure 6).
    pub in_place: u64,
    /// Total block-selection iterations across all data updates.
    pub iterations: u64,
    /// Total physical block reads issued by the agent's update machinery.
    pub block_reads: u64,
    /// Total physical block writes issued by the agent's update machinery.
    pub block_writes: u64,
}

impl UpdateStats {
    /// Mean number of Figure 6 iterations per data update; the paper's
    /// expected value is `N/D`.
    pub fn mean_iterations_per_data_update(&self) -> f64 {
        if self.data_updates == 0 {
            0.0
        } else {
            self.iterations as f64 / self.data_updates as f64
        }
    }

    /// Mean number of I/Os (reads + writes) per data update. A conventional
    /// file system uses 2; the paper's expected overhead factor is therefore
    /// `mean_ios_per_data_update() / 2 = N/D`.
    pub fn mean_ios_per_data_update(&self) -> f64 {
        if self.data_updates == 0 {
            0.0
        } else {
            (self.block_reads + self.block_writes) as f64 / self.data_updates as f64
        }
    }

    /// Difference `self - earlier`, for measuring one experiment phase.
    pub fn since(&self, earlier: &UpdateStats) -> UpdateStats {
        UpdateStats {
            data_updates: self.data_updates - earlier.data_updates,
            dummy_updates: self.dummy_updates - earlier.dummy_updates,
            relocations: self.relocations - earlier.relocations,
            in_place: self.in_place - earlier.in_place,
            iterations: self.iterations - earlier.iterations,
            block_reads: self.block_reads - earlier.block_reads,
            block_writes: self.block_writes - earlier.block_writes,
        }
    }
}

/// The engine's live counters: every field of [`UpdateStats`] as an atomic,
/// so the read and update paths bump statistics without sharing a lock. [`SharedUpdateStats::snapshot`] flattens into an
/// ordinary [`UpdateStats`] for reporting.
#[derive(Debug, Default)]
pub struct SharedUpdateStats {
    data_updates: AtomicU64,
    dummy_updates: AtomicU64,
    relocations: AtomicU64,
    in_place: AtomicU64,
    iterations: AtomicU64,
    block_reads: AtomicU64,
    block_writes: AtomicU64,
}

use std::sync::atomic::{AtomicU64, Ordering};

impl SharedUpdateStats {
    /// Record one serviced data update.
    pub fn count_data_update(&self) {
        self.data_updates.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one dummy update with its read+write I/O pair.
    pub fn count_dummy_update(&self) {
        self.dummy_updates.fetch_add(1, Ordering::Relaxed);
        self.block_reads.fetch_add(1, Ordering::Relaxed);
        self.block_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one Figure 6 block-selection iteration.
    pub fn count_iteration(&self) {
        self.iterations.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a relocation outcome.
    pub fn count_relocation(&self) {
        self.relocations.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an in-place outcome.
    pub fn count_in_place(&self) {
        self.in_place.fetch_add(1, Ordering::Relaxed);
    }

    /// Record the read+write I/O pair of a data rewrite.
    pub fn count_data_io_pair(&self) {
        self.block_reads.fetch_add(1, Ordering::Relaxed);
        self.block_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Flatten into a plain [`UpdateStats`]. Each counter is read atomically;
    /// a snapshot taken while workers run is a consistent-enough progress
    /// report, and one taken after the workers join is exact.
    pub fn snapshot(&self) -> UpdateStats {
        UpdateStats {
            data_updates: self.data_updates.load(Ordering::Relaxed),
            dummy_updates: self.dummy_updates.load(Ordering::Relaxed),
            relocations: self.relocations.load(Ordering::Relaxed),
            in_place: self.in_place.load(Ordering::Relaxed),
            iterations: self.iterations.load(Ordering::Relaxed),
            block_reads: self.block_reads.load(Ordering::Relaxed),
            block_writes: self.block_writes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means_handle_zero_updates() {
        let s = UpdateStats::default();
        assert_eq!(s.mean_iterations_per_data_update(), 0.0);
        assert_eq!(s.mean_ios_per_data_update(), 0.0);
    }

    #[test]
    fn means_compute_ratios() {
        let s = UpdateStats {
            data_updates: 10,
            iterations: 25,
            block_reads: 25,
            block_writes: 25,
            ..Default::default()
        };
        assert!((s.mean_iterations_per_data_update() - 2.5).abs() < 1e-9);
        assert!((s.mean_ios_per_data_update() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn shared_stats_snapshot_matches_counts() {
        let shared = SharedUpdateStats::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        shared.count_iteration();
                        shared.count_dummy_update();
                    }
                    shared.count_data_update();
                    shared.count_relocation();
                    shared.count_data_io_pair();
                });
            }
        });
        let snap = shared.snapshot();
        assert_eq!(snap.iterations, 400);
        assert_eq!(snap.dummy_updates, 400);
        assert_eq!(snap.data_updates, 4);
        assert_eq!(snap.relocations, 4);
        assert_eq!(snap.block_reads, 404);
        assert_eq!(snap.block_writes, 404);
    }

    #[test]
    fn since_subtracts_componentwise() {
        let a = UpdateStats {
            data_updates: 3,
            dummy_updates: 10,
            ..Default::default()
        };
        let b = UpdateStats {
            data_updates: 5,
            dummy_updates: 12,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!(d.data_updates, 2);
        assert_eq!(d.dummy_updates, 2);
    }
}
