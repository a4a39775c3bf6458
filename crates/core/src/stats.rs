//! Counters describing the agent's update activity.

stegfs_blockdev::counters! {
    /// Counters collected by an agent while servicing updates and idle ticks.
    ///
    /// The key figure of merit is
    /// [`UpdateStats::mean_iterations_per_data_update`], which the paper's
    /// analysis predicts to be `E = N/D` (Section 4.1.5) — the reciprocal of
    /// the dummy-block fraction.
    pub struct UpdateStats,
    /// The engine's live counters, so the read and update paths bump
    /// statistics without sharing a lock.
    pub struct SharedUpdateStats {
        /// Number of user-requested (data) updates serviced.
        data_updates,
        /// Number of dummy updates issued (both idle-tick dummies and the
        /// dummy updates produced by retries inside the Figure 6 loop).
        dummy_updates,
        /// Number of data updates that relocated the block to a new position.
        relocations,
        /// Number of data updates that landed back on the same block (the
        /// `B2 = B1` branch of Figure 6).
        in_place,
        /// Total block-selection iterations across all data updates.
        iterations,
        /// Total physical block reads issued by the agent's update machinery.
        block_reads,
        /// Total physical block writes issued by the agent's update machinery.
        block_writes,
    }
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
}

impl SharedUpdateStats {
    /// A dummy update is one update, one block read and one block write —
    /// the accounting behind `mean_ios_per_data_update() / 2 = N/D`.
    pub fn count_dummy_update(&self) {
        self.dummy_updates.inc();
        self.block_reads.inc();
        self.block_writes.inc();
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
    fn a_dummy_update_is_one_update_one_read_one_write() {
        let shared = SharedUpdateStats::default();
        for _ in 0..3 {
            shared.count_dummy_update();
        }
        assert_eq!(
            shared.snapshot(),
            UpdateStats {
                dummy_updates: 3,
                block_reads: 3,
                block_writes: 3,
                ..Default::default()
            }
        );
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
