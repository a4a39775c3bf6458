//! Counters separating retrieving from sorting overhead.

stegfs_blockdev::counters! {
    /// Counters collected by an [`crate::ObliviousStore`].
    ///
    /// The split between *retrieving* I/O (index probes + per-level block
    /// reads on the read path) and *sorting* I/O (the cascading flushes,
    /// external merge sorts and index rebuilds) is exactly the split Figure
    /// 12(b) of the paper reports. Simulated time, when a clock is attached,
    /// is attributed the same way.
    pub struct ObliviousStats,
    /// The store's live counters, bumped and read without its lock.
    pub(crate) struct SharedObliviousStats {
        /// Reads served by the store (buffer hits included).
        reads_served,
        /// Reads satisfied straight from the in-memory buffer.
        buffer_hits,
        /// Items inserted (first-time fetches and write-backs).
        inserts,
        /// I/O operations on the retrieval path (index probes and level
        /// reads).
        retrieve_ios,
        /// I/O operations spent flushing, merge-sorting and rebuilding
        /// indexes.
        sort_ios,
        /// Number of level re-order (shuffle) operations performed.
        reorders,
        /// Simulated microseconds spent on the retrieval path (0 without a
        /// clock).
        retrieve_time_us,
        /// Simulated microseconds spent sorting/re-ordering (0 without a
        /// clock).
        sort_time_us,
    }
}

impl ObliviousStats {
    /// Total I/Os issued by the store.
    pub fn total_ios(&self) -> u64 {
        self.retrieve_ios + self.sort_ios
    }

    /// Measured overhead factor: I/Os per served read. Comparable to the
    /// analytic `2k + 4k(log_B 2^k + 1)` of Section 5.2 / Table 4.
    pub fn overhead_factor(&self) -> f64 {
        if self.reads_served == 0 {
            0.0
        } else {
            self.total_ios() as f64 / self.reads_served as f64
        }
    }

    /// Fraction of simulated time spent sorting, in `[0, 1]`; the quantity
    /// plotted in Figure 12(b).
    pub fn sorting_time_fraction(&self) -> f64 {
        let total = self.retrieve_time_us + self.sort_time_us;
        if total == 0 {
            0.0
        } else {
            self.sort_time_us as f64 / total as f64
        }
    }

    /// Fraction of I/Os that belong to sorting.
    pub fn sorting_io_fraction(&self) -> f64 {
        let total = self.total_ios();
        if total == 0 {
            0.0
        } else {
            self.sort_ios as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero() {
        let s = ObliviousStats::default();
        assert_eq!(s.overhead_factor(), 0.0);
        assert_eq!(s.sorting_time_fraction(), 0.0);
        assert_eq!(s.sorting_io_fraction(), 0.0);
    }

    #[test]
    fn ratios_compute() {
        let s = ObliviousStats {
            reads_served: 10,
            retrieve_ios: 140,
            sort_ios: 60,
            retrieve_time_us: 700,
            sort_time_us: 300,
            ..Default::default()
        };
        assert!((s.overhead_factor() - 20.0).abs() < 1e-9);
        assert!((s.sorting_time_fraction() - 0.3).abs() < 1e-9);
        assert!((s.sorting_io_fraction() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn since_subtracts() {
        let a = ObliviousStats {
            reads_served: 5,
            sort_ios: 10,
            ..Default::default()
        };
        let b = ObliviousStats {
            reads_served: 8,
            sort_ios: 25,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!(d.reads_served, 3);
        assert_eq!(d.sort_ios, 15);
    }
}
