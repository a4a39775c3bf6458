//! Shared I/O counters.

crate::counters! {
    /// A point-in-time copy of the counters in an [`IoStats`].
    pub struct IoCounters,
    /// Cheap thread-safe I/O counters, shared between a device layer and the
    /// harness that reports on it.
    pub struct IoStats {
        /// Number of block reads.
        reads,
        /// Number of block writes.
        writes,
        /// Requests whose block number immediately followed the previous
        /// request from the same stream (sequential I/O).
        sequential,
        /// Requests that required a seek (random I/O).
        random,
    }
}

impl IoCounters {
    /// Total number of I/O operations.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }
}

impl IoStats {
    /// Record a read; `sequential` says whether it continued the previous
    /// request of its stream. Every operation is one read or one write *and*
    /// one sequential or one random.
    pub fn record_read(&self, sequential: bool) {
        self.reads.inc();
        self.record_locality(sequential);
    }

    /// Record a write.
    pub fn record_write(&self, sequential: bool) {
        self.writes.inc();
        self.record_locality(sequential);
    }

    fn record_locality(&self, sequential: bool) {
        if sequential {
            self.sequential.inc();
        } else {
            self.random.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let stats = IoStats::default();
        stats.record_read(true);
        stats.record_read(false);
        stats.record_write(false);
        let c = stats.snapshot();
        assert_eq!(c.reads, 2);
        assert_eq!(c.writes, 1);
        assert_eq!(c.sequential, 1);
        assert_eq!(c.random, 2);
        assert_eq!(c.total(), 3);
    }

    #[test]
    fn since_computes_interval() {
        let stats = IoStats::default();
        stats.record_read(true);
        let before = stats.snapshot();
        stats.record_write(false);
        stats.record_write(false);
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.reads, 0);
        assert_eq!(delta.writes, 2);
    }
}
