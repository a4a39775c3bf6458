//! Scrub reporting and shared resilience counters.

use stegfs_blockdev::BlockId;

/// The result of one [`crate::ResilientStore::scrub`] sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Blocks whose MACs were verified (data + parity).
    pub blocks_checked: u64,
    /// Stripes found with at least one corrupt block.
    pub degraded_stripes: u64,
    /// Blocks reconstructed and re-written to fresh locations.
    pub blocks_repaired: u64,
    /// Stripes that had lost more than `m` blocks and could not be repaired.
    pub unrecoverable_stripes: u64,
    /// Volume-anchor replicas rewritten (stale or corrupt).
    pub anchor_replicas_repaired: u64,
    /// Physical locations where corruption was detected, in sweep order —
    /// matched by tests against a fault-injecting device's bookkeeping.
    pub detected: Vec<BlockId>,
}

impl ScrubReport {
    /// Whether the sweep found the volume fully intact.
    pub fn is_clean(&self) -> bool {
        self.degraded_stripes == 0
            && self.unrecoverable_stripes == 0
            && self.anchor_replicas_repaired == 0
    }

    /// Whether every detected fault was repaired.
    pub fn fully_repaired(&self) -> bool {
        self.unrecoverable_stripes == 0
    }
}

/// The result of the journal-recovery pass run by
/// [`crate::ResilientStore::open`] before the volume is handed out.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Valid intent records found in the journal slots.
    pub intents_found: u64,
    /// Intents skipped as certainly complete (superseded by a higher op id
    /// on the same path, or already committed).
    pub intents_stale: u64,
    /// Interrupted updates completed forward (some new image had landed).
    pub rolled_forward: u64,
    /// Interrupted updates undone (no new image had landed) and interrupted
    /// creates removed.
    pub rolled_back: u64,
    /// Intents whose stripe was beyond parity tolerance; affected reads will
    /// report the damage.
    pub unrecoverable: u64,
}

impl RecoveryReport {
    /// Whether the journal was empty — a clean shutdown.
    pub fn is_clean(&self) -> bool {
        self.intents_found == 0
    }

    /// Intents that required recovery action.
    pub fn recovered(&self) -> u64 {
        self.rolled_forward + self.rolled_back
    }
}

stegfs_blockdev::counters! {
    /// Point-in-time snapshot of a store's cumulative resilience counters.
    pub struct ResilienceStats,
    /// The store's live counters, bumped by concurrent readers without a
    /// lock.
    pub struct SharedResilienceStats {
        /// Content-block reads whose fast check was verified.
        reads_verified,
        /// Read-path fast-check failures (each triggers a stripe repair).
        read_check_failures,
        /// Blocks MAC-verified by scrub sweeps.
        blocks_checked,
        /// Blocks reconstructed from parity.
        blocks_repaired,
        /// Stripes observed degraded.
        degraded_stripes,
        /// Stripes found beyond parity tolerance.
        unrecoverable_stripes,
        /// Anchor replicas rewritten during quorum reads.
        anchor_repairs,
        /// Completed scrub sweeps.
        scrubs,
        /// Intent records journaled ahead of multi-block mutations.
        intents_journaled,
        /// Intents rolled forward or back by open-time recovery.
        intents_recovered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_classification() {
        let clean = ScrubReport::default();
        assert!(clean.is_clean());
        assert!(clean.fully_repaired());

        let degraded = ScrubReport {
            blocks_checked: 100,
            degraded_stripes: 1,
            blocks_repaired: 1,
            detected: vec![42],
            ..Default::default()
        };
        assert!(!degraded.is_clean());
        assert!(degraded.fully_repaired());

        let lost = ScrubReport {
            unrecoverable_stripes: 1,
            ..Default::default()
        };
        assert!(!lost.fully_repaired());
    }
}
