//! Shared counters, written once: a [`Counter`] cell and the [`counters!`]
//! macro that turns one documented field list into a live struct of cells and
//! its plain snapshot twin.
//!
//! It lives in this crate because every crate that counts something already
//! depends on it.
//!
//! [`counters!`]: crate::counters!

use std::sync::atomic::{AtomicU64, Ordering};

/// One monotone tally that any thread may bump through `&self`.
///
/// Relaxed ordering throughout: a counter publishes no other data and is
/// never used to synchronise. A value read while writers run is a
/// moment-in-time figure; one read at quiescence — after the workers are
/// joined — is exact.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Back to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Declare a set of counters once.
///
/// ```
/// stegfs_blockdev::counters! {
///     /// What the door saw, as plain numbers.
///     pub struct DoorStats,
///     /// The door's live counters.
///     pub struct SharedDoorStats {
///         /// People in.
///         entered,
///         /// People out.
///         left,
///     }
/// }
/// let live = SharedDoorStats::default();
/// live.entered.add(3);
/// let before = live.snapshot();
/// live.left.inc();
/// assert_eq!(live.snapshot().since(&before), DoorStats { entered: 0, left: 1 });
/// ```
///
/// The first struct is the snapshot: `Copy`, one `pub u64` per field, and
/// `since(&earlier)` for the difference over an interval. The second is its
/// live twin: one `pub` [`Counter`] per field, bumped in place
/// (`live.entered.inc()`), with `snapshot()` and `reset()`. Methods that
/// state a rule over several fields are written beside the invocation, in
/// ordinary `impl` blocks.
#[macro_export]
macro_rules! counters {
    (
        $(#[$snapshot_meta:meta])*
        $snapshot_vis:vis struct $Snapshot:ident,
        $(#[$live_meta:meta])*
        $live_vis:vis struct $Live:ident {
            $( $(#[$field_meta:meta])* $field:ident ),+ $(,)?
        }
    ) => {
        $(#[$snapshot_meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $snapshot_vis struct $Snapshot {
            $( $(#[$field_meta])* pub $field: u64, )+
        }

        impl $Snapshot {
            /// Difference `self - earlier`, field by field: what one phase
            /// of an experiment added.
            pub fn since(&self, earlier: &Self) -> Self {
                Self { $( $field: self.$field - earlier.$field, )+ }
            }
        }

        $(#[$live_meta])*
        #[derive(Debug, Default)]
        $live_vis struct $Live {
            $( $(#[$field_meta])* pub $field: $crate::Counter, )+
        }

        // A private invocation need not call every generated method.
        #[allow(dead_code)]
        impl $Live {
            /// Copy every counter out. Exact at quiescence; a
            /// moment-in-time mixture while writers run.
            pub fn snapshot(&self) -> $Snapshot {
                $Snapshot { $( $field: self.$field.get(), )+ }
            }

            /// Set every counter back to zero.
            pub fn reset(&self) {
                $( self.$field.reset(); )+
            }
        }
    };
}

#[cfg(test)]
mod tests {
    counters! {
        /// Snapshot.
        struct Tally,
        /// Live.
        struct SharedTally {
            /// Bumped one at a time.
            ones,
            /// Bumped in strides.
            strides,
            /// Never bumped.
            idle,
        }
    }

    #[test]
    fn four_threads_bumping_read_back_exactly_at_quiescence() {
        let live = SharedTally::default();
        live.strides.add(5);
        let before = live.snapshot();
        assert_eq!(
            before,
            Tally {
                ones: 0,
                strides: 5,
                idle: 0
            }
        );

        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        live.ones.inc();
                        live.strides.add(3);
                    }
                });
            }
        });
        let after = live.snapshot();
        assert_eq!(
            after,
            Tally {
                ones: 4000,
                strides: 12_005,
                idle: 0
            }
        );
        assert_eq!(live.ones.get(), 4000);
        assert_eq!(
            after.since(&before),
            Tally {
                ones: 4000,
                strides: 12_000,
                idle: 0
            }
        );
        assert_eq!(after.since(&after), Tally::default());

        live.reset();
        assert_eq!(live.snapshot(), Tally::default());
        live.ones.inc();
        assert_eq!(live.snapshot().ones, 1, "a reset counter counts on");
    }
}
