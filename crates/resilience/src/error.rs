//! Error type for the resilience tier.

use stegfs_base::wire::WireError;
use stegfs_base::FsError;
use stegfs_blockdev::DeviceError;

use crate::stripe::StripeConfig;

/// Errors produced by the erasure codec, the replicated anchor and the
/// resilient store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResilienceError {
    /// Underlying file-system error.
    Fs(FsError),
    /// Underlying block-device error.
    Device(DeviceError),
    /// A stripe lost more shards than the code can tolerate. The store
    /// reports this rather than ever returning reconstructed-but-wrong bytes.
    TooManyErasures {
        /// Shards that survived.
        present: usize,
        /// Shards needed for reconstruction (`k`).
        needed: usize,
    },
    /// A file could not be read back correctly even after repair: some stripe
    /// was beyond the code's tolerance.
    Unrecoverable {
        /// Path of the affected file.
        path: String,
        /// Stripes that could not be reconstructed.
        stripes: Vec<u64>,
    },
    /// No valid replica of the volume anchor could be found.
    AnchorUnrecoverable(String),
    /// The anchor payload (file-access-key table) outgrew a single block.
    AnchorOverflow {
        /// Bytes the encoded anchor needs.
        needed: usize,
        /// Bytes one block can hold.
        capacity: usize,
    },
    /// A journal intent record outgrew a single journal slot block.
    JournalOverflow {
        /// Bytes the encoded record needs.
        needed: usize,
        /// Bytes one slot's data field can hold.
        capacity: usize,
    },
    /// A single-block write was handed more bytes than one block's data
    /// field holds.
    BlockTooLarge {
        /// Bytes the caller supplied.
        len: usize,
        /// Bytes one data field can hold.
        capacity: usize,
    },
    /// The volume would have no intent-journal slot: `format` was asked for
    /// none, or the anchor being opened names none. A durable volume is never
    /// run without crash consistency.
    NoJournal,
    /// A registry put would make its shard's records outgrow the one
    /// block's data field that holds the shard; the put was refused and the
    /// shard left as it was.
    ShardOverflow {
        /// The shard that overflowed.
        shard: u32,
        /// Bytes its encoded records need.
        needed: usize,
        /// Bytes one data field can hold.
        capacity: usize,
    },
    /// A file's stripe map was written under another striping shape than the
    /// one the volume is being opened with; every stripe index of the store
    /// would address the wrong rows.
    StripeShapeMismatch {
        /// Path of the file whose map disagrees.
        path: String,
        /// The shape its stripe map records.
        stored: StripeConfig,
        /// The shape [`crate::ResilienceConfig::stripe`] asked for.
        configured: StripeConfig,
    },
    /// A structurally invalid persisted structure (stripe map, FAK table).
    Corrupt(String),
    /// The named file is not registered in the store.
    UnknownFile(String),
}

impl core::fmt::Display for ResilienceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ResilienceError::Fs(e) => write!(f, "file system error: {e}"),
            ResilienceError::Device(e) => write!(f, "device error: {e}"),
            ResilienceError::TooManyErasures { present, needed } => write!(
                f,
                "too many erasures: {present} shards survive, {needed} needed"
            ),
            ResilienceError::Unrecoverable { path, stripes } => write!(
                f,
                "file {path} unrecoverable: {} stripe(s) beyond parity tolerance",
                stripes.len()
            ),
            ResilienceError::AnchorUnrecoverable(msg) => {
                write!(f, "no valid volume anchor replica: {msg}")
            }
            ResilienceError::AnchorOverflow { needed, capacity } => write!(
                f,
                "anchor of {needed} bytes exceeds block capacity of {capacity} bytes"
            ),
            ResilienceError::JournalOverflow { needed, capacity } => write!(
                f,
                "journal record of {needed} bytes exceeds slot capacity of {capacity} bytes"
            ),
            ResilienceError::BlockTooLarge { len, capacity } => write!(
                f,
                "block write of {len} bytes exceeds data field of {capacity} bytes"
            ),
            ResilienceError::NoJournal => {
                write!(
                    f,
                    "a resilient volume needs at least one intent-journal slot"
                )
            }
            ResilienceError::ShardOverflow {
                shard,
                needed,
                capacity,
            } => write!(
                f,
                "registry shard {shard} of {needed} bytes exceeds block capacity of {capacity} bytes"
            ),
            ResilienceError::StripeShapeMismatch {
                path,
                stored,
                configured,
            } => write!(
                f,
                "file {path} is striped as (k, m) = ({}, {}) but the volume was opened as ({}, {})",
                stored.k, stored.m, configured.k, configured.m
            ),
            ResilienceError::Corrupt(msg) => write!(f, "corrupt persisted structure: {msg}"),
            ResilienceError::UnknownFile(path) => write!(f, "unknown file: {path}"),
        }
    }
}

impl std::error::Error for ResilienceError {}

impl From<FsError> for ResilienceError {
    fn from(e: FsError) -> Self {
        ResilienceError::Fs(e)
    }
}

impl From<DeviceError> for ResilienceError {
    fn from(e: DeviceError) -> Self {
        ResilienceError::Device(e)
    }
}

impl From<WireError> for ResilienceError {
    fn from(e: WireError) -> Self {
        ResilienceError::Corrupt(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = ResilienceError::TooManyErasures {
            present: 3,
            needed: 4,
        };
        assert!(e.to_string().contains("3 shards survive"));
        let e = ResilienceError::Unrecoverable {
            path: "/f".to_string(),
            stripes: vec![0, 2],
        };
        assert!(e.to_string().contains("/f"));
        assert!(e.to_string().contains("2 stripe(s)"));
        let e = ResilienceError::AnchorOverflow {
            needed: 9000,
            capacity: 4096,
        };
        assert!(e.to_string().contains("9000"));
    }

    #[test]
    fn conversions() {
        let fs = FsError::NoSuchFile;
        assert_eq!(ResilienceError::from(fs.clone()), ResilienceError::Fs(fs));
        let dev = DeviceError::OutOfRange {
            block: 1,
            num_blocks: 1,
        };
        assert_eq!(
            ResilienceError::from(dev.clone()),
            ResilienceError::Device(dev)
        );
    }
}
