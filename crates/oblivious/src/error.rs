//! Error type for the oblivious storage.

use stegfs_base::wire::WireError;
use stegfs_blockdev::DeviceError;

/// Errors produced by the oblivious storage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObliviousError {
    /// Underlying block device error.
    Device(DeviceError),
    /// The backing device is too small for the configured hierarchy.
    DeviceTooSmall {
        /// Blocks required.
        required: u64,
        /// Blocks available.
        available: u64,
    },
    /// The sort partition is too small for the largest level.
    SortPartitionTooSmall {
        /// Blocks required.
        required: u64,
        /// Blocks available.
        available: u64,
    },
    /// A payload larger than the per-item capacity was supplied.
    ItemTooLarge {
        /// Supplied size.
        got: usize,
        /// Maximum size.
        max: usize,
    },
    /// The requested logical block is not cached in the oblivious store.
    NotCached {
        /// The missing logical id.
        id: u64,
    },
    /// The hierarchy is full: the last level cannot accept more distinct
    /// blocks.
    CapacityExhausted,
    /// An on-disk structure failed to decode (wrong key or corruption).
    Corrupt(String),
}

impl core::fmt::Display for ObliviousError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ObliviousError::Device(e) => write!(f, "device error: {e}"),
            ObliviousError::DeviceTooSmall {
                required,
                available,
            } => write!(
                f,
                "oblivious partition too small: need {required} blocks, have {available}"
            ),
            ObliviousError::SortPartitionTooSmall {
                required,
                available,
            } => write!(
                f,
                "sort partition too small: need {required} blocks, have {available}"
            ),
            ObliviousError::ItemTooLarge { got, max } => {
                write!(f, "item of {got} bytes exceeds capacity of {max} bytes")
            }
            ObliviousError::NotCached { id } => {
                write!(f, "block {id} is not in the oblivious store")
            }
            ObliviousError::CapacityExhausted => write!(f, "oblivious store capacity exhausted"),
            ObliviousError::Corrupt(msg) => write!(f, "corrupt oblivious storage structure: {msg}"),
        }
    }
}

impl std::error::Error for ObliviousError {}

impl From<DeviceError> for ObliviousError {
    fn from(e: DeviceError) -> Self {
        ObliviousError::Device(e)
    }
}

impl From<WireError> for ObliviousError {
    fn from(e: WireError) -> Self {
        ObliviousError::Corrupt(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(ObliviousError::NotCached { id: 9 }
            .to_string()
            .contains('9'));
        assert!(ObliviousError::DeviceTooSmall {
            required: 10,
            available: 5
        }
        .to_string()
        .contains("10"));
    }
}
