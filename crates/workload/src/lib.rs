//! # stegfs-workload
//!
//! Workload generators reproducing the paper's experimental set-up (Table 2):
//! uniform, sequential and skewed (Zipf) block-access patterns, a login-churn
//! workload, and the driver that interleaves several users' block-level
//! operations on one shared (simulated) disk — the mechanism behind the
//! concurrency curves of Figures 10(b) and 11(c).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod churn;
mod driver;
mod patterns;

pub use churn::{ChurnConfig, ChurnOp, ChurnWorkload};
pub use driver::{RoundRobinDriver, TaskTiming, UserTask};
pub use patterns::{AccessPattern, ZipfDistribution};
