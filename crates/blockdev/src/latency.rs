//! A wall-clock latency model for concurrency benchmarks.
//!
//! The `sim` module charges a *simulated* clock, which is ideal for
//! reproducing the paper's timing figures but invisible to wall-clock
//! throughput measurements. [`LatencyDevice`] instead makes the calling
//! thread actually wait a fixed duration per request before delegating to the
//! inner device — modelling the property of real storage that matters to a
//! *serving layer*: while one request waits on the device, other threads can
//! make progress. A single-threaded caller pays the full latency serially; a
//! concurrent serving layer overlaps the waits. The `concurrent_baseline`
//! bench uses this to measure how multi-user throughput scales with threads
//! even on a single-CPU host.
//!
//! A ranged request pays the per-request latency once (one positioning, many
//! transfers — the same convention as `DiskModel::batch_service_time_us`).

use std::time::Duration;

use crate::device::{BlockDevice, DeviceError};
use crate::layered::{Io, IoHook, Layered};

/// A device that sleeps a fixed duration per request.
pub type LatencyDevice<D> = Layered<D, LatencyHook>;

/// The hook of a [`LatencyDevice`]: the calling thread waits before the
/// request is forwarded.
pub struct LatencyHook {
    per_request: Duration,
}

impl<D: BlockDevice> IoHook<D> for LatencyHook {
    fn before(&self, _inner: &D, _io: Io) -> Result<(), DeviceError> {
        if !self.per_request.is_zero() {
            std::thread::sleep(self.per_request);
        }
        Ok(())
    }
}

impl<D: BlockDevice> Layered<D, LatencyHook> {
    /// Wrap `inner`, charging `per_request_us` microseconds of wall-clock
    /// latency per block request (scalar or ranged).
    pub fn new(inner: D, per_request_us: u64) -> Self {
        let per_request = Duration::from_micros(per_request_us);
        Self::with_hook(inner, LatencyHook { per_request })
    }

    /// The configured per-request latency in microseconds.
    pub fn latency_us(&self) -> u64 {
        self.hook().per_request.as_micros() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemDevice;

    #[test]
    fn sleeps_at_least_the_configured_latency() {
        let dev = LatencyDevice::new(MemDevice::new(4, 64), 2_000);
        assert_eq!(dev.latency_us(), 2_000);
        let mut buf = vec![0u8; 64];
        let t0 = std::time::Instant::now();
        for _ in 0..3 {
            dev.read_block(0, &mut buf).unwrap();
        }
        assert!(
            t0.elapsed() >= Duration::from_micros(6_000),
            "3 reads at 2 ms each took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn concurrent_requests_overlap_their_waits() {
        // Four threads × one 4 ms request each should take far less than the
        // 16 ms a serial caller pays — the property the serving layer relies
        // on.
        let dev = LatencyDevice::new(MemDevice::new(4, 64), 4_000);
        let t0 = std::time::Instant::now();
        std::thread::scope(|s| {
            for b in 0..4u64 {
                let dev = &dev;
                s.spawn(move || {
                    let mut buf = vec![0u8; 64];
                    dev.read_block(b, &mut buf).unwrap();
                });
            }
        });
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_micros(12_000),
            "overlapped waits took {elapsed:?} (serial would be 16 ms)"
        );
    }
}
