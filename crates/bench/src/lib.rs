//! # stegfs-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (Section 6). Each experiment is a binary under
//! `src/bin/` printing the same series the paper plots; shared set-up lives
//! in [`harness`] and text-table output in [`report`].
//!
//! | Paper artefact | Binary |
//! |---|---|
//! | Figure 10(a) — retrieval time vs file size | `fig10a` |
//! | Figure 10(b) — retrieval time vs concurrency | `fig10b` |
//! | Figure 11(a) — update time vs space utilisation | `fig11a` |
//! | Figure 11(b) — update time vs update range | `fig11b` |
//! | Figure 11(c) — update time vs concurrency | `fig11c` |
//! | Table 4 — oblivious-storage height & overhead factor vs buffer size | `table4` |
//! | Figure 12(a) — oblivious read time vs buffer size | `fig12a` |
//! | Figure 12(b) — sorting vs retrieving overhead fraction | `fig12b` |
//! | §4.1.5 `E = N/D` analysis (extra) | `overhead_model` |
//! | Definition 1 validation (extra) | `security_analysis` |
//!
//! Run with `cargo run --release -p stegfs_bench --bin <name>`; all times are
//! *simulated* times on the paper's 2004-era disk model (see
//! `stegfs_blockdev::sim::DiskModel`), so absolute values are comparable to
//! the paper's testbed rather than to the machine running the simulation.
//!
//! What a request costs on the machine at hand, through the whole stack, is
//! measured by the end-to-end benchmark (`benchmark/`, a package of its own),
//! kernel speed included: its per-layer `crypto.*` rows are the active
//! backend's, with the backend in the run's provenance. Four baseline bins
//! stay here for quantities it publishes no metric for; each writes one
//! report into the current directory:
//!
//! | Binary | Measures | Writes |
//! |---|---|---|
//! | `oblivious_baseline` | simulated level re-order, batched vs scalar I/O | `BENCH_oblivious.json` |
//! | `resilience_baseline` | read overhead per stripe shape, degraded scrub, repairing read | `BENCH_resilience.json` |
//! | `recovery_baseline` | mount latency vs staged intents, delta vs full rewrite | `BENCH_recovery.json` |
//! | `scale_baseline` | the persistent user registry at scale | `BENCH_scale.json` |
//!
//! Independent data points of an experiment run concurrently on scoped
//! threads ([`harness::fan_out`]); every bin also accepts `--quick` (or
//! `STEGFS_BENCH_QUICK=1`) for a smaller CI-sized run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod report;
