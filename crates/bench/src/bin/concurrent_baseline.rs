//! `concurrent_baseline`: multi-user serving throughput of the concurrent
//! agent at 1/2/4/8 threads, written to `BENCH_concurrent.json`.
//!
//! The system under test is [`steghide::ConcurrentAgent`] (sharded block map,
//! per-shard update locks, shared read path) over a [`LatencyDevice`] that
//! makes every block request cost a fixed wall-clock wait — the property of
//! real storage a serving layer exists to hide. Each user runs a mixed
//! read+update task through [`ConcurrentDriver`]; one task per user, users
//! striped over the worker threads. A single worker pays every device wait
//! serially; more workers overlap them, so aggregate throughput scales with
//! the thread count until the CPU (or lock contention) saturates — on a
//! single-CPU host the scaling measures exactly the latency-hiding of the
//! lock decomposition, with CPU-bound crypto as the ceiling.
//!
//! Every thread count replays the identical workload against a freshly built,
//! identically seeded volume, so the points differ only in concurrency.
//!
//! Run with `--quick` (or `STEGFS_BENCH_QUICK=1`) for a CI-sized run; the
//! JSON schema is identical, with `"quick": true` recorded.

use std::time::Instant;

use stegfs_base::{StegFsConfig, DEFAULT_MAP_SHARDS};
use stegfs_bench::harness::{bench_threads, pick, quick_mode};
use stegfs_bench::report::{print_metrics_table, render_bench_json, BenchMetric as Metric};
use stegfs_blockdev::{LatencyDevice, MemDevice};
use stegfs_crypto::{HashDrbg, Key256};
use stegfs_workload::{AccessPattern, ConcurrentDriver};
use steghide::{AgentConfig, ConcurrentAgent, FileId};

const SCHEMA: &str = "stegfs-concurrent-baseline/v1";
const BLOCK_SIZE: usize = 4096;
const VOLUME_BLOCKS: u64 = 8192;
/// Per-request device wait. Large enough to dwarf scheduler jitter, small
/// enough that a full sweep stays in seconds.
const DEVICE_LATENCY_US: u64 = 200;

struct Workload {
    users: usize,
    ops_per_user: u64,
    file_blocks: u64,
}

/// Build a fresh, identically seeded serving bed: one file per user.
fn build_bed(w: &Workload) -> (ConcurrentAgent<LatencyDevice<MemDevice>>, Vec<FileId>) {
    // The latency applies from the start; sparse creation keeps the set-up
    // phase to a handful of requests.
    let device = LatencyDevice::new(MemDevice::new(VOLUME_BLOCKS, BLOCK_SIZE), DEVICE_LATENCY_US);
    let agent = ConcurrentAgent::format(
        device,
        StegFsConfig::default().without_fill(),
        AgentConfig::default(),
        Key256::from_passphrase("concurrent baseline agent"),
        77,
        DEFAULT_MAP_SHARDS,
    )
    .expect("format concurrent volume");
    let per = agent.fs().content_bytes_per_block() as u64;
    let ids: Vec<FileId> = (0..w.users)
        .map(|u| {
            let secret = Key256::from_passphrase(&format!("user-{u}"));
            agent
                .create_file_sparse(&secret, &format!("/bench/u{u}"), w.file_blocks * per)
                .expect("create user file")
        })
        .collect();
    (agent, ids)
}

/// Run the mixed workload at `threads` workers; returns (elapsed_s, ops).
fn run_point(w: &Workload, threads: usize) -> (f64, u64) {
    let (agent, ids) = build_bed(w);
    let per = agent.fs().content_bytes_per_block();

    // One task per user: two reads then one update, round-robin over the
    // user's blocks — a 2:1 read/update mix, one block op per driver step.
    let tasks: Vec<_> = ids
        .iter()
        .enumerate()
        .map(|(u, &id)| {
            let mut pattern = AccessPattern::zipf(w.file_blocks, 0.8);
            let mut rng = HashDrbg::from_u64(0xC0 ^ u as u64);
            let payload = vec![0xAB; per];
            let mut remaining = w.ops_per_user;
            move |agent: &ConcurrentAgent<LatencyDevice<MemDevice>>| {
                let block = pattern.next(&mut rng);
                if remaining.is_multiple_of(3) {
                    agent.update_block(id, block, &payload).expect("update");
                } else {
                    agent.read_block(id, block).expect("read");
                }
                remaining -= 1;
                remaining == 0
            }
        })
        .collect();

    let t0 = Instant::now();
    ConcurrentDriver::run(&agent, tasks, threads, || 0);
    let elapsed = t0.elapsed().as_secs_f64();
    agent.flush().expect("flush headers");
    assert!(
        agent.map().counters_are_consistent(),
        "sharded map counters inconsistent after {threads}-thread run"
    );
    (elapsed, w.users as u64 * w.ops_per_user)
}

fn main() {
    let quick = quick_mode();
    let workload = Workload {
        users: 8,
        ops_per_user: pick(240, 36),
        file_blocks: 64,
    };
    // Honour --threads/STEGFS_BENCH_THREADS as an additional pinned point so
    // CI can reproduce a single configuration, but always sweep the standard
    // ladder the trajectory tracks.
    let mut thread_points = vec![1usize, 2, 4, 8];
    if let Some(pinned) = bench_threads() {
        if !thread_points.contains(&pinned) {
            thread_points.push(pinned);
        }
    }

    let mut metrics: Vec<Metric> = Vec::new();
    let mut throughput_at = std::collections::BTreeMap::new();
    for &threads in &thread_points {
        let (elapsed, ops) = run_point(&workload, threads);
        let throughput = ops as f64 / elapsed;
        throughput_at.insert(threads, throughput);
        metrics.push(Metric::new(
            format!("read_update_throughput_{threads}t"),
            "ops/s",
            throughput,
            format!(
                "{} users x {} mixed ops (2:1 read/update), {} us/request device, {} map shards",
                workload.users, workload.ops_per_user, DEVICE_LATENCY_US, DEFAULT_MAP_SHARDS
            ),
        ));
        metrics.push(Metric::new(
            format!("mean_op_latency_{threads}t"),
            "us",
            elapsed * 1e6 / ops as f64,
            format!("wall-clock elapsed {elapsed:.3} s / {ops} ops"),
        ));
    }

    let t1 = throughput_at[&1];
    for threads in [2usize, 4, 8] {
        metrics.push(Metric::new(
            format!("speedup_{threads}t"),
            "x",
            throughput_at[&threads] / t1,
            format!("aggregate throughput at {threads} threads over 1 thread, same workload"),
        ));
    }

    // Batched dummy-update selection: cross-shard grouping means one lock
    // acquisition per shard per round; report sustained dummy throughput.
    {
        let (agent, _ids) = build_bed(&workload);
        let batches = pick(40u64, 8);
        let batch_size = 32usize;
        let t0 = Instant::now();
        for _ in 0..batches {
            agent.dummy_update_batch(batch_size).expect("dummy batch");
        }
        let elapsed = t0.elapsed().as_secs_f64();
        metrics.push(Metric::new(
            "dummy_update_batch_throughput",
            "ops/s",
            (batches * batch_size as u64) as f64 / elapsed,
            format!("{batches} rounds x {batch_size} candidates grouped over {DEFAULT_MAP_SHARDS} shards"),
        ));
    }

    print_metrics_table(
        &format!(
            "Concurrent serving baseline ({})",
            if quick { "quick" } else { "full" }
        ),
        &metrics,
    );

    let json = render_bench_json(SCHEMA, quick, &metrics);
    std::fs::write("BENCH_concurrent.json", &json).expect("write BENCH_concurrent.json");
    println!("\nwrote BENCH_concurrent.json ({SCHEMA})");
}
