//! `scale_baseline`: the persistent sharded registry under a million-user
//! churn workload, written to `BENCH_scale.json`.
//!
//! The scenario the registry tier exists for: a registered population far
//! larger than the active set (10⁵ users in full mode), Zipf-skewed
//! activity, and login/logout storms, all against a volume whose registry
//! is one resilient hidden file of one-block shards. Metric groups:
//!
//! 1. **Bulk registration.** Throughput of registering the whole population
//!    (shard-ordered, the bulk-load fast path) plus the final full
//!    checkpoint and the cold `ResilientStore::open` of the populated
//!    volume.
//! 2. **Churn.** Ops/s over a deterministic [`ChurnWorkload`] stream
//!    (logins, lookups, updates, logouts with periodic storms) against the
//!    cold-reopened registry, plus a dedicated storm phase cycling sessions
//!    across every shard.
//! 3. **Resident memory.** Peak resident record count observed during the
//!    churn — asserted O(active users): bounded by the configured resident
//!    shard budget, not by the registered population.
//!
//! Run with `--quick` (or `STEGFS_BENCH_QUICK=1`) for a CI-sized run; the
//! JSON schema is identical, with `"quick": true` recorded.

use stegfs_base::StegFsConfig;
use stegfs_bench::harness::{pick, quick_mode, BLOCK_SIZE};
use stegfs_bench::report::{print_metrics_table, render_bench_json, BenchMetric as Metric};
use stegfs_blockdev::MemDevice;
use stegfs_crypto::Key256;
use stegfs_resilience::{Registry, ResilienceConfig, ResilientStore};
use stegfs_workload::{ChurnConfig, ChurnOp, ChurnWorkload};

fn master() -> Key256 {
    Key256::from_passphrase("scale baseline")
}

fn store_cfg() -> ResilienceConfig {
    ResilienceConfig::default()
        .with_fs(StegFsConfig::default().with_block_size(BLOCK_SIZE))
        .with_stripe(2, 1)
}

fn user_name(u: u64) -> String {
    format!("user-{u:06}")
}

/// The per-user registry record: a fixed-size sealed profile stub.
fn profile(u: u64) -> [u8; 16] {
    let mut p = [0u8; 16];
    p[..8].copy_from_slice(&u.to_le_bytes());
    p[8..].copy_from_slice(&(!u).to_le_bytes());
    p
}

fn main() {
    let quick = quick_mode();
    let mut metrics: Vec<Metric> = Vec::new();

    // A shard is one 4 KiB block: ≈ 123 records of 33 bytes. Full mode
    // spreads 10⁵ users over enough shards that the keyed hash's largest
    // shard still fits, and keeps ≈ 13 k records resident.
    let users: u64 = pick(100_000, 2_000);
    let shards: u32 = pick(1_280, 32);
    let max_resident: usize = pick(140, 8);
    let churn_ops: usize = pick(50_000, 2_000);
    let volume_blocks: u64 = pick(4096, 1024);

    // --- 1. Bulk registration, checkpoint, cold reopen. ---
    let device = MemDevice::new(volume_blocks, BLOCK_SIZE);
    let store = ResilientStore::format(device, store_cfg(), &master(), 0x5ca1e).expect("format");
    let mut registry = Registry::create(&store, shards, max_resident).expect("create registry");

    // Shard-ordered bulk load: group the population by its keyed shard so
    // each shard is filled once instead of thrashing the resident cache.
    let mut by_shard: Vec<(u32, u64)> = (0..users)
        .map(|u| (registry.shard_of(&user_name(u)), u))
        .collect();
    by_shard.sort_unstable();

    let t0 = std::time::Instant::now();
    for &(_, u) in &by_shard {
        registry
            .put(&user_name(u), &profile(u))
            .expect("register user");
    }
    let register_secs = t0.elapsed().as_secs_f64().max(1e-9);

    let t0 = std::time::Instant::now();
    registry.checkpoint().expect("checkpoint");
    let checkpoint_secs = t0.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(
        registry.checkpointed_records().expect("count"),
        users,
        "checkpoint must persist the full population"
    );
    let device = store.into_device();

    let t0 = std::time::Instant::now();
    let store = ResilientStore::open(device, store_cfg(), &master(), 0x5ca1e).expect("reopen");
    let mut registry = Registry::open(&store, max_resident)
        .expect("open registry")
        .expect("reopen must rediscover the registry");
    let reopen_secs = t0.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(
        registry.stats().resident_shards,
        0,
        "a reopened registry starts cold"
    );

    metrics.push(Metric::new(
        "registered_users",
        "users",
        users as f64,
        format!(
            "{shards} one-block shards (≈{} records each), {max_resident} resident",
            users / shards as u64
        ),
    ));
    metrics.push(Metric::new(
        "register_throughput",
        "users/s",
        users as f64 / register_secs,
        "shard-ordered bulk registration of the whole population",
    ));
    metrics.push(Metric::new(
        "checkpoint_ms",
        "ms",
        (checkpoint_secs * 1e3).max(1e-6),
        "full checkpoint of every dirty resident shard",
    ));
    metrics.push(Metric::new(
        "reopen_ms",
        "ms",
        (reopen_secs * 1e3).max(1e-6),
        "cold ResilientStore::open of the populated volume",
    ));

    // --- 2. Churn against the cold registry. ---
    let churn_cfg = ChurnConfig::default()
        .with_users(users)
        .with_theta(0.99)
        .with_max_active(pick(256, 64));
    let max_active = churn_cfg.max_active;
    let mut churn = ChurnWorkload::new(churn_cfg, 0xc0ffee);
    let mut peak_resident = 0u64;
    let mut counts = [0u64; 4]; // login, logout, lookup, update
    let t0 = std::time::Instant::now();
    for _ in 0..churn_ops {
        let op = churn.next().expect("stream is infinite");
        match op {
            // A login loads the user's profile; a logout persists it.
            ChurnOp::Login(u) | ChurnOp::Lookup(u) => {
                let got = registry.get(&user_name(u)).expect("lookup");
                assert!(got.is_some(), "registered user {u} vanished");
                let idx = if matches!(op, ChurnOp::Login(_)) {
                    0
                } else {
                    2
                };
                counts[idx] += 1;
            }
            ChurnOp::Logout(u) | ChurnOp::Update(u) => {
                registry
                    .put(&user_name(u), &profile(u ^ 0xff))
                    .expect("update");
                let idx = if matches!(op, ChurnOp::Logout(_)) {
                    1
                } else {
                    3
                };
                counts[idx] += 1;
            }
        }
        peak_resident = peak_resident.max(registry.stats().resident_records as u64);
    }
    let churn_secs = t0.elapsed().as_secs_f64().max(1e-9);

    metrics.push(Metric::new(
        "churn_throughput",
        "ops/s",
        churn_ops as f64 / churn_secs,
        format!(
            "{churn_ops} Zipf(0.99) ops: {} logins, {} logouts, {} lookups, {} updates; ≤{max_active} active",
            counts[0], counts[1], counts[2], counts[3]
        ),
    ));

    // --- 3. Storm phase: cycle sessions across every shard. ---
    let storm_sessions: u64 = pick(4_096, 512);
    let stride = (users / storm_sessions).max(1);
    let t0 = std::time::Instant::now();
    for s in 0..storm_sessions {
        let u = (s * stride) % users;
        // login: load the profile; logout: write the session's last state.
        assert!(registry.get(&user_name(u)).expect("login").is_some());
        registry
            .put(&user_name(u), &profile(u ^ 0xa5))
            .expect("logout");
    }
    let storm_secs = t0.elapsed().as_secs_f64().max(1e-9);
    metrics.push(Metric::new(
        "storm_session_cycles",
        "sessions/s",
        storm_sessions as f64 / storm_secs,
        format!("{storm_sessions} full login/logout cycles striding every shard"),
    ));

    // --- Resident memory: the O(active users) contract. The budget is the
    // worst case the FIFO cache permits: the `max_resident` most populous
    // shards resident at once (the keyed hash spreads users unevenly, so
    // this is computed from the actual shard sizes). ---
    let mut shard_sizes = vec![0u64; shards as usize];
    for &(s, _) in &by_shard {
        shard_sizes[s as usize] += 1;
    }
    shard_sizes.sort_unstable_by(|a, b| b.cmp(a));
    let resident_budget: u64 = shard_sizes.iter().take(max_resident).sum();
    assert!(
        peak_resident <= resident_budget,
        "resident records {peak_resident} exceed the {max_resident}-shard budget {resident_budget}"
    );
    assert!(
        peak_resident < users,
        "resident set must not scale with the registered population"
    );
    metrics.push(Metric::new(
        "resident_records_peak",
        "records",
        peak_resident as f64,
        format!("budget {resident_budget} (the {max_resident} largest shards resident at once)"),
    ));
    metrics.push(Metric::new(
        "resident_bound_ratio",
        "x",
        users as f64 / peak_resident as f64,
        "registered population / peak resident records",
    ));

    // A final checkpoint + audit: everything the churn wrote is durable.
    registry.checkpoint().expect("final checkpoint");
    assert_eq!(
        registry.checkpointed_records().expect("count"),
        users,
        "population must survive the churn"
    );

    // --- Report. ---
    print_metrics_table(
        &format!(
            "scale_baseline (wall clock{}): persistent registry churn trajectory",
            if quick { ", quick mode" } else { "" }
        ),
        &metrics,
    );
    if !quick {
        assert!(
            users as f64 / peak_resident as f64 >= 4.0,
            "full mode must demonstrate at least 4x resident-memory headroom"
        );
    }

    let path = "BENCH_scale.json";
    std::fs::write(
        path,
        render_bench_json("stegfs-scale-baseline/v1", quick, &metrics),
    )
    .expect("write BENCH_scale.json");
    println!("wrote {path} ({} metrics)", metrics.len());
}
