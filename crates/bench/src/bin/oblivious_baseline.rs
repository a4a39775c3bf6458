//! `oblivious_baseline`: performance trajectory of the oblivious storage,
//! written to `BENCH_oblivious.json` — the storage-layer counterpart of
//! `crypto_baseline`.
//!
//! Three groups of metrics:
//!
//! 1. **Level-reorder path, batched vs scalar I/O (simulated time).** The
//!    same populate workload runs twice on the 2004 disk model: once with the
//!    ranged `read_blocks`/`write_blocks` pipeline (one positioning per
//!    batch), once with every ranged request re-expressed as scalar per-block
//!    requests via [`ScalarDevice`] — the access stream is identical, only
//!    the billing differs. Their ratio is the headline batched-I/O delta.
//! 2. **Wall-clock read/update throughput** of an in-memory store, with the
//!    same warmup/best-of-3 timing the crypto baseline uses — and, over every
//!    call of that pass that ran a flush cascade, the wall time per item the
//!    cascade re-ordered.
//! 3. **Per-point Figure 12 numbers** (mean simulated read time and sorting
//!    fractions per buffer size, same seeds as the `fig12a`/`fig12b` bins),
//!    so the trajectory records the exact curve the figures plot.
//! 4. **Concurrent read throughput of the decomposed store.** The same
//!    uniform read mix runs against one shared store on a [`LatencyDevice`]
//!    (each request makes the calling thread actually wait) at 1/2/4/8
//!    worker threads, and once more at 8 threads with every operation
//!    funnelled through a coarse `Mutex<ObliviousStore>` — the pre-
//!    decomposition architecture. The decomposed store overlaps the device
//!    waits of concurrent readers under its per-level read locks; the Mutex
//!    serializes them, so the 8-thread ratio is the headline decomposition
//!    delta.
//! 5. **Elevator gain (simulated).** The interleaved ranged request streams
//!    of four concurrent level sweeps, billed to the 2004 disk model in
//!    arrival order vs sorted by start block, the order an elevator would
//!    service them in.
//!
//! Run with `--quick` (or `STEGFS_BENCH_QUICK=1`) for a CI-sized run; the
//! JSON schema is identical, with `"quick": true` recorded so trajectory
//! tooling can separate the two.

use std::sync::Mutex;
use std::time::Instant;

use stegfs_bench::harness::{
    fan_out, oblivious_sweep, pick, quick_mode, sweep_buffer_points, timed, Sim, BLOCK_SIZE,
};
use stegfs_bench::report::{print_metrics_table, render_bench_json, BenchMetric as Metric};
use stegfs_blockdev::sim::{DiskModel, SimClock, SimDevice};
use stegfs_blockdev::{BlockDevice, LatencyDevice, MemDevice, ScalarDevice};
use stegfs_crypto::{HashDrbg, Key256};
use stegfs_oblivious::{ObliviousConfig, ObliviousStats, ObliviousStore};
use stegfs_workload::ConcurrentDriver;

/// Populate `items` distinct blocks through the store's insert/flush/cascade
/// path and return the collected statistics (the simulated clock accumulates
/// into whatever `clock` the devices share).
fn populate<D: BlockDevice, S: BlockDevice>(
    device: D,
    sort_device: S,
    cfg: ObliviousConfig,
    clock: SimClock,
    items: u64,
) -> ObliviousStats {
    let store = ObliviousStore::new(
        device,
        sort_device,
        cfg,
        Key256::from_passphrase("oblivious baseline"),
        4242,
        Some(clock),
    )
    .expect("construct store");
    let payload = vec![0xA5u8; BLOCK_SIZE];
    for id in 0..items {
        store.insert(id, payload.clone()).expect("populate");
    }
    assert!(
        store.membership_is_consistent(),
        "membership invariant violated after populate cascade"
    );
    store.stats()
}

/// Wall time spent in the calls that ran a flush cascade, and the items those
/// cascades re-ordered, accumulated over a sequence of store calls.
///
/// Levels change only inside a cascade, so the occupancy seen after the last
/// one is the occupancy the next one starts from. A cascade that re-orders
/// `r` levels rewrites levels `1..=r` with what they hold afterwards; when the
/// hierarchy is at capacity it first re-orders the last level in place, with
/// what it held before (`r` is then one more than the number of levels).
#[derive(Default)]
struct ReorderWall {
    secs: f64,
    items: u64,
    reorders: u64,
    levels: Vec<usize>,
}

impl ReorderWall {
    fn time<D: BlockDevice, S: BlockDevice, T>(
        &mut self,
        store: &ObliviousStore<D, S>,
        call: impl FnOnce() -> T,
    ) -> T {
        let t0 = Instant::now();
        let out = call();
        let elapsed = t0.elapsed().as_secs_f64();
        let reorders = store.stats().reorders;
        let reordered = (reorders - self.reorders) as usize;
        if reordered > 0 {
            let levels = store.occupancy().split_off(1);
            let in_place = reordered > levels.len();
            let rewritten: usize = levels.iter().take(reordered).sum();
            let last_before = self.levels.last().copied().unwrap_or(0);
            self.items += (rewritten + if in_place { last_before } else { 0 }) as u64;
            self.secs += elapsed;
            self.reorders = reorders;
            self.levels = levels;
        }
        out
    }
}

/// Run the reorder-path workload on the simulated 2004 disk, batched or
/// scalar. Identical geometry, seed and access stream in both modes; only
/// the request granularity the disk model bills changes.
fn reorder_scenario(scalar: bool, buffer: u64, last_level: u64, items: u64) -> ObliviousStats {
    let store_block = ObliviousStore::<Sim, Sim>::block_size_for_item(BLOCK_SIZE);
    let cfg = ObliviousConfig::new(buffer, last_level);
    let model = DiskModel::ultra_ata_2004();
    let clock = SimClock::new();
    let device = SimDevice::with_shared_clock(
        MemDevice::new(
            ObliviousStore::<Sim, Sim>::blocks_required(&cfg, store_block),
            store_block,
        ),
        model,
        clock.clone(),
    );
    let sort_device = SimDevice::with_shared_clock(
        MemDevice::new(
            ObliviousStore::<Sim, Sim>::sort_blocks_required(&cfg) + 8,
            ObliviousStore::<Sim, Sim>::sort_block_size_for(store_block),
        ),
        model,
        clock.clone(),
    );
    if scalar {
        populate(
            ScalarDevice::new(device),
            ScalarDevice::new(sort_device),
            cfg,
            clock,
            items,
        )
    } else {
        populate(device, sort_device, cfg, clock, items)
    }
}

/// The shared store the concurrent read scenarios hammer: a fresh,
/// identically-seeded hierarchy on a wall-clock [`LatencyDevice`], fully
/// populated and flushed down into the levels (`items` is a multiple of the
/// buffer, so the front buffer is empty when the timed phase starts and
/// every first read pays the full per-level device latency).
fn latency_store(
    items: u64,
    buffer: u64,
    latency_us: u64,
) -> ObliviousStore<LatencyDevice<MemDevice>, MemDevice> {
    type Lat = ObliviousStore<LatencyDevice<MemDevice>, MemDevice>;
    let store_block = Lat::block_size_for_item(BLOCK_SIZE);
    let cfg = ObliviousConfig::new(buffer, items);
    let store = ObliviousStore::new(
        LatencyDevice::new(
            MemDevice::new(Lat::blocks_required(&cfg, store_block), store_block),
            latency_us,
        ),
        MemDevice::new(
            Lat::sort_blocks_required(&cfg) + 8,
            Lat::sort_block_size_for(store_block),
        ),
        cfg,
        Key256::from_passphrase("oblivious concurrent reads"),
        777,
        None,
    )
    .expect("construct store");
    let payload = vec![0x96u8; BLOCK_SIZE];
    for id in 0..items {
        store.insert(id, payload.clone()).expect("populate");
    }
    store
}

/// The per-task read mix of the concurrent scenarios: `reads` uniform reads
/// per task, each task drawing from its own deterministic stream.
fn read_tasks<S: Sync>(
    tasks: usize,
    reads: u64,
    items: u64,
    read: impl Fn(&S, u64) + Sync + Copy,
) -> Vec<impl FnMut(&S) -> bool> {
    (0..tasks)
        .map(|t| {
            let mut rng = HashDrbg::from_u64(5000 + t as u64);
            let mut done = 0u64;
            move |s: &S| {
                read(s, rng.gen_range(items));
                done += 1;
                done == reads
            }
        })
        .collect()
}

/// Aggregate read throughput (reads/s) of `tasks` concurrent readers at
/// `threads` worker threads against a fresh decomposed store (shared
/// directly) or the coarse-Mutex baseline.
fn concurrent_read_throughput(
    threads: usize,
    coarse_mutex: bool,
    items: u64,
    buffer: u64,
    latency_us: u64,
    tasks: usize,
    reads: u64,
) -> f64 {
    let total_reads = (tasks as u64 * reads) as f64;
    if coarse_mutex {
        let store = Mutex::new(latency_store(items, buffer, latency_us));
        let t0 = Instant::now();
        ConcurrentDriver::run(
            &store,
            read_tasks(
                tasks,
                reads,
                items,
                |s: &Mutex<ObliviousStore<LatencyDevice<MemDevice>, MemDevice>>, id| {
                    let store = s.lock().expect("store mutex");
                    store.read(id).expect("read");
                },
            ),
            threads,
            || 0,
        );
        total_reads / t0.elapsed().as_secs_f64()
    } else {
        let store = latency_store(items, buffer, latency_us);
        let t0 = Instant::now();
        ConcurrentDriver::run(
            &store,
            read_tasks(tasks, reads, items, |s: &ObliviousStore<_, _>, id| {
                s.read(id).expect("read");
            }),
            threads,
            || 0,
        );
        let throughput = total_reads / t0.elapsed().as_secs_f64();
        assert!(
            store.membership_is_consistent(),
            "membership invariant violated under concurrent reads"
        );
        assert_eq!(store.write_epoch() % 2, 0, "epoch guard left open");
        throughput
    }
}

fn main() {
    let quick = quick_mode();
    let mut metrics: Vec<Metric> = Vec::new();

    // --- 1. Level-reorder path: batched vs scalar simulated time. ---
    // k = 3 levels; the buffer is large enough that run/batch sweeps dominate
    // over seeks, as in the paper's unscaled geometry.
    let (buffer, last_level) = pick((1024u64, 8192u64), (256, 2048));
    let items = last_level;
    let geometry = format!("{items} items, buffer {buffer} blocks, last level {last_level}");
    let modes = fan_out(vec![true, false], |scalar| {
        reorder_scenario(scalar, buffer, last_level, items)
    });
    let (scalar_stats, batched_stats) = (modes[0], modes[1]);
    assert_eq!(
        scalar_stats.sort_ios, batched_stats.sort_ios,
        "scalar and batched modes must issue the identical access stream"
    );
    let speedup = scalar_stats.sort_time_us as f64 / batched_stats.sort_time_us as f64;
    metrics.push(Metric::new(
        "reorder_sim_time_scalar",
        "s",
        scalar_stats.sort_time_us as f64 / 1e6,
        format!("{geometry}; per-block requests"),
    ));
    metrics.push(Metric::new(
        "reorder_sim_time_batched",
        "s",
        batched_stats.sort_time_us as f64 / 1e6,
        format!("{geometry}; ranged requests"),
    ));
    metrics.push(Metric::new(
        "batch_io_speedup_reorder",
        "x",
        speedup,
        "scalar / batched simulated time, identical access stream".to_string(),
    ));
    metrics.push(Metric::new(
        "reorder_mean_sim_ms",
        "ms",
        batched_stats.sort_time_us as f64 / 1e3 / batched_stats.reorders as f64,
        format!("{} reorders", batched_stats.reorders),
    ));
    metrics.push(Metric::new(
        "sort_ios_per_reorder",
        "ios",
        batched_stats.sort_ios as f64 / batched_stats.reorders as f64,
        "collect + spill + merge + rewrite + index blocks".to_string(),
    ));

    // --- 2. Wall-clock read/update throughput (in-memory store). ---
    let wall_items = pick(1024u64, 256);
    let cfg = ObliviousConfig::new(64, wall_items);
    let store_block = ObliviousStore::<MemDevice, MemDevice>::block_size_for_item(BLOCK_SIZE);
    let store = ObliviousStore::new(
        MemDevice::new(
            ObliviousStore::<MemDevice, MemDevice>::blocks_required(&cfg, store_block),
            store_block,
        ),
        MemDevice::new(
            ObliviousStore::<MemDevice, MemDevice>::sort_blocks_required(&cfg) + 8,
            ObliviousStore::<MemDevice, MemDevice>::sort_block_size_for(store_block),
        ),
        cfg,
        Key256::from_passphrase("oblivious wall clock"),
        99,
        None,
    )
    .expect("construct store");
    let payload = vec![0x3Cu8; BLOCK_SIZE];
    let mut reorder_wall = ReorderWall::default();
    for id in 0..wall_items {
        let item = payload.clone();
        reorder_wall
            .time(&store, || store.insert(id, item))
            .expect("populate");
    }
    let read_iters = pick(4_000u64, 400);
    let mut rng = HashDrbg::from_u64(7);
    let read_secs = timed(read_iters, || {
        let id = rng.gen_range(wall_items);
        reorder_wall.time(&store, || store.read(id)).expect("read");
    });
    metrics.push(Metric::new(
        "read_throughput_wall",
        "reads/s",
        read_iters as f64 / read_secs,
        format!("uniform reads over {wall_items} cached 4 KB blocks"),
    ));
    let update_iters = pick(4_000u64, 400);
    let update_secs = timed(update_iters, || {
        let id = rng.gen_range(wall_items);
        let item = payload.clone();
        reorder_wall
            .time(&store, || store.write(id, item))
            .expect("update");
    });
    metrics.push(Metric::new(
        "update_throughput_wall",
        "updates/s",
        update_iters as f64 / update_secs,
        format!("uniform overwrites over {wall_items} cached 4 KB blocks"),
    ));
    metrics.push(Metric::new(
        "reorder_wall_us_per_item",
        "us",
        reorder_wall.secs * 1e6 / reorder_wall.items as f64,
        format!(
            "wall time of the calls above that ran a flush cascade / items those \
             cascades re-ordered ({} items, {} level re-orders, MemDevice)",
            reorder_wall.items, reorder_wall.reorders
        ),
    ));

    // --- 3. Figure 12 per-point simulated numbers (same seeds as the bins). ---
    let sweeps = fan_out(sweep_buffer_points(), |(mb, buffer_blocks)| {
        (mb, oblivious_sweep(mb, buffer_blocks, 12_000 + mb))
    });
    for (mb, sweep) in &sweeps {
        metrics.push(Metric::new(
            format!("fig12a_read_us_{mb}mb"),
            "us",
            sweep.mean_read_us,
            format!(
                "mean simulated read, k = {}, {:.1}x a StegFS read",
                sweep.height,
                sweep.mean_read_us / sweep.stegfs_read_us
            ),
        ));
        metrics.push(Metric::new(
            format!("fig12b_sort_time_fraction_{mb}mb"),
            "frac",
            sweep.sort_time_fraction,
            format!(
                "sorting share of access time ({:.1}% of I/O ops)",
                sweep.sort_io_fraction * 100.0
            ),
        ));
    }

    // --- 4. Concurrent reads: decomposed store vs coarse Mutex. ---
    // 256 items over a 16-block buffer gives a 4-level hierarchy; every
    // buffer miss pays ~2 device requests per level, and the 150 us
    // per-request latency is what concurrent readers can overlap. The same
    // task mix, seeds and fresh store per point keep the access streams
    // identical across thread counts.
    let (conc_items, conc_buffer) = (256u64, 16u64);
    let latency_us = 150u64;
    let conc_tasks = 8usize;
    let conc_reads = pick(48u64, 12);
    let conc_detail = format!(
        "{conc_tasks} tasks x {conc_reads} uniform reads over {conc_items} items, \
         {latency_us} us/request device"
    );
    let mut decomposed_8t = 0.0f64;
    for threads in [1usize, 2, 4, 8] {
        let throughput = concurrent_read_throughput(
            threads,
            false,
            conc_items,
            conc_buffer,
            latency_us,
            conc_tasks,
            conc_reads,
        );
        if threads == 8 {
            decomposed_8t = throughput;
        }
        metrics.push(Metric::new(
            format!("oblivious_read_throughput_{threads}t"),
            "reads/s",
            throughput,
            format!("{conc_detail}; decomposed store, {threads} threads"),
        ));
    }
    let mutex_8t = concurrent_read_throughput(
        8,
        true,
        conc_items,
        conc_buffer,
        latency_us,
        conc_tasks,
        conc_reads,
    );
    metrics.push(Metric::new(
        "oblivious_read_throughput_mutex_8t",
        "reads/s",
        mutex_8t,
        format!("{conc_detail}; coarse Mutex<ObliviousStore>, 8 threads"),
    ));
    let read_speedup = decomposed_8t / mutex_8t;
    metrics.push(Metric::new(
        "oblivious_read_speedup_8t",
        "x",
        read_speedup,
        "decomposed / coarse-Mutex aggregate read throughput at 8 threads".to_string(),
    ));

    // --- 5. Elevator gain (deterministic, simulated). ---
    // Four concurrent level sweeps at distant offsets whose ranged requests
    // arrive round-robin interleaved: billed in arrival order every request
    // switches streams and pays the full seek; elevator-sorted, each stream's
    // requests coalesce into ascending runs.
    let sweep_steps = pick(64u64, 16);
    let run_len = 8u64;
    let model = DiskModel::ultra_ata_2004();
    let elevator_clock = SimClock::new();
    let mut arrival: Vec<(u64, u64, usize)> = Vec::new();
    for step in 0..sweep_steps {
        for stream in 0..4u64 {
            arrival.push((stream * 100_000 + step * run_len, run_len, BLOCK_SIZE));
        }
    }
    for &(start, count, bytes) in &arrival {
        elevator_clock.charge_batch(&model, start, count, bytes);
    }
    let interleaved_us = elevator_clock.now_us();
    elevator_clock.reset();
    let mut drained = arrival.clone();
    drained.sort_by_key(|r| r.0);
    for &(start, count, bytes) in &drained {
        elevator_clock.charge_batch(&model, start, count, bytes);
    }
    let drained_us = elevator_clock.now_us();
    metrics.push(Metric::new(
        "submission_queue_elevator_speedup",
        "x",
        interleaved_us as f64 / drained_us as f64,
        format!(
            "4 interleaved level sweeps x {sweep_steps} ranged requests on the 2004 disk, \
             arrival order vs drained elevator batch"
        ),
    ));

    // --- Report. ---
    print_metrics_table(
        &format!(
            "oblivious_baseline (simulated 2004 disk + wall clock{}): storage-layer trajectory",
            if quick { ", quick mode" } else { "" }
        ),
        &metrics,
    );
    println!(
        "\nBatched vs scalar I/O on the level-reorder path: {speedup:.2}x simulated-time \
         speedup ({} sort I/Os across {} reorders)",
        batched_stats.sort_ios, batched_stats.reorders
    );
    println!(
        "Decomposed vs coarse-Mutex oblivious reads at 8 threads: {read_speedup:.2}x \
         ({decomposed_8t:.0} vs {mutex_8t:.0} reads/s)"
    );

    let path = "BENCH_oblivious.json";
    std::fs::write(
        path,
        render_bench_json("stegfs-oblivious-baseline/v1", quick, &metrics),
    )
    .expect("write BENCH_oblivious.json");
    println!("wrote {path} ({} metrics)", metrics.len());
}
