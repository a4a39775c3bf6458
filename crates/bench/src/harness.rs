//! Shared experiment plumbing: the five systems under test, the
//! oblivious-storage sweep, and the scoped-thread fan-out that the figure
//! bins use to run independent data points concurrently.

use std::sync::Mutex;

use stegfs_base::{FileAccessKey, OpenFile, StegFs, StegFsConfig, DEFAULT_MAP_SHARDS};
use stegfs_baselines::{AllocationPolicy, NativeFs};
use stegfs_blockdev::sim::{DiskModel, SimClock, SimDevice};
use stegfs_blockdev::MemDevice;
use stegfs_crypto::{HashDrbg, Key256};
use stegfs_oblivious::{ObliviousConfig, ObliviousStats, ObliviousStore};
use steghide::{
    AgentConfig, ConcurrentAgent, ConcurrentVolatileAgent, FileId, SessionId, UserCredential,
};

/// Block size used by every experiment (the paper's Table 2).
pub const BLOCK_SIZE: usize = 4096;

/// True when the figure bins should run in quick mode — fewer data points and
/// smaller volumes, for CI smoke runs. Enabled by passing `--quick` on the
/// command line or setting `STEGFS_BENCH_QUICK=1` (any non-empty value other
/// than `0`).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
        || std::env::var("STEGFS_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Pick `full` or `quick` experiment parameters according to [`quick_mode`].
pub fn pick<T>(full: T, quick: T) -> T {
    if quick_mode() {
        quick
    } else {
        full
    }
}

/// Time `op` run `iters` times and return total elapsed seconds for `iters`
/// executions. One untimed warmup pass touches code and tables, then the
/// fastest of three passes is reported — on a shared single-CPU host,
/// scheduler steal time otherwise dominates the variance. Shared by the
/// `recovery_baseline` and `resilience_baseline` trajectory bins.
pub fn timed(iters: u64, mut op: impl FnMut()) -> f64 {
    let per_pass = (iters / 3).max(1);
    for _ in 0..per_pass / 4 {
        op();
    }
    let mut best = f64::MAX;
    for _ in 0..3 {
        let t0 = std::time::Instant::now();
        for _ in 0..per_pass {
            op();
        }
        best = best.min(t0.elapsed().as_secs_f64() / per_pass as f64);
    }
    (best * iters as f64).max(1e-9)
}

/// Thread-count override for [`fan_out`], read from `--threads N` (or
/// `--threads=N`) on the command line or the `STEGFS_BENCH_THREADS`
/// environment variable, flag winning over env. `None` means "use all
/// available cores". Pinning the count (typically to 1) makes bench
/// *wall-clock* numbers reproducible across machines with different core
/// counts; simulated-time output is identical either way.
pub fn bench_threads() -> Option<usize> {
    if let Some(n) = threads_from_args(std::env::args()) {
        return Some(n);
    }
    match std::env::var("STEGFS_BENCH_THREADS") {
        Ok(raw) if !raw.is_empty() => {
            let parsed: usize = raw
                .parse()
                .unwrap_or_else(|_| panic!("invalid STEGFS_BENCH_THREADS value {raw:?}"));
            assert!(parsed > 0, "STEGFS_BENCH_THREADS must be at least 1");
            Some(parsed)
        }
        _ => None,
    }
}

/// Parse `--threads N` / `--threads=N` out of an argv iterator. Only those
/// two exact spellings are recognised; every other token — including other
/// flags that merely share the prefix, like `--threadpool` — is ignored, as
/// the bins ignore all argv they do not understand.
fn threads_from_args(args: impl IntoIterator<Item = String>) -> Option<usize> {
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let value = if arg == "--threads" {
            args.next()
                .unwrap_or_else(|| panic!("--threads requires a positive integer"))
        } else if let Some(rest) = arg.strip_prefix("--threads=") {
            rest.to_string()
        } else {
            continue;
        };
        let parsed: usize = value
            .parse()
            .unwrap_or_else(|_| panic!("invalid --threads value {value:?}"));
        assert!(parsed > 0, "--threads must be at least 1");
        return Some(parsed);
    }
    None
}

/// Run independent experiment points concurrently on scoped threads and
/// return their results in input order.
///
/// Every figure data point builds its own [`TestBed`] (or oblivious store)
/// and measures on its own simulated clock, so points share no state and the
/// fan-out is embarrassingly parallel. Points are handed to `worker` from a
/// shared queue so long points (high utilisation, high concurrency) do not
/// serialise behind short ones. A panicking worker propagates out of the
/// scope, so failures are as loud as in the sequential version.
///
/// The thread count defaults to the available cores and can be pinned with
/// `--threads N` / `STEGFS_BENCH_THREADS` (see [`bench_threads`]).
pub fn fan_out<P, R, F>(points: Vec<P>, worker: F) -> Vec<R>
where
    P: Send,
    R: Send,
    F: Fn(P) -> R + Sync,
{
    let n = points.len();
    let threads = bench_threads()
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
        .min(n);
    if threads <= 1 {
        return points.into_iter().map(worker).collect();
    }

    // Reversed so `pop` serves points in input order.
    let queue: Mutex<Vec<(usize, P)>> = Mutex::new(points.into_iter().enumerate().rev().collect());
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let next = queue.lock().unwrap_or_else(|e| e.into_inner()).pop();
                let Some((index, point)) = next else { break };
                let value = worker(point);
                results
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push((index, value));
            });
        }
    });
    let mut results = results.into_inner().unwrap_or_else(|e| e.into_inner());
    results.sort_by_key(|(index, _)| *index);
    results.into_iter().map(|(_, value)| value).collect()
}

/// A simulated-disk-backed in-memory device.
pub type Sim = SimDevice<MemDevice>;

/// The five systems compared in the paper's evaluation (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// Construction 2 (volatile agent) — "StegHide".
    StegHide,
    /// Construction 1 (non-volatile agent) — "StegHide*".
    StegHideStar,
    /// The unprotected steganographic file system of \[12\] — "StegFS".
    StegFsBase,
    /// A fragmented native file system — "FragDisk".
    FragDisk,
    /// A fresh native file system with contiguous files — "CleanDisk".
    CleanDisk,
}

impl SystemKind {
    /// All five systems, in the order the paper lists them.
    pub fn all() -> [SystemKind; 5] {
        [
            SystemKind::StegHide,
            SystemKind::StegHideStar,
            SystemKind::StegFsBase,
            SystemKind::FragDisk,
            SystemKind::CleanDisk,
        ]
    }

    /// Display label matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::StegHide => "StegHide",
            SystemKind::StegHideStar => "StegHide*",
            SystemKind::StegFsBase => "StegFS",
            SystemKind::FragDisk => "FragDisk",
            SystemKind::CleanDisk => "CleanDisk",
        }
    }
}

/// Parameters for building a test bed.
#[derive(Debug, Clone)]
pub struct BuildSpec {
    /// Volume size in blocks (the paper uses a 1 GB volume = 262 144 blocks).
    pub volume_blocks: u64,
    /// Content blocks of each workload file.
    pub file_blocks: Vec<u64>,
    /// If set, filler data is allocated so that the space utilisation seen by
    /// the update algorithm matches this value (Figure 11(a)'s x-axis).
    pub target_utilisation: Option<f64>,
    /// Seed for all pseudo-random choices.
    pub seed: u64,
}

impl BuildSpec {
    /// Convenience constructor.
    pub fn new(volume_blocks: u64, file_blocks: Vec<u64>, seed: u64) -> Self {
        Self {
            volume_blocks,
            file_blocks,
            target_utilisation: None,
            seed,
        }
    }

    /// Set the target utilisation.
    pub fn with_utilisation(mut self, utilisation: f64) -> Self {
        self.target_utilisation = Some(utilisation);
        self
    }
}

enum Inner {
    Volatile {
        agent: ConcurrentVolatileAgent<Sim>,
        session: SessionId,
        files: Vec<FileId>,
    },
    NonVolatile {
        agent: ConcurrentAgent<Sim>,
        files: Vec<FileId>,
    },
    Base {
        fs: StegFs<Sim>,
        files: Vec<OpenFile>,
    },
    Native {
        fs: NativeFs<Sim>,
        names: Vec<String>,
    },
}

/// One system under test, fully populated and ready to serve the workload.
pub struct TestBed {
    kind: SystemKind,
    clock: SimClock,
    inner: Inner,
    file_blocks: Vec<u64>,
}

impl TestBed {
    /// Build a test bed of the given kind.
    pub fn build(kind: SystemKind, spec: &BuildSpec) -> TestBed {
        let device = SimDevice::with_model(
            MemDevice::new(spec.volume_blocks, BLOCK_SIZE),
            DiskModel::ultra_ata_2004(),
        );
        let clock = device.clock().clone();
        let fs_cfg = StegFsConfig::default().without_fill();
        let content_per_block = (BLOCK_SIZE - stegfs_base::IV_SIZE) as u64;
        let payload_blocks = spec.volume_blocks - 1;
        let data_blocks: u64 = spec.file_blocks.iter().sum();

        let inner = match kind {
            SystemKind::StegHideStar => {
                let agent = ConcurrentAgent::format(
                    device,
                    fs_cfg,
                    AgentConfig::default(),
                    Key256::from_passphrase("bench agent key"),
                    spec.seed,
                    DEFAULT_MAP_SHARDS,
                )
                .expect("format StegHide* volume");
                let mut files = Vec::new();
                for (i, &blocks) in spec.file_blocks.iter().enumerate() {
                    let secret = Key256::from_passphrase(&format!("user-{i}"));
                    let id = agent
                        .create_file_sparse(
                            &secret,
                            &format!("/bench/file{i}"),
                            blocks * content_per_block,
                        )
                        .expect("create workload file");
                    files.push(id);
                }
                if let Some(util) = spec.target_utilisation {
                    let wanted = (util * payload_blocks as f64) as u64;
                    let mut filler_idx = 0;
                    while agent.map().data_blocks() < wanted {
                        let chunk = (wanted - agent.map().data_blocks()).min(1500);
                        let secret = Key256::from_passphrase(&format!("filler-{filler_idx}"));
                        agent
                            .create_file_sparse(
                                &secret,
                                &format!("/bench/filler{filler_idx}"),
                                chunk * content_per_block,
                            )
                            .expect("create filler file");
                        filler_idx += 1;
                    }
                }
                Inner::NonVolatile { agent, files }
            }
            SystemKind::StegHide => {
                // Provision on the substrate, then mount the agent and log a
                // user in — the paper's Construction 2 deployment model.
                let (fs, map) =
                    StegFs::format(device, fs_cfg, spec.seed).expect("format StegHide volume");
                let mut credentials: Vec<UserCredential> = Vec::new();
                for (i, &blocks) in spec.file_blocks.iter().enumerate() {
                    let fak = FileAccessKey::from_passphrase(&format!("user-file-{i}"));
                    let path = format!("/bench/file{i}");
                    fs.create_file_sparse(&map, &path, &fak, blocks * content_per_block)
                        .expect("provision workload file");
                    credentials.push(UserCredential::new(path, fak));
                }
                // The visible universe: workload data + filler data + the
                // user's dummy pool, sized to hit the target utilisation
                // (default 50 %).
                let util = spec.target_utilisation.unwrap_or(0.5);
                let universe = ((data_blocks as f64 / util).ceil() as u64)
                    .min(payload_blocks / 2)
                    .max(data_blocks * 2);
                let mut remaining_data =
                    ((universe as f64 * util) as u64).saturating_sub(data_blocks);
                let mut filler_idx = 0;
                while remaining_data > 200 {
                    let chunk = remaining_data.min(1500);
                    let fak = FileAccessKey::from_passphrase(&format!("filler-{filler_idx}"));
                    let path = format!("/bench/filler{filler_idx}");
                    fs.create_file_sparse(&map, &path, &fak, chunk * content_per_block)
                        .expect("provision filler file");
                    credentials.push(UserCredential::new(path, fak));
                    remaining_data -= chunk;
                    filler_idx += 1;
                }
                let mut dummy_pool = universe.saturating_sub((universe as f64 * util) as u64);
                let mut dummy_idx = 0;
                while dummy_pool > 0 {
                    let chunk = dummy_pool.min(1500);
                    let fak = FileAccessKey::from_passphrase(&format!("dummy-{dummy_idx}"))
                        .without_content_key();
                    let path = format!("/bench/dummy{dummy_idx}");
                    fs.create_dummy_file_sparse(&map, &path, &fak, chunk)
                        .expect("provision dummy file");
                    credentials.push(UserCredential::new(path, fak));
                    dummy_pool -= chunk;
                    dummy_idx += 1;
                }

                let agent = ConcurrentVolatileAgent::mount(
                    fs.into_device(),
                    AgentConfig::default(),
                    spec.seed ^ 0xabc,
                    DEFAULT_MAP_SHARDS,
                )
                .expect("mount StegHide volume");
                let session = agent.login("bench-user", &credentials).expect("login");
                let files = agent.session_files(session).expect("session files")
                    [..spec.file_blocks.len()]
                    .to_vec();
                Inner::Volatile {
                    agent,
                    session,
                    files,
                }
            }
            SystemKind::StegFsBase => {
                let (fs, map) = StegFs::format(device, fs_cfg, spec.seed).expect("format StegFS");
                let mut files = Vec::new();
                for (i, &blocks) in spec.file_blocks.iter().enumerate() {
                    let fak = FileAccessKey::from_passphrase(&format!("stegfs-file-{i}"));
                    let file = fs
                        .create_file_sparse(
                            &map,
                            &format!("/bench/file{i}"),
                            &fak,
                            blocks * content_per_block,
                        )
                        .expect("create StegFS file");
                    files.push(file);
                }
                Inner::Base { fs, files }
            }
            SystemKind::FragDisk | SystemKind::CleanDisk => {
                let policy = if kind == SystemKind::FragDisk {
                    AllocationPolicy::frag_disk()
                } else {
                    AllocationPolicy::clean_disk()
                };
                let fs = NativeFs::new(device, policy);
                let mut names = Vec::new();
                for (i, &blocks) in spec.file_blocks.iter().enumerate() {
                    let name = format!("file{i}");
                    fs.create_file_sparse(&name, blocks * BLOCK_SIZE as u64)
                        .expect("create native file");
                    names.push(name);
                }
                Inner::Native { fs, names }
            }
        };

        // Exclude set-up I/O from all measurements.
        clock.reset();
        TestBed {
            kind,
            clock,
            inner,
            file_blocks: spec.file_blocks.clone(),
        }
    }

    /// Which system this is.
    pub fn kind(&self) -> SystemKind {
        self.kind
    }

    /// The shared simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Number of content blocks of workload file `idx`.
    pub fn file_blocks(&self, idx: usize) -> u64 {
        self.file_blocks[idx]
    }

    /// Content bytes per block for the steganographic systems.
    pub fn content_bytes_per_block(&self) -> usize {
        BLOCK_SIZE - stegfs_base::IV_SIZE
    }

    /// Read one content block of workload file `idx`.
    pub fn read_block(&mut self, file_idx: usize, block_idx: u64) {
        match &mut self.inner {
            Inner::Volatile {
                agent,
                session,
                files,
            } => {
                agent
                    .read_block(*session, files[file_idx], block_idx)
                    .expect("read block");
            }
            Inner::NonVolatile { agent, files } => {
                agent
                    .read_block(files[file_idx], block_idx)
                    .expect("read block");
            }
            Inner::Base { fs, files, .. } => {
                fs.read_content_block(&files[file_idx], block_idx)
                    .expect("read block");
            }
            Inner::Native { fs, names } => {
                fs.read_range(&names[file_idx], block_idx, 1)
                    .expect("read block");
            }
        }
    }

    /// Read an entire workload file, block by block.
    pub fn read_whole_file(&mut self, file_idx: usize) {
        for b in 0..self.file_blocks[file_idx] {
            self.read_block(file_idx, b);
        }
    }

    /// Update `count` consecutive blocks of workload file `idx` starting at
    /// `start`. The steganographic agents run the Figure 6 algorithm; plain
    /// StegFS and the native systems update in place (read-modify-write).
    pub fn update_blocks(&mut self, file_idx: usize, start: u64, count: u64) {
        match &mut self.inner {
            Inner::Volatile {
                agent,
                session,
                files,
            } => {
                agent
                    .update_range_fill(*session, files[file_idx], start, count, 0xAB)
                    .expect("update range");
            }
            Inner::NonVolatile { agent, files } => {
                agent
                    .update_range_fill(files[file_idx], start, count, 0xAB)
                    .expect("update range");
            }
            Inner::Base { fs, files, .. } => {
                let payload = vec![0xABu8; fs.content_bytes_per_block()];
                for b in start..start + count {
                    // Conventional read-modify-write, no relocation.
                    fs.read_content_block(&files[file_idx], b).expect("read");
                    fs.write_content_block(&mut files[file_idx], b, &payload)
                        .expect("write");
                }
            }
            Inner::Native { fs, names } => {
                fs.update_range(&names[file_idx], start, count, 0xAB)
                    .expect("update range");
            }
        }
    }

    /// Update statistics of the agent, when the system has one.
    pub fn agent_stats(&self) -> Option<steghide::UpdateStats> {
        match &self.inner {
            Inner::Volatile { agent, .. } => Some(agent.stats()),
            Inner::NonVolatile { agent, .. } => Some(agent.stats()),
            _ => None,
        }
    }
}

/// Result of one oblivious-storage sweep point (one buffer size).
#[derive(Debug, Clone, Copy)]
pub struct ObliviousSweep {
    /// Buffer size expressed in the paper's units (MB on the unscaled 1 GB
    /// last level).
    pub buffer_label_mb: u64,
    /// Buffer size in blocks at the simulated (scaled) geometry.
    pub buffer_blocks: u64,
    /// Hierarchy height `k`.
    pub height: u32,
    /// Analytic per-read overhead factor (Section 5.2).
    pub analytic_overhead: f64,
    /// Measured I/Os per read.
    pub measured_overhead: f64,
    /// Mean simulated time per oblivious read, in microseconds.
    pub mean_read_us: f64,
    /// Simulated time of one StegFS (random single-block) read, microseconds.
    pub stegfs_read_us: f64,
    /// Fraction of simulated time spent sorting/re-ordering.
    pub sort_time_fraction: f64,
    /// Fraction of I/Os spent sorting/re-ordering.
    pub sort_io_fraction: f64,
    /// Raw store statistics for the measured phase.
    pub stats: ObliviousStats,
}

/// The scale factor between the paper's 1 GB oblivious store and the
/// simulated one: the level count only depends on the ratio `N/B`, so the
/// sweep shrinks both by this factor to keep run times reasonable.
pub const OBLIVIOUS_SCALE: u64 = 128;

/// Last-level size (in blocks) of the scaled-down oblivious store — the
/// paper's 1 GB / 4 KB = 262 144 blocks divided by [`OBLIVIOUS_SCALE`].
pub const OBLIVIOUS_LAST_LEVEL_BLOCKS: u64 = 262_144 / OBLIVIOUS_SCALE;

/// The buffer sizes of the paper's Table 4 (8–128 MB), scaled.
pub fn table4_buffer_points() -> Vec<(u64, u64)> {
    [8u64, 16, 32, 64, 128]
        .iter()
        .map(|&mb| {
            let unscaled_blocks = mb * 1024 * 1024 / BLOCK_SIZE as u64;
            (mb, unscaled_blocks / OBLIVIOUS_SCALE)
        })
        .collect()
}

/// [`table4_buffer_points`] honouring [`quick_mode`]: the full sweep, or just
/// its two endpoints (the smallest and largest buffers still exercise both
/// extremes of the hierarchy height). Shared by `fig12a`, `fig12b` and
/// `table4` so the quick sampling policy lives in one place.
pub fn sweep_buffer_points() -> Vec<(u64, u64)> {
    let all = table4_buffer_points();
    if quick_mode() {
        vec![all[0], *all.last().expect("table 4 has points")]
    } else {
        all
    }
}

/// Run one oblivious-storage sweep point: populate the store, read every
/// cached block once in random order, and report timing / overhead splits.
pub fn oblivious_sweep(buffer_label_mb: u64, buffer_blocks: u64, seed: u64) -> ObliviousSweep {
    oblivious_sweep_scaled(
        OBLIVIOUS_LAST_LEVEL_BLOCKS,
        buffer_label_mb,
        buffer_blocks,
        seed,
    )
}

/// [`oblivious_sweep`] with an explicit last-level size. The figure bins use
/// the standard scaled geometry ([`OBLIVIOUS_LAST_LEVEL_BLOCKS`]); the
/// determinism integration test runs the identical sweep logic at a smaller
/// scale so an unoptimized debug build finishes in seconds.
pub fn oblivious_sweep_scaled(
    last_level: u64,
    buffer_label_mb: u64,
    buffer_blocks: u64,
    seed: u64,
) -> ObliviousSweep {
    let cfg = ObliviousConfig::new(buffer_blocks, last_level);
    let store_block = ObliviousStore::<Sim, Sim>::block_size_for_item(BLOCK_SIZE);
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
    let store = ObliviousStore::new(
        device,
        sort_device,
        cfg,
        Key256::from_passphrase("oblivious bench"),
        seed,
        Some(clock.clone()),
    )
    .expect("construct oblivious store");

    // Populate: every block users could read ends up cached, as in the
    // paper's read-through experiment.
    let payload = vec![0xA5u8; BLOCK_SIZE];
    for id in 0..last_level {
        store.insert(id, payload.clone()).expect("populate store");
    }

    // Measured phase: read every block once, in random order.
    let mut order: Vec<u64> = (0..last_level).collect();
    let mut rng = HashDrbg::from_u64(seed ^ 0x5151);
    rng.shuffle(&mut order);
    let stats_before = store.stats();
    let t0 = clock.now_us();
    for id in &order {
        store.read(*id).expect("oblivious read");
    }
    let elapsed = clock.now_us() - t0;
    let delta = store.stats().since(&stats_before);

    ObliviousSweep {
        buffer_label_mb,
        buffer_blocks,
        height: store.num_levels(),
        analytic_overhead: store.config().overhead_factor(),
        measured_overhead: delta.overhead_factor(),
        mean_read_us: elapsed as f64 / order.len() as f64,
        stegfs_read_us: model.random_block_us(BLOCK_SIZE) as f64,
        sort_time_fraction: delta.sorting_time_fraction(),
        sort_io_fraction: delta.sorting_io_fraction(),
        stats: delta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> BuildSpec {
        BuildSpec::new(4096, vec![32, 32], 7)
    }

    #[test]
    fn fan_out_preserves_input_order() {
        let points: Vec<u64> = (0..37).collect();
        let expected: Vec<u64> = points.iter().map(|p| p * 3 + 1).collect();
        assert_eq!(fan_out(points, |p| p * 3 + 1), expected);
        assert_eq!(fan_out(Vec::<u64>::new(), |p| p), Vec::<u64>::new());
        assert_eq!(fan_out(vec![9u64], |p| p + 1), vec![10]);
    }

    #[test]
    fn fan_out_runs_independent_testbeds() {
        // The exact shape of every figure bin: each point builds its own bed
        // and measures on its own simulated clock.
        let times = fan_out(
            vec![SystemKind::CleanDisk, SystemKind::StegFsBase],
            |kind| {
                let mut bed = TestBed::build(kind, &tiny_spec());
                bed.read_whole_file(0);
                bed.clock().now_us()
            },
        );
        assert_eq!(times.len(), 2);
        assert!(times.iter().all(|&t| t > 0));
        assert!(times[1] > times[0], "StegFS reads cost more than CleanDisk");
    }

    #[test]
    fn pick_follows_quick_mode() {
        // `cargo test` passes no --quick flag, so quick mode is controlled
        // entirely by the environment; only assert when the developer has not
        // exported STEGFS_BENCH_QUICK in the surrounding shell.
        if std::env::var_os("STEGFS_BENCH_QUICK").is_none() {
            assert!(!quick_mode());
            assert_eq!(pick(10, 2), 10);
        } else {
            assert_eq!(pick(10, 2), if quick_mode() { 2 } else { 10 });
        }
    }

    #[test]
    fn bench_threads_reads_env_when_no_flag_present() {
        // `cargo test` passes no --threads flag; only assert when the
        // surrounding shell has not exported the variable (same policy as
        // `pick_follows_quick_mode` below).
        if std::env::var_os("STEGFS_BENCH_THREADS").is_none() {
            assert_eq!(bench_threads(), None);
        }
    }

    #[test]
    fn threads_flag_parses_both_spellings_and_ignores_lookalikes() {
        let argv = |toks: &[&str]| toks.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(threads_from_args(argv(&["bin", "--threads", "4"])), Some(4));
        assert_eq!(threads_from_args(argv(&["bin", "--threads=2"])), Some(2));
        assert_eq!(threads_from_args(argv(&["bin", "--quick"])), None);
        // Prefix lookalikes are unknown flags and must be ignored, not
        // treated as a malformed --threads.
        assert_eq!(threads_from_args(argv(&["bin", "--threadpool"])), None);
        assert_eq!(threads_from_args(argv(&["bin", "--threads8"])), None);
        assert_eq!(
            threads_from_args(argv(&["bin", "--threads-count", "4"])),
            None
        );
    }

    #[test]
    #[should_panic(expected = "--threads requires a positive integer")]
    fn threads_flag_without_value_panics() {
        let _ = threads_from_args(["bin".to_string(), "--threads".to_string()]);
    }

    #[test]
    fn all_testbeds_build_and_serve_reads_and_updates() {
        for kind in SystemKind::all() {
            let mut bed = TestBed::build(kind, &tiny_spec());
            assert_eq!(bed.file_blocks(0), 32);
            assert_eq!(bed.clock().now_us(), 0, "{:?} clock must be reset", kind);
            bed.read_block(0, 5);
            bed.read_whole_file(1);
            assert!(bed.clock().now_us() > 0);
            bed.update_blocks(0, 3, 2);
        }
    }

    #[test]
    fn steghide_beds_report_agent_stats() {
        let mut bed = TestBed::build(SystemKind::StegHideStar, &tiny_spec());
        bed.update_blocks(0, 0, 4);
        let stats = bed.agent_stats().expect("agent stats");
        assert_eq!(stats.data_updates, 4);
        let bed = TestBed::build(SystemKind::CleanDisk, &tiny_spec());
        assert!(bed.agent_stats().is_none());
    }

    #[test]
    fn clean_disk_reads_are_much_faster_than_steghide_single_user() {
        let spec = BuildSpec::new(8192, vec![256], 3);
        let mut clean = TestBed::build(SystemKind::CleanDisk, &spec);
        clean.read_whole_file(0);
        let clean_time = clean.clock().now_us();

        let mut steg = TestBed::build(SystemKind::StegHideStar, &spec);
        steg.read_whole_file(0);
        let steg_time = steg.clock().now_us();

        assert!(
            steg_time > 5 * clean_time,
            "steg {steg_time} us vs clean {clean_time} us"
        );
    }

    #[test]
    fn utilisation_target_is_respected_for_nonvolatile() {
        let spec = BuildSpec::new(8192, vec![64], 5).with_utilisation(0.4);
        let bed = TestBed::build(SystemKind::StegHideStar, &spec);
        match &bed.inner {
            Inner::NonVolatile { agent, .. } => {
                let util = agent.utilisation();
                assert!((0.35..0.45).contains(&util), "utilisation {util}");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn table4_points_have_expected_ratios() {
        let points = table4_buffer_points();
        assert_eq!(points.len(), 5);
        // The N/B ratio (and therefore the height) matches the paper's
        // unscaled 1 GB / buffer-MB ratio.
        for (mb, blocks) in points {
            assert_eq!(
                OBLIVIOUS_LAST_LEVEL_BLOCKS / blocks,
                1024 / mb,
                "buffer {mb} MB"
            );
        }
    }
}
