//! Every call the benchmark makes into the repo's crates lives in this file
//! (the probe only implements the `BlockDevice` trait). When the three stacks
//! become one volume, this is the one file that has to follow.
//!
//! Three things are here: the systems under test behind one [`Sut`] trait,
//! built on a bare, simulated or probed device; the direct single-layer
//! measurements (`crypto.*`, `stegfs.*`, codec rates); and re-exports of the
//! generator primitives the workloads draw from.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use stegfs_base::{
    BlockClass, BlockCodec, FileAccessKey, ShardedBlockMap, StegFs, StegFsConfig,
    DEFAULT_MAP_SHARDS,
};
use stegfs_blockdev::sim::{DiskModel, SimClock, SimDevice};
use stegfs_blockdev::{BlockDevice, BlockId, MemDevice};
use stegfs_crypto::{sha256, Aes256, CbcCipher, HmacSha256, Key256};
use stegfs_oblivious::{ObliviousConfig, ObliviousStore};
use stegfs_resilience::{ErasureCodec, ResilienceConfig, ResilientStore, ScrubCursor};
use steghide::{AgentConfig, ConcurrentAgent, FileId};

pub use stegfs_crypto::HashDrbg as Rng;
pub use stegfs_workload::AccessPattern;

use crate::oracle::{Oracle, PayloadFn, Tally};
use crate::probe::{ProbeCounters, ProbeDevice, ProbeSnapshot, Tracer};
use crate::stats::median;
use crate::workloads::{Op, Spec, SystemKind};

/// 4 KB blocks everywhere.
pub const BLOCK_SIZE: usize = 4096;
/// Oblivious store geometry: a 64-item buffer under a 4096-item last level.
const OBLIVIOUS_BUFFER: u64 = 64;
/// Durable store geometry.
const STRIPE: (usize, usize) = (4, 2);
const JOURNAL_SLOTS: usize = 4;

pub fn crypto_backends() -> (&'static str, &'static str) {
    (
        stegfs_crypto::backend_name(),
        stegfs_crypto::sha256_backend_name(),
    )
}

/// Payload bytes one block carries on this workload's system.
fn payload_len(spec: &Spec) -> usize {
    match spec.system {
        // The codec's data field: a block minus its IV.
        SystemKind::Agent | SystemKind::Durable => BlockCodec::new(BLOCK_SIZE).data_field_len(),
        // Whole 4 KB items; the store's blocks grow by the item header.
        SystemKind::Oblivious => BLOCK_SIZE,
    }
}

// ----- the systems under test --------------------------------------------

/// Which latency distribution a call feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// `read_block` / `read` / `read_file`.
    Read,
    /// `update_block` / `write` / `write_block`.
    Update,
    /// `write_file` and cover batches: spans only.
    Other,
}

/// One call into a layer, timed at the call boundary.
pub struct Timed {
    pub span: &'static str,
    pub class: OpClass,
    pub start: Instant,
    pub end: Instant,
    /// The call succeeded and every byte it returned was right.
    pub ok: bool,
    /// Payload bytes the user asked to be written.
    pub user_bytes_written: u64,
    /// Blocks a cover batch touched.
    pub cover_blocks: u64,
    /// The call paid for a level reorder (oblivious store only).
    pub stalled: bool,
}

fn timed<R>(call: impl FnOnce() -> R) -> (R, Instant, Instant) {
    let start = Instant::now();
    let result = call();
    let end = Instant::now();
    (result, start, end)
}

impl Timed {
    fn new(span: &'static str, class: OpClass, start: Instant, end: Instant, ok: bool) -> Self {
        Self {
            span,
            class,
            start,
            end,
            ok,
            user_bytes_written: 0,
            cover_blocks: 0,
            stalled: false,
        }
    }

    /// An operation the workload's system has no call for.
    fn unsupported() -> Self {
        let now = Instant::now();
        Self::new("unsupported", OpClass::Other, now, now, false)
    }
}

/// Per-client reusable buffers.
#[derive(Default)]
pub struct Scratch {
    payload: Vec<u8>,
    content: Vec<u8>,
}

/// The systems' own cumulative counters, flattened; fields a system does not
/// have stay 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerCounters {
    pub data_updates: u64,
    pub dummy_updates: u64,
    pub relocations: u64,
    pub in_place: u64,
    pub iterations: u64,
    pub reads_served: u64,
    pub buffer_hits: u64,
    pub retrieve_ios: u64,
    pub sort_ios: u64,
    pub reorders: u64,
    pub retrieve_time_us: u64,
    pub sort_time_us: u64,
    /// Buffer flushes (structural passes) of the oblivious store.
    pub flushes: u64,
}

impl LayerCounters {
    pub fn since(&self, earlier: &LayerCounters) -> LayerCounters {
        LayerCounters {
            data_updates: self.data_updates - earlier.data_updates,
            dummy_updates: self.dummy_updates - earlier.dummy_updates,
            relocations: self.relocations - earlier.relocations,
            in_place: self.in_place - earlier.in_place,
            iterations: self.iterations - earlier.iterations,
            reads_served: self.reads_served - earlier.reads_served,
            buffer_hits: self.buffer_hits - earlier.buffer_hits,
            retrieve_ios: self.retrieve_ios - earlier.retrieve_ios,
            sort_ios: self.sort_ios - earlier.sort_ios,
            reorders: self.reorders - earlier.reorders,
            retrieve_time_us: self.retrieve_time_us - earlier.retrieve_time_us,
            sort_time_us: self.sort_time_us - earlier.sort_time_us,
            flushes: self.flushes - earlier.flushes,
        }
    }
}

/// What the end-of-pass checks measured on the side.
#[derive(Debug, Clone, Copy, Default)]
pub struct Finish {
    pub flush_ms: f64,
    pub open_ms: f64,
    pub scrub_mb_s: f64,
}

/// A system under test. `exec` is called from the client threads.
pub trait Sut: Send + Sync {
    /// Run one operation and verify what it returned.
    fn exec(&self, op: &Op, scratch: &mut Scratch) -> Timed;
    fn counters(&self) -> LayerCounters;
    /// End-of-pass checks: invariants and a full read-back against `oracle`,
    /// every check one tally entry.
    fn finish(self: Box<Self>, oracle: &Oracle, tally: &mut Tally) -> Finish;
}

/// The paper's analytical expectations for the built system, plus the block
/// class the probe attributes separately.
#[derive(Debug, Clone, Default)]
pub struct Model {
    /// `E = N/D = 1/(1-u)` (Section 4.1.5).
    pub iterations_per_update: f64,
    /// `2k` (Section 5.2).
    pub retrieve_ios: f64,
    /// `4k(log_B 2^k + 1)` (Section 5.2).
    pub sort_ios: f64,
    /// Items the oblivious store's buffer holds when it flushes.
    pub buffer_items: u64,
    pub journal_slots: Vec<BlockId>,
}

// ----- ConcurrentAgent ------------------------------------------------------

struct AgentSut<D> {
    agent: ConcurrentAgent<D>,
    ids: Vec<FileId>,
    pf: PayloadFn,
}

impl<D: BlockDevice> AgentSut<D> {
    fn build(spec: &Spec, pf: PayloadFn, seed: u64, device: D) -> (Self, Model) {
        let agent = ConcurrentAgent::format(
            device,
            StegFsConfig::default(),
            AgentConfig::default(),
            Key256::from_passphrase("benchmark agent"),
            seed,
            DEFAULT_MAP_SHARDS,
        )
        .expect("format agent volume");
        assert_eq!(agent.fs().content_bytes_per_block(), pf.len);
        let initial = vec![0u32; spec.blocks_per_file as usize];
        let mut content = Vec::new();
        let ids = (0..spec.files)
            .map(|f| {
                pf.fill_file(f, &initial, &mut content);
                let secret = Key256::from_passphrase(&format!("user-{f}"));
                agent
                    .create_file(&secret, &format!("/bench/u{f}"), &content)
                    .expect("create user file")
            })
            .collect();
        let utilisation = agent.utilisation();
        let model = Model {
            iterations_per_update: 1.0 / (1.0 - utilisation),
            ..Model::default()
        };
        (Self { agent, ids, pf }, model)
    }
}

impl<D: BlockDevice> Sut for AgentSut<D> {
    fn exec(&self, op: &Op, scratch: &mut Scratch) -> Timed {
        match *op {
            Op::Read {
                file,
                block,
                version,
            } => {
                let id = self.ids[file as usize];
                let (got, start, end) = timed(|| self.agent.read_block(id, block as u64));
                let ok = matches!(&got, Ok(bytes) if self.pf.matches(file, block, version, bytes));
                Timed::new("core.read_block", OpClass::Read, start, end, ok)
            }
            Op::Update {
                file,
                block,
                version,
            } => {
                let id = self.ids[file as usize];
                scratch.payload.resize(self.pf.len, 0);
                self.pf.fill(file, block, version, &mut scratch.payload);
                let (result, start, end) =
                    timed(|| self.agent.update_block(id, block as u64, &scratch.payload));
                let mut t = Timed::new(
                    "core.update_block",
                    OpClass::Update,
                    start,
                    end,
                    result.is_ok(),
                );
                t.user_bytes_written = self.pf.len as u64;
                t
            }
            Op::Cover { k } => {
                let (result, start, end) = timed(|| self.agent.dummy_update_batch(k as usize));
                let mut t = Timed::new(
                    "core.dummy_update_batch",
                    OpClass::Other,
                    start,
                    end,
                    result.is_ok(),
                );
                t.cover_blocks = result.map_or(0, |touched| touched.len() as u64);
                t
            }
            Op::ReadFile { .. } | Op::WriteFile { .. } => Timed::unsupported(),
        }
    }

    fn counters(&self) -> LayerCounters {
        let s = self.agent.stats();
        LayerCounters {
            data_updates: s.data_updates,
            dummy_updates: s.dummy_updates,
            relocations: s.relocations,
            in_place: s.in_place,
            iterations: s.iterations,
            ..LayerCounters::default()
        }
    }

    fn finish(self: Box<Self>, oracle: &Oracle, tally: &mut Tally) -> Finish {
        let (flushed, start, end) = timed(|| self.agent.flush());
        tally.record(flushed.is_ok());
        tally.record(self.agent.map().counters_are_consistent());
        for (file, &id) in self.ids.iter().enumerate() {
            let file = file as u32;
            match self.agent.read_file(id) {
                Ok(bytes) => self
                    .pf
                    .verify_file(file, oracle.file_versions(file), &bytes, tally),
                Err(_) => tally.record(false),
            }
        }
        Finish {
            flush_ms: (end - start).as_secs_f64() * 1e3,
            ..Finish::default()
        }
    }
}

// ----- ObliviousStore -------------------------------------------------------

struct ObliviousSut<D> {
    store: ObliviousStore<D, D>,
    pf: PayloadFn,
    /// `stats().sort_ios` after the previous call, to spot the calls that
    /// paid for a reorder. Exact with one client.
    last_sort_ios: AtomicU64,
}

impl<D: BlockDevice> ObliviousSut<D> {
    fn build(
        spec: &Spec,
        pf: PayloadFn,
        seed: u64,
        clock: Option<SimClock>,
        make: &mut dyn FnMut(u64, usize) -> D,
    ) -> (Self, Model) {
        type Store<D> = ObliviousStore<D, D>;
        let block = Store::<D>::block_size_for_item(pf.len);
        let cfg = ObliviousConfig::new(OBLIVIOUS_BUFFER, spec.blocks_per_file as u64);
        let device = make(Store::<D>::blocks_required(&cfg, block), block);
        let sort_device = make(
            Store::<D>::sort_blocks_required(&cfg) + 8,
            Store::<D>::sort_block_size_for(block),
        );
        let store = ObliviousStore::new(
            device,
            sort_device,
            cfg,
            Key256::from_passphrase("benchmark oblivious"),
            seed,
            clock,
        )
        .expect("construct oblivious store");
        assert!(store.item_capacity() >= pf.len);
        for id in 0..spec.blocks_per_file {
            let mut item = vec![0u8; pf.len];
            pf.fill(0, id, 0, &mut item);
            store.insert(id as u64, item).expect("populate");
        }
        let model = Model {
            retrieve_ios: cfg.retrieving_cost_ios() as f64,
            sort_ios: cfg.sorting_cost_ios(),
            buffer_items: cfg.buffer_blocks,
            ..Model::default()
        };
        let last_sort_ios = AtomicU64::new(store.stats().sort_ios);
        (
            Self {
                store,
                pf,
                last_sort_ios,
            },
            model,
        )
    }

    fn stalled(&self) -> bool {
        let now = self.store.stats().sort_ios;
        self.last_sort_ios.swap(now, Ordering::Relaxed) != now
    }
}

impl<D: BlockDevice> Sut for ObliviousSut<D> {
    fn exec(&self, op: &Op, _scratch: &mut Scratch) -> Timed {
        match *op {
            Op::Read {
                file,
                block,
                version,
            } => {
                let (got, start, end) = timed(|| self.store.read(block as u64));
                let ok = matches!(&got, Ok(bytes) if self.pf.matches(file, block, version, bytes));
                let mut t = Timed::new("oblivious.read", OpClass::Read, start, end, ok);
                t.stalled = self.stalled();
                t
            }
            Op::Update {
                file,
                block,
                version,
            } => {
                // `write` takes the item by value.
                let mut item = vec![0u8; self.pf.len];
                self.pf.fill(file, block, version, &mut item);
                let (result, start, end) = timed(|| self.store.write(block as u64, item));
                let mut t = Timed::new(
                    "oblivious.write",
                    OpClass::Update,
                    start,
                    end,
                    result.is_ok(),
                );
                t.user_bytes_written = self.pf.len as u64;
                t.stalled = self.stalled();
                t
            }
            _ => Timed::unsupported(),
        }
    }

    fn counters(&self) -> LayerCounters {
        let s = self.store.stats();
        LayerCounters {
            reads_served: s.reads_served,
            buffer_hits: s.buffer_hits,
            retrieve_ios: s.retrieve_ios,
            sort_ios: s.sort_ios,
            reorders: s.reorders,
            retrieve_time_us: s.retrieve_time_us,
            sort_time_us: s.sort_time_us,
            // Two epoch increments bracket every flush cascade.
            flushes: self.store.write_epoch() / 2,
            ..LayerCounters::default()
        }
    }

    fn finish(self: Box<Self>, oracle: &Oracle, tally: &mut Tally) -> Finish {
        tally.record(self.store.membership_is_consistent());
        tally.record(self.store.write_epoch().is_multiple_of(2));
        for (id, &version) in oracle.file_versions(0).iter().enumerate() {
            let ok = matches!(
                self.store.read(id as u64),
                Ok(bytes) if self.pf.matches(0, id as u32, version, &bytes)
            );
            tally.record(ok);
        }
        Finish::default()
    }
}

// ----- ResilientStore -------------------------------------------------------

struct DurableSut<D> {
    store: ResilientStore<D>,
    paths: Vec<String>,
    cursor: ScrubCursor,
    pf: PayloadFn,
    cfg: ResilienceConfig,
    master: Key256,
    seed: u64,
}

impl<D: BlockDevice> DurableSut<D> {
    fn build(spec: &Spec, pf: PayloadFn, seed: u64, device: D) -> (Self, Model) {
        let cfg = ResilienceConfig::default()
            .with_stripe(STRIPE.0, STRIPE.1)
            .with_journal_slots(JOURNAL_SLOTS);
        let master = Key256::from_passphrase("benchmark durable");
        let store = ResilientStore::format(device, cfg, &master, seed).expect("format volume");
        assert_eq!(store.fs().content_bytes_per_block(), pf.len);
        let paths: Vec<String> = (0..spec.files).map(|f| format!("/bench/f{f}")).collect();
        let initial = vec![0u32; spec.blocks_per_file as usize];
        let mut content = Vec::new();
        for (f, path) in paths.iter().enumerate() {
            pf.fill_file(f as u32, &initial, &mut content);
            store.create_file(path, &content).expect("create file");
        }
        let model = Model {
            journal_slots: store.journal_slots(),
            ..Model::default()
        };
        let cursor = store.scrub_cursor(seed);
        (
            Self {
                store,
                paths,
                cursor,
                pf,
                cfg,
                master,
                seed,
            },
            model,
        )
    }

    fn read_back(
        store: &ResilientStore<D>,
        paths: &[String],
        pf: PayloadFn,
        oracle: &Oracle,
        tally: &mut Tally,
    ) {
        for (file, path) in paths.iter().enumerate() {
            let file = file as u32;
            match store.read_file(path) {
                Ok(bytes) => pf.verify_file(file, oracle.file_versions(file), &bytes, tally),
                Err(_) => tally.record(false),
            }
        }
    }
}

impl<D: BlockDevice> Sut for DurableSut<D> {
    fn exec(&self, op: &Op, scratch: &mut Scratch) -> Timed {
        match op {
            Op::Update {
                file,
                block,
                version,
            } => {
                scratch.payload.resize(self.pf.len, 0);
                self.pf.fill(*file, *block, *version, &mut scratch.payload);
                let path = &self.paths[*file as usize];
                let (result, start, end) = timed(|| {
                    self.store
                        .write_block(path, *block as u64, &scratch.payload)
                });
                let mut t = Timed::new(
                    "resilience.write_block",
                    OpClass::Update,
                    start,
                    end,
                    result.is_ok(),
                );
                t.user_bytes_written = self.pf.len as u64;
                t
            }
            Op::WriteFile {
                file,
                versions,
                changed,
            } => {
                self.pf.fill_file(*file, versions, &mut scratch.content);
                let path = &self.paths[*file as usize];
                let (result, start, end) = timed(|| self.store.write_file(path, &scratch.content));
                let mut t = Timed::new(
                    "resilience.write_file",
                    OpClass::Other,
                    start,
                    end,
                    result.is_ok(),
                );
                // The user hands over the whole image but changes only these.
                t.user_bytes_written = *changed as u64 * self.pf.len as u64;
                t
            }
            Op::ReadFile { file, versions } => {
                let path = &self.paths[*file as usize];
                let (got, start, end) = timed(|| self.store.read_file(path));
                let mut check = Tally::default();
                match got {
                    Ok(bytes) => self.pf.verify_file(*file, versions, &bytes, &mut check),
                    Err(_) => check.record(false),
                }
                Timed::new(
                    "resilience.read_file",
                    OpClass::Read,
                    start,
                    end,
                    check.failed == 0,
                )
            }
            Op::Cover { k } => {
                let (result, start, end) = timed(|| {
                    self.store
                        .dummy_update_batch(*k as usize, Some(&self.cursor))
                });
                let mut t = Timed::new(
                    "resilience.dummy_update_batch",
                    OpClass::Other,
                    start,
                    end,
                    result.is_ok(),
                );
                t.cover_blocks = result.map_or(0, |touched| touched.len() as u64);
                t
            }
            Op::Read { .. } => Timed::unsupported(),
        }
    }

    fn counters(&self) -> LayerCounters {
        LayerCounters::default()
    }

    fn finish(self: Box<Self>, oracle: &Oracle, tally: &mut Tally) -> Finish {
        let this = *self;
        let (report, start, end) = timed(|| this.store.scrub());
        let scrub_s = (end - start).as_secs_f64();
        let checked = report.as_ref().map_or(0, |r| r.blocks_checked);
        tally.record(matches!(&report, Ok(r) if r.is_clean()));

        // Every acknowledged write must survive dropping the store and
        // mounting the volume again from the device alone.
        let device = this.store.into_device();
        let (reopened, start, end) =
            timed(|| ResilientStore::open(device, this.cfg, &this.master, this.seed));
        tally.record(reopened.is_ok());
        if let Ok(store) = reopened {
            Self::read_back(&store, &this.paths, this.pf, oracle, tally);
        }
        Finish {
            open_ms: (end - start).as_secs_f64() * 1e3,
            scrub_mb_s: (checked * BLOCK_SIZE as u64) as f64 / 1e6 / scrub_s,
            ..Finish::default()
        }
    }
}

// ----- device stacks --------------------------------------------------------

/// What sits between the system and memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// `MemDevice` — the timed passes.
    Mem,
    /// `SimDevice<MemDevice>` on the paper's 2004 disk — the deterministic pass.
    Sim,
    /// `ProbeDevice<MemDevice>` — the traced pass.
    Probe,
}

impl Stack {
    pub fn describe(self) -> &'static str {
        match self {
            Stack::Mem => "MemDevice",
            Stack::Sim => "SimDevice<MemDevice>(ultra_ata_2004)",
            Stack::Probe => "ProbeDevice<MemDevice>",
        }
    }
}

/// Cumulative simulated-disk counters over every device of a stack.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimSnapshot {
    pub reads: u64,
    pub writes: u64,
    pub sequential: u64,
    pub random: u64,
    pub bytes_written: u64,
    pub now_us: u64,
}

impl SimSnapshot {
    pub fn since(&self, earlier: &SimSnapshot) -> SimSnapshot {
        SimSnapshot {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            sequential: self.sequential - earlier.sequential,
            random: self.random - earlier.random,
            bytes_written: self.bytes_written - earlier.bytes_written,
            now_us: self.now_us - earlier.now_us,
        }
    }
}

/// The harness's handle on the devices it gave away to the system.
pub enum DeviceView {
    Mem,
    Sim {
        clock: SimClock,
        devices: Vec<Arc<SimDevice<MemDevice>>>,
    },
    Probe {
        counters: Arc<ProbeCounters>,
        tracer: Arc<Tracer>,
    },
}

impl DeviceView {
    pub fn sim_snapshot(&self) -> SimSnapshot {
        let DeviceView::Sim { clock, devices } = self else {
            return SimSnapshot::default();
        };
        let mut snap = SimSnapshot {
            now_us: clock.now_us(),
            ..SimSnapshot::default()
        };
        for device in devices {
            let c = device.stats().snapshot();
            snap.reads += c.reads;
            snap.writes += c.writes;
            snap.sequential += c.sequential;
            snap.random += c.random;
            snap.bytes_written += c.writes * device.block_size() as u64;
        }
        snap
    }

    pub fn probe_snapshot(&self) -> ProbeSnapshot {
        match self {
            DeviceView::Probe { counters, .. } => counters.snapshot(),
            _ => ProbeSnapshot::default(),
        }
    }

    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        match self {
            DeviceView::Probe { tracer, .. } => Some(tracer),
            _ => None,
        }
    }
}

pub struct Built {
    pub sut: Box<dyn Sut>,
    pub model: Model,
    pub device: DeviceView,
}

fn build_on<D: BlockDevice + 'static>(
    spec: &Spec,
    pf: PayloadFn,
    seed: u64,
    clock: Option<SimClock>,
    make: &mut dyn FnMut(u64, usize) -> D,
) -> (Box<dyn Sut>, Model) {
    match spec.system {
        SystemKind::Agent => {
            let (sut, model) =
                AgentSut::build(spec, pf, seed, make(spec.volume_blocks, BLOCK_SIZE));
            (Box::new(sut), model)
        }
        SystemKind::Oblivious => {
            let (sut, model) = ObliviousSut::build(spec, pf, seed, clock, make);
            (Box::new(sut), model)
        }
        SystemKind::Durable => {
            let (sut, model) =
                DurableSut::build(spec, pf, seed, make(spec.volume_blocks, BLOCK_SIZE));
            (Box::new(sut), model)
        }
    }
}

/// Format and populate a fresh system for `spec` on `stack`. Volumes built
/// from the same seed are identical.
pub fn build(spec: &Spec, stack: Stack, seed: u64) -> Built {
    let pf = PayloadFn {
        seed,
        len: payload_len(spec),
    };
    match stack {
        Stack::Mem => {
            let (sut, model) = build_on(spec, pf, seed, None, &mut |n, bs| MemDevice::new(n, bs));
            Built {
                sut,
                model,
                device: DeviceView::Mem,
            }
        }
        Stack::Sim => {
            let clock = SimClock::new();
            let mut devices = Vec::new();
            let (sut, model) = build_on(spec, pf, seed, Some(clock.clone()), &mut |n, bs| {
                let device = Arc::new(SimDevice::with_shared_clock(
                    MemDevice::new(n, bs),
                    DiskModel::ultra_ata_2004(),
                    clock.clone(),
                ));
                devices.push(device.clone());
                device
            });
            Built {
                sut,
                model,
                device: DeviceView::Sim { clock, devices },
            }
        }
        Stack::Probe => {
            let counters = Arc::new(ProbeCounters::default());
            let tracer = Tracer::new();
            let mut devices = Vec::new();
            let (sut, model) = build_on(spec, pf, seed, None, &mut |n, bs| {
                let device = Arc::new(ProbeDevice::new(
                    MemDevice::new(n, bs),
                    counters.clone(),
                    Some(tracer.clone()),
                ));
                devices.push(device.clone());
                device
            });
            // Only the durable store has journal slots, and it has one device.
            devices[0].mark_class(&model.journal_slots);
            Built {
                sut,
                model,
                device: DeviceView::Probe { counters, tracer },
            }
        }
    }
}

// ----- direct single-layer measurements -------------------------------------

/// Calls of `f` per second: the median over batches run for `budget`.
fn rate(budget: Duration, mut f: impl FnMut()) -> f64 {
    let (_, start, end) = timed(&mut f);
    let one = (end - start).as_secs_f64().max(1e-9);
    let batch = ((budget.as_secs_f64() / 8.0 / one) as u64).clamp(1, 1 << 20);
    let deadline = Instant::now() + budget;
    let mut rates = Vec::new();
    while rates.len() < 3 || Instant::now() < deadline {
        let (_, start, end) = timed(|| (0..batch).for_each(|_| f()));
        rates.push(batch as f64 / (end - start).as_secs_f64());
    }
    median(&rates)
}

/// `(name, value)` of every metric measured by calling one layer directly,
/// `budget` of wall time each. None depends on the workload.
pub fn direct_layer_metrics(budget: Duration) -> Vec<(&'static str, f64)> {
    let field = BlockCodec::new(BLOCK_SIZE).data_field_len();
    let key = Key256::from_passphrase("benchmark direct");
    let mut rng = Rng::from_u64(42);
    let mb = |bytes: usize, calls_per_s: f64| bytes as f64 * calls_per_s / 1e6;
    let us = |calls_per_s: f64| 1e6 / calls_per_s;
    let mut out = Vec::new();

    // blockdev
    {
        let dev = MemDevice::new(1024, BLOCK_SIZE);
        let mut buf = rng.bytes(BLOCK_SIZE);
        let mut next = 0u64;
        let r = rate(budget, || {
            next = (next + 1) % 1024;
            dev.write_block(next, &buf).expect("in range");
            dev.read_block(next, &mut buf).expect("in range");
        });
        out.push(("blockdev.mem_copy_mb_s", mb(2 * BLOCK_SIZE, r)));
    }

    // crypto
    {
        let cbc = CbcCipher::new(Aes256::new(key.as_bytes()));
        let iv = [7u8; 16];
        let mut buf = rng.bytes(field);
        let r = rate(budget, || {
            cbc.encrypt_in_place(&iv, black_box(&mut buf))
                .expect("aligned")
        });
        out.push(("crypto.cbc_encrypt_mb_s", mb(field, r)));
        let r = rate(budget, || {
            cbc.decrypt_in_place(&iv, black_box(&mut buf))
                .expect("aligned")
        });
        out.push(("crypto.cbc_decrypt_mb_s", mb(field, r)));

        let r = rate(budget, || {
            black_box(HmacSha256::mac(key.as_bytes(), black_box(&buf)));
        });
        out.push(("crypto.hmac_mb_s", mb(field, r)));
        let block = rng.bytes(BLOCK_SIZE);
        let r = rate(budget, || {
            black_box(sha256(black_box(&block)));
        });
        out.push(("crypto.sha256_mb_s", mb(BLOCK_SIZE, r)));

        let hmac = HmacSha256::new(key.as_bytes());
        let mut counter = 0u64;
        let r = rate(budget, || {
            counter += 1;
            black_box(hmac.derive_u64_with(&counter.to_be_bytes()));
        });
        out.push(("crypto.derive_u64_ops_s", r));

        let mut sink = vec![0u8; BLOCK_SIZE];
        let r = rate(budget, || rng.fill_bytes(black_box(&mut sink)));
        out.push(("crypto.drbg_mb_s", mb(BLOCK_SIZE, r)));
    }

    // stegfs
    {
        let codec = BlockCodec::new(BLOCK_SIZE);
        let plain = rng.bytes(field);
        let r = rate(budget, || {
            black_box(codec.seal(&key, &plain, &mut rng).expect("fits"));
        });
        out.push(("stegfs.seal_us", us(r)));
        let sealed = codec.seal(&key, &plain, &mut rng).expect("fits");
        let r = rate(budget, || {
            black_box(codec.open(&key, black_box(&sealed)).expect("block-sized"));
        });
        out.push(("stegfs.open_us", us(r)));

        let dev = MemDevice::new(64, BLOCK_SIZE);
        for b in 0..64 {
            codec
                .write_sealed(&dev, b, &key, &plain, &mut rng)
                .expect("in range");
        }
        let mut next = 0u64;
        let r = rate(budget, || {
            next = (next + 1) % 64;
            codec.reseal(&dev, next, &key, &mut rng).expect("in range");
        });
        out.push(("stegfs.reseal_us", us(r)));

        let blocks = 64u64;
        let (fs, mut map) = StegFs::format(
            MemDevice::new(1024, BLOCK_SIZE),
            StegFsConfig::default(),
            42,
        )
        .expect("format");
        let fak = FileAccessKey::from_master(&key);
        let content = rng.bytes(blocks as usize * field);
        let mut file = fs
            .create_file(&mut map, "/direct", &fak, &content)
            .expect("create");
        let mut next = 0u64;
        let r = rate(budget, || {
            next = (next + 1) % blocks;
            black_box(fs.read_content_block(&file, next).expect("in file"));
        });
        out.push(("stegfs.read_block_us", us(r)));
        let r = rate(budget, || {
            next = (next + 1) % blocks;
            fs.write_content_block(&mut file, next, &plain)
                .expect("in file");
        });
        out.push(("stegfs.write_block_us", us(r)));
        let r = rate(budget, || {
            black_box(fs.read_file(&file).expect("readable"));
        });
        out.push(("stegfs.read_file_mb_s", mb(content.len(), r)));

        let map = ShardedBlockMap::new_all_dummy(4096, DEFAULT_MAP_SHARDS);
        let mut next = 0u64;
        let r = rate(budget, || {
            next = 1 + (next + 1) % 4095;
            assert!(map.claim(next, BlockClass::Dummy, BlockClass::Data));
            map.set(next, BlockClass::Dummy);
        });
        out.push(("stegfs.map_claim_ns", 1e9 / r));
    }

    // resilience
    {
        let (k, m) = STRIPE;
        let codec = ErasureCodec::new(k, m);
        let data: Vec<Vec<u8>> = (0..k).map(|_| rng.bytes(field)).collect();
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let r = rate(budget, || {
            black_box(codec.encode(black_box(&refs)));
        });
        out.push(("resilience.encode_mb_s", mb(k * field, r)));

        let mut parity = codec.encode(&refs);
        let delta = rng.bytes(field);
        let r = rate(budget, || {
            codec.apply_delta(1, black_box(&delta), &mut parity)
        });
        out.push(("resilience.apply_delta_mb_s", mb(field, r)));

        // Lose two data shards, the most parity can cover.
        let parity = codec.encode(&refs);
        let damaged: Vec<Option<Vec<u8>>> = data
            .iter()
            .chain(&parity)
            .enumerate()
            .map(|(i, shard)| (i >= 2).then(|| shard.clone()))
            .collect();
        let r = rate(budget, || {
            let mut shards = damaged.clone();
            codec.reconstruct(&mut shards, field).expect("two erasures");
            black_box(shards);
        });
        out.push(("resilience.reconstruct_mb_s", mb(k * field, r)));
    }
    out
}
