//! The resilient store: erasure-coded hidden files over a steganographic
//! volume, with a replicated self-healing anchor and a scrub/repair sweep.
//!
//! [`ResilientStore`] wraps the plain [`StegFs`] substrate and keeps, for
//! every hidden file it manages:
//!
//! * `m` sealed parity blocks per stripe of `k` content blocks, placed
//!   through the same uniform [`ShardedBlockMap::claim`] allocation as
//!   hidden data — on disk a parity block is indistinguishable from free
//!   space;
//! * a per-file [`StripeMap`] of plaintext integrity checks and parity
//!   locations, persisted as a *shadow hidden file* (sealed and scattered
//!   like any other hidden file, never plaintext on disk);
//! * an entry in the sealed file-access-key table carried by the 3-way
//!   replicated [`VolumeAnchor`], so [`ResilientStore::open`] can rediscover
//!   every file from the master key alone.
//!
//! The store also keeps one standing *owner index* — physical block → the
//! managed file holding it and the role it plays there — so a dummy update
//! finds its victim's key with one lookup instead of walking every file. The
//! index is filled where a file enters the path table and changed where
//! `repair_stripe` re-homes a shard; a looked-up role is confirmed under the
//! file's lock before use, because a repair may run in between.
//!
//! Parity is computed over *plaintext* data fields: a dummy update (reseal)
//! re-randomises every ciphertext byte while leaving the plaintext intact, so
//! plaintext parity survives arbitrarily many reseals where ciphertext parity
//! would go stale on the first one.
//!
//! The read path verifies the cheap keyed hash of every block inline and
//! falls back to stripe reconstruction on a mismatch; it never returns wrong
//! bytes. The delta-update path does the same for the data block *and* the
//! parity rows it is about to fold a delta into. The scrub path verifies the authoritative truncated HMACs in ranged
//! batches and repairs every degraded stripe onto freshly claimed blocks.
//!
//! Scope: stripes protect content and parity blocks. File headers and
//! indirect pointer blocks rely on the replicated anchor (which can re-locate
//! headers via the FAK table) rather than parity; extending striping to the
//! metadata tree is future work.

use std::collections::{btree_map, BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use stegfs_base::wire::{Reader, Writer};
use stegfs_base::{
    BlockClass, FileAccessKey, OpenFile, ShardedBlockMap, StegFs, StegFsConfig, DEFAULT_MAP_SHARDS,
    IV_SIZE,
};
use stegfs_blockdev::{BlockDevice, BlockId};
use stegfs_crypto::{Aes256, CbcCipher, HashDrbg, Key256};

use crate::codec::ErasureCodec;
use crate::error::ResilienceError;
use crate::journal::{
    BlockWriteIntent, IntentBody, IntentJournal, IntentRecord, ParityIntent, SHADOW_ENTRY_BASE,
};
use crate::scale::RegistryState;
use crate::stats::{RecoveryReport, ResilienceStats, ScrubReport, SharedResilienceStats};
use crate::stripe::{BlockCheck, ChecksumKeys, ParityEntry, StripeConfig, StripeMap};
use crate::superblock::VolumeAnchor;

/// Configuration of a resilient volume.
#[derive(Debug, Clone, Copy)]
pub struct ResilienceConfig {
    /// Striping shape: `k` data blocks + `m` parity blocks per stripe.
    pub stripe: StripeConfig,
    /// Underlying file-system configuration.
    pub fs: StegFsConfig,
    /// Maximum blocks per ranged read in a scrub sweep.
    pub scrub_batch: usize,
    /// Logical intent-journal slots claimed at format time. `0` disables
    /// journaling entirely (the pre-journal update path, kept as the bench
    /// baseline); each slot admits one in-flight multi-block mutation and
    /// occupies *two* uniformly claimed blocks (a replicated pair, so a lost
    /// slot block cannot orphan an in-flight intent).
    pub journal_slots: usize,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            stripe: StripeConfig::new(4, 2),
            fs: StegFsConfig::default(),
            scrub_batch: 64,
            journal_slots: 4,
        }
    }
}

impl ResilienceConfig {
    /// Override the striping shape.
    pub fn with_stripe(mut self, k: usize, m: usize) -> Self {
        self.stripe = StripeConfig::new(k, m);
        self
    }

    /// Override the file-system configuration.
    pub fn with_fs(mut self, fs: StegFsConfig) -> Self {
        self.fs = fs;
        self
    }

    /// Override the intent-journal slot count (`0` disables journaling).
    pub fn with_journal_slots(mut self, slots: usize) -> Self {
        self.journal_slots = slots;
        self
    }
}

/// One managed file: its open handle, the shadow file holding the stripe map,
/// the in-memory stripe map itself, and the check keys of both files.
struct FileState {
    open: OpenFile,
    shadow: OpenFile,
    stripes: StripeMap,
    /// Check keys of the content key (data and parity rows), derived once.
    keys: Arc<ChecksumKeys>,
    /// Check keys of the shadow file's content key.
    shadow_keys: Arc<ChecksumKeys>,
}

/// The check keys of `file`'s content key.
fn check_keys(file: &OpenFile) -> Result<Arc<ChecksumKeys>, ResilienceError> {
    let ck = file
        .fak
        .content_key()
        .ok_or(ResilienceError::Corrupt("file without content key".into()))?;
    Ok(Arc::new(ChecksumKeys::derive(ck)))
}

/// The truncated MAC of every field of `fields`, taken together
/// ([`ChecksumKeys::mac16_many`]).
fn mac16_each(keys: &ChecksumKeys, fields: &[Vec<u8>]) -> Vec<[u8; 16]> {
    let refs: Vec<&[u8]> = fields.iter().map(Vec::as_slice).collect();
    let mut macs = vec![[0u8; 16]; refs.len()];
    keys.mac16_many(&refs, &mut macs);
    macs
}

impl FileState {
    /// Every block the file occupies, with the role it plays.
    fn owned_blocks(&self) -> Vec<(BlockId, Role)> {
        let mut out = Vec::new();
        for (i, &loc) in self.open.header.blocks.iter().enumerate() {
            out.push((loc, Role::Content(i as u64)));
        }
        for stripe in 0..self.stripes.num_stripes() {
            for row in 0..self.stripes.config().m {
                let loc = self.stripes.parity_entry(stripe, row).location;
                out.push((loc, Role::Parity(stripe, row)));
            }
        }
        out.push((self.open.header_location, Role::HeaderTree));
        for &loc in &self.open.indirect_locations {
            out.push((loc, Role::HeaderTree));
        }
        for &loc in &self.shadow.header.blocks {
            out.push((loc, Role::ShadowContent));
        }
        out.push((self.shadow.header_location, Role::ShadowHeaderTree));
        for &loc in &self.shadow.indirect_locations {
            out.push((loc, Role::ShadowHeaderTree));
        }
        out
    }
}

/// What a managed file keeps in one of its blocks: decides the key a dummy
/// update reseals it under and the check it is verified against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Content block at this file-wide index.
    Content(u64),
    /// Parity row of a stripe.
    Parity(u64, usize),
    HeaderTree,
    ShadowContent,
    ShadowHeaderTree,
}

impl Role {
    /// Whether `block` plays this role in `g` right now. The owner index is
    /// read before the file's lock is taken, so a repair may have moved the
    /// shard in between; every use of a looked-up role checks this first.
    fn holds(self, g: &FileState, block: BlockId) -> bool {
        let in_tree = |file: &OpenFile| {
            file.header_location == block || file.indirect_locations.contains(&block)
        };
        match self {
            Role::Content(i) => g.open.header.blocks.get(i as usize) == Some(&block),
            Role::Parity(stripe, row) => {
                stripe < g.stripes.num_stripes()
                    && g.stripes.parity_entry(stripe, row).location == block
            }
            Role::HeaderTree => in_tree(&g.open),
            Role::ShadowContent => g.shadow.header.blocks.contains(&block),
            Role::ShadowHeaderTree => in_tree(&g.shadow),
        }
    }
}

type Owner = (Arc<RwLock<FileState>>, Role);

/// Which managed file holds each block, and in what role — what a dummy
/// update needs to know about its victim. Built as files are loaded or
/// created and kept current at the one place a block changes hands afterwards
/// (`repair_stripe` re-homing a shard), always under that file's write lock.
struct OwnerIndex {
    /// Anchor replicas and journal slots: never dummy-update victims.
    reserved: HashSet<BlockId>,
    owners: HashMap<BlockId, Owner>,
}

impl OwnerIndex {
    fn insert_file(&mut self, state: &Arc<RwLock<FileState>>) {
        let blocks = state.read().owned_blocks();
        self.owners.extend(
            blocks
                .into_iter()
                .map(|(loc, role)| (loc, (Arc::clone(state), role))),
        );
    }

    /// A shard moved from `old` to `new`; its file and role move with it.
    fn relocate(&mut self, old: BlockId, new: BlockId) {
        if let Some(owner) = self.owners.remove(&old) {
            self.owners.insert(new, owner);
        }
    }
}

/// Outcome of repairing one stripe.
struct StripeRepair {
    /// Physical locations where corruption was detected.
    detected: Vec<BlockId>,
    /// Blocks reconstructed and rewritten.
    repaired: u64,
    /// Whether the stripe was beyond parity tolerance.
    unrecoverable: bool,
}

/// A store of erasure-coded hidden files over a block device.
pub struct ResilientStore<D> {
    pub(crate) fs: StegFs<D>,
    pub(crate) map: ShardedBlockMap,
    codec: ErasureCodec,
    stripe_cfg: StripeConfig,
    scrub_batch: usize,
    pub(crate) master: Key256,
    anchor_key: Key256,
    payload_key: Key256,
    /// Anchor generation counter; bumped on every FAK-table change.
    generation: Mutex<u64>,
    /// Managed files by path. `BTreeMap` so that every sweep and every
    /// persisted table is in deterministic path order.
    files: RwLock<BTreeMap<String, Arc<RwLock<FileState>>>>,
    /// Block → owning file and role, for every block of every file in
    /// `files`. Never locked while a file's lock is being waited for.
    index: RwLock<OwnerIndex>,
    pub(crate) journal: IntentJournal,
    /// The persistent sharded registry, when the volume carries one.
    pub(crate) registry: RwLock<Option<RegistryState>>,
    /// Outcome of the journal-recovery pass run by [`ResilientStore::open`].
    recovery: Mutex<RecoveryReport>,
    stats: Arc<SharedResilienceStats>,
}

/// Outcome of recovering one intent record.
#[derive(PartialEq, Eq)]
pub(crate) enum Recovered {
    /// The operation was completed forward (its new state made durable).
    Forward,
    /// The operation was undone (the old state restored).
    Back,
    /// The record was certainly complete; nothing to do.
    Stale,
    /// The affected stripe was beyond parity tolerance.
    Lost,
}

/// Outcome of resolving one stripe's group of `WriteBatch` entries.
enum GroupResolution {
    /// The first `complete` entries of the group hold (or were brought to)
    /// their post state; the rest are back in their pre state. `touched`
    /// reports whether any device or stripe-map state changed.
    Advanced { complete: usize, touched: bool },
    /// The group does not describe the file's current geometry — a later
    /// serialised (therefore complete) operation superseded the record.
    Stale,
    /// More shards out of state than parity can solve.
    Lost,
}

impl<D: BlockDevice> ResilientStore<D> {
    /// Format `device` as a fresh resilient volume owned by `master`.
    pub fn format(
        device: D,
        cfg: ResilienceConfig,
        master: &Key256,
        seed: u64,
    ) -> Result<Self, ResilienceError> {
        let (fs, map) = StegFs::format(device, cfg.fs, seed)?;
        for b in VolumeAnchor::replica_blocks(fs.superblock().num_blocks) {
            map.set(b, BlockClass::Reserved);
        }
        // Claim the journal slots through the same uniform allocation as
        // hidden data; the format-time random fill is a valid empty journal.
        // Two blocks per logical slot: consecutive pairs mirror each other,
        // so a lost slot block can no longer orphan an in-flight intent.
        let slots = fs.allocate_blocks(&map, 2 * cfg.journal_slots as u64)?;
        let store = Self::assemble(fs, map, cfg, master, 0, slots);
        store.persist_anchor()?;
        Ok(store)
    }

    /// Open an existing resilient volume: quorum-read the anchor (repairing
    /// stale or corrupt replicas in place), mount the file system, reopen
    /// every file listed in the sealed FAK table together with its shadow
    /// stripe map, then run journal recovery — rolling every interrupted
    /// mutation forward or back — before the volume is handed out.
    pub fn open(
        device: D,
        cfg: ResilienceConfig,
        master: &Key256,
        seed: u64,
    ) -> Result<Self, ResilienceError> {
        let anchor_key = master.derive("resilience:anchor");
        let (anchor, repaired) = VolumeAnchor::read_quorum(&device, &anchor_key)?;
        let fs = StegFs::mount_with(device, cfg.fs.header_probe_limit, seed)?;
        let map = ShardedBlockMap::new_all_dummy(fs.superblock().num_blocks, DEFAULT_MAP_SHARDS);
        for b in VolumeAnchor::replica_blocks(fs.superblock().num_blocks) {
            map.set(b, BlockClass::Reserved);
        }
        let payload_key = master.derive("resilience:payload");
        let plain = Self::open_payload_with(&payload_key, &anchor.payload)?;
        let (slots, table) = Self::parse_payload(&plain)?;
        for &slot in &slots {
            map.set(slot, BlockClass::Data);
        }
        let store = Self::assemble(fs, map, cfg, master, anchor.generation, slots);
        store.stats.anchor_repairs.add(repaired.len() as u64);

        for (path, fak) in table {
            let open = store.fs.open_file(&fak, &path)?;
            let shadow_fak = store.shadow_fak(&path);
            let shadow = store.fs.open_file(&shadow_fak, &Self::shadow_path(&path))?;
            let encoded = store.fs.read_file(&shadow)?;
            let stripes = StripeMap::decode(&encoded)?;
            if stripes.num_data() != open.header.num_blocks() {
                return Err(ResilienceError::Corrupt(format!(
                    "stripe map covers {} blocks but {path} has {}",
                    stripes.num_data(),
                    open.header.num_blocks()
                )));
            }
            store.fs.register_file(&store.map, &open);
            store.fs.register_file(&store.map, &shadow);
            for loc in stripes.parity_locations() {
                store.map.set(loc, BlockClass::Data);
            }
            let state = FileState {
                keys: check_keys(&open)?,
                shadow_keys: check_keys(&shadow)?,
                open,
                shadow,
                stripes,
            };
            store.adopt(path, state);
        }
        // Load the persistent registry geometry (if the volume carries one)
        // before journal recovery: a `RegistryCheckpoint` intent needs the
        // shard geometry to resolve. The geometry file is written exactly
        // once at `init_registry`, so reading it pre-recovery is safe.
        store.load_registry()?;
        let report = store.recover_journal()?;
        *store.recovery.lock() = report;
        Ok(store)
    }

    fn assemble(
        fs: StegFs<D>,
        map: ShardedBlockMap,
        cfg: ResilienceConfig,
        master: &Key256,
        generation: u64,
        journal_slots: Vec<BlockId>,
    ) -> Self {
        let reserved = VolumeAnchor::replica_blocks(fs.superblock().num_blocks)
            .into_iter()
            .chain(journal_slots.iter().copied())
            .collect();
        Self {
            index: RwLock::new(OwnerIndex {
                reserved,
                owners: HashMap::new(),
            }),
            codec: ErasureCodec::new(cfg.stripe.k, cfg.stripe.m),
            stripe_cfg: cfg.stripe,
            scrub_batch: cfg.scrub_batch.max(1),
            master: *master,
            anchor_key: master.derive("resilience:anchor"),
            payload_key: master.derive("resilience:payload"),
            generation: Mutex::new(generation),
            files: RwLock::new(BTreeMap::new()),
            journal: IntentJournal::new(master, journal_slots),
            registry: RwLock::new(None),
            recovery: Mutex::new(RecoveryReport::default()),
            stats: Arc::new(SharedResilienceStats::default()),
            fs,
            map,
        }
    }

    /// The underlying file system.
    pub fn fs(&self) -> &StegFs<D> {
        &self.fs
    }

    /// Consume the store and return the raw device (simulated unmount — no
    /// flush is performed; checkpoint the registry first if it has dirty
    /// resident shards).
    pub fn into_device(self) -> D {
        self.fs.into_device()
    }

    /// The shared block classification map.
    pub fn block_map(&self) -> &ShardedBlockMap {
        &self.map
    }

    /// The striping shape.
    pub fn stripe_config(&self) -> StripeConfig {
        self.stripe_cfg
    }

    /// Shared resilience counters.
    pub fn shared_stats(&self) -> Arc<SharedResilienceStats> {
        Arc::clone(&self.stats)
    }

    /// Snapshot of the resilience counters.
    pub fn stats(&self) -> ResilienceStats {
        self.stats.snapshot()
    }

    /// The anchor generation the volume currently carries. Bumped on every
    /// FAK-table change; the bump is the atomic commit point of file creation.
    pub fn generation(&self) -> u64 {
        *self.generation.lock()
    }

    /// The intent-journal slot locations (empty when journaling is disabled).
    pub fn journal_slots(&self) -> Vec<BlockId> {
        self.journal.slots().to_vec()
    }

    /// What the journal-recovery pass of [`ResilientStore::open`] did. A
    /// freshly formatted store reports a clean (empty) recovery.
    pub fn last_recovery(&self) -> RecoveryReport {
        self.recovery.lock().clone()
    }

    /// Paths of every managed file, in order.
    pub fn paths(&self) -> Vec<String> {
        self.files.read().keys().cloned().collect()
    }

    /// On-disk layout of `path`'s stripes: for each stripe, the physical
    /// locations of its live data shards followed by its `m` parity shards.
    ///
    /// Exposed for fault-injection tests and offline scrub tooling; it
    /// reveals nothing an owner of the file's access key could not already
    /// derive.
    pub fn stripe_layout(&self, path: &str) -> Result<Vec<Vec<BlockId>>, ResilienceError> {
        let state = self.file_state(path)?;
        let g = state.read();
        let mut out = Vec::new();
        for stripe in 0..g.stripes.num_stripes() {
            let mut blocks: Vec<BlockId> = g
                .stripes
                .stripe_data_range(stripe)
                .map(|i| g.open.header.blocks[i as usize])
                .collect();
            for row in 0..self.stripe_cfg.m {
                blocks.push(g.stripes.parity_entry(stripe, row).location);
            }
            out.push(blocks);
        }
        Ok(out)
    }

    // ----- key derivations ---------------------------------------------

    fn file_master(&self, path: &str) -> Key256 {
        self.master.derive(&format!("resilience:file:{path}"))
    }

    fn file_fak(&self, path: &str) -> FileAccessKey {
        FileAccessKey::from_master(&self.file_master(path))
    }

    fn shadow_fak(&self, path: &str) -> FileAccessKey {
        FileAccessKey::from_master(&self.file_master(path).derive("shadow"))
    }

    fn shadow_path(path: &str) -> String {
        // '\u{0}' cannot appear in caller-supplied paths, so shadow paths
        // never collide with user files.
        format!("{path}\u{0}stripe-map")
    }

    // ----- anchor / FAK table ------------------------------------------

    /// Serialise the anchor payload plaintext: the journal slot locations,
    /// then the FAK table as `count` and `(path_len, path, fak)` entries in
    /// path order.
    fn encode_payload_plain(&self) -> Vec<u8> {
        let files = self.files.read();
        let slots = self.journal.slots();
        let mut w = Writer::new();
        w.u16(slots.len() as u16);
        for &slot in slots {
            w.u64(slot);
        }
        w.u32(files.len() as u32);
        for (path, state) in files.iter() {
            w.str16(path).bytes(&state.read().open.fak.to_bytes());
        }
        w.finish()
    }

    /// Parse the anchor payload plaintext: journal slot locations, then the
    /// FAK table.
    #[allow(clippy::type_complexity)]
    #[doc(hidden)]
    pub fn parse_payload(
        plain: &[u8],
    ) -> Result<(Vec<BlockId>, Vec<(String, FileAccessKey)>), ResilienceError> {
        let mut r = Reader::new(plain);
        let num_slots = r.u16()?;
        let slots = r.u64s(num_slots as usize)?;
        let count = r.u32()?;
        // An entry with an empty path: path length ‖ access key.
        let mut out = Vec::with_capacity(r.count(count, 2 + FileAccessKey::ENCODED_LEN)?);
        for _ in 0..count {
            let path = r.str16()?.to_string();
            let fak = FileAccessKey::from_bytes(r.bytes(FileAccessKey::ENCODED_LEN)?).ok_or_else(
                || ResilienceError::Corrupt("anchor payload: malformed access key".to_string()),
            )?;
            out.push((path, fak));
        }
        Ok((slots, out))
    }

    /// Seal the table under the payload key: `IV ‖ plain_len ‖ CBC(padded)`.
    /// Confidentiality only — integrity comes from the anchor's replica MACs,
    /// which cover the whole payload.
    fn seal_payload(&self, plain: &[u8]) -> Vec<u8> {
        let mut padded = plain.to_vec();
        padded.resize(plain.len().div_ceil(16) * 16, 0);
        let mut iv = [0u8; 16];
        self.fs.with_rng(|rng| rng.fill_bytes(&mut iv));
        let cbc = CbcCipher::new(Aes256::new(self.payload_key.as_bytes()));
        cbc.encrypt_in_place(&iv, &mut padded)
            .expect("padded to block size");
        Writer::new()
            .bytes(&iv)
            .u32(plain.len() as u32)
            .bytes(&padded)
            .finish()
    }

    #[doc(hidden)]
    pub fn open_payload_with(key: &Key256, sealed: &[u8]) -> Result<Vec<u8>, ResilienceError> {
        let mut r = Reader::new(sealed);
        let iv: [u8; 16] = r.array()?;
        let plain_len = r.u32()? as usize;
        let mut data = r.rest().to_vec();
        if plain_len > data.len() {
            return Err(ResilienceError::Corrupt(
                "anchor payload length".to_string(),
            ));
        }
        let cbc = CbcCipher::new(Aes256::new(key.as_bytes()));
        cbc.decrypt_in_place(&iv, &mut data)
            .map_err(|e| ResilienceError::Corrupt(format!("anchor payload cipher: {e:?}")))?;
        data.truncate(plain_len);
        Ok(data)
    }

    /// Re-write every anchor replica with the current FAK table under a
    /// bumped generation.
    fn persist_anchor(&self) -> Result<(), ResilienceError> {
        let payload = self.seal_payload(&self.encode_payload_plain());
        let capacity = VolumeAnchor::payload_capacity(self.fs.codec().block_size());
        if payload.len() > capacity {
            return Err(ResilienceError::AnchorOverflow {
                needed: payload.len(),
                capacity,
            });
        }
        let mut generation = self.generation.lock();
        *generation += 1;
        let anchor = VolumeAnchor {
            superblock: *self.fs.superblock(),
            generation: *generation,
            payload,
        };
        anchor.write_replicas(self.fs.device(), &self.anchor_key)?;
        Ok(())
    }

    // ----- file creation -----------------------------------------------

    /// Create a hidden file at `path` with parity per the store's striping
    /// shape, and persist it in the anchor's FAK table.
    ///
    /// The operation is journaled: a `Create` intent lands before the first
    /// data write, and the anchor generation bump that publishes the path is
    /// the commit point. A crash anywhere in between is rolled back at the
    /// next open by randomising the (derivable) header first — the file never
    /// half-exists.
    pub fn create_file(&self, path: &str, content: &[u8]) -> Result<(), ResilienceError> {
        if self.files.read().contains_key(path) {
            return Err(ResilienceError::Corrupt(format!(
                "file {path} already exists"
            )));
        }
        let intent = self.journal.begin(&self.fs, path, IntentBody::Create)?;
        if intent.is_some() {
            self.stats.intents_journaled.inc();
        }
        let fak = self.file_fak(path);
        let open = self.fs.create_file(&self.map, path, &fak, content)?;
        let state = match self.stripe_file(open, content) {
            Ok(state) => state,
            Err(e) => {
                // Unwind the half-created file so the volume stays clean.
                let reopened = self.fs.open_file(&fak, path)?;
                self.fs.delete_file(&self.map, reopened)?;
                return Err(e);
            }
        };
        self.adopt(path.to_string(), state);
        self.persist_anchor()
    }

    /// Start managing a file: enter it in the path table and its blocks in
    /// the owner index.
    fn adopt(&self, path: String, state: FileState) {
        let state = Arc::new(RwLock::new(state));
        self.index.write().insert_file(&state);
        self.files.write().insert(path, state);
    }

    /// Compute checks and parity for a freshly created file and persist the
    /// stripe map as a shadow hidden file.
    fn stripe_file(&self, open: OpenFile, content: &[u8]) -> Result<FileState, ResilienceError> {
        let keys = check_keys(&open)?;
        let content_key = *open.fak.content_key().expect("checked above");
        let per = self.fs.content_bytes_per_block();
        let (k, m) = (self.stripe_cfg.k, self.stripe_cfg.m);
        let num_data = open.header.num_blocks();
        let mut stripes = StripeMap::new(self.stripe_cfg, num_data);

        for stripe in 0..stripes.num_stripes() {
            let range = stripes.stripe_data_range(stripe);
            let mut data: Vec<Vec<u8>> = Vec::with_capacity(k);
            for i in range {
                // Reconstitute the full zero-padded data field from the
                // content (what create_file sealed) instead of re-reading it.
                let mut field = vec![0u8; per];
                let start = (i as usize) * per;
                if start < content.len() {
                    let end = (start + per).min(content.len());
                    field[..end - start].copy_from_slice(&content[start..end]);
                }
                stripes.set_data_check(i, keys.check(&field));
                data.push(field);
            }
            // Short final stripe: missing data shards are known-zero.
            data.resize(k, vec![0u8; per]);
            let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
            let parity = self.codec.encode(&refs);

            let locs = self.fs.allocate_blocks(&self.map, m as u64)?;
            // The stripe's parity rows are sealed as one group, then written
            // in row order.
            let group: Vec<(BlockId, &[u8])> = locs
                .iter()
                .zip(&parity)
                .map(|(&loc, shard)| (loc, shard.as_slice()))
                .collect();
            self.fs.with_rng(|rng| {
                self.fs
                    .codec()
                    .write_sealed_many(self.fs.device(), &content_key, &group, rng)
            })?;
            for (row, shard) in parity.iter().enumerate() {
                stripes.set_parity_entry(
                    stripe,
                    row,
                    ParityEntry {
                        location: locs[row],
                        check: keys.check(shard),
                    },
                );
            }
        }

        let shadow_fak = self.shadow_fak(&open.path);
        let shadow = self.fs.create_file(
            &self.map,
            &Self::shadow_path(&open.path),
            &shadow_fak,
            &stripes.encode(),
        )?;
        Ok(FileState {
            keys,
            shadow_keys: check_keys(&shadow)?,
            open,
            shadow,
            stripes,
        })
    }

    fn file_state(&self, path: &str) -> Result<Arc<RwLock<FileState>>, ResilienceError> {
        self.files
            .read()
            .get(path)
            .cloned()
            .ok_or_else(|| ResilienceError::UnknownFile(path.to_string()))
    }

    // ----- read path ---------------------------------------------------

    /// Read a whole file, verifying the fast check of every block inline.
    /// A check failure triggers stripe reconstruction; the call either
    /// returns the file's true bytes or reports it unrecoverable — never
    /// silently wrong data.
    pub fn read_file(&self, path: &str) -> Result<Vec<u8>, ResilienceError> {
        let state = self.file_state(path)?;
        let guard = state.read();
        let per = self.fs.content_bytes_per_block();
        let file_size = guard.open.header.file_size as usize;
        let num = guard.open.header.num_blocks() as usize;

        let mut out = vec![0u8; num * per];
        let bad = self.read_fields(&guard, &mut out)?;
        for _ in bad.len()..num {
            self.stats.reads_verified.inc();
        }
        if !bad.is_empty() {
            for _ in &bad {
                self.stats.read_check_failures.inc();
            }
            drop(guard);
            let mut g = state.write();
            let stripes: BTreeSet<u64> =
                bad.iter().map(|&i| self.stripe_cfg.stripe_of(i)).collect();
            let mut lost = Vec::new();
            for stripe in stripes {
                let repair = self.repair_stripe(&mut g, stripe, true)?;
                if repair.unrecoverable {
                    lost.push(stripe);
                }
            }
            if !lost.is_empty() {
                return Err(ResilienceError::Unrecoverable {
                    path: path.to_string(),
                    stripes: lost,
                });
            }
            let content_key = *g.open.fak.content_key().expect("managed files have one");
            let mut scratch = vec![0u8; self.fs.codec().block_size()];
            for i in bad {
                let field = &mut out[i as usize * per..][..per];
                self.read_field(
                    g.open.header.blocks[i as usize],
                    &content_key,
                    &mut scratch,
                    field,
                )?;
                if g.keys.fast(field) != g.stripes.data_check(i).fast {
                    return Err(ResilienceError::Unrecoverable {
                        path: path.to_string(),
                        stripes: vec![self.stripe_cfg.stripe_of(i)],
                    });
                }
            }
        }
        out.truncate(file_size);
        Ok(out)
    }

    /// Read the block at `loc` into `scratch` and open it under `key` into
    /// `field`.
    fn read_field(
        &self,
        loc: BlockId,
        key: &Key256,
        scratch: &mut [u8],
        field: &mut [u8],
    ) -> Result<(), stegfs_base::FsError> {
        self.fs
            .codec()
            .read_sealed_into(self.fs.device(), loc, key, scratch, field)
    }

    /// Read every content block of `g`, in index order, straight into `out`
    /// (one data field per block), check all fields' fast hashes together and
    /// return the indices that fail.
    fn read_fields(&self, g: &FileState, out: &mut [u8]) -> Result<Vec<u64>, ResilienceError> {
        let per = self.fs.content_bytes_per_block();
        let content_key = g.open.fak.content_key().expect("managed files have one");
        let mut scratch = vec![0u8; self.fs.codec().block_size()];
        for (&loc, field) in g.open.header.blocks.iter().zip(out.chunks_exact_mut(per)) {
            self.read_field(loc, content_key, &mut scratch, field)?;
        }
        let fields: Vec<&[u8]> = out.chunks_exact(per).collect();
        let mut hashes = vec![0u64; fields.len()];
        g.keys.fast_many(&fields, &mut hashes);
        Ok((0..fields.len() as u64)
            .filter(|&i| hashes[i as usize] != g.stripes.data_check(i).fast)
            .collect())
    }

    // ----- update path -------------------------------------------------

    /// Overwrite one content block, folding the plaintext delta into every
    /// parity shard of the stripe (`p' = p ⊕ C[i][j]·(old ⊕ new)`) instead of
    /// re-encoding the whole stripe.
    ///
    /// Journaled: a `WriteBatch` intent carrying the pre- and post-image
    /// checks of the data block and every parity row lands before the first
    /// device write, so a power cut leaves the stripe recoverable to exactly
    /// the old or the new content — never a mix.
    pub fn write_block(&self, path: &str, index: u64, data: &[u8]) -> Result<(), ResilienceError> {
        let state = self.file_state(path)?;
        let mut g = state.write();
        self.write_block_locked(path, &mut g, index, data)
    }

    fn write_block_locked(
        &self,
        path: &str,
        g: &mut FileState,
        index: u64,
        data: &[u8],
    ) -> Result<(), ResilienceError> {
        let per = self.fs.content_bytes_per_block();
        if data.len() > per {
            return Err(ResilienceError::Fs(stegfs_base::FsError::Cipher(format!(
                "block write of {} bytes exceeds data field of {per}",
                data.len()
            ))));
        }
        let mut old = vec![0u8; per];
        self.healed_read(path, g, index, &mut old)?;
        let mut new_field = vec![0u8; per];
        new_field[..data.len()].copy_from_slice(data);
        self.write_batch_locked(path, g, &[(index, &old, &new_field)])
    }

    /// Read one content block's plaintext into `field` for a delta update,
    /// healing its stripe first when the fast check says the stored bytes are
    /// stale or torn (a delta against corrupt bytes would poison every parity
    /// row). Either way `field` comes back verified against the stripe map's
    /// record for `index` — by its fast check, or after a heal by the full
    /// recomputed check — which is what [`Self::write_batch_locked`] relies
    /// on to record that check as the block's pre-image without a MAC.
    fn healed_read(
        &self,
        path: &str,
        g: &mut FileState,
        index: u64,
        field: &mut [u8],
    ) -> Result<(), ResilienceError> {
        let content_key = *g.open.fak.content_key().expect("managed files have one");
        let mut scratch = vec![0u8; self.fs.codec().block_size()];
        let mut read =
            |g: &FileState, field: &mut [u8]| {
                let header = &g.open.header;
                let loc = *header.blocks.get(index as usize).ok_or(
                    stegfs_base::FsError::OutOfBounds {
                        index,
                        len: header.num_blocks(),
                    },
                )?;
                self.read_field(loc, &content_key, &mut scratch, field)
            };
        read(g, field)?;
        if g.keys.fast(field) != g.stripes.data_check(index).fast {
            let stripe = self.stripe_cfg.stripe_of(index);
            let repair = self.repair_stripe(g, stripe, true)?;
            if repair.unrecoverable {
                return Err(ResilienceError::Unrecoverable {
                    path: path.to_string(),
                    stripes: vec![stripe],
                });
            }
            read(g, field)?;
            if g.keys.check(field) != *g.stripes.data_check(index) {
                return Err(ResilienceError::Unrecoverable {
                    path: path.to_string(),
                    stripes: vec![stripe],
                });
            }
        }
        Ok(())
    }

    /// Apply an ordered list of `(index, old_field, new_field)` delta
    /// updates. Batches larger than one record chunk to the journal's
    /// capacity; within a chunk one sealed intent carries the whole pre/post
    /// chain, the per-entry data and parity writes follow record order, and
    /// the stripe-map shadow lands once at the end — so the journal and
    /// shadow costs amortise over every block of the chunk.
    ///
    /// Contract: every `old_field` has been verified by the caller against
    /// the stripe map's record for its index ([`Self::healed_read`],
    /// [`Self::read_fields`]). The plan therefore records that check as the
    /// block's pre-image instead of MACing the same bytes again, as it does
    /// for parity rows whose fast check passed ([`Self::read_parity_rows`]);
    /// debug builds recompute every check so taken and assert it equal.
    fn write_batch_locked(
        &self,
        path: &str,
        g: &mut FileState,
        changes: &[(u64, &[u8], &[u8])],
    ) -> Result<(), ResilienceError> {
        if changes.is_empty() {
            return Ok(());
        }
        let keys = Arc::clone(&g.keys);
        let content_key = *g.open.fak.content_key().expect("managed files have one");
        let (k, m) = (self.stripe_cfg.k, self.stripe_cfg.m);
        let per = self.fs.content_bytes_per_block();
        // Reserve record room for the shadow rewrite that closes each chunk,
        // so the map write is journaled like every other write of the batch.
        // If a pathological shadow size would starve the record, fall back to
        // the unreserved capacity and leave the shadow unrecorded (recovery
        // re-derives it either way).
        let mut shadow_tail = g.shadow.header.num_blocks() as usize;
        let mut cap = self
            .journal
            .batch_capacity_reserving(&self.fs, path, m, shadow_tail);
        if cap == 0 {
            shadow_tail = 0;
            cap = self.journal.batch_capacity(&self.fs, path, m).max(1);
        }
        for chunk in changes.chunks(cap) {
            // Plan the chunk: read (and verify) each affected stripe's parity
            // once, fold every delta in entry order, and snapshot the chain
            // state after each entry — those snapshots are exactly the parity
            // images the writes below produce and the checks the intent
            // records. A stripe's rows travel with their checks, so an
            // entry's pre-image checks are the previous same-stripe entry's
            // post-image checks, not a second pass over the same bytes; a
            // data block's pre-image check is likewise the previous entry's
            // post-image check for that index or, first time round, the
            // stripe map's record the caller verified `old` against.
            let mut parity_now: BTreeMap<u64, (Vec<Vec<u8>>, Vec<BlockCheck>)> = BTreeMap::new();
            let mut entries: Vec<BlockWriteIntent> = Vec::with_capacity(chunk.len());
            let mut planned_parity: Vec<Vec<Vec<u8>>> = Vec::with_capacity(chunk.len());
            for &(index, old, new_field) in chunk {
                let stripe = self.stripe_cfg.stripe_of(index);
                let (parities, parity_checks) = match parity_now.entry(stripe) {
                    btree_map::Entry::Occupied(e) => e.into_mut(),
                    btree_map::Entry::Vacant(e) => {
                        e.insert(self.read_parity_rows(path, g, stripe)?)
                    }
                };
                let delta: Vec<u8> = old.iter().zip(new_field).map(|(a, b)| a ^ b).collect();
                let slot = (index - stripe * k as u64) as usize;
                self.codec.apply_delta(slot, &delta, parities);
                let data_pre = entries
                    .iter()
                    .rev()
                    .find(|e| e.index == index)
                    .map_or(*g.stripes.data_check(index), |e| e.data_post);
                debug_assert_eq!(data_pre, keys.check(old), "unverified pre-image");
                let mut images = vec![new_field];
                images.extend(parities.iter().map(Vec::as_slice));
                let checks = keys.check_many(&images);
                let pre_parity = std::mem::replace(parity_checks, checks[1..].to_vec());
                entries.push(BlockWriteIntent {
                    index,
                    data_location: g.open.header.blocks[index as usize],
                    data_pre,
                    data_post: checks[0],
                    parity: (0..m)
                        .map(|row| ParityIntent {
                            location: g.stripes.parity_entry(stripe, row).location,
                            pre: pre_parity[row],
                            post: parity_checks[row],
                        })
                        .collect(),
                });
                planned_parity.push(parities.clone());
            }

            // Record the chunk-closing shadow rewrite as the final entries of
            // the intent: pre = the map as it stands, post = the map with
            // every planned check applied. Parity-less — the shadow is not
            // striped; recovery re-derives it from the resolved frontier and
            // uses these checks to verify the on-disk copy.
            if shadow_tail > 0 {
                let shadow_keys = Arc::clone(&g.shadow_keys);
                let mut post_map = g.stripes.clone();
                for e in &entries {
                    post_map.set_data_check(e.index, e.data_post);
                    let stripe = self.stripe_cfg.stripe_of(e.index);
                    for (row, p) in e.parity.iter().enumerate() {
                        let mut pe = *post_map.parity_entry(stripe, row);
                        pe.check = p.post;
                        post_map.set_parity_entry(stripe, row, pe);
                    }
                }
                let pre_encoded = g.stripes.encode();
                let post_encoded = post_map.encode();
                for (i, (pre, post)) in pre_encoded
                    .chunks(per)
                    .zip(post_encoded.chunks(per))
                    .enumerate()
                {
                    let mut pre_field = vec![0u8; per];
                    pre_field[..pre.len()].copy_from_slice(pre);
                    let mut post_field = vec![0u8; per];
                    post_field[..post.len()].copy_from_slice(post);
                    let checks = shadow_keys.check_many(&[&pre_field, &post_field]);
                    entries.push(BlockWriteIntent {
                        index: SHADOW_ENTRY_BASE + i as u64,
                        data_location: g.shadow.header.blocks[i],
                        data_pre: checks[0],
                        data_post: checks[1],
                        parity: Vec::new(),
                    });
                }
            }

            // Write-ahead intent: every pre/post check the recovery pass
            // needs to classify each affected block as old or new, sealed
            // into one journal slot before the first data write below.
            let intent = self.journal.begin(
                &self.fs,
                path,
                IntentBody::WriteBatch {
                    entries: entries.clone(),
                },
            )?;
            if intent.is_some() {
                self.stats.intents_journaled.inc();
            }

            for (&(index, _, new_field), (entry, parities)) in
                chunk.iter().zip(entries.iter().zip(&planned_parity))
            {
                let stripe = self.stripe_cfg.stripe_of(index);
                // The entry's data block and its parity rows are sealed as
                // one group, then written data first, parity in row order.
                let mut group: Vec<(BlockId, &[u8])> = Vec::with_capacity(1 + m);
                group.push((entry.data_location, new_field));
                group.extend(
                    entry
                        .parity
                        .iter()
                        .zip(parities)
                        .map(|(intent, shard)| (intent.location, shard.as_slice())),
                );
                self.fs.with_rng(|rng| {
                    self.fs
                        .codec()
                        .write_sealed_many(self.fs.device(), &content_key, &group, rng)
                })?;
                g.stripes.set_data_check(index, entry.data_post);
                for (row, intent) in entry.parity.iter().enumerate() {
                    let mut pe = *g.stripes.parity_entry(stripe, row);
                    pe.check = intent.post;
                    g.stripes.set_parity_entry(stripe, row, pe);
                }
            }
            self.rewrite_shadow(g)?;
        }
        Ok(())
    }

    /// Read the parity rows of `stripe` with their checks for a delta update,
    /// healing the stripe first when a row fails its recorded fast check: a
    /// delta folded into a corrupt row would be written back, and its check
    /// recorded as authoritative, with the corruption still inside. Rows
    /// that pass travel with the stripe map's recorded checks; only rows
    /// re-read after a heal are MACed afresh.
    fn read_parity_rows(
        &self,
        path: &str,
        g: &mut FileState,
        stripe: u64,
    ) -> Result<(Vec<Vec<u8>>, Vec<BlockCheck>), ResilienceError> {
        let m = self.stripe_cfg.m;
        let content_key = *g.open.fak.content_key().expect("managed files have one");
        let read = |g: &FileState| {
            (0..m)
                .map(|row| {
                    self.fs.codec().read_sealed(
                        self.fs.device(),
                        g.stripes.parity_entry(stripe, row).location,
                        &content_key,
                    )
                })
                .collect::<Result<Vec<_>, _>>()
        };
        let rows = read(g)?;
        let images: Vec<&[u8]> = rows.iter().map(Vec::as_slice).collect();
        let mut fast = vec![0u64; m];
        g.keys.fast_many(&images, &mut fast);
        let recorded: Vec<BlockCheck> = (0..m)
            .map(|row| g.stripes.parity_entry(stripe, row).check)
            .collect();
        if fast
            .iter()
            .zip(&recorded)
            .all(|(fast, rec)| *fast == rec.fast)
        {
            debug_assert_eq!(
                recorded,
                g.keys.check_many(&images),
                "unverified parity row"
            );
            return Ok((rows, recorded));
        }
        let repair = self.repair_stripe(g, stripe, true)?;
        if repair.unrecoverable {
            return Err(ResilienceError::Unrecoverable {
                path: path.to_string(),
                stripes: vec![stripe],
            });
        }
        let rows = read(g)?;
        let images: Vec<&[u8]> = rows.iter().map(Vec::as_slice).collect();
        let checks = g.keys.check_many(&images);
        Ok((rows, checks))
    }

    /// Rewrite a whole file in place through the delta-parity path: only
    /// blocks whose content actually changed are touched, the whole change
    /// set journaled as one (or, past the record capacity, a few) ordered
    /// `WriteBatch` intent(s). The new content must occupy the same number
    /// of blocks (striped files do not resize in place).
    pub fn write_file(&self, path: &str, content: &[u8]) -> Result<(), ResilienceError> {
        let state = self.file_state(path)?;
        let mut g = state.write();
        let per = self.fs.content_bytes_per_block();
        let num = g.open.header.num_blocks();
        let new_blocks = (content.len().div_ceil(per) as u64).max(1);
        if new_blocks != num {
            return Err(ResilienceError::Corrupt(format!(
                "rewrite of {path} needs {new_blocks} blocks but the file has {num}"
            )));
        }
        // Pre-read every block in index order and check them together; only
        // a block that fails goes through the healing read.
        let mut old = vec![0u8; num as usize * per];
        for i in self.read_fields(&g, &mut old)? {
            let field = &mut old[i as usize * per..][..per];
            self.healed_read(path, &mut g, i, field)?;
        }
        // Only the last block can be short of a full data field.
        let tail_start = (num as usize - 1) * per;
        let mut tail = vec![0u8; per];
        tail[..content.len() - tail_start].copy_from_slice(&content[tail_start..]);
        let changes: Vec<(u64, &[u8], &[u8])> = (0..num)
            .filter_map(|i| {
                let start = i as usize * per;
                let new_field = content.get(start..start + per).unwrap_or(&tail);
                let old_field = &old[start..start + per];
                (old_field != new_field).then_some((i, old_field, new_field))
            })
            .collect();
        self.write_batch_locked(path, &mut g, &changes)?;
        if g.open.header.file_size != content.len() as u64 {
            g.open.header.file_size = content.len() as u64;
            self.fs.save(&mut g.open)?;
        }
        Ok(())
    }

    /// Dummy-update every block of a file (content, parity, header tree):
    /// reseal each under a fresh IV. Ciphertexts all change; every plaintext
    /// check and parity relation survives untouched — the property that makes
    /// plaintext-domain parity compatible with cover traffic.
    pub fn reseal_file(&self, path: &str) -> Result<(), ResilienceError> {
        let state = self.file_state(path)?;
        let g = state.read();
        let content_key = *g.open.fak.content_key().expect("managed files have one");
        for &b in &g.open.header.blocks {
            self.fs.reseal_block(b, &content_key)?;
        }
        for loc in g.stripes.parity_locations() {
            self.fs.reseal_block(loc, &content_key)?;
        }
        self.fs
            .reseal_block(g.open.header_location, g.open.fak.header_key())?;
        for &b in &g.open.indirect_locations {
            self.fs.reseal_block(b, g.open.fak.header_key())?;
        }
        Ok(())
    }

    // ----- repair ------------------------------------------------------

    /// Persist the in-memory stripe map into the shadow file, in place. The
    /// encoded length is fixed for a given shape, so the shadow's geometry
    /// never changes.
    fn rewrite_shadow(&self, g: &mut FileState) -> Result<(), ResilienceError> {
        let encoded = g.stripes.encode();
        let per = self.fs.content_bytes_per_block();
        for (i, chunk) in encoded.chunks(per).enumerate() {
            self.fs
                .write_content_block(&mut g.shadow, i as u64, chunk)?;
        }
        Ok(())
    }

    /// The data fields of the blocks at `locations`, read in that order.
    fn read_shards(
        &self,
        locations: impl Iterator<Item = BlockId>,
        key: &Key256,
    ) -> Result<Vec<Vec<u8>>, stegfs_base::FsError> {
        locations
            .map(|loc| self.fs.codec().read_sealed(self.fs.device(), loc, key))
            .collect()
    }

    /// MAC-verify every shard of `stripe` and reconstruct the missing ones,
    /// rewriting repaired shards onto freshly claimed blocks (the corrupt
    /// locations are randomised and released — a torn or corrupted sector is
    /// never trusted again for this stripe).
    ///
    /// `journaled` writes a `Repair` redo marker before the first repair
    /// write; recovery re-repairs the whole file, which is idempotent. The
    /// recovery pass itself runs unjournaled — its slots may still hold
    /// unprocessed intents a new record must not overwrite — and is safe to
    /// re-crash because repair only ever randomises already-corrupt
    /// locations, so it never pushes a stripe past parity tolerance.
    fn repair_stripe(
        &self,
        g: &mut FileState,
        stripe: u64,
        journaled: bool,
    ) -> Result<StripeRepair, ResilienceError> {
        let keys = Arc::clone(&g.keys);
        let content_key = *g.open.fak.content_key().expect("managed files have one");
        let per = self.fs.content_bytes_per_block();
        let (k, m) = (self.stripe_cfg.k, self.stripe_cfg.m);
        let range = g.stripes.stripe_data_range(stripe);
        let live = range.clone().count();

        // Read the stripe's live data blocks, then its parity rows, and MAC
        // the lot together; a shard stays only if its MAC is the recorded one.
        let mut sites: Vec<(usize, BlockId, [u8; 16])> = Vec::with_capacity(live + m);
        for (slot, i) in range.clone().enumerate() {
            let loc = g.open.header.blocks[i as usize];
            sites.push((slot, loc, g.stripes.data_check(i).mac));
        }
        for row in 0..m {
            let entry = g.stripes.parity_entry(stripe, row);
            sites.push((k + row, entry.location, entry.check.mac));
        }
        let fields = self.read_shards(sites.iter().map(|&(_, loc, _)| loc), &content_key)?;
        let macs = mac16_each(&keys, &fields);

        let mut shards: Vec<Option<Vec<u8>>> = vec![None; k + m];
        let mut corrupt: Vec<(usize, BlockId)> = Vec::new();
        for ((slot, loc, recorded), (field, mac)) in
            sites.into_iter().zip(fields.into_iter().zip(macs))
        {
            if mac == recorded {
                shards[slot] = Some(field);
            } else {
                corrupt.push((slot, loc));
            }
        }
        for shard in shards.iter_mut().take(k).skip(live) {
            *shard = Some(vec![0u8; per]);
        }
        if corrupt.is_empty() {
            return Ok(StripeRepair {
                detected: Vec::new(),
                repaired: 0,
                unrecoverable: false,
            });
        }

        self.stats.degraded_stripes.inc();
        let detected: Vec<BlockId> = corrupt.iter().map(|&(_, loc)| loc).collect();
        if self.codec.reconstruct(&mut shards, per).is_err() {
            self.stats.unrecoverable_stripes.inc();
            return Ok(StripeRepair {
                detected,
                repaired: 0,
                unrecoverable: true,
            });
        }

        let intent = if journaled {
            self.journal
                .begin(&self.fs, &g.open.path, IntentBody::Repair)?
        } else {
            None
        };
        if intent.is_some() {
            self.stats.intents_journaled.inc();
        }

        let mut scratch = vec![0u8; self.fs.codec().block_size()];
        for &(slot, old_loc) in &corrupt {
            let new_loc = self.fs.allocate_blocks(&self.map, 1)?[0];
            let shard = shards[slot].as_ref().expect("reconstructed");
            self.fs.with_rng(|rng| {
                self.fs
                    .codec()
                    .write_sealed(self.fs.device(), new_loc, &content_key, shard, rng)
            })?;
            if slot < k {
                let i = stripe * k as u64 + slot as u64;
                g.open.header.blocks[i as usize] = new_loc;
            } else {
                let mut entry = *g.stripes.parity_entry(stripe, slot - k);
                entry.location = new_loc;
                g.stripes.set_parity_entry(stripe, slot - k, entry);
            }
            self.index.write().relocate(old_loc, new_loc);
            // Only release the corrupt location after the reconstructed
            // shard is durably sealed at its new home (write ordering).
            self.fs.randomize_block(old_loc, &mut scratch)?;
            self.map.set(old_loc, BlockClass::Dummy);
        }
        self.fs.save(&mut g.open)?;
        self.rewrite_shadow(g)?;
        self.stats.blocks_repaired.add(corrupt.len() as u64);
        Ok(StripeRepair {
            repaired: corrupt.len() as u64,
            detected,
            unrecoverable: false,
        })
    }

    // ----- journal recovery --------------------------------------------

    /// Scan the journal slots and roll every interrupted mutation forward or
    /// back. Runs inside [`ResilientStore::open`] after the file table is
    /// loaded and before the store is handed out; finishes by randomising
    /// every slot, so a crash *during* recovery simply re-runs it (every
    /// per-record action is idempotent).
    fn recover_journal(&self) -> Result<RecoveryReport, ResilienceError> {
        let mut report = RecoveryReport::default();
        if !self.journal.is_enabled() {
            return Ok(report);
        }
        let records = self.journal.scan(&self.fs)?;
        report.intents_found = records.len() as u64;

        // Operations on one path are serialised by its file lock, so among
        // valid records for the same path every one except the highest op-id
        // is certainly complete: keep only the latest per path.
        let mut latest: BTreeMap<String, IntentRecord> = BTreeMap::new();
        for record in records {
            match latest.get(&record.path) {
                Some(prev) if prev.op_id >= record.op_id => report.intents_stale += 1,
                _ => {
                    if latest.insert(record.path.clone(), record).is_some() {
                        report.intents_stale += 1;
                    }
                }
            }
        }

        for (path, record) in latest {
            let outcome = match record.body {
                IntentBody::Create => self.recover_create(&path)?,
                IntentBody::WriteBatch { entries } => self.recover_write_batch(&path, &entries)?,
                IntentBody::Repair => self.recover_repair(&path)?,
                IntentBody::RegistryCheckpoint { shard, generation } => {
                    self.recover_registry_checkpoint(shard, generation)?
                }
            };
            match outcome {
                Recovered::Forward => report.rolled_forward += 1,
                Recovered::Back => report.rolled_back += 1,
                Recovered::Stale => report.intents_stale += 1,
                Recovered::Lost => report.unrecoverable += 1,
            }
        }
        self.journal.clear_all(&self.fs)?;
        self.stats.intents_recovered.add(report.recovered());
        Ok(report)
    }

    /// Undo an uncommitted file creation. Committed means the path reached
    /// the anchor's FAK table; everything about an uncommitted file is
    /// derivable from the master key, so the rollback needs no on-disk state
    /// beyond the intent itself.
    fn recover_create(&self, path: &str) -> Result<Recovered, ResilienceError> {
        if self.files.read().contains_key(path) {
            // The anchor bump landed: the create committed, record is stale.
            return Ok(Recovered::Stale);
        }
        let fak = self.file_fak(path);
        let open = match self.fs.open_file(&fak, path) {
            Ok(open) => open,
            // Header never landed: the create effectively never started.
            // Any sealed blocks it did write are unreferenced and will be
            // reclaimed as dummy space.
            Err(_) => return Ok(Recovered::Stale),
        };
        // Collect everything reachable *before* destroying the header.
        let mut hygiene: Vec<BlockId> = Vec::new();
        hygiene.extend(open.indirect_locations.iter().copied());
        hygiene.extend(open.header.blocks.iter().copied());
        let shadow_fak = self.shadow_fak(path);
        if let Ok(shadow) = self.fs.open_file(&shadow_fak, &Self::shadow_path(path)) {
            if let Ok(encoded) = self.fs.read_file(&shadow) {
                if let Ok(stripes) = StripeMap::decode(&encoded) {
                    hygiene.extend(stripes.parity_locations());
                }
            }
            hygiene.push(shadow.header_location);
            hygiene.extend(shadow.indirect_locations.iter().copied());
            hygiene.extend(shadow.header.blocks.iter().copied());
        }
        // Randomising the header is the undo of the commit point: it is the
        // one block that makes the file discoverable, and it goes first.
        let mut scratch = vec![0u8; self.fs.codec().block_size()];
        self.fs
            .randomize_block(open.header_location, &mut scratch)?;
        let num_blocks = self.fs.superblock().num_blocks;
        for loc in hygiene {
            // Locations decoded from a partially written shadow map may be
            // garbage; out-of-range ones are simply skipped. Everything here
            // is hygiene — the blocks are unreferenced once the header is
            // gone.
            if loc > 0 && loc < num_blocks {
                self.fs.randomize_block(loc, &mut scratch)?;
            }
        }
        Ok(Recovered::Back)
    }

    /// Complete or undo an interrupted batched delta update. Entries were
    /// written in record order with at most one device write in flight at
    /// the power cut, so the walk visits them stripe group by stripe group
    /// (same-stripe entries are adjacent — batch indices ascend): fully
    /// completed groups keep the walk going, the single in-flight group is
    /// resolved to a clean chain position by [`Self::resolve_stripe_group`],
    /// and the walk stops there — groups past the frontier never started,
    /// and after a rollback their recorded parity chain no longer describes
    /// the device.
    fn recover_write_batch(
        &self,
        path: &str,
        entries: &[BlockWriteIntent],
    ) -> Result<Recovered, ResilienceError> {
        let state = match self.file_state(path) {
            Ok(state) => state,
            Err(_) => return Ok(Recovered::Stale),
        };
        let mut g = state.write();

        // The record's tail covers the chunk-closing shadow rewrite; strip it
        // off before stripe grouping (shadow entries have no stripe geometry)
        // and verify it separately once the data frontier is resolved.
        let split = entries
            .iter()
            .position(|e| e.index >= SHADOW_ENTRY_BASE)
            .unwrap_or(entries.len());
        let (entries, shadow_entries) = entries.split_at(split);
        if entries.is_empty() {
            return Ok(Recovered::Stale);
        }

        // Split the record into runs of same-stripe entries, preserving
        // write order.
        let mut groups: Vec<&[BlockWriteIntent]> = Vec::new();
        let mut start = 0;
        for i in 1..=entries.len() {
            if i == entries.len()
                || self.stripe_cfg.stripe_of(entries[i].index)
                    != self.stripe_cfg.stripe_of(entries[start].index)
            {
                groups.push(&entries[start..i]);
                start = i;
            }
        }

        let mut touched = false;
        let mut outcome = Recovered::Back;
        for (gi, group) in groups.iter().enumerate() {
            match self.resolve_stripe_group(&mut g, group)? {
                GroupResolution::Advanced {
                    complete,
                    touched: wrote,
                } => {
                    touched |= wrote;
                    if complete > 0 {
                        outcome = Recovered::Forward;
                    }
                    // The frontier lies inside this group: no later group
                    // ever started.
                    if complete < group.len() {
                        break;
                    }
                }
                GroupResolution::Lost => {
                    outcome = Recovered::Lost;
                    break;
                }
                // Geometry mismatch: a later serialised (therefore complete)
                // operation superseded this record.
                GroupResolution::Stale => {
                    if gi == 0 {
                        outcome = Recovered::Stale;
                    }
                    break;
                }
            }
        }
        if outcome != Recovered::Stale {
            // Bring the on-disk shadow to the resolved map. When the record
            // carries shadow entries, each names a shadow block being
            // rewritten: classify it against the re-derived target and only
            // skip the rewrite when every block already verifies (the cut
            // landed after the shadow write, or before the batch started).
            let mut dirty = touched;
            if !dirty && !shadow_entries.is_empty() {
                let per = self.fs.content_bytes_per_block();
                let shadow_keys = Arc::clone(&g.shadow_keys);
                let shadow_key = *g.shadow.fak.content_key().expect("shadow has one");
                let expected = g.stripes.encode();
                for e in shadow_entries {
                    let i = (e.index - SHADOW_ENTRY_BASE) as usize;
                    let stale_geometry = i >= g.shadow.header.num_blocks() as usize
                        || g.shadow.header.blocks[i] != e.data_location
                        || !e.parity.is_empty();
                    if stale_geometry {
                        dirty = true;
                        break;
                    }
                    let start = i * per;
                    let mut want = vec![0u8; per];
                    let chunk =
                        &expected[start.min(expected.len())..expected.len().min(start + per)];
                    want[..chunk.len()].copy_from_slice(chunk);
                    let field = self.fs.codec().read_sealed(
                        self.fs.device(),
                        e.data_location,
                        &shadow_key,
                    )?;
                    let mut macs = [[0u8; 16]; 2];
                    shadow_keys.mac16_many(&[&field, &want], &mut macs);
                    if macs[0] != macs[1] {
                        dirty = true;
                        break;
                    }
                }
            }
            if dirty {
                self.rewrite_shadow(&mut g)?;
            }
        }
        Ok(outcome)
    }

    /// Resolve one stripe's run of batch entries after a crash.
    ///
    /// The operation wrote, per entry in order: the entry's data block, then
    /// every parity row folded forward to the chain position *after* that
    /// entry. A power cut is a strict prefix of those writes, so the group's
    /// data blocks hold post-images for a leading run of entries (at most
    /// one block torn mid-write) and the parity rows sit at — or torn
    /// between — the chain positions bracketing that run. The resolve
    /// classifies each group data block against its own recorded pre/post
    /// MACs to find the frontier `complete`, expects every parity row at
    /// chain position `complete`, erases every shard not in that target
    /// state, and reconstructs the erased ones from the survivors
    /// (non-group data blocks are identical in every chain position and are
    /// trusted via their state-independent stripe-map checks). The
    /// stripe-map checks are then aligned with the resolved state; the
    /// caller owns the single shadow rewrite.
    fn resolve_stripe_group(
        &self,
        g: &mut FileState,
        group: &[BlockWriteIntent],
    ) -> Result<GroupResolution, ResilienceError> {
        let (k, m) = (self.stripe_cfg.k, self.stripe_cfg.m);
        let stripe = self.stripe_cfg.stripe_of(group[0].index);
        // Sanity: every entry must describe the file's current geometry;
        // anything else means a later (serialised, therefore complete)
        // operation superseded the record.
        for e in group {
            if e.index >= g.open.header.num_blocks()
                || g.open.header.blocks[e.index as usize] != e.data_location
                || e.parity.len() != m
                || (0..m).any(|row| {
                    g.stripes.parity_entry(stripe, row).location != e.parity[row].location
                })
            {
                return Ok(GroupResolution::Stale);
            }
        }
        let keys = Arc::clone(&g.keys);
        let content_key = *g.open.fak.content_key().expect("managed files have one");
        let per = self.fs.content_bytes_per_block();

        // Read every shard the resolve looks at — the group's data blocks,
        // the parity rows, then the stripe's other (bystander) data blocks —
        // and MAC them together.
        let range = g.stripes.stripe_data_range(stripe);
        let live = range.clone().count();
        let in_group = |i: u64| group.iter().position(|e| e.index == i);
        let locations = group
            .iter()
            .map(|e| e.data_location)
            .chain((0..m).map(|row| g.stripes.parity_entry(stripe, row).location))
            .chain(
                range
                    .clone()
                    .filter(|&i| in_group(i).is_none())
                    .map(|i| g.open.header.blocks[i as usize]),
            );
        let fields = self.read_shards(locations, &content_key)?;
        let macs = mac16_each(&keys, &fields);
        let mut shard_macs = fields.into_iter().zip(macs);
        let data: Vec<(Vec<u8>, [u8; 16])> = shard_macs.by_ref().take(group.len()).collect();
        let parity: Vec<(Vec<u8>, [u8; 16])> = shard_macs.by_ref().take(m).collect();
        let mut bystanders = shard_macs;

        // Classify each group data block: Some(true) = post-image landed,
        // Some(false) = still pre-image, None = torn.
        let data_states: Vec<Option<bool>> = group
            .iter()
            .zip(&data)
            .map(|(e, (_, mac))| {
                if *mac == e.data_post.mac {
                    Some(true)
                } else if *mac == e.data_pre.mac {
                    Some(false)
                } else {
                    None
                }
            })
            .collect();
        // The frontier: writes land as a strict prefix, so post-images form
        // a leading run. A block past it that is not a clean pre-image was
        // torn mid-write and gets erased and rolled back.
        let complete = data_states.iter().take_while(|&&s| s == Some(true)).count();

        // Parity target: the chain position after `complete` entries.
        let expected: Vec<BlockCheck> = if complete == 0 {
            group[0].parity.iter().map(|p| p.pre).collect()
        } else {
            group[complete - 1].parity.iter().map(|p| p.post).collect()
        };

        // Build the stripe's shard vector in the target state, erasing every
        // shard that does not match it.
        let mut shards: Vec<Option<Vec<u8>>> = vec![None; k + m];
        for (slot, i) in range.enumerate() {
            if let Some(j) = in_group(i) {
                let want_post = j < complete;
                shards[slot] = (data_states[j] == Some(want_post)).then(|| data[j].0.clone());
            } else {
                // Bystander: its content is identical at every chain
                // position; trust it if it matches its (state-independent)
                // stripe-map check.
                let (field, mac) = bystanders.next().expect("one read per bystander");
                shards[slot] = (mac == g.stripes.data_check(i).mac).then_some(field);
            }
        }
        for shard in shards.iter_mut().take(k).skip(live) {
            *shard = Some(vec![0u8; per]);
        }
        for (row, (field, mac)) in parity.into_iter().enumerate() {
            shards[k + row] = (mac == expected[row].mac).then_some(field);
        }
        let missing: Vec<usize> = (0..k + m).filter(|&s| shards[s].is_none()).collect();
        if self.codec.reconstruct(&mut shards, per).is_err() {
            self.stats.unrecoverable_stripes.inc();
            return Ok(GroupResolution::Lost);
        }

        // Rewrite every erased shard in the target state, then make the
        // stripe map agree with it.
        let mut touched = !missing.is_empty();
        for slot in missing {
            let (loc, shard) = if slot < k {
                let i = stripe * k as u64 + slot as u64;
                (
                    g.open.header.blocks[i as usize],
                    shards[slot].as_ref().expect("reconstructed"),
                )
            } else {
                (
                    g.stripes.parity_entry(stripe, slot - k).location,
                    shards[slot].as_ref().expect("reconstructed"),
                )
            };
            self.fs.with_rng(|rng| {
                self.fs
                    .codec()
                    .write_sealed(self.fs.device(), loc, &content_key, shard, rng)
            })?;
        }
        for (j, e) in group.iter().enumerate() {
            let check = if j < complete {
                e.data_post
            } else {
                e.data_pre
            };
            if *g.stripes.data_check(e.index) != check {
                g.stripes.set_data_check(e.index, check);
                touched = true;
            }
        }
        for (row, exp) in expected.iter().enumerate() {
            let mut pe = *g.stripes.parity_entry(stripe, row);
            if pe.check != *exp {
                pe.check = *exp;
                g.stripes.set_parity_entry(stripe, row, pe);
                touched = true;
            }
        }
        Ok(GroupResolution::Advanced { complete, touched })
    }

    /// Redo an interrupted repair: re-verify and re-repair every stripe of
    /// the file. Repair is idempotent and clean stripes are untouched.
    fn recover_repair(&self, path: &str) -> Result<Recovered, ResilienceError> {
        let state = match self.file_state(path) {
            Ok(state) => state,
            Err(_) => return Ok(Recovered::Stale),
        };
        let mut g = state.write();
        let mut lost = false;
        for stripe in 0..g.stripes.num_stripes() {
            lost |= self.repair_stripe(&mut g, stripe, false)?.unrecoverable;
        }
        Ok(if lost {
            Recovered::Lost
        } else {
            Recovered::Forward
        })
    }

    // ----- scrub -------------------------------------------------------

    /// Sweep every managed file: quorum-heal the anchor, MAC-verify every
    /// data and parity block in ranged batches of at most `scrub_batch`
    /// blocks, and reconstruct every degraded stripe.
    pub fn scrub(&self) -> Result<ScrubReport, ResilienceError> {
        let mut report = ScrubReport::default();

        let (_, healed) = VolumeAnchor::read_quorum(self.fs.device(), &self.anchor_key)?;
        report.anchor_replicas_repaired = healed.len() as u64;
        self.stats.anchor_repairs.add(healed.len() as u64);

        let files: Vec<Arc<RwLock<FileState>>> = self.files.read().values().cloned().collect();
        for state in files {
            let mut g = state.write();
            let keys = Arc::clone(&g.keys);
            let content_key = *g.open.fak.content_key().expect("managed files have one");

            // Every striped location of this file with the shard it holds,
            // sorted by physical position so the sweep can coalesce
            // contiguous runs into ranged reads.
            let mut sites = g.owned_blocks();
            sites.retain(|(_, role)| matches!(role, Role::Content(_) | Role::Parity(..)));
            sites.sort_by_key(|&(loc, _)| loc);

            // Runs are read in order into one batch buffer; a full batch
            // (and the last one) is opened where it lies and its fields are
            // MACed together — scattered blocks make most runs one block
            // long, too short to fill the hash lanes on their own.
            let block_size = self.fs.codec().block_size();
            let mut degraded: BTreeSet<u64> = BTreeSet::new();
            let mut verify =
                |batch: &[(BlockId, Role)], buf: &mut [u8]| -> Result<(), ResilienceError> {
                    self.fs.codec().open_in_place(&content_key, buf)?;
                    let fields: Vec<&[u8]> = buf
                        .chunks_exact(block_size)
                        .map(|physical| &physical[IV_SIZE..])
                        .collect();
                    let mut macs = vec![[0u8; 16]; fields.len()];
                    keys.mac16_many(&fields, &mut macs);
                    for (&(_, role), mac) in batch.iter().zip(macs) {
                        let (recorded, stripe) = match role {
                            Role::Content(i) => {
                                (g.stripes.data_check(i).mac, self.stripe_cfg.stripe_of(i))
                            }
                            Role::Parity(stripe, row) => {
                                (g.stripes.parity_entry(stripe, row).check.mac, stripe)
                            }
                            _ => unreachable!("the sweep keeps striped roles only"),
                        };
                        if mac != recorded {
                            degraded.insert(stripe);
                        }
                    }
                    Ok(())
                };
            let mut buf = vec![0u8; self.scrub_batch.min(sites.len()) * block_size];
            // `sites[batch..start]` are read into `buf` and not yet verified.
            let mut batch = 0;
            let mut start = 0;
            while start < sites.len() {
                // Extend the run while physically contiguous and under the
                // batch cap.
                let mut end = start + 1;
                while end < sites.len()
                    && end - start < self.scrub_batch
                    && sites[end].0 == sites[end - 1].0 + 1
                {
                    end += 1;
                }
                if end - batch > self.scrub_batch {
                    verify(
                        &sites[batch..start],
                        &mut buf[..(start - batch) * block_size],
                    )?;
                    batch = start;
                }
                let run = &mut buf[(start - batch) * block_size..(end - batch) * block_size];
                self.fs.device().read_blocks(sites[start].0, run)?;
                report.blocks_checked += (end - start) as u64;
                start = end;
            }
            verify(&sites[batch..], &mut buf[..(start - batch) * block_size])?;
            self.stats.blocks_checked.add(sites.len() as u64);

            for stripe in degraded {
                let repair = self.repair_stripe(&mut g, stripe, true)?;
                report.degraded_stripes += 1;
                report.blocks_repaired += repair.repaired;
                report.detected.extend(repair.detected);
                if repair.unrecoverable {
                    report.unrecoverable_stripes += 1;
                }
            }
        }
        self.stats.scrubs.inc();
        Ok(report)
    }

    // ----- scrub-on-cover-traffic --------------------------------------

    /// Build a scrub cursor over every payload block, in a seeded
    /// pseudo-random order. Feeding it to
    /// [`ResilientStore::dummy_update_batch`] turns the volume's cover
    /// traffic into a background scrub: each pass over the cursor MAC-checks
    /// every hidden block exactly once while the touched-block stream keeps
    /// its uniform look.
    pub fn scrub_cursor(&self, seed: u64) -> ScrubCursor {
        let num = self.fs.superblock().num_blocks;
        let mut order: Vec<BlockId> = (1..num).collect();
        let mut rng = HashDrbg::from_u64(seed);
        // Fisher–Yates with the deterministic DRBG.
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(i as u64 + 1) as usize;
            order.swap(i, j);
        }
        ScrubCursor {
            order,
            pos: AtomicUsize::new(0),
        }
    }

    /// Issue `k` dummy updates, drawing victims from `cursor` when given
    /// (scrub-on-cover-traffic) or uniformly at random otherwise. Every
    /// victim is rewritten with fresh randomness: blocks owned by a managed
    /// file are resealed under their real key — and opportunistically
    /// MAC-verified, with a journaled stripe repair on mismatch — while
    /// unowned blocks are re-randomised. Anchor replicas and journal slots
    /// are skipped in *both* modes, so the two victim streams stay
    /// distributionally comparable.
    ///
    /// Owners come from the standing owner index — k lookups, whatever the
    /// number of managed blocks — and each looked-up role is confirmed under
    /// its file's lock before it is used.
    ///
    /// Returns the blocks actually rewritten (the observable update stream).
    pub fn dummy_update_batch(
        &self,
        k: usize,
        cursor: Option<&ScrubCursor>,
    ) -> Result<Vec<BlockId>, ResilienceError> {
        let num = self.fs.superblock().num_blocks;
        let victims: Vec<BlockId> = match cursor {
            Some(cursor) => cursor.next_victims(k),
            None => (0..k)
                .map(|_| self.fs.with_rng(|rng| 1 + rng.gen_range(num - 1)))
                .collect(),
        };
        // One pass over the standing index: drop the reserved victims and
        // look every other one's owner up.
        let planned: Vec<(BlockId, Option<Owner>)> = {
            let index = self.index.read();
            victims
                .into_iter()
                .filter(|victim| !index.reserved.contains(victim))
                .map(|victim| (victim, index.owners.get(&victim).cloned()))
                .collect()
        };

        let mut scratch = vec![0u8; self.fs.codec().block_size()];
        let mut field = vec![0u8; self.fs.content_bytes_per_block()];
        let mut touched = Vec::with_capacity(planned.len());
        for (victim, mut owner) in planned {
            // The lookup ran before the owner's lock was taken; a repair may
            // have re-homed the shard since. A role that no longer holds is
            // looked up afresh — repairs update the index under the file's
            // lock, so it is current again once that lock has been ours.
            loop {
                let Some((state, role)) = owner else {
                    self.fs.randomize_block(victim, &mut scratch)?;
                    break;
                };
                if self.dummy_update_owned(victim, &state, role, &mut scratch, &mut field)? {
                    break;
                }
                owner = self.index.read().owners.get(&victim).cloned();
            }
            touched.push(victim);
        }
        Ok(touched)
    }

    /// Dummy-update `victim` as the block playing `role` in `state`: reseal
    /// it under the key that role implies, MAC-verifying content and parity
    /// on the way (a mismatch becomes a journaled stripe repair instead).
    /// Returns `false`, with nothing read or written, if the role no longer
    /// holds under the file's lock.
    fn dummy_update_owned(
        &self,
        victim: BlockId,
        state: &RwLock<FileState>,
        role: Role,
        scratch: &mut [u8],
        field: &mut [u8],
    ) -> Result<bool, ResilienceError> {
        let g = state.read();
        if !role.holds(&g, victim) {
            return Ok(false);
        }
        // The key the block is sealed under and, for the striped roles, the
        // MAC it must carry and the stripe to heal if it does not.
        let content_key = *g.open.fak.content_key().expect("managed files have one");
        let (key, striped) = match role {
            Role::Content(i) => {
                let stripe = self.stripe_cfg.stripe_of(i);
                (content_key, Some((g.stripes.data_check(i).mac, stripe)))
            }
            Role::Parity(stripe, row) => {
                let mac = g.stripes.parity_entry(stripe, row).check.mac;
                (content_key, Some((mac, stripe)))
            }
            Role::HeaderTree => (*g.open.fak.header_key(), None),
            Role::ShadowContent => (*g.shadow.fak.content_key().expect("shadow has one"), None),
            Role::ShadowHeaderTree => (*g.shadow.fak.header_key(), None),
        };
        if let Some((expected, stripe)) = striped {
            self.read_field(victim, &key, scratch, field)?;
            if g.keys.mac16(field) != expected {
                // Scrub-on-cover-traffic: the dummy update found silent
                // corruption; heal the stripe.
                drop(g);
                self.repair_stripe(&mut state.write(), stripe, true)?;
                return Ok(true);
            }
        }
        self.fs.reseal_block(victim, &key)?;
        Ok(true)
    }
}

/// A cycling, seeded-shuffle iterator over the volume's payload blocks: the
/// victim stream that lets a scrub pass ride the dummy-update cover traffic.
/// One full cycle visits every payload block exactly once.
pub struct ScrubCursor {
    order: Vec<BlockId>,
    pos: AtomicUsize,
}

impl ScrubCursor {
    /// The next `k` victim blocks, cycling through the shuffled order.
    pub fn next_victims(&self, k: usize) -> Vec<BlockId> {
        (0..k)
            .map(|_| {
                let i = self.pos.fetch_add(1, Ordering::Relaxed) % self.order.len();
                self.order[i]
            })
            .collect()
    }

    /// Blocks per full cycle (the volume's payload block count).
    pub fn cycle_len(&self) -> usize {
        self.order.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stegfs_blockdev::{FaultDevice, FaultPlan, Io, IoKind, Layered, MemDevice};

    fn cfg() -> ResilienceConfig {
        ResilienceConfig::default()
            .with_fs(StegFsConfig::default().with_block_size(512))
            .with_stripe(4, 2)
    }

    fn master() -> Key256 {
        Key256::from_passphrase("resilient-owner")
    }

    fn content(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    fn fresh_store() -> ResilientStore<FaultDevice<MemDevice>> {
        let dev = FaultDevice::new(MemDevice::new(512, 512));
        ResilientStore::format(dev, cfg(), &master(), 7).unwrap()
    }

    #[test]
    fn create_read_roundtrip() {
        let store = fresh_store();
        let data = content(3000);
        store.create_file("/a", &data).unwrap();
        assert_eq!(store.read_file("/a").unwrap(), data);
        assert!(store.stats().reads_verified > 0);
        assert_eq!(store.stats().read_check_failures, 0);
    }

    #[test]
    fn reopen_from_anchor_recovers_everything() {
        let store = fresh_store();
        let a = content(2000);
        let b = content(700);
        store.create_file("/a", &a).unwrap();
        store.create_file("/b", &b).unwrap();
        let device = store.fs.into_device();

        let reopened = ResilientStore::open(device, cfg(), &master(), 8).unwrap();
        assert_eq!(reopened.paths(), vec!["/a".to_string(), "/b".to_string()]);
        assert_eq!(reopened.read_file("/a").unwrap(), a);
        assert_eq!(reopened.read_file("/b").unwrap(), b);
    }

    #[test]
    fn wrong_master_cannot_open() {
        let store = fresh_store();
        store.create_file("/a", &content(100)).unwrap();
        let device = store.fs.into_device();
        assert!(matches!(
            ResilientStore::open(device, cfg(), &Key256::from_passphrase("wrong"), 8),
            Err(ResilienceError::AnchorUnrecoverable(_))
        ));
    }

    #[test]
    fn read_path_repairs_corrupted_block() {
        let store = fresh_store();
        let data = content(4000);
        store.create_file("/a", &data).unwrap();

        let victim = {
            let state = store.file_state("/a").unwrap();
            let g = state.read();
            g.open.header.blocks[2]
        };
        let mut plan = FaultPlan::new(11);
        plan.zero_block(victim);
        store.fs.device().apply_plan(&plan).unwrap();

        assert_eq!(store.read_file("/a").unwrap(), data);
        let stats = store.stats();
        assert_eq!(stats.read_check_failures, 1);
        assert_eq!(stats.blocks_repaired, 1);
        // Repaired onto a fresh block; the old location is dummy again.
        let state = store.file_state("/a").unwrap();
        assert_ne!(state.read().open.header.blocks[2], victim);
        assert_eq!(store.block_map().class(victim), BlockClass::Dummy);
        // A second read is clean.
        assert_eq!(store.read_file("/a").unwrap(), data);
        assert_eq!(store.stats().read_check_failures, 1);
    }

    #[test]
    fn beyond_parity_tolerance_reports_never_lies() {
        let store = fresh_store();
        let data = content(2000); // 5 blocks of 496 → stripes of 4
        store.create_file("/a", &data).unwrap();

        // Corrupt 3 blocks of stripe 0 (m = 2 tolerated).
        let victims = {
            let state = store.file_state("/a").unwrap();
            let g = state.read();
            g.open.header.blocks[..3].to_vec()
        };
        let mut plan = FaultPlan::new(13);
        for v in victims {
            plan.zero_block(v);
        }
        store.fs.device().apply_plan(&plan).unwrap();

        match store.read_file("/a") {
            Err(ResilienceError::Unrecoverable { path, stripes }) => {
                assert_eq!(path, "/a");
                assert_eq!(stripes, vec![0]);
            }
            other => panic!("expected Unrecoverable, got {other:?}"),
        }
        assert_eq!(store.stats().unrecoverable_stripes, 1);
    }

    #[test]
    fn scrub_finds_and_repairs_silent_corruption() {
        let store = fresh_store();
        let data = content(5000);
        store.create_file("/a", &data).unwrap();

        let (victim_data, victim_parity) = {
            let state = store.file_state("/a").unwrap();
            let g = state.read();
            (
                g.open.header.blocks[0],
                g.stripes.parity_entry(1, 0).location,
            )
        };
        let mut plan = FaultPlan::new(17);
        plan.flip_bit(victim_data);
        plan.zero_block(victim_parity);
        let sites = store.fs.device().apply_plan(&plan).unwrap();
        assert_eq!(sites.len(), 2);

        let report = store.scrub().unwrap();
        assert!(report.fully_repaired());
        assert_eq!(report.degraded_stripes, 2);
        assert_eq!(report.blocks_repaired, 2);
        let mut detected = report.detected.clone();
        detected.sort_unstable();
        let mut expected = vec![victim_data, victim_parity];
        expected.sort_unstable();
        assert_eq!(detected, expected);
        assert_eq!(store.read_file("/a").unwrap(), data);

        // Scrub again: clean.
        let report2 = store.scrub().unwrap();
        assert!(report2.is_clean());
    }

    #[test]
    fn scrub_heals_corrupt_anchor_replica() {
        let store = fresh_store();
        store.create_file("/a", &content(300)).unwrap();
        let replica = VolumeAnchor::replica_blocks(512)[1];
        let mut plan = FaultPlan::new(19);
        plan.zero_block(replica);
        store.fs.device().apply_plan(&plan).unwrap();

        let report = store.scrub().unwrap();
        assert_eq!(report.anchor_replicas_repaired, 1);
        // The healed volume reopens fine even if another replica dies next.
        let device = store.fs.into_device();
        let reopened = ResilientStore::open(device, cfg(), &master(), 9).unwrap();
        assert_eq!(reopened.read_file("/a").unwrap(), content(300));
    }

    #[test]
    fn reseal_preserves_parity_relations() {
        let store = fresh_store();
        let data = content(3500);
        store.create_file("/a", &data).unwrap();
        for _ in 0..3 {
            store.reseal_file("/a").unwrap();
        }
        // All ciphertexts changed, but a scrub still finds the volume clean
        // and a degraded read still reconstructs.
        assert!(store.scrub().unwrap().is_clean());
        let victim = {
            let state = store.file_state("/a").unwrap();
            let g = state.read();
            g.open.header.blocks[1]
        };
        let mut plan = FaultPlan::new(23);
        plan.zero_block(victim);
        store.fs.device().apply_plan(&plan).unwrap();
        assert_eq!(store.read_file("/a").unwrap(), data);
    }

    #[test]
    fn delta_parity_update_matches_full_reencode() {
        let store = fresh_store();
        let data = content(4000);
        store.create_file("/a", &data).unwrap();

        let per = store.fs().content_bytes_per_block();
        let new_block = vec![0x5au8; per];
        store.write_block("/a", 1, &new_block).unwrap();

        let mut expected = data.clone();
        expected[per..2 * per].copy_from_slice(&new_block);
        assert_eq!(store.read_file("/a").unwrap(), expected);
        // Parity still reconstructs after the delta update: kill the block
        // we just wrote and read through repair.
        let victim = {
            let state = store.file_state("/a").unwrap();
            let g = state.read();
            g.open.header.blocks[1]
        };
        let mut plan = FaultPlan::new(29);
        plan.zero_block(victim);
        store.fs.device().apply_plan(&plan).unwrap();
        assert_eq!(store.read_file("/a").unwrap(), expected);
        // And the scrub agrees everything is consistent.
        assert!(store.scrub().unwrap().is_clean());
    }

    #[test]
    fn torn_write_mid_update_is_recovered() {
        let store = fresh_store();
        let data = content(4000);
        store.create_file("/a", &data).unwrap();

        // Tear the update's first three scalar writes mid-sector: the intent
        // record's two slot copies (torn journal records self-invalidate;
        // nothing scans them here) and then the data block write.
        let per = store.fs().content_bytes_per_block();
        store.fs.device().arm_partial_scalar_write(100);
        store.fs.device().arm_partial_scalar_write(100);
        store.fs.device().arm_partial_scalar_write(100);
        let new_block = vec![0x77u8; per];
        store.write_block("/a", 0, &new_block).unwrap();

        // The torn block fails its check; parity (updated from the intended
        // delta) reconstructs the *new* content.
        let mut expected = data.clone();
        expected[..per].copy_from_slice(&new_block);
        assert_eq!(store.read_file("/a").unwrap(), expected);
        assert!(store.stats().read_check_failures >= 1);
    }

    #[test]
    fn journal_record_survives_one_zeroed_slot_copy() {
        let store = fresh_store();
        let guard = store
            .journal
            .begin(store.fs(), "/victim", IntentBody::Create)
            .unwrap()
            .unwrap();
        // Leak the guard: the record stays live on disk, as after a crash.
        std::mem::forget(guard);
        let found = store.journal.scan(store.fs()).unwrap();
        assert_eq!(found.len(), 1);

        // Zero every primary copy: the mirrors alone must still carry it.
        let slots: Vec<BlockId> = store.journal.slots().to_vec();
        let mut plan = FaultPlan::new(41);
        for pair in slots.chunks(2) {
            plan.zero_block(pair[0]);
        }
        store.fs.device().apply_plan(&plan).unwrap();
        assert_eq!(store.journal.scan(store.fs()).unwrap(), found);

        // Zero the mirrors as well and the record is (correctly) gone.
        let mut plan = FaultPlan::new(43);
        for pair in slots.chunks(2) {
            if let Some(&mirror) = pair.get(1) {
                plan.zero_block(mirror);
            }
        }
        store.fs.device().apply_plan(&plan).unwrap();
        assert!(store.journal.scan(store.fs()).unwrap().is_empty());
    }

    fn block_of(store: &ResilientStore<impl BlockDevice>, path: &str, index: usize) -> BlockId {
        store.file_state(path).unwrap().read().open.header.blocks[index]
    }

    fn image(device: &impl BlockDevice) -> Vec<u8> {
        let mut out = vec![0u8; device.num_blocks() as usize * device.block_size()];
        for (b, block) in out.chunks_exact_mut(device.block_size()).enumerate() {
            device.read_block(b as u64, block).unwrap();
        }
        out
    }

    #[test]
    fn corrupt_parity_row_is_healed_before_a_delta_folds_into_it() {
        let store = fresh_store();
        let data = content(4000);
        store.create_file("/a", &data).unwrap();
        let row = store.stripe_layout("/a").unwrap()[0][4];
        let mut plan = FaultPlan::new(31);
        plan.flip_bit(row);
        store.fs.device().apply_plan(&plan).unwrap();

        let per = store.fs().content_bytes_per_block();
        let new_block = vec![0x5au8; per];
        store.write_block("/a", 0, &new_block).unwrap();
        // The plan's first read of the row caught it: healed onto a fresh
        // block before the delta, not laundered into a "valid" post-image.
        assert_eq!(store.stats().blocks_repaired, 1);
        assert_ne!(store.stripe_layout("/a").unwrap()[0][4], row);
        assert!(store.scrub().unwrap().is_clean());

        // Both parity rows are good, so m = 2 still covers a double loss.
        let mut plan = FaultPlan::new(37);
        plan.zero_block(block_of(&store, "/a", 1));
        plan.zero_block(block_of(&store, "/a", 2));
        store.fs.device().apply_plan(&plan).unwrap();
        let mut expected = data;
        expected[..per].copy_from_slice(&new_block);
        assert_eq!(store.read_file("/a").unwrap(), expected);
    }

    #[test]
    fn write_file_heals_the_one_corrupt_block_its_batched_pre_read_finds() {
        let store = fresh_store();
        let per = store.fs().content_bytes_per_block();
        let data = content(64 * per - 100);
        store.create_file("/a", &data).unwrap();
        let victim = block_of(&store, "/a", 37);
        let mut plan = FaultPlan::new(47);
        plan.zero_block(victim);
        store.fs.device().apply_plan(&plan).unwrap();

        // Change the corrupt block, a neighbour in its stripe, one block far
        // away and the short tail.
        let mut updated = data;
        for i in [37, 38, 5, 63] {
            updated[i * per] ^= 0xff;
        }
        store.write_file("/a", &updated).unwrap();
        assert_eq!(store.stats().blocks_repaired, 1);
        assert_ne!(block_of(&store, "/a", 37), victim);
        assert_eq!(store.read_file("/a").unwrap(), updated);
        assert_eq!(store.stats().read_check_failures, 0);
        assert!(store.scrub().unwrap().is_clean());
    }

    /// A store of 4 KB blocks: one journal record holds a 22-entry batch, so
    /// the record an operation leaves in its slot carries its whole plan.
    fn roomy_store() -> ResilientStore<FaultDevice<MemDevice>> {
        let dev = FaultDevice::new(MemDevice::new(512, 4096));
        ResilientStore::format(dev, ResilienceConfig::default(), &master(), 7).unwrap()
    }

    /// The checks of a batch's entries, without the locations a repair may
    /// have moved: `(index, data pre, data post, [(row pre, row post)])`.
    type EntryChecks = (u64, BlockCheck, BlockCheck, Vec<(BlockCheck, BlockCheck)>);

    fn checks_of(entries: &[BlockWriteIntent]) -> Vec<EntryChecks> {
        entries
            .iter()
            .map(|e| {
                let rows = e.parity.iter().map(|p| (p.pre, p.post)).collect();
                (e.index, e.data_pre, e.data_post, rows)
            })
            .collect()
    }

    /// What the plan of `changes` (block index, new data field; in order) on
    /// `path` must record, every check recomputed with `keys.check` from the
    /// plaintext on the device — the way the plan itself worked before it
    /// began to reuse the checks the stripe map already holds.
    fn recomputed_plan(
        store: &ResilientStore<impl BlockDevice>,
        path: &str,
        changes: &[(u64, Vec<u8>)],
    ) -> Vec<EntryChecks> {
        let state = store.file_state(path).unwrap();
        let g = state.read();
        let (k, m) = (store.stripe_cfg.k as u64, store.stripe_cfg.m);
        let per = store.fs.content_bytes_per_block();
        let content_key = *g.open.fak.content_key().unwrap();
        let read = |loc| {
            store
                .read_shards(std::iter::once(loc), &content_key)
                .unwrap()
                .remove(0)
        };
        let mut post_map = g.stripes.clone();
        let mut data: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut parity: BTreeMap<u64, Vec<Vec<u8>>> = BTreeMap::new();
        let mut plan = Vec::new();
        for (index, new) in changes {
            let stripe = index / k;
            let old = data
                .entry(*index)
                .or_insert_with(|| read(g.open.header.blocks[*index as usize]));
            let rows = parity.entry(stripe).or_insert_with(|| {
                (0..m)
                    .map(|row| read(g.stripes.parity_entry(stripe, row).location))
                    .collect()
            });
            let pre: Vec<BlockCheck> = rows.iter().map(|row| g.keys.check(row)).collect();
            let delta: Vec<u8> = old.iter().zip(new).map(|(a, b)| a ^ b).collect();
            store.codec.apply_delta((index % k) as usize, &delta, rows);
            let post: Vec<BlockCheck> = rows.iter().map(|row| g.keys.check(row)).collect();
            let (data_pre, data_post) = (g.keys.check(old), g.keys.check(new));
            post_map.set_data_check(*index, data_post);
            for (row, check) in post.iter().enumerate() {
                let mut entry = *post_map.parity_entry(stripe, row);
                entry.check = *check;
                post_map.set_parity_entry(stripe, row, entry);
            }
            plan.push((
                *index,
                data_pre,
                data_post,
                pre.into_iter().zip(post).collect(),
            ));
            *old = new.clone();
        }
        // The chunk-closing shadow rewrite: the map before and after.
        let (pre, post) = (g.stripes.encode(), post_map.encode());
        for (i, (pre, post)) in pre.chunks(per).zip(post.chunks(per)).enumerate() {
            let field = |chunk: &[u8]| {
                let mut field = vec![0u8; per];
                field[..chunk.len()].copy_from_slice(chunk);
                g.shadow_keys.check(&field)
            };
            plan.push((
                SHADOW_ENTRY_BASE + i as u64,
                field(pre),
                field(post),
                Vec::new(),
            ));
        }
        plan
    }

    /// The entries of the newest `WriteBatch` record `path` left in the
    /// journal (a finished operation's record stays in its slot).
    fn last_write_batch(
        store: &ResilientStore<impl BlockDevice>,
        path: &str,
    ) -> Vec<BlockWriteIntent> {
        let records = store.journal.scan(store.fs()).unwrap();
        let newest = records
            .into_iter()
            .filter(|r| r.path == path)
            .max_by_key(|r| r.op_id)
            .expect("a record for the path");
        match newest.body {
            IntentBody::WriteBatch { entries } => entries,
            other => panic!("newest record is {other:?}"),
        }
    }

    fn field_of(store: &ResilientStore<impl BlockDevice>, data: &[u8]) -> Vec<u8> {
        let mut field = vec![0u8; store.fs.content_bytes_per_block()];
        field[..data.len()].copy_from_slice(data);
        field
    }

    #[test]
    fn write_plan_records_the_checks_a_full_recompute_would() {
        let store = roomy_store();
        let per = store.fs().content_bytes_per_block();
        let data = content(12 * per - 300);
        store.create_file("/a", &data).unwrap();

        // One block: a one-entry batch plus the shadow rewrite.
        let changes = vec![(5, field_of(&store, &[0x5a; 1000]))];
        let expected = recomputed_plan(&store, "/a", &changes);
        store.write_block("/a", 5, &[0x5a; 1000]).unwrap();
        let entries = last_write_batch(&store, "/a");
        assert_eq!(checks_of(&entries), expected);
        assert_eq!(entries[0].data_location, block_of(&store, "/a", 5));
        assert_eq!(
            entries[0].parity[1].location,
            store.stripe_layout("/a").unwrap()[1][5]
        );

        // A rewrite touching all three stripes, two of them twice (so parity
        // checks chain from entry to entry) and the short tail block.
        let mut updated = store.read_file("/a").unwrap();
        let touched = [0u64, 3, 5, 8, 11];
        for i in touched {
            updated[i as usize * per + 17] ^= 0xff;
        }
        let changes: Vec<(u64, Vec<u8>)> = touched
            .iter()
            .map(|&i| {
                let start = i as usize * per;
                let end = updated.len().min(start + per);
                (i, field_of(&store, &updated[start..end]))
            })
            .collect();
        let expected = recomputed_plan(&store, "/a", &changes);
        store.write_file("/a", &updated).unwrap();
        assert_eq!(checks_of(&last_write_batch(&store, "/a")), expected);
        assert_eq!(store.read_file("/a").unwrap(), updated);
        assert!(store.scrub().unwrap().is_clean());
    }

    #[test]
    fn corrupt_data_block_is_healed_before_its_delta_is_taken() {
        // The data-block twin of the parity-row test above: the block being
        // overwritten is itself corrupt. It is healed, re-read and verified
        // by its full recomputed check, and only then does the plan take the
        // stripe map's record as its pre-image — which must be the check of
        // the true old plaintext, not of anything the corruption left.
        let store = roomy_store();
        let per = store.fs().content_bytes_per_block();
        let data = content(8 * per);
        store.create_file("/a", &data).unwrap();
        let changes = vec![(1, field_of(&store, &[0x33; 50]))];
        let expected = recomputed_plan(&store, "/a", &changes);

        let victim = block_of(&store, "/a", 1);
        let mut plan = FaultPlan::new(59);
        plan.flip_bit(victim);
        store.fs.device().apply_plan(&plan).unwrap();
        store.write_block("/a", 1, &[0x33; 50]).unwrap();
        assert_eq!(store.stats().blocks_repaired, 1);
        assert_ne!(block_of(&store, "/a", 1), victim);
        let entries = last_write_batch(&store, "/a");
        assert_eq!(checks_of(&entries), expected);
        assert_eq!(entries[0].data_location, block_of(&store, "/a", 1));
        assert!(store.scrub().unwrap().is_clean());

        // Parity took the true delta, so m = 2 still covers a double loss.
        let mut plan = FaultPlan::new(61);
        plan.zero_block(block_of(&store, "/a", 0));
        plan.zero_block(block_of(&store, "/a", 1));
        store.fs.device().apply_plan(&plan).unwrap();
        let mut updated = data;
        updated[per..2 * per].copy_from_slice(&changes[0].1);
        assert_eq!(store.read_file("/a").unwrap(), updated);
    }

    #[test]
    fn write_file_records_the_healed_blocks_true_pre_image() {
        // The twin of the batched pre-read test above, on a volume whose
        // journal record holds the whole batch: the one corrupt block among
        // the changed ones goes through heal, full re-check and then the
        // recorded-check branch like its intact neighbours.
        let store = roomy_store();
        let per = store.fs().content_bytes_per_block();
        let data = content(12 * per);
        store.create_file("/a", &data).unwrap();
        let mut updated = data;
        let touched = [2u64, 6, 7, 10];
        for i in touched {
            updated[i as usize * per] ^= 0xff;
        }
        let changes: Vec<(u64, Vec<u8>)> = touched
            .iter()
            .map(|&i| (i, updated[i as usize * per..][..per].to_vec()))
            .collect();
        let expected = recomputed_plan(&store, "/a", &changes);

        let victim = block_of(&store, "/a", 6);
        let mut plan = FaultPlan::new(67);
        plan.zero_block(victim);
        store.fs.device().apply_plan(&plan).unwrap();
        store.write_file("/a", &updated).unwrap();
        assert_eq!(store.stats().blocks_repaired, 1);
        assert_ne!(block_of(&store, "/a", 6), victim);
        assert_eq!(checks_of(&last_write_batch(&store, "/a")), expected);
        assert_eq!(store.read_file("/a").unwrap(), updated);
        assert_eq!(store.stats().read_check_failures, 0);
        assert!(store.scrub().unwrap().is_clean());
    }

    /// The owner index, rebuilt from the file table the way every
    /// `dummy_update_batch` call used to.
    fn rebuilt_owners<D: BlockDevice>(
        store: &ResilientStore<D>,
    ) -> BTreeMap<BlockId, (String, Role)> {
        let mut owners = BTreeMap::new();
        for (path, state) in store.files.read().iter() {
            let g = state.read();
            let mut own = |loc, role| owners.insert(loc, (path.clone(), role));
            for (i, &loc) in g.open.header.blocks.iter().enumerate() {
                own(loc, Role::Content(i as u64));
            }
            for stripe in 0..g.stripes.num_stripes() {
                for row in 0..store.stripe_cfg.m {
                    let loc = g.stripes.parity_entry(stripe, row).location;
                    own(loc, Role::Parity(stripe, row));
                }
            }
            own(g.open.header_location, Role::HeaderTree);
            for &loc in &g.open.indirect_locations {
                own(loc, Role::HeaderTree);
            }
            for &loc in &g.shadow.header.blocks {
                own(loc, Role::ShadowContent);
            }
            own(g.shadow.header_location, Role::ShadowHeaderTree);
            for &loc in &g.shadow.indirect_locations {
                own(loc, Role::ShadowHeaderTree);
            }
        }
        owners
    }

    fn assert_index_is_current<D: BlockDevice>(store: &ResilientStore<D>, when: &str) {
        let index = store.index.read();
        let standing: BTreeMap<BlockId, (String, Role)> = index
            .owners
            .iter()
            .map(|(&loc, (state, role))| (loc, (state.read().open.path.clone(), *role)))
            .collect();
        assert_eq!(standing, rebuilt_owners(store), "{when}");
        let reserved: HashSet<BlockId> =
            VolumeAnchor::replica_blocks(store.fs.superblock().num_blocks)
                .into_iter()
                .chain(store.journal_slots())
                .collect();
        assert_eq!(index.reserved, reserved, "{when}");
    }

    #[test]
    fn owner_index_tracks_a_rebuild_through_creates_writes_repairs_and_reopens() {
        let mut store = fresh_store();
        let mut rng = HashDrbg::from_u64(2024);
        let mut sizes: Vec<usize> = Vec::new();
        assert_index_is_current(&store, "fresh volume");
        for step in 0..60 {
            let op = if sizes.is_empty() {
                0
            } else {
                rng.gen_range(5)
            };
            let file = rng.gen_range(sizes.len().max(1) as u64) as usize;
            let path = format!("/f{file}");
            let when = format!("step {step}, op {op} on {path}");
            match op {
                0 if sizes.len() < 3 => {
                    let len = 1 + rng.gen_range(6000) as usize;
                    store
                        .create_file(&format!("/f{}", sizes.len()), &content(len))
                        .unwrap();
                    sizes.push(len);
                }
                0 | 1 => {
                    let per = store.fs().content_bytes_per_block();
                    let index = rng.gen_range(sizes[file].div_ceil(per) as u64);
                    store.write_block(&path, index, &[step as u8; 40]).unwrap();
                }
                // Corrupt any shard of the file: the read, or a cover-traffic
                // sweep over the whole volume, re-homes it.
                2 | 3 => {
                    let layout = store.stripe_layout(&path).unwrap();
                    let stripe = &layout[rng.gen_range(layout.len() as u64) as usize];
                    let mut plan = FaultPlan::new(step);
                    plan.zero_block(stripe[rng.gen_range(stripe.len() as u64) as usize]);
                    store.fs.device().apply_plan(&plan).unwrap();
                    if op == 2 {
                        store.read_file(&path).unwrap();
                    } else {
                        let cursor = store.scrub_cursor(step);
                        store
                            .dummy_update_batch(cursor.cycle_len(), Some(&cursor))
                            .unwrap();
                    }
                }
                // Reopen with a live `Repair` intent over a corrupt shard:
                // the re-homing happens inside `open`'s recovery pass.
                _ => {
                    let guard = store
                        .journal
                        .begin(store.fs(), &path, IntentBody::Repair)
                        .unwrap();
                    std::mem::forget(guard);
                    let mut plan = FaultPlan::new(step);
                    plan.zero_block(block_of(&store, &path, 0));
                    store.fs.device().apply_plan(&plan).unwrap();
                    store =
                        ResilientStore::open(store.into_device(), cfg(), &master(), step).unwrap();
                    assert_eq!(store.last_recovery().rolled_forward, 1, "{when}");
                }
            }
            assert_index_is_current(&store, &when);
        }
        // A zeroed parity row is invisible to `read_file`; the scrub re-homes
        // whatever is still waiting.
        assert!(store.scrub().unwrap().fully_repaired());
        assert_index_is_current(&store, "after the closing scrub");
        assert!(store.stats().blocks_repaired > 0);
    }

    /// `dummy_update_batch` as it was before the standing index: the owner
    /// map rebuilt for every batch, keys derived and buffers allocated per
    /// victim. The reference for the touched stream and the device image.
    fn rebuild_per_batch_dummy_update<D: BlockDevice>(
        store: &ResilientStore<D>,
        k: usize,
        cursor: Option<&ScrubCursor>,
    ) -> Vec<BlockId> {
        let num = store.fs.superblock().num_blocks;
        let victims: Vec<BlockId> = match cursor {
            Some(cursor) => cursor.next_victims(k),
            None => (0..k)
                .map(|_| store.fs.with_rng(|rng| 1 + rng.gen_range(num - 1)))
                .collect(),
        };
        let reserved: BTreeSet<BlockId> = VolumeAnchor::replica_blocks(num)
            .into_iter()
            .chain(store.journal_slots())
            .collect();
        let owners = rebuilt_owners(store);
        let mut scratch = vec![0u8; store.fs.codec().block_size()];
        let mut touched = Vec::new();
        for victim in victims {
            if reserved.contains(&victim) {
                continue;
            }
            match owners.get(&victim) {
                None => store.fs.randomize_block(victim, &mut scratch).unwrap(),
                Some((path, role)) => {
                    let state = store.file_state(path).unwrap();
                    let g = state.read();
                    let content_key = *g.open.fak.content_key().unwrap();
                    let keys = ChecksumKeys::derive(&content_key);
                    let verified = |expected: [u8; 16]| {
                        let codec = store.fs.codec();
                        let field = codec
                            .read_sealed(store.fs.device(), victim, &content_key)
                            .unwrap();
                        keys.mac16(&field) == expected
                    };
                    let (key, stripe, intact) = match *role {
                        Role::Content(i) => (
                            content_key,
                            store.stripe_cfg.stripe_of(i),
                            verified(g.stripes.data_check(i).mac),
                        ),
                        Role::Parity(stripe, row) => (
                            content_key,
                            stripe,
                            verified(g.stripes.parity_entry(stripe, row).check.mac),
                        ),
                        Role::HeaderTree => (*g.open.fak.header_key(), 0, true),
                        Role::ShadowContent => (*g.shadow.fak.content_key().unwrap(), 0, true),
                        Role::ShadowHeaderTree => (*g.shadow.fak.header_key(), 0, true),
                    };
                    drop(g);
                    if intact {
                        store.fs.reseal_block(victim, &key).unwrap();
                    } else {
                        store
                            .repair_stripe(&mut state.write(), stripe, true)
                            .unwrap();
                    }
                }
            }
            touched.push(victim);
        }
        touched
    }

    #[test]
    fn dummy_updates_match_the_rebuild_per_batch_reference() {
        for with_cursor in [true, false] {
            let build = || {
                let store = fresh_store();
                store.create_file("/a", &content(3000)).unwrap();
                store.create_file("/b", &content(5000)).unwrap();
                store.create_file("/c", &content(700)).unwrap();
                // One corrupt data block and one corrupt parity row, so the
                // verify-and-repair arm is on the compared path too.
                let mut plan = FaultPlan::new(53);
                plan.zero_block(block_of(&store, "/a", 2));
                plan.flip_bit(store.stripe_layout("/b").unwrap()[1][5]);
                store.fs.device().apply_plan(&plan).unwrap();
                let cursor = with_cursor.then(|| store.scrub_cursor(5));
                (store, cursor)
            };
            let (standing, standing_cursor) = build();
            let (reference, reference_cursor) = build();
            // 8 at a time, past one full cycle of the 511 payload blocks.
            for batch in 0..80 {
                let touched = standing
                    .dummy_update_batch(8, standing_cursor.as_ref())
                    .unwrap();
                let expected =
                    rebuild_per_batch_dummy_update(&reference, 8, reference_cursor.as_ref());
                assert_eq!(touched, expected, "batch {batch}, cursor {with_cursor}");
            }
            assert!(
                image(standing.fs.device()) == image(reference.fs.device()),
                "device images diverge, cursor {with_cursor}"
            );
            assert_eq!(standing.stats(), reference.stats());
            if with_cursor {
                assert_eq!(standing.stats().blocks_repaired, 2);
            }
            assert_index_is_current(&standing, "after the sweep");
        }
    }

    #[test]
    fn dummy_update_rechecks_a_role_that_went_stale_after_the_lookup() {
        // A device whose next read of one chosen block first runs a hook, and
        // which logs every block written.
        type Hook = Option<(BlockId, Box<dyn FnOnce() + Send>)>;
        let hook: Arc<Mutex<Hook>> = Arc::default();
        let writes: Arc<Mutex<Vec<BlockId>>> = Arc::default();
        let device = Layered::with_hook(MemDevice::new(512, 512), {
            let (hook, writes) = (hook.clone(), writes.clone());
            move |_: &MemDevice, io: Io| {
                match io.kind {
                    IoKind::Write => writes.lock().extend(io.block_ids()),
                    IoKind::Read => {
                        // The lock is released before the hook runs.
                        let armed = hook.lock().take_if(|(at, _)| io.contains(*at));
                        if let Some((_, run)) = armed {
                            run();
                        }
                    }
                }
                Ok(())
            }
        });
        let store = Arc::new(ResilientStore::format(device, cfg(), &master(), 7).unwrap());
        store.create_file("/a", &content(2000)).unwrap();
        store.create_file("/b", &content(2000)).unwrap();
        let a0 = block_of(&store, "/a", 0);
        let b1 = block_of(&store, "/b", 1);

        // The batch looks both victims up, then verifies `a0` — and during
        // that read, on the same thread, `b1` is corrupted and a read of /b
        // re-homes its shard. By the time the batch reaches `b1` the role it
        // looked up describes a block /b no longer owns.
        let mover = store.clone();
        *hook.lock() = Some((
            a0,
            Box::new(move || {
                let zeros = vec![0u8; 512];
                mover.fs.device().inner().write_block(b1, &zeros).unwrap();
                assert_eq!(mover.read_file("/b").unwrap(), content(2000));
                assert_ne!(block_of(&mover, "/b", 1), b1);
            }),
        ));
        writes.lock().clear();
        let cursor = ScrubCursor {
            order: vec![a0, b1],
            pos: AtomicUsize::new(0),
        };
        let touched = store.dummy_update_batch(2, Some(&cursor)).unwrap();
        assert!(hook.lock().is_none(), "the hook never fired");
        assert_eq!(touched, vec![a0, b1]);

        // `b1` is nobody's now: the repair randomised it once, and the dummy
        // update rewrote it as the unowned block it is — not "verified"
        // under /b's key, found wanting and left alone.
        let writes = writes.lock().clone();
        assert_eq!(writes.iter().filter(|&&b| b == b1).count(), 2);
        assert_eq!(writes.last(), Some(&b1));
        assert_eq!(store.stats().degraded_stripes, 1);
        assert_index_is_current(&store, "after the batch");
        assert!(store.scrub().unwrap().is_clean());
    }

    #[test]
    fn unknown_file_and_duplicate_create() {
        let store = fresh_store();
        assert!(matches!(
            store.read_file("/nope"),
            Err(ResilienceError::UnknownFile(_))
        ));
        store.create_file("/a", &content(10)).unwrap();
        assert!(store.create_file("/a", &content(10)).is_err());
    }

    #[test]
    fn parity_blocks_look_like_free_space() {
        // A parity block and a never-used block are both `IV ‖ CBC bytes`
        // with no plaintext structure; spot-check that parity blocks are not
        // trivially distinguishable (full chi-square analysis lives in the
        // stegfs-analysis integration test).
        let store = fresh_store();
        store.create_file("/a", &content(3000)).unwrap();
        let state = store.file_state("/a").unwrap();
        let g = state.read();
        let loc = g.stripes.parity_locations()[0];
        let mut buf = vec![0u8; 512];
        store.fs.device().read_block(loc, &mut buf).unwrap();
        let mut counts = [0u32; 256];
        for &b in &buf {
            counts[b as usize] += 1;
        }
        assert!(*counts.iter().max().unwrap() < 20);
    }

    /// Bytes produced by the encoder as it stood before the port onto
    /// `wire`: the format must not move.
    #[test]
    fn anchor_payload_golden_vectors_are_bit_identical() {
        const GOLDEN_PAYLOAD_PLAIN: &[u8] = b"\
            \x08\x00\x6b\x01\x00\x00\x00\x00\x00\x00\xaf\x00\x00\x00\x00\x00\x00\x00\x77\x01\
            \x00\x00\x00\x00\x00\x00\xe2\x01\x00\x00\x00\x00\x00\x00\x94\x00\x00\x00\x00\x00\
            \x00\x00\xe5\x00\x00\x00\x00\x00\x00\x00\xc3\x01\x00\x00\x00\x00\x00\x00\x6d\x01\
            \x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x02\x00\x2f\x61\x01\xc9\xa7\xa1\x2d\x1b\
            \x41\x16\x79\x7d\x93\xf2\xc8\xa8\x03\xe9\xf4\x01\x77\x52\xb4\x83\x24\xd7\xf3\x6f\
            \xc3\x80\xfe\x8a\x35\x86\xfe\x1d\xe5\x72\x17\x92\x02\xbe\xf2\xab\x39\xe4\x8e\xad\
            \xdc\xcb\xe5\x9a\x9b\x58\xa1\xd3\x09\x89\xcc\xc6\xbc\xc1\xd2\x62\x28\x70\x82\x23\
            \x22\xd0\xb8\x94\xfa\xc1\x3f\x4a\x8b\xd8\x02\xd0\x6b\x70\x91\x1c\x31\x99\x37\x86\
            \xf1\x9b\x0a\xf3\x4d\x4b\xe1\x34\x04\xc3\x60\x05\x00\x2f\x62\x2f\xc3\xbc\x01\x95\
            \x9b\xb4\x23\x54\x72\xf7\x1f\x89\xb3\x5b\x7a\x12\x44\x20\xb3\x3d\x11\xef\xf3\xb4\
            \x59\x0f\x93\x31\x27\x98\x4c\x7f\x26\x9f\xa8\x1a\x50\x8e\x39\xb6\x71\x39\x8e\x05\
            \xa2\xec\x65\xb7\xea\x4e\x5d\x9e\xa9\x05\xfa\xbf\xfa\x6f\x54\x26\xd0\xe1\x43\xb9\
            \x72\x87\x44\x9f\x1a\xab\x28\x3f\x59\xba\x96\x77\x00\xbc\xa4\xc0\xab\x49\xa7\x6e\
            \x07\x42\xfe\x37\xad\xc1\xd5\x6e\x2f\x2b\xbb\xa7\x6e\x66\x27";
        const GOLDEN_PAYLOAD_SEALED: &[u8] = b"\
            \xc8\xfa\xc1\xcb\x5e\x08\x32\x0d\xb9\x7b\x50\x53\x08\xce\x38\xb0\x13\x01\x00\x00\
            \x56\xc6\x0e\x82\x34\x0a\x49\x74\x3f\x35\x6c\x31\x44\x8b\xa5\x43\x41\x3b\x29\x84\
            \xf6\x92\x68\x9d\xd6\xdb\x3b\xcb\x47\xba\x16\xee\xfd\x86\x97\x8f\xe8\x03\xbb\x52\
            \x93\x87\xe4\x51\xe3\xd1\xd8\x69\xfc\x1a\x04\xd7\xd8\x38\xa2\xfc\x60\xd7\xa0\xa7\
            \x19\x51\x9a\xb4\x38\x06\x56\x97\x7a\x0e\x0a\xe7\xf8\xd5\x60\xa8\x55\x49\x68\x1d\
            \xc4\xb2\x77\xcf\xce\xe6\xfd\x7d\x8b\xe3\xb8\xd8\x8f\x20\x04\x86\xc3\x84\x59\x33\
            \xf7\x7a\xdf\x0d\xa0\x38\xa0\x9d\x0b\xd5\xfb\x83\xaf\x44\x4c\xbb\x80\x98\x5f\xa0\
            \x9f\x20\xf6\x19\xc7\x33\xe9\x0f\x8a\x61\x18\xfb\x68\x1d\x59\x9a\x76\x9e\x03\xef\
            \x30\x35\x91\x6a\x42\x6a\xee\x75\xba\x3f\xea\x0e\xc9\x96\xa9\xbd\xa7\xbf\xff\x09\
            \x40\x03\xf4\x0e\x5a\x4f\xd7\x93\xf9\x4c\x7c\x3a\x10\x62\xca\xef\x57\x6a\xd4\x77\
            \x5a\x7a\x8f\x28\x55\x4a\x0c\xfd\xa3\x05\xc5\x04\x26\x93\xb9\x7b\x9e\x04\x2b\xc5\
            \xda\x4e\x80\x70\x1d\x99\xdd\x53\x05\x42\xb2\x7d\x52\xea\xb4\x11\x92\xcf\xc9\xc1\
            \xf6\x4e\x5e\x22\xf5\x41\x32\x46\x3e\xd7\x3d\xca\xa3\x12\xb0\x3e\x71\xe3\x75\x72\
            \x34\xaa\x27\x1d\x2d\x37\x30\xe4\xbf\xd3\xe2\x4d\x56\xb0\xde\x72\x98\xf3\xee\xf4\
            \xfe\x32\x2f\x83\x55\x00\x71\xb0\x2d\x03\xa0\xa8\xdd\xbe\xb2\xd3\x6f\x6a\x09\xdc\
            \xf7\x4c\xd5\xda\x44\xc5\xf6\xfc";
        let store = fresh_store();
        store.create_file("/a", &content(700)).unwrap();
        store.create_file("/b/ü", &content(10)).unwrap();
        let plain = store.encode_payload_plain();
        assert_eq!(plain, GOLDEN_PAYLOAD_PLAIN);
        assert_eq!(store.seal_payload(&plain), GOLDEN_PAYLOAD_SEALED);

        type Store = ResilientStore<FaultDevice<MemDevice>>;
        let opened = Store::open_payload_with(&store.payload_key, GOLDEN_PAYLOAD_SEALED).unwrap();
        assert_eq!(opened, GOLDEN_PAYLOAD_PLAIN);
        let (slots, faks) = Store::parse_payload(GOLDEN_PAYLOAD_PLAIN).unwrap();
        assert_eq!(slots, store.journal_slots());
        assert_eq!(
            faks,
            [
                ("/a".to_string(), store.file_fak("/a")),
                ("/b/ü".to_string(), store.file_fak("/b/ü")),
            ]
        );
    }

    /// Regression: six bytes declaring no journal slots and `u32::MAX` files
    /// made the parent reserve 549 GB and abort the process.
    #[test]
    fn hostile_anchor_payload_count_is_refused_before_allocation() {
        type Store = ResilientStore<FaultDevice<MemDevice>>;
        assert!(matches!(
            Store::parse_payload(&[0, 0, 0xff, 0xff, 0xff, 0xff]),
            Err(ResilienceError::Corrupt(_))
        ));
        assert!(matches!(
            Store::parse_payload(&[0xff, 0xff, 1]),
            Err(ResilienceError::Corrupt(_))
        ));
    }
}
