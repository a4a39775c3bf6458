//! The resilient store: erasure-coded hidden files over a steganographic
//! volume, with a replicated self-healing anchor and a scrub/repair sweep.
//!
//! [`ResilientStore`] wraps the plain [`StegFs`] substrate and keeps, for
//! every hidden file it manages:
//!
//! * `m` sealed parity blocks per stripe of `k` content blocks, placed
//!   through the same uniform allocation as hidden data (one
//!   compare-exchange in the block map, [`ShardedBlockMap::claim`]) — on
//!   disk a parity block is indistinguishable from free space;
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
//! `repair_stripe` re-homes a shard.
//!
//! The store serves one call at a time, as the paper's agent turns every
//! request into one serial stream: the path table, the owner index and the
//! anchor generation sit behind one lock that every public call holds from
//! start to end, so a looked-up role is always current. The volume, the
//! block map and the counters stay outside it.
//!
//! The cover rule: **the block map decides what is free; the owner index
//! only supplies keys** (spelled out in `cover`).
//!
//! Parity is computed over *plaintext* data fields: a dummy update (reseal)
//! re-randomises every ciphertext byte while leaving the plaintext intact, so
//! plaintext parity survives arbitrarily many reseals where ciphertext parity
//! would go stale on the first one.
//!
//! The read path verifies the cheap keyed hash of every block inline and
//! falls back to stripe reconstruction on a mismatch; it never returns wrong
//! bytes. The delta-update path does the same for the data block *and* the
//! parity rows it is about to fold a delta into. The scrub path verifies the
//! authoritative truncated HMACs in ranged batches and repairs every degraded
//! stripe onto freshly claimed blocks.
//!
//! Scope: stripes protect content and parity blocks. File headers and
//! indirect pointer blocks rely on the replicated anchor (which can re-locate
//! headers via the FAK table) rather than parity; extending striping to the
//! metadata tree is future work.

mod cover;
mod file;
mod read;
mod recover;
mod registry;
mod repair;
mod write;

use std::collections::BTreeMap;

use parking_lot::Mutex;

use stegfs_base::wire::{Reader, Writer};
use stegfs_base::{
    BlockClass, FileAccessKey, ShardedBlockMap, StegFs, StegFsConfig, DEFAULT_MAP_SHARDS,
};
use stegfs_blockdev::{BlockDevice, BlockId};
use stegfs_crypto::{Aes256, CbcCipher, Key256};

use crate::codec::ErasureCodec;
use crate::error::ResilienceError;
use crate::journal::{IntentBody, IntentGuard, IntentJournal};
use crate::stats::{RecoveryReport, ResilienceStats, SharedResilienceStats};
use crate::stripe::{StripeConfig, StripeMap};
use crate::superblock::VolumeAnchor;

pub use cover::ScrubCursor;
use file::{FileState, OwnerIndex};
#[doc(hidden)]
pub use registry::{decode_records, encode_records};
pub use registry::{Registry, RegistryStats, REGISTRY_PATH};

/// `chunk` as a whole data field of `per` bytes, zero-padded — what sealing
/// a short chunk stores.
fn padded(chunk: &[u8], per: usize) -> Vec<u8> {
    let mut field = vec![0u8; per];
    field[..chunk.len()].copy_from_slice(chunk);
    field
}

/// Configuration of a resilient volume.
#[derive(Debug, Clone, Copy)]
pub struct ResilienceConfig {
    /// Striping shape: `k` data blocks + `m` parity blocks per stripe.
    pub stripe: StripeConfig,
    /// Underlying file-system configuration.
    pub fs: StegFsConfig,
    /// Logical intent-journal slots claimed at format time, at least one
    /// (`format` refuses `0`: a durable volume is never built without crash
    /// consistency). Each slot admits one in-flight multi-block mutation and
    /// occupies *two* uniformly claimed blocks (a replicated pair, so a lost
    /// slot block cannot orphan an in-flight intent).
    pub journal_slots: usize,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            stripe: StripeConfig::new(4, 2),
            fs: StegFsConfig::default(),
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

    /// Override the intent-journal slot count (at least one).
    pub fn with_journal_slots(mut self, slots: usize) -> Self {
        self.journal_slots = slots;
        self
    }
}

/// Everything a call changes besides the volume, the block map and the
/// counters, behind the store's one lock.
#[derive(Default)]
struct Tables {
    /// Managed files by path. `BTreeMap` so that every sweep and every
    /// persisted table is in deterministic path order.
    files: BTreeMap<String, FileState>,
    /// Block → owning file and role, for every block of every file in
    /// `files`.
    index: OwnerIndex,
    /// Anchor generation counter; bumped on every FAK-table change.
    generation: u64,
}

/// A store of erasure-coded hidden files over a block device.
///
/// Every method takes `&self` and the store is `Sync`, but calls run one at
/// a time: each holds the store's lock from start to end. A device hook that
/// re-enters the store on the calling thread deadlocks.
pub struct ResilientStore<D> {
    fs: StegFs<D>,
    map: ShardedBlockMap,
    codec: ErasureCodec,
    stripe_cfg: StripeConfig,
    master: Key256,
    anchor_key: Key256,
    payload_key: Key256,
    tables: Mutex<Tables>,
    journal: IntentJournal,
    /// Outcome of the journal-recovery pass run by [`ResilientStore::open`].
    recovery: RecoveryReport,
    stats: SharedResilienceStats,
}

impl<D: BlockDevice> ResilientStore<D> {
    /// Format `device` as a fresh resilient volume owned by `master`.
    pub fn format(
        device: D,
        cfg: ResilienceConfig,
        master: &Key256,
        seed: u64,
    ) -> Result<Self, ResilienceError> {
        if cfg.journal_slots == 0 {
            return Err(ResilienceError::NoJournal);
        }
        let (fs, map) = StegFs::format(device, cfg.fs, seed)?;
        for b in VolumeAnchor::replica_blocks(fs.superblock().num_blocks) {
            map.set(b, BlockClass::Reserved);
        }
        // Claim the journal slots through the same uniform allocation as
        // hidden data; the format fill is a valid empty journal. A slot holds
        // zeros sealed under the fill's one-time key, which the journal key
        // opens to noise: no record magic, no valid HMAC, so no intent.
        // Two blocks per logical slot: consecutive pairs mirror each other,
        // so a lost slot block can no longer orphan an in-flight intent.
        let slots = fs.allocate_blocks(&map, 2 * cfg.journal_slots as u64)?;
        let store = Self::assemble(fs, map, cfg, master, 0, slots);
        store.persist_anchor(&mut store.tables.lock())?;
        Ok(store)
    }

    /// Open an existing resilient volume: quorum-read the anchor (repairing
    /// stale or corrupt replicas in place), mount the file system, reopen
    /// every file listed in the sealed FAK table together with its shadow
    /// stripe map, then run journal recovery — rolling every interrupted
    /// mutation forward or back — before the volume is handed out. A stripe
    /// map of another shape than `cfg.stripe` is refused with
    /// [`ResilienceError::StripeShapeMismatch`].
    pub fn open(
        device: D,
        cfg: ResilienceConfig,
        master: &Key256,
        seed: u64,
    ) -> Result<Self, ResilienceError> {
        let anchor_key = master.derive("resilience:anchor");
        let (anchor, repaired) = VolumeAnchor::read_quorum(&device, &anchor_key)?;
        let fs = StegFs::mount(device, seed)?;
        let map = ShardedBlockMap::new_all_dummy(fs.superblock().num_blocks, DEFAULT_MAP_SHARDS);
        for b in VolumeAnchor::replica_blocks(fs.superblock().num_blocks) {
            map.set(b, BlockClass::Reserved);
        }
        let payload_key = master.derive("resilience:payload");
        let plain = Self::open_payload_with(&payload_key, &anchor.payload)?;
        let (slots, table) = Self::parse_payload(&plain)?;
        if slots.is_empty() {
            return Err(ResilienceError::NoJournal);
        }
        for &slot in &slots {
            map.set(slot, BlockClass::Data);
        }
        let mut store = Self::assemble(fs, map, cfg, master, anchor.generation, slots);
        store.stats.anchor_repairs.add(repaired.len() as u64);

        for (path, fak) in table {
            let open = store.fs.open_file(&fak, &path)?;
            let shadow_fak = store.shadow_fak(&path);
            let shadow = store.fs.open_file(&shadow_fak, &Self::shadow_path(&path))?;
            let encoded = store.fs.read_file(&shadow)?;
            let stripes = StripeMap::decode(&encoded)?;
            if stripes.config() != cfg.stripe {
                return Err(ResilienceError::StripeShapeMismatch {
                    path,
                    stored: stripes.config(),
                    configured: cfg.stripe,
                });
            }
            if stripes.num_data() != open.header.num_blocks() {
                return Err(ResilienceError::Corrupt(format!(
                    "stripe map covers {} blocks but {path} has {}",
                    stripes.num_data(),
                    open.header.num_blocks()
                )));
            }
            let state = FileState::new(file::content_keys(&open)?, open, shadow, stripes)?;
            for (loc, _) in state.owned_blocks() {
                // An unauthenticated stripe map can name any block.
                if loc >= store.fs.superblock().num_blocks {
                    let msg = format!("stripe map of {path} names block {loc}");
                    return Err(ResilienceError::Corrupt(msg));
                }
                store.map.set(loc, BlockClass::Data);
            }
            store.tables.get_mut().adopt(path, state);
        }
        store.recovery = store.recover_journal()?;
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
        Self {
            codec: ErasureCodec::new(cfg.stripe.k, cfg.stripe.m),
            stripe_cfg: cfg.stripe,
            master: *master,
            anchor_key: master.derive("resilience:anchor"),
            payload_key: master.derive("resilience:payload"),
            tables: Mutex::new(Tables {
                generation,
                ..Tables::default()
            }),
            journal: IntentJournal::new(master, journal_slots),
            recovery: RecoveryReport::default(),
            stats: SharedResilienceStats::default(),
            fs,
            map,
        }
    }

    /// The underlying file system.
    pub fn fs(&self) -> &StegFs<D> {
        &self.fs
    }

    /// Consume the store and return the raw device (simulated unmount — no
    /// flush is performed: checkpoint a [`Registry`] with dirty resident
    /// shards before its borrow ends).
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

    /// Snapshot of the resilience counters.
    pub fn stats(&self) -> ResilienceStats {
        self.stats.snapshot()
    }

    /// The anchor generation the volume currently carries. Bumped on every
    /// FAK-table change; the bump is the atomic commit point of file creation.
    pub fn generation(&self) -> u64 {
        self.tables.lock().generation
    }

    /// The intent-journal slot locations.
    pub fn journal_slots(&self) -> Vec<BlockId> {
        self.journal.slots().to_vec()
    }

    /// What the journal-recovery pass of [`ResilientStore::open`] did. A
    /// freshly formatted store reports a clean (empty) recovery.
    pub fn last_recovery(&self) -> RecoveryReport {
        self.recovery.clone()
    }

    /// Paths of every managed file, in order.
    pub fn paths(&self) -> Vec<String> {
        self.tables.lock().files.keys().cloned().collect()
    }

    // ----- sealed blocks and intents -----------------------------------

    /// The plaintext data field of the block at `loc`, sealed under `key`.
    fn open_block(&self, loc: BlockId, key: &Key256) -> Result<Vec<u8>, stegfs_base::FsError> {
        self.fs.codec().read_sealed(self.fs.device(), loc, key)
    }

    /// Seal `field` under `key` and a fresh IV into the block at `loc`.
    fn seal_block(
        &self,
        loc: BlockId,
        key: &Key256,
        field: &[u8],
    ) -> Result<(), stegfs_base::FsError> {
        self.fs.with_rng(|rng| {
            self.fs
                .codec()
                .write_sealed(self.fs.device(), loc, key, field, rng)
        })
    }

    /// Journal `body` for `path` ahead of the operation's first write and
    /// count it.
    fn begin_intent(
        &self,
        path: &str,
        body: IntentBody,
    ) -> Result<IntentGuard<'_>, ResilienceError> {
        let intent = self.journal.begin(&self.fs, path, body)?;
        self.stats.intents_journaled.inc();
        Ok(intent)
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
    fn encode_payload_plain(&self, files: &BTreeMap<String, FileState>) -> Vec<u8> {
        let slots = self.journal.slots();
        let mut w = Writer::new();
        w.u16(slots.len() as u16);
        for &slot in slots {
            w.u64(slot);
        }
        w.u32(files.len() as u32);
        for (path, state) in files.iter() {
            w.str16(path).bytes(&state.open.fak.to_bytes());
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
        // Invariant: the `resize` above made `padded` a whole number of
        // 16-byte cipher blocks, the one thing CBC can refuse.
        cbc.encrypt_in_place(&iv, &mut padded)
            .expect("a whole number of cipher blocks");
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
    fn persist_anchor(&self, tables: &mut Tables) -> Result<(), ResilienceError> {
        let payload = self.seal_payload(&self.encode_payload_plain(&tables.files));
        let capacity = VolumeAnchor::payload_capacity(self.fs.codec().block_size());
        if payload.len() > capacity {
            return Err(ResilienceError::AnchorOverflow {
                needed: payload.len(),
                capacity,
            });
        }
        tables.generation += 1;
        let anchor = VolumeAnchor {
            superblock: *self.fs.superblock(),
            generation: tables.generation,
            payload,
        };
        anchor.write_replicas(self.fs.device(), &self.anchor_key)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests;
