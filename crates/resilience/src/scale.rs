//! The persistent sharded registry — durable per-user state at million-user
//! scale, inside the steganographic envelope.
//!
//! Everything the agents know (user registry, per-user directory structures,
//! block bookkeeping) was historically rebuilt in RAM on every run: O(volume)
//! resident memory and a cold start proportional to the whole user base. This
//! module persists that state as a shard-partitioned on-disk structure whose
//! blocks are *indistinguishable from free space*:
//!
//! * The key space is split across `shards` shards by a keyed hash (an HMAC
//!   under a registry key derived from the volume master, so the mapping is
//!   deterministic for the owner and opaque to everyone else).
//! * Each shard owns a **head cell** block and **two fixed-size segments** of
//!   `segment_blocks` blocks each, all claimed through the same uniform
//!   [`stegfs_base::ShardedBlockMap::claim`] path as hidden data and sealed with the
//!   volume codec — on disk they read as free space.
//! * A checkpoint writes the shard's records into the *inactive* segment
//!   under a bumped generation, then flips the head cell to name it. The head
//!   flip is a single sector-atomic block write: the commit point. A
//!   [`crate::IntentBody::RegistryCheckpoint`] intent brackets the switch so
//!   a power cut resolves to a clean old-or-new shard (the half-written
//!   target segment is randomised on recovery).
//! * Shards load **lazily** and a bounded cache keeps at most
//!   `max_resident_shards` resident (dirty shards are checkpointed before
//!   eviction), so resident memory is O(active users), not O(volume).
//!
//! Every sealed plaintext (head cell, segment block) authenticates itself
//! from the inside with a truncated keyed HMAC, exactly like journal records:
//! random fill, torn writes and wrong-key reads all decode to "nothing here".
//! The shard geometry travels as an ordinary resilient hidden file (striped,
//! journaled, listed in the anchor's FAK table), so the registry is
//! rediscovered from the master key alone.

use std::collections::BTreeMap;

use parking_lot::Mutex;

use stegfs_base::wire::{Reader, WireError, Writer, TAG_LEN};
use stegfs_base::BlockClass;
use stegfs_blockdev::{BlockDevice, BlockId};
use stegfs_crypto::{HmacSha256, Key256};

use crate::error::ResilienceError;
use crate::journal::IntentBody;
use crate::store::{Recovered, ResilientStore};

/// Path of the hidden file holding the registry shard geometry.
pub const REGISTRY_PATH: &str = "/.registry";

const GEO_MAGIC: [u8; 8] = *b"RGEO0001";
const HEAD_MAGIC: [u8; 8] = *b"RHEAD001";
const SEG_MAGIC: [u8; 8] = *b"RSEG0001";
/// Fixed bytes of a segment block before its payload chunk:
/// magic ‖ shard ‖ generation ‖ seq ‖ total ‖ len.
const SEG_HEADER_LEN: usize = 8 + 4 + 8 + 4 + 4 + 2;

/// Shape of a persistent registry. Fixed at [`ResilientStore::init_registry`]
/// time (it is persisted in the geometry file); only `max_resident_shards`
/// is a runtime knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryConfig {
    /// Number of shards the key space is partitioned into.
    pub shards: u32,
    /// Blocks per shard segment (each shard owns two segments plus a head
    /// cell).
    pub segment_blocks: u32,
    /// Most shards kept resident at once; the oldest resident shard is
    /// checkpointed (when dirty) and dropped past this bound.
    pub max_resident_shards: usize,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        Self {
            shards: 16,
            segment_blocks: 4,
            max_resident_shards: 4,
        }
    }
}

impl RegistryConfig {
    /// Override the shard count.
    pub fn with_shards(mut self, shards: u32) -> Self {
        self.shards = shards;
        self
    }

    /// Override the blocks per segment.
    pub fn with_segment_blocks(mut self, blocks: u32) -> Self {
        self.segment_blocks = blocks;
        self
    }

    /// Override the resident-shard bound.
    pub fn with_max_resident(mut self, shards: usize) -> Self {
        self.max_resident_shards = shards;
        self
    }
}

/// Point-in-time registry statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryStats {
    /// Shards in the registry.
    pub shards: u32,
    /// Shards currently resident in memory.
    pub resident_shards: usize,
    /// Records held by the resident shards — the O(active users) bound.
    pub resident_records: usize,
}

/// On-disk geometry of one shard.
pub struct ShardGeometry {
    head: BlockId,
    segments: [Vec<BlockId>; 2],
}

/// One resident shard.
struct ShardCache {
    generation: u64,
    active: usize,
    records: BTreeMap<String, Vec<u8>>,
    dirty: bool,
}

/// The resident-shard cache: shard id → records, plus load order for FIFO
/// eviction (deterministic for a deterministic operation sequence).
#[derive(Default)]
struct CacheMap {
    resident: BTreeMap<u32, ShardCache>,
    order: Vec<u32>,
}

/// In-memory state of an opened registry.
pub(crate) struct RegistryState {
    cfg: RegistryConfig,
    shards: Vec<ShardGeometry>,
    key: Key256,
    mac: HmacSha256,
    cache: Mutex<CacheMap>,
}

impl RegistryState {
    fn new(cfg: RegistryConfig, shards: Vec<ShardGeometry>, master: &Key256) -> Self {
        let key = master.derive("resilience:registry");
        let mac_key = key.derive("mac");
        Self {
            cfg,
            shards,
            key,
            mac: HmacSha256::new(mac_key.as_bytes()),
            cache: Mutex::new(CacheMap::default()),
        }
    }

    /// Shard owning `user`: keyed hash, deterministic for the owner and
    /// opaque without the registry key.
    fn shard_of(&self, user: &str) -> u32 {
        let tag = self.mac.mac_with(user.as_bytes());
        Reader::new(&tag).u32().expect("32-byte tag") % self.cfg.shards
    }

    /// Every block the registry occupies (head cells and both segments of
    /// every shard), for class bookkeeping and invisibility tests.
    fn blocks(&self) -> Vec<BlockId> {
        let mut out = Vec::new();
        for geo in &self.shards {
            out.push(geo.head);
            out.extend_from_slice(&geo.segments[0]);
            out.extend_from_slice(&geo.segments[1]);
        }
        out
    }
}

// ----- wire formats ----------------------------------------------------

fn encode_geometry(state: &RegistryState) -> Vec<u8> {
    let mut w = Writer::new();
    w.bytes(&GEO_MAGIC)
        .u32(state.cfg.shards)
        .u32(state.cfg.segment_blocks)
        .u32(state.cfg.max_resident_shards as u32);
    for geo in &state.shards {
        w.u64(geo.head);
        for &b in geo.segments.iter().flatten() {
            w.u64(b);
        }
    }
    w.finish()
}

/// Parse the geometry file: the registry shape and every shard's blocks.
pub fn decode_geometry(
    buf: &[u8],
) -> Result<(RegistryConfig, Vec<ShardGeometry>), ResilienceError> {
    let mut r = Reader::new(buf);
    r.magic(&GEO_MAGIC)?;
    let shards = r.u32()?;
    let segment_blocks = r.u32()?;
    let max_resident = r.u32()? as usize;
    if shards == 0 || segment_blocks == 0 {
        return Err(ResilienceError::Corrupt(
            "registry geometry: degenerate shape".to_string(),
        ));
    }
    // One shard: head ‖ two segments of `segment_blocks` locations.
    let per_segment = r.count(segment_blocks, 2 * 8)?;
    let mut out = Vec::with_capacity(r.count(shards, 8 + per_segment * 2 * 8)?);
    for _ in 0..shards {
        out.push(ShardGeometry {
            head: r.u64()?,
            segments: [r.u64s(per_segment)?, r.u64s(per_segment)?],
        });
    }
    Ok((
        RegistryConfig {
            shards,
            segment_blocks,
            max_resident_shards: max_resident.max(1),
        },
        out,
    ))
}

/// A shard's head cell: which segment is live, at which generation.
pub fn encode_head(
    mac: &HmacSha256,
    shard: u32,
    active: usize,
    generation: u64,
    count: u32,
) -> Vec<u8> {
    Writer::new()
        .bytes(&HEAD_MAGIC)
        .u32(shard)
        .u8(active as u8)
        .u64(generation)
        .u32(count)
        .finish_tagged(mac)
}

/// `(active, generation, count)` of a valid head cell, `None` otherwise.
pub fn decode_head(mac: &HmacSha256, shard: u32, plain: &[u8]) -> Option<(usize, u64, u32)> {
    let mut r = Reader::new(plain);
    let mut parse = || -> Result<_, WireError> {
        r.magic(&HEAD_MAGIC)?;
        let fields = (r.u32()?, r.u8()? as usize, r.u64()?, r.u32()?);
        r.tag16(mac)?;
        Ok(fields)
    };
    let (for_shard, active, generation, count) = parse().ok()?;
    (for_shard == shard && active <= 1).then_some((active, generation, count))
}

/// One block of a shard segment: its position and a chunk of the payload.
pub fn encode_segment_block(
    mac: &HmacSha256,
    shard: u32,
    generation: u64,
    seq: u32,
    total: u32,
    chunk: &[u8],
) -> Vec<u8> {
    Writer::new()
        .bytes(&SEG_MAGIC)
        .u32(shard)
        .u64(generation)
        .u32(seq)
        .u32(total)
        .u16(chunk.len() as u16)
        .bytes(chunk)
        .finish_tagged(mac)
}

/// `(generation, seq, total, payload chunk)` of a valid segment block.
pub fn decode_segment_block(
    mac: &HmacSha256,
    shard: u32,
    plain: &[u8],
) -> Option<(u64, u32, u32, Vec<u8>)> {
    let mut r = Reader::new(plain);
    let mut parse = || -> Result<_, WireError> {
        r.magic(&SEG_MAGIC)?;
        let fields = (r.u32()?, r.u64()?, r.u32()?, r.u32()?);
        let len = r.u16()?;
        let chunk = r.bytes(len as usize)?;
        r.tag16(mac)?;
        Ok((fields, chunk))
    };
    let ((for_shard, generation, seq, total), chunk) = parse().ok()?;
    (for_shard == shard).then(|| (generation, seq, total, chunk.to_vec()))
}

/// A shard's records, the payload chunked across its segment blocks.
pub fn encode_records(records: &BTreeMap<String, Vec<u8>>) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(records.len() as u32);
    for (user, value) in records {
        w.str16(user).u32(value.len() as u32).bytes(value);
    }
    w.finish()
}

/// Inverse of [`encode_records`].
pub fn decode_records(buf: &[u8]) -> Result<BTreeMap<String, Vec<u8>>, ResilienceError> {
    let mut r = Reader::new(buf);
    let count = r.u32()?;
    let mut out = BTreeMap::new();
    // An empty record: key length ‖ value length.
    for _ in 0..r.count(count, 2 + 4)? {
        let user = r.str16()?.to_string();
        let len = r.u32()? as usize;
        out.insert(user, r.bytes(len)?.to_vec());
    }
    Ok(out)
}

// ----- store integration -----------------------------------------------

impl<D: BlockDevice> ResilientStore<D> {
    /// Bytes of encoded record payload one shard segment can hold — the
    /// per-shard capacity bound a checkpoint enforces.
    pub fn registry_segment_capacity(&self) -> Option<usize> {
        let cfg = self.registry_config()?;
        let per = self
            .fs
            .content_bytes_per_block()
            .saturating_sub(SEG_HEADER_LEN + TAG_LEN);
        Some(per * cfg.segment_blocks as usize)
    }

    /// Create the persistent registry on this volume: claim every head cell
    /// and segment block through the uniform allocator, write every shard as
    /// an empty generation-1 checkpoint, and persist the geometry as a
    /// (journaled, striped, anchored) hidden file at [`REGISTRY_PATH`].
    pub fn init_registry(&self, cfg: RegistryConfig) -> Result<(), ResilienceError> {
        if cfg.shards == 0 || cfg.segment_blocks == 0 {
            return Err(ResilienceError::Corrupt(
                "registry config: zero shards or segment blocks".to_string(),
            ));
        }
        if self.registry.read().is_some() {
            return Err(ResilienceError::Corrupt(
                "registry already initialised".to_string(),
            ));
        }
        let mut shards = Vec::with_capacity(cfg.shards as usize);
        for _ in 0..cfg.shards {
            let head = self.fs.allocate_blocks(&self.map, 1)?[0];
            let a = self
                .fs
                .allocate_blocks(&self.map, cfg.segment_blocks as u64)?;
            let b = self
                .fs
                .allocate_blocks(&self.map, cfg.segment_blocks as u64)?;
            shards.push(ShardGeometry {
                head,
                segments: [a, b],
            });
        }
        let state = RegistryState::new(cfg, shards, &self.master);
        let empty = BTreeMap::new();
        for shard in 0..cfg.shards {
            self.write_segment(&state, shard, 0, 1, &encode_records(&empty))?;
            self.write_head(&state, shard, 0, 1, 0)?;
        }
        // The geometry file's anchor commit is the registry's commit: a cut
        // anywhere earlier leaves the claimed blocks unreferenced (harmless
        // random fill) and no registry.
        self.create_file(REGISTRY_PATH, &encode_geometry(&state))?;
        *self.registry.write() = Some(state);
        Ok(())
    }

    /// Load the registry geometry if this volume carries one. Called by
    /// [`ResilientStore::open`] before journal recovery.
    pub(crate) fn load_registry(&self) -> Result<(), ResilienceError> {
        if !self.paths().iter().any(|p| p == REGISTRY_PATH) {
            return Ok(());
        }
        let bytes = self.read_file(REGISTRY_PATH)?;
        let (cfg, shards) = decode_geometry(&bytes)?;
        let state = RegistryState::new(cfg, shards, &self.master);
        // The registry's blocks are payload, not free space: re-mark them so
        // later allocations cannot claim them and cover traffic — which
        // randomises only what the map classes `Dummy` — leaves them alone,
        // as `init_registry`'s claims through the allocator did.
        for b in state.blocks() {
            self.map.set(b, BlockClass::Data);
        }
        *self.registry.write() = Some(state);
        Ok(())
    }

    /// Whether this volume carries a persistent registry.
    pub fn has_registry(&self) -> bool {
        self.registry.read().is_some()
    }

    /// The registry shape, when one is present.
    pub fn registry_config(&self) -> Option<RegistryConfig> {
        self.registry.read().as_ref().map(|s| s.cfg)
    }

    /// The shard a user's records live in — the keyed partition is stable
    /// across reopens, so crash tests can group users and assert that each
    /// shard moves through a checkpoint atomically.
    pub fn registry_shard_of(&self, user: &str) -> Option<u32> {
        self.registry.read().as_ref().map(|s| s.shard_of(user))
    }

    /// Every block the registry occupies, for invisibility and crash tests.
    pub fn registry_blocks(&self) -> Vec<BlockId> {
        self.registry
            .read()
            .as_ref()
            .map(|s| s.blocks())
            .unwrap_or_default()
    }

    /// Resident-memory statistics — the O(active users) contract: resident
    /// records never exceed `max_resident_shards` shards' worth regardless of
    /// the registered population.
    pub fn registry_stats(&self) -> RegistryStats {
        let reg = self.registry.read();
        match reg.as_ref() {
            None => RegistryStats {
                shards: 0,
                resident_shards: 0,
                resident_records: 0,
            },
            Some(state) => {
                let cache = state.cache.lock();
                RegistryStats {
                    shards: state.cfg.shards,
                    resident_shards: cache.resident.len(),
                    resident_records: cache.resident.values().map(|c| c.records.len()).sum(),
                }
            }
        }
    }

    /// Total records across all shards as of each shard's last checkpoint
    /// (head-cell counts; dirty resident records are not included). Costs one
    /// sealed read per shard and no resident memory.
    pub fn registry_checkpointed_records(&self) -> Result<u64, ResilienceError> {
        let reg = self.registry.read();
        let Some(state) = reg.as_ref() else {
            return Ok(0);
        };
        let mut total = 0u64;
        for (shard, geo) in state.shards.iter().enumerate() {
            let plain = self.open_block(geo.head, &state.key)?;
            if let Some((_, _, count)) = decode_head(&state.mac, shard as u32, &plain) {
                total += count as u64;
            }
        }
        Ok(total)
    }

    /// Insert or replace `user`'s record.
    pub fn registry_put(&self, user: &str, value: &[u8]) -> Result<(), ResilienceError> {
        self.with_shard_of(user, |cache| {
            cache.records.insert(user.to_string(), value.to_vec());
            cache.dirty = true;
            Ok(())
        })
    }

    /// Look up `user`'s record.
    pub fn registry_get(&self, user: &str) -> Result<Option<Vec<u8>>, ResilienceError> {
        self.with_shard_of(user, |cache| Ok(cache.records.get(user).cloned()))
    }

    /// Remove `user`'s record; reports whether it existed.
    pub fn registry_remove(&self, user: &str) -> Result<bool, ResilienceError> {
        self.with_shard_of(user, |cache| {
            let existed = cache.records.remove(user).is_some();
            cache.dirty |= existed;
            Ok(existed)
        })
    }

    /// Checkpoint every dirty resident shard; returns how many were written.
    pub fn registry_checkpoint(&self) -> Result<usize, ResilienceError> {
        let reg = self.registry.read();
        let state = reg
            .as_ref()
            .ok_or_else(|| ResilienceError::Corrupt("registry not initialised".to_string()))?;
        let mut cache = state.cache.lock();
        let dirty: Vec<u32> = cache
            .resident
            .iter()
            .filter(|(_, c)| c.dirty)
            .map(|(&s, _)| s)
            .collect();
        for &shard in &dirty {
            let c = cache.resident.get_mut(&shard).expect("resident");
            self.checkpoint_shard(state, shard, c)?;
        }
        Ok(dirty.len())
    }

    /// Checkpoint dirty shards, then drop every resident shard — the cold
    /// state a fresh open starts from (used by determinism tests and the
    /// memory-bound measurements).
    pub fn registry_drop_caches(&self) -> Result<(), ResilienceError> {
        self.registry_checkpoint()?;
        if let Some(state) = self.registry.read().as_ref() {
            let mut cache = state.cache.lock();
            cache.resident.clear();
            cache.order.clear();
        }
        Ok(())
    }

    /// Run `f` over the resident cache entry of `user`'s shard, loading and
    /// evicting as needed.
    fn with_shard_of<T>(
        &self,
        user: &str,
        f: impl FnOnce(&mut ShardCache) -> Result<T, ResilienceError>,
    ) -> Result<T, ResilienceError> {
        let reg = self.registry.read();
        let state = reg
            .as_ref()
            .ok_or_else(|| ResilienceError::Corrupt("registry not initialised".to_string()))?;
        let shard = state.shard_of(user);
        let mut cache = state.cache.lock();
        self.ensure_resident(state, &mut cache, shard)?;
        f(cache.resident.get_mut(&shard).expect("just loaded"))
    }

    /// Make `shard` resident, evicting the oldest resident shard past the
    /// configured bound (checkpointing it first when dirty).
    fn ensure_resident(
        &self,
        state: &RegistryState,
        cache: &mut CacheMap,
        shard: u32,
    ) -> Result<(), ResilienceError> {
        if cache.resident.contains_key(&shard) {
            return Ok(());
        }
        let loaded = self.load_shard(state, shard)?;
        cache.resident.insert(shard, loaded);
        cache.order.push(shard);
        let bound = state.cfg.max_resident_shards.max(1);
        while cache.resident.len() > bound {
            let victim = cache.order.remove(0);
            if victim == shard {
                // Never evict the shard the caller is about to use.
                cache.order.push(victim);
                continue;
            }
            if let Some(mut c) = cache.resident.remove(&victim) {
                if c.dirty {
                    self.checkpoint_shard(state, victim, &mut c)?;
                }
            }
        }
        Ok(())
    }

    /// Read one shard from disk: head cell first, full-segment scan as the
    /// fallback when the head cell does not authenticate.
    fn load_shard(&self, state: &RegistryState, shard: u32) -> Result<ShardCache, ResilienceError> {
        let geo = &state.shards[shard as usize];
        let plain = self.open_block(geo.head, &state.key)?;
        if let Some((active, generation, _)) = decode_head(&state.mac, shard, &plain) {
            if let Some(records) = self.read_segment(state, shard, active, Some(generation))? {
                return Ok(ShardCache {
                    generation,
                    active,
                    records,
                    dirty: false,
                });
            }
        }
        // Fallback: trust whichever segment holds the highest fully-valid
        // generation (both-copies loss of the head cell, or pre-recovery
        // inspection).
        let mut best: Option<(u64, usize, BTreeMap<String, Vec<u8>>)> = None;
        for seg in 0..2 {
            if let Some(records) = self.read_segment(state, shard, seg, None)? {
                let generation = self.segment_generation(state, shard, seg)?;
                if best
                    .as_ref()
                    .map(|(g, _, _)| generation > *g)
                    .unwrap_or(true)
                {
                    best = Some((generation, seg, records));
                }
            }
        }
        match best {
            Some((generation, active, records)) => Ok(ShardCache {
                generation,
                active,
                records,
                dirty: false,
            }),
            None => Err(ResilienceError::Corrupt(format!(
                "registry shard {shard}: no valid head cell or segment"
            ))),
        }
    }

    /// Generation carried by the first block of a segment (the caller has
    /// already validated the whole segment).
    fn segment_generation(
        &self,
        state: &RegistryState,
        shard: u32,
        seg: usize,
    ) -> Result<u64, ResilienceError> {
        let geo = &state.shards[shard as usize];
        let plain = self.open_block(geo.segments[seg][0], &state.key)?;
        Ok(decode_segment_block(&state.mac, shard, &plain)
            .map(|(g, _, _, _)| g)
            .unwrap_or(0))
    }

    /// Decode a whole segment. `None` unless **every** block authenticates,
    /// carries the same generation (and `expect_gen` when given), and the
    /// sequence numbers line up — a half-written segment never loads.
    fn read_segment(
        &self,
        state: &RegistryState,
        shard: u32,
        seg: usize,
        expect_gen: Option<u64>,
    ) -> Result<Option<BTreeMap<String, Vec<u8>>>, ResilienceError> {
        let geo = &state.shards[shard as usize];
        let blocks = &geo.segments[seg];
        let mut payload = Vec::new();
        let mut generation = None;
        for (i, &b) in blocks.iter().enumerate() {
            let plain = self.open_block(b, &state.key)?;
            let Some((g, seq, total, chunk)) = decode_segment_block(&state.mac, shard, &plain)
            else {
                return Ok(None);
            };
            if seq as usize != i
                || total as usize != blocks.len()
                || expect_gen.is_some_and(|e| e != g)
                || generation.is_some_and(|prev: u64| prev != g)
            {
                return Ok(None);
            }
            generation = Some(g);
            payload.extend_from_slice(&chunk);
        }
        match decode_records(&payload) {
            Ok(records) => Ok(Some(records)),
            Err(_) => Ok(None),
        }
    }

    /// Seal `payload` across every block of segment `seg` under `generation`.
    fn write_segment(
        &self,
        state: &RegistryState,
        shard: u32,
        seg: usize,
        generation: u64,
        payload: &[u8],
    ) -> Result<(), ResilienceError> {
        let geo = &state.shards[shard as usize];
        let blocks = &geo.segments[seg];
        let per = self
            .fs
            .content_bytes_per_block()
            .saturating_sub(SEG_HEADER_LEN + TAG_LEN);
        if payload.len() > per * blocks.len() {
            return Err(ResilienceError::Corrupt(format!(
                "registry shard {shard} overflows its segment: {} > {} bytes",
                payload.len(),
                per * blocks.len()
            )));
        }
        for (i, &b) in blocks.iter().enumerate() {
            let start = (i * per).min(payload.len());
            let end = ((i + 1) * per).min(payload.len());
            let plain = encode_segment_block(
                &state.mac,
                shard,
                generation,
                i as u32,
                blocks.len() as u32,
                &payload[start..end],
            );
            self.seal_block(b, &state.key, &plain)?;
        }
        Ok(())
    }

    fn write_head(
        &self,
        state: &RegistryState,
        shard: u32,
        active: usize,
        generation: u64,
        count: u32,
    ) -> Result<(), ResilienceError> {
        let geo = &state.shards[shard as usize];
        let plain = encode_head(&state.mac, shard, active, generation, count);
        self.seal_block(geo.head, &state.key, &plain)?;
        Ok(())
    }

    /// Write `shard`'s records into its inactive segment and flip the head
    /// cell, bracketed by a `RegistryCheckpoint` intent. The head flip — one
    /// sector-atomic block write — is the commit point: a cut before it
    /// leaves the old segment live (recovery randomises the half-written
    /// target), a cut after it leaves the new one.
    fn checkpoint_shard(
        &self,
        state: &RegistryState,
        shard: u32,
        c: &mut ShardCache,
    ) -> Result<(), ResilienceError> {
        let target = 1 - c.active;
        let generation = c.generation + 1;
        let payload = encode_records(&c.records);
        let intent = self.journal.begin(
            &self.fs,
            REGISTRY_PATH,
            IntentBody::RegistryCheckpoint { shard, generation },
        )?;
        self.write_segment(state, shard, target, generation, &payload)?;
        self.write_head(state, shard, target, generation, c.records.len() as u32)?;
        drop(intent);
        c.active = target;
        c.generation = generation;
        c.dirty = false;
        Ok(())
    }

    /// Resolve an interrupted registry checkpoint. The head cell is the
    /// commit point, so its generation decides: already at the record's
    /// generation means the checkpoint landed (forward); older means the cut
    /// hit mid-segment-write — the half-written target segment is randomised
    /// back to free-space fill (backward); newer means a later serialised
    /// checkpoint superseded the record (stale).
    pub(crate) fn recover_registry_checkpoint(
        &self,
        shard: u32,
        generation: u64,
    ) -> Result<Recovered, ResilienceError> {
        let reg = self.registry.read();
        let Some(state) = reg.as_ref() else {
            return Ok(Recovered::Stale);
        };
        let Some(geo) = state.shards.get(shard as usize) else {
            return Ok(Recovered::Stale);
        };
        let plain = self.open_block(geo.head, &state.key)?;
        match decode_head(&state.mac, shard, &plain) {
            Some((_, head_gen, _)) if head_gen == generation => Ok(Recovered::Forward),
            Some((active, head_gen, _)) if head_gen < generation => {
                let mut scratch = vec![0u8; self.fs.codec().block_size()];
                for &b in &geo.segments[1 - active] {
                    self.fs.randomize_block(b, &mut scratch)?;
                }
                Ok(Recovered::Back)
            }
            Some(_) => Ok(Recovered::Stale),
            // Outside the sector-atomic contract (head cell torn or lost):
            // the shard still loads through the full-segment scan fallback,
            // but the record cannot be classified.
            None => Ok(Recovered::Lost),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{ResilienceConfig, ResilientStore};
    use stegfs_base::StegFsConfig;
    use stegfs_blockdev::{FaultDevice, FaultPlan, MemDevice};

    fn cfg() -> ResilienceConfig {
        ResilienceConfig::default()
            .with_fs(StegFsConfig::default().with_block_size(512))
            .with_stripe(4, 2)
    }

    fn master() -> Key256 {
        Key256::from_passphrase("registry-owner")
    }

    fn reg_cfg() -> RegistryConfig {
        RegistryConfig::default()
            .with_shards(4)
            .with_segment_blocks(2)
            .with_max_resident(2)
    }

    fn fresh_store() -> ResilientStore<FaultDevice<MemDevice>> {
        let dev = FaultDevice::new(MemDevice::new(2048, 512));
        let store = ResilientStore::format(dev, cfg(), &master(), 7).unwrap();
        store.init_registry(reg_cfg()).unwrap();
        store
    }

    #[test]
    fn put_get_remove_roundtrip() {
        let store = fresh_store();
        assert!(store.has_registry());
        assert_eq!(store.registry_config(), Some(reg_cfg()));
        for i in 0..20 {
            store
                .registry_put(&format!("user-{i}"), format!("state-{i}").as_bytes())
                .unwrap();
        }
        for i in 0..20 {
            assert_eq!(
                store.registry_get(&format!("user-{i}")).unwrap().as_deref(),
                Some(format!("state-{i}").as_bytes())
            );
        }
        assert!(store.registry_remove("user-3").unwrap());
        assert!(!store.registry_remove("user-3").unwrap());
        assert_eq!(store.registry_get("user-3").unwrap(), None);
        assert_eq!(store.registry_get("never-registered").unwrap(), None);
    }

    #[test]
    fn checkpoint_then_reopen_from_disk() {
        let store = fresh_store();
        for i in 0..12 {
            store
                .registry_put(&format!("u{i}"), &[i as u8; 24])
                .unwrap();
        }
        assert!(store.registry_checkpoint().unwrap() >= 1);
        assert_eq!(store.registry_checkpointed_records().unwrap(), 12);
        let device = store.fs.into_device();

        let reopened = ResilientStore::open(device, cfg(), &master(), 8).unwrap();
        assert!(reopened.has_registry());
        // Cold start: nothing resident until a lookup pulls a shard in.
        assert_eq!(reopened.registry_stats().resident_shards, 0);
        for i in 0..12 {
            assert_eq!(
                reopened.registry_get(&format!("u{i}")).unwrap(),
                Some(vec![i as u8; 24])
            );
        }
    }

    #[test]
    fn resident_memory_stays_bounded() {
        let store = fresh_store();
        for i in 0..64 {
            store.registry_put(&format!("user-{i}"), &[7; 8]).unwrap();
            assert!(store.registry_stats().resident_shards <= 2);
        }
        // Eviction checkpointed the displaced shards: everything reads back
        // even though at most two shards were ever resident.
        for i in 0..64 {
            assert_eq!(
                store.registry_get(&format!("user-{i}")).unwrap(),
                Some(vec![7; 8])
            );
        }
        store.registry_drop_caches().unwrap();
        assert_eq!(store.registry_stats().resident_records, 0);
        assert_eq!(store.registry_checkpointed_records().unwrap(), 64);
    }

    #[test]
    fn shard_overflow_is_reported() {
        let store = fresh_store();
        // One segment holds 2 blocks × (content − overhead) bytes; a single
        // oversized record cannot checkpoint and must not be silently
        // truncated.
        let cap = store.registry_segment_capacity().unwrap();
        store.registry_put("whale", &vec![1u8; cap]).unwrap();
        let err = store.registry_checkpoint().unwrap_err();
        assert!(matches!(err, ResilienceError::Corrupt(_)));
    }

    #[test]
    fn lost_head_cell_falls_back_to_segment_scan() {
        let store = fresh_store();
        for i in 0..10 {
            store.registry_put(&format!("u{i}"), &[i as u8; 4]).unwrap();
        }
        store.registry_drop_caches().unwrap();
        // Zero every head cell: recovery must rebuild from the segments
        // alone, picking the highest fully-valid generation.
        let mut plan = FaultPlan::new(31);
        let blocks = store.registry_blocks();
        let cfg = store.registry_config().unwrap();
        let stride = 1 + 2 * cfg.segment_blocks as usize;
        for shard in 0..cfg.shards as usize {
            plan.zero_block(blocks[shard * stride]);
        }
        store.fs.device().apply_plan(&plan).unwrap();
        for i in 0..10 {
            assert_eq!(
                store.registry_get(&format!("u{i}")).unwrap(),
                Some(vec![i as u8; 4])
            );
        }
    }

    #[test]
    fn cover_traffic_leaves_the_registry_readable() {
        let store = fresh_store();
        let users: Vec<String> = (0..12).map(|i| format!("u{i}")).collect();
        for (i, user) in users.iter().enumerate() {
            store.registry_put(user, &[i as u8; 24]).unwrap();
        }
        store.registry_checkpoint().unwrap();

        // One full scrub-cursor cycle, then uniform batches: head cells and
        // segments are claimed in the block map and owned by no managed
        // file, so neither victim stream may rewrite them.
        let registry: std::collections::BTreeSet<BlockId> =
            store.registry_blocks().into_iter().collect();
        let cursor = store.scrub_cursor(3);
        let mut touched = Vec::new();
        for _ in 0..cursor.cycle_len().div_ceil(8) {
            touched.extend(store.dummy_update_batch(8, Some(&cursor)).unwrap());
        }
        for _ in 0..64 {
            touched.extend(store.dummy_update_batch(8, None).unwrap());
        }
        assert!(touched.len() > cursor.cycle_len() / 2);
        assert!(touched.iter().all(|b| !registry.contains(b)));

        let read_back = |store: &ResilientStore<FaultDevice<MemDevice>>| {
            for (i, user) in users.iter().enumerate() {
                assert_eq!(
                    store.registry_get(user).unwrap(),
                    Some(vec![i as u8; 24]),
                    "{user}"
                );
            }
        };
        store.registry_drop_caches().unwrap();
        read_back(&store);
        let reopened = ResilientStore::open(store.into_device(), cfg(), &master(), 8).unwrap();
        read_back(&reopened);
    }

    #[test]
    fn geometry_roundtrip() {
        let store = fresh_store();
        let reg = store.registry.read();
        let state = reg.as_ref().unwrap();
        let encoded = encode_geometry(state);
        let (cfg2, shards) = decode_geometry(&encoded).unwrap();
        assert_eq!(cfg2, state.cfg);
        assert_eq!(shards.len(), state.shards.len());
        for (a, b) in shards.iter().zip(&state.shards) {
            assert_eq!(a.head, b.head);
            assert_eq!(a.segments, b.segments);
        }
        assert!(decode_geometry(&encoded[..12]).is_err());
        let mut bad = encoded.clone();
        bad[0] ^= 1;
        assert!(decode_geometry(&bad).is_err());
    }

    /// Bytes produced by the encoder as it stood before the port onto
    /// `wire`: the format must not move.
    #[test]
    fn golden_vectors_are_bit_identical() {
        const GOLDEN_GEOMETRY: &[u8] = b"\
            \x52\x47\x45\x4f\x30\x30\x30\x31\x02\x00\x00\x00\x02\x00\x00\x00\x03\x00\x00\x00\
            \x11\x00\x00\x00\x00\x00\x00\x00\x12\x00\x00\x00\x00\x00\x00\x00\x13\x00\x00\x00\
            \x00\x00\x00\x00\x14\x00\x00\x00\x00\x00\x00\x00\x08\x07\x06\x05\x04\x03\x02\x01\
            \x21\x00\x00\x00\x00\x00\x00\x00\x22\x00\x00\x00\x00\x00\x00\x00\x23\x00\x00\x00\
            \x00\x00\x00\x00\x24\x00\x00\x00\x00\x00\x00\x00\x25\x00\x00\x00\x00\x00\x00\x00";
        const GOLDEN_HEAD: &[u8] = b"\
            \x52\x48\x45\x41\x44\x30\x30\x31\x03\x00\x00\x00\x01\x08\x07\x06\x05\x04\x03\x02\
            \x01\x0d\x0c\x0b\x0a\x7c\xa2\x30\xb0\x90\x36\x51\x48\x85\xc4\xb1\x9c\x31\x10\x8f\
            \x8a";
        const GOLDEN_SEGMENT: &[u8] = b"\
            \x52\x53\x45\x47\x30\x30\x30\x31\x03\x00\x00\x00\x08\x07\x06\x05\x04\x03\x02\x01\
            \x01\x00\x00\x00\x02\x00\x00\x00\x0b\x00\x63\x68\x75\x6e\x6b\x2d\x62\x79\x74\x65\
            \x73\x06\xea\xad\xe0\xe5\xf0\xfd\xbe\xf6\x70\xc1\xbd\x87\x9e\xab\x88";
        const GOLDEN_RECORDS: &[u8] = b"\
            \x03\x00\x00\x00\x00\x00\x01\x00\x00\x00\x09\x05\x00\x61\x6c\x69\x63\x65\x03\x00\
            \x00\x00\x01\x02\x03\x03\x00\x62\x6f\x62\x00\x00\x00\x00";
        let state = RegistryState::new(
            RegistryConfig {
                shards: 2,
                segment_blocks: 2,
                max_resident_shards: 3,
            },
            vec![
                ShardGeometry {
                    head: 0x11,
                    segments: [vec![0x12, 0x13], vec![0x14, 0x0102_0304_0506_0708]],
                },
                ShardGeometry {
                    head: 0x21,
                    segments: [vec![0x22, 0x23], vec![0x24, 0x25]],
                },
            ],
            &Key256::from_passphrase("registry golden"),
        );
        assert_eq!(encode_geometry(&state), GOLDEN_GEOMETRY);
        let (cfg, shards) = decode_geometry(GOLDEN_GEOMETRY).unwrap();
        assert_eq!(cfg, state.cfg);
        for (got, want) in shards.iter().zip(&state.shards) {
            assert_eq!((got.head, &got.segments), (want.head, &want.segments));
        }

        let generation = 0x0102_0304_0506_0708;
        assert_eq!(
            encode_head(&state.mac, 3, 1, generation, 0x0a0b_0c0d),
            GOLDEN_HEAD
        );
        assert_eq!(
            decode_head(&state.mac, 3, GOLDEN_HEAD),
            Some((1, generation, 0x0a0b_0c0d))
        );
        assert_eq!(decode_head(&state.mac, 2, GOLDEN_HEAD), None, "other shard");

        assert_eq!(
            encode_segment_block(&state.mac, 3, generation, 1, 2, b"chunk-bytes"),
            GOLDEN_SEGMENT
        );
        assert_eq!(
            decode_segment_block(&state.mac, 3, GOLDEN_SEGMENT),
            Some((generation, 1, 2, b"chunk-bytes".to_vec()))
        );

        let mut records = BTreeMap::new();
        records.insert("alice".to_string(), vec![1, 2, 3]);
        records.insert("bob".to_string(), vec![]);
        records.insert(String::new(), vec![9]);
        assert_eq!(encode_records(&records), GOLDEN_RECORDS);
        assert_eq!(decode_records(GOLDEN_RECORDS).unwrap(), records);
    }

    /// Regression: `u32::MAX` shards of `u32::MAX`-block segments made the
    /// parent's size product overflow — a panic in debug builds, a wrapped
    /// (and by luck still refused) length in release builds.
    #[test]
    fn hostile_geometry_shape_is_refused_without_overflow() {
        let mut buf = GEO_MAGIC.to_vec();
        buf.extend_from_slice(&[0xff; 8]);
        buf.extend_from_slice(&[4, 0, 0, 0]);
        assert!(matches!(
            decode_geometry(&buf),
            Err(ResilienceError::Corrupt(_))
        ));
    }
}
