//! The Figure 6 engine: the one place a block is relocated, resealed or
//! rewritten.
//!
//! [`Engine`] owns the volume ([`StegFs`]), the agent's view of it
//! ([`ShardedBlockMap`] + [`Registry`]) and the locks that let many threads
//! drive it through `&self`:
//!
//! * relocation targets are **claimed atomically** on the map, so two updates
//!   can never take the same dummy block;
//! * every Figure 6 iteration is one **read-modify-write of one block** —
//!   dummy-update reseal, in-place rewrite and relocation alike read the
//!   block they write (a relocation reads its target B2, never the old
//!   location B1), so no read links an update to the data it hides and the
//!   disk head never leaves the block between the pair. Each pair runs under
//!   the *per-shard update lock* of that block — operations on blocks in
//!   different shards proceed in parallel, while a reseal can never
//!   interleave destructively with a data write to the same block;
//! * the **read path is shared**: content reads hold only the registry
//!   *read* lock — shared among all readers, contended only by the brief
//!   header-repoint at the end of a relocation — across the device read, so
//!   a block's location is pinned while it is read;
//! * **dummy updates are batched across shards**: one draw of `k` candidates
//!   under the RNG lock, grouped by shard, then one update-lock acquisition
//!   per shard per round;
//! * **structural operations** (create, open/close, login/logout, flush) hold
//!   the write side of a structural `RwLock` that all per-block traffic holds
//!   for read, because their multi-block writes go through [`StegFs`] paths
//!   that cannot take the per-shard locks themselves. [`Engine::shared`] and
//!   [`Engine::exclusive`] hand out the two sides as handles, so an operation
//!   that needs a side can only be reached through it;
//! * per-file header bookkeeping is serialised by each file's update lock,
//!   which lives in the file's [`Registry`] entry and so dies with it, and
//!   statistics are atomic.
//!
//! The [`Registry`] is the engine's only table keyed by file and its only
//! block → owner index: the cached headers, the update locks, block
//! ownership and the universe Construction 2 draws from are one structure
//! behind one `RwLock`. (The block map holds each block's class, nothing
//! about its owner.)
//!
//! What the engine does *not* decide is keying. The paper runs the same
//! algorithm under two constructions; a [`Keying`] policy, chosen statically
//! by each agent front, answers the four questions on which they differ.

use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use stegfs_base::{BlockClass, FsError, OpenFile, ShardedBlockMap, StegFs};
use stegfs_blockdev::{BlockDevice, BlockId};
use stegfs_crypto::{HashDrbg, Key256};

use crate::config::AgentConfig;
use crate::error::AgentError;
use crate::registry::{FileId, Registry};
use crate::stats::SharedUpdateStats;

/// Safety bound on the number of block-selection iterations in the Figure 6
/// update loop. The expected number is `N/D` (Section 4.1.5), so the bound
/// is only hit when the volume has essentially no dummy blocks left.
const MAX_UPDATE_ITERATIONS: u32 = 100_000;

/// What a data update ended up doing, as reported to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// The randomly selected block was the block being updated, so the update
    /// happened in place (the `B2 = B1` branch of Figure 6).
    InPlace {
        /// The block that was rewritten.
        block: u64,
    },
    /// The block's content moved to a new physical location.
    Relocated {
        /// Previous physical block.
        from: u64,
        /// New physical block.
        to: u64,
    },
}

impl UpdateOutcome {
    /// The physical block now holding the logical content.
    pub fn current_block(&self) -> u64 {
        match *self {
            UpdateOutcome::InPlace { block } => block,
            UpdateOutcome::Relocated { to, .. } => to,
        }
    }
}

/// How a given block must be dummy-updated.
pub(crate) enum Reseal {
    /// Decrypt under this key, refresh the IV, re-encrypt, write back.
    Key(Key256),
    /// The block only ever held random bytes: read it (to keep the I/O
    /// signature identical) and overwrite it with fresh random bytes.
    Random,
    /// Claimed as a relocation target but not yet repointed in the registry:
    /// it may already hold fresh data under a key the registry does not
    /// attribute to it yet, so touching it could destroy that data.
    Skip,
}

/// A relocation target the keying policy has claimed for the caller.
pub(crate) enum SwapTarget {
    /// An abandoned block: the vacated block simply joins the dummy pool.
    Abandoned,
    /// Content block `index` of disclosed dummy file `file`, which takes the
    /// vacated block in exchange so every block stays accounted to a file
    /// whose header the agent can rewrite.
    DummyFile {
        /// The donating dummy file.
        file: FileId,
        /// Which of its content blocks was claimed.
        index: u64,
    },
}

/// The four questions on which the paper's two constructions differ.
pub(crate) trait Keying {
    /// Uniformly draw the next candidate block (`B2`, or a dummy-update
    /// victim) from everything the agent may touch; `None` when that is
    /// nothing.
    fn draw(
        &self,
        payload_blocks: u64,
        registry: &RwLock<Registry>,
        rng: &mut HashDrbg,
    ) -> Option<BlockId>;

    /// If `b2` can take relocated data, atomically claim it on `map`
    /// (`Dummy` → `Data`) and say what kind of target it is.
    fn claim_swap_target(
        &self,
        map: &ShardedBlockMap,
        registry: &RwLock<Registry>,
        b2: BlockId,
    ) -> Option<SwapTarget>;

    /// How `block` is dummy-updated. Called under the block's shard update
    /// lock, so the answer cannot go stale against a concurrent relocation.
    fn reseal(&self, map: &ShardedBlockMap, registry: &RwLock<Registry>, block: BlockId) -> Reseal;

    /// The key under which new content of `file` is sealed.
    fn content_key(&self, file: &OpenFile) -> Result<Key256, AgentError>;
}

/// The lock-decomposed update engine, generic over its [`Keying`].
pub(crate) struct Engine<D, K> {
    pub(crate) fs: StegFs<D>,
    pub(crate) map: ShardedBlockMap,
    pub(crate) registry: RwLock<Registry>,
    pub(crate) stats: SharedUpdateStats,
    pub(crate) keying: K,
    cfg: AgentConfig,
    /// One lock per map shard; held across every read-modify-write of a block
    /// in that shard.
    update_locks: Vec<Mutex<()>>,
    structural: RwLock<()>,
    /// Selection randomness (candidate draws), separate from the volume's
    /// own DRBG (IVs, allocation).
    rng: Mutex<HashDrbg>,
}

/// Proof that the structural lock is held for read: per-block traffic.
pub(crate) struct Shared<'a, D, K> {
    engine: &'a Engine<D, K>,
    _structural: RwLockReadGuard<'a, ()>,
}

/// Proof that the structural lock is held for write: no per-block traffic is
/// in flight, so multi-block [`StegFs`] paths and registry surgery are safe.
pub(crate) struct Exclusive<'a, D, K> {
    engine: &'a Engine<D, K>,
    _structural: RwLockWriteGuard<'a, ()>,
}

fn content_location(file: &OpenFile, index: u64) -> Result<BlockId, AgentError> {
    file.header
        .blocks
        .get(index as usize)
        .copied()
        .ok_or(AgentError::Fs(FsError::OutOfBounds {
            index,
            len: file.header.num_blocks(),
        }))
}

impl<D: BlockDevice, K: Keying> Engine<D, K> {
    /// Assemble an engine over a mounted volume and the agent's view of it.
    /// The update-lock array takes the map's shard count.
    pub(crate) fn new(
        fs: StegFs<D>,
        map: ShardedBlockMap,
        cfg: AgentConfig,
        rng_seed: u64,
        keying: K,
    ) -> Self {
        Self {
            update_locks: (0..map.num_shards()).map(|_| Mutex::new(())).collect(),
            fs,
            map,
            registry: RwLock::default(),
            stats: SharedUpdateStats::default(),
            keying,
            cfg,
            structural: RwLock::new(()),
            rng: Mutex::new(HashDrbg::new(&rng_seed.to_be_bytes())),
        }
    }

    /// Enter as per-block traffic.
    pub(crate) fn shared(&self) -> Shared<'_, D, K> {
        Shared {
            engine: self,
            _structural: self.structural.read(),
        }
    }

    /// Enter as a structural operation, excluding all per-block traffic.
    pub(crate) fn exclusive(&self) -> Exclusive<'_, D, K> {
        Exclusive {
            engine: self,
            _structural: self.structural.write(),
        }
    }

    /// Number of content blocks of a registered file.
    pub(crate) fn num_blocks(&self, id: FileId) -> Result<u64, AgentError> {
        Ok(self
            .registry
            .read()
            .get(id)
            .ok_or(AgentError::UnknownFile(id))?
            .num_content_blocks())
    }

    /// Locations of a registered file's content blocks, from the cached
    /// header.
    #[cfg(test)]
    pub(crate) fn locations(&self, id: FileId) -> Vec<BlockId> {
        self.registry.read().get(id).unwrap().header.blocks.clone()
    }

    pub(crate) fn shard_lock(&self, block: BlockId) -> MutexGuard<'_, ()> {
        self.update_locks[self.map.shard_of(block)].lock()
    }

    /// Read `block` raw and discard it: only the device access matters.
    fn read_raw(&self, block: BlockId) -> Result<(), AgentError> {
        self.fs
            .codec()
            .with_scratch(|scratch| self.fs.device().read_block(block, scratch))?;
        Ok(())
    }

    fn write_sealed_content(
        &self,
        block: BlockId,
        key: &Key256,
        payload: &[u8],
    ) -> Result<(), AgentError> {
        // Seal under the volume DRBG lock, write with it released: the lock
        // must never span a device wait, or every writer on every shard
        // would serialise behind one mutex.
        let sealed = self
            .fs
            .with_rng(|rng| self.fs.codec().seal(key, payload, rng))?;
        self.fs.device().write_block(block, &sealed)?;
        Ok(())
    }

    /// Dummy-update `block` in place: the ciphertext of the whole block
    /// changes while the plaintext does not. Returns whether the block was
    /// touched. Caller must hold the block's shard update lock.
    pub(crate) fn reseal_shard_locked(&self, block: BlockId) -> Result<bool, AgentError> {
        match self.keying.reseal(&self.map, &self.registry, block) {
            Reseal::Key(key) => self.fs.reseal_block(block, &key)?,
            Reseal::Random => {
                self.fs
                    .codec()
                    .with_scratch(|scratch| -> Result<(), AgentError> {
                        self.fs.device().read_block(block, scratch)?;
                        self.fs.randomize_block(block, scratch)?;
                        Ok(())
                    })?
            }
            Reseal::Skip => return Ok(false),
        }
        self.stats.dummy_updates.inc();
        Ok(true)
    }

    /// Draw one candidate — the Figure 6 loop runs this once per iteration.
    fn draw(&self) -> Option<BlockId> {
        let payload = self.fs.superblock().payload_blocks();
        self.keying
            .draw(payload, &self.registry, &mut self.rng.lock())
    }

    /// Draw `k` candidates under a single acquisition of the selection RNG
    /// (fewer if the agent may touch nothing).
    fn draw_candidates(&self, k: usize) -> Vec<BlockId> {
        let payload = self.fs.superblock().payload_blocks();
        let mut rng = self.rng.lock();
        (0..k)
            .map_while(|_| self.keying.draw(payload, &self.registry, &mut rng))
            .collect()
    }
}

impl<D: BlockDevice, K: Keying> Shared<'_, D, K> {
    /// Read one content block of a registered file — the shared read path.
    ///
    /// The registry **read** lock is held across the device read (readers
    /// never block each other; only the brief `registry.write()` at the end
    /// of a relocation waits). Holding it pins the location: without it, a
    /// relocation could repoint the header and abandon the old block, a
    /// second user's update could re-claim that block, and — where blocks
    /// share a key — the stale read would decrypt *another user's* fresh
    /// content instead of failing.
    pub(crate) fn read_block(&self, id: FileId, index: u64) -> Result<Vec<u8>, AgentError> {
        let registry = self.engine.registry.read();
        let file = registry.get(id).ok_or(AgentError::UnknownFile(id))?;
        Ok(self.engine.fs.read_content_block(file, index)?)
    }

    /// Read a whole registered file; the registry read lock is held for the
    /// whole read, so the result is a consistent snapshot (relocations wait;
    /// other readers and dummy updates do not).
    pub(crate) fn read_file(&self, id: FileId) -> Result<Vec<u8>, AgentError> {
        let registry = self.engine.registry.read();
        let file = registry.get(id).ok_or(AgentError::UnknownFile(id))?;
        Ok(self.engine.fs.read_file(file)?)
    }

    /// The Figure 6 update algorithm: make content block `index` of file `id`
    /// hold `payload`, at a uniformly random position.
    pub(crate) fn update_block(
        &self,
        id: FileId,
        index: u64,
        payload: &[u8],
    ) -> Result<UpdateOutcome, AgentError> {
        let e = self.engine;
        let max_payload = e.fs.content_bytes_per_block();
        if payload.len() > max_payload {
            return Err(AgentError::PayloadTooLarge {
                got: payload.len(),
                max: max_payload,
            });
        }
        let file_lock = e
            .registry
            .read()
            .update_lock(id)
            .ok_or(AgentError::UnknownFile(id))?;
        let _file = file_lock.lock();
        let (b1, key) = {
            let registry = e.registry.read();
            let file = registry.get(id).ok_or(AgentError::UnknownFile(id))?;
            (content_location(file, index)?, e.keying.content_key(file)?)
        };

        for _ in 0..MAX_UPDATE_ITERATIONS {
            e.stats.iterations.inc();
            // With relocation disabled (the ablation: dummy-update stream
            // only, which the paper argues is insufficient) the "draw" always
            // lands on the block itself.
            let b2 = if e.cfg.relocate_on_update {
                e.draw().ok_or(AgentError::NoDummyBlocks)?
            } else {
                b1
            };

            // Figure 6: B2 = B1 is the in-place branch; a B2 the keying can
            // claim takes the content (`Some(target)`); any other B2 holds
            // data (or was claimed by a concurrent update a moment ago), so
            // the third branch dummy-updates it and draws again.
            let target = if b2 == b1 {
                None
            } else if let Some(target) = e.keying.claim_swap_target(&e.map, &e.registry, b2) {
                Some(target)
            } else {
                let _shard = e.shard_lock(b2);
                e.reseal_shard_locked(b2)?;
                continue;
            };

            // Both writing branches issue the same pair, r(B2) w(B2) under
            // B2's shard lock, like every reseal iteration: the read never
            // names B1 unless B1 is the block being written.
            let io = (|| {
                let _shard = e.shard_lock(b2);
                e.read_raw(b2)?;
                e.write_sealed_content(b2, &key, payload)
            })();
            let Some(target) = target else {
                io?;
                e.stats.data_updates.inc();
                e.stats.in_place.inc();
                return Ok(UpdateOutcome::InPlace { block: b1 });
            };
            // B2 is ours alone (the claim was atomic): repoint the header(s)
            // in one registry transaction, then abandon B1. An I/O error
            // before the repoint must release the claim, or B2 would stay
            // classified Data with no header referencing it — a permanent
            // dummy-pool leak.
            if let Err(err) = io {
                e.map.set(b2, BlockClass::Dummy);
                return Err(err);
            }
            {
                let mut registry = e.registry.write();
                match target {
                    SwapTarget::Abandoned => registry.relocate_content_block(id, index, b1, b2),
                    SwapTarget::DummyFile {
                        file,
                        index: dummy_index,
                    } => registry.swap_with_dummy(id, index, b1, file, dummy_index, b2),
                };
            }
            e.map.set(b1, BlockClass::Dummy);
            e.stats.data_updates.inc();
            e.stats.relocations.inc();
            return Ok(UpdateOutcome::Relocated { from: b1, to: b2 });
        }

        Err(AgentError::UpdateRetriesExhausted {
            attempts: MAX_UPDATE_ITERATIONS,
        })
    }

    /// Update `count` consecutive content blocks starting at `start_index`,
    /// filling each with `fill` — the paper's "update range" workload
    /// (Figure 11(b)).
    pub(crate) fn update_range_fill(
        &self,
        id: FileId,
        start_index: u64,
        count: u64,
        fill: u8,
    ) -> Result<Vec<UpdateOutcome>, AgentError> {
        let payload = vec![fill; self.engine.fs.content_bytes_per_block()];
        (start_index..start_index + count)
            .map(|i| self.update_block(id, i, &payload))
            .collect()
    }

    /// Issue `k` dummy updates (Section 4.1.3) with cross-shard batched
    /// selection: all candidates are drawn under one RNG lock acquisition,
    /// grouped by shard, and each shard's update lock is taken once for its
    /// whole group. Returns the touched blocks. A victim that had to be
    /// skipped ([`Reseal::Skip`]) is replaced by a fresh draw;
    /// [`AgentError::NothingToUpdate`] if the agent knows of no block at all.
    pub(crate) fn dummy_update_batch(&self, k: usize) -> Result<Vec<BlockId>, AgentError> {
        let e = self.engine;
        let mut touched = Vec::with_capacity(k);
        while touched.len() < k {
            let candidates = e.draw_candidates(k - touched.len());
            if candidates.is_empty() {
                return Err(AgentError::NothingToUpdate);
            }
            let mut by_shard: Vec<Vec<BlockId>> = vec![Vec::new(); e.update_locks.len()];
            for &block in &candidates {
                by_shard[e.map.shard_of(block)].push(block);
            }
            let mut skipped = Vec::new();
            for (shard, blocks) in by_shard.iter().enumerate() {
                if blocks.is_empty() {
                    continue;
                }
                let _lock = e.update_locks[shard].lock();
                for &block in blocks {
                    if !e.reseal_shard_locked(block)? {
                        skipped.push(block);
                    }
                }
            }
            // Selection order, minus the skipped.
            touched.extend(candidates.into_iter().filter(|b| !skipped.contains(b)));
        }
        Ok(touched)
    }
}

impl<D: BlockDevice, K: Keying> Exclusive<'_, D, K> {
    /// Write back the cached header of one file, if it changed.
    pub(crate) fn save(&self, id: FileId) -> Result<(), AgentError> {
        let mut registry = self.engine.registry.write();
        let file = registry.get_mut(id).ok_or(AgentError::UnknownFile(id))?;
        if file.dirty {
            self.engine.fs.save(file)?;
        }
        Ok(())
    }

    /// Write back every dirty cached header.
    pub(crate) fn flush(&self) -> Result<(), AgentError> {
        let dirty = self.engine.registry.read().dirty_file_ids();
        dirty.into_iter().try_for_each(|id| self.save(id))
    }

    /// Forget a registered file and its update lock; returns it so the
    /// caller can release or reclassify its blocks.
    pub(crate) fn unregister(&self, id: FileId) -> Option<OpenFile> {
        self.engine.registry.write().unregister(id)
    }
}
