//! The Figure 6 engine: the one place a block is relocated, resealed or
//! rewritten.
//!
//! [`Engine`] owns the volume ([`StegFs`]), the agent's view of it
//! ([`ShardedBlockMap`] + [`Registry`]) and the selection DRBG. The paper's
//! agent is one process that turns every user's request into one stream of
//! r(X) w(X) pairs, and so is this engine: the registry, the selection DRBG
//! and the keying's own state (Construction 2's session table) sit behind
//! **one lock**, and every call that reads or changes them holds it from
//! start to end through a [`Locked`] handle. So:
//!
//! * every Figure 6 iteration is one **read-modify-write of one block** —
//!   dummy-update reseal, in-place rewrite and relocation alike read the
//!   block they write (a relocation reads its target B2, never the old
//!   location B1), so no read links an update to the data it hides and the
//!   disk head never leaves the block between the pair;
//! * a relocation claims, writes and repoints its target inside one call, so
//!   no draw, reseal or read ever sees a block claimed but not yet
//!   repointed;
//! * a **dummy batch** draws all `k` victims first, then reseals them grouped
//!   by map shard (shards ascending, selection order within a shard);
//! * every request and every DRBG draw happens in call order, so a run on
//!   one thread is bit-for-bit reproducible and a run on N threads is
//!   value-deterministic: calls take turns, in an order the scheduler picks.
//!
//! The volume, the map and the statistics stay outside the lock: the fronts
//! hand them out by reference (`fs()`, `map()`, `stats()`), the map's claims
//! and counters are atomic, and the counters are relaxed.
//!
//! The [`Registry`] is the engine's only table keyed by file and its only
//! block → owner index: the cached headers, block ownership and the universe
//! Construction 2 draws from are one structure. (The block map holds each
//! block's class, nothing about its owner.)
//!
//! What the engine does *not* decide is keying. The paper runs the same
//! algorithm under two constructions; a [`Keying`] policy, chosen statically
//! by each agent front, answers the four questions on which they differ.

use std::ops::{Deref, DerefMut};

use parking_lot::{Mutex, MutexGuard};

use stegfs_base::{BlockClass, OpenFile, ShardedBlockMap, StegFs};
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

/// The four questions on which the paper's two constructions differ. Every
/// method runs under the engine's lock.
pub(crate) trait Keying {
    /// Uniformly draw the next candidate block (`B2`, or a dummy-update
    /// victim) from everything the agent may touch; `None` when that is
    /// nothing.
    fn draw(&self, payload_blocks: u64, registry: &Registry, rng: &mut HashDrbg)
        -> Option<BlockId>;

    /// If `b2` can take relocated data, claim it on `map` (`Dummy` → `Data`)
    /// and say what kind of target it is.
    fn claim_swap_target(
        &self,
        map: &ShardedBlockMap,
        registry: &Registry,
        b2: BlockId,
    ) -> Option<SwapTarget>;

    /// How `block` is dummy-updated; an error when the agent may not write
    /// it at all.
    fn reseal(&self, registry: &Registry, block: BlockId) -> Result<Reseal, AgentError>;

    /// The key under which new content of `file` is sealed.
    fn content_key(&self, file: &OpenFile) -> Result<Key256, AgentError>;
}

/// Everything the engine mutates besides the volume and its map: what
/// [`Engine::lock`] guards.
pub(crate) struct State<K> {
    pub(crate) registry: Registry,
    pub(crate) keying: K,
    /// Selection randomness (candidate draws), separate from the volume's
    /// own DRBG (IVs, allocation).
    rng: HashDrbg,
}

/// The update engine, generic over its [`Keying`].
pub(crate) struct Engine<D, K> {
    pub(crate) fs: StegFs<D>,
    pub(crate) map: ShardedBlockMap,
    pub(crate) stats: SharedUpdateStats,
    cfg: AgentConfig,
    state: Mutex<State<K>>,
}

/// The engine with its lock held: the only way to reach the registry, the
/// keying and the selection DRBG, and so every operation that touches them.
pub(crate) struct Locked<'a, D, K> {
    engine: &'a Engine<D, K>,
    state: MutexGuard<'a, State<K>>,
}

impl<D, K> Deref for Locked<'_, D, K> {
    type Target = State<K>;

    fn deref(&self) -> &State<K> {
        &self.state
    }
}

impl<D, K> DerefMut for Locked<'_, D, K> {
    fn deref_mut(&mut self) -> &mut State<K> {
        &mut self.state
    }
}

impl<D: BlockDevice, K: Keying> Engine<D, K> {
    /// Assemble an engine over a mounted volume and the agent's view of it.
    pub(crate) fn new(
        fs: StegFs<D>,
        map: ShardedBlockMap,
        cfg: AgentConfig,
        rng_seed: u64,
        keying: K,
    ) -> Self {
        Self {
            fs,
            map,
            stats: SharedUpdateStats::default(),
            cfg,
            state: Mutex::new(State {
                registry: Registry::default(),
                keying,
                rng: HashDrbg::new(&rng_seed.to_be_bytes()),
            }),
        }
    }

    /// Take the engine's lock; the caller holds it until the handle drops.
    pub(crate) fn lock(&self) -> Locked<'_, D, K> {
        Locked {
            engine: self,
            state: self.state.lock(),
        }
    }

    /// Locations of a registered file's content blocks, from the cached
    /// header.
    #[cfg(test)]
    pub(crate) fn locations(&self, id: FileId) -> Vec<BlockId> {
        self.lock().registry.get(id).unwrap().header.blocks.clone()
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
        // The volume DRBG's lock covers the seal alone, never the write.
        let sealed = self
            .fs
            .with_rng(|rng| self.fs.codec().seal(key, payload, rng))?;
        self.fs.device().write_block(block, &sealed)?;
        Ok(())
    }
}

impl<D: BlockDevice, K: Keying> Locked<'_, D, K> {
    /// Number of content blocks of a registered file.
    pub(crate) fn num_blocks(&self, id: FileId) -> Result<u64, AgentError> {
        Ok(self
            .registry
            .get(id)
            .ok_or(AgentError::UnknownFile(id))?
            .num_content_blocks())
    }

    /// Dummy-update `block` in place: the ciphertext of the whole block
    /// changes while the plaintext does not.
    pub(crate) fn reseal(&self, block: BlockId) -> Result<(), AgentError> {
        let fs = &self.engine.fs;
        match self.keying.reseal(&self.registry, block)? {
            Reseal::Key(key) => fs.reseal_block(block, &key)?,
            Reseal::Random => fs
                .codec()
                .with_scratch(|scratch| -> Result<(), AgentError> {
                    fs.device().read_block(block, scratch)?;
                    fs.randomize_block(block, scratch)?;
                    Ok(())
                })?,
        }
        self.engine.stats.dummy_updates.inc();
        Ok(())
    }

    /// Draw one candidate — the Figure 6 loop runs this once per iteration.
    fn draw(&mut self) -> Option<BlockId> {
        let payload = self.engine.fs.superblock().payload_blocks();
        let state = &mut *self.state;
        state.keying.draw(payload, &state.registry, &mut state.rng)
    }

    /// Read one content block of a registered file.
    pub(crate) fn read_block(&self, id: FileId, index: u64) -> Result<Vec<u8>, AgentError> {
        let file = self.registry.get(id).ok_or(AgentError::UnknownFile(id))?;
        Ok(self.engine.fs.read_content_block(file, index)?)
    }

    /// Read a whole registered file.
    pub(crate) fn read_file(&self, id: FileId) -> Result<Vec<u8>, AgentError> {
        let file = self.registry.get(id).ok_or(AgentError::UnknownFile(id))?;
        Ok(self.engine.fs.read_file(file)?)
    }

    /// The Figure 6 update algorithm: make content block `index` of file `id`
    /// hold `payload`, at a uniformly random position.
    pub(crate) fn update_block(
        &mut self,
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
        let (b1, key) = {
            let file = self.registry.get(id).ok_or(AgentError::UnknownFile(id))?;
            (file.content_block(index)?, self.keying.content_key(file)?)
        };

        for _ in 0..MAX_UPDATE_ITERATIONS {
            e.stats.iterations.inc();
            // With relocation disabled (the ablation: dummy-update stream
            // only, which the paper argues is insufficient) the "draw" always
            // lands on the block itself.
            let b2 = if e.cfg.relocate_on_update {
                self.draw().ok_or(AgentError::NoDummyBlocks)?
            } else {
                b1
            };

            // Figure 6: B2 = B1 is the in-place branch; a B2 the keying can
            // claim takes the content (`Some(target)`); any other B2 holds
            // data, so the third branch dummy-updates it and draws again.
            let target = if b2 == b1 {
                None
            } else if let Some(target) = self.keying.claim_swap_target(&e.map, &self.registry, b2) {
                Some(target)
            } else {
                self.reseal(b2)?;
                continue;
            };

            // Both writing branches issue the same pair, r(B2) w(B2), like
            // every reseal iteration: the read never names B1 unless B1 is
            // the block being written.
            let io = e
                .read_raw(b2)
                .and_then(|()| e.write_sealed_content(b2, &key, payload));
            let Some(target) = target else {
                io?;
                e.stats.data_updates.inc();
                e.stats.in_place.inc();
                return Ok(UpdateOutcome::InPlace { block: b1 });
            };
            // An I/O error before the repoint must release the claim, or B2
            // would stay classified Data with no header referencing it — a
            // permanent dummy-pool leak.
            if let Err(err) = io {
                e.map.set(b2, BlockClass::Dummy);
                return Err(err);
            }
            match target {
                SwapTarget::Abandoned => self.registry.relocate_content_block(id, index, b1, b2),
                SwapTarget::DummyFile {
                    file,
                    index: dummy_index,
                } => self
                    .registry
                    .swap_with_dummy(id, index, b1, file, dummy_index, b2),
            };
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
        &mut self,
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

    /// Issue `k` dummy updates (Section 4.1.3): draw all `k` victims, then
    /// reseal them grouped by map shard — shards ascending, selection order
    /// within a shard. Returns the victims in selection order;
    /// [`AgentError::NothingToUpdate`] if the agent knows of no block at all.
    pub(crate) fn dummy_update_batch(&mut self, k: usize) -> Result<Vec<BlockId>, AgentError> {
        let victims: Vec<BlockId> = (0..k).map_while(|_| self.draw()).collect();
        if victims.len() < k {
            return Err(AgentError::NothingToUpdate);
        }
        // The shard grouping only keeps the reseal order, and so the pinned
        // device images, what they were; no lock needs it.
        let mut by_shard = victims.clone();
        by_shard.sort_by_key(|&block| self.engine.map.shard_of(block));
        for block in by_shard {
            self.reseal(block)?;
        }
        Ok(victims)
    }

    /// Write back the cached header of one file, if it changed.
    pub(crate) fn save(&mut self, id: FileId) -> Result<(), AgentError> {
        let fs = &self.engine.fs;
        let file = self
            .registry
            .get_mut(id)
            .ok_or(AgentError::UnknownFile(id))?;
        if file.dirty {
            fs.save(file)?;
        }
        Ok(())
    }

    /// Write back every dirty cached header.
    pub(crate) fn flush(&mut self) -> Result<(), AgentError> {
        let dirty = self.registry.dirty_file_ids();
        dirty.into_iter().try_for_each(|id| self.save(id))
    }
}
