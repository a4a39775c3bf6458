//! The oblivious storage proper: Figure 8(b), decomposed for concurrent
//! readers.
//!
//! The store is split into a **shared read side** and a **structural write
//! side** so that the serving layer can point many threads at one
//! `&ObliviousStore`:
//!
//! * the read side (`read`, `contains`, `stats`, audits) takes `&self`: the
//!   front buffer and the membership set sit behind `RwLock`s, each hierarchy
//!   level behind its own `RwLock`, and the counters are relaxed atomics
//!   ([`SharedObliviousStats`]) — a read probes every level's index and then
//!   every level's data, holding at most one level lock at a time, shared
//!   with every other reader touching that level, and rescans if the level
//!   it found the id in was rebuilt between its two probes (the level's
//!   epoch moved);
//! * the structural side (buffer flushes and the cascading `dump` of Figure
//!   8(b)) acquires the front-buffer write lock plus write locks on exactly
//!   the levels it restructures, so concurrent reads on untouched levels
//!   proceed while a flush rewrites the deep hierarchy.
//!
//! Lock order (documented in the README's Concurrency section): membership →
//! front buffer → level locks in ascending level order → DRBG. Readers take a
//! single level lock at a time and never acquire one while holding the DRBG;
//! structural passes acquire all their level write locks before touching the
//! DRBG, so the order is total and deadlock-free. The [`write
//! epoch`](ObliviousStore::write_epoch) is bumped entering and leaving every
//! structural pass (odd while one is in flight) — the observable guard that
//! flushes never interleave with each other.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, RwLock, RwLockWriteGuard};
use stegfs_base::{BlockCodec, IV_SIZE};
use stegfs_blockdev::{sim::SimClock, BlockDevice};
use stegfs_crypto::{HashDrbg, Key256, AES_BLOCK_SIZE};

use crate::config::ObliviousConfig;
use crate::det::{DetHashMap, DetHashSet};
use crate::error::ObliviousError;
use crate::extsort::{ExternalSorter, MaintenanceIo};
use crate::level::{Level, ITEM_HEADER};
use crate::stats::{ObliviousStats, SharedObliviousStats};

/// Agent-memory front buffer: the items awaiting their first flush, plus an
/// id → position index mirroring the entry vector exactly.
#[derive(Default)]
struct FrontBuffer {
    entries: Vec<(u64, Vec<u8>)>,
    index: DetHashMap<u64, usize>,
}

/// The hierarchical oblivious store of Section 5.
///
/// `D` is the device holding the level hierarchy (the "oblivious partition");
/// `S` is the sort-partition device used by the external merge sort during
/// re-ordering. Both are typically wrappers around the same simulated disk in
/// the benchmark harness.
///
/// Every method takes `&self`; the store is `Sync` and is shared across the
/// serving layer's worker threads by reference. A single-threaded caller
/// observes exactly the sequential semantics (every run consumes the DRBG
/// in the same order, so traces are bit-for-bit identical); multi-threaded
/// runs are value-deterministic — every item reads back what was last
/// written — while trace order depends on scheduling.
pub struct ObliviousStore<D, S> {
    device: D,
    sorter: ExternalSorter<S>,
    codec: BlockCodec,
    cfg: ObliviousConfig,
    levels: Vec<RwLock<Level>>,
    front: RwLock<FrontBuffer>,
    membership: RwLock<DetHashSet<u64>>,
    master_key: Key256,
    rng: Mutex<HashDrbg>,
    stats: SharedObliviousStats,
    clock: Option<SimClock>,
    /// Structural-pass guard: even at rest, odd while a flush/dump cascade is
    /// rewriting levels. Bumped entering and leaving [`Self::flush_buffer`].
    write_epoch: AtomicU64,
}

impl<D: BlockDevice, S: BlockDevice> ObliviousStore<D, S> {
    /// Device block size needed to cache items of `item_size` bytes: IV,
    /// item header and payload, the slot layout `Level::item_capacity`
    /// reads, rounded up so the sealed data field is whole AES blocks.
    pub fn block_size_for_item(item_size: usize) -> usize {
        (IV_SIZE + ITEM_HEADER + item_size).next_multiple_of(AES_BLOCK_SIZE)
    }

    /// Sort-partition block size required for a given store block size.
    pub fn sort_block_size_for(device_block_size: usize) -> usize {
        device_block_size + 32
    }

    /// Number of blocks the oblivious partition must provide for `cfg`:
    /// every level's index region, in level order, then every level's data
    /// region, and nothing else.
    pub fn blocks_required(cfg: &ObliviousConfig, block_size: usize) -> u64 {
        (1..=cfg.num_levels())
            .map(|i| Level::blocks_required(cfg.level_capacity(i), block_size))
            .sum()
    }

    /// Number of blocks the sort partition must provide for `cfg` (it has to
    /// hold the largest level while it is being re-ordered).
    pub fn sort_blocks_required(cfg: &ObliviousConfig) -> u64 {
        cfg.level_capacity(cfg.num_levels())
    }

    /// Create an oblivious store over `device`, using `sort_device` as the
    /// sorting space and `buffer_blocks` items of agent memory.
    ///
    /// Reads neither partition: the store is a cache over the StegFS
    /// partition with no on-disk state of its own, so every start is a
    /// rebuild, whatever an earlier run or a power cut left behind.
    pub fn new(
        device: D,
        sort_device: S,
        cfg: ObliviousConfig,
        master_key: Key256,
        seed: u64,
        clock: Option<SimClock>,
    ) -> Result<Self, ObliviousError> {
        let block_size = device.block_size();
        let required = Self::blocks_required(&cfg, block_size);
        if device.num_blocks() < required {
            return Err(ObliviousError::DeviceTooSmall {
                required,
                available: device.num_blocks(),
            });
        }
        let sort_required = Self::sort_blocks_required(&cfg);
        if sort_device.num_blocks() < sort_required {
            return Err(ObliviousError::SortPartitionTooSmall {
                required: sort_required,
                available: sort_device.num_blocks(),
            });
        }
        if sort_device.block_size() < Self::sort_block_size_for(block_size) {
            return Err(ObliviousError::Corrupt(format!(
                "sort partition block size {} too small for store block size {}",
                sort_device.block_size(),
                block_size
            )));
        }

        // Every level's index region, in level order, then every level's
        // data region: a read's k index probes stay inside one small area.
        let (mut index_offset, mut data_offset) = (0, required - cfg.total_slots());
        let levels = (1..=cfg.num_levels())
            .map(|i| {
                let capacity = cfg.level_capacity(i);
                let level = Level::layout(
                    i,
                    index_offset,
                    data_offset,
                    capacity,
                    block_size,
                    &master_key,
                );
                index_offset += level.index.num_blocks;
                data_offset += capacity;
                RwLock::new(level)
            })
            .collect();

        Ok(Self {
            sorter: ExternalSorter::new(sort_device, cfg.buffer_blocks.max(2) as usize),
            device,
            codec: BlockCodec::new(block_size),
            cfg,
            levels,
            front: RwLock::new(FrontBuffer::default()),
            membership: RwLock::new(DetHashSet::default()),
            master_key,
            rng: Mutex::new(HashDrbg::new(&seed.to_be_bytes())),
            stats: SharedObliviousStats::default(),
            clock,
            write_epoch: AtomicU64::new(0),
        })
    }

    /// Largest payload (in bytes) an item may have.
    pub fn item_capacity(&self) -> usize {
        Level::item_capacity(self.codec.block_size())
    }

    /// Number of hierarchy levels.
    pub fn num_levels(&self) -> u32 {
        self.levels.len() as u32
    }

    /// The configuration in use.
    pub fn config(&self) -> &ObliviousConfig {
        &self.cfg
    }

    /// Whether logical block `id` is cached anywhere in the store.
    pub fn contains(&self, id: u64) -> bool {
        self.membership.read().contains(&id)
    }

    /// Number of distinct logical blocks cached.
    pub fn len(&self) -> usize {
        self.membership.read().len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.membership.read().is_empty()
    }

    /// Counters collected so far (a relaxed snapshot; exact at quiescence).
    pub fn stats(&self) -> ObliviousStats {
        self.stats.snapshot()
    }

    /// The structural-pass counter: even when no flush/dump cascade is in
    /// flight, odd while one is rewriting levels. Two increments per
    /// completed pass, so `write_epoch() / 2` counts structural passes. This
    /// is the write-epoch guard the serving layer can observe: a read uses it
    /// to notice that a flush ran while it scanned the levels (the per-level
    /// locks already exclude it from levels under rewrite), and audits assert
    /// it is even at quiescence.
    pub fn write_epoch(&self) -> u64 {
        self.write_epoch.load(Ordering::Acquire)
    }

    /// Number of items per level, buffer first — handy for tests and the
    /// benchmark harness. Exact at quiescence; a moment-in-time sample while
    /// other threads are active.
    pub fn occupancy(&self) -> Vec<usize> {
        let mut v = vec![self.front.read().entries.len()];
        v.extend(self.levels.iter().map(|l| l.read().len()));
        v
    }

    fn now_us(&self) -> u64 {
        self.clock.as_ref().map(|c| c.now_us()).unwrap_or(0)
    }

    /// Insert (or overwrite) a cached item. New items enter through the
    /// agent's buffer exactly like freshly read ones, so an attacker cannot
    /// tell an insert-triggered flush from a read-triggered one.
    ///
    /// The membership write lock is held across the buffer update (and any
    /// flush it triggers) so a concurrent reader that observes `id` as a
    /// member is guaranteed to find its value in the buffer or a level.
    pub fn insert(&self, id: u64, payload: Vec<u8>) -> Result<(), ObliviousError> {
        if payload.len() > self.item_capacity() {
            return Err(ObliviousError::ItemTooLarge {
                got: payload.len(),
                max: self.item_capacity(),
            });
        }
        let mut membership = self.membership.write();
        if membership.len() >= self.cfg.last_level_blocks as usize && !membership.contains(&id) {
            return Err(ObliviousError::CapacityExhausted);
        }
        self.stats.inserts.inc();
        membership.insert(id);
        let mut front = self.front.write();
        if let Some(&pos) = front.index.get(&id) {
            front.entries[pos].1 = payload;
            return Ok(());
        }
        let pos = front.entries.len();
        front.index.insert(id, pos);
        front.entries.push((id, payload));
        if front.entries.len() >= self.cfg.buffer_blocks as usize {
            self.flush_buffer(&mut front)?;
        }
        Ok(())
    }

    /// Overwrite the cached copy of `id`. Identical to [`ObliviousStore::insert`];
    /// provided for readability at call sites that update rather than fetch.
    pub fn write(&self, id: u64, payload: Vec<u8>) -> Result<(), ObliviousError> {
        self.insert(id, payload)
    }

    /// Read logical block `id` — Figure 8(b).
    ///
    /// The request touches one index bucket in *every* level, in level
    /// order, then one data slot in every level, in level order, regardless
    /// of where (or whether) the block was found, so the observable access
    /// pattern is independent of the request stream.
    ///
    /// Concurrent readers interleave freely: in each phase a reader holds
    /// one level's read lock while probing it (shared with other readers of
    /// the same level) and drops it before moving to the next. The index
    /// phase racing a flush always finds *a* copy — the cascade moves items
    /// strictly downward, the direction the phase proceeds — but the level
    /// it was found in may be rebuilt before the data phase reaches it. The
    /// level's epoch then has moved: the slot its old index named is not
    /// read (a dummy slot is), and the levels are scanned again. Nor is the
    /// copy necessarily the freshest: a `write` of the same id can be
    /// buffered and flushed into a level the scan has already passed.
    /// Re-buffering that stale copy would shadow the newer one (the buffer
    /// wins by convention), so the copy a scan found is only trusted if no
    /// structural pass ran since the buffer was last seen not to hold the
    /// id; otherwise the levels are scanned again.
    pub fn read(&self, id: u64) -> Result<Vec<u8>, ObliviousError> {
        if !self.contains(id) {
            return Err(ObliviousError::NotCached { id });
        }
        self.stats.reads_served.inc();

        loop {
            // Buffer hit: served from agent memory, no storage I/O (Figure
            // 8(b)). The epoch is sampled under the front lock, which every
            // structural pass holds from start to end.
            let epoch = {
                let front = self.front.read();
                if let Some(&pos) = front.index.get(&id) {
                    self.stats.buffer_hits.inc();
                    return Ok(front.entries[pos].1.clone());
                }
                self.write_epoch()
            };

            let Some(payload) = self.scan_levels(id)? else {
                continue;
            };

            // Figure 8(b): "add B1 to buffer; if buffer is full ... copy
            // buffer into level1". Sequentially neither early exit is ever
            // taken: the buffer was checked above and nothing ran in between.
            let mut front = self.front.write();
            if let Some(&pos) = front.index.get(&id) {
                // A racing reader or writer re-buffered the id: that copy is
                // at least as fresh as ours.
                return Ok(front.entries[pos].1.clone());
            }
            if self.write_epoch() != epoch {
                continue;
            }
            let pos = front.entries.len();
            front.index.insert(id, pos);
            front.entries.push((id, payload.clone()));
            if front.entries.len() >= self.cfg.buffer_blocks as usize {
                self.flush_buffer(&mut front)?;
            }
            return Ok(payload);
        }
    }

    /// One Figure 8(b) pass over the hierarchy for `id`, in two ascending
    /// phases: one index bucket in every level, then one data slot in every
    /// level — real in the shallowest level whose index names the id, dummy
    /// everywhere else. The index regions lie back to back, so the first
    /// phase's hops are short forward skips. Returns the shallowest copy, or
    /// `None` if the level holding it was rebuilt between its two probes:
    /// its slot is never read under an epoch other than the one whose index
    /// named it, and the caller scans again.
    fn scan_levels(&self, id: u64) -> Result<Option<Vec<u8>>, ObliviousError> {
        let start = self.now_us();
        let mut retrieve_ios = 0u64;
        // Every probe of the pass, index or data, real or dummy, reads into
        // this one block.
        let mut scratch = vec![0u8; self.codec.block_size()];

        // The hit: the level, the slot its index names and the level's epoch.
        let mut hit: Option<(usize, u64, u64)> = None;
        for (li, slot) in self.levels.iter().enumerate() {
            let level = slot.read();
            if hit.is_none() && level.len() > 0 {
                let (data_slot, index_reads) = level.lookup(&self.device, id, &mut scratch)?;
                retrieve_ios += index_reads;
                hit = data_slot.map(|data_slot| (li, data_slot, level.epoch));
            } else {
                // Either the block was already found higher up, or the level
                // is empty: a dummy probe, so every read looks the same.
                let bucket = self.rng.lock().next_u64() % level.index.num_blocks;
                level.dummy_index_probe(&self.device, bucket, &mut scratch)?;
                retrieve_ios += 1;
            }
        }

        let mut found: Option<Vec<u8>> = None;
        for (li, slot) in self.levels.iter().enumerate() {
            let level = slot.read();
            match hit {
                Some((hit_li, data_slot, epoch)) if hit_li == li && level.epoch == epoch => {
                    let (read_id, payload) =
                        level.read_slot(&self.device, &self.codec, data_slot, &mut scratch)?;
                    if read_id != id {
                        return Err(ObliviousError::Corrupt(format!(
                            "slot {data_slot} of level {} holds id {read_id}, expected {id}",
                            li + 1
                        )));
                    }
                    found = Some(payload.to_vec());
                }
                _ => {
                    // Where a dummy data probe may land: the occupied prefix,
                    // like every real read. Occupancy is public (the
                    // re-order's write range shows it), so a probe behind the
                    // prefix would be recognisably a dummy — and if only some
                    // dummies could land there, tell which kind it was. An
                    // empty level has no prefix to hide in; any slot does.
                    // The DRBG lock is released before the device wait.
                    let len = level.len() as u64;
                    let dummy_range = if len > 0 { len } else { level.capacity };
                    let data_slot = self.rng.lock().gen_range(dummy_range);
                    level.read_slot_raw(&self.device, data_slot, &mut scratch)?;
                }
            }
            retrieve_ios += 1;
        }
        self.stats.retrieve_ios.add(retrieve_ios);
        self.stats.retrieve_time_us.add(self.now_us() - start);

        hit.map(|_| found).ok_or_else(|| {
            ObliviousError::Corrupt(format!(
                "membership set contains {id} but no level holds it"
            ))
        })
    }

    /// Flush the buffer into level 1, cascading full levels downwards and
    /// re-ordering every level that receives items — the `dump` procedure of
    /// Figure 8(b). Every merge is one streaming pass
    /// ([`Level::merge_reorder`]): the upper copies win on duplicate ids
    /// (they are fresher), and both the emptied level and the receiving
    /// level's old contents flow from ranged reads into the external sort
    /// without being materialized.
    ///
    /// Called with the front-buffer write lock held (every structural entry
    /// point holds it), which makes structural passes mutually exclusive;
    /// the write epoch records that exclusivity observably.
    fn flush_buffer(&self, front: &mut FrontBuffer) -> Result<(), ObliviousError> {
        if front.entries.is_empty() {
            return Ok(());
        }
        self.write_epoch.fetch_add(1, Ordering::Release);
        let result = self.flush_buffer_inner(front);
        self.write_epoch.fetch_add(1, Ordering::Release);
        result
    }

    fn flush_buffer_inner(&self, front: &mut FrontBuffer) -> Result<(), ObliviousError> {
        let start = self.now_us();

        // Plan the cascade, acquiring level write locks in ascending order
        // (all of them before the DRBG — the documented lock order). Every
        // level in `guards` but the last is emptied into the one below it.
        // The cascade stops at the first level with room for the one above
        // or at the last level, which always has room once duplicates are
        // dropped: `insert` holds membership to `last_level_blocks`, which
        // the last level's capacity covers. Only occupancy (public) decides.
        let mut guards: Vec<RwLockWriteGuard<'_, Level>> = vec![self.levels[0].write()];
        if !guards[0].can_accept(front.entries.len()) {
            while let Some(next) = self.levels.get(guards.len()) {
                let upper_len = guards[guards.len() - 1].len();
                guards.push(next.write());
                if guards[guards.len() - 1].can_accept(upper_len) {
                    break;
                }
            }
        }

        let mut rng = self.rng.lock();
        let mut io = MaintenanceIo::default();

        // Deepest first, exactly as the recursive dump of Figure 8(b). An
        // upper level is cleared only once the level below holds its items.
        for d in (1..guards.len()).rev() {
            let (upper, lower) = guards.split_at_mut(d);
            io += lower[0].merge_reorder(
                &self.device,
                &self.codec,
                &self.sorter,
                &self.master_key,
                &mut rng,
                &[],
                Some(&upper[d - 1]),
            )?;
            upper[d - 1].clear(&mut rng);
        }

        // The merge borrows the buffer, which is cleared only on success:
        // if the merge fails before its first write (a corrupt level slot
        // surfacing mid-stream), the level rolls back and the buffered items
        // stay readable from the buffer instead of being silently lost.
        io += guards[0].merge_reorder(
            &self.device,
            &self.codec,
            &self.sorter,
            &self.master_key,
            &mut rng,
            &front.entries,
            None,
        )?;
        front.entries.clear();
        front.index.clear();

        self.stats.sort_ios.add(io.total());
        self.stats.reorders.add(guards.len() as u64);
        self.stats.sort_time_us.add(self.now_us() - start);
        Ok(())
    }

    /// Audit the agent-memory bookkeeping: `membership` must equal the union
    /// of the buffered ids and every level manifest (items are cached
    /// forever, so nothing may leak in either direction across flushes and
    /// cascade re-orders), and the buffer index must mirror the buffer
    /// exactly. Exposed for tests and the bench harness; safe to call while
    /// other threads are mid-operation (it snapshots under the membership
    /// and front read locks, which freezes structural passes).
    pub fn membership_is_consistent(&self) -> bool {
        let membership = self.membership.read();
        let front = self.front.read();
        let buffer_indexed = front.index.len() == front.entries.len()
            && front
                .entries
                .iter()
                .enumerate()
                .all(|(pos, (id, _))| front.index.get(id) == Some(&pos));
        let mut union: DetHashSet<u64> = front.entries.iter().map(|&(id, _)| id).collect();
        for level in &self.levels {
            union.extend(level.read().manifest.keys().copied());
        }
        buffer_indexed
            && union.len() == membership.len()
            && union.iter().all(|id| membership.contains(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use stegfs_blockdev::{Io, IoKind, Layered, MemDevice};

    const BLOCK: usize = 512;

    fn new_store(
        buffer_blocks: u64,
        last_level_blocks: u64,
    ) -> ObliviousStore<MemDevice, MemDevice> {
        let cfg = ObliviousConfig::new(buffer_blocks, last_level_blocks);
        let blocks = ObliviousStore::<MemDevice, MemDevice>::blocks_required(&cfg, BLOCK);
        let sort_blocks = ObliviousStore::<MemDevice, MemDevice>::sort_blocks_required(&cfg);
        let device = MemDevice::new(blocks, BLOCK);
        let sort_device = MemDevice::new(sort_blocks + 8, BLOCK + 32);
        ObliviousStore::new(
            device,
            sort_device,
            cfg,
            Key256::from_passphrase("test master"),
            1234,
            None,
        )
        .unwrap()
    }

    fn payload(id: u64) -> Vec<u8> {
        vec![(id % 251) as u8; 200]
    }

    #[test]
    fn failed_flush_keeps_buffered_items_readable() {
        let store = new_store(4, 32);
        // One full flush moves ids 0..4 into level 1.
        for id in 0..4u64 {
            store.insert(id, payload(id)).unwrap();
        }
        assert!(store.levels[0].read().len() > 0);

        // Corrupt one of level 1's occupied slots directly on the device.
        let (slot, data_offset) = {
            let level = store.levels[0].read();
            (*level.manifest.values().next().unwrap(), level.data_offset)
        };
        store
            .device
            .write_block(data_offset + slot, &[0x5Au8; BLOCK])
            .unwrap();

        // Refill the buffer; the fourth insert triggers the flush, which
        // hits the corrupt slot while streaming level 1 into the sort.
        for id in 100..103u64 {
            store.insert(id, payload(id)).unwrap();
        }
        assert!(matches!(
            store.insert(103, payload(103)),
            Err(ObliviousError::Corrupt(_))
        ));

        // The failure surfaced before any level write: the level rolled
        // back, the buffer still holds every pending item, and the
        // bookkeeping invariants survived. The write epoch is even again —
        // the failed structural pass closed its guard on the way out.
        assert!(store.membership_is_consistent());
        assert_eq!(store.write_epoch() % 2, 0);
        for id in 100..104u64 {
            assert_eq!(store.read(id).unwrap(), payload(id), "id {id}");
        }
    }

    #[test]
    fn a_replayed_level_slot_fails_the_flush_that_sweeps_it() {
        // Level items carry no MAC and bind no slot, so a block copied over
        // another slot of the same level decodes cleanly. Merged as it
        // reads, level 1 would come out one slot longer than its manifest,
        // and the next cascade, sweeping only the manifest's prefix, would
        // drop a bystander (id 6) the attacker never touched.
        let store = new_store(4, 32);
        for id in 0..4u64 {
            store.insert(id, payload(id)).unwrap();
        }
        let data_offset = {
            let level = store.levels[0].read();
            assert_eq!((level.manifest[&3], level.manifest[&0]), (0, 1));
            level.data_offset
        };
        let mut block = vec![0u8; BLOCK];
        store.device.read_block(data_offset, &mut block).unwrap();
        store.device.write_block(data_offset + 1, &block).unwrap();

        for id in 4..7u64 {
            store.insert(id, payload(id)).unwrap();
        }
        assert_eq!(
            store.insert(7, payload(7)),
            Err(ObliviousError::Corrupt(
                "slot 1 of level 1 holds id 3, which the level does not place there".to_string()
            ))
        );
        assert!(store.membership_is_consistent());
        assert_eq!(store.read(6).unwrap(), payload(6));
    }

    /// The store is a cache with no on-disk state of its own: a start reads
    /// neither partition, so nothing a crash or an attacker left on them is
    /// ever trusted, and the first flush rewrites over it.
    #[test]
    fn a_new_store_reads_neither_partition() {
        let counting = |requests: &std::sync::Arc<AtomicU64>| {
            let requests = requests.clone();
            move |_: &MemDevice, _: Io| {
                requests.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
        };
        let main_requests = std::sync::Arc::new(AtomicU64::new(0));
        let sort_requests = std::sync::Arc::new(AtomicU64::new(0));
        let cfg = ObliviousConfig::new(4, 64);
        let blocks = ObliviousStore::<MemDevice, MemDevice>::blocks_required(&cfg, BLOCK);
        let sort_blocks = ObliviousStore::<MemDevice, MemDevice>::sort_blocks_required(&cfg);
        let main = MemDevice::new(blocks, BLOCK);
        main.write_blocks(0, &vec![0xFF; blocks as usize * BLOCK])
            .unwrap();
        let store = ObliviousStore::new(
            Layered::with_hook(main, counting(&main_requests)),
            Layered::with_hook(
                MemDevice::new(sort_blocks + 8, BLOCK + 32),
                counting(&sort_requests),
            ),
            cfg,
            Key256::from_passphrase("test master"),
            1234,
            None,
        )
        .unwrap();
        assert_eq!(main_requests.load(Ordering::Relaxed), 0, "main partition");
        assert_eq!(sort_requests.load(Ordering::Relaxed), 0, "sort partition");

        for id in 0..40u64 {
            store.insert(id, payload(id)).unwrap();
        }
        for id in 0..40u64 {
            assert_eq!(store.read(id).unwrap(), payload(id), "id {id}");
        }
        assert!(store.membership_is_consistent());
        assert!(main_requests.load(Ordering::Relaxed) > 0, "the hook counts");
    }

    #[test]
    fn read_returns_what_was_inserted() {
        let store = new_store(4, 32);
        for id in 0..20u64 {
            store.insert(id, payload(id)).unwrap();
        }
        for id in 0..20u64 {
            assert!(store.contains(id));
            assert_eq!(store.read(id).unwrap(), payload(id), "id {id}");
        }
        assert_eq!(store.len(), 20);
    }

    #[test]
    fn read_of_uncached_block_errors() {
        let store = new_store(4, 32);
        store.insert(1, payload(1)).unwrap();
        assert!(matches!(
            store.read(99),
            Err(ObliviousError::NotCached { id: 99 })
        ));
    }

    #[test]
    fn heavy_read_write_mix_stays_consistent() {
        let store = new_store(4, 64);
        let mut expected: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut rng = HashDrbg::from_u64(42);
        for step in 0..400u64 {
            let id = rng.gen_range(40);
            if rng.next_u64().is_multiple_of(3) || !expected.contains_key(&id) {
                let value = vec![(step % 256) as u8; 100 + (id as usize % 50)];
                store.write(id, value.clone()).unwrap();
                expected.insert(id, value);
            } else {
                let got = store.read(id).unwrap();
                assert_eq!(&got, expected.get(&id).unwrap(), "step {step}, id {id}");
            }
        }
        // Everything still readable at the end.
        for (id, value) in &expected {
            assert_eq!(&store.read(*id).unwrap(), value);
        }
    }

    #[test]
    fn cascade_pushes_items_into_deeper_levels() {
        let store = new_store(2, 32);
        // Insert enough distinct items to overflow levels 1 and 2.
        for id in 0..16u64 {
            store.insert(id, payload(id)).unwrap();
        }
        let occ = store.occupancy();
        // Something must have reached level 2 or deeper.
        assert!(
            occ[2..].iter().any(|&n| n > 0),
            "expected deep levels to be populated, occupancy {occ:?}"
        );
        assert!(store.stats().reorders > 0);
        // All still readable.
        for id in 0..16u64 {
            assert_eq!(store.read(id).unwrap(), payload(id));
        }
    }

    #[test]
    fn membership_stays_consistent_across_full_cascades() {
        // Small buffer + overwrites so flushes cascade through every level
        // repeatedly; the membership/manifest/buffer-index invariant must
        // hold at every step, not just at the end.
        let store = new_store(2, 32);
        for step in 0..96u64 {
            let id = step % 24; // revisits ids so duplicates flow down
            store.write(id, payload(id ^ step)).unwrap();
            assert!(
                store.membership_is_consistent(),
                "inconsistent at step {step}, occupancy {:?}",
                store.occupancy()
            );
        }
        assert_eq!(store.len(), 24);
        let mut reads = 0;
        for id in 0..24u64 {
            store.read(id).unwrap();
            reads += 1;
            assert!(store.membership_is_consistent(), "after read {reads}");
        }
        // Deep levels were exercised, not just level 1.
        assert!(store.stats().reorders > 4);
    }

    #[test]
    fn a_cascade_rebuilds_each_receiving_level_once() {
        // 32 ids fill the store to its membership cap; reading them round
        // and round re-buffers them, so the last level fills up and flushes
        // keep cascading into it. Whatever the last level holds, a flush
        // rebuilds every level it reaches once: at most one re-order per
        // level.
        let store = new_store(4, 32);
        let k = u64::from(store.num_levels());
        let last_capacity = store.config().level_capacity(store.num_levels()) as usize;
        for id in 0..32u64 {
            store.insert(id, payload(id)).unwrap();
        }
        let mut deep_cascades = 0;
        for n in 0..4096u64 {
            let id = n % 32;
            let full = store.occupancy()[k as usize] == last_capacity;
            let before = store.stats();
            assert_eq!(store.read(id).unwrap(), payload(id), "read {n}");
            let delta = store.stats().since(&before);
            assert!(
                delta.reorders <= k,
                "read {n}: {} re-orders over {k} levels",
                delta.reorders
            );
            assert!(store.membership_is_consistent(), "read {n}");
            if full && delta.reorders == k {
                deep_cascades += 1;
                println!(
                    "cascade into the full last level at read {n}: {} re-orders, {} sort I/Os",
                    delta.reorders, delta.sort_ios
                );
                if deep_cascades == 3 {
                    return;
                }
            }
        }
        panic!("{deep_cascades} cascades into the full last level");
    }

    #[test]
    fn every_read_touches_every_level() {
        let store = new_store(4, 32);
        for id in 0..12u64 {
            store.insert(id, payload(id)).unwrap();
        }
        let k = store.num_levels() as u64;
        let before = store.stats();
        // Pick an id that is certainly not in the buffer right now.
        let target = (0..12u64)
            .find(|id| !store.front.read().index.contains_key(id))
            .unwrap();
        store.read(target).unwrap();
        let delta = store.stats().since(&before);
        assert_eq!(delta.reads_served, 1);
        // At least one index probe + one data read per level.
        assert!(
            delta.retrieve_ios >= 2 * k,
            "retrieve_ios {} < 2k = {}",
            delta.retrieve_ios,
            2 * k
        );
    }

    #[test]
    fn buffer_hits_cost_no_io() {
        let store = new_store(8, 32);
        store.insert(5, payload(5)).unwrap();
        let before = store.stats();
        assert_eq!(store.read(5).unwrap(), payload(5));
        let delta = store.stats().since(&before);
        assert_eq!(delta.buffer_hits, 1);
        assert_eq!(delta.retrieve_ios, 0);
        assert_eq!(delta.sort_ios, 0);
    }

    #[test]
    fn overwrite_returns_latest_value() {
        let store = new_store(2, 32);
        for id in 0..10u64 {
            store.insert(id, payload(id)).unwrap();
        }
        // Overwrite an item that has by now been flushed into a level.
        store.write(3, vec![0xEE; 77]).unwrap();
        // Push more items so the overwrite itself gets flushed and must win
        // over the stale deep copy.
        for id in 10..20u64 {
            store.insert(id, payload(id)).unwrap();
        }
        assert_eq!(store.read(3).unwrap(), vec![0xEE; 77]);
    }

    #[test]
    fn capacity_exhaustion_is_reported() {
        let store = new_store(2, 8);
        for id in 0..8u64 {
            store.insert(id, vec![1u8; 10]).unwrap();
        }
        assert!(matches!(
            store.insert(100, vec![1u8; 10]),
            Err(ObliviousError::CapacityExhausted)
        ));
        // Overwriting an existing id is still allowed.
        store.insert(3, vec![2u8; 10]).unwrap();
    }

    #[test]
    fn oversized_item_rejected() {
        let store = new_store(2, 8);
        let too_big = vec![0u8; store.item_capacity() + 1];
        assert!(matches!(
            store.insert(1, too_big),
            Err(ObliviousError::ItemTooLarge { .. })
        ));
    }

    #[test]
    fn too_small_devices_are_rejected() {
        let cfg = ObliviousConfig::new(4, 32);
        let device = MemDevice::new(4, BLOCK);
        let sort_device = MemDevice::new(64, BLOCK + 32);
        assert!(matches!(
            ObliviousStore::new(
                device,
                sort_device,
                cfg,
                Key256::from_passphrase("k"),
                1,
                None
            ),
            Err(ObliviousError::DeviceTooSmall { .. })
        ));

        let blocks = ObliviousStore::<MemDevice, MemDevice>::blocks_required(&cfg, BLOCK);
        let device = MemDevice::new(blocks, BLOCK);
        let small_sort = MemDevice::new(2, BLOCK + 32);
        assert!(matches!(
            ObliviousStore::new(
                device,
                small_sort,
                cfg,
                Key256::from_passphrase("k"),
                1,
                None
            ),
            Err(ObliviousError::SortPartitionTooSmall { .. })
        ));
    }

    #[test]
    fn measured_overhead_close_to_analytic_2k_per_probe_read() {
        let store = new_store(4, 64);
        for id in 0..40u64 {
            store.insert(id, payload(id)).unwrap();
        }
        let k = store.num_levels() as f64;
        let before = store.stats();
        let mut probed = 0u64;
        for id in 0..40u64 {
            if !store.front.read().index.contains_key(&id) {
                store.read(id).unwrap();
                probed += 1;
            }
        }
        let delta = store.stats().since(&before);
        let per_read = delta.retrieve_ios as f64 / probed as f64;
        // Index probes occasionally cost 2 blocks, so allow some slack above 2k.
        assert!(
            per_read >= 2.0 * k && per_read <= 2.0 * k + 3.0,
            "per-read retrieve I/O {per_read}, k = {k}"
        );
    }

    #[test]
    fn concurrent_readers_share_the_store() {
        let store = new_store(4, 64);
        for id in 0..48u64 {
            store.insert(id, payload(id)).unwrap();
        }
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let store = &store;
                s.spawn(move || {
                    for i in 0..60u64 {
                        let id = (t * 13 + i * 7) % 48;
                        assert_eq!(store.read(id).unwrap(), payload(id), "id {id}");
                    }
                });
            }
        });
        assert!(store.membership_is_consistent());
        assert_eq!(store.write_epoch() % 2, 0, "structural guard left open");
        let stats = store.stats();
        assert_eq!(stats.reads_served, 8 * 60);
        assert_eq!(stats.inserts, 48);
    }

    /// A closure a device runs once, on the reading thread, before the first
    /// read of a block in the armed range.
    type Hook = Option<(std::ops::Range<u64>, Box<dyn FnOnce() + Send>)>;

    /// A store for `ObliviousConfig::new(4, 64)` whose main partition runs
    /// the [`Hook`] armed in the returned slot.
    fn hooked_store() -> (
        std::sync::Arc<ObliviousStore<impl BlockDevice + 'static, MemDevice>>,
        std::sync::Arc<Mutex<Hook>>,
    ) {
        let hook: std::sync::Arc<Mutex<Hook>> = std::sync::Arc::default();
        let run_hook = {
            let hook = hook.clone();
            move |_: &MemDevice, io: Io| {
                // The lock is released before the hook runs.
                let armed = hook.lock().take_if(|(range, _)| {
                    io.kind == IoKind::Read && io.block_ids().any(|b| range.contains(&b))
                });
                if let Some((_, run)) = armed {
                    run();
                }
                Ok(())
            }
        };
        let cfg = ObliviousConfig::new(4, 64);
        let blocks = ObliviousStore::<MemDevice, MemDevice>::blocks_required(&cfg, BLOCK);
        let sort_blocks = ObliviousStore::<MemDevice, MemDevice>::sort_blocks_required(&cfg);
        let store = ObliviousStore::new(
            Layered::with_hook(MemDevice::new(blocks, BLOCK), run_hook),
            MemDevice::new(sort_blocks + 8, BLOCK + 32),
            cfg,
            Key256::from_passphrase("test master"),
            1234,
            None,
        )
        .unwrap();
        (std::sync::Arc::new(store), hook)
    }

    #[test]
    fn read_racing_a_write_and_flush_of_the_same_id_returns_the_new_value() {
        // The lost-write interleaving, forced: a device whose read of one
        // chosen block first runs a hook. The hook fires while a reader is
        // holding the stale level-2 copy of id 3 and, on the reader's own
        // thread, overwrites id 3 and fills the buffer so the new value is
        // flushed into level 1 — behind the reader's scan.
        let (store, hook) = hooked_store();
        // Three flushes: ids 0..8 end up in level 2, ids 8..12 in level 1,
        // which has room for one more buffer.
        for id in 0..12u64 {
            store.insert(id, payload(id)).unwrap();
        }
        let stale_copy = {
            let level = store.levels[1].read();
            level.data_offset + level.manifest[&3]
        };
        assert!(!store.levels[0].read().manifest.contains_key(&3));

        let fresh = vec![0xF5u8; 64];
        let writer = store.clone();
        let value = fresh.clone();
        *hook.lock() = Some((
            stale_copy..stale_copy + 1,
            Box::new(move || {
                writer.write(3, value).unwrap();
                for id in 20..23u64 {
                    writer.insert(id, payload(id)).unwrap();
                }
                assert!(writer.levels[0].read().manifest.contains_key(&3));
            }),
        ));
        let epoch = store.write_epoch();
        assert_eq!(
            store.read(3).unwrap(),
            fresh,
            "the read returned a stale copy"
        );
        assert!(hook.lock().is_none(), "the hook never fired");
        assert_eq!(store.write_epoch(), epoch + 2);
        assert_eq!(
            store.read(3).unwrap(),
            fresh,
            "a stale copy was re-buffered"
        );
        // Two calls, however many scans the first one took.
        assert_eq!(store.stats().reads_served, 2);
        assert!(store.membership_is_consistent());
    }

    #[test]
    fn a_level_rebuilt_between_its_index_and_data_probes_is_scanned_again() {
        // The epoch rule, forced: a read finds id 9 in level 1's index;
        // while its index phase is probing level 2, a flush on the reader's
        // own thread rebuilds level 1 — a fresh permutation under a fresh
        // key — before the data phase comes back to level 1. The slot the
        // old index named now holds another item.
        let (store, hook) = hooked_store();
        // Three flushes: ids 0..8 end up in level 2, ids 8..12 in level 1,
        // which has room for one more buffer.
        for id in 0..12u64 {
            store.insert(id, payload(id)).unwrap();
        }
        let old_slot = store.levels[0].read().manifest[&9];
        let level_2_index = {
            let index = store.levels[1].read().index;
            index.offset..index.offset + index.num_blocks
        };

        let writer = store.clone();
        *hook.lock() = Some((
            level_2_index,
            Box::new(move || {
                for id in 20..24u64 {
                    writer.insert(id, payload(id)).unwrap();
                }
                let level = writer.levels[0].read();
                assert_eq!(level.len(), 8, "the flush went into level 1");
                assert_ne!(
                    level.manifest[&9], old_slot,
                    "the rebuild left id 9 in place"
                );
            }),
        ));
        let epoch = store.write_epoch();
        assert_eq!(store.read(9).unwrap(), payload(9));
        assert!(hook.lock().is_none(), "the hook never fired");
        assert_eq!(store.write_epoch(), epoch + 2);
        assert!(store.membership_is_consistent());
    }

    /// A scan reads the k index buckets first, level by level, then the k
    /// data slots, level by level. The index regions lie back to back at
    /// the front of the partition, so every hop between two index reads is
    /// a short forward skip — a near seek on the 2004 disk model — although
    /// the data regions of levels 4 to 6 (64, 128 and 256 slots) each span
    /// at least its near-seek window.
    #[test]
    fn a_scan_reads_every_index_then_every_data_slot_in_level_order() {
        use stegfs_blockdev::sim::DiskModel;
        use stegfs_blockdev::{TraceLog, TracingDevice};

        let model = DiskModel::ultra_ata_2004();
        let log = TraceLog::new();
        let cfg = ObliviousConfig::new(4, 256);
        let blocks = ObliviousStore::<MemDevice, MemDevice>::blocks_required(&cfg, BLOCK);
        let sort_blocks = ObliviousStore::<MemDevice, MemDevice>::sort_blocks_required(&cfg);
        let store = ObliviousStore::new(
            TracingDevice::with_log(MemDevice::new(blocks, BLOCK), log.clone()),
            MemDevice::new(sort_blocks + 8, BLOCK + 32),
            cfg,
            Key256::from_passphrase("test master"),
            1234,
            None,
        )
        .unwrap();
        for id in 0..160u64 {
            store.insert(id, payload(id)).unwrap();
        }
        let k = store.num_levels() as usize;
        let regions: Vec<_> = store
            .levels
            .iter()
            .map(|level| {
                let level = level.read();
                let index = level.index.offset..level.index.offset + level.index.num_blocks;
                (index, level.data_offset..level.data_offset + level.capacity)
            })
            .collect();

        // Per level: how the head got to its index read and to its data
        // read — counts of no positioning, a near seek and a full one. Level
        // 1's index read follows the previous request, so only the hops
        // inside a scan are counted.
        let mut index_hops = vec![[0u32; 3]; k];
        let mut data_hops = vec![[0u32; 3]; k];
        let tally = |hops: &mut [u32; 3], from: u64, to: u64| {
            let positioning =
                model.service_time_us(Some(from), to, 0) - model.per_request_overhead_us;
            hops[usize::from(positioning > 0) + usize::from(positioning > model.near_seek_us)] += 1;
        };
        let mut scans = 0;
        for n in 0..400u64 {
            let id = (n * 7) % 160;
            let before = store.stats();
            log.clear();
            assert_eq!(store.read(id).unwrap(), payload(id));
            let delta = store.stats().since(&before);
            // A buffer hit, a scan that read an overflow bucket or one
            // whose read triggered a flush: not a plain 2k-read scan.
            if delta.retrieve_ios != 2 * k as u64 || delta.reorders > 0 {
                continue;
            }
            let reads: Vec<u64> = log
                .records()
                .iter()
                .filter(|r| r.kind == IoKind::Read)
                .map(|r| r.block)
                .collect();
            assert_eq!(reads.len(), 2 * k, "read {n}");
            for (level, (index, data)) in regions.iter().enumerate() {
                assert!(
                    index.contains(&reads[level]),
                    "read {n}: index probe {level}"
                );
                assert!(
                    data.contains(&reads[k + level]),
                    "read {n}: data probe {level}"
                );
            }
            for (level, hop) in reads[..k].windows(2).enumerate() {
                assert!(
                    hop[1] > hop[0] && hop[1] - hop[0] <= model.near_seek_window,
                    "read {n}: index hop {} -> {} into level {}",
                    hop[0],
                    hop[1],
                    level + 2
                );
                tally(&mut index_hops[level + 1], hop[0], hop[1]);
            }
            for (level, hop) in reads[k - 1..].windows(2).enumerate() {
                tally(&mut data_hops[level], hop[0], hop[1]);
            }
            scans += 1;
        }
        for (level, (index, data)) in index_hops.iter().zip(&data_hops).enumerate() {
            println!(
                "level {}: index read none/near/full {index:?}, data read none/near/full {data:?}",
                level + 1
            );
        }
        println!("{scans} scans");
        assert!(scans >= 100, "only {scans} plain scans");
    }

    #[test]
    fn concurrent_writers_and_readers_stay_value_consistent() {
        // Disjoint id stripes per thread, so every id's final value is
        // well-defined; readers hammer the shared store while writers
        // overwrite their own stripe through cascading flushes.
        let store = new_store(4, 128);
        for id in 0..64u64 {
            store.insert(id, payload(id)).unwrap();
        }
        let shared = &store;
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    for round in 0..12u64 {
                        for i in 0..16u64 {
                            let id = t * 16 + i;
                            shared
                                .write(id, vec![(t as u8) ^ (round as u8); 64])
                                .unwrap();
                        }
                    }
                });
                s.spawn(move || {
                    for i in 0..120u64 {
                        let id = (t * 17 + i * 5) % 64;
                        let value = shared.read(id).unwrap();
                        assert!(!value.is_empty());
                    }
                });
            }
        });
        assert!(store.membership_is_consistent());
        assert_eq!(store.write_epoch() % 2, 0);
        for t in 0..4u64 {
            for i in 0..16u64 {
                let id = t * 16 + i;
                assert_eq!(
                    store.read(id).unwrap(),
                    vec![(t as u8) ^ 11u8; 64],
                    "id {id} lost its last write"
                );
            }
        }
    }

    /// Regression: the hash index is parsed straight off the device, and two
    /// flipped bytes in a bucket's count field walked the parent past the
    /// end of the block — a slice panic inside `read`, in release builds too.
    #[test]
    fn read_surfaces_a_corrupt_index_bucket_as_a_typed_error() {
        let store = new_store(4, 32);
        for id in 0..4u64 {
            store.insert(id, payload(id)).unwrap();
        }
        let index = store.levels[0].read().index;
        let mut bucket = vec![0u8; BLOCK];
        bucket[..2].fill(0xff);
        for b in 0..index.num_blocks {
            store.device.write_block(index.offset + b, &bucket).unwrap();
        }
        assert!(matches!(store.read(0), Err(ObliviousError::Corrupt(_))));
    }
}
