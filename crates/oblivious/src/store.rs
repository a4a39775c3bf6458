//! The oblivious storage proper: Figure 8(b).
//!
//! Goldreich and Ostrovsky's hierarchy is sequential: every access is one
//! whole scan, every `dump` one whole rebuild. The store keeps it that way.
//! The front buffer, the membership set, the levels, the DRBG and the count
//! of structural passes sit behind one lock, and every public call holds it
//! from start to end. So a read is one scan whatever the scheduling: no
//! flush can rebuild a level between its index probe and its data probe, and
//! no write can slip in between the scan and the re-buffering of what it
//! found. Every method still takes `&self`, so the serving layer can share
//! one store across threads; the counters are read and bumped without the
//! lock.

use parking_lot::Mutex;
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

/// Everything a call reads or changes, behind the store's one lock.
struct State {
    front: FrontBuffer,
    membership: DetHashSet<u64>,
    levels: Vec<Level>,
    rng: HashDrbg,
    /// Structural passes (buffer flushes with their cascades) started.
    passes: u64,
}

/// The hierarchical oblivious store of Section 5.
///
/// `D` is the device holding the level hierarchy (the "oblivious partition");
/// `S` is the sort-partition device used by the external merge sort during
/// re-ordering. Both are typically wrappers around the same simulated disk in
/// the benchmark harness.
///
/// Every method takes `&self` and the store is `Sync`, but calls run one at a
/// time: each holds the store's lock from start to end. Every run of the
/// same call sequence consumes the DRBG in the same order, so traces are
/// bit-for-bit identical; with several threads every item reads back what
/// was last written, while the order of the calls depends on scheduling.
pub struct ObliviousStore<D, S> {
    device: D,
    sorter: ExternalSorter<S>,
    codec: BlockCodec,
    cfg: ObliviousConfig,
    master_key: Key256,
    stats: SharedObliviousStats,
    clock: Option<SimClock>,
    state: Mutex<State>,
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
                index_offset += level.index_blocks;
                data_offset += capacity;
                level
            })
            .collect();

        Ok(Self {
            sorter: ExternalSorter::new(sort_device, cfg.buffer_blocks.max(2) as usize),
            device,
            codec: BlockCodec::one_chain(block_size),
            cfg,
            master_key,
            stats: SharedObliviousStats::default(),
            clock,
            state: Mutex::new(State {
                front: FrontBuffer::default(),
                membership: DetHashSet::default(),
                levels,
                rng: HashDrbg::new(&seed.to_be_bytes()),
                passes: 0,
            }),
        })
    }

    /// Largest payload (in bytes) an item may have.
    pub fn item_capacity(&self) -> usize {
        Level::item_capacity(self.codec.block_size())
    }

    /// Number of hierarchy levels.
    pub fn num_levels(&self) -> u32 {
        self.cfg.num_levels()
    }

    /// The configuration in use.
    pub fn config(&self) -> &ObliviousConfig {
        &self.cfg
    }

    /// Whether logical block `id` is cached anywhere in the store.
    pub fn contains(&self, id: u64) -> bool {
        self.state.lock().membership.contains(&id)
    }

    /// Number of distinct logical blocks cached.
    pub fn len(&self) -> usize {
        self.state.lock().membership.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.state.lock().membership.is_empty()
    }

    /// Counters collected so far (a relaxed snapshot; exact at quiescence).
    pub fn stats(&self) -> ObliviousStats {
        self.stats.snapshot()
    }

    /// Twice the number of structural passes (buffer flushes with their
    /// cascades) started, failed ones included: `write_epoch() / 2` counts
    /// them. Always even, since no call can observe a pass in flight.
    pub fn write_epoch(&self) -> u64 {
        2 * self.state.lock().passes
    }

    /// Number of items per level, buffer first — handy for tests and the
    /// benchmark harness.
    pub fn occupancy(&self) -> Vec<usize> {
        let state = self.state.lock();
        let mut v = vec![state.front.entries.len()];
        v.extend(state.levels.iter().map(Level::len));
        v
    }

    fn now_us(&self) -> u64 {
        self.clock.as_ref().map(|c| c.now_us()).unwrap_or(0)
    }

    /// Insert (or overwrite) a cached item. New items enter through the
    /// agent's buffer exactly like freshly read ones, so an attacker cannot
    /// tell an insert-triggered flush from a read-triggered one.
    pub fn insert(&self, id: u64, payload: Vec<u8>) -> Result<(), ObliviousError> {
        if payload.len() > self.item_capacity() {
            return Err(ObliviousError::ItemTooLarge {
                got: payload.len(),
                max: self.item_capacity(),
            });
        }
        let mut state = self.state.lock();
        if state.membership.len() >= self.cfg.last_level_blocks as usize
            && !state.membership.contains(&id)
        {
            return Err(ObliviousError::CapacityExhausted);
        }
        self.stats.inserts.inc();
        state.membership.insert(id);
        if let Some(&pos) = state.front.index.get(&id) {
            state.front.entries[pos].1 = payload;
            return Ok(());
        }
        self.buffer(&mut state, id, payload)
    }

    /// Overwrite the cached copy of `id`. Identical to [`ObliviousStore::insert`];
    /// provided for readability at call sites that update rather than fetch.
    pub fn write(&self, id: u64, payload: Vec<u8>) -> Result<(), ObliviousError> {
        self.insert(id, payload)
    }

    /// Read logical block `id` — Figure 8(b).
    ///
    /// The request touches one index block in *every* level, in level
    /// order, then one data slot in every level, in level order, regardless
    /// of where (or whether) the block was found, so the observable access
    /// pattern is independent of the request stream.
    pub fn read(&self, id: u64) -> Result<Vec<u8>, ObliviousError> {
        let mut state = self.state.lock();
        if !state.membership.contains(&id) {
            return Err(ObliviousError::NotCached { id });
        }
        self.stats.reads_served.inc();

        // Buffer hit: served from agent memory, no storage I/O (Figure 8(b)).
        if let Some(&pos) = state.front.index.get(&id) {
            self.stats.buffer_hits.inc();
            return Ok(state.front.entries[pos].1.clone());
        }

        // Figure 8(b): "add B1 to buffer; if buffer is full ... copy buffer
        // into level1".
        let payload = self.scan_levels(&mut state, id)?;
        self.buffer(&mut state, id, payload.clone())?;
        Ok(payload)
    }

    /// Append an item the buffer does not hold, flushing a full buffer.
    fn buffer(&self, state: &mut State, id: u64, payload: Vec<u8>) -> Result<(), ObliviousError> {
        let front = &mut state.front;
        front.index.insert(id, front.entries.len());
        front.entries.push((id, payload));
        if front.entries.len() >= self.cfg.buffer_blocks as usize {
            self.flush_buffer(state)?;
        }
        Ok(())
    }

    /// One Figure 8(b) pass over the hierarchy for `id`, in two ascending
    /// phases: one index block in every level, then one data slot in every
    /// level — real in the shallowest level whose manifest holds the id,
    /// dummy everywhere else. Every index probe reads a DRBG-drawn block of
    /// its level's region, whatever the id and wherever it is found: Section
    /// 5.1.2's hashed lookup looks each (id, epoch) pair up at most once, so
    /// to an observer its block is such a draw, and the manifests, not the
    /// block read, give the slot. The index regions lie back to back, so the
    /// first phase's hops are short forward skips. A scan is exactly 2k
    /// reads. Returns the shallowest copy, which is the freshest: copies only
    /// ever move downward.
    fn scan_levels(&self, state: &mut State, id: u64) -> Result<Vec<u8>, ObliviousError> {
        let State { levels, rng, .. } = state;
        let start = self.now_us();
        // Every probe of the pass, index or data, real or dummy, reads into
        // this one block.
        let mut scratch = vec![0u8; self.codec.block_size()];

        for level in levels.iter() {
            let block = level.index_offset + rng.gen_range(level.index_blocks);
            self.device.read_block(block, &mut scratch)?;
        }
        // The hit: the level that holds the id and its slot there.
        let hit = levels
            .iter()
            .enumerate()
            .find_map(|(li, level)| level.manifest.get(&id).map(|&data_slot| (li, data_slot)));

        let mut found: Option<Vec<u8>> = None;
        for (li, level) in levels.iter().enumerate() {
            match hit {
                Some((hit_li, data_slot)) if hit_li == li => {
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
                    let len = level.len() as u64;
                    let dummy_range = if len > 0 { len } else { level.capacity };
                    let data_slot = rng.gen_range(dummy_range);
                    self.device
                        .read_block(level.data_offset + data_slot, &mut scratch)?;
                }
            }
        }
        self.stats.retrieve_ios.add(2 * levels.len() as u64);
        self.stats.retrieve_time_us.add(self.now_us() - start);

        found.ok_or_else(|| {
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
    fn flush_buffer(&self, state: &mut State) -> Result<(), ObliviousError> {
        let State {
            front,
            levels,
            rng,
            passes,
            ..
        } = state;
        let start = self.now_us();
        *passes += 1;

        // Plan the cascade: the first `depth` levels receive items, and
        // every one of them but the last is emptied into the one below it.
        // The cascade stops at the first level with room for the one above
        // or at the last level, which always has room once duplicates are
        // dropped: `insert` holds membership to `last_level_blocks`, which
        // the last level's capacity covers. Only occupancy (public) decides.
        let (mut depth, mut incoming) = (1, front.entries.len());
        while depth < levels.len() && !levels[depth - 1].can_accept(incoming) {
            incoming = levels[depth - 1].len();
            depth += 1;
        }

        // Deepest first, exactly as the recursive dump of Figure 8(b). An
        // upper level is cleared only once the level below holds its items.
        let mut io = MaintenanceIo::default();
        for d in (1..depth).rev() {
            let (upper, lower) = levels.split_at_mut(d);
            io += lower[0].merge_reorder(
                &self.device,
                &self.codec,
                &self.sorter,
                &self.master_key,
                rng,
                &[],
                Some(&upper[d - 1]),
            )?;
            upper[d - 1].clear();
        }

        // The merge borrows the buffer, which is cleared only on success:
        // if the merge fails before its first write (a corrupt level slot
        // surfacing mid-stream), the level rolls back and the buffered items
        // stay readable from the buffer instead of being silently lost.
        io += levels[0].merge_reorder(
            &self.device,
            &self.codec,
            &self.sorter,
            &self.master_key,
            rng,
            &front.entries,
            None,
        )?;
        front.entries.clear();
        front.index.clear();

        self.stats.sort_ios.add(io.total());
        self.stats.reorders.add(depth as u64);
        self.stats.sort_time_us.add(self.now_us() - start);
        Ok(())
    }

    /// Audit the agent-memory bookkeeping: `membership` must equal the union
    /// of the buffered ids and every level manifest (items are cached
    /// forever, so nothing may leak in either direction across flushes and
    /// cascade re-orders), and the buffer index must mirror the buffer
    /// exactly. Exposed for tests and the bench harness.
    pub fn membership_is_consistent(&self) -> bool {
        let state = self.state.lock();
        let front = &state.front;
        let buffer_indexed = front.index.len() == front.entries.len()
            && front
                .entries
                .iter()
                .enumerate()
                .all(|(pos, (id, _))| front.index.get(id) == Some(&pos));
        let mut union: DetHashSet<u64> = front.entries.iter().map(|&(id, _)| id).collect();
        for level in &state.levels {
            union.extend(level.manifest.keys().copied());
        }
        buffer_indexed
            && union.len() == state.membership.len()
            && union.iter().all(|id| state.membership.contains(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::Arc;
    use stegfs_blockdev::{Counter, Io, IoKind, Layered, MemDevice};

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
    fn slots_are_one_cbc_chain_under_the_stored_iv() {
        // The store seals whole level runs, which fill the multi-buffer
        // kernel one block per chain: its slots keep the one-chain format,
        // not the volume's laned one.
        use stegfs_crypto::{Aes256, CbcCipher, HashDrbg};
        let store = new_store(4, 32);
        let key = Key256::from_passphrase("slot key");
        let plain: Vec<u8> = (0..BLOCK - IV_SIZE).map(|i| (i * 13) as u8).collect();
        let sealed = store
            .codec
            .seal(&key, &plain, &mut HashDrbg::from_u64(5))
            .unwrap();
        let (iv, field) = sealed.split_first_chunk::<IV_SIZE>().unwrap();
        let cbc = CbcCipher::new(Aes256::new(key.as_bytes()));
        assert_eq!(field, &cbc.encrypt(iv, &plain).unwrap()[..]);
    }

    #[test]
    fn failed_flush_keeps_buffered_items_readable() {
        let store = new_store(4, 32);
        // One full flush moves ids 0..4 into level 1.
        for id in 0..4u64 {
            store.insert(id, payload(id)).unwrap();
        }
        assert!(store.state.lock().levels[0].len() > 0);

        // Corrupt one of level 1's occupied slots directly on the device.
        let (slot, data_offset) = {
            let level = &store.state.lock().levels[0];
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
        // bookkeeping invariants survived. The failed pass still counts as
        // one.
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
        // Id 3's slot is copied over id 0's.
        let (data_offset, from, to) = {
            let level = &store.state.lock().levels[0];
            (level.data_offset, level.manifest[&3], level.manifest[&0])
        };
        let mut block = vec![0u8; BLOCK];
        store
            .device
            .read_block(data_offset + from, &mut block)
            .unwrap();
        store.device.write_block(data_offset + to, &block).unwrap();

        for id in 4..7u64 {
            store.insert(id, payload(id)).unwrap();
        }
        assert_eq!(
            store.insert(7, payload(7)),
            Err(ObliviousError::Corrupt(format!(
                "slot {to} of level 1 holds id 3, which the level does not place there"
            )))
        );
        assert!(store.membership_is_consistent());
        assert_eq!(store.read(6).unwrap(), payload(6));
    }

    /// The store is a cache with no on-disk state of its own: a start reads
    /// neither partition, so nothing a crash or an attacker left on them is
    /// ever trusted, and the first flush rewrites over it.
    #[test]
    fn a_new_store_reads_neither_partition() {
        let counting = |requests: &Arc<Counter>| {
            let requests = requests.clone();
            move |_: &MemDevice, _: Io| {
                requests.inc();
                Ok(())
            }
        };
        let main_requests = Arc::new(Counter::default());
        let sort_requests = Arc::new(Counter::default());
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
        assert_eq!(main_requests.get(), 0, "main partition");
        assert_eq!(sort_requests.get(), 0, "sort partition");

        for id in 0..40u64 {
            store.insert(id, payload(id)).unwrap();
        }
        for id in 0..40u64 {
            assert_eq!(store.read(id).unwrap(), payload(id), "id {id}");
        }
        assert!(store.membership_is_consistent());
        assert!(main_requests.get() > 0, "the hook counts");
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
            .find(|id| !store.state.lock().front.index.contains_key(id))
            .unwrap();
        store.read(target).unwrap();
        let delta = store.stats().since(&before);
        assert_eq!(delta.reads_served, 1);
        // One index probe and one data read per level.
        assert_eq!(delta.retrieve_ios, 2 * k);
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
        let k = u64::from(store.num_levels());
        let before = store.stats();
        let mut probed = 0u64;
        for id in 0..40u64 {
            if !store.state.lock().front.index.contains_key(&id) {
                store.read(id).unwrap();
                probed += 1;
            }
        }
        let delta = store.stats().since(&before);
        assert!(probed > 0);
        assert_eq!(
            delta.retrieve_ios,
            2 * k * probed,
            "{probed} reads, k = {k}"
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

    /// A read is one scan, whatever the scheduling. A device hook pauses a
    /// read between its index phase and its data phase and starts, on
    /// another thread, a write of the same id plus the inserts that flush
    /// it. The writer waits for the lock: none of its requests comes before
    /// the read's last one, the read issues exactly its 2k probes and
    /// returns the old value, and the next read returns the new one.
    #[test]
    fn concurrent_write_and_flush_wait_for_a_read_between_its_phases() {
        type Armed = Option<Box<dyn FnOnce() + Send>>;
        type Log = Arc<Mutex<Vec<std::thread::ThreadId>>>;
        let cfg = ObliviousConfig::new(4, 64);
        let blocks = ObliviousStore::<MemDevice, MemDevice>::blocks_required(&cfg, BLOCK);
        let sort_blocks = ObliviousStore::<MemDevice, MemDevice>::sort_blocks_required(&cfg);
        let data_region = blocks - cfg.total_slots()..blocks;
        let (log, armed): (Log, Arc<Mutex<Armed>>) = Default::default();
        let hook = {
            let (log, armed) = (log.clone(), armed.clone());
            move |_: &MemDevice, io: Io| {
                log.lock().push(std::thread::current().id());
                let data_read =
                    io.kind == IoKind::Read && io.block_ids().any(|b| data_region.contains(&b));
                // The slot's lock is released before the hook runs.
                let run = armed.lock().take_if(|_| data_read);
                if let Some(run) = run {
                    run();
                }
                Ok(())
            }
        };
        let store = Arc::new(
            ObliviousStore::new(
                Layered::with_hook(MemDevice::new(blocks, BLOCK), hook),
                MemDevice::new(sort_blocks + 8, BLOCK + 32),
                cfg,
                Key256::from_passphrase("test master"),
                1234,
                None,
            )
            .unwrap(),
        );
        // Three flushes: id 3 ends up in level 2 and the buffer is empty.
        for id in 0..12u64 {
            store.insert(id, payload(id)).unwrap();
        }
        let k = u64::from(store.num_levels());
        let fresh = vec![0xF5u8; 64];

        let writer_thread = Arc::new(Mutex::new(None));
        *armed.lock() = Some(Box::new({
            let (store, fresh, writer_thread) =
                (store.clone(), fresh.clone(), writer_thread.clone());
            move || {
                let (started, wait) = std::sync::mpsc::channel();
                *writer_thread.lock() = Some(std::thread::spawn(move || {
                    started.send(()).unwrap();
                    store.write(3, fresh).unwrap();
                    for id in 20..23u64 {
                        store.insert(id, payload(id)).unwrap();
                    }
                }));
                // Room for the writer to run ahead, were the read not one
                // call under one lock.
                wait.recv().unwrap();
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        }));

        let (epoch, before) = (store.write_epoch(), store.stats());
        log.lock().clear();
        assert_eq!(store.read(3).unwrap(), payload(3), "the read's own value");
        assert_eq!(store.stats().since(&before).retrieve_ios, 2 * k);
        let writer = writer_thread.lock().take().expect("the hook never fired");
        writer.join().unwrap();

        let log = log.lock().clone();
        let reader = std::thread::current().id();
        let reads = log.iter().filter(|&&t| t == reader).count();
        let first_write = log.iter().position(|&t| t != reader).expect("no flush");
        assert_eq!(reads as u64, 2 * k, "requests of the read");
        assert_eq!(first_write, reads, "the flush started inside the read");
        assert_eq!(store.write_epoch(), epoch + 2, "one flush");
        assert_eq!(store.read(3).unwrap(), fresh);
        assert!(store.membership_is_consistent());
    }

    /// A scan reads the k index blocks first, level by level, then the k
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
            .state
            .lock()
            .levels
            .iter()
            .map(|level| {
                let index = level.index_offset..level.index_offset + level.index_blocks;
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
            // A buffer hit or a read that triggered a flush: not a plain
            // 2k-read scan.
            if delta.buffer_hits > 0 || delta.reorders > 0 {
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

    /// Which index block a scan probes is a DRBG draw in every level, so two
    /// stores in one state, each reading an id the other does not, make the
    /// same k index reads; only the data phase goes where the manifests say.
    #[test]
    fn the_index_phase_does_not_depend_on_the_id_read() {
        use stegfs_blockdev::{TraceLog, TracingDevice};

        let cfg = ObliviousConfig::new(4, 256);
        let blocks = ObliviousStore::<MemDevice, MemDevice>::blocks_required(&cfg, BLOCK);
        let sort_blocks = ObliviousStore::<MemDevice, MemDevice>::sort_blocks_required(&cfg);
        let traced = || {
            let log = TraceLog::new();
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
            (store, log)
        };
        let k = cfg.num_levels() as usize;
        let scan = |(store, log): &(ObliviousStore<_, MemDevice>, TraceLog), id: u64| {
            log.clear();
            assert_eq!(store.read(id).unwrap(), payload(id));
            let reads: Vec<u64> = log
                .records()
                .iter()
                .filter(|r| r.kind == IoKind::Read)
                .map(|r| r.block)
                .collect();
            assert_eq!(reads.len(), 2 * k, "id {id}: one plain scan");
            reads
        };

        let (first, second) = (traced(), traced());
        // The smallest id of each of the first two levels whose index region
        // spans more than one block.
        let ids: Vec<u64> = first
            .0
            .state
            .lock()
            .levels
            .iter()
            .filter(|level| level.index_blocks > 1)
            .filter_map(|level| level.manifest.keys().min().copied())
            .take(2)
            .collect();
        assert_eq!(ids.len(), 2, "two levels with multi-block index regions");
        let (a, b) = (scan(&first, ids[0]), scan(&second, ids[1]));
        assert_eq!(a[..k], b[..k], "index phases of ids {ids:?}");
        assert_ne!(a[k..], b[k..], "data phases of ids {ids:?}");
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

    /// The index region holds noise and nothing reads it back: zeroing,
    /// flipping or `0xff`-filling every index block between reads leaves
    /// every cached id reading its last write, each scan still exactly 2k
    /// requests.
    #[test]
    fn index_damage_is_harmless() {
        let requests = Arc::new(Counter::default());
        let counting = {
            let requests = requests.clone();
            move |_: &MemDevice, _: Io| {
                requests.inc();
                Ok(())
            }
        };
        let cfg = ObliviousConfig::new(4, 64);
        let blocks = ObliviousStore::<MemDevice, MemDevice>::blocks_required(&cfg, BLOCK);
        let sort_blocks = ObliviousStore::<MemDevice, MemDevice>::sort_blocks_required(&cfg);
        let store = ObliviousStore::new(
            Layered::with_hook(MemDevice::new(blocks, BLOCK), counting),
            MemDevice::new(sort_blocks + 8, BLOCK + 32),
            cfg,
            Key256::from_passphrase("test master"),
            1234,
            None,
        )
        .unwrap();
        let k = u64::from(store.num_levels());
        let index_area = blocks - cfg.total_slots();
        let mut expected: HashMap<u64, Vec<u8>> = HashMap::new();
        for id in 0..48u64 {
            store.insert(id, payload(id)).unwrap();
            expected.insert(id, payload(id));
        }

        type Damage = fn(&mut [u8]);
        let damages: [(&str, Damage); 3] = [
            ("zeroed", |block| block.fill(0)),
            ("flipped", |block| {
                block.iter_mut().for_each(|byte| *byte ^= 0xff)
            }),
            ("0xff-filled", |block| block.fill(0xff)),
        ];
        let mut scans = 0;
        for (round, (name, damage)) in damages.into_iter().enumerate() {
            // Below the counting hook: the log holds the store's requests.
            let raw = store.device.inner();
            let mut block = vec![0u8; BLOCK];
            for b in 0..index_area {
                raw.read_block(b, &mut block).unwrap();
                damage(&mut block);
                raw.write_block(b, &block).unwrap();
            }
            // Rewrite a few ids, so later rounds also read from levels
            // re-ordered since the damage.
            for id in (round as u64..48).step_by(7) {
                let value = vec![round as u8 ^ id as u8; 90];
                store.write(id, value.clone()).unwrap();
                expected.insert(id, value);
            }
            for id in 0..48u64 {
                let before = (store.stats(), requests.get());
                assert_eq!(store.read(id).unwrap(), expected[&id], "{name}: id {id}");
                let delta = store.stats().since(&before.0);
                if delta.buffer_hits == 0 && delta.reorders == 0 {
                    assert_eq!(requests.get() - before.1, 2 * k, "{name}: id {id}");
                    scans += 1;
                }
            }
        }
        assert!(scans >= 100, "only {scans} plain scans");
        assert!(store.membership_is_consistent());
    }
}
