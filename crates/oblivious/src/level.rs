//! One level of the oblivious storage hierarchy.
//!
//! A level is an index region and a data region of `capacity` slots, placed
//! by the store: every level's index region lies in one area at the front of
//! the oblivious partition, every data region behind it. Every slot holds
//! one sealed item (`IV || CBC(id, length, payload)`) under the level's
//! current *epoch key*; re-ordering derives a fresh epoch key, so nothing
//! observable links a level's contents across epochs. Occupied slots are
//! always the contiguous prefix `0..len` because the only way items enter a
//! level is a full rewrite during re-ordering.
//!
//! The level's manifest, in agent memory, is its index: it finds the slot of
//! an id. Section 5.1.2 keeps a hash index of `(id, slot)` entries on the
//! device instead; here the index region keeps only what an observer sees of
//! that index — its size ([`index_blocks_for`]), one probe per read at a
//! DRBG-drawn block, and a whole rewrite per re-order — and holds noise
//! derived from the epoch key. A device image therefore names no slot,
//! nothing parses an index block, and damage to one costs nothing; Table
//! 4's I/O counts are unchanged.
//!
//! Maintenance (re-order / merge) moves data in ranged
//! [`BlockDevice::read_blocks`] / [`BlockDevice::write_blocks`] requests of
//! [`IO_BATCH_BLOCKS`] blocks: on the simulated disk a level sweep pays one
//! positioning per batch instead of one per block, which is what lets the
//! paper report sorting as a minority of access *time* despite being the
//! majority of I/O *operations* (Figure 12(b), Section 6.3).

use stegfs_base::wire::{Reader, Writer};
use stegfs_base::{BlockCodec, IV_SIZE};
use stegfs_blockdev::{BlockDevice, BlockId};
use stegfs_crypto::{Aes256, CbcCipher, HashDrbg, Key256, PIPELINE_WIDTH};

use crate::det::{DetHashMap, DetHashSet};
use crate::error::ObliviousError;
use crate::extsort::{ExternalSorter, MaintenanceIo};

/// Per-item header inside a sealed slot: id (8) + payload length (4) +
/// reserved (4).
pub(crate) const ITEM_HEADER: usize = 16;

/// Blocks moved per ranged request during maintenance sweeps. Large enough
/// that positioning cost amortises to noise on the 2004 disk model (64 × 4 KB
/// of transfer ≈ 6.7 ms against a 12.7 ms seek), small enough that the
/// staging buffers (~256 KB at 4 KB blocks) stay far below the agent's
/// memory budget.
pub(crate) const IO_BATCH_BLOCKS: u64 = 64;

/// Blocks in the index region of a level of `capacity` slots: the size of
/// Section 5.1.2's bucket index — 16-byte `(keyed hash, slot)` entries behind
/// a 2-byte count, at 50 % load. The region stores none of them, but keeps
/// that size, so the layout and the I/O of the paper's cost model stay.
pub(crate) fn index_blocks_for(capacity: u64, block_size: usize) -> u64 {
    let entries_per_block = ((block_size - 2) / 16) as u64;
    (capacity * 2).div_ceil(entries_per_block).max(1)
}

/// One level of the hierarchy.
pub(crate) struct Level {
    /// 1-based level number (for key derivation and diagnostics).
    pub index_no: u32,
    /// First block of the index region.
    pub index_offset: BlockId,
    /// Number of blocks in the index region.
    pub index_blocks: u64,
    /// First block of the data region.
    pub data_offset: BlockId,
    /// Number of item slots.
    pub capacity: u64,
    /// The level's index: id → slot, for the scan that reads a slot and for
    /// the re-order that sweeps them. Deterministic hashing (not `std`'s
    /// randomly seeded maps) so every run of a bin consumes the DRBG in the
    /// same order and produces identical bytes.
    pub manifest: DetHashMap<u64, u64>,
    /// Epoch counter (bumped at every re-order).
    pub epoch: u64,
    /// Encryption key of the current epoch.
    pub key: Key256,
}

/// Encode an item over the whole of `field` (a slot's plaintext data
/// field), zero-padded.
pub fn encode_item_into(field: &mut [u8], id: u64, payload: &[u8]) {
    let end = field.len();
    Writer::over(field)
        .u64(id)
        .u32(payload.len() as u32)
        .skip_to(ITEM_HEADER)
        .bytes(payload)
        .skip_to(end);
}

/// Inverse of [`encode_item_into`]: the id and the payload, borrowed from the
/// field. The payload length is checked against the field.
pub fn decode_item(plain: &[u8]) -> Result<(u64, &[u8]), ObliviousError> {
    let mut r = Reader::new(plain);
    let (id, len) = (r.u64()?, r.u32()?);
    r.skip_to(ITEM_HEADER)?;
    Ok((id, r.bytes(len as usize)?))
}

impl Level {
    /// Lay out a level with its index region at `index_offset` and its
    /// `capacity` data slots at `data_offset`; the caller places the two
    /// regions so they do not overlap.
    pub fn layout(
        index_no: u32,
        index_offset: BlockId,
        data_offset: BlockId,
        capacity: u64,
        block_size: usize,
        master_key: &Key256,
    ) -> Self {
        Self {
            index_no,
            index_offset,
            index_blocks: index_blocks_for(capacity, block_size),
            data_offset,
            capacity,
            manifest: DetHashMap::default(),
            epoch: 0,
            key: master_key.derive(&format!("oblivious:level{index_no}:epoch0")),
        }
    }

    /// Number of blocks (index + data) this level occupies.
    pub fn blocks_required(capacity: u64, block_size: usize) -> u64 {
        index_blocks_for(capacity, block_size) + capacity
    }

    /// Number of items currently stored.
    pub fn len(&self) -> usize {
        self.manifest.len()
    }

    /// Whether `extra` more items would fit.
    pub fn can_accept(&self, extra: usize) -> bool {
        self.manifest.len() + extra <= self.capacity as usize
    }

    /// Maximum payload bytes per item for a given device block size.
    pub fn item_capacity(block_size: usize) -> usize {
        (block_size - IV_SIZE) - ITEM_HEADER
    }

    /// Read the item in `slot` into `scratch` (one block, the caller's) and
    /// decrypt it there; the id and payload are borrowed from it.
    pub fn read_slot<'a, D: BlockDevice + ?Sized>(
        &self,
        device: &D,
        codec: &BlockCodec,
        slot: u64,
        scratch: &'a mut [u8],
    ) -> Result<(u64, &'a [u8]), ObliviousError> {
        device.read_block(self.data_offset + slot, scratch)?;
        codec
            .open_in_place(&self.key, scratch)
            .map_err(|e| ObliviousError::Corrupt(e.to_string()))?;
        decode_item(&scratch[IV_SIZE..])
    }

    /// Discard the level's contents. The on-disk blocks are left as they are
    /// (they are indistinguishable from live ciphertext anyway), and so is
    /// the epoch: the next re-order bumps it before it derives a key.
    pub fn clear(&mut self) {
        self.manifest.clear();
    }

    /// Rewrite the whole index region for the current epoch, in ranged
    /// writes of [`IO_BATCH_BLOCKS`] blocks: block `b` becomes one block of
    /// zeros CBC-encrypted under a key derived from the epoch key, with `b`
    /// as IV. The bytes depend on the epoch key and the geometry alone, so
    /// they carry nothing of what the level holds, draw nothing from the
    /// DRBG, and no part of one epoch's region predicts another's.
    fn rewrite_index<D: BlockDevice + ?Sized>(
        &self,
        device: &D,
        block_size: usize,
    ) -> Result<(), ObliviousError> {
        let cbc = CbcCipher::new(Aes256::new(self.key.derive("oblivious:index").as_bytes()));
        let batch = IO_BATCH_BLOCKS.min(self.index_blocks);
        let mut staging = vec![0u8; batch as usize * block_size];
        let end = self.index_offset + self.index_blocks;
        for first in (self.index_offset..end).step_by(batch as usize) {
            let window = &mut staging[..batch.min(end - first) as usize * block_size];
            window.fill(0);
            for (b, block) in (first..).zip(window.chunks_exact_mut(block_size)) {
                let mut iv = [0u8; IV_SIZE];
                Writer::over(&mut iv[..]).u64(b);
                cbc.encrypt_in_place(&iv, block)
                    .map_err(|e| ObliviousError::Corrupt(e.to_string()))?;
            }
            device.write_blocks(first, window)?;
        }
        Ok(())
    }

    /// Merge the fresher copies — `upper_items`, borrowed from the front
    /// buffer, or the items of `upper_level`, the level above — with this
    /// level's current contents and re-order the level to hold the union
    /// (the upper copy wins on a duplicate id): the `dump` merge of Figure
    /// 8(b) as one streaming pass. The upper level's occupied prefix and
    /// then this level's are decrypted lazily in ranged batches, each under
    /// its own epoch key, and flow straight into the external sort, so at no
    /// point is a level materialized in agent memory. The upper copies are
    /// only read: the buffer or the upper level still holds them if the
    /// merge fails, and the caller clears the upper level once it succeeds.
    #[allow(clippy::too_many_arguments)]
    pub fn merge_reorder<D, S>(
        &mut self,
        device: &D,
        codec: &BlockCodec,
        sorter: &ExternalSorter<S>,
        master_key: &Key256,
        rng: &mut HashDrbg,
        upper_items: &[(u64, Vec<u8>)],
        upper_level: Option<&Level>,
    ) -> Result<MaintenanceIo, ObliviousError>
    where
        D: BlockDevice + ?Sized,
        S: BlockDevice,
    {
        let upper_ids: DetHashSet<u64> = upper_items.iter().map(|&(id, _)| id).collect();
        let shadowed = |id: u64| {
            upper_ids.contains(&id) || upper_level.is_some_and(|l| l.manifest.contains_key(&id))
        };
        let kept_lower = self.manifest.keys().filter(|&&id| !shadowed(id)).count() as u64;
        let upper_len = upper_level.map_or(0, |level| level.len() as u64);
        let count = upper_items.len() as u64 + upper_len + kept_lower;
        if count > self.capacity {
            return Err(ObliviousError::CapacityExhausted);
        }

        let snapshot = self.take_snapshot();
        let old = snapshot.prefix(self);
        let upper_prefix = match upper_level {
            Some(level) => Prefix::of(level, &level.manifest, level.key),
            None => Prefix { len: 0, ..old },
        };
        let sweep = LevelSweep::new(device, codec, [upper_prefix, old]);
        let result = self.rebuild_with(
            codec,
            sorter,
            master_key,
            rng,
            upper_items,
            count,
            shadowed,
            sweep,
        );
        self.settle_rebuild(snapshot, result)
    }

    /// Capture the level's logical state and empty the manifest in
    /// preparation for a rebuild.
    fn take_snapshot(&mut self) -> LevelSnapshot {
        LevelSnapshot {
            manifest: std::mem::take(&mut self.manifest),
            key: self.key,
        }
    }

    /// Resolve a [`Level::rebuild_with`] outcome. On a failure that occurred
    /// before the first on-disk level write — a corrupt slot surfacing while
    /// the old contents stream into the sort, a sort-device error during run
    /// formation, an oversized item — the level's blocks are still the intact
    /// old permutation, so the logical state (manifest and epoch key) is
    /// rolled back and the level stays readable; only the epoch counter
    /// keeps its bump, so a retry derives a never-used key. After a write
    /// the old permutation is partially clobbered and nothing can be
    /// restored: the level keeps the post-failure state.
    fn settle_rebuild(
        &mut self,
        snapshot: LevelSnapshot,
        result: Result<MaintenanceIo, RebuildFailure>,
    ) -> Result<MaintenanceIo, ObliviousError> {
        match result {
            Ok(io) => Ok(io),
            Err(failure) => {
                if !failure.wrote {
                    self.manifest = snapshot.manifest;
                    self.key = snapshot.key;
                }
                Err(failure.error)
            }
        }
    }

    /// Tail of [`Level::merge_reorder`]: derive a fresh epoch key; seal into
    /// the sorter's run arena `upper_items`, then what `sweep` reads — the
    /// emptied upper level's items, then those of the level's old contents
    /// (still under the old epoch key) that are not `shadowed`, `count` items
    /// in all; sort them by random keys, write the new permutation back in
    /// ranged batches and rewrite the index region. The caller must have
    /// snapshotted the level state ([`Level::take_snapshot`]), counted the
    /// items and pre-checked capacity. Errors are tagged with whether any
    /// level block had been written, so [`Level::settle_rebuild`] knows when
    /// a rollback is safe.
    ///
    /// The producer handed to [`ExternalSorter::sort`] fills at most
    /// [`PIPELINE_WIDTH`] arena slots a call. Each item's plaintext is laid
    /// out in its slot exactly once — `IV || id, length, payload, zero pad`,
    /// which for a lower item re-encodes what was decoded, so stray reserved
    /// or pad bytes do not survive — drawing its IV and then its sort key
    /// from the DRBG: per item, in stream order, exactly the draws of a
    /// seal-one-item-at-a-time loop. The slots just filled are then sealed
    /// where they lie in one multi-buffer pass
    /// ([`BlockCodec::seal_blocks_in_place`]), byte-identical to that loop.
    /// The sorter offers only what the current run still holds and the
    /// count still owes, so the next ranged read of `sweep` is never issued
    /// ahead of the spill that precedes it on the device. On the sorter's
    /// closing empty offer the producer reads `sweep` to the end of both
    /// prefixes — trailing shadowed items included, so the blocks read stay
    /// a function of the public prefix lengths — and any item it still
    /// finds lies past the count: [`ObliviousError::Corrupt`], as is an
    /// input that ends short of it. An oversized item, a corrupt swept batch
    /// or a miscount aborts the sort — which outputs nothing before its
    /// input ends, so still before any level write — with the DRBG where the
    /// items before it left it.
    #[allow(clippy::too_many_arguments)]
    fn rebuild_with<D, S>(
        &mut self,
        codec: &BlockCodec,
        sorter: &ExternalSorter<S>,
        master_key: &Key256,
        rng: &mut HashDrbg,
        upper_items: &[(u64, Vec<u8>)],
        count: u64,
        shadowed: impl Fn(u64) -> bool,
        mut sweep: LevelSweep<'_, D>,
    ) -> Result<MaintenanceIo, RebuildFailure>
    where
        D: BlockDevice + ?Sized,
        S: BlockDevice,
    {
        self.epoch += 1;
        self.key = master_key.derive(&format!(
            "oblivious:level{}:epoch{}",
            self.index_no, self.epoch
        ));

        let device = sweep.device;
        let mut io = MaintenanceIo {
            reads: sweep.prefixes.iter().map(|p| p.len).sum(),
            writes: 0,
        };
        let bs = codec.block_size();
        let item_cap = Self::item_capacity(bs);
        let key = self.key;
        let index_no = self.index_no;
        let mut upper = upper_items.iter();
        let produce = |free: &mut [u8], tags: &mut Vec<(u64, u64)>| {
            let want = (free.len() / bs).min(PIPELINE_WIDTH);
            let closing = free.is_empty();
            let mut filled = 0;
            while filled < want || closing {
                let (id, payload) = match upper.next() {
                    Some((id, payload)) => (*id, payload.as_slice()),
                    None => match sweep.next_item()? {
                        Some((true, id, _)) if shadowed(id) => continue,
                        Some((_, id, payload)) => (id, payload),
                        None => break,
                    },
                };
                if closing {
                    return Err(ObliviousError::Corrupt(format!(
                        "the merge into level {index_no} finds id {id} past the {count} items it counted"
                    )));
                }
                if payload.len() > item_cap {
                    return Err(ObliviousError::ItemTooLarge {
                        got: payload.len(),
                        max: item_cap,
                    });
                }
                let (iv, field) = free[filled * bs..][..bs].split_at_mut(IV_SIZE);
                rng.fill_bytes(iv);
                encode_item_into(field, id, payload);
                tags.push((rng.next_u64(), id));
                filled += 1;
            }
            codec
                .seal_blocks_in_place(&key, &mut free[..filled * bs])
                .map_err(|e| ObliviousError::Corrupt(e.to_string()))
        };

        // External merge sort; the output callback stages sorted slots and
        // flushes them in ranged writes of IO_BATCH_BLOCKS blocks.
        let batch_bytes = IO_BATCH_BLOCKS as usize * bs;
        let mut staging: Vec<u8> = Vec::with_capacity(batch_bytes);
        let mut staged_start: u64 = 0;
        let mut slot: u64 = 0;
        let mut wrote = false;
        let capacity = self.capacity;
        let manifest = &mut self.manifest;
        let data_offset = self.data_offset;
        let sort_result = sorter.sort(bs, count, produce, |record| {
            if slot >= capacity {
                return Err(ObliviousError::CapacityExhausted);
            }
            staging.extend_from_slice(record.payload);
            manifest.insert(record.id, slot);
            slot += 1;
            if staging.len() == batch_bytes {
                wrote = true;
                device.write_blocks(data_offset + staged_start, &staging)?;
                staging.clear();
                staged_start = slot;
            }
            Ok(())
        });
        let sort_io = match sort_result {
            Ok(sort_io) => sort_io,
            Err(error) => return Err(RebuildFailure { error, wrote }),
        };
        if !staging.is_empty() {
            wrote = true;
            if let Err(e) = device.write_blocks(data_offset + staged_start, &staging) {
                return Err(RebuildFailure {
                    error: e.into(),
                    wrote,
                });
            }
        }
        io += sort_io;
        io.writes += slot;

        if let Err(error) = self.rewrite_index(device, bs) {
            return Err(RebuildFailure { error, wrote: true });
        }
        io.writes += self.index_blocks;

        Ok(io)
    }
}

/// Pre-rebuild state captured by [`Level::take_snapshot`] and restored by
/// [`Level::settle_rebuild`] when a rebuild fails without writing. The epoch
/// counter is deliberately absent: a failed attempt keeps its bump so no
/// epoch key is ever derived twice.
struct LevelSnapshot {
    manifest: DetHashMap<u64, u64>,
    key: Key256,
}

impl LevelSnapshot {
    /// The old contents of `level`, the level this snapshot was taken of.
    fn prefix(&self, level: &Level) -> Prefix<'_> {
        Prefix::of(level, &self.manifest, self.key)
    }
}

/// A [`Level::rebuild_with`] error plus whether any level block (data or
/// index) may have been overwritten before it surfaced.
struct RebuildFailure {
    error: ObliviousError,
    wrote: bool,
}

/// A level's occupied slot prefix as a sweep reads it: the level, the epoch
/// key its items are sealed under, its first data block, its length and the
/// manifest that says which id each slot holds.
#[derive(Clone, Copy)]
struct Prefix<'m> {
    index_no: u32,
    key: Key256,
    data_offset: BlockId,
    len: u64,
    manifest: &'m DetHashMap<u64, u64>,
}

impl<'m> Prefix<'m> {
    /// The prefix of `level` that `manifest` describes, sealed under `key`.
    fn of(level: &Level, manifest: &'m DetHashMap<u64, u64>, key: Key256) -> Self {
        Self {
            index_no: level.index_no,
            key,
            data_offset: level.data_offset,
            len: manifest.len() as u64,
            manifest,
        }
    }
}

/// Sweep of two occupied slot prefixes, one after the other — the level
/// being emptied into a merge (empty when the upper items are in agent
/// memory), then the receiving level's old contents — in ranged reads of
/// [`IO_BATCH_BLOCKS`] blocks, fetched on demand into one batch buffer. A
/// batch never spans the two prefixes; it is decrypted in the buffer it was
/// read into and every item in it checked before the first is handed out —
/// it must decode, and its id must be the one its level's old manifest
/// places in the slot it was read from — so a corrupt or replayed slot
/// surfaces with the read that fetched it. Holds only device/codec
/// references, copied level parameters and the old manifests, so a level
/// can stream its *old* contents (under the old epoch key) while
/// [`Level::rebuild_with`] mutates the level state.
struct LevelSweep<'a, D: ?Sized> {
    device: &'a D,
    codec: &'a BlockCodec,
    prefixes: [Prefix<'a>; 2],
    /// The prefix the current batch was read from, and the next slot of it
    /// to read.
    current: usize,
    next_slot: u64,
    buf: Vec<u8>,
    /// Bytes of `buf` the current batch occupies, and how many of them have
    /// been handed out.
    loaded: usize,
    taken: usize,
}

/// A swept item: whether it is one of the receiving level's own (read from
/// the second prefix), its id, and its payload borrowed from the batch
/// buffer.
type Swept<'b> = (bool, u64, &'b [u8]);

impl<'a, D: BlockDevice + ?Sized> LevelSweep<'a, D> {
    fn new(device: &'a D, codec: &'a BlockCodec, prefixes: [Prefix<'a>; 2]) -> Self {
        let longest = prefixes[0].len.max(prefixes[1].len);
        Self {
            device,
            codec,
            prefixes,
            current: 0,
            next_slot: 0,
            buf: vec![0u8; IO_BATCH_BLOCKS.min(longest) as usize * codec.block_size()],
            loaded: 0,
            taken: 0,
        }
    }

    /// The next item; `None` behind the last.
    fn next_item(&mut self) -> Result<Option<Swept<'_>>, ObliviousError> {
        let bs = self.codec.block_size();
        if self.taken == self.loaded {
            while self.next_slot >= self.prefixes[self.current].len {
                if self.current + 1 == self.prefixes.len() {
                    return Ok(None);
                }
                (self.current, self.next_slot) = (self.current + 1, 0);
            }
            let prefix = self.prefixes[self.current];
            let first = self.next_slot;
            let batch = IO_BATCH_BLOCKS.min(prefix.len - first);
            let window = &mut self.buf[..batch as usize * bs];
            self.device
                .read_blocks(prefix.data_offset + first, window)?;
            self.next_slot += batch;
            self.codec
                .open_in_place(&prefix.key, window)
                .map_err(|e| ObliviousError::Corrupt(e.to_string()))?;
            for (slot, block) in (first..).zip(window.chunks_exact(bs)) {
                let (id, _) = decode_item(&block[IV_SIZE..])?;
                if prefix.manifest.get(&id) != Some(&slot) {
                    return Err(ObliviousError::Corrupt(format!(
                        "slot {slot} of level {} holds id {id}, which the level does not place there",
                        prefix.index_no
                    )));
                }
            }
            (self.loaded, self.taken) = (window.len(), 0);
        }
        let block = &self.buf[self.taken..self.taken + bs];
        self.taken += bs;
        let (id, payload) = decode_item(&block[IV_SIZE..])?;
        Ok(Some((self.current == 1, id, payload)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stegfs_blockdev::{DeviceError, Io, IoHook, Layered, MemDevice, Snapshot};

    const BLOCK: usize = 512;

    impl Level {
        /// Re-order the level so that it holds exactly `items`, in a fresh
        /// random permutation under a fresh epoch key, with a rewritten index
        /// region: a merge with nothing above it and nothing of its own kept,
        /// for the tests that place an exact item set.
        pub(super) fn reorder<D, S>(
            &mut self,
            device: &D,
            codec: &BlockCodec,
            sorter: &ExternalSorter<S>,
            master_key: &Key256,
            rng: &mut HashDrbg,
            items: Vec<(u64, Vec<u8>)>,
        ) -> Result<MaintenanceIo, ObliviousError>
        where
            D: BlockDevice + ?Sized,
            S: BlockDevice,
        {
            if items.len() as u64 > self.capacity {
                return Err(ObliviousError::CapacityExhausted);
            }
            let snapshot = self.take_snapshot();
            let nothing = Prefix {
                len: 0,
                ..snapshot.prefix(self)
            };
            let sweep = LevelSweep::new(device, codec, [nothing, nothing]);
            let count = items.len() as u64;
            let result = self.rebuild_with(
                codec,
                sorter,
                master_key,
                rng,
                &items,
                count,
                |_| false,
                sweep,
            );
            self.settle_rebuild(snapshot, result)
        }
    }

    /// Lay out a level standalone at `offset`, its index region just before
    /// its data region; returns the level and the first block after it.
    fn back_to_back(index_no: u32, offset: u64, capacity: u64, master: &Key256) -> (Level, u64) {
        let level = Level::layout(
            index_no,
            offset,
            offset + index_blocks_for(capacity, BLOCK),
            capacity,
            BLOCK,
            master,
        );
        let end = level.data_offset + capacity;
        (level, end)
    }

    fn setup(capacity: u64) -> (MemDevice, MemDevice, Level, BlockCodec, Key256, HashDrbg) {
        let master = Key256::from_passphrase("oblivious master");
        let (level, end) = back_to_back(1, 0, capacity, &master);
        let device = MemDevice::new(end, BLOCK);
        let sort_device = MemDevice::new(4 * capacity.max(8), BLOCK + 32);
        let codec = BlockCodec::one_chain(BLOCK);
        let rng = HashDrbg::from_u64(5);
        (device, sort_device, level, codec, master, rng)
    }

    /// The slot the level's manifest gives for `id`.
    fn lookup(level: &Level, id: u64) -> Option<u64> {
        level.manifest.get(&id).copied()
    }

    /// The `(id, payload)` sealed in `slot`.
    fn read_slot<D: BlockDevice>(
        level: &Level,
        device: &D,
        codec: &BlockCodec,
        slot: u64,
    ) -> (u64, Vec<u8>) {
        let mut scratch = vec![0u8; BLOCK];
        let (id, payload) = level.read_slot(device, codec, slot, &mut scratch).unwrap();
        (id, payload.to_vec())
    }

    /// Every `(id, payload)` the level holds, in slot order, as a sweep of
    /// its occupied prefix reads them.
    fn contents<D: BlockDevice>(
        level: &Level,
        device: &D,
        codec: &BlockCodec,
    ) -> Vec<(u64, Vec<u8>)> {
        let prefix = Prefix::of(level, &level.manifest, level.key);
        let nothing = Prefix { len: 0, ..prefix };
        let mut sweep = LevelSweep::new(device, codec, [nothing, prefix]);
        let mut items = Vec::new();
        while let Some((_, id, payload)) = sweep.next_item().unwrap() {
            items.push((id, payload.to_vec()));
        }
        items
    }

    fn items(n: u64) -> Vec<(u64, Vec<u8>)> {
        (0..n)
            .map(|i| (i + 100, vec![(i % 256) as u8; 64]))
            .collect()
    }

    #[test]
    fn reorder_then_lookup_and_read() {
        let (device, sort_device, mut level, codec, master, mut rng) = setup(32);
        let sorter = ExternalSorter::new(sort_device, 8);
        let io = level
            .reorder(&device, &codec, &sorter, &master, &mut rng, items(20))
            .unwrap();
        assert_eq!(level.len(), 20);
        assert!(io.writes >= 20);

        for (id, payload) in items(20) {
            let slot = lookup(&level, id).expect("present");
            let (read_id, read_payload) = read_slot(&level, &device, &codec, slot);
            assert_eq!(read_id, id);
            assert_eq!(read_payload, payload);
        }
        // Absent ids are not found.
        assert_eq!(lookup(&level, 9999), None);
    }

    #[test]
    fn reorder_produces_a_fresh_permutation() {
        let (device, sort_device, mut level, codec, master, mut rng) = setup(64);
        let sorter = ExternalSorter::new(sort_device, 16);
        level
            .reorder(&device, &codec, &sorter, &master, &mut rng, items(40))
            .unwrap();
        let first: Vec<u64> = (0..40).map(|i| level.manifest[&(i + 100)]).collect();
        level
            .reorder(&device, &codec, &sorter, &master, &mut rng, items(40))
            .unwrap();
        let second: Vec<u64> = (0..40).map(|i| level.manifest[&(i + 100)]).collect();
        assert_ne!(first, second, "permutation should change across epochs");
        // Both are permutations of 0..40.
        let mut s = second.clone();
        s.sort_unstable();
        assert_eq!(s, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn merge_reorder_dedups_with_upper_wins() {
        let (device, sort_device, mut level, codec, master, mut rng) = setup(32);
        let sorter = ExternalSorter::new(sort_device, 8);
        // Lower level holds ids 100..110 with payload (i % 256).
        level
            .reorder(&device, &codec, &sorter, &master, &mut rng, items(10))
            .unwrap();
        // Upper set: fresh copies of 105..110 plus new ids 200..205.
        let upper: Vec<(u64, Vec<u8>)> = (0..10)
            .map(|i| {
                let id = if i < 5 { 105 + i } else { 195 + i };
                (id, vec![0xEEu8; 32])
            })
            .collect();
        let io = level
            .merge_reorder(&device, &codec, &sorter, &master, &mut rng, &upper, None)
            .unwrap();
        assert_eq!(level.len(), 15, "10 lower + 10 upper - 5 duplicates");
        assert!(io.reads >= 10, "old contents must be streamed out");

        // Duplicates carry the upper payload; survivors keep the lower one.
        for id in 105..110u64 {
            let slot = lookup(&level, id).expect("present");
            assert_eq!(read_slot(&level, &device, &codec, slot).1, vec![0xEE; 32]);
        }
        for (i, id) in (100..105u64).enumerate() {
            let slot = lookup(&level, id).expect("present");
            assert_eq!(
                read_slot(&level, &device, &codec, slot).1,
                vec![(i % 256) as u8; 64]
            );
        }
    }

    #[test]
    fn merge_reorder_with_empty_upper_is_in_place_reorder() {
        let (device, sort_device, mut level, codec, master, mut rng) = setup(16);
        let sorter = ExternalSorter::new(sort_device, 4);
        level
            .reorder(&device, &codec, &sorter, &master, &mut rng, items(10))
            .unwrap();
        let first: Vec<u64> = (0..10).map(|i| level.manifest[&(i + 100)]).collect();
        level
            .merge_reorder(&device, &codec, &sorter, &master, &mut rng, &[], None)
            .unwrap();
        assert_eq!(level.len(), 10);
        let second: Vec<u64> = (0..10).map(|i| level.manifest[&(i + 100)]).collect();
        assert_ne!(first, second, "in-place merge still re-permutes");
        for (id, payload) in items(10) {
            let slot = lookup(&level, id).expect("present");
            assert_eq!(read_slot(&level, &device, &codec, slot).1, payload);
        }
    }

    /// Level 2 holding `lower` items (ids 100..) under level 1 holding
    /// `upper` fresh ones, the first `shadowing` of which repeat the last
    /// lower ids.
    struct TwoLevels {
        device: MemDevice,
        sort_device: MemDevice,
        above: Level,
        below: Level,
        codec: BlockCodec,
        master: Key256,
        rng: HashDrbg,
    }

    fn two_levels(upper: u64, lower: u64, shadowing: u64) -> TwoLevels {
        let master = Key256::from_passphrase("oblivious master");
        let (mut above, end) = back_to_back(1, 0, upper + 8, &master);
        let (mut below, end) = back_to_back(2, end, upper + lower + 8, &master);
        let device = MemDevice::new(end, BLOCK);
        let sort_device = MemDevice::new(upper + lower + 8, BLOCK + 32);
        let codec = BlockCodec::one_chain(BLOCK);
        let mut rng = HashDrbg::from_u64(5);
        let sorter = ExternalSorter::new(&sort_device, 17);
        below
            .reorder(&device, &codec, &sorter, &master, &mut rng, items(lower))
            .unwrap();
        let fresh = (0..upper)
            .map(|i| {
                (
                    100 + lower - shadowing + i,
                    vec![0xD0 ^ i as u8; 24 + i as usize % 40],
                )
            })
            .collect();
        above
            .reorder(&device, &codec, &sorter, &master, &mut rng, fresh)
            .unwrap();
        TwoLevels {
            device,
            sort_device,
            above,
            below,
            codec,
            master,
            rng,
        }
    }

    impl TwoLevels {
        /// Merge level 1 into level 2, as a cascade does before clearing it.
        fn merge_down(&mut self) -> Result<MaintenanceIo, ObliviousError> {
            let sorter = ExternalSorter::new(&self.sort_device, 17);
            self.below.merge_reorder(
                &self.device,
                &self.codec,
                &sorter,
                &self.master,
                &mut self.rng,
                &[],
                Some(&self.above),
            )
        }
    }

    #[test]
    fn merging_a_level_streams_what_merging_its_collected_items_writes() {
        // Upper levels of up to three batches, shadowing some, none or all
        // of the lower ids, with runs of 17 so their batch reads fall
        // between spills: both partition images, the manifest, the epoch
        // and the DRBG are what merging the upper items from memory gives.
        for (upper, lower, shadowing) in [(0, 20, 0), (9, 0, 0), (150, 70, 30), (64, 65, 64)] {
            let case = format!("{upper} upper items over {lower}, {shadowing} shadowing");
            let mut streamed = two_levels(upper, lower, shadowing);
            let streamed_io = streamed.merge_down().unwrap();

            let mut collected = two_levels(upper, lower, shadowing);
            let upper_items = contents(&collected.above, &collected.device, &collected.codec);
            let sorter = ExternalSorter::new(&collected.sort_device, 17);
            let collected_io = collected
                .below
                .merge_reorder(
                    &collected.device,
                    &collected.codec,
                    &sorter,
                    &collected.master,
                    &mut collected.rng,
                    &upper_items,
                    None,
                )
                .unwrap();

            assert_eq!(
                streamed.below.len() as u64,
                upper + lower - shadowing,
                "{case}"
            );
            assert_eq!(streamed_io.reads, collected_io.reads + upper, "{case}");
            assert_eq!(streamed_io.writes, collected_io.writes, "{case}");
            let state = |t: &TwoLevels| {
                let manifest: Vec<(u64, u64)> =
                    t.below.manifest.iter().map(|(&i, &s)| (i, s)).collect();
                let epoch = (t.below.key, t.below.epoch);
                (
                    image(&t.device),
                    image(&t.sort_device),
                    manifest,
                    epoch,
                    t.rng.clone().next_u64(),
                )
            };
            assert!(state(&streamed) == state(&collected), "{case}");
        }
    }

    #[test]
    fn a_corrupt_upper_slot_fails_the_level_merge_before_any_write() {
        // Slot 70 is in the upper level's second batch, read after runs were
        // spilled: the merge still fails before the lower level is written,
        // the lower level rolls back and the upper one is left as it was.
        let mut t = two_levels(100, 40, 10);
        t.device
            .write_block(t.above.data_offset + 70, &[0xA5u8; BLOCK])
            .unwrap();
        let state = |t: &TwoLevels| {
            let sorted = |level: &Level| {
                let mut manifest: Vec<(u64, u64)> =
                    level.manifest.iter().map(|(&i, &s)| (i, s)).collect();
                manifest.sort_unstable();
                manifest
            };
            (
                image(&t.device),
                sorted(&t.below),
                t.below.key,
                sorted(&t.above),
            )
        };
        let before = state(&t);
        assert!(matches!(t.merge_down(), Err(ObliviousError::Corrupt(_))));
        assert!(state(&t) == before);
        for (id, payload) in items(40) {
            let slot = lookup(&t.below, id).expect("present");
            assert_eq!(read_slot(&t.below, &t.device, &t.codec, slot).1, payload);
        }
    }

    #[test]
    fn merge_reorder_over_capacity_rejected_before_any_write() {
        let (device, sort_device, mut level, codec, master, mut rng) = setup(12);
        let sorter = ExternalSorter::new(sort_device, 4);
        level
            .reorder(&device, &codec, &sorter, &master, &mut rng, items(8))
            .unwrap();
        let upper: Vec<(u64, Vec<u8>)> = (500..510).map(|id| (id, vec![1u8; 8])).collect();
        assert!(matches!(
            level.merge_reorder(&device, &codec, &sorter, &master, &mut rng, &upper, None),
            Err(ObliviousError::CapacityExhausted)
        ));
        // The level is untouched: all original items still resolvable.
        assert_eq!(level.len(), 8);
        for (id, payload) in items(8) {
            let slot = lookup(&level, id).expect("present");
            assert_eq!(read_slot(&level, &device, &codec, slot).1, payload);
        }
    }

    #[test]
    fn failed_merge_rolls_back_to_a_readable_level() {
        let (device, sort_device, mut level, codec, master, mut rng) = setup(16);
        let sorter = ExternalSorter::new(sort_device, 4);
        level
            .reorder(&device, &codec, &sorter, &master, &mut rng, items(8))
            .unwrap();
        let mut manifest_before: Vec<(u64, u64)> =
            level.manifest.iter().map(|(&id, &s)| (id, s)).collect();
        manifest_before.sort_unstable();

        // Corrupt one sealed slot on disk; the streaming merge hits it while
        // feeding the old contents into the sort, before any level rewrite.
        let victim_slot = level.manifest[&100];
        device
            .write_block(level.data_offset + victim_slot, &[0xA5u8; BLOCK])
            .unwrap();
        assert!(matches!(
            level.merge_reorder(
                &device,
                &codec,
                &sorter,
                &master,
                &mut rng,
                &[(500, vec![7u8; 16])],
                None,
            ),
            Err(ObliviousError::Corrupt(_))
        ));

        // The failure surfaced before any write, so the logical state rolled
        // back and every intact item is still readable in place.
        let mut manifest_after: Vec<(u64, u64)> =
            level.manifest.iter().map(|(&id, &s)| (id, s)).collect();
        manifest_after.sort_unstable();
        assert_eq!(manifest_after, manifest_before);
        for (id, payload) in items(8) {
            if id == 100 {
                continue; // the deliberately corrupted slot
            }
            let slot = lookup(&level, id).expect("present");
            assert_eq!(read_slot(&level, &device, &codec, slot).1, payload);
        }

        // A retry over the surviving items succeeds under a fresh epoch key.
        let survivors: Vec<(u64, Vec<u8>)> =
            items(8).into_iter().filter(|&(id, _)| id != 100).collect();
        level
            .reorder(&device, &codec, &sorter, &master, &mut rng, survivors)
            .unwrap();
        assert_eq!(level.len(), 7);
    }

    /// What a scan of `device` finds, to compare before and after.
    fn image(device: &MemDevice) -> Snapshot {
        Snapshot::capture(device).unwrap()
    }

    #[test]
    fn group_sealed_rebuild_is_byte_identical_to_a_seal_loop() {
        // Nothing, one item, one short of a group, a group, one over, and
        // enough to spill several runs whose length (12) is not a multiple
        // of the group width: the level image must be exactly what sealing
        // one item at a time — IV draw, seal, sort-key draw — produces.
        for n in [0u64, 1, 7, 8, 9, 67] {
            let (device, sort_device, mut level, codec, master, mut rng) = setup(n + 5);
            let sorter = ExternalSorter::new(sort_device, 12);
            let mut loop_rng = rng.clone();
            level
                .reorder(&device, &codec, &sorter, &master, &mut rng, items(n))
                .unwrap();

            let mut expected: Vec<(u64, u64, Vec<u8>)> = items(n)
                .into_iter()
                .map(|(id, payload)| {
                    let mut plain = vec![0u8; codec.data_field_len()];
                    encode_item_into(&mut plain, id, &payload);
                    let sealed = codec.seal(&level.key, &plain, &mut loop_rng).unwrap();
                    (loop_rng.next_u64(), id, sealed)
                })
                .collect();
            expected.sort();
            assert_eq!(level.len() as u64, n);
            for (slot, (_, id, sealed)) in expected.iter().enumerate() {
                assert_eq!(level.manifest[id], slot as u64, "{n} items, id {id}");
                let mut on_device = vec![0u8; BLOCK];
                device
                    .read_block(level.data_offset + slot as u64, &mut on_device)
                    .unwrap();
                assert_eq!(&on_device, sealed, "{n} items, slot {slot}");
            }
            assert_eq!(rng.next_u64(), loop_rng.next_u64(), "{n} items: DRBG drift");
        }
    }

    #[test]
    fn seal_groups_never_pull_input_past_a_run_boundary() {
        // 5 upper items, then 100 lower items streamed in ranged reads of 64:
        // item 69 triggers the second level read. With runs of 17 the sorter
        // spills its fourth run after item 67 — so a seal group that pulled
        // items 64..72 in one go would issue that read *before* the spill.
        // The level sits above block 1000 so one shared trace tells the two
        // devices apart.
        use stegfs_blockdev::{IoKind, TraceLog, TracingDevice};
        let master = Key256::from_passphrase("oblivious master");
        let (mut level, end) = back_to_back(1, 1000, 128, &master);
        let log = TraceLog::new();
        let device = TracingDevice::with_log(MemDevice::new(end, BLOCK), log.clone());
        let codec = BlockCodec::one_chain(BLOCK);
        let mut rng = HashDrbg::from_u64(5);
        let sorter = ExternalSorter::new(
            TracingDevice::with_log(MemDevice::new(512, BLOCK + 32), log.clone()),
            17,
        );
        level
            .reorder(&device, &codec, &sorter, &master, &mut rng, items(100))
            .unwrap();
        log.clear();

        let upper: Vec<(u64, Vec<u8>)> = (500..505).map(|id| (id, vec![9u8; 8])).collect();
        level
            .merge_reorder(&device, &codec, &sorter, &master, &mut rng, &upper, None)
            .unwrap();
        let records = log.records();
        let second_read = records
            .iter()
            .position(|r| r.kind == IoKind::Read && r.block == level.data_offset + 64)
            .expect("second ranged read of the old contents");
        let spilled_before = records[..second_read]
            .iter()
            .filter(|r| r.kind == IoKind::Write && r.block < 1000)
            .count();
        assert_eq!(spilled_before, 4 * 17);
        assert_eq!(level.len(), 105);
    }

    #[test]
    fn mid_group_failures_roll_back_with_nothing_written() {
        // An in-memory sort (32 records) keeps seal groups at full width; in
        // both cases the failing item is the sixth of the second group.
        let (device, sort_device, mut level, codec, master, mut rng) = setup(32);
        let sorter = ExternalSorter::new(sort_device, 32);
        level
            .reorder(&device, &codec, &sorter, &master, &mut rng, items(20))
            .unwrap();
        let state = |level: &Level| {
            let mut manifest: Vec<(u64, u64)> =
                level.manifest.iter().map(|(&id, &s)| (id, s)).collect();
            manifest.sort_unstable();
            (manifest, level.key)
        };

        // An oversized item among well-formed ones.
        let before = (state(&level), image(&device));
        let mut poisoned = items(20);
        poisoned[13].1 = vec![0u8; Level::item_capacity(BLOCK) + 1];
        assert!(matches!(
            level.reorder(&device, &codec, &sorter, &master, &mut rng, poisoned),
            Err(ObliviousError::ItemTooLarge { .. })
        ));
        assert!((state(&level), image(&device)) == before);

        // A corrupt slot surfacing from the lazy stream of old contents:
        // slot 10 is item 13 behind three upper items.
        device
            .write_block(level.data_offset + 10, &[0xA5u8; BLOCK])
            .unwrap();
        let before = (state(&level), image(&device));
        let upper: Vec<(u64, Vec<u8>)> = (500..503).map(|id| (id, vec![7u8; 16])).collect();
        assert!(matches!(
            level.merge_reorder(&device, &codec, &sorter, &master, &mut rng, &upper, None),
            Err(ObliviousError::Corrupt(_))
        ));
        assert!((state(&level), image(&device)) == before);
    }

    #[test]
    fn hostile_sort_partition_is_a_typed_error_and_rolls_back() {
        /// A sort partition whose every ranged read comes back with the
        /// first record's length field overwritten.
        struct Hostile;
        impl IoHook<MemDevice> for Hostile {
            fn after_read(&self, _: &MemDevice, io: Io, buf: &mut [u8]) {
                if io.ranged {
                    buf[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
                }
            }
        }

        let (device, sort_device, mut level, codec, master, mut rng) = setup(32);
        let sorter = ExternalSorter::new(sort_device, 4);
        level
            .reorder(&device, &codec, &sorter, &master, &mut rng, items(12))
            .unwrap();
        let before = image(&device);
        let manifest_before = level.manifest.len();

        // Runs of 4 spill fine; the merge's first refill reads them back.
        let hostile = ExternalSorter::new(
            Layered::with_hook(MemDevice::new(128, BLOCK + 32), Hostile),
            4,
        );
        assert!(matches!(
            level.merge_reorder(
                &device,
                &codec,
                &hostile,
                &master,
                &mut rng,
                &[(500, vec![7u8; 16])],
                None,
            ),
            Err(ObliviousError::Corrupt(_))
        ));
        assert!(
            image(&device) == before,
            "level written despite the failure"
        );
        assert_eq!(level.manifest.len(), manifest_before);
        for (id, payload) in items(12) {
            let slot = lookup(&level, id).expect("present");
            assert_eq!(read_slot(&level, &device, &codec, slot).1, payload);
        }
    }

    /// The re-order pipeline as it stood before the sorter owned a run arena
    /// — one `Vec` per decoded item, per sealed record and per record read
    /// back from the sort partition — kept as the reference the arena path
    /// must match byte for byte, draw for draw and request for request.
    mod reference {
        use super::*;
        use crate::extsort::SortRecord;
        use std::cmp::Reverse;
        use std::collections::{BinaryHeap, VecDeque};

        struct Record {
            key: u64,
            id: u64,
            payload: Vec<u8>,
        }

        type Item = Result<(u64, Vec<u8>), ObliviousError>;

        /// Lazy reader of the occupied slot prefix: a ranged read on demand,
        /// every block opened and decoded into a `Vec` of its own.
        struct SlotStream<'a, D> {
            device: &'a D,
            codec: &'a BlockCodec,
            key: Key256,
            data_offset: BlockId,
            next_slot: u64,
            end_slot: u64,
            decoded: VecDeque<(u64, Vec<u8>)>,
            failed: bool,
            buf: Vec<u8>,
        }

        impl<D: BlockDevice> Iterator for SlotStream<'_, D> {
            type Item = Item;

            fn next(&mut self) -> Option<Item> {
                if let Some(item) = self.decoded.pop_front() {
                    return Some(Ok(item));
                }
                if self.failed || self.next_slot >= self.end_slot {
                    return None;
                }
                let bs = self.codec.block_size();
                let batch = IO_BATCH_BLOCKS.min(self.end_slot - self.next_slot);
                let window = &mut self.buf[..batch as usize * bs];
                if let Err(e) = self
                    .device
                    .read_blocks(self.data_offset + self.next_slot, window)
                {
                    self.failed = true;
                    return Some(Err(e.into()));
                }
                self.next_slot += batch;
                for block in window.chunks_exact(bs) {
                    let plain = self.codec.open(&self.key, block).unwrap();
                    match decode_item(&plain) {
                        Ok((id, payload)) => self.decoded.push_back((id, payload.to_vec())),
                        Err(e) => {
                            self.failed = true;
                            return Some(Err(e));
                        }
                    }
                }
                self.decoded.pop_front().map(Ok)
            }
        }

        /// Items pulled up to `PIPELINE_WIDTH` at a time — never past the
        /// sorter's next run boundary nor past `count` — laid out in a group
        /// buffer, sealed as a group, each copied out into a record of its
        /// own. A pull once `count` items are out reads the items to their
        /// end and yields an error if any is left.
        struct SealedRecords<'a, I> {
            items: I,
            codec: &'a BlockCodec,
            key: Key256,
            rng: &'a mut HashDrbg,
            run_len: usize,
            count: usize,
            pulled: usize,
            group: Vec<u8>,
            ready: VecDeque<Result<Record, ObliviousError>>,
            exhausted: bool,
        }

        impl<I: Iterator<Item = Item>> SealedRecords<'_, I> {
            fn fill(&mut self) {
                let bs = self.codec.block_size();
                let item_cap = Level::item_capacity(bs);
                let want = PIPELINE_WIDTH
                    .min(self.run_len - self.pulled % self.run_len)
                    .min(self.count - self.pulled);
                if want == 0 {
                    self.exhausted = true;
                    match self.items.next() {
                        Some(Ok((id, _))) => self.ready.push_back(Err(ObliviousError::Corrupt(
                            format!("extra item {id} past the count"),
                        ))),
                        Some(Err(e)) => self.ready.push_back(Err(e)),
                        None => {}
                    }
                    return;
                }
                let mut tags = [(0u64, 0u64); PIPELINE_WIDTH];
                let mut n = 0;
                let mut failure = None;
                while n < want {
                    let (id, payload) = match self.items.next() {
                        Some(Ok(item)) => item,
                        Some(Err(e)) => {
                            failure = Some(e);
                            break;
                        }
                        None => break,
                    };
                    if payload.len() > item_cap {
                        failure = Some(ObliviousError::ItemTooLarge {
                            got: payload.len(),
                            max: item_cap,
                        });
                        break;
                    }
                    let (iv, field) = self.group[n * bs..(n + 1) * bs].split_at_mut(IV_SIZE);
                    self.rng.fill_bytes(iv);
                    encode_item_into(field, id, &payload);
                    tags[n] = (self.rng.next_u64(), id);
                    n += 1;
                }
                self.exhausted = n < want;
                self.pulled += n;
                let run = &mut self.group[..n * bs];
                self.codec.seal_blocks_in_place(&self.key, run).unwrap();
                for (sealed, &(key, id)) in run.chunks_exact(bs).zip(&tags) {
                    self.ready.push_back(Ok(Record {
                        key,
                        id,
                        payload: sealed.to_vec(),
                    }));
                }
                self.ready.extend(failure.map(Err));
            }
        }

        impl<I: Iterator<Item = Item>> Iterator for SealedRecords<'_, I> {
            type Item = Result<Record, ObliviousError>;

            fn next(&mut self) -> Option<Self::Item> {
                if self.ready.is_empty() && !self.exhausted {
                    self.fill();
                }
                self.ready.pop_front()
            }
        }

        /// The external sort over the `count` owned records of `iter`:
        /// chunks of `memory_records` sorted in place, spilled through a
        /// staging buffer zero-filled for every batch — all but the last
        /// chunk's final batch, kept as a queue of its own — merged from
        /// per-run queues of decoded records.
        fn sort<S: BlockDevice>(
            sort_device: &S,
            memory_records: usize,
            count: usize,
            mut iter: impl Iterator<Item = Result<Record, ObliviousError>>,
            mut output: impl FnMut(Record) -> Result<(), ObliviousError>,
        ) -> Result<MaintenanceIo, ObliviousError> {
            let mut io = MaintenanceIo::default();
            let bs = sort_device.block_size();
            let mut runs: Vec<(u64, u64)> = Vec::new();
            let mut next_free: u64 = 0;
            let mut produced = 0;
            let mut staging: Vec<u8> = Vec::new();
            let resident = loop {
                let run = memory_records.min(count - produced);
                let mut chunk: Vec<Record> = Vec::with_capacity(run);
                for record in iter.by_ref().take(run) {
                    chunk.push(record?);
                }
                if chunk.len() < run {
                    return Err(ObliviousError::Corrupt(format!(
                        "sort input ended after {} of {count} records",
                        produced + chunk.len()
                    )));
                }
                produced += run;
                let last = produced == count;
                if last {
                    assert!(iter.next().transpose()?.is_none());
                }
                chunk.sort_by_key(|r| (r.key, r.id));
                if last && runs.is_empty() {
                    for record in chunk {
                        output(record)?;
                    }
                    return Ok(io);
                }
                let kept = if last {
                    (run - 1) % IO_BATCH_BLOCKS as usize + 1
                } else {
                    0
                };
                let start = next_free;
                let len = (run - kept) as u64;
                if start + len > sort_device.num_blocks() {
                    return Err(ObliviousError::SortPartitionTooSmall {
                        required: start + len,
                        available: sort_device.num_blocks(),
                    });
                }
                let mut written = 0u64;
                while written < len {
                    let batch = (len - written).min(IO_BATCH_BLOCKS);
                    staging.clear();
                    staging.resize(batch as usize * bs, 0);
                    let records = &chunk[written as usize..(written + batch) as usize];
                    for (record, block) in records.iter().zip(staging.chunks_exact_mut(bs)) {
                        SortRecord {
                            key: record.key,
                            id: record.id,
                            payload: &record.payload,
                        }
                        .encode_into(block)?;
                    }
                    sort_device.write_blocks(start + written, &staging)?;
                    written += batch;
                }
                io.writes += len;
                next_free += len;
                if len > 0 {
                    runs.push((start, len));
                }
                if last {
                    break chunk.split_off(run - kept);
                }
            };

            struct RunCursor {
                next_block: u64,
                remaining: u64,
                buffered: VecDeque<Record>,
            }
            let lookahead = (memory_records / runs.len()).max(1) as u64;
            let mut cursors: Vec<RunCursor> = runs
                .iter()
                .map(|&(start, len)| RunCursor {
                    next_block: start,
                    remaining: len,
                    buffered: VecDeque::new(),
                })
                .chain([RunCursor {
                    next_block: 0,
                    remaining: 0,
                    buffered: resident.into(),
                }])
                .collect();
            let read_batch = lookahead.min(IO_BATCH_BLOCKS);
            let mut buf = vec![0u8; read_batch as usize * bs];
            let mut refill = |cursor: &mut RunCursor, io: &mut MaintenanceIo| {
                let mut want = lookahead.min(cursor.remaining);
                while want > 0 {
                    let batch = want.min(read_batch);
                    let window = &mut buf[..batch as usize * bs];
                    sort_device.read_blocks(cursor.next_block, window)?;
                    io.reads += batch;
                    cursor.next_block += batch;
                    cursor.remaining -= batch;
                    want -= batch;
                    for block in window.chunks_exact(bs) {
                        let record = SortRecord::view(block)?;
                        cursor.buffered.push_back(Record {
                            key: record.key,
                            id: record.id,
                            payload: record.payload.to_vec(),
                        });
                    }
                }
                Ok::<(), ObliviousError>(())
            };
            let mut heap: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
            for (run_idx, cursor) in cursors.iter_mut().enumerate() {
                refill(cursor, &mut io)?;
                if let Some(front) = cursor.buffered.front() {
                    heap.push(Reverse((front.key, front.id, run_idx)));
                }
            }
            while let Some(Reverse((_, _, run_idx))) = heap.pop() {
                let record = cursors[run_idx].buffered.pop_front().unwrap();
                output(record)?;
                let cursor = &mut cursors[run_idx];
                if cursor.buffered.is_empty() && cursor.remaining > 0 {
                    refill(cursor, &mut io)?;
                }
                if let Some(front) = cursor.buffered.front() {
                    heap.push(Reverse((front.key, front.id, run_idx)));
                }
            }
            Ok(io)
        }

        /// `Level::merge_reorder` over the pieces above, rollback included.
        #[allow(clippy::too_many_arguments)]
        pub fn merge_reorder<D: BlockDevice, S: BlockDevice>(
            level: &mut Level,
            device: &D,
            codec: &BlockCodec,
            sort_device: &S,
            memory_records: usize,
            master_key: &Key256,
            rng: &mut HashDrbg,
            upper_items: Vec<(u64, Vec<u8>)>,
        ) -> Result<MaintenanceIo, ObliviousError> {
            let upper_ids: DetHashSet<u64> = upper_items.iter().map(|&(id, _)| id).collect();
            let kept_lower = level
                .manifest
                .keys()
                .filter(|id| !upper_ids.contains(id))
                .count() as u64;
            let count = upper_items.len() + kept_lower as usize;
            if count as u64 > level.capacity {
                return Err(ObliviousError::CapacityExhausted);
            }
            let old_len = level.manifest.len() as u64;
            let lower = SlotStream {
                device,
                codec,
                key: level.key,
                data_offset: level.data_offset,
                next_slot: 0,
                end_slot: old_len,
                decoded: VecDeque::new(),
                failed: false,
                buf: vec![0u8; IO_BATCH_BLOCKS.min(old_len.max(1)) as usize * codec.block_size()],
            }
            .filter(move |item| match item {
                Ok((id, _)) => !upper_ids.contains(id),
                Err(_) => true,
            });
            let items = upper_items.into_iter().map(Ok).chain(lower);
            let snapshot = level.take_snapshot();

            level.epoch += 1;
            level.key = master_key.derive(&format!(
                "oblivious:level{}:epoch{}",
                level.index_no, level.epoch
            ));
            let records = SealedRecords {
                items,
                codec,
                key: level.key,
                rng,
                run_len: memory_records,
                count,
                pulled: 0,
                group: vec![0u8; PIPELINE_WIDTH * codec.block_size()],
                ready: VecDeque::with_capacity(PIPELINE_WIDTH + 1),
                exhausted: false,
            };
            let bs = codec.block_size();
            let batch_bytes = IO_BATCH_BLOCKS as usize * bs;
            let mut staging: Vec<u8> = Vec::with_capacity(batch_bytes);
            let mut staged_start: u64 = 0;
            let mut slot: u64 = 0;
            let mut wrote = false;
            let manifest = &mut level.manifest;
            let data_offset = level.data_offset;
            let sorted = sort(sort_device, memory_records, count, records, |record| {
                staging.extend_from_slice(&record.payload);
                manifest.insert(record.id, slot);
                slot += 1;
                if staging.len() == batch_bytes {
                    wrote = true;
                    device.write_blocks(data_offset + staged_start, &staging)?;
                    staging.clear();
                    staged_start = slot;
                }
                Ok(())
            });
            let sort_io = match sorted {
                Ok(sort_io) => sort_io,
                Err(error) => {
                    assert!(!wrote, "the reference is only driven to pre-write failures");
                    level.manifest = snapshot.manifest;
                    level.key = snapshot.key;
                    return Err(error);
                }
            };
            if !staging.is_empty() {
                device.write_blocks(data_offset + staged_start, &staging)?;
            }
            let mut io = MaintenanceIo {
                reads: old_len,
                writes: slot,
            };
            io += sort_io;
            level.rewrite_index(device, bs)?;
            io.writes += level.index_blocks;
            Ok(io)
        }
    }

    /// One request as the observer of both partitions sees it: which device,
    /// read or write, first block, block count.
    type Request = (&'static str, stegfs_blockdev::IoKind, u64, u64);

    /// A device logging every request — ranged ones as a single entry — into
    /// a log it can share with another device.
    type Watched = Layered<MemDevice, Watch>;

    struct Watch {
        name: &'static str,
        log: std::sync::Arc<std::sync::Mutex<Vec<Request>>>,
    }

    impl IoHook<MemDevice> for Watch {
        fn before(&self, _: &MemDevice, io: Io) -> Result<(), DeviceError> {
            let request = (self.name, io.kind, io.start, io.blocks);
            self.log.lock().unwrap().push(request);
            Ok(())
        }
    }

    fn watched(
        inner: MemDevice,
        name: &'static str,
        log: &std::sync::Arc<std::sync::Mutex<Vec<Request>>>,
    ) -> Watched {
        let log = log.clone();
        Layered::with_hook(inner, Watch { name, log })
    }

    /// A level of `n` items (ids 100..) on watched devices, the state every
    /// side of a comparison starts from, and everything a comparison looks
    /// at afterwards.
    struct Rig {
        device: Watched,
        sort_device: Watched,
        level: Level,
        codec: BlockCodec,
        master: Key256,
        rng: HashDrbg,
    }

    impl Rig {
        fn with_lower(n: u64) -> Self {
            let master = Key256::from_passphrase("oblivious master");
            let (level, end) = back_to_back(1, 0, n + 16, &master);
            let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
            let mut rig = Self {
                device: watched(MemDevice::new(end, BLOCK), "level", &log),
                sort_device: watched(MemDevice::new(n + 40, BLOCK + 32), "sort", &log),
                level,
                codec: BlockCodec::one_chain(BLOCK),
                master,
                rng: HashDrbg::from_u64(5),
            };
            // Payloads of every length up to a full item, so pads differ.
            let lower: Vec<(u64, Vec<u8>)> = (0..n)
                .map(|i| {
                    let len = (i as usize * 37) % (Level::item_capacity(BLOCK) + 1);
                    (100 + i, vec![i as u8; len])
                })
                .collect();
            let sorter = ExternalSorter::new(&rig.sort_device, 32);
            rig.level
                .reorder(
                    &rig.device,
                    &rig.codec,
                    &sorter,
                    &rig.master,
                    &mut rig.rng,
                    lower,
                )
                .unwrap();
            rig.device.hook().log.lock().unwrap().clear();
            rig
        }

        fn observe(&self) -> Observed {
            Observed {
                level_image: image(self.device.inner()),
                sort_image: image(self.sort_device.inner()),
                manifest: self.level.manifest.iter().map(|(&i, &s)| (i, s)).collect(),
                epoch: (self.level.key, self.level.epoch),
                next_draw: self.rng.clone().next_u64(),
                requests: self.device.hook().log.lock().unwrap().clone(),
            }
        }
    }

    /// What two sides of a comparison must agree on: both partition images,
    /// the manifest in iteration order, key and epoch, the DRBG's next
    /// output and the request log.
    #[derive(PartialEq)]
    struct Observed {
        level_image: Snapshot,
        sort_image: Snapshot,
        manifest: Vec<(u64, u64)>,
        epoch: (Key256, u64),
        next_draw: u64,
        requests: Vec<Request>,
    }

    #[test]
    fn arena_rebuild_matches_the_one_vec_per_record_pipeline() {
        // Level sizes around the seal-group width and the I/O batch, runs
        // whose length is a multiple of neither, upper items that do and do
        // not shadow lower ids: images (the zero tails of spilled blocks
        // included), manifest, DRBG position and the request sequence on
        // both partitions are the reference pipeline's.
        for n in [0u64, 1, 7, 8, 9, 63, 64, 65, 200] {
            for run_len in [12usize, 17] {
                for shadowing in [false, true] {
                    let case = format!("{n} lower items, runs of {run_len}, shadowing {shadowing}");
                    let upper: Vec<(u64, Vec<u8>)> = (0..5u64)
                        .map(|i| {
                            // Shadowing: the first, a middle and the last
                            // lower id (where there are that many).
                            let id = if shadowing && i < 3 {
                                100 + [0, n / 2, n.saturating_sub(1)][i as usize]
                            } else {
                                900 + i
                            };
                            (id, vec![0xE0 | i as u8; 40 + 9 * i as usize])
                        })
                        .filter({
                            let mut seen = DetHashSet::default();
                            move |&(id, _)| seen.insert(id)
                        })
                        .collect();

                    let mut arena = Rig::with_lower(n);
                    let sorter = ExternalSorter::new(&arena.sort_device, run_len);
                    let arena_io = arena
                        .level
                        .merge_reorder(
                            &arena.device,
                            &arena.codec,
                            &sorter,
                            &arena.master,
                            &mut arena.rng,
                            &upper,
                            None,
                        )
                        .unwrap();

                    let mut vecs = Rig::with_lower(n);
                    let reference_io = reference::merge_reorder(
                        &mut vecs.level,
                        &vecs.device,
                        &vecs.codec,
                        &vecs.sort_device,
                        run_len,
                        &vecs.master,
                        &mut vecs.rng,
                        upper,
                    )
                    .unwrap();

                    assert_eq!(arena_io, reference_io, "{case}");
                    assert!(arena.observe() == vecs.observe(), "{case}");
                }
            }
        }
    }

    #[test]
    fn failing_rebuilds_stop_where_the_one_vec_per_record_pipeline_stops() {
        // A corrupt lower slot (in the first and in the second ranged batch)
        // and an oversized upper item: the same error, nothing written to
        // the level, the same runs already on the sort partition and the
        // DRBG advanced by the same draws as the reference.
        let corrupt = |rig: &mut Rig, slot: u64| {
            rig.device
                .inner()
                .write_block(rig.level.data_offset + slot, &[0xA5u8; BLOCK])
                .unwrap();
        };
        let fine: Vec<(u64, Vec<u8>)> = (900..905).map(|id| (id, vec![7u8; 16])).collect();
        let mut oversized = fine.clone();
        oversized[3].1 = vec![0u8; Level::item_capacity(BLOCK) + 1];
        for (case, bad_slot, upper) in [
            ("corrupt slot 10", Some(10), &fine),
            ("corrupt slot 70", Some(70), &fine),
            ("oversized upper item", None, &oversized),
        ] {
            let mut arena = Rig::with_lower(100);
            let mut vecs = Rig::with_lower(100);
            for rig in [&mut arena, &mut vecs] {
                if let Some(slot) = bad_slot {
                    corrupt(rig, slot);
                }
            }
            let before = image(arena.device.inner());

            let sorter = ExternalSorter::new(&arena.sort_device, 17);
            let arena_err = arena
                .level
                .merge_reorder(
                    &arena.device,
                    &arena.codec,
                    &sorter,
                    &arena.master,
                    &mut arena.rng,
                    upper,
                    None,
                )
                .unwrap_err();
            let reference_err = reference::merge_reorder(
                &mut vecs.level,
                &vecs.device,
                &vecs.codec,
                &vecs.sort_device,
                17,
                &vecs.master,
                &mut vecs.rng,
                upper.clone(),
            )
            .unwrap_err();

            assert_eq!(arena_err, reference_err, "{case}");
            assert!(image(arena.device.inner()) == before, "{case}");
            assert!(arena.observe() == vecs.observe(), "{case}");
        }
    }

    #[test]
    fn stray_reserved_and_pad_bytes_in_a_lower_slot_are_not_carried_over() {
        // A slot that decodes — id and length are sound — but whose reserved
        // header bytes and padding are not zero, as a writer other than
        // `encode_item_into` could have left it. The re-order copies the
        // field into the arena; what it seals must still be what decoding
        // the item and encoding it again gives.
        let mut rig = Rig::with_lower(20);
        let id = 107;
        let payload = vec![0x5Au8; 33];
        let mut dirty = vec![0xC7u8; rig.codec.data_field_len()];
        Writer::over(&mut dirty[..])
            .u64(id)
            .u32(payload.len() as u32)
            .bytes(&[0xDE, 0xAD, 0xBE, 0xEF])
            .bytes(&payload);
        assert_eq!(decode_item(&dirty).unwrap(), (id, &payload[..]));
        let sealed = rig
            .codec
            .seal(&rig.level.key, &dirty, &mut HashDrbg::from_u64(77))
            .unwrap();
        let slot = rig.level.manifest[&id];
        rig.device
            .write_block(rig.level.data_offset + slot, &sealed)
            .unwrap();

        let sorter = ExternalSorter::new(&rig.sort_device, 8);
        rig.level
            .merge_reorder(
                &rig.device,
                &rig.codec,
                &sorter,
                &rig.master,
                &mut rig.rng,
                &[],
                None,
            )
            .unwrap();

        let mut physical = vec![0u8; BLOCK];
        rig.device
            .read_block(
                rig.level.data_offset + rig.level.manifest[&id],
                &mut physical,
            )
            .unwrap();
        let field = rig.codec.open(&rig.level.key, &physical).unwrap();
        let mut clean = vec![0xEEu8; rig.codec.data_field_len()];
        encode_item_into(&mut clean, id, &payload);
        assert_eq!(field, clean);
    }

    #[test]
    fn large_level_round_trips_through_batched_sweeps() {
        // More items than IO_BATCH_BLOCKS so sweep/rebuild exercise the
        // multi-batch and tail-batch paths.
        let n = 2 * IO_BATCH_BLOCKS + 7;
        let (device, sort_device, mut level, codec, master, mut rng) = setup(n + 5);
        let sorter = ExternalSorter::new(sort_device, 16);
        level
            .reorder(&device, &codec, &sorter, &master, &mut rng, items(n))
            .unwrap();
        let collected = contents(&level, &device, &codec);
        assert_eq!(collected.len() as u64, n);
        let mut ids: Vec<u64> = collected.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (100..100 + n).collect::<Vec<_>>());
    }

    #[test]
    fn the_index_region_keeps_the_size_of_the_bucket_index() {
        // 31 entries a 512-byte block at 50 % load: 100 items need
        // ceil(200 / 31) = 7 blocks, and an empty level still has one.
        assert_eq!(index_blocks_for(100, 512), 7);
        assert_eq!(index_blocks_for(31, 512), 2);
        assert_eq!(index_blocks_for(0, 512), 1);
        assert_eq!(index_blocks_for(8192, 4128), 64);
    }

    #[test]
    fn the_index_region_is_noise_under_the_epoch_key() {
        // Every re-order rewrites the whole region; block b is a block of
        // zeros CBC-encrypted under the epoch's index key with b as IV, so
        // it holds nothing of the items, their slots or the DRBG, and the
        // next epoch's region shares nothing with it.
        let (device, sort_device, mut level, codec, master, mut rng) = setup(64);
        let sorter = ExternalSorter::new(sort_device, 16);
        let mut regions = Vec::new();
        for n in [40, 10] {
            level
                .reorder(&device, &codec, &sorter, &master, &mut rng, items(n))
                .unwrap();
            let mut region = vec![0u8; level.index_blocks as usize * BLOCK];
            device.read_blocks(level.index_offset, &mut region).unwrap();
            let key = level.key.derive("oblivious:index");
            let cbc = CbcCipher::new(Aes256::new(key.as_bytes()));
            for (b, block) in (level.index_offset..).zip(region.chunks_exact(BLOCK)) {
                let mut iv = [0u8; IV_SIZE];
                Writer::over(&mut iv[..]).u64(b);
                assert_eq!(cbc.decrypt(&iv, block).unwrap(), [0u8; BLOCK], "block {b}");
            }
            regions.push(region);
        }
        assert_ne!(regions[0], regions[1]);
    }

    #[test]
    fn clear_makes_old_entries_unfindable() {
        let (device, sort_device, mut level, codec, master, mut rng) = setup(16);
        let sorter = ExternalSorter::new(sort_device, 4);
        level
            .reorder(&device, &codec, &sorter, &master, &mut rng, items(10))
            .unwrap();
        level.clear();
        assert_eq!(level.len(), 0);
        for (id, _) in items(10) {
            assert_eq!(lookup(&level, id), None);
        }
        let _ = codec;
    }

    #[test]
    fn over_capacity_reorder_rejected() {
        let (device, sort_device, mut level, codec, master, mut rng) = setup(8);
        let sorter = ExternalSorter::new(sort_device, 4);
        assert!(matches!(
            level.reorder(&device, &codec, &sorter, &master, &mut rng, items(9)),
            Err(ObliviousError::CapacityExhausted)
        ));
    }

    #[test]
    fn oversized_item_rejected() {
        let (device, sort_device, mut level, codec, master, mut rng) = setup(8);
        let sorter = ExternalSorter::new(sort_device, 4);
        let too_big = vec![(1u64, vec![0u8; Level::item_capacity(BLOCK) + 1])];
        assert!(matches!(
            level.reorder(&device, &codec, &sorter, &master, &mut rng, too_big),
            Err(ObliviousError::ItemTooLarge { .. })
        ));
    }

    #[test]
    fn item_capacity_leaves_room_for_headers() {
        assert_eq!(Level::item_capacity(4128), 4096);
        assert!(Level::item_capacity(512) >= 480);
        type Store = crate::ObliviousStore<MemDevice, MemDevice>;
        for n in 1..=4096 {
            let capacity = Level::item_capacity(Store::block_size_for_item(n));
            assert!(capacity >= n, "item of {n} bytes");
            if n % 16 == 0 {
                assert_eq!(capacity, n, "item of {n} bytes");
            }
        }
    }

    mod merge_equivalence {
        //! Property test: the streaming merge ([`Level::merge_reorder`])
        //! must produce exactly the item set the old HashMap-materializing
        //! merge produced — lower items into a map, upper items inserted
        //! over them (upper wins on duplicate ids).

        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        fn item_set(ids: Vec<u64>, tag: u8) -> Vec<(u64, Vec<u8>)> {
            // Dedup ids (levels never hold duplicates internally) while
            // keeping first-occurrence order.
            let mut seen = std::collections::HashSet::new();
            ids.into_iter()
                .filter(|id| seen.insert(*id))
                .map(|id| (id, vec![tag ^ (id % 251) as u8; 24 + (id % 17) as usize]))
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

            #[test]
            fn streaming_merge_matches_hashmap_merge(
                lower_ids in proptest::collection::vec(0u64..40, 0..24),
                upper_ids in proptest::collection::vec(0u64..40, 0..16),
            ) {
                let lower = item_set(lower_ids, 0x00);
                let upper = item_set(upper_ids, 0xA0);

                // Reference semantics: the pre-streaming HashMap merge.
                let mut expected: HashMap<u64, Vec<u8>> =
                    lower.iter().cloned().collect();
                for (id, payload) in &upper {
                    expected.insert(*id, payload.clone());
                }

                let (device, sort_device, mut level, codec, master, mut rng) = setup(64);
                let sorter = ExternalSorter::new(sort_device, 4);
                level
                    .reorder(&device, &codec, &sorter, &master, &mut rng, lower)
                    .expect("seed lower level");
                level
                    .merge_reorder(&device, &codec, &sorter, &master, &mut rng, &upper, None)
                    .expect("streaming merge");

                let got: HashMap<u64, Vec<u8>> =
                    contents(&level, &device, &codec).into_iter().collect();
                prop_assert_eq!(got, expected);
            }
        }
    }

    /// Bytes produced by the encoder as it stood before the port onto
    /// `wire`: the format must not move.
    #[test]
    fn item_golden_vector_is_bit_identical() {
        const GOLDEN_ITEM: &[u8] = b"\
            \x08\x07\x06\x05\x04\x03\x02\x01\x14\x00\x00\x00\x00\x00\x00\x00\x20\x21\x22\x23\
            \x24\x25\x26\x27\x28\x29\x2a\x2b\x2c\x2d\x2e\x2f\x30\x31\x32\x33\x00\x00\x00\x00\
            \x00\x00\x00\x00\x00\x00\x00\x00";
        let payload: Vec<u8> = (0x20..0x34).collect();
        // The whole field is the encoder's: stale bytes are zeroed.
        let mut field = vec![0xEEu8; 48];
        encode_item_into(&mut field, 0x0102_0304_0506_0708, &payload);
        assert_eq!(field, GOLDEN_ITEM);
        assert_eq!(
            decode_item(GOLDEN_ITEM).unwrap(),
            (0x0102_0304_0506_0708, &payload[..])
        );
    }
}
