//! The update path: a journaled write plan that folds each plaintext delta
//! into its stripe's parity rows and records every pre/post check the
//! recovery pass needs before the first device write.

use std::collections::{btree_map, BTreeMap};

use stegfs_blockdev::{BlockDevice, BlockId};

use super::file::{FileMut, FileState, Role};
use super::{padded, ResilientStore};
use crate::error::ResilienceError;
use crate::journal::{BlockWriteIntent, IntentBody, ParityIntent, SHADOW_ENTRY_BASE};
use crate::stripe::{BlockCheck, StripeMap};

/// Record in `map` the checks `entry`'s data block and parity rows carry once
/// its writes have landed.
fn record_post(map: &mut StripeMap, entry: &BlockWriteIntent) {
    map.set_data_check(entry.index, entry.data_post);
    let stripe = map.config().stripe_of(entry.index);
    for (row, parity) in entry.parity.iter().enumerate() {
        map.set_parity_check(stripe, row, parity.post);
    }
}

/// The indices whose recorded check is not that of the field `new_fields`
/// holds for them: which blocks a rewrite changes, asked of the stripe map
/// and not of the device. A fast hash that differs from the record settles
/// it — changed; the multiply-xor hash is not collision-resistant, so one
/// that matches only nominates the block as unchanged, and the recorded MAC
/// has the last word.
fn changed_blocks(g: &FileState, new_fields: &[&[u8]]) -> Vec<u64> {
    let mut fast = vec![0u64; new_fields.len()];
    g.keys.fast_many(new_fields, &mut fast);
    let recorded = |i: usize| g.stripes.data_check(i as u64);
    let nominated: Vec<usize> = (0..new_fields.len())
        .filter(|&i| fast[i] == recorded(i).fast)
        .collect();
    let fields: Vec<&[u8]> = nominated.iter().map(|&i| new_fields[i]).collect();
    let mut macs = vec![[0u8; 16]; fields.len()];
    g.keys.mac16_many(&fields, &mut macs);
    let mut changed = vec![true; new_fields.len()];
    for (i, mac) in nominated.into_iter().zip(macs) {
        changed[i] = mac != recorded(i).mac;
    }
    (0..new_fields.len() as u64)
        .filter(|&i| changed[i as usize])
        .collect()
}

impl<D: BlockDevice> ResilientStore<D> {
    /// Overwrite one content block, folding the plaintext delta into every
    /// parity shard of the stripe (`p' = p ⊕ C[i][j]·(old ⊕ new)`) instead of
    /// re-encoding the whole stripe.
    ///
    /// Journaled: a `WriteBatch` intent carrying the pre- and post-image
    /// checks of the data block and every parity row lands before the first
    /// device write, so a power cut leaves the stripe recoverable to exactly
    /// the old or the new content — never a mix.
    pub fn write_block(&self, path: &str, index: u64, data: &[u8]) -> Result<(), ResilienceError> {
        self.write_blocks(path, &[(index, data)])
    }

    /// [`Self::write_block`] of every `(index, data)` pair as one batch of
    /// the write plan, so the journal and shadow costs amortise over them.
    /// Indices ascend and are distinct: each block's delta is taken against
    /// its content before the batch.
    pub(super) fn write_blocks(
        &self,
        path: &str,
        blocks: &[(u64, &[u8])],
    ) -> Result<(), ResilienceError> {
        let mut tables = self.tables.lock();
        let mut g = tables.file_mut(path)?;
        let per = self.fs.content_bytes_per_block();
        if let Some(&(_, data)) = blocks.iter().find(|(_, data)| data.len() > per) {
            return Err(ResilienceError::BlockTooLarge {
                len: data.len(),
                capacity: per,
            });
        }
        let mut old = vec![0u8; blocks.len() * per];
        for (&(index, _), field) in blocks.iter().zip(old.chunks_exact_mut(per)) {
            self.healed_read(&mut g, index, field)?;
        }
        let new_fields: Vec<Vec<u8>> = blocks.iter().map(|&(_, data)| padded(data, per)).collect();
        let changes: Vec<(u64, &[u8], &[u8])> = blocks
            .iter()
            .zip(old.chunks_exact(per))
            .zip(&new_fields)
            .map(|((&(index, _), old), new)| (index, old, new.as_slice()))
            .collect();
        self.write_batch_locked(path, &mut g, &changes)
    }

    /// Apply an ordered list of `(index, old_field, new_field)` delta
    /// updates. Batches larger than one record chunk to the journal's
    /// capacity; within a chunk one sealed intent carries the whole pre/post
    /// chain, the per-entry data and parity writes follow record order, and
    /// the stripe-map shadow lands once at the end — so the journal and
    /// shadow costs amortise over every block of the chunk.
    ///
    /// Contract: every `old_field` has been read through
    /// [`Self::healed_read`], which verifies it against the stripe map's
    /// record for its index. The plan therefore records that check as the
    /// block's pre-image instead of MACing the same bytes again, as it does
    /// for parity rows whose fast check passed ([`Self::read_parity_rows`])
    /// and for the shadow blocks the previous plan wrote
    /// (`FileState::shadow_checks`); debug builds recompute every check so
    /// taken and assert it equal.
    fn write_batch_locked(
        &self,
        path: &str,
        g: &mut FileMut<'_>,
        changes: &[(u64, &[u8], &[u8])],
    ) -> Result<(), ResilienceError> {
        if changes.is_empty() {
            return Ok(());
        }
        let content_key = g.content_key;
        let (k, m) = (self.stripe_cfg.k, self.stripe_cfg.m);
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
                    btree_map::Entry::Vacant(e) => e.insert(self.read_parity_rows(g, stripe)?),
                };
                let delta: Vec<u8> = old.iter().zip(new_field).map(|(a, b)| a ^ b).collect();
                let slot = (index - stripe * k as u64) as usize;
                self.codec.apply_delta(slot, &delta, parities);
                let data_pre = entries
                    .iter()
                    .rev()
                    .find(|e| e.index == index)
                    .map_or(*g.stripes.data_check(index), |e| e.data_post);
                debug_assert_eq!(data_pre, g.keys.check(old), "unverified pre-image");
                let mut images = vec![new_field];
                images.extend(parities.iter().map(Vec::as_slice));
                let checks = g.keys.check_many(&images);
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
            // uses these checks to verify the on-disk copy. The post fields
            // are the bytes the rewrite below then writes, and their checks
            // the next plan's pre-images.
            let shadow_post = if shadow_tail > 0 {
                let mut post_map = g.stripes.clone();
                for e in &entries {
                    record_post(&mut post_map, e);
                }
                let pre = match g.shadow_checks.take() {
                    Some(checks) => {
                        debug_assert_eq!(checks, self.shadow_image(g, &g.stripes).1);
                        checks
                    }
                    None => self.shadow_image(g, &g.stripes).1,
                };
                let (fields, post) = self.shadow_image(g, &post_map);
                for (i, (pre, post)) in pre.iter().zip(&post).enumerate() {
                    entries.push(BlockWriteIntent {
                        index: SHADOW_ENTRY_BASE + i as u64,
                        data_location: g.shadow.header.blocks[i],
                        data_pre: *pre,
                        data_post: *post,
                        parity: Vec::new(),
                    });
                }
                Some((fields, post))
            } else {
                None
            };

            // Write-ahead intent: every pre/post check the recovery pass
            // needs to classify each affected block as old or new, sealed
            // into one journal slot before the first data write below.
            self.begin_intent(
                path,
                IntentBody::WriteBatch {
                    entries: entries.clone(),
                },
            )?;

            for (&(_, _, new_field), (entry, parities)) in
                chunk.iter().zip(entries.iter().zip(&planned_parity))
            {
                // The entry's data block and its parity rows are sealed and
                // written data first, parity in row order.
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
                record_post(&mut g.stripes, entry);
            }
            match shadow_post {
                Some((fields, checks)) => {
                    self.write_shadow_fields(g, &fields)?;
                    g.shadow_checks = Some(checks);
                }
                None => self.rewrite_shadow(g)?,
            }
        }
        Ok(())
    }

    /// Read the parity rows of `stripe` with their checks for a delta update,
    /// healing the stripe first when a row fails its recorded fast check: a
    /// delta folded into a corrupt row would be written back, and its check
    /// recorded as authoritative, with the corruption still inside. The rows
    /// travel with the stripe map's recorded checks, which they have been
    /// verified against — by the fast check, or after a heal by the full one.
    fn read_parity_rows(
        &self,
        g: &mut FileMut<'_>,
        stripe: u64,
    ) -> Result<(Vec<Vec<u8>>, Vec<BlockCheck>), ResilienceError> {
        let m = self.stripe_cfg.m;
        let locations = (0..m).map(|row| g.stripes.parity_entry(stripe, row).location);
        let mut rows = self.read_shards(locations, &g.content_key)?;
        let recorded: Vec<BlockCheck> = (0..m)
            .map(|row| g.stripes.parity_entry(stripe, row).check)
            .collect();
        let intact = {
            let images: Vec<&[u8]> = rows.iter().map(Vec::as_slice).collect();
            let mut fast = vec![0u64; m];
            g.keys.fast_many(&images, &mut fast);
            let intact = fast
                .iter()
                .zip(&recorded)
                .all(|(fast, rec)| *fast == rec.fast);
            debug_assert!(
                !intact || recorded == g.keys.check_many(&images),
                "unverified parity row"
            );
            intact
        };
        if !intact {
            // A repair moves a row to a new block, never its recorded check.
            let shards: Vec<Role> = (0..m).map(|row| Role::Parity(stripe, row)).collect();
            self.heal_and_reread(g, &shards, rows.iter_mut().map(Vec::as_mut_slice))?;
        }
        Ok((rows, recorded))
    }

    /// Rewrite a whole file in place through the delta-parity path: only
    /// blocks whose content actually changed are touched — read, verified
    /// and written; a block the stripe map's MAC says is unchanged costs no
    /// device request, so identical content costs none at all — the whole
    /// change set journaled as one (or, past the record capacity, a few)
    /// ordered `WriteBatch` intent(s). The new content must occupy the same
    /// number of blocks (striped files do not resize in place).
    pub fn write_file(&self, path: &str, content: &[u8]) -> Result<(), ResilienceError> {
        let mut tables = self.tables.lock();
        let mut g = tables.file_mut(path)?;
        let per = self.fs.content_bytes_per_block();
        let num = g.open.header.num_blocks();
        let new_blocks = (content.len().div_ceil(per) as u64).max(1);
        if new_blocks != num {
            return Err(ResilienceError::Corrupt(format!(
                "rewrite of {path} needs {new_blocks} blocks but the file has {num}"
            )));
        }
        // Only the last block can be short of a full data field.
        let tail_start = (num as usize - 1) * per;
        let tail = padded(&content[tail_start..], per);
        let new_fields: Vec<&[u8]> = (0..num as usize)
            .map(|i| content.get(i * per..(i + 1) * per).unwrap_or(&tail))
            .collect();
        // Only a block that changes is read: verified against its record —
        // healed first where it fails — so that its delta is a true one.
        let indices = changed_blocks(&g, &new_fields);
        let mut old = vec![0u8; indices.len() * per];
        for (&i, field) in indices.iter().zip(old.chunks_exact_mut(per)) {
            self.healed_read(&mut g, i, field)?;
        }
        let changes: Vec<(u64, &[u8], &[u8])> = indices
            .iter()
            .zip(old.chunks_exact(per))
            .map(|(&i, old_field)| (i, old_field, new_fields[i as usize]))
            .collect();
        self.write_batch_locked(path, &mut g, &changes)?;
        if g.open.header.file_size != content.len() as u64 {
            g.open.header.file_size = content.len() as u64;
            self.fs.save(&mut g.open)?;
        }
        Ok(())
    }

    /// The data fields the shadow file holds when it stores `map`: the
    /// encoded map cut into blocks, the last one zero-padded.
    pub(super) fn shadow_fields(&self, map: &StripeMap) -> Vec<Vec<u8>> {
        let per = self.fs.content_bytes_per_block();
        let encoded = map.encode();
        encoded
            .chunks(per)
            .map(|chunk| padded(chunk, per))
            .collect()
    }

    /// [`Self::shadow_fields`] of `map` with the check of each.
    fn shadow_image(&self, g: &FileState, map: &StripeMap) -> (Vec<Vec<u8>>, Vec<BlockCheck>) {
        let fields = self.shadow_fields(map);
        let refs: Vec<&[u8]> = fields.iter().map(Vec::as_slice).collect();
        let checks = g.shadow_keys.check_many(&refs);
        (fields, checks)
    }

    /// Seal `fields` into the shadow file's blocks, in place and in order.
    /// The encoded length is fixed for a given shape, so the shadow's
    /// geometry never changes.
    fn write_shadow_fields(
        &self,
        g: &mut FileState,
        fields: &[Vec<u8>],
    ) -> Result<(), ResilienceError> {
        for (i, field) in fields.iter().enumerate() {
            self.fs
                .write_content_block(&mut g.shadow, i as u64, field)?;
        }
        Ok(())
    }

    /// Persist the in-memory stripe map into the shadow file. For everything
    /// but the write plan, which hands [`Self::write_shadow_fields`] the
    /// fields it has already checked: the checks it left behind describe the
    /// shadow no longer and are dropped.
    pub(super) fn rewrite_shadow(&self, g: &mut FileState) -> Result<(), ResilienceError> {
        g.shadow_checks = None;
        let fields = self.shadow_fields(&g.stripes);
        self.write_shadow_fields(g, &fields)
    }
}
