//! The read path: every block is verified against the stripe map as it is
//! read, and a block that fails is healed, read again and verified in full —
//! the caller gets the file's true bytes or an error, never wrong data.

use std::collections::BTreeSet;

use stegfs_blockdev::{BlockDevice, BlockId};
use stegfs_crypto::Key256;

use super::file::{FileMut, FileState, Role};
use super::ResilientStore;
use crate::error::ResilienceError;

impl<D: BlockDevice> ResilientStore<D> {
    /// Read a whole file, verifying the fast check of every block inline.
    /// The blocks are read in one ascending sweep over the disk, not in the
    /// file's index order. A check failure triggers stripe reconstruction;
    /// the call either returns the file's true bytes or reports it
    /// unrecoverable — never silently wrong data.
    pub fn read_file(&self, path: &str) -> Result<Vec<u8>, ResilienceError> {
        let mut tables = self.tables.lock();
        let mut g = tables.file_mut(path)?;
        let per = self.fs.content_bytes_per_block();
        let file_size = g.open.header.file_size as usize;
        let num = g.open.header.num_blocks() as usize;

        let mut out = vec![0u8; num * per];
        let bad = self.read_fields(&g, &mut out)?;
        self.stats.reads_verified.add((num - bad.len()) as u64);
        if !bad.is_empty() {
            self.stats.read_check_failures.add(bad.len() as u64);
            // `bad` ascends, as the fields of `out` do.
            let failed: Vec<Role> = bad.iter().map(|&i| Role::Content(i)).collect();
            let fields = out
                .chunks_exact_mut(per)
                .enumerate()
                .filter_map(|(i, field)| bad.binary_search(&(i as u64)).is_ok().then_some(field));
            self.heal_and_reread(&mut g, &failed, fields)?;
        }
        out.truncate(file_size);
        Ok(out)
    }

    /// Read the block at `loc` into `scratch` and open it under `key` into
    /// `field`.
    pub(super) fn read_field(
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

    /// Open the block at each of `locations` under `key` into the matching
    /// entry of `fields`, issuing the reads in ascending block order. A
    /// file's blocks are scattered uniformly over the volume, so in index
    /// order every read is a full seek; in ascending order each one moves the
    /// head forward, and a gap inside the disk model's near-seek window costs
    /// a track-to-track seek instead. The requests stay scalar and their set
    /// is unchanged: what a bus watcher learns is that set, not the file's
    /// index → location map.
    pub(super) fn read_ascending<F: AsMut<[u8]>>(
        &self,
        locations: &[BlockId],
        key: &Key256,
        fields: &mut [F],
    ) -> Result<(), stegfs_base::FsError> {
        debug_assert_eq!(locations.len(), fields.len(), "one field per block");
        let mut order: Vec<usize> = (0..locations.len()).collect();
        order.sort_unstable_by_key(|&i| locations[i]);
        let mut scratch = vec![0u8; self.fs.codec().block_size()];
        for i in order {
            self.read_field(locations[i], key, &mut scratch, fields[i].as_mut())?;
        }
        Ok(())
    }

    /// Read every content block of `g` in one ascending sweep
    /// ([`Self::read_ascending`]), each into its index's data field of `out`,
    /// check all fields' fast hashes together and return the indices that
    /// fail, ascending. The whole-file read is [`Self::read_file`]'s alone: an
    /// update reads only the blocks it rewrites ([`Self::healed_read`]).
    pub(super) fn read_fields(
        &self,
        g: &FileState,
        out: &mut [u8],
    ) -> Result<Vec<u64>, ResilienceError> {
        let per = self.fs.content_bytes_per_block();
        let mut fields: Vec<&mut [u8]> = out.chunks_exact_mut(per).collect();
        self.read_ascending(&g.open.header.blocks, &g.content_key, &mut fields)?;
        let fields: Vec<&[u8]> = out.chunks_exact(per).collect();
        let mut hashes = vec![0u64; fields.len()];
        g.keys.fast_many(&fields, &mut hashes);
        Ok((0..fields.len() as u64)
            .filter(|&i| hashes[i as usize] != g.stripes.data_check(i).fast)
            .collect())
    }

    /// Read one content block's plaintext into `field` for a delta update —
    /// the one pre-read of a block `write_block` or `write_file` is about to
    /// rewrite — healing its stripe first when the fast check says the stored
    /// bytes are stale or torn (a delta against corrupt bytes would poison
    /// every parity row). Either way `field` comes back verified against the
    /// stripe map's record for `index` — by its fast check, or after a heal
    /// by the full recomputed check — which is what `write_batch_locked`
    /// relies on to record that check as the block's pre-image without a MAC.
    pub(super) fn healed_read(
        &self,
        g: &mut FileMut<'_>,
        index: u64,
        field: &mut [u8],
    ) -> Result<(), ResilienceError> {
        let loc = g.open.content_block(index)?;
        let mut scratch = vec![0u8; self.fs.codec().block_size()];
        self.read_field(loc, &g.content_key, &mut scratch, field)?;
        if g.keys.fast(field) != g.stripes.data_check(index).fast {
            self.heal_and_reread(g, &[Role::Content(index)], std::iter::once(field))?;
        }
        Ok(())
    }

    /// The shards playing the `failed` (striped) roles did not match their
    /// recorded checks: repair their stripes — journaled, in stripe order —
    /// then read each shard again into the matching buffer of `fields` and
    /// verify it by its full recorded check. Every check-failure path that
    /// needs the bytes comes through here; anything short of a verified
    /// re-read is `Unrecoverable`.
    pub(super) fn heal_and_reread<'f>(
        &self,
        g: &mut FileMut<'_>,
        failed: &[Role],
        fields: impl Iterator<Item = &'f mut [u8]>,
    ) -> Result<(), ResilienceError> {
        // Invariant: `failed` holds `Role::Content` and `Role::Parity` only —
        // the two roles a recorded check can fail for, and the only ones the
        // three callers build — so `sealing` has a record for each.
        let recorded = |g: &FileState, role| {
            let (_, striped) = g.sealing(role);
            striped.expect("a failed check belongs to a content block or parity row")
        };
        let unrecoverable = |g: &FileState, stripes| ResilienceError::Unrecoverable {
            path: g.open.path.clone(),
            stripes,
        };
        let stripes: BTreeSet<u64> = failed.iter().map(|&role| recorded(g, role).1).collect();
        let mut lost = Vec::new();
        for stripe in stripes {
            if self.repair_stripe(g, stripe, true)?.unrecoverable {
                lost.push(stripe);
            }
        }
        if !lost.is_empty() {
            return Err(unrecoverable(g, lost));
        }
        let mut scratch = vec![0u8; self.fs.codec().block_size()];
        for (&role, field) in failed.iter().zip(fields) {
            // Invariant: `recorded` has indexed the stripe map with `role`
            // above, so it names a shard of this file, and a repair re-homes
            // a shard, never drops it.
            let loc = g
                .shard_location(role)
                .expect("a shard with a record has a location");
            self.read_field(loc, &g.content_key, &mut scratch, field)?;
            let (check, stripe) = recorded(g, role);
            if g.keys.check(field) != check {
                return Err(unrecoverable(g, vec![stripe]));
            }
        }
        Ok(())
    }
}
