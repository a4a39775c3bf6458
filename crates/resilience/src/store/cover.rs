//! Cover traffic: dummy updates over victims drawn uniformly or from a scrub
//! cursor.
//!
//! The rule that keeps cover traffic from destroying what it hides among:
//! the owner index supplies the key of a victim some managed file holds, and
//! for every other victim the *block map* decides — `Dummy` is free space and
//! is randomised, anything else is somebody's (an anchor replica, a journal
//! slot, a block an allocation has claimed for a file or a repair that has
//! not entered the index yet) and is left alone.

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::RwLock;

use stegfs_base::BlockClass;
use stegfs_blockdev::{BlockDevice, BlockId};
use stegfs_crypto::HashDrbg;

use super::file::{FileState, Owner, Role};
use super::ResilientStore;
use crate::error::ResilienceError;

impl<D: BlockDevice> ResilientStore<D> {
    /// Build a scrub cursor over every payload block, in a seeded
    /// pseudo-random order. Feeding it to
    /// [`ResilientStore::dummy_update_batch`] turns the volume's cover
    /// traffic into a background scrub: each pass over the cursor MAC-checks
    /// every hidden block exactly once while the touched-block stream keeps
    /// its uniform look.
    pub fn scrub_cursor(&self, seed: u64) -> ScrubCursor {
        let num = self.fs.superblock().num_blocks;
        let mut order: Vec<BlockId> = (1..num).collect();
        HashDrbg::from_u64(seed).shuffle(&mut order);
        ScrubCursor {
            order,
            pos: AtomicUsize::new(0),
        }
    }

    /// Issue `k` dummy updates, drawing victims from `cursor` when given
    /// (scrub-on-cover-traffic) or uniformly at random otherwise. A victim
    /// owned by a managed file is resealed under its real key — and
    /// opportunistically MAC-verified, with a journaled stripe repair on
    /// mismatch; a free one is re-randomised; one that is claimed but not
    /// owned is skipped (the module's rule) — in *both* modes, so the two
    /// victim streams stay distributionally comparable.
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
        // One pass over the standing index for every victim's owner.
        let planned: Vec<(BlockId, Option<Owner>)> = {
            let index = self.index.read();
            victims
                .into_iter()
                .map(|victim| (victim, index.get(&victim).cloned()))
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
            let rewritten = loop {
                let Some((state, role)) = owner else {
                    // Nobody's key: rewritten only if the block map says it
                    // is free, and claimed while it is, so an allocation
                    // beside the batch is never handed a block mid-rewrite.
                    let free = self
                        .map
                        .claim(victim, BlockClass::Dummy, BlockClass::Reserved);
                    if free {
                        let written = self.fs.randomize_block(victim, &mut scratch);
                        self.map.set(victim, BlockClass::Dummy);
                        written?;
                    }
                    break free;
                };
                if self.dummy_update_owned(victim, &state, role, &mut scratch, &mut field)? {
                    break true;
                }
                owner = self.index.read().get(&victim).cloned();
            };
            if rewritten {
                touched.push(victim);
            }
        }
        Ok(touched)
    }

    /// Dummy-update `victim` as the block playing `role` in `state`: one
    /// read, one write, whatever the role. The block is opened under the key
    /// the role implies and that same plaintext sealed back under a fresh IV
    /// — the bytes and the IV draw of a reseal; in between, a content block
    /// or parity row is MAC-verified against its record (a mismatch becomes a
    /// journaled stripe repair instead), which is why the plaintext is in
    /// hand at all. Returns `false`, with nothing read or written, if the
    /// role no longer holds under the file's lock.
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
        let (key, striped) = g.sealing(role);
        self.read_field(victim, &key, scratch, field)?;
        if let Some((expected, stripe)) = striped {
            if g.keys.mac16(field) != expected.mac {
                // Scrub-on-cover-traffic: the dummy update found silent
                // corruption; heal the stripe. Nothing is read again — the
                // repair's write of the rebuilt shard is this victim's
                // update, and a stripe past repair is the scrub's to report.
                drop(g);
                self.repair_stripe(&mut state.write(), stripe, true)?;
                return Ok(true);
            }
        }
        let codec = self.fs.codec();
        self.fs.with_rng(|rng| codec.lay_out(scratch, field, rng))?;
        codec.seal_blocks_in_place(&key, scratch)?;
        self.fs.device().write_block(victim, scratch)?;
        Ok(true)
    }
}

/// A cycling, seeded-shuffle iterator over the volume's payload blocks: the
/// victim stream that lets a scrub pass ride the dummy-update cover traffic.
/// One full cycle visits every payload block exactly once.
pub struct ScrubCursor {
    pub(super) order: Vec<BlockId>,
    pub(super) pos: AtomicUsize,
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
