//! Cover traffic: dummy updates over victims drawn uniformly or from a scrub
//! cursor.
//!
//! The rule that keeps cover traffic from destroying what it hides among:
//! the owner index supplies the key of a victim some managed file holds, and
//! for every other victim the *block map* decides — `Dummy` is free space and
//! is randomised, anything else is somebody's (an anchor replica, a journal
//! slot, a block claimed through the block map that no managed file holds)
//! and is left alone.

use std::sync::atomic::{AtomicUsize, Ordering};

use stegfs_base::BlockClass;
use stegfs_blockdev::{BlockDevice, BlockId};
use stegfs_crypto::HashDrbg;

use super::file::{FileMut, Role};
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
    /// number of managed blocks — each read when its victim's turn comes, so
    /// a repair earlier in the batch that re-homed a shard onto a later
    /// victim is seen.
    ///
    /// Returns the blocks actually rewritten (the observable update stream).
    pub fn dummy_update_batch(
        &self,
        k: usize,
        cursor: Option<&ScrubCursor>,
    ) -> Result<Vec<BlockId>, ResilienceError> {
        let mut tables = self.tables.lock();
        let num = self.fs.superblock().num_blocks;
        let victims: Vec<BlockId> = match cursor {
            Some(cursor) => cursor.next_victims(k),
            None => (0..k)
                .map(|_| self.fs.with_rng(|rng| 1 + rng.gen_range(num - 1)))
                .collect(),
        };
        let mut scratch = vec![0u8; self.fs.codec().block_size()];
        let mut field = vec![0u8; self.fs.content_bytes_per_block()];
        let mut touched = Vec::with_capacity(victims.len());
        for victim in victims {
            match tables.index.get(&victim).cloned() {
                Some((path, role)) => {
                    let mut g = tables.file_mut(&path)?;
                    self.dummy_update_owned(victim, &mut g, role, &mut scratch, &mut field)?;
                }
                // Nobody's key: rewritten only if the block map says it is
                // free. No allocation runs beside the batch.
                None if self.map.class(victim) == BlockClass::Dummy => {
                    self.fs.randomize_block(victim, &mut scratch)?;
                }
                None => continue,
            }
            touched.push(victim);
        }
        Ok(touched)
    }

    /// Dummy-update `victim` as the block playing `role` in `g`: one read,
    /// one write, whatever the role. The block is opened under the key the
    /// role implies and that same plaintext sealed back under a fresh IV —
    /// the bytes and the IV draw of a reseal; in between, a content block or
    /// parity row is MAC-verified against its record (a mismatch becomes a
    /// journaled stripe repair instead), which is why the plaintext is in
    /// hand at all.
    fn dummy_update_owned(
        &self,
        victim: BlockId,
        g: &mut FileMut<'_>,
        role: Role,
        scratch: &mut [u8],
        field: &mut [u8],
    ) -> Result<(), ResilienceError> {
        let (key, striped) = g.sealing(role);
        self.read_field(victim, &key, scratch, field)?;
        if let Some((expected, stripe)) = striped {
            if g.keys.mac16(field) != expected.mac {
                // Scrub-on-cover-traffic: the dummy update found silent
                // corruption; heal the stripe. Nothing is read again — the
                // repair's write of the rebuilt shard is this victim's
                // update, and a stripe past repair is the scrub's to report.
                self.repair_stripe(g, stripe, true)?;
                return Ok(());
            }
        }
        let codec = self.fs.codec();
        self.fs.with_rng(|rng| codec.lay_out(scratch, field, rng))?;
        codec.seal_blocks_in_place(&key, scratch)?;
        self.fs.device().write_block(victim, scratch)?;
        Ok(())
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
