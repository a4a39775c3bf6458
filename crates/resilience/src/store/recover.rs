//! Open-time journal recovery: every interrupted mutation is rolled forward
//! or back before the volume is handed out.

use std::collections::BTreeMap;
use stegfs_blockdev::{BlockDevice, BlockId};

use super::file::FileState;
use super::repair::Lost;
use super::ResilientStore;
use crate::error::ResilienceError;
use crate::journal::{BlockWriteIntent, IntentBody, IntentRecord, SHADOW_ENTRY_BASE};
use crate::stats::RecoveryReport;
use crate::stripe::{BlockCheck, StripeMap};

/// Outcome of recovering one intent record.
#[derive(PartialEq, Eq)]
enum Recovered {
    /// The operation was completed forward (its new state made durable).
    Forward,
    /// The operation was undone (the old state restored).
    Back,
    /// The record was certainly complete; nothing to do.
    Stale,
    /// The affected stripe was beyond parity tolerance.
    Lost,
}

/// Outcome of resolving one stripe's group of `WriteBatch` entries.
enum GroupResolution {
    /// The first `complete` entries of the group hold (or were brought to)
    /// their post state; the rest are back in their pre state. `touched`
    /// reports whether any device or stripe-map state changed.
    Advanced { complete: usize, touched: bool },
    /// The group does not describe the file's current geometry — a later
    /// serialised (therefore complete) operation superseded the record.
    Stale,
    /// More shards out of state than parity can solve.
    Lost,
}

impl<D: BlockDevice> ResilientStore<D> {
    /// Scan the journal slots and roll every interrupted mutation forward or
    /// back. Runs inside [`ResilientStore::open`] after the file table is
    /// loaded and before the store is handed out; finishes by randomising
    /// every slot, so a crash *during* recovery simply re-runs it (every
    /// per-record action is idempotent).
    pub(super) fn recover_journal(&self) -> Result<RecoveryReport, ResilienceError> {
        let mut report = RecoveryReport::default();
        let records = self.journal.scan(&self.fs)?;
        report.intents_found = records.len() as u64;

        // Operations on one path are serialised by its file lock, so among
        // valid records for the same path every one except the highest op-id
        // is certainly complete: keep only the latest per path.
        let mut latest: BTreeMap<String, IntentRecord> = BTreeMap::new();
        for record in records {
            match latest.get(&record.path) {
                Some(prev) if prev.op_id >= record.op_id => report.intents_stale += 1,
                _ => {
                    if latest.insert(record.path.clone(), record).is_some() {
                        report.intents_stale += 1;
                    }
                }
            }
        }

        for (path, record) in latest {
            let outcome = match record.body {
                IntentBody::Create => self.recover_create(&path)?,
                IntentBody::WriteBatch { entries } => self.recover_write_batch(&path, &entries)?,
                IntentBody::Repair => self.recover_repair(&path)?,
            };
            match outcome {
                Recovered::Forward => report.rolled_forward += 1,
                Recovered::Back => report.rolled_back += 1,
                Recovered::Stale => report.intents_stale += 1,
                Recovered::Lost => report.unrecoverable += 1,
            }
        }
        self.journal.clear_all(&self.fs)?;
        self.stats.intents_recovered.add(report.recovered());
        Ok(report)
    }

    /// Undo an uncommitted file creation. Committed means the path reached
    /// the anchor's FAK table; everything about an uncommitted file is
    /// derivable from the master key, so the rollback needs no on-disk state
    /// beyond the intent itself.
    fn recover_create(&self, path: &str) -> Result<Recovered, ResilienceError> {
        if self.files.read().contains_key(path) {
            // The anchor bump landed: the create committed, record is stale.
            return Ok(Recovered::Stale);
        }
        let fak = self.file_fak(path);
        let open = match self.fs.open_file(&fak, path) {
            Ok(open) => open,
            // Header never landed: the create effectively never started.
            // Any sealed blocks it did write are unreferenced and will be
            // reclaimed as dummy space.
            Err(_) => return Ok(Recovered::Stale),
        };
        // Collect everything reachable *before* destroying the header. Not a
        // `FileState::owned_blocks` walk: there is no file state to build —
        // the shadow or its stripe map may be missing or half written, and
        // whatever part of the file does decode is what gets cleaned up.
        let mut hygiene: Vec<BlockId> = Vec::new();
        hygiene.extend(open.indirect_locations.iter().copied());
        hygiene.extend(open.header.blocks.iter().copied());
        let shadow_fak = self.shadow_fak(path);
        if let Ok(shadow) = self.fs.open_file(&shadow_fak, &Self::shadow_path(path)) {
            if let Ok(encoded) = self.fs.read_file(&shadow) {
                if let Ok(stripes) = StripeMap::decode(&encoded) {
                    hygiene.extend(stripes.parity_locations());
                }
            }
            hygiene.push(shadow.header_location);
            hygiene.extend(shadow.indirect_locations.iter().copied());
            hygiene.extend(shadow.header.blocks.iter().copied());
        }
        // Randomising the header is the undo of the commit point: it is the
        // one block that makes the file discoverable, and it goes first.
        let mut scratch = vec![0u8; self.fs.codec().block_size()];
        self.fs
            .randomize_block(open.header_location, &mut scratch)?;
        let num_blocks = self.fs.superblock().num_blocks;
        for loc in hygiene {
            // Locations decoded from a partially written shadow map may be
            // garbage; out-of-range ones are simply skipped. Everything here
            // is hygiene — the blocks are unreferenced once the header is
            // gone.
            if loc > 0 && loc < num_blocks {
                self.fs.randomize_block(loc, &mut scratch)?;
            }
        }
        Ok(Recovered::Back)
    }

    /// Complete or undo an interrupted batched delta update. Entries were
    /// written in record order with at most one device write in flight at
    /// the power cut, so the walk visits them stripe group by stripe group
    /// (same-stripe entries are adjacent — batch indices ascend): fully
    /// completed groups keep the walk going, the single in-flight group is
    /// resolved to a clean chain position by [`Self::resolve_stripe_group`],
    /// and the walk stops there — groups past the frontier never started,
    /// and after a rollback their recorded parity chain no longer describes
    /// the device.
    fn recover_write_batch(
        &self,
        path: &str,
        entries: &[BlockWriteIntent],
    ) -> Result<Recovered, ResilienceError> {
        let Ok(state) = self.file_state(path) else {
            return Ok(Recovered::Stale);
        };
        let mut g = state.write();

        // The record's tail covers the chunk-closing shadow rewrite; strip it
        // off before stripe grouping (shadow entries have no stripe geometry)
        // and verify it separately once the data frontier is resolved.
        let split = entries
            .iter()
            .position(|e| e.index >= SHADOW_ENTRY_BASE)
            .unwrap_or(entries.len());
        let (entries, shadow_entries) = entries.split_at(split);
        if entries.is_empty() {
            return Ok(Recovered::Stale);
        }

        // Runs of same-stripe entries, in write order.
        let stripe_of = |e: &BlockWriteIntent| self.stripe_cfg.stripe_of(e.index);
        let groups = entries.chunk_by(|a, b| stripe_of(a) == stripe_of(b));

        let mut touched = false;
        let mut outcome = Recovered::Back;
        for (gi, group) in groups.enumerate() {
            match self.resolve_stripe_group(&mut g, group)? {
                GroupResolution::Advanced {
                    complete,
                    touched: wrote,
                } => {
                    touched |= wrote;
                    if complete > 0 {
                        outcome = Recovered::Forward;
                    }
                    // The frontier lies inside this group: no later group
                    // ever started.
                    if complete < group.len() {
                        break;
                    }
                }
                GroupResolution::Lost => {
                    outcome = Recovered::Lost;
                    break;
                }
                // Geometry mismatch: a later serialised (therefore complete)
                // operation superseded this record.
                GroupResolution::Stale => {
                    if gi == 0 {
                        outcome = Recovered::Stale;
                    }
                    break;
                }
            }
        }
        if outcome != Recovered::Stale {
            // Bring the on-disk shadow to the resolved map. When the record
            // carries shadow entries, each names a shadow block being
            // rewritten: classify it against the re-derived target and only
            // skip the rewrite when every block already verifies (the cut
            // landed after the shadow write, or before the batch started).
            let mut dirty = touched;
            if !dirty && !shadow_entries.is_empty() {
                let target = self.shadow_fields(&g.stripes);
                for e in shadow_entries {
                    let i = (e.index - SHADOW_ENTRY_BASE) as usize;
                    let verifies = g.shadow.header.blocks.get(i) == Some(&e.data_location)
                        && e.parity.is_empty()
                        && target.get(i) == Some(&self.open_block(e.data_location, &g.shadow_key)?);
                    if !verifies {
                        dirty = true;
                        break;
                    }
                }
            }
            if dirty {
                self.rewrite_shadow(&mut g)?;
            }
        }
        Ok(outcome)
    }

    /// Resolve one stripe's run of batch entries after a crash.
    ///
    /// The operation wrote, per entry in order: the entry's data block, then
    /// every parity row folded forward to the chain position *after* that
    /// entry. A power cut is a strict prefix of those writes, so the group's
    /// data blocks hold post-images for a leading run of entries (at most
    /// one block torn mid-write) and the parity rows sit at — or torn
    /// between — the chain positions bracketing that run. The resolve
    /// classifies each group data block against its own recorded post MAC
    /// to find the frontier `complete`, expects every group block before it
    /// in its post state, every one past it in its pre state and every
    /// parity row at chain position `complete`, and has the stripe view
    /// erase every shard not in that target state and reconstruct it from
    /// the survivors (non-group data blocks are identical in every chain
    /// position and are held to their state-independent stripe-map checks).
    /// The stripe-map checks are then aligned with the resolved state; the
    /// caller owns the single shadow rewrite.
    fn resolve_stripe_group(
        &self,
        g: &mut FileState,
        group: &[BlockWriteIntent],
    ) -> Result<GroupResolution, ResilienceError> {
        let m = self.stripe_cfg.m;
        let stripe = self.stripe_cfg.stripe_of(group[0].index);
        // Sanity: every entry must describe the file's current geometry;
        // anything else means a later (serialised, therefore complete)
        // operation superseded the record.
        for e in group {
            if e.index >= g.open.header.num_blocks()
                || g.open.header.blocks[e.index as usize] != e.data_location
                || e.parity.len() != m
                || (0..m).any(|row| {
                    g.stripes.parity_entry(stripe, row).location != e.parity[row].location
                })
            {
                return Ok(GroupResolution::Stale);
            }
        }

        let view = self.load_stripe(g, stripe)?;
        let range = g.stripes.stripe_data_range(stripe);
        let in_group = |i: u64| group.iter().position(|e| e.index == i);
        // The frontier: writes land as a strict prefix, so post-images form
        // a leading run of the group. A block past it that is not a clean
        // pre-image was torn mid-write and gets erased and rolled back.
        let complete = group
            .iter()
            .take_while(|e| view.macs()[(e.index - range.start) as usize] == e.data_post.mac)
            .count();

        // Parity target: the chain position after `complete` entries.
        let parity_target: Vec<BlockCheck> = if complete == 0 {
            group[0].parity.iter().map(|p| p.pre).collect()
        } else {
            group[complete - 1].parity.iter().map(|p| p.post).collect()
        };
        let data_target = |j: usize| {
            if j < complete {
                group[j].data_post
            } else {
                group[j].data_pre
            }
        };
        let expected: Vec<[u8; 16]> = range
            .map(|i| in_group(i).map_or(g.stripes.data_check(i).mac, |j| data_target(j).mac))
            .chain(parity_target.iter().map(|check| check.mac))
            .collect();
        let rebuilt = match view.solve(&self.codec, &expected) {
            Ok(rebuilt) => rebuilt,
            Err(Lost(_)) => {
                self.stats.unrecoverable_stripes.inc();
                return Ok(GroupResolution::Lost);
            }
        };

        // Rewrite every erased shard where it lies, in the target state,
        // then make the stripe map agree with it.
        let mut touched = !rebuilt.is_empty();
        for shard in &rebuilt {
            self.seal_block(shard.location, &g.content_key, &shard.shard)?;
        }
        for (j, e) in group.iter().enumerate() {
            if *g.stripes.data_check(e.index) != data_target(j) {
                g.stripes.set_data_check(e.index, data_target(j));
                touched = true;
            }
        }
        for (row, target) in parity_target.iter().enumerate() {
            if g.stripes.parity_entry(stripe, row).check != *target {
                g.stripes.set_parity_check(stripe, row, *target);
                touched = true;
            }
        }
        Ok(GroupResolution::Advanced { complete, touched })
    }

    /// Redo an interrupted repair: re-verify and re-repair every stripe of
    /// the file. Repair is idempotent and clean stripes are untouched.
    fn recover_repair(&self, path: &str) -> Result<Recovered, ResilienceError> {
        let Ok(state) = self.file_state(path) else {
            return Ok(Recovered::Stale);
        };
        let mut g = state.write();
        let mut lost = false;
        for stripe in 0..g.stripes.num_stripes() {
            lost |= self.repair_stripe(&mut g, stripe, false)?.unrecoverable;
        }
        Ok(if lost {
            Recovered::Lost
        } else {
            Recovered::Forward
        })
    }
}
