//! Repair: the stripe view — load a stripe's shards, MAC them, erase the
//! ones that are not in the expected state, reconstruct — with stripe repair
//! and the scrub sweep on top of it.

use std::collections::BTreeSet;

use stegfs_base::{BlockClass, IV_SIZE};
use stegfs_blockdev::{BlockDevice, BlockId};
use stegfs_crypto::Key256;

use super::file::{FileMut, FileState};
use super::ResilientStore;
use crate::codec::ErasureCodec;
use crate::error::ResilienceError;
use crate::journal::IntentBody;
use crate::stats::ScrubReport;
use crate::stripe::ChecksumKeys;
use crate::superblock::VolumeAnchor;

/// Maximum blocks per ranged read in a scrub sweep.
const SCRUB_BATCH: usize = 64;

/// One stripe as it stands on the device: its live data shards, then its `m`
/// parity rows, each with the truncated MAC of the plaintext it holds.
pub(super) struct StripeView {
    /// `(slot, location)` per shard; slots are data `0..k`, parity `k..k + m`.
    sites: Vec<(usize, BlockId)>,
    fields: Vec<Vec<u8>>,
    macs: Vec<[u8; 16]>,
}

/// A shard [`StripeView::solve`] erased and rebuilt from the survivors.
pub(super) struct Rebuilt {
    pub(super) slot: usize,
    /// Where the erased copy was read from.
    pub(super) location: BlockId,
    pub(super) shard: Vec<u8>,
}

/// More shards were out of state than parity can solve; the locations of
/// the ones that were.
pub(super) struct Lost(pub(super) Vec<BlockId>);

impl StripeView {
    /// `sites` are the `(slot, location)` of the stripe's live data shards
    /// followed by its parity rows; `fields` the plaintext read from each.
    pub(super) fn new(
        sites: Vec<(usize, BlockId)>,
        fields: Vec<Vec<u8>>,
        keys: &ChecksumKeys,
    ) -> Self {
        let refs: Vec<&[u8]> = fields.iter().map(Vec::as_slice).collect();
        let mut macs = vec![[0u8; 16]; refs.len()];
        keys.mac16_many(&refs, &mut macs);
        Self {
            sites,
            fields,
            macs,
        }
    }

    /// The MAC of each shard, in load order (live data, then parity rows).
    pub(super) fn macs(&self) -> &[[u8; 16]] {
        &self.macs
    }

    /// Bring the stripe to the state `expected` describes (one MAC per
    /// loaded shard, in load order): erase every shard whose MAC is not the
    /// expected one, fill the data slots a short final stripe does not have
    /// with the zeros they were encoded as, and reconstruct. Returns the
    /// erased shards rebuilt, in slot order — none when the stripe already
    /// was in that state — or [`Lost`] when too few survive; a surviving
    /// shard is never altered, so no wrong byte can come out of here.
    pub(super) fn solve(
        self,
        codec: &ErasureCodec,
        expected: &[[u8; 16]],
    ) -> Result<Vec<Rebuilt>, Lost> {
        let (k, m) = (codec.k(), codec.m());
        assert_eq!(expected.len(), self.sites.len(), "one MAC per shard");
        let live = self.sites.len() - m;
        let per = self.fields[0].len();
        let mut slots: Vec<Option<Vec<u8>>> = vec![None; k + m];
        let mut erased: Vec<(usize, BlockId)> = Vec::new();
        for ((site, field), (mac, want)) in
            (self.sites.into_iter().zip(self.fields)).zip(self.macs.iter().zip(expected))
        {
            if mac == want {
                slots[site.0] = Some(field);
            } else {
                erased.push(site);
            }
        }
        for slot in slots.iter_mut().take(k).skip(live) {
            *slot = Some(vec![0u8; per]);
        }
        if erased.is_empty() {
            return Ok(Vec::new());
        }
        if codec.reconstruct(&mut slots, per).is_err() {
            return Err(Lost(erased.into_iter().map(|(_, loc)| loc).collect()));
        }
        // Invariant: `reconstruct` returned `Ok`, whose contract is that every
        // slot is `Some` afterwards; each erased slot is taken once.
        Ok(erased
            .into_iter()
            .map(|(slot, location)| Rebuilt {
                slot,
                location,
                shard: slots[slot].take().expect("reconstruct fills every slot"),
            })
            .collect())
    }
}

/// Outcome of repairing one stripe.
#[derive(Default)]
pub(super) struct StripeRepair {
    /// Physical locations where corruption was detected — and, unless
    /// `unrecoverable`, whose shards were rebuilt onto fresh blocks.
    pub(super) detected: Vec<BlockId>,
    /// Whether the stripe was beyond parity tolerance.
    pub(super) unrecoverable: bool,
}

impl<D: BlockDevice> ResilientStore<D> {
    /// The data fields of the blocks at `locations`, in that order — read in
    /// ascending block order ([`Self::read_ascending`]).
    pub(super) fn read_shards(
        &self,
        locations: impl Iterator<Item = BlockId>,
        key: &Key256,
    ) -> Result<Vec<Vec<u8>>, stegfs_base::FsError> {
        let locations: Vec<BlockId> = locations.collect();
        let mut fields = vec![vec![0u8; self.fs.content_bytes_per_block()]; locations.len()];
        self.read_ascending(&locations, key, &mut fields)?;
        Ok(fields)
    }

    /// Read `stripe`'s live data blocks, then its parity rows, and MAC the
    /// lot together.
    pub(super) fn load_stripe(
        &self,
        g: &FileState,
        stripe: u64,
    ) -> Result<StripeView, stegfs_base::FsError> {
        let (k, m) = (self.stripe_cfg.k, self.stripe_cfg.m);
        let data = g.stripes.stripe_data_range(stripe).enumerate();
        let sites: Vec<(usize, BlockId)> = data
            .map(|(slot, i)| (slot, g.open.header.blocks[i as usize]))
            .chain((0..m).map(|row| (k + row, g.stripes.parity_entry(stripe, row).location)))
            .collect();
        let fields = self.read_shards(sites.iter().map(|&(_, loc)| loc), &g.content_key)?;
        Ok(StripeView::new(sites, fields, &g.keys))
    }

    /// MAC-verify every shard of `stripe` and reconstruct the missing ones,
    /// rewriting repaired shards onto freshly claimed blocks (the corrupt
    /// locations are randomised and released — a torn or corrupted sector is
    /// never trusted again for this stripe).
    ///
    /// `journaled` writes a `Repair` redo marker before the first repair
    /// write; recovery re-repairs the whole file, which is idempotent. The
    /// recovery pass itself runs unjournaled — its slots may still hold
    /// unprocessed intents a new record must not overwrite — and is safe to
    /// re-crash because repair only ever randomises already-corrupt
    /// locations, so it never pushes a stripe past parity tolerance.
    pub(super) fn repair_stripe(
        &self,
        g: &mut FileMut<'_>,
        stripe: u64,
        journaled: bool,
    ) -> Result<StripeRepair, ResilienceError> {
        let (k, m) = (self.stripe_cfg.k, self.stripe_cfg.m);
        // A shard stays only if its MAC is the one the stripe map records.
        let recorded: Vec<[u8; 16]> = g
            .stripes
            .stripe_data_range(stripe)
            .map(|i| g.stripes.data_check(i).mac)
            .chain((0..m).map(|row| g.stripes.parity_entry(stripe, row).check.mac))
            .collect();
        let solved = self.load_stripe(g, stripe)?.solve(&self.codec, &recorded);
        if matches!(&solved, Ok(rebuilt) if rebuilt.is_empty()) {
            return Ok(StripeRepair::default());
        }
        self.stats.degraded_stripes.inc();
        let rebuilt = match solved {
            Ok(rebuilt) => rebuilt,
            Err(Lost(detected)) => {
                self.stats.unrecoverable_stripes.inc();
                return Ok(StripeRepair {
                    detected,
                    unrecoverable: true,
                });
            }
        };

        let _intent = journaled
            .then(|| self.begin_intent(&g.open.path, IntentBody::Repair))
            .transpose()?;

        let mut scratch = vec![0u8; self.fs.codec().block_size()];
        for shard in &rebuilt {
            let new_loc = self.fs.allocate_blocks(&self.map, 1)?[0];
            self.seal_block(new_loc, &g.content_key, &shard.shard)?;
            if shard.slot < k {
                let i = stripe * k as u64 + shard.slot as u64;
                g.open.header.blocks[i as usize] = new_loc;
            } else {
                let mut entry = *g.stripes.parity_entry(stripe, shard.slot - k);
                entry.location = new_loc;
                g.stripes.set_parity_entry(stripe, shard.slot - k, entry);
            }
            g.rehome(shard.location, new_loc);
            // Only release the corrupt location after the reconstructed
            // shard is durably sealed at its new home (write ordering).
            self.fs.randomize_block(shard.location, &mut scratch)?;
            self.map.set(shard.location, BlockClass::Dummy);
        }
        self.fs.save(&mut g.open)?;
        self.rewrite_shadow(g)?;
        self.stats.blocks_repaired.add(rebuilt.len() as u64);
        Ok(StripeRepair {
            detected: rebuilt.iter().map(|shard| shard.location).collect(),
            unrecoverable: false,
        })
    }

    /// Sweep every managed file: quorum-heal the anchor, MAC-verify every
    /// data and parity block in ranged batches of at most `SCRUB_BATCH`
    /// blocks, and reconstruct every degraded stripe.
    pub fn scrub(&self) -> Result<ScrubReport, ResilienceError> {
        let mut tables = self.tables.lock();
        let mut report = ScrubReport::default();

        let (_, healed) = VolumeAnchor::read_quorum(self.fs.device(), &self.anchor_key)?;
        report.anchor_replicas_repaired = healed.len() as u64;
        self.stats.anchor_repairs.add(healed.len() as u64);

        let paths: Vec<String> = tables.files.keys().cloned().collect();
        for path in paths {
            let mut g = tables.file_mut(&path)?;
            let content_key = g.content_key;

            // Every striped location of this file with the MAC recorded for
            // the shard it holds and that shard's stripe, sorted by physical
            // position so the sweep can coalesce contiguous runs into ranged
            // reads.
            let mut sites: Vec<(BlockId, [u8; 16], u64)> = g
                .owned_blocks()
                .into_iter()
                .filter_map(|(loc, role)| {
                    let (recorded, stripe) = g.sealing(role).1?;
                    Some((loc, recorded.mac, stripe))
                })
                .collect();
            sites.sort_by_key(|&(loc, ..)| loc);

            // Runs are read in order into one batch buffer; a full batch
            // (and the last one) is opened where it lies and its fields are
            // MACed together — scattered blocks make most runs one block
            // long, too short to fill the hash lanes on their own.
            let block_size = self.fs.codec().block_size();
            let mut degraded: BTreeSet<u64> = BTreeSet::new();
            let mut verify = |batch: &[(BlockId, [u8; 16], u64)],
                              buf: &mut [u8]|
             -> Result<(), ResilienceError> {
                self.fs.codec().open_in_place(&content_key, buf)?;
                let fields: Vec<&[u8]> = buf
                    .chunks_exact(block_size)
                    .map(|physical| &physical[IV_SIZE..])
                    .collect();
                let mut macs = vec![[0u8; 16]; fields.len()];
                g.keys.mac16_many(&fields, &mut macs);
                for (&(_, recorded, stripe), mac) in batch.iter().zip(macs) {
                    if mac != recorded {
                        degraded.insert(stripe);
                    }
                }
                Ok(())
            };
            let mut buf = vec![0u8; SCRUB_BATCH.min(sites.len()) * block_size];
            // `sites[batch..start]` are read into `buf` and not yet verified.
            let mut batch = 0;
            let mut start = 0;
            while start < sites.len() {
                // Extend the run while physically contiguous and under the
                // batch cap.
                let mut end = start + 1;
                while end < sites.len()
                    && end - start < SCRUB_BATCH
                    && sites[end].0 == sites[end - 1].0 + 1
                {
                    end += 1;
                }
                if end - batch > SCRUB_BATCH {
                    verify(
                        &sites[batch..start],
                        &mut buf[..(start - batch) * block_size],
                    )?;
                    batch = start;
                }
                let run = &mut buf[(start - batch) * block_size..(end - batch) * block_size];
                self.fs.device().read_blocks(sites[start].0, run)?;
                report.blocks_checked += (end - start) as u64;
                start = end;
            }
            verify(&sites[batch..], &mut buf[..(start - batch) * block_size])?;
            self.stats.blocks_checked.add(sites.len() as u64);

            for stripe in degraded {
                let repair = self.repair_stripe(&mut g, stripe, true)?;
                report.degraded_stripes += 1;
                if repair.unrecoverable {
                    report.unrecoverable_stripes += 1;
                } else {
                    report.blocks_repaired += repair.detected.len() as u64;
                }
                report.detected.extend(repair.detected);
            }
        }
        self.stats.scrubs.inc();
        Ok(report)
    }
}
