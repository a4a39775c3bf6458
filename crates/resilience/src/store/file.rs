//! A managed file: its state, the one enumeration of the blocks it owns, the
//! owner index built from that enumeration, the handle the heal path works
//! through, and file creation.

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use stegfs_base::OpenFile;
use stegfs_blockdev::{BlockDevice, BlockId};
use stegfs_crypto::Key256;

use super::{padded, ResilientStore, Tables};
use crate::error::ResilienceError;
use crate::journal::IntentBody;
use crate::stripe::{BlockCheck, ChecksumKeys, ParityEntry, StripeMap};

/// One managed file: its open handle, the shadow file holding the stripe map,
/// the in-memory stripe map itself, and the keys of both files.
pub(super) struct FileState {
    pub(super) open: OpenFile,
    pub(super) shadow: OpenFile,
    pub(super) stripes: StripeMap,
    /// The key content blocks and parity rows are sealed under.
    pub(super) content_key: Key256,
    /// Check keys of the content key (data and parity rows), derived once.
    pub(super) keys: ChecksumKeys,
    /// The key the shadow file's content blocks are sealed under.
    pub(super) shadow_key: Key256,
    /// Check keys of the shadow file's content key.
    pub(super) shadow_keys: ChecksumKeys,
    /// The check of every shadow block as the last write plan left it — the
    /// next plan's shadow pre-images, so it does not encode and MAC the map
    /// it is about to replace. `None` whenever anything else wrote the
    /// shadow last ([`ResilientStore::rewrite_shadow`]) or nothing has yet.
    pub(super) shadow_checks: Option<Vec<BlockCheck>>,
}

/// `file`'s content key and the check keys derived from it. Every managed
/// file and its shadow are created with one; a table entry without is refused
/// here, once, so nothing downstream has to unwrap it.
pub(super) fn content_keys(file: &OpenFile) -> Result<(Key256, ChecksumKeys), ResilienceError> {
    let ck = file
        .fak
        .content_key()
        .ok_or(ResilienceError::Corrupt("file without content key".into()))?;
    Ok((*ck, ChecksumKeys::derive(ck)))
}

impl FileState {
    /// `main` is [`content_keys`] of `open`, which file creation has already
    /// derived to seal the parity rows.
    pub(super) fn new(
        main: (Key256, ChecksumKeys),
        open: OpenFile,
        shadow: OpenFile,
        stripes: StripeMap,
    ) -> Result<Self, ResilienceError> {
        let (content_key, keys) = main;
        let (shadow_key, shadow_keys) = content_keys(&shadow)?;
        Ok(Self {
            open,
            shadow,
            stripes,
            content_key,
            keys,
            shadow_key,
            shadow_keys,
            shadow_checks: None,
        })
    }

    /// Every block the file occupies, with the role it plays. This is the
    /// only enumeration of a managed file's blocks: the owner index, the
    /// block map's marking at `open`, the scrub sweep, `stripe_layout` and
    /// `Registry::blocks` all walk it.
    pub(super) fn owned_blocks(&self) -> Vec<(BlockId, Role)> {
        let mut out = Vec::new();
        for (i, &loc) in self.open.header.blocks.iter().enumerate() {
            out.push((loc, Role::Content(i as u64)));
        }
        for stripe in 0..self.stripes.num_stripes() {
            for row in 0..self.stripes.config().m {
                let loc = self.stripes.parity_entry(stripe, row).location;
                out.push((loc, Role::Parity(stripe, row)));
            }
        }
        out.push((self.open.header_location, Role::HeaderTree));
        for &loc in &self.open.indirect_locations {
            out.push((loc, Role::HeaderTree));
        }
        for &loc in &self.shadow.header.blocks {
            out.push((loc, Role::ShadowContent));
        }
        out.push((self.shadow.header_location, Role::ShadowHeaderTree));
        for &loc in &self.shadow.indirect_locations {
            out.push((loc, Role::ShadowHeaderTree));
        }
        out
    }

    /// The key the block playing `role` is sealed under and, for the striped
    /// roles, the check the stripe map records for it and the stripe to heal
    /// when it does not hold. Scrub, cover verification and the healing
    /// re-read all ask here.
    pub(super) fn sealing(&self, role: Role) -> (Key256, Option<(BlockCheck, u64)>) {
        match role {
            Role::Content(i) => {
                let stripe = self.stripes.config().stripe_of(i);
                (
                    self.content_key,
                    Some((*self.stripes.data_check(i), stripe)),
                )
            }
            Role::Parity(stripe, row) => {
                let check = self.stripes.parity_entry(stripe, row).check;
                (self.content_key, Some((check, stripe)))
            }
            Role::HeaderTree => (*self.open.fak.header_key(), None),
            Role::ShadowContent => (self.shadow_key, None),
            Role::ShadowHeaderTree => (*self.shadow.fak.header_key(), None),
        }
    }

    /// Where the shard a striped `role` names lives right now; `None` for a
    /// role outside the stripes or past the file's end.
    pub(super) fn shard_location(&self, role: Role) -> Option<BlockId> {
        match role {
            Role::Content(i) => self.open.header.blocks.get(i as usize).copied(),
            Role::Parity(stripe, row) if stripe < self.stripes.num_stripes() => {
                Some(self.stripes.parity_entry(stripe, row).location)
            }
            _ => None,
        }
    }
}

/// What a managed file keeps in one of its blocks: decides the key a dummy
/// update reseals it under and the check it is verified against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Role {
    /// Content block at this file-wide index.
    Content(u64),
    /// Parity row of a stripe.
    Parity(u64, usize),
    HeaderTree,
    ShadowContent,
    ShadowHeaderTree,
}

/// Which managed file holds each block, by path, and in what role — the key
/// a dummy update needs for its victim. Filled as files are loaded or created
/// and kept current at the one place a block changes hands afterwards
/// (`repair_stripe` re-homing a shard, through [`FileMut::rehome`]). It
/// supplies keys only: whether an unowned block is free is the block map's
/// call.
pub(super) type OwnerIndex = HashMap<BlockId, (Arc<str>, Role)>;

/// One managed file's state with the owner index beside it: the handle the
/// heal path works through, since a repair that re-homes a shard moves the
/// shard's index entry with it. Derefs to the file's [`FileState`].
pub(super) struct FileMut<'t> {
    state: &'t mut FileState,
    index: &'t mut OwnerIndex,
}

impl FileMut<'_> {
    /// The shard at `from` now lives at `to`: its file and role move with it.
    pub(super) fn rehome(&mut self, from: BlockId, to: BlockId) {
        if let Some(owner) = self.index.remove(&from) {
            self.index.insert(to, owner);
        }
    }
}

impl Deref for FileMut<'_> {
    type Target = FileState;

    fn deref(&self) -> &FileState {
        self.state
    }
}

impl DerefMut for FileMut<'_> {
    fn deref_mut(&mut self) -> &mut FileState {
        self.state
    }
}

impl Tables {
    /// The managed file at `path` as a handle the heal path can re-home its
    /// shards through.
    pub(super) fn file_mut(&mut self, path: &str) -> Result<FileMut<'_>, ResilienceError> {
        let state = self
            .files
            .get_mut(path)
            .ok_or_else(|| ResilienceError::UnknownFile(path.to_string()))?;
        Ok(FileMut {
            state,
            index: &mut self.index,
        })
    }

    /// Start managing a file: enter it in the path table and its blocks in
    /// the owner index.
    pub(super) fn adopt(&mut self, path: String, state: FileState) {
        let owner: Arc<str> = Arc::from(path.as_str());
        for (loc, role) in state.owned_blocks() {
            self.index.insert(loc, (Arc::clone(&owner), role));
        }
        self.files.insert(path, state);
    }
}

impl<D: BlockDevice> ResilientStore<D> {
    /// On-disk layout of `path`'s stripes: for each stripe, the physical
    /// locations of its live data shards followed by its `m` parity shards.
    ///
    /// Exposed for fault-injection tests and offline scrub tooling; it
    /// reveals nothing an owner of the file's access key could not already
    /// derive.
    pub fn stripe_layout(&self, path: &str) -> Result<Vec<Vec<BlockId>>, ResilienceError> {
        let mut tables = self.tables.lock();
        let g = tables.file_mut(path)?;
        let mut out = vec![Vec::new(); g.stripes.num_stripes() as usize];
        // Content blocks come first and in index order, parity rows after
        // them in (stripe, row) order: each stripe fills data first.
        for (loc, role) in g.owned_blocks() {
            if let (_, Some((_, stripe))) = g.sealing(role) {
                out[stripe as usize].push(loc);
            }
        }
        Ok(out)
    }

    // ----- file creation -----------------------------------------------

    /// Create a hidden file at `path` with parity per the store's striping
    /// shape, and persist it in the anchor's FAK table.
    ///
    /// The operation is journaled: a `Create` intent lands before the first
    /// data write, and the anchor generation bump that publishes the path is
    /// the commit point. A crash anywhere in between is rolled back at the
    /// next open by randomising the (derivable) header first — the file never
    /// half-exists.
    pub fn create_file(&self, path: &str, content: &[u8]) -> Result<(), ResilienceError> {
        let mut tables = self.tables.lock();
        if tables.files.contains_key(path) {
            return Err(ResilienceError::AlreadyExists(path.to_string()));
        }
        self.begin_intent(path, IntentBody::Create)?;
        let fak = self.file_fak(path);
        let open = self.fs.create_file(&self.map, path, &fak, content)?;
        let state = match self.stripe_file(open, content) {
            Ok(state) => state,
            Err(e) => {
                // Unwind the half-created file so the volume stays clean.
                let reopened = self.fs.open_file(&fak, path)?;
                self.fs.delete_file(&self.map, reopened)?;
                return Err(e);
            }
        };
        tables.adopt(path.to_string(), state);
        self.persist_anchor(&mut tables)
    }

    /// Compute checks and parity for a freshly created file and persist the
    /// stripe map as a shadow hidden file.
    fn stripe_file(&self, open: OpenFile, content: &[u8]) -> Result<FileState, ResilienceError> {
        let (content_key, keys) = content_keys(&open)?;
        let per = self.fs.content_bytes_per_block();
        let (k, m) = (self.stripe_cfg.k, self.stripe_cfg.m);
        let num_data = open.header.num_blocks();
        let mut stripes = StripeMap::new(self.stripe_cfg, num_data);

        for stripe in 0..stripes.num_stripes() {
            let range = stripes.stripe_data_range(stripe);
            // Reconstitute the full zero-padded data fields from the content
            // (what create_file sealed) instead of re-reading them.
            let mut data: Vec<Vec<u8>> = range
                .clone()
                .map(|i| padded(content.chunks(per).nth(i as usize).unwrap_or(&[]), per))
                .collect();
            let present = data.len();
            // Short final stripe: missing data shards are known-zero.
            data.resize(k, vec![0u8; per]);
            let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
            for (i, check) in range.zip(keys.check_many(&refs[..present])) {
                stripes.set_data_check(i, check);
            }
            let parity = self.codec.encode(&refs);

            let locs = self.fs.allocate_blocks(&self.map, m as u64)?;
            // The stripe's parity rows are sealed and written in row order.
            let group: Vec<(BlockId, &[u8])> = locs
                .iter()
                .zip(&parity)
                .map(|(&loc, shard)| (loc, shard.as_slice()))
                .collect();
            self.fs.with_rng(|rng| {
                self.fs
                    .codec()
                    .write_sealed_many(self.fs.device(), &content_key, &group, rng)
            })?;
            let rows: Vec<&[u8]> = parity.iter().map(Vec::as_slice).collect();
            for (row, (&location, check)) in locs.iter().zip(keys.check_many(&rows)).enumerate() {
                stripes.set_parity_entry(stripe, row, ParityEntry { location, check });
            }
        }

        let shadow_fak = self.shadow_fak(&open.path);
        let shadow = self.fs.create_file(
            &self.map,
            &Self::shadow_path(&open.path),
            &shadow_fak,
            &stripes.encode(),
        )?;
        FileState::new((content_key, keys), open, shadow, stripes)
    }
}
