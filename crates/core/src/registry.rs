//! The agent's one registry: everything it knows about files and blocks.
//!
//! The registry is the agent's working memory (Section 3.2.3): which hidden
//! and dummy files it currently knows about — each with its cached header and
//! its update lock — and, for every block of those files, which file owns it
//! in what role and where it sits in the universe that uniform draws sample.
//! Nothing else in the agent is keyed by file or by block, so nothing can
//! fall out of step with it. Under Construction 2 this is exactly the
//! knowledge that evaporates at logout or restart; under Construction 1 it
//! can be reconstructed from the persistent block map and key.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use stegfs_base::OpenFile;
use stegfs_blockdev::BlockId;
use stegfs_crypto::HashDrbg;

/// Identifier of a registered (open) file within an agent.
pub type FileId = u64;

/// The role a physical block plays within its owning file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BlockRole {
    /// The file's header block.
    Header,
    /// The `n`-th indirect pointer block.
    Indirect(usize),
    /// The `n`-th content block.
    Content(u64),
}

/// A registered file.
struct Entry {
    file: OpenFile,
    /// Serialises updates of the file so header bookkeeping stays
    /// consistent; never held by the read path. It lives and dies with the
    /// entry.
    update_lock: Arc<Mutex<()>>,
}

/// Registered files, and every block they own as one sampled universe.
#[derive(Default)]
pub(crate) struct Registry {
    files: HashMap<FileId, Entry>,
    next_id: FileId,
    /// Each known block with its owner and role, in the order uniform draws
    /// index: a new block is pushed, a forgotten one swap-removed.
    known: Vec<(BlockId, FileId, BlockRole)>,
    /// Where each known block sits in `known`.
    positions: HashMap<BlockId, usize>,
}

impl Registry {
    /// Register an open file and index all of its blocks, unless a file with
    /// the same header block already is: two live ids for one physical file
    /// would carry two independently cached headers — concurrent updates
    /// through them would diverge and the last flushed header would silently
    /// win, leaking the other's relocated blocks. Returns the id and whether
    /// it is new.
    pub(crate) fn register(&mut self, file: OpenFile) -> (FileId, bool) {
        if let Some((id, BlockRole::Header)) = self.owner_of(file.header_location) {
            return (id, false);
        }
        let id = self.next_id;
        self.next_id += 1;
        self.set_owner(file.header_location, id, BlockRole::Header);
        for (i, &b) in file.indirect_locations.iter().enumerate() {
            self.set_owner(b, id, BlockRole::Indirect(i));
        }
        for (i, &b) in file.header.blocks.iter().enumerate() {
            self.set_owner(b, id, BlockRole::Content(i as u64));
        }
        let update_lock = Arc::default();
        self.files.insert(id, Entry { file, update_lock });
        (id, true)
    }

    /// Attribute `block` to `id` in `role`, adding it to the universe if it
    /// is not known yet.
    fn set_owner(&mut self, block: BlockId, id: FileId, role: BlockRole) {
        match self.positions.get(&block) {
            Some(&pos) => self.known[pos] = (block, id, role),
            None => {
                self.positions.insert(block, self.known.len());
                self.known.push((block, id, role));
            }
        }
    }

    fn forget_block(&mut self, block: BlockId) {
        if let Some(pos) = self.positions.remove(&block) {
            self.known.swap_remove(pos);
            if let Some(&(moved, ..)) = self.known.get(pos) {
                self.positions.insert(moved, pos);
            }
        }
    }

    /// Unregister a file, forgetting all of its blocks and its update lock.
    /// Returns the open file (e.g. so the caller can release its blocks).
    pub(crate) fn unregister(&mut self, id: FileId) -> Option<OpenFile> {
        let Entry { file, .. } = self.files.remove(&id)?;
        for b in file.all_blocks() {
            self.forget_block(b);
        }
        Some(file)
    }

    /// Borrow a registered file.
    pub(crate) fn get(&self, id: FileId) -> Option<&OpenFile> {
        self.files.get(&id).map(|entry| &entry.file)
    }

    /// Mutably borrow a registered file.
    pub(crate) fn get_mut(&mut self, id: FileId) -> Option<&mut OpenFile> {
        self.files.get_mut(&id).map(|entry| &mut entry.file)
    }

    /// The update lock of a registered file.
    pub(crate) fn update_lock(&self, id: FileId) -> Option<Arc<Mutex<()>>> {
        self.files.get(&id).map(|entry| entry.update_lock.clone())
    }

    /// Whether no file is registered (so no block is known either).
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.files.is_empty() && self.known.is_empty()
    }

    /// Who owns `block`, if anyone the agent knows about.
    pub(crate) fn owner_of(&self, block: BlockId) -> Option<(FileId, BlockRole)> {
        let &pos = self.positions.get(&block)?;
        let (_, id, role) = self.known[pos];
        Some((id, role))
    }

    /// Uniformly sample a block from the agent's visible universe.
    pub(crate) fn random_known_block(&self, rng: &mut HashDrbg) -> Option<BlockId> {
        if self.known.is_empty() {
            None
        } else {
            let idx = rng.gen_range(self.known.len() as u64) as usize;
            Some(self.known[idx].0)
        }
    }

    /// Point content block `index` of file `id` at `block`; the cached
    /// header becomes dirty. `false` if there is no such file or block.
    fn repoint(&mut self, id: FileId, index: u64, old: BlockId, block: BlockId) -> bool {
        let Some(file) = self.get_mut(id) else {
            return false;
        };
        let Some(slot) = file.header.blocks.get_mut(index as usize) else {
            return false;
        };
        debug_assert_eq!(*slot, old);
        *slot = block;
        file.dirty = true;
        true
    }

    /// Record that content block `index` of file `id` moved from `old` to
    /// `new` (a Figure 6 relocation): the cached header is repointed and
    /// becomes dirty, `old` leaves the universe and `new` joins it.
    pub(crate) fn relocate_content_block(
        &mut self,
        id: FileId,
        index: u64,
        old: BlockId,
        new: BlockId,
    ) -> bool {
        if !self.repoint(id, index, old, new) {
            return false;
        }
        self.forget_block(old);
        self.set_owner(new, id, BlockRole::Content(index));
        true
    }

    /// Swap ownership between a content block of a data file and a content
    /// block of a dummy file: the data file's block `index` moves to
    /// `dummy_block`, and the vacated `data_block` joins the dummy file in
    /// place of `dummy_block`. Used under Construction 2, where every block
    /// must stay accounted to some disclosed file.
    pub(crate) fn swap_with_dummy(
        &mut self,
        data_file: FileId,
        data_index: u64,
        data_block: BlockId,
        dummy_file: FileId,
        dummy_index: u64,
        dummy_block: BlockId,
    ) -> bool {
        if !self.repoint(data_file, data_index, data_block, dummy_block)
            || !self.repoint(dummy_file, dummy_index, dummy_block, data_block)
        {
            return false;
        }
        self.set_owner(dummy_block, data_file, BlockRole::Content(data_index));
        self.set_owner(data_block, dummy_file, BlockRole::Content(dummy_index));
        true
    }

    /// Take content block `block` away from file `id` (a dummy file donating
    /// it to a file about to be registered): the file shrinks by one block of
    /// `bytes_per_block`, becomes dirty, and its remaining content blocks
    /// are re-indexed. `block` itself stays in the universe for its new
    /// owner's registration to claim.
    pub(crate) fn donate_content_block(
        &mut self,
        id: FileId,
        block: BlockId,
        bytes_per_block: u64,
    ) {
        let Some(file) = self.get_mut(id) else {
            return;
        };
        file.header.blocks.retain(|&b| b != block);
        file.header.file_size = file.header.num_blocks() * bytes_per_block;
        file.dirty = true;
        let blocks = file.header.blocks.clone();
        for (i, b) in blocks.into_iter().enumerate() {
            self.set_owner(b, id, BlockRole::Content(i as u64));
        }
    }

    /// Ids of registered files whose cached header is dirty.
    pub(crate) fn dirty_file_ids(&self) -> Vec<FileId> {
        let mut ids: Vec<_> = self
            .files
            .iter()
            .filter(|(_, entry)| entry.file.dirty)
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stegfs_base::{FileAccessKey, FileHeader, FileKind};

    fn open_file(path: &str, header_loc: u64, blocks: Vec<u64>, dummy: bool) -> OpenFile {
        let kind = if dummy {
            FileKind::Dummy
        } else {
            FileKind::Data
        };
        OpenFile {
            path: path.to_string(),
            fak: FileAccessKey::from_passphrase(path),
            header_location: header_loc,
            indirect_locations: vec![],
            header: FileHeader::new(kind, blocks.len() as u64 * 4080, [0u8; 16], blocks),
            dirty: false,
        }
    }

    /// The universe in draw order.
    fn universe(reg: &Registry) -> Vec<BlockId> {
        reg.known.iter().map(|&(b, ..)| b).collect()
    }

    #[test]
    fn register_and_lookup() {
        let mut reg = Registry::default();
        let (id, fresh) = reg.register(open_file("/a", 10, vec![20, 21, 22], false));
        assert!(fresh);
        assert_eq!(universe(&reg), [10, 20, 21, 22]);
        assert_eq!(reg.owner_of(10), Some((id, BlockRole::Header)));
        assert_eq!(reg.owner_of(21), Some((id, BlockRole::Content(1))));
        assert_eq!(reg.owner_of(99), None);
        assert!(reg.update_lock(id).is_some());
    }

    #[test]
    fn registering_a_known_header_returns_the_existing_id() {
        let mut reg = Registry::default();
        let (id, _) = reg.register(open_file("/a", 10, vec![20], false));
        assert_eq!(
            reg.register(open_file("/a", 10, vec![20], false)),
            (id, false)
        );
        assert_eq!(universe(&reg), [10, 20]);
    }

    #[test]
    fn unregister_forgets_blocks() {
        let mut reg = Registry::default();
        let (id_a, _) = reg.register(open_file("/a", 10, vec![20], false));
        let (id_b, _) = reg.register(open_file("/b", 30, vec![40, 41], false));
        assert_eq!(universe(&reg).len(), 5);
        reg.unregister(id_a).unwrap();
        // Swap-removal: the last known block fills each vacated slot.
        assert_eq!(universe(&reg), [41, 40, 30]);
        assert_eq!(reg.owner_of(10), None);
        assert!(reg.owner_of(40).is_some());
        assert!(reg.update_lock(id_a).is_none());
        assert!(reg.unregister(id_a).is_none());
        reg.unregister(id_b).unwrap();
        assert!(reg.is_empty());
    }

    #[test]
    fn relocate_updates_header_and_index() {
        let mut reg = Registry::default();
        let (id, _) = reg.register(open_file("/a", 10, vec![20, 21], false));
        assert!(reg.relocate_content_block(id, 1, 21, 77));
        assert_eq!(reg.get(id).unwrap().header.blocks, vec![20, 77]);
        assert!(reg.get(id).unwrap().dirty);
        assert_eq!(reg.owner_of(77), Some((id, BlockRole::Content(1))));
        assert_eq!(reg.owner_of(21), None);
        assert_eq!(universe(&reg), [10, 20, 77]);
        assert_eq!(reg.dirty_file_ids(), vec![id]);
    }

    #[test]
    fn swap_with_dummy_keeps_universe_constant() {
        let mut reg = Registry::default();
        let (data, _) = reg.register(open_file("/data", 10, vec![20, 21], false));
        let (dummy, _) = reg.register(open_file("/dummy", 30, vec![40, 41, 42], true));
        let before = universe(&reg);
        assert!(reg.swap_with_dummy(data, 0, 20, dummy, 2, 42));
        assert_eq!(universe(&reg), before);
        assert_eq!(reg.get(data).unwrap().header.blocks, vec![42, 21]);
        assert_eq!(reg.get(dummy).unwrap().header.blocks, vec![40, 41, 20]);
        assert_eq!(reg.owner_of(42), Some((data, BlockRole::Content(0))));
        assert_eq!(reg.owner_of(20), Some((dummy, BlockRole::Content(2))));
    }

    #[test]
    fn donating_a_block_shrinks_and_reindexes_the_dummy_file() {
        let mut reg = Registry::default();
        let (dummy, _) = reg.register(open_file("/dummy", 30, vec![40, 41, 42], true));
        reg.donate_content_block(dummy, 41, 100);
        let file = reg.get(dummy).unwrap();
        assert_eq!(file.header.blocks, vec![40, 42]);
        assert_eq!(file.header.file_size, 200);
        assert!(file.dirty);
        assert_eq!(reg.owner_of(42), Some((dummy, BlockRole::Content(1))));
        // The donated block is still known; its new owner's registration
        // takes it over in place.
        let (data, _) = reg.register(open_file("/new", 41, vec![], false));
        assert_eq!(reg.owner_of(41), Some((data, BlockRole::Header)));
        assert_eq!(universe(&reg), [30, 40, 41, 42]);
    }

    #[test]
    fn random_known_block_samples_universe() {
        let mut reg = Registry::default();
        let mut rng = HashDrbg::from_u64(1);
        assert!(reg.random_known_block(&mut rng).is_none());
        reg.register(open_file("/a", 10, vec![20, 21, 22], false));
        for _ in 0..100 {
            let b = reg.random_known_block(&mut rng).unwrap();
            assert!([10, 20, 21, 22].contains(&b));
        }
    }

    #[test]
    fn bad_relocation_indices_are_rejected() {
        let mut reg = Registry::default();
        let (id, _) = reg.register(open_file("/a", 10, vec![20], false));
        assert!(!reg.relocate_content_block(id, 5, 20, 30));
        assert!(!reg.relocate_content_block(id + 1, 0, 20, 30));
        assert_eq!(universe(&reg), [10, 20]);
    }
}
