//! The agent's in-memory registry of open files and block ownership.
//!
//! The registry is the agent's working memory (Section 3.2.3): which hidden
//! and dummy files it currently knows about, which physical block belongs to
//! which file and in what role, and the set of blocks it is allowed to touch.
//! Under Construction 2 this is exactly the knowledge that evaporates at
//! logout or restart; under Construction 1 it can be reconstructed from the
//! persistent block map and key.

use std::collections::HashMap;

use stegfs_base::OpenFile;
use stegfs_blockdev::BlockId;
use stegfs_crypto::HashDrbg;

/// Identifier of a registered (open) file within an agent.
pub type FileId = u64;

/// The role a physical block plays within its owning file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockRole {
    /// The file's header block.
    Header,
    /// The `n`-th indirect pointer block.
    Indirect(usize),
    /// The `n`-th content block.
    Content(u64),
}

/// Registry of open files, with a reverse index from physical block to
/// `(file, role)` and a flat universe of known blocks for uniform sampling.
#[derive(Debug, Default)]
pub struct Registry {
    files: HashMap<FileId, OpenFile>,
    next_id: FileId,
    owners: HashMap<BlockId, (FileId, BlockRole)>,
    universe: Vec<BlockId>,
    positions: HashMap<BlockId, usize>,
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered files.
    pub fn num_files(&self) -> usize {
        self.files.len()
    }

    /// Number of known blocks (the agent's visible universe).
    pub fn universe_len(&self) -> usize {
        self.universe.len()
    }

    /// Register an open file and index all of its blocks. Returns its id.
    pub fn register(&mut self, file: OpenFile) -> FileId {
        let id = self.next_id;
        self.next_id += 1;
        self.index_blocks(id, &file);
        self.files.insert(id, file);
        id
    }

    fn index_blocks(&mut self, id: FileId, file: &OpenFile) {
        self.add_block(file.header_location, id, BlockRole::Header);
        for (i, &b) in file.indirect_locations.iter().enumerate() {
            self.add_block(b, id, BlockRole::Indirect(i));
        }
        for (i, &b) in file.header.blocks.iter().enumerate() {
            self.add_block(b, id, BlockRole::Content(i as u64));
        }
    }

    fn add_block(&mut self, block: BlockId, id: FileId, role: BlockRole) {
        self.owners.insert(block, (id, role));
        if !self.positions.contains_key(&block) {
            self.positions.insert(block, self.universe.len());
            self.universe.push(block);
        }
    }

    fn remove_block(&mut self, block: BlockId) {
        self.owners.remove(&block);
        if let Some(pos) = self.positions.remove(&block) {
            let last = self.universe.len() - 1;
            self.universe.swap(pos, last);
            self.universe.pop();
            if pos < self.universe.len() {
                let moved = self.universe[pos];
                self.positions.insert(moved, pos);
            }
        }
    }

    /// Unregister a file, forgetting all of its blocks. Returns the open file
    /// (e.g. so the caller can save its header first).
    pub fn unregister(&mut self, id: FileId) -> Option<OpenFile> {
        let file = self.files.remove(&id)?;
        for b in file.all_blocks() {
            self.remove_block(b);
        }
        Some(file)
    }

    /// Borrow a registered file.
    pub fn get(&self, id: FileId) -> Option<&OpenFile> {
        self.files.get(&id)
    }

    /// Mutably borrow a registered file.
    pub fn get_mut(&mut self, id: FileId) -> Option<&mut OpenFile> {
        self.files.get_mut(&id)
    }

    /// Ids of all registered files.
    pub fn file_ids(&self) -> Vec<FileId> {
        let mut ids: Vec<_> = self.files.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Who owns `block`, if anyone the agent knows about.
    pub fn owner_of(&self, block: BlockId) -> Option<(FileId, BlockRole)> {
        self.owners.get(&block).copied()
    }

    /// The registered file whose header lives at `block`, if any.
    pub fn file_with_header(&self, block: BlockId) -> Option<FileId> {
        match self.owners.get(&block) {
            Some(&(id, BlockRole::Header)) => Some(id),
            _ => None,
        }
    }

    /// Uniformly sample a block from the agent's visible universe.
    pub fn random_known_block(&self, rng: &mut HashDrbg) -> Option<BlockId> {
        if self.universe.is_empty() {
            None
        } else {
            let idx = rng.gen_range(self.universe.len() as u64) as usize;
            Some(self.universe[idx])
        }
    }

    /// Record that content block `index` of file `id` moved from `old` to
    /// `new` (a Figure 6 relocation). Updates both the reverse index and the
    /// cached header; the header becomes dirty.
    pub fn relocate_content_block(
        &mut self,
        id: FileId,
        index: u64,
        old: BlockId,
        new: BlockId,
    ) -> bool {
        let Some(file) = self.files.get_mut(&id) else {
            return false;
        };
        let Some(slot) = file.header.blocks.get_mut(index as usize) else {
            return false;
        };
        debug_assert_eq!(*slot, old);
        *slot = new;
        file.dirty = true;
        self.remove_block(old);
        self.add_block(new, id, BlockRole::Content(index));
        true
    }

    /// Swap ownership between a content block of a data file and a content
    /// block of a dummy file: the data file's block `index` moves to
    /// `dummy_block`, and the vacated `data_block` joins the dummy file in
    /// place of `dummy_block`. Used under Construction 2, where every block
    /// must stay accounted to some disclosed file.
    pub fn swap_with_dummy(
        &mut self,
        data_file: FileId,
        data_index: u64,
        data_block: BlockId,
        dummy_file: FileId,
        dummy_index: u64,
        dummy_block: BlockId,
    ) -> bool {
        {
            let Some(df) = self.files.get_mut(&data_file) else {
                return false;
            };
            let Some(slot) = df.header.blocks.get_mut(data_index as usize) else {
                return false;
            };
            debug_assert_eq!(*slot, data_block);
            *slot = dummy_block;
            df.dirty = true;
        }
        {
            let Some(xf) = self.files.get_mut(&dummy_file) else {
                return false;
            };
            let Some(slot) = xf.header.blocks.get_mut(dummy_index as usize) else {
                return false;
            };
            debug_assert_eq!(*slot, dummy_block);
            *slot = data_block;
            xf.dirty = true;
        }
        self.owners
            .insert(dummy_block, (data_file, BlockRole::Content(data_index)));
        self.owners
            .insert(data_block, (dummy_file, BlockRole::Content(dummy_index)));
        true
    }

    /// Take content block `block` away from file `id` (a dummy file donating
    /// it to a file about to be registered): the file shrinks by one block of
    /// `bytes_per_block`, becomes dirty, and its remaining content blocks
    /// are re-indexed. `block` itself stays in the universe for its new
    /// owner's registration to claim.
    pub fn donate_content_block(&mut self, id: FileId, block: BlockId, bytes_per_block: u64) {
        let Some(file) = self.files.get_mut(&id) else {
            return;
        };
        file.header.blocks.retain(|&b| b != block);
        file.header.file_size = file.header.num_blocks() * bytes_per_block;
        file.dirty = true;
        for (i, &b) in file.header.blocks.iter().enumerate() {
            self.owners.insert(b, (id, BlockRole::Content(i as u64)));
        }
    }

    /// Ids of registered files whose cached header is dirty.
    pub fn dirty_file_ids(&self) -> Vec<FileId> {
        let mut ids: Vec<_> = self
            .files
            .iter()
            .filter(|(_, f)| f.dirty)
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

    #[test]
    fn register_and_lookup() {
        let mut reg = Registry::new();
        let id = reg.register(open_file("/a", 10, vec![20, 21, 22], false));
        assert_eq!(reg.num_files(), 1);
        assert_eq!(reg.universe_len(), 4);
        assert_eq!(reg.owner_of(10), Some((id, BlockRole::Header)));
        assert_eq!(reg.owner_of(21), Some((id, BlockRole::Content(1))));
        assert_eq!(reg.owner_of(99), None);
    }

    #[test]
    fn unregister_forgets_blocks() {
        let mut reg = Registry::new();
        let id_a = reg.register(open_file("/a", 10, vec![20], false));
        let id_b = reg.register(open_file("/b", 30, vec![40, 41], false));
        assert_eq!(reg.universe_len(), 5);
        reg.unregister(id_a).unwrap();
        assert_eq!(reg.universe_len(), 3);
        assert_eq!(reg.owner_of(10), None);
        assert!(reg.owner_of(40).is_some());
        assert_eq!(reg.file_ids(), vec![id_b]);
        assert!(reg.unregister(id_a).is_none());
    }

    #[test]
    fn relocate_updates_header_and_index() {
        let mut reg = Registry::new();
        let id = reg.register(open_file("/a", 10, vec![20, 21], false));
        assert!(reg.relocate_content_block(id, 1, 21, 77));
        assert_eq!(reg.get(id).unwrap().header.blocks, vec![20, 77]);
        assert!(reg.get(id).unwrap().dirty);
        assert_eq!(reg.owner_of(77), Some((id, BlockRole::Content(1))));
        assert_eq!(reg.owner_of(21), None);
        assert_eq!(reg.universe_len(), 3);
        assert_eq!(reg.dirty_file_ids(), vec![id]);
    }

    #[test]
    fn swap_with_dummy_keeps_universe_constant() {
        let mut reg = Registry::new();
        let data = reg.register(open_file("/data", 10, vec![20, 21], false));
        let dummy = reg.register(open_file("/dummy", 30, vec![40, 41, 42], true));
        let before = reg.universe_len();
        assert!(reg.swap_with_dummy(data, 0, 20, dummy, 2, 42));
        assert_eq!(reg.universe_len(), before);
        assert_eq!(reg.get(data).unwrap().header.blocks, vec![42, 21]);
        assert_eq!(reg.get(dummy).unwrap().header.blocks, vec![40, 41, 20]);
        assert_eq!(reg.owner_of(42), Some((data, BlockRole::Content(0))));
        assert_eq!(reg.owner_of(20), Some((dummy, BlockRole::Content(2))));
    }

    #[test]
    fn donating_a_block_shrinks_and_reindexes_the_dummy_file() {
        let mut reg = Registry::new();
        let dummy = reg.register(open_file("/dummy", 30, vec![40, 41, 42], true));
        assert_eq!(reg.file_with_header(30), Some(dummy));
        assert_eq!(reg.file_with_header(40), None);
        reg.donate_content_block(dummy, 41, 100);
        let file = reg.get(dummy).unwrap();
        assert_eq!(file.header.blocks, vec![40, 42]);
        assert_eq!(file.header.file_size, 200);
        assert!(file.dirty);
        assert_eq!(reg.owner_of(42), Some((dummy, BlockRole::Content(1))));
        // The donated block is still known; its new owner's registration
        // takes it over.
        let data = reg.register(open_file("/new", 41, vec![], false));
        assert_eq!(reg.owner_of(41), Some((data, BlockRole::Header)));
        assert_eq!(reg.universe_len(), 4);
    }

    #[test]
    fn random_known_block_samples_universe() {
        let mut reg = Registry::new();
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
        let mut reg = Registry::new();
        let id = reg.register(open_file("/a", 10, vec![20], false));
        assert!(!reg.relocate_content_block(id, 5, 20, 30));
        assert!(!reg.relocate_content_block(id + 1, 0, 20, 30));
    }
}
