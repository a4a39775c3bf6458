//! Hidden directories.
//!
//! The original StegFS hides not only file contents but the directory
//! hierarchy: a directory is itself a hidden file whose content is a table of
//! entries, each carrying a child's name and the master secret from which the
//! child's [`FileAccessKey`] is derived. Someone holding the directory's FAK
//! can enumerate and open everything below it; someone without it cannot even
//! tell the directory exists.

use stegfs_blockdev::BlockDevice;
use stegfs_crypto::Key256;

use crate::error::FsError;
use crate::fak::FileAccessKey;
use crate::fs::StegFs;
use crate::sharded_map::ShardedBlockMap;
use crate::wire::{Reader, Writer};

/// Kind of object a directory entry points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// A regular hidden file.
    File,
    /// A nested hidden directory.
    Directory,
    /// A dummy file (useful so a user's decoys are enumerable too).
    Dummy,
}

impl EntryKind {
    fn to_byte(self) -> u8 {
        match self {
            EntryKind::File => 0,
            EntryKind::Directory => 1,
            EntryKind::Dummy => 2,
        }
    }

    fn from_byte(b: u8) -> Result<Self, FsError> {
        match b {
            0 => Ok(EntryKind::File),
            1 => Ok(EntryKind::Directory),
            2 => Ok(EntryKind::Dummy),
            other => Err(FsError::Corrupt(format!("unknown entry kind {other}"))),
        }
    }
}

/// One entry in a hidden directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Child name (not a full path).
    pub name: String,
    /// Kind of the child.
    pub kind: EntryKind,
    /// Master secret from which the child's FAK is derived.
    pub master: Key256,
}

impl DirEntry {
    /// The child's file access key.
    pub fn fak(&self) -> FileAccessKey {
        let fak = FileAccessKey::from_master(&self.master);
        if self.kind == EntryKind::Dummy {
            fak.without_content_key()
        } else {
            fak
        }
    }
}

/// An in-memory hidden directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HiddenDirectory {
    entries: Vec<DirEntry>,
}

const DIR_MAGIC: [u8; 8] = *b"SGDIR001";
/// Encoded bytes of an entry with an empty name: name length ‖ kind ‖ master.
const ENTRY_MIN_LEN: usize = 2 + 1 + 32;

impl HiddenDirectory {
    /// Create an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Entries in the directory.
    pub fn entries(&self) -> &[DirEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the directory has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Add or replace an entry by name.
    pub fn insert(&mut self, entry: DirEntry) {
        if let Some(existing) = self.entries.iter_mut().find(|e| e.name == entry.name) {
            *existing = entry;
        } else {
            self.entries.push(entry);
        }
    }

    /// Look up an entry by name.
    pub fn lookup(&self, name: &str) -> Option<&DirEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Remove an entry by name, returning it if present.
    pub fn remove(&mut self, name: &str) -> Option<DirEntry> {
        let idx = self.entries.iter().position(|e| e.name == name)?;
        Some(self.entries.remove(idx))
    }

    /// Serialize the directory to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(&DIR_MAGIC).u32(self.entries.len() as u32);
        for e in &self.entries {
            w.u16(e.name.len() as u16)
                .u8(e.kind.to_byte())
                .bytes(e.name.as_bytes())
                .bytes(e.master.as_bytes());
        }
        w.finish()
    }

    /// Deserialize a directory from bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, FsError> {
        let mut r = Reader::new(bytes);
        r.magic(&DIR_MAGIC)?;
        let count = r.u32()?;
        let count = r.count(count, ENTRY_MIN_LEN)?;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let name_len = r.u16()? as usize;
            let kind = EntryKind::from_byte(r.u8()?)?;
            let name = r.str(name_len)?.to_string();
            let master = r.key()?;
            entries.push(DirEntry { name, kind, master });
        }
        Ok(Self { entries })
    }

    /// Store this directory as a hidden file at `path` under `fak`. Any
    /// previous file at that location should have been deleted first.
    pub fn store<D: BlockDevice>(
        &self,
        fs: &StegFs<D>,
        map: &ShardedBlockMap,
        path: &str,
        fak: &FileAccessKey,
    ) -> Result<(), FsError> {
        let bytes = self.to_bytes();
        fs.create_file(map, path, fak, &bytes).map(|_| ())
    }

    /// Load a directory previously stored at `path` under `fak`.
    pub fn load<D: BlockDevice>(
        fs: &StegFs<D>,
        fak: &FileAccessKey,
        path: &str,
    ) -> Result<Self, FsError> {
        let file = fs.open_file(fak, path)?;
        let bytes = fs.read_file(&file)?;
        Self::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::StegFsConfig;
    use stegfs_blockdev::MemDevice;

    fn entry(name: &str, kind: EntryKind, tag: &str) -> DirEntry {
        DirEntry {
            name: name.to_string(),
            kind,
            master: Key256::from_passphrase(tag),
        }
    }

    #[test]
    fn serialization_roundtrip() {
        let mut dir = HiddenDirectory::new();
        dir.insert(entry("report.doc", EntryKind::File, "a"));
        dir.insert(entry("photos", EntryKind::Directory, "b"));
        dir.insert(entry("decoy.bin", EntryKind::Dummy, "c"));
        let bytes = dir.to_bytes();
        let restored = HiddenDirectory::from_bytes(&bytes).unwrap();
        assert_eq!(restored, dir);
    }

    #[test]
    fn insert_replaces_same_name() {
        let mut dir = HiddenDirectory::new();
        dir.insert(entry("x", EntryKind::File, "a"));
        dir.insert(entry("x", EntryKind::File, "b"));
        assert_eq!(dir.len(), 1);
        assert_eq!(
            dir.lookup("x").unwrap().master,
            Key256::from_passphrase("b")
        );
    }

    #[test]
    fn remove_and_lookup() {
        let mut dir = HiddenDirectory::new();
        dir.insert(entry("x", EntryKind::File, "a"));
        assert!(dir.lookup("x").is_some());
        assert!(dir.lookup("y").is_none());
        assert!(dir.remove("x").is_some());
        assert!(dir.remove("x").is_none());
        assert!(dir.is_empty());
    }

    #[test]
    fn corrupt_bytes_rejected() {
        assert!(HiddenDirectory::from_bytes(b"garbage").is_err());
        let mut dir = HiddenDirectory::new();
        dir.insert(entry("x", EntryKind::File, "a"));
        let bytes = dir.to_bytes();
        assert!(HiddenDirectory::from_bytes(&bytes[..bytes.len() - 4]).is_err());
    }

    #[test]
    fn dummy_entry_fak_has_no_content_key() {
        let e = entry("decoy", EntryKind::Dummy, "d");
        assert!(!e.fak().has_content_key());
        let e = entry("real", EntryKind::File, "d");
        assert!(e.fak().has_content_key());
    }

    #[test]
    fn store_and_load_through_the_fs() {
        let dev = MemDevice::new(512, 512);
        let (fs, map) =
            StegFs::format(dev, StegFsConfig::default().with_block_size(512), 7).unwrap();
        let dir_fak = FileAccessKey::from_passphrase("alice-root-dir");

        let mut dir = HiddenDirectory::new();
        dir.insert(entry("salary.db", EntryKind::File, "alice-salary"));
        dir.insert(entry("decoy1", EntryKind::Dummy, "alice-decoy1"));
        dir.store(&fs, &map, "/alice", &dir_fak).unwrap();

        let loaded = HiddenDirectory::load(&fs, &dir_fak, "/alice").unwrap();
        assert_eq!(loaded, dir);

        // The child FAK derived from the directory entry opens the child.
        let child_fak = loaded.lookup("salary.db").unwrap().fak();
        fs.create_file(&map, "/alice/salary.db", &child_fak, b"salaries")
            .unwrap();
        let child = fs.open_file(&child_fak, "/alice/salary.db").unwrap();
        assert_eq!(fs.read_file(&child).unwrap(), b"salaries");
    }

    #[test]
    fn wrong_fak_cannot_load_directory() {
        let dev = MemDevice::new(512, 512);
        let (fs, map) =
            StegFs::format(dev, StegFsConfig::default().with_block_size(512), 7).unwrap();
        let dir_fak = FileAccessKey::from_passphrase("owner");
        HiddenDirectory::new()
            .store(&fs, &map, "/d", &dir_fak)
            .unwrap();
        let wrong = FileAccessKey::from_passphrase("attacker");
        assert!(HiddenDirectory::load(&fs, &wrong, "/d").is_err());
    }

    /// Bytes produced by the encoder as it stood before the port onto
    /// `wire`: the format must not move.
    #[test]
    fn golden_vector_is_bit_identical() {
        const GOLDEN_DIR: &[u8] = b"\
            \x53\x47\x44\x49\x52\x30\x30\x31\x03\x00\x00\x00\x0a\x00\x00\x72\x65\x70\x6f\x72\
            \x74\x2e\x64\x6f\x63\xca\x97\x81\x12\xca\x1b\xbd\xca\xfa\xc2\x31\xb3\x9a\x23\xdc\
            \x4d\xa7\x86\xef\xf8\x14\x7c\x4e\x72\xb9\x80\x77\x85\xaf\xee\x48\xbb\x08\x00\x01\
            \xd1\x84\xd0\xbe\xd1\x82\xd0\xbe\x3e\x23\xe8\x16\x00\x39\x59\x4a\x33\x89\x4f\x65\
            \x64\xe1\xb1\x34\x8b\xbd\x7a\x00\x88\xd4\x2c\x4a\xcb\x73\xee\xae\xd5\x9c\x00\x9d\
            \x00\x00\x02\x2e\x7d\x2c\x03\xa9\x50\x7a\xe2\x65\xec\xf5\xb5\x35\x68\x85\xa5\x33\
            \x93\xa2\x02\x9d\x24\x13\x94\x99\x72\x65\xa1\xa2\x5a\xef\xc6";
        let mut dir = HiddenDirectory::new();
        dir.insert(entry("report.doc", EntryKind::File, "a"));
        dir.insert(entry("фото", EntryKind::Directory, "b"));
        dir.insert(entry("", EntryKind::Dummy, "c"));
        assert_eq!(dir.to_bytes(), GOLDEN_DIR);
        assert_eq!(HiddenDirectory::from_bytes(GOLDEN_DIR).unwrap(), dir);
    }

    /// Regression: twelve bytes declaring `u32::MAX` entries made the parent
    /// reserve 256 GB and abort the process.
    #[test]
    fn hostile_entry_count_is_refused_before_allocation() {
        let mut bytes = DIR_MAGIC.to_vec();
        bytes.extend_from_slice(&[0xff; 4]);
        assert!(matches!(
            HiddenDirectory::from_bytes(&bytes),
            Err(FsError::Corrupt(_))
        ));
    }
}
