//! The steganographic file system proper.
//!
//! [`StegFs`] implements the ICDE-2003 StegFS substrate the paper builds on:
//! hidden files stored as encrypted block trees scattered uniformly over the
//! volume, located only through their file access keys. It deliberately does
//! *not* hide accesses — updates happen in place and reads go straight to the
//! addressed blocks — because it is the "StegFS" baseline of the paper's
//! evaluation. The access-hiding behaviour is layered on top by the
//! `steghide` agent (updates) and `stegfs-oblivious` (reads).
//!
//! Block allocation is delegated to the caller through its block map
//! ([`ShardedBlockMap`], one flat class vector): the map is the *agent's*
//! knowledge, not the volume's (the volume must not record which blocks
//! are live).

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;

use parking_lot::Mutex;

use stegfs_blockdev::{BlockDevice, BlockId};
use stegfs_crypto::{Aes256, CbcCipher, HashDrbg};

use crate::blockmap::{BlockClass, ShardedBlockMap, DEFAULT_MAP_SHARDS};
use crate::codec::BlockCodec;
use crate::error::FsError;
use crate::fak::FileAccessKey;
use crate::header::{FileHeader, FileKind, HeaderCaps};
use crate::layout::{Superblock, DEFAULT_BLOCK_SIZE, IV_SIZE, SUPERBLOCK_BLOCK};

/// Probe positions tried when locating (or placing) a file's header.
const HEADER_PROBE_LIMIT: u32 = 64;

/// Configuration for formatting a volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StegFsConfig {
    /// Block size in bytes (must leave a 16-byte-aligned data field).
    pub block_size: usize,
    /// Whether to seal every payload block at format time, under a one-time
    /// key nobody keeps, so that abandoned blocks read as ciphertext exactly
    /// like hidden ones. A real deployment fills: a block the format left
    /// as the device had it (zeros on a fresh [`MemDevice`]) is one no file
    /// has ever written, and an image shows it.
    ///
    /// [`MemDevice`]: stegfs_blockdev::MemDevice
    pub fill_on_format: bool,
}

impl Default for StegFsConfig {
    fn default() -> Self {
        Self {
            block_size: DEFAULT_BLOCK_SIZE,
            fill_on_format: true,
        }
    }
}

impl StegFsConfig {
    /// A configuration that skips the format fill. Never-written blocks then
    /// stand out from hidden ones in an image, so this is for set-ups that
    /// measure or count I/O and never show the image to an attacker.
    pub fn without_fill(mut self) -> Self {
        self.fill_on_format = false;
        self
    }

    /// Override the block size.
    pub fn with_block_size(mut self, block_size: usize) -> Self {
        self.block_size = block_size;
        self
    }
}

/// An open hidden (or dummy) file: its access key, the location of its header
/// and the in-memory header itself.
///
/// The header is cached here while the file is open — exactly the cache the
/// paper relies on to make block relocation cheap — and written back by
/// [`StegFs::save`].
#[derive(Debug, Clone)]
pub struct OpenFile {
    /// Path name supplied by the owner.
    pub path: String,
    /// Access key for this file.
    pub fak: FileAccessKey,
    /// Physical block holding the header.
    pub header_location: BlockId,
    /// Physical blocks holding indirect pointer blocks.
    pub indirect_locations: Vec<BlockId>,
    /// The cached header.
    pub header: FileHeader,
    /// Set when the cached header differs from the on-disk copy.
    pub dirty: bool,
}

impl OpenFile {
    /// Whether this is a dummy file.
    pub fn is_dummy(&self) -> bool {
        self.header.kind == FileKind::Dummy
    }

    /// All physical blocks belonging to this file (header, indirect and
    /// content blocks).
    pub fn all_blocks(&self) -> Vec<BlockId> {
        let mut v =
            Vec::with_capacity(1 + self.indirect_locations.len() + self.header.blocks.len());
        v.push(self.header_location);
        v.extend_from_slice(&self.indirect_locations);
        v.extend_from_slice(&self.header.blocks);
        v
    }

    /// Number of content blocks.
    pub fn num_content_blocks(&self) -> u64 {
        self.header.num_blocks()
    }

    /// Physical block holding content block `index`, or
    /// [`FsError::OutOfBounds`] past the last one.
    pub fn content_block(&self, index: u64) -> Result<BlockId, FsError> {
        self.header
            .blocks
            .get(index as usize)
            .copied()
            .ok_or(FsError::OutOfBounds {
                index,
                len: self.header.num_blocks(),
            })
    }
}

/// The steganographic file system over a block device.
pub struct StegFs<D> {
    device: D,
    superblock: Superblock,
    codec: BlockCodec,
    caps: HeaderCaps,
    rng: Mutex<HashDrbg>,
}

impl<D: BlockDevice> StegFs<D> {
    /// Format `device` as a fresh steganographic volume and return the
    /// mounted file system together with the agent's (all-dummy) block map.
    pub fn format(
        device: D,
        cfg: StegFsConfig,
        seed: u64,
    ) -> Result<(Self, ShardedBlockMap), FsError> {
        let block_size = cfg.block_size;
        assert_eq!(
            block_size,
            device.block_size(),
            "config block size must match the device"
        );
        let num_blocks = device.num_blocks();
        if num_blocks < 2 {
            return Err(FsError::BadSuperblock(
                "volume needs at least two blocks".to_string(),
            ));
        }
        let mut rng = HashDrbg::new(&seed.to_be_bytes());
        let mut salt = [0u8; 16];
        rng.fill_bytes(&mut salt);
        let superblock = Superblock::new(block_size as u32, num_blocks, salt);

        let mut sb_block = vec![0u8; block_size];
        superblock.encode_into(&mut sb_block);
        device.write_block(SUPERBLOCK_BLOCK, &sb_block)?;

        let codec = BlockCodec::new(block_size);
        if cfg.fill_on_format {
            let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
            seal_fill(&device, seed, workers)?;
        }

        let fs = Self {
            device,
            superblock,
            caps: HeaderCaps::for_data_field(codec.data_field_len()),
            codec,
            rng: Mutex::new(rng),
        };
        let map = ShardedBlockMap::new_all_dummy(num_blocks, DEFAULT_MAP_SHARDS);
        Ok((fs, map))
    }

    /// Mount an already formatted volume. `seed` seeds the volume DRBG (IVs,
    /// random fills, allocation) in a stream of its own, apart from the one
    /// [`StegFs::format`] draws under the same seed: a session that reused
    /// an earlier session's stream would write that session's bytes again —
    /// the same IVs, the same fills, even the superblock's public salt —
    /// linking the two on the device. Distinct seeds give distinct streams.
    pub fn mount(device: D, seed: u64) -> Result<Self, FsError> {
        let mut sb_block = vec![0u8; device.block_size()];
        device.read_block(SUPERBLOCK_BLOCK, &mut sb_block)?;
        let superblock = Superblock::decode(&sb_block).map_err(FsError::BadSuperblock)?;
        if superblock.block_size as usize != device.block_size()
            || superblock.num_blocks != device.num_blocks()
        {
            return Err(FsError::BadSuperblock(format!(
                "superblock geometry ({} x {}) does not match device ({} x {})",
                superblock.num_blocks,
                superblock.block_size,
                device.num_blocks(),
                device.block_size()
            )));
        }
        let codec = BlockCodec::new(superblock.block_size as usize);
        let mut rng = HashDrbg::new(&seed.to_be_bytes());
        rng.reseed(b"stegfs:mount");
        Ok(Self {
            caps: HeaderCaps::for_data_field(codec.data_field_len()),
            codec,
            superblock,
            device,
            rng: Mutex::new(rng),
        })
    }

    /// The volume superblock.
    pub fn superblock(&self) -> &Superblock {
        &self.superblock
    }

    /// The underlying device.
    pub fn device(&self) -> &D {
        &self.device
    }

    /// Consume the file system and return the underlying device.
    pub fn into_device(self) -> D {
        self.device
    }

    /// The block codec (seal/open/reseal).
    pub fn codec(&self) -> &BlockCodec {
        &self.codec
    }

    /// Header pointer capacities for this volume's block size.
    pub fn caps(&self) -> &HeaderCaps {
        &self.caps
    }

    /// Bytes of content stored per content block.
    pub fn content_bytes_per_block(&self) -> usize {
        self.codec.data_field_len()
    }

    /// Number of content blocks needed to store `len` bytes.
    pub fn blocks_for_len(&self, len: u64) -> u64 {
        len.div_ceil(self.content_bytes_per_block() as u64).max(1)
    }

    /// Run `f` with the file system's RNG.
    pub fn with_rng<R>(&self, f: impl FnOnce(&mut HashDrbg) -> R) -> R {
        f(&mut self.rng.lock())
    }

    /// Allocate `count` distinct blocks uniformly at random among the blocks
    /// `map` classifies as dummy, marking them as data. Mirrors the paper's
    /// "scattered across the storage space" placement.
    ///
    /// The map's atomic [`ShardedBlockMap::claim`] keeps two allocators from
    /// marking the same block. Every tier calls this under its one lock, but
    /// the map is `Sync` and public, so a caller may still share it: there
    /// the up-front space check is only advisory (another thread may drain
    /// the pool mid-loop), and the loop re-checks the pool on every failed
    /// claim and rolls back instead of spinning forever once it empties.
    pub fn allocate_blocks(
        &self,
        map: &ShardedBlockMap,
        count: u64,
    ) -> Result<Vec<BlockId>, FsError> {
        if map.dummy_blocks() < count {
            return Err(FsError::NoSpace {
                requested: count,
                available: map.dummy_blocks(),
            });
        }
        let mut rng = self.rng.lock();
        let mut out = Vec::with_capacity(count as usize);
        let payload = self.superblock.payload_blocks();
        while (out.len() as u64) < count {
            let candidate = 1 + rng.gen_range(payload);
            if map.claim(candidate, BlockClass::Dummy, BlockClass::Data) {
                out.push(candidate);
            } else if map.dummy_blocks() == 0 {
                // Pool exhausted underneath us (only possible with external
                // concurrent claimers). Release what we took and report; the
                // check never fires single-threaded, where the precondition
                // above already guaranteed enough dummies.
                for &b in &out {
                    map.set(b, BlockClass::Dummy);
                }
                return Err(FsError::NoSpace {
                    requested: count,
                    available: 0,
                });
            }
            // Non-dummy candidates are simply skipped; with utilisation kept
            // below 50 % the expected number of retries per block is < 2
            // (Section 4.1.5's N/D argument).
        }
        Ok(out)
    }

    /// Release blocks back to the dummy pool, refilling them with random
    /// bytes so they are indistinguishable from never-used blocks.
    pub fn release_blocks(&self, map: &ShardedBlockMap, blocks: &[BlockId]) -> Result<(), FsError> {
        let mut scratch = vec![0u8; self.codec.block_size()];
        for &b in blocks {
            self.randomize_block(b, &mut scratch)?;
            map.set(b, BlockClass::Dummy);
        }
        Ok(())
    }

    fn header_candidates(&self, fak: &FileAccessKey, path: &str) -> Vec<BlockId> {
        (0..HEADER_PROBE_LIMIT)
            .map(|probe| {
                fak.header_location(
                    &self.superblock.salt,
                    path,
                    probe,
                    self.superblock.payload_blocks(),
                )
            })
            .collect()
    }

    /// Create a hidden file at `path` with the given content.
    pub fn create_file(
        &self,
        map: &ShardedBlockMap,
        path: &str,
        fak: &FileAccessKey,
        content: &[u8],
    ) -> Result<OpenFile, FsError> {
        if !fak.has_content_key() {
            return Err(FsError::NoContentKey);
        }
        self.create_inner(
            map,
            path,
            fak,
            FileKind::Data,
            content.len() as u64,
            ContentInit::Bytes(content),
        )
    }

    /// Create a hidden file of `size` bytes at `path` without writing its
    /// content blocks (they keep whatever the volume already holds). The I/O
    /// and timing behaviour of subsequent reads and updates is identical to a
    /// fully written file, so the benchmark harness uses this to set up large
    /// populations quickly; real deployments use [`StegFs::create_file`].
    pub fn create_file_sparse(
        &self,
        map: &ShardedBlockMap,
        path: &str,
        fak: &FileAccessKey,
        size: u64,
    ) -> Result<OpenFile, FsError> {
        if !fak.has_content_key() {
            return Err(FsError::NoContentKey);
        }
        self.create_inner(map, path, fak, FileKind::Data, size, ContentInit::Skip)
    }

    /// Create a dummy file of `num_blocks` content blocks at `path`. Its
    /// content blocks are filled with random bytes; only the header is real.
    pub fn create_dummy_file(
        &self,
        map: &ShardedBlockMap,
        path: &str,
        fak: &FileAccessKey,
        num_blocks: u64,
    ) -> Result<OpenFile, FsError> {
        let size = num_blocks * self.content_bytes_per_block() as u64;
        self.create_inner(map, path, fak, FileKind::Dummy, size, ContentInit::Random)
    }

    /// Create a dummy file whose content blocks are left untouched instead of
    /// being filled with fresh random bytes. On a properly formatted volume
    /// the blocks already contain random data, so this is equivalent to
    /// [`StegFs::create_dummy_file`] but much faster for benchmark set-up.
    pub fn create_dummy_file_sparse(
        &self,
        map: &ShardedBlockMap,
        path: &str,
        fak: &FileAccessKey,
        num_blocks: u64,
    ) -> Result<OpenFile, FsError> {
        let size = num_blocks * self.content_bytes_per_block() as u64;
        self.create_inner(map, path, fak, FileKind::Dummy, size, ContentInit::Skip)
    }

    fn create_inner(
        &self,
        map: &ShardedBlockMap,
        path: &str,
        fak: &FileAccessKey,
        kind: FileKind,
        file_size: u64,
        content: ContentInit<'_>,
    ) -> Result<OpenFile, FsError> {
        let content_blocks = self.blocks_for_len(file_size);
        if content_blocks > self.caps.max_content_blocks() {
            return Err(FsError::FileTooLarge {
                size: file_size,
                max: self.caps.max_content_blocks() * self.content_bytes_per_block() as u64,
            });
        }

        // Find a header slot: the first probe position not already holding
        // live data. Blocks the agent has not classified (`Unknown`, which
        // only a Construction 2 agent ever has) are accepted too — placing a
        // header there carries the same overwrite risk as in the original
        // StegFS, where the agent simply cannot know about files whose owners
        // are not logged in.
        let candidates = self.header_candidates(fak, path);
        let header_location = *candidates
            .iter()
            .find(|&&b| {
                // `claim` rather than check-then-set, so two creations
                // sharing one map (or a creation racing an allocation) can
                // never take the same header slot.
                map.claim(b, BlockClass::Dummy, BlockClass::Data)
                    || map.claim(b, BlockClass::Unknown, BlockClass::Data)
            })
            .ok_or(FsError::HeaderCollision {
                block: *candidates.last().unwrap_or(&0),
            })?;

        // Allocate content and indirect blocks.
        let content_locs = match self.allocate_blocks(map, content_blocks) {
            Ok(locs) => locs,
            Err(e) => {
                map.set(header_location, BlockClass::Dummy);
                return Err(e);
            }
        };
        let indirect_needed = self.caps.indirect_blocks_needed(content_blocks);
        let indirect_locs = match self.allocate_blocks(map, indirect_needed) {
            Ok(locs) => locs,
            Err(e) => {
                map.set(header_location, BlockClass::Dummy);
                for &b in &content_locs {
                    map.set(b, BlockClass::Dummy);
                }
                return Err(e);
            }
        };

        // Write content blocks.
        let per_block = self.content_bytes_per_block();
        match content {
            ContentInit::Bytes(bytes) => {
                let content_key = fak.content_key().ok_or(FsError::NoContentKey)?;
                let blocks: Vec<(BlockId, &[u8])> = content_locs
                    .iter()
                    .enumerate()
                    .map(|(i, &loc)| {
                        let start = (i * per_block).min(bytes.len());
                        let end = (start + per_block).min(bytes.len());
                        (loc, &bytes[start..end])
                    })
                    .collect();
                let mut rng = self.rng.lock();
                self.codec
                    .write_sealed_many(&self.device, content_key, &blocks, &mut rng)?;
            }
            ContentInit::Random => {
                let mut scratch = vec![0u8; self.codec.block_size()];
                for &loc in &content_locs {
                    self.randomize_block(loc, &mut scratch)?;
                }
            }
            ContentInit::Skip => {}
        }

        let header = FileHeader::new(
            kind,
            file_size,
            FileHeader::path_tag_for(fak.header_key(), path),
            content_locs,
        );
        let mut open = OpenFile {
            path: path.to_string(),
            fak: fak.clone(),
            header_location,
            indirect_locations: indirect_locs,
            header,
            dirty: true,
        };
        self.save(&mut open)?;
        Ok(open)
    }

    /// Open a hidden file given its access key and path. Fails with
    /// [`FsError::NoSuchFile`] if no header decrypts correctly — which is
    /// also what happens for a wrong key, making absence and ignorance
    /// indistinguishable.
    pub fn open_file(&self, fak: &FileAccessKey, path: &str) -> Result<OpenFile, FsError> {
        let expected_tag = FileHeader::path_tag_for(fak.header_key(), path);
        for candidate in self.header_candidates(fak, path) {
            let payload = self
                .codec
                .read_sealed(&self.device, candidate, fak.header_key())?;
            match FileHeader::decode_prefix(&payload, &self.caps) {
                Ok((mut header, indirect_locs)) => {
                    if header.path_tag != expected_tag {
                        // A valid header for a different path — keep probing.
                        continue;
                    }
                    for &loc in &indirect_locs {
                        let ind_payload =
                            self.codec
                                .read_sealed(&self.device, loc, fak.header_key())?;
                        header.absorb_indirect(&ind_payload, &self.caps);
                    }
                    if !header.is_complete() {
                        return Err(FsError::Corrupt(
                            "header pointer list incomplete".to_string(),
                        ));
                    }
                    return Ok(OpenFile {
                        path: path.to_string(),
                        fak: fak.clone(),
                        header_location: candidate,
                        indirect_locations: indirect_locs,
                        header,
                        dirty: false,
                    });
                }
                Err(FsError::NoSuchFile) => continue,
                Err(other) => return Err(other),
            }
        }
        Err(FsError::NoSuchFile)
    }

    /// Register an open file's blocks in the agent's block map — what the
    /// volatile agent does when a user logs on and discloses a FAK
    /// (Section 4.2.2).
    pub fn register_file(&self, map: &ShardedBlockMap, file: &OpenFile) {
        let class = if file.is_dummy() {
            // Dummy-file content blocks may be reused for data and are valid
            // dummy-update targets.
            BlockClass::Dummy
        } else {
            BlockClass::Data
        };
        map.set(file.header_location, BlockClass::Data);
        for &b in &file.indirect_locations {
            map.set(b, BlockClass::Data);
        }
        for &b in &file.header.blocks {
            map.set(b, class);
        }
    }

    /// Read one content block of an open file.
    pub fn read_content_block(&self, file: &OpenFile, index: u64) -> Result<Vec<u8>, FsError> {
        let mut out = vec![0u8; self.content_bytes_per_block()];
        self.codec
            .with_scratch(|scratch| self.read_content_into(file, index, scratch, &mut out))?;
        Ok(out)
    }

    /// Content block `index` of `file` into `dst` (one block's content long),
    /// through `scratch` (one physical block long): one device read, and for
    /// a data file one decrypt, from the scratch straight into `dst`.
    fn read_content_into(
        &self,
        file: &OpenFile,
        index: u64,
        scratch: &mut [u8],
        dst: &mut [u8],
    ) -> Result<(), FsError> {
        let loc = file.content_block(index)?;
        match file.header.kind {
            FileKind::Data => {
                let key = file.fak.content_key().ok_or(FsError::NoContentKey)?;
                self.codec
                    .read_sealed_into(&self.device, loc, key, scratch, dst)
            }
            FileKind::Dummy => {
                // Dummy content is meaningless; return the raw bytes.
                self.device.read_block(loc, scratch)?;
                dst.copy_from_slice(&scratch[..dst.len()]);
                Ok(())
            }
        }
    }

    /// Read an entire file's contents.
    pub fn read_file(&self, file: &OpenFile) -> Result<Vec<u8>, FsError> {
        let per_block = self.content_bytes_per_block();
        let mut out = vec![0u8; file.header.blocks.len() * per_block];
        self.codec.with_scratch(|scratch| {
            out.chunks_exact_mut(per_block)
                .enumerate()
                .try_for_each(|(i, dst)| self.read_content_into(file, i as u64, scratch, dst))
        })?;
        out.truncate(file.header.file_size as usize);
        Ok(out)
    }

    /// Overwrite one content block *in place* — the plain StegFS behaviour
    /// that the paper's update-analysis attack exploits (no relocation, no
    /// dummy traffic). The steghide agent replaces this with the Figure 6
    /// algorithm.
    pub fn write_content_block(
        &self,
        file: &mut OpenFile,
        index: u64,
        data: &[u8],
    ) -> Result<(), FsError> {
        let loc = file.content_block(index)?;
        let key = file.fak.content_key().ok_or(FsError::NoContentKey)?;
        let mut rng = self.rng.lock();
        self.codec
            .write_sealed(&self.device, loc, key, data, &mut rng)?;
        Ok(())
    }

    /// Write the cached header (and indirect pointer blocks) back to the
    /// volume. Called when a file is saved/closed.
    pub fn save(&self, file: &mut OpenFile) -> Result<(), FsError> {
        let (header_payload, indirect_payloads) = file.header.encode(
            &self.caps,
            self.codec.data_field_len(),
            &file.indirect_locations,
        )?;
        let mut rng = self.rng.lock();
        // Crash ordering: indirect blocks first, header block last. A header
        // is only discoverable through the probe scan, so until the single
        // header write lands the file presents its previous state; that one
        // sector-atomic write is the commit point of the whole header tree.
        for (&loc, payload) in file.indirect_locations.iter().zip(indirect_payloads.iter()) {
            self.codec
                .write_sealed(&self.device, loc, file.fak.header_key(), payload, &mut rng)?;
        }
        self.codec.write_sealed(
            &self.device,
            file.header_location,
            file.fak.header_key(),
            &header_payload,
            &mut rng,
        )?;
        file.dirty = false;
        Ok(())
    }

    /// Delete a file: release all of its blocks back to the dummy pool.
    ///
    /// Crash ordering: [`OpenFile::all_blocks`] lists the header first, so
    /// the very first randomizing write makes the file undiscoverable; a cut
    /// anywhere later strands only unreachable sealed blocks, which are
    /// indistinguishable from free space and simply rejoin the dummy pool at
    /// the next format-level accounting.
    pub fn delete_file(&self, map: &ShardedBlockMap, file: OpenFile) -> Result<(), FsError> {
        let blocks = file.all_blocks();
        self.release_blocks(map, &blocks)
    }

    /// Perform a dummy update (re-encrypt under a fresh IV) on `block` using
    /// `key`. Exposed for the agent's idle-time dummy traffic. Only the IV
    /// draw takes the volume DRBG lock: it must never span a device wait or
    /// the cipher work, or every thread that needs an IV queues behind it.
    pub fn reseal_block(&self, block: BlockId, key: &stegfs_crypto::Key256) -> Result<(), FsError> {
        self.codec.reseal_with(&self.device, block, key, |iv| {
            self.with_rng(|rng| rng.fill_bytes(iv))
        })
    }

    /// Overwrite `block` with fresh random bytes (used when a block is
    /// abandoned, for a dummy file's content, and as the "dummy update" for
    /// blocks that only ever held random data). The bytes are drawn into
    /// `scratch` (one block long) under the volume DRBG lock and written with
    /// it released.
    pub fn randomize_block(&self, block: BlockId, scratch: &mut [u8]) -> Result<(), FsError> {
        self.with_rng(|rng| rng.fill_bytes(scratch));
        self.device.write_block(block, scratch)?;
        Ok(())
    }
}

/// How the content blocks of a newly created file are initialised.
enum ContentInit<'a> {
    /// Seal the supplied bytes under the file's content key.
    Bytes(&'a [u8]),
    /// Fill with fresh random bytes (dummy files).
    Random,
    /// Leave the blocks untouched (sparse creation for benchmark set-up).
    Skip,
}

/// Bytes of payload sealed as one unit of the format fill: one claim, one
/// buffer and one ranged write.
const FILL_CHUNK_BYTES: usize = 256 * 1024;

/// Abandon every payload block of a fresh volume: block `b` becomes the CBC
/// encryption under `k` of one block of zeros with the counter `b` as IV.
/// Its first 16 bytes, `AES_k(b)`, read as the IV and the rest as
/// `CBC_k(0…0)` under that IV, so it is shaped like a sealed block under a
/// key nobody holds. `k` is drawn from the fill stream (the little-endian
/// seed; the volume DRBG draws from the big-endian one), expanded here rather
/// than in a codec's schedule cache, and wiped when the fill returns. Without
/// `k` the fill is AES output: no part of it predicts another, so a snapshot
/// cannot tell a block no file ever wrote from a hidden one.
///
/// `workers` threads seal: the calling thread and `workers - 1` scoped ones.
/// Chunks of [`FILL_CHUNK_BYTES`] are claimed in ascending order by whoever
/// is free, and the calling thread writes them in that order, one ranged
/// write each. Until the chunk it needs next is sealed it takes in what the
/// workers sealed and seals the first unclaimed chunk itself, so with one
/// worker the fill is a plain loop. A block's bytes depend on `k` and `b`
/// alone and the chunk bounds on the geometry alone, so the image and the
/// request stream are the same for any worker count. No chunk is claimed
/// `2 · workers` or more past the last one written, which bounds the fill's
/// memory whatever the volume's size.
fn seal_fill<D: BlockDevice>(device: &D, seed: u64, workers: usize) -> Result<(), FsError> {
    let (block_size, num_blocks) = (device.block_size(), device.num_blocks());
    let mut key = [0u8; 32];
    HashDrbg::new(&seed.to_le_bytes()).fill_bytes(&mut key);
    let cbc = CbcCipher::new(Aes256::new(&key));
    key.fill(0);
    std::hint::black_box(&key);

    let per_chunk = (FILL_CHUNK_BYTES / block_size).max(1) as u64;
    let chunks = (num_blocks - 1).div_ceil(per_chunk) as usize;
    let start_of = |chunk: usize| 1 + chunk as u64 * per_chunk;
    // Written chunks' buffers, for the next seal: with a fresh buffer per
    // chunk, freed on another thread, 1 MiB chunks sealed two to three
    // times slower.
    let spare = Mutex::new(Vec::new());
    let seal = |chunk: usize| {
        let start = start_of(chunk);
        let end = (start + per_chunk).min(num_blocks);
        let mut run: Vec<u8> = spare.lock().pop().unwrap_or_default();
        run.clear();
        run.resize((end - start) as usize * block_size, 0);
        let ivs: Vec<[u8; IV_SIZE]> = (start..end)
            .map(|b| {
                let mut iv = [0u8; IV_SIZE];
                iv[..8].copy_from_slice(&b.to_le_bytes());
                iv
            })
            .collect();
        let mut lanes: Vec<&mut [u8]> = run.chunks_exact_mut(block_size).collect();
        cbc.encrypt_many_in_place(&ivs, &mut lanes)?;
        Ok(run)
    };

    // A sealer with nothing to claim polls and yields rather than sleeping:
    // the fill is over in tens of milliseconds, and on a virtual machine
    // waking a halted core costs about as much as sealing a chunk.
    let workers = workers.clamp(1, chunks);
    let window = 2 * workers;
    // Sealed chunks travel through the channel; the atomics publish no other
    // data, and their Release stores and Acquire loads order them only
    // among themselves.
    let (next, written) = (&AtomicUsize::new(0), &AtomicUsize::new(0));
    let stopped = &AtomicBool::new(false);
    // The first chunk nobody has claimed, now claimed; `None` while every
    // chunk is claimed or the window past the last write is full.
    let try_claim = || {
        let mut chunk = next.load(Ordering::Acquire);
        while chunk < chunks.min(written.load(Ordering::Acquire) + window) {
            match next.compare_exchange_weak(chunk, chunk + 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Some(chunk),
                Err(now) => chunk = now,
            }
        }
        None
    };
    let (sealed_tx, sealed) = mpsc::channel();
    std::thread::scope(|scope| {
        for _ in 1..workers {
            let (sealed_tx, try_claim, seal) = (sealed_tx.clone(), &try_claim, &seal);
            scope.spawn(move || {
                while !stopped.load(Ordering::Acquire) && next.load(Ordering::Acquire) < chunks {
                    let Some(chunk) = try_claim() else {
                        std::thread::yield_now();
                        continue;
                    };
                    // A lost chunk would leave the writer polling for it.
                    let run = catch_unwind(AssertUnwindSafe(|| seal(chunk))).unwrap_or_else(|_| {
                        Err(FsError::Cipher("a format fill worker panicked".into()))
                    });
                    if sealed_tx.send((chunk, run)).is_err() {
                        break;
                    }
                }
            });
        }
        // Whatever way the writer leaves, no worker claims another chunk.
        let _stop = StopOnDrop(stopped);
        let mut early = BTreeMap::new();
        for chunk in 0..chunks {
            // Until `chunk` is sealed, take in what the workers sealed and
            // seal the next unclaimed chunk here rather than wait.
            let run = loop {
                if let Some(run) = early.remove(&chunk) {
                    break run;
                }
                if let Ok((other, run)) = sealed.try_recv() {
                    early.insert(other, run);
                } else if let Some(other) = try_claim() {
                    early.insert(other, seal(other));
                } else {
                    std::thread::yield_now();
                }
            };
            let run = run?;
            device.write_blocks(start_of(chunk), &run)?;
            written.store(chunk + 1, Ordering::Release);
            spare.lock().push(run);
        }
        Ok(())
    })
}

/// Raises its flag when dropped, on return, error or panic alike.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stegfs_blockdev::{BlockDeviceExt, Io, IoKind, Layered, MemDevice};

    fn small_fs() -> (StegFs<MemDevice>, ShardedBlockMap) {
        let dev = MemDevice::new(512, 512);
        StegFs::format(dev, StegFsConfig::default().with_block_size(512), 42).unwrap()
    }

    #[test]
    fn format_and_mount_roundtrip() {
        let dev = MemDevice::new(64, 512);
        let (fs, map) =
            StegFs::format(dev, StegFsConfig::default().with_block_size(512), 1).unwrap();
        assert_eq!(map.num_blocks(), 64);
        assert_eq!(fs.superblock().num_blocks, 64);
        let dev2 = fs.device();
        // A formatted volume's payload blocks are non-zero (random fill).
        let blk = dev2.read_block_vec(5).unwrap();
        assert!(blk.iter().any(|&b| b != 0));
    }

    /// The image a fill with `workers` workers leaves on a volume of
    /// `blocks` 512-byte blocks, and the request stream it sent: kind, first
    /// block and length of every request.
    fn fill_with(blocks: u64, workers: usize) -> (Vec<u8>, Vec<(IoKind, BlockId, u64)>) {
        let log = std::sync::Arc::new(Mutex::new(Vec::new()));
        let device = Layered::with_hook(MemDevice::new(blocks, 512), {
            let log = log.clone();
            move |_: &MemDevice, io: Io| {
                log.lock().push((io.kind, io.start, io.blocks));
                Ok(())
            }
        });
        seal_fill(&device, 7, workers).unwrap();
        let mut image = vec![0u8; blocks as usize * 512];
        device.inner().read_blocks(0, &mut image).unwrap();
        let requests = log.lock().clone();
        (image, requests)
    }

    #[test]
    fn the_fill_is_the_same_for_any_worker_count() {
        // Four whole chunks and a short fifth: one chunk per worker at five
        // workers, an uneven deal at two.
        let per_chunk = (FILL_CHUNK_BYTES / 512) as u64;
        let blocks = 1 + 4 * per_chunk + 100;
        let (image, requests) = fill_with(blocks, 1);
        for workers in [2, 5] {
            let (other, other_requests) = fill_with(blocks, workers);
            assert!(other == image, "{workers} workers wrote other bytes");
            assert_eq!(other_requests, requests, "{workers} workers");
        }

        // One ascending stream of ranged writes over every payload block.
        let expected: Vec<_> = (0..5)
            .map(|c| {
                (
                    IoKind::Write,
                    1 + c * per_chunk,
                    per_chunk.min(blocks - 1 - c * per_chunk),
                )
            })
            .collect();
        assert_eq!(requests, expected);
        // The superblock's place is untouched; every payload block is one
        // block of zeros CBC-sealed under the fill key, its counter as IV.
        assert!(image[..512].iter().all(|&b| b == 0));
        let mut key = [0u8; 32];
        HashDrbg::new(&7u64.to_le_bytes()).fill_bytes(&mut key);
        let cbc = CbcCipher::new(Aes256::new(&key));
        for (b, block) in image.chunks_exact(512).enumerate().skip(1) {
            let mut counter = [0u8; IV_SIZE];
            counter[..8].copy_from_slice(&(b as u64).to_le_bytes());
            assert_eq!(
                cbc.decrypt(&counter, block).unwrap(),
                [0u8; 512],
                "block {b}"
            );
        }
    }

    #[test]
    fn dummy_updates_release_the_drbg_lock_before_the_device_write() {
        // A device whose write first runs a hook. The hook has a second
        // thread draw from the volume DRBG and waits for it: if the writer
        // still held the DRBG lock the draw could not finish until the write
        // returned, and the wait would time out.
        type Hook = Box<dyn Fn() + Send + Sync>;
        let on_write = std::sync::Arc::new(Mutex::new(None::<Hook>));
        let device = Layered::with_hook(MemDevice::new(64, 512), {
            let on_write = on_write.clone();
            move |_: &MemDevice, io: Io| {
                if let (IoKind::Write, Some(hook)) = (io.kind, &*on_write.lock()) {
                    hook();
                }
                Ok(())
            }
        });
        let cfg = StegFsConfig::default().with_block_size(512);
        let (fs, map) = StegFs::format(device, cfg, 3).unwrap();
        let fs = std::sync::Arc::new(fs);
        let fak = FileAccessKey::from_passphrase("alice");
        let file = fs.create_file(&map, "/f", &fak, &[7u8; 400]).unwrap();

        let drawn_mid_write = std::sync::Arc::new(Mutex::new(Vec::new()));
        let drawers = std::sync::Arc::new(Mutex::new(Vec::new()));
        let (other, log, spawned) = (fs.clone(), drawn_mid_write.clone(), drawers.clone());
        *on_write.lock() = Some(Box::new(move || {
            let (tx, rx) = std::sync::mpsc::channel();
            let other = other.clone();
            // Joined once the write this hook sits in has returned, so a
            // drawer stuck behind the lock fails the test instead of hanging.
            spawned.lock().push(std::thread::spawn(move || {
                tx.send(other.with_rng(|rng| rng.next_u64())).ok();
            }));
            let drawn = rx.recv_timeout(std::time::Duration::from_secs(2));
            log.lock().push(drawn.is_ok());
        }));
        fs.reseal_block(file.header.blocks[0], fak.content_key().unwrap())
            .unwrap();
        fs.randomize_block(40, &mut [0u8; 512]).unwrap();
        *on_write.lock() = None;
        for drawer in drawers.lock().drain(..) {
            drawer.join().unwrap();
        }
        assert_eq!(*drawn_mid_write.lock(), [true, true]);
        assert_eq!(fs.read_file(&file).unwrap(), [7u8; 400]);
    }

    #[test]
    fn mount_rejects_unformatted_volume() {
        let dev = MemDevice::new(64, 512);
        assert!(StegFs::mount(dev, 1).is_err());
    }

    #[test]
    fn create_read_roundtrip() {
        let (fs, map) = small_fs();
        let fak = FileAccessKey::from_passphrase("alice");
        let content: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
        let file = fs
            .create_file(&map, "/secret/report", &fak, &content)
            .unwrap();
        assert_eq!(fs.read_file(&file).unwrap(), content);

        // Re-open from scratch.
        let reopened = fs.open_file(&fak, "/secret/report").unwrap();
        assert_eq!(reopened.header_location, file.header_location);
        assert_eq!(fs.read_file(&reopened).unwrap(), content);
    }

    #[test]
    fn wrong_key_or_path_finds_nothing() {
        let (fs, map) = small_fs();
        let fak = FileAccessKey::from_passphrase("alice");
        fs.create_file(&map, "/secret", &fak, b"data").unwrap();

        let wrong_key = FileAccessKey::from_passphrase("mallory");
        assert_eq!(
            fs.open_file(&wrong_key, "/secret").unwrap_err(),
            FsError::NoSuchFile
        );
        assert_eq!(
            fs.open_file(&fak, "/other").unwrap_err(),
            FsError::NoSuchFile
        );
    }

    #[test]
    fn empty_file_roundtrip() {
        let (fs, map) = small_fs();
        let fak = FileAccessKey::from_passphrase("k");
        let file = fs.create_file(&map, "/empty", &fak, b"").unwrap();
        assert_eq!(fs.read_file(&file).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn multi_block_file_with_exact_boundary() {
        let (fs, map) = small_fs();
        let fak = FileAccessKey::from_passphrase("k");
        let per = fs.content_bytes_per_block();
        let content = vec![0xabu8; per * 3];
        let file = fs.create_file(&map, "/exact", &fak, &content).unwrap();
        assert_eq!(file.num_content_blocks(), 3);
        assert_eq!(fs.read_file(&file).unwrap(), content);
    }

    #[test]
    fn in_place_update_changes_content() {
        let (fs, map) = small_fs();
        let fak = FileAccessKey::from_passphrase("k");
        let per = fs.content_bytes_per_block();
        let content = vec![1u8; per * 2];
        let mut file = fs.create_file(&map, "/f", &fak, &content).unwrap();
        let new_block = vec![9u8; per];
        fs.write_content_block(&mut file, 1, &new_block).unwrap();
        let read = fs.read_file(&file).unwrap();
        assert_eq!(&read[..per], &content[..per]);
        assert_eq!(&read[per..], &new_block[..]);
    }

    #[test]
    fn dummy_file_reads_are_random_bytes() {
        let (fs, map) = small_fs();
        let fak = FileAccessKey::from_passphrase("dummy-owner").without_content_key();
        let file = fs.create_dummy_file(&map, "/decoy", &fak, 2).unwrap();
        assert!(file.is_dummy());
        let bytes = fs.read_content_block(&file, 0).unwrap();
        assert!(bytes.iter().any(|&b| b != 0));
        // Re-open works with only the header key.
        let reopened = fs.open_file(&fak, "/decoy").unwrap();
        assert!(reopened.is_dummy());
    }

    #[test]
    fn deniability_wrong_content_key_still_opens_header() {
        let (fs, map) = small_fs();
        let fak = FileAccessKey::from_passphrase("owner");
        let content = vec![0x33u8; 800];
        fs.create_file(&map, "/real", &fak, &content).unwrap();

        // The coerced owner reveals the header key but a wrong content key.
        let decoy = fak.with_wrong_content_key();
        let opened = fs.open_file(&decoy, "/real").unwrap();
        // The header opens fine...
        assert_eq!(opened.header.file_size, 800);
        // ...but the content is garbage, which the owner passes off as a
        // dummy file.
        let read = fs.read_file(&opened).unwrap();
        assert_ne!(read, content);
    }

    #[test]
    fn allocation_respects_block_map_and_space() {
        let (fs, map) = small_fs();
        let total_dummy = map.dummy_blocks();
        let allocated = fs.allocate_blocks(&map, 10).unwrap();
        assert_eq!(allocated.len(), 10);
        assert_eq!(map.dummy_blocks(), total_dummy - 10);
        // All distinct and marked data.
        let mut sorted = allocated.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
        for b in allocated {
            assert_eq!(map.class(b), BlockClass::Data);
        }
        // Requesting more than available fails.
        let too_many = map.dummy_blocks() + 1;
        assert!(matches!(
            fs.allocate_blocks(&map, too_many),
            Err(FsError::NoSpace { .. })
        ));
    }

    #[test]
    fn delete_returns_blocks_to_dummy_pool() {
        let (fs, map) = small_fs();
        let fak = FileAccessKey::from_passphrase("k");
        let before = map.dummy_blocks();
        let file = fs.create_file(&map, "/f", &fak, &vec![5u8; 2000]).unwrap();
        assert!(map.dummy_blocks() < before);
        fs.delete_file(&map, file).unwrap();
        assert_eq!(map.dummy_blocks(), before);
        // The file can no longer be opened.
        assert_eq!(fs.open_file(&fak, "/f").unwrap_err(), FsError::NoSuchFile);
    }

    #[test]
    fn register_file_rebuilds_map_after_remount() {
        let (fs, map) = small_fs();
        let fak = FileAccessKey::from_passphrase("k");
        let content = vec![1u8; 1500];
        let created = fs.create_file(&map, "/f", &fak, &content).unwrap();
        let expected_data = map.data_blocks();

        // Simulate an agent restart: a fresh, all-unknown map.
        let fresh = ShardedBlockMap::new_unknown(fs.superblock().num_blocks, 4);
        assert_eq!(fresh.data_blocks(), 0);
        let reopened = fs.open_file(&fak, "/f").unwrap();
        fs.register_file(&fresh, &reopened);
        assert_eq!(fresh.data_blocks(), expected_data);
        assert_eq!(reopened.all_blocks().len(), created.all_blocks().len());
    }

    #[test]
    fn two_files_do_not_collide() {
        let (fs, map) = small_fs();
        let alice = FileAccessKey::from_passphrase("alice");
        let bob = FileAccessKey::from_passphrase("bob");
        let a = fs
            .create_file(&map, "/a", &alice, &vec![1u8; 2000])
            .unwrap();
        let b = fs.create_file(&map, "/b", &bob, &vec![2u8; 2000]).unwrap();
        let mut all: Vec<u64> = a.all_blocks();
        all.extend(b.all_blocks());
        let len = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), len, "files must not share blocks");
        assert_eq!(fs.read_file(&a).unwrap(), vec![1u8; 2000]);
        assert_eq!(fs.read_file(&b).unwrap(), vec![2u8; 2000]);
    }

    #[test]
    fn reseal_preserves_file_content() {
        let (fs, map) = small_fs();
        let fak = FileAccessKey::from_passphrase("k");
        let content = vec![0x77u8; 900];
        let file = fs.create_file(&map, "/f", &fak, &content).unwrap();
        for &b in &file.header.blocks {
            fs.reseal_block(b, fak.content_key().unwrap()).unwrap();
        }
        fs.reseal_block(file.header_location, fak.header_key())
            .unwrap();
        assert_eq!(fs.read_file(&file).unwrap(), content);
        let reopened = fs.open_file(&fak, "/f").unwrap();
        assert_eq!(fs.read_file(&reopened).unwrap(), content);
    }

    #[test]
    fn quick_format_skips_fill() {
        let dev = MemDevice::new(64, 512);
        let (fs, _map) = StegFs::format(
            dev,
            StegFsConfig::default().with_block_size(512).without_fill(),
            3,
        )
        .unwrap();
        let blk = fs.device().read_block_vec(10).unwrap();
        assert!(blk.iter().all(|&b| b == 0));
    }

    #[test]
    fn out_of_bounds_block_index() {
        let (fs, map) = small_fs();
        let fak = FileAccessKey::from_passphrase("k");
        let mut file = fs.create_file(&map, "/f", &fak, b"tiny").unwrap();
        assert!(matches!(
            fs.read_content_block(&file, 5),
            Err(FsError::OutOfBounds { .. })
        ));
        assert!(matches!(
            fs.write_content_block(&mut file, 5, b"x"),
            Err(FsError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn large_file_uses_indirect_blocks() {
        // Use a small block size so indirect blocks kick in quickly.
        let dev = MemDevice::new(2048, 512);
        let (fs, map) = StegFs::format(
            dev,
            StegFsConfig::default().with_block_size(512).without_fill(),
            9,
        )
        .unwrap();
        let fak = FileAccessKey::from_passphrase("big");
        let per = fs.content_bytes_per_block();
        let blocks_needed = fs.caps().direct + 5;
        let content: Vec<u8> = (0..per * blocks_needed).map(|i| (i % 256) as u8).collect();
        let file = fs.create_file(&map, "/big", &fak, &content).unwrap();
        assert!(!file.indirect_locations.is_empty());
        let reopened = fs.open_file(&fak, "/big").unwrap();
        assert_eq!(fs.read_file(&reopened).unwrap(), content);
    }
}
