//! Hidden file headers.
//!
//! A hidden file is "a set of data blocks that are organized in a tree
//! structure, with the file header as the root node" (Section 4.1.2). The
//! header records the file size and the ordered list of physical blocks that
//! hold the content; large files spill pointers into indirect pointer blocks,
//! giving the two-level tree of Figure 5.
//!
//! The header block is encrypted under the FAK's *header* key; content blocks
//! under the *content* key. A dummy file has a real header (so it can be
//! plausibly disclosed) but its "content" blocks contain only random bytes.

use crate::error::FsError;
use crate::wire::{Reader, Writer};

/// Magic prefix of a decrypted header block.
pub const HEADER_MAGIC: [u8; 8] = *b"SGHDR001";

/// Fixed-size portion of the encoded header, before the pointer arrays.
const PREFIX_LEN: usize = 8 + 1 + 1 + 2 + 8 + 8 + 16 + 4 + 4;

/// Whether a file carries real content or is a decoy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileKind {
    /// A real hidden file.
    Data,
    /// A dummy file: structurally identical, content blocks are random bytes.
    Dummy,
}

impl FileKind {
    fn to_byte(self) -> u8 {
        match self {
            FileKind::Data => 0,
            FileKind::Dummy => 1,
        }
    }

    fn from_byte(b: u8) -> Result<Self, FsError> {
        match b {
            0 => Ok(FileKind::Data),
            1 => Ok(FileKind::Dummy),
            other => Err(FsError::Corrupt(format!("unknown file kind {other}"))),
        }
    }
}

/// Pointer capacities implied by a given data-field length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeaderCaps {
    /// Number of direct content pointers stored in the header block.
    pub direct: usize,
    /// Number of indirect pointer-block pointers stored in the header block.
    pub indirect: usize,
    /// Number of content pointers per indirect block.
    pub ptrs_per_indirect: usize,
}

impl HeaderCaps {
    /// Compute capacities for a data field of `data_field_len` bytes.
    ///
    /// Roughly three quarters of the pointer area is used for direct
    /// pointers and one quarter for indirect pointers.
    pub fn for_data_field(data_field_len: usize) -> Self {
        assert!(
            data_field_len > PREFIX_LEN + 16,
            "data field too small for a header"
        );
        let ptr_area = data_field_len - PREFIX_LEN;
        let total_ptrs = ptr_area / 8;
        let direct = (total_ptrs * 3) / 4;
        let indirect = total_ptrs - direct;
        Self {
            direct,
            indirect,
            ptrs_per_indirect: data_field_len / 8,
        }
    }

    /// Maximum number of content blocks a file can have.
    pub fn max_content_blocks(&self) -> u64 {
        self.direct as u64 + self.indirect as u64 * self.ptrs_per_indirect as u64
    }

    /// Number of indirect blocks needed to store `content_blocks` pointers.
    pub fn indirect_blocks_needed(&self, content_blocks: u64) -> u64 {
        if content_blocks <= self.direct as u64 {
            0
        } else {
            let spill = content_blocks - self.direct as u64;
            spill.div_ceil(self.ptrs_per_indirect as u64)
        }
    }
}

/// In-memory representation of a hidden file's header: metadata plus the
/// ordered physical locations of every content block.
///
/// The header is the structure the agent keeps "in the cache" while a file is
/// open; block relocations (Figure 6) only touch this in-memory copy until the
/// file is saved, which is why relocation adds no extra disk I/O
/// (Section 4.1.5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileHeader {
    /// Whether the file is real or a dummy.
    pub kind: FileKind,
    /// Logical file size in bytes.
    pub file_size: u64,
    /// Tag binding the header to its path (HMAC of the path under the header
    /// key, truncated); lets the agent distinguish "wrong file at a colliding
    /// location" from "right file".
    pub path_tag: [u8; 16],
    /// Physical locations of the content blocks, in file order.
    pub blocks: Vec<u64>,
    /// Number of content blocks the on-disk header declares; equals
    /// `blocks.len()` once all indirect payloads have been absorbed.
    expected_total: u64,
}

impl FileHeader {
    /// Create a header for a new file.
    pub fn new(kind: FileKind, file_size: u64, path_tag: [u8; 16], blocks: Vec<u64>) -> Self {
        let expected_total = blocks.len() as u64;
        Self {
            kind,
            file_size,
            path_tag,
            blocks,
            expected_total,
        }
    }

    /// Number of content blocks.
    pub fn num_blocks(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// Encode the header into a header-block payload plus the payloads of the
    /// indirect blocks. `indirect_locs` must contain exactly
    /// `caps.indirect_blocks_needed(self.blocks.len())` physical locations,
    /// already allocated by the caller.
    pub fn encode(
        &self,
        caps: &HeaderCaps,
        data_field_len: usize,
        indirect_locs: &[u64],
    ) -> Result<(Vec<u8>, Vec<Vec<u8>>), FsError> {
        let needed = caps.indirect_blocks_needed(self.blocks.len() as u64);
        if self.blocks.len() as u64 > caps.max_content_blocks() {
            return Err(FsError::FileTooLarge {
                size: self.file_size,
                max: caps.max_content_blocks() * data_field_len as u64,
            });
        }
        if indirect_locs.len() as u64 != needed {
            return Err(FsError::Corrupt(format!(
                "expected {needed} indirect blocks, got {}",
                indirect_locs.len()
            )));
        }

        let direct_count = self.blocks.len().min(caps.direct);
        let mut w = Writer::with_capacity(data_field_len);
        w.bytes(&HEADER_MAGIC)
            .u8(self.kind.to_byte())
            .u8(1) // version
            .u16(0) // reserved
            .u64(self.file_size)
            .u64(self.blocks.len() as u64)
            .bytes(&self.path_tag)
            .u32(direct_count as u32)
            .u32(indirect_locs.len() as u32);
        for &b in &self.blocks[..direct_count] {
            w.u64(b);
        }
        // The unused direct slots stay zero.
        w.skip_to(PREFIX_LEN + caps.direct * 8);
        for &loc in indirect_locs {
            w.u64(loc);
        }
        let out = w.skip_to(data_field_len).finish();

        let indirect_payloads: Vec<Vec<u8>> = self.blocks[direct_count..]
            .chunks(caps.ptrs_per_indirect)
            .map(|chunk| {
                let mut w = Writer::with_capacity(data_field_len);
                for &b in chunk {
                    w.u64(b);
                }
                w.skip_to(data_field_len).finish()
            })
            .collect();
        debug_assert_eq!(indirect_payloads.len(), indirect_locs.len());

        Ok((out, indirect_payloads))
    }

    /// Decode the header-block payload. Returns the partially decoded header
    /// (direct pointers only) and the locations of the indirect blocks the
    /// caller must read and pass to [`FileHeader::absorb_indirect`].
    pub fn decode_prefix(
        payload: &[u8],
        caps: &HeaderCaps,
    ) -> Result<(FileHeader, Vec<u64>), FsError> {
        let mut r = Reader::new(payload);
        if r.magic(&HEADER_MAGIC).is_err() {
            return Err(FsError::NoSuchFile);
        }
        let kind = FileKind::from_byte(r.u8()?)?;
        r.skip_to(12)?; // version and reserved bytes
        let file_size = r.u64()?;
        let total_blocks = r.u64()?;
        let path_tag = r.array()?;
        let direct_count = r.u32()? as usize;
        let indirect_count = r.u32()? as usize;

        if direct_count > caps.direct || indirect_count > caps.indirect {
            return Err(FsError::Corrupt(format!(
                "pointer counts ({direct_count} direct, {indirect_count} indirect) exceed capacity"
            )));
        }
        if total_blocks > caps.max_content_blocks() {
            return Err(FsError::Corrupt(format!(
                "block count {total_blocks} exceeds capacity"
            )));
        }

        // Bounded by the capacity check above, not by the wire.
        let mut blocks = Vec::with_capacity(total_blocks as usize);
        blocks.extend(r.u64s(direct_count)?);
        r.skip_to(PREFIX_LEN + caps.direct * 8)?;
        let indirect_locs = r.u64s(indirect_count)?;

        let header = FileHeader {
            kind,
            file_size,
            path_tag,
            blocks,
            expected_total: total_blocks,
        };
        Ok((header, indirect_locs))
    }

    /// Absorb the pointers stored in one indirect block payload.
    pub fn absorb_indirect(&mut self, payload: &[u8], caps: &HeaderCaps) {
        let mut r = Reader::new(payload);
        for _ in 0..caps.ptrs_per_indirect {
            if self.is_complete() {
                break;
            }
            // A short payload leaves the header incomplete, which the caller
            // reports.
            let Ok(ptr) = r.u64() else { break };
            self.blocks.push(ptr);
        }
    }

    /// True once every declared pointer has been loaded.
    pub fn is_complete(&self) -> bool {
        self.blocks.len() as u64 == self.expected_total
    }
}

impl FileHeader {
    /// Compute the path tag for a given path under a header key.
    pub fn path_tag_for(header_key: &stegfs_crypto::Key256, path: &str) -> [u8; 16] {
        let mac = stegfs_crypto::HmacSha256::mac(header_key.as_bytes(), path.as_bytes());
        let mut tag = [0u8; 16];
        tag.copy_from_slice(&mac[..16]);
        tag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn caps() -> HeaderCaps {
        HeaderCaps::for_data_field(4080)
    }

    #[test]
    fn caps_are_sane_for_default_block_size() {
        let c = caps();
        assert!(c.direct > 300);
        assert!(c.indirect > 90);
        assert_eq!(c.ptrs_per_indirect, 510);
        assert!(c.max_content_blocks() > 40_000);
    }

    #[test]
    fn indirect_blocks_needed() {
        let c = caps();
        assert_eq!(c.indirect_blocks_needed(0), 0);
        assert_eq!(c.indirect_blocks_needed(c.direct as u64), 0);
        assert_eq!(c.indirect_blocks_needed(c.direct as u64 + 1), 1);
        assert_eq!(
            c.indirect_blocks_needed(c.direct as u64 + c.ptrs_per_indirect as u64),
            1
        );
        assert_eq!(
            c.indirect_blocks_needed(c.direct as u64 + c.ptrs_per_indirect as u64 + 1),
            2
        );
    }

    #[test]
    fn small_file_roundtrip() {
        let c = caps();
        let header = FileHeader::new(FileKind::Data, 5000, [3u8; 16], vec![10, 20, 30]);
        let (payload, indirect) = header.encode(&c, 4080, &[]).unwrap();
        assert!(indirect.is_empty());
        let (mut decoded, indirect_locs) = FileHeader::decode_prefix(&payload, &c).unwrap();
        assert!(indirect_locs.is_empty());
        assert!(decoded.is_complete());
        assert_eq!(decoded.kind, FileKind::Data);
        assert_eq!(decoded.file_size, 5000);
        assert_eq!(decoded.path_tag, [3u8; 16]);
        assert_eq!(decoded.blocks, vec![10, 20, 30]);
        decoded.blocks.shrink_to_fit();
    }

    #[test]
    fn large_file_roundtrip_with_indirect_blocks() {
        let c = caps();
        let n = c.direct as u64 + c.ptrs_per_indirect as u64 + 7;
        let blocks: Vec<u64> = (100..100 + n).collect();
        let header = FileHeader::new(FileKind::Data, n * 4080, [9u8; 16], blocks.clone());
        let indirect_locs = vec![55, 66];
        let (payload, indirect_payloads) = header.encode(&c, 4080, &indirect_locs).unwrap();
        assert_eq!(indirect_payloads.len(), 2);

        let (mut decoded, locs) = FileHeader::decode_prefix(&payload, &c).unwrap();
        assert_eq!(locs, indirect_locs);
        assert!(!decoded.is_complete());
        for p in &indirect_payloads {
            decoded.absorb_indirect(p, &c);
        }
        assert!(decoded.is_complete());
        assert_eq!(decoded.blocks, blocks);
    }

    #[test]
    fn dummy_kind_roundtrips() {
        let c = caps();
        let header = FileHeader::new(FileKind::Dummy, 0, [0u8; 16], vec![1, 2]);
        let (payload, _) = header.encode(&c, 4080, &[]).unwrap();
        let (decoded, _) = FileHeader::decode_prefix(&payload, &c).unwrap();
        assert_eq!(decoded.kind, FileKind::Dummy);
    }

    #[test]
    fn garbage_payload_is_no_such_file() {
        let c = caps();
        let garbage = vec![0xa5u8; 4080];
        assert_eq!(
            FileHeader::decode_prefix(&garbage, &c).unwrap_err(),
            FsError::NoSuchFile
        );
    }

    #[test]
    fn mismatched_indirect_locs_rejected() {
        let c = caps();
        let header = FileHeader::new(FileKind::Data, 10, [0u8; 16], vec![1]);
        assert!(header.encode(&c, 4080, &[99]).is_err());
    }

    #[test]
    fn oversized_file_rejected() {
        let c = caps();
        let too_many = vec![0u64; c.max_content_blocks() as usize + 1];
        let header = FileHeader::new(FileKind::Data, 1, [0u8; 16], too_many);
        let locs = vec![0u64; c.indirect];
        assert!(matches!(
            header.encode(&c, 4080, &locs),
            Err(FsError::FileTooLarge { .. })
        ));
    }

    #[test]
    fn path_tag_is_key_and_path_sensitive() {
        let k1 = stegfs_crypto::Key256::from_passphrase("k1");
        let k2 = stegfs_crypto::Key256::from_passphrase("k2");
        assert_eq!(
            FileHeader::path_tag_for(&k1, "/a"),
            FileHeader::path_tag_for(&k1, "/a")
        );
        assert_ne!(
            FileHeader::path_tag_for(&k1, "/a"),
            FileHeader::path_tag_for(&k1, "/b")
        );
        assert_ne!(
            FileHeader::path_tag_for(&k1, "/a"),
            FileHeader::path_tag_for(&k2, "/a")
        );
    }

    #[test]
    fn small_data_field_caps_work() {
        let c = HeaderCaps::for_data_field(496);
        assert!(c.direct >= 10);
        assert!(c.indirect >= 1);
        let blocks: Vec<u64> = (0..(c.direct as u64 + 3)).collect();
        let header = FileHeader::new(FileKind::Data, 100, [1u8; 16], blocks.clone());
        let (payload, ind) = header.encode(&c, 496, &[77]).unwrap();
        let (mut decoded, locs) = FileHeader::decode_prefix(&payload, &c).unwrap();
        assert_eq!(locs, vec![77]);
        decoded.absorb_indirect(&ind[0], &c);
        assert_eq!(decoded.blocks, blocks);
    }

    /// Bytes produced by the encoder as it stood before the port onto
    /// `wire`: the format must not move.
    #[test]
    fn golden_vector_is_bit_identical() {
        const GOLDEN_HEADER: &[u8] = b"\
            \x53\x47\x48\x44\x52\x30\x30\x31\x01\x01\x00\x00\x06\x05\x04\x03\x02\x01\x00\x00\
            \x11\x00\x00\x00\x00\x00\x00\x00\x10\x11\x12\x13\x14\x15\x16\x17\x18\x19\x1a\x1b\
            \x1c\x1d\x1e\x1f\x03\x00\x00\x00\x02\x00\x00\x00\xa4\x01\x01\x01\x01\x01\x01\x01\
            \xa7\x02\x02\x02\x02\x02\x02\x02\xa6\x03\x03\x03\x03\x03\x03\x03\x11\x11\x00\x00\
            \x00\x00\x00\x00\x33\x33\x22\x22\x00\x00\x00\x00\x00\x00\x00\x00";
        const GOLDEN_INDIRECT_0: &[u8] = b"\
            \xa1\x04\x04\x04\x04\x04\x04\x04\xa0\x05\x05\x05\x05\x05\x05\x05\xa3\x06\x06\x06\
            \x06\x06\x06\x06\xa2\x07\x07\x07\x07\x07\x07\x07\xad\x08\x08\x08\x08\x08\x08\x08\
            \xac\x09\x09\x09\x09\x09\x09\x09\xaf\x0a\x0a\x0a\x0a\x0a\x0a\x0a\xae\x0b\x0b\x0b\
            \x0b\x0b\x0b\x0b\xa9\x0c\x0c\x0c\x0c\x0c\x0c\x0c\xa8\x0d\x0d\x0d\x0d\x0d\x0d\x0d\
            \xab\x0e\x0e\x0e\x0e\x0e\x0e\x0e\xaa\x0f\x0f\x0f\x0f\x0f\x0f\x0f";
        const GOLDEN_INDIRECT_1: &[u8] = b"\
            \xb5\x10\x10\x10\x10\x10\x10\x10\xb4\x11\x11\x11\x11\x11\x11\x11\x00\x00\x00\x00\
            \x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\
            \x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\
            \x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\
            \x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00";
        let caps = HeaderCaps::for_data_field(96);
        assert_eq!(
            (caps.direct, caps.indirect, caps.ptrs_per_indirect),
            (3, 2, 12)
        );
        let blocks: Vec<u64> = (1..=17u64)
            .map(|i| 0x0101_0101_0101_0101u64.wrapping_mul(i) ^ 0xa5)
            .collect();
        let tag: [u8; 16] = core::array::from_fn(|i| 0x10 + i as u8);
        let header = FileHeader::new(FileKind::Dummy, 0x0102_0304_0506, tag, blocks);
        let indirect_locs = [0x1111, 0x2222_3333];

        let (payload, indirect) = header.encode(&caps, 96, &indirect_locs).unwrap();
        assert_eq!(payload, GOLDEN_HEADER);
        assert_eq!(indirect, [GOLDEN_INDIRECT_0, GOLDEN_INDIRECT_1]);

        let (mut decoded, locs) = FileHeader::decode_prefix(GOLDEN_HEADER, &caps).unwrap();
        assert_eq!(locs, indirect_locs);
        decoded.absorb_indirect(GOLDEN_INDIRECT_0, &caps);
        decoded.absorb_indirect(GOLDEN_INDIRECT_1, &caps);
        assert_eq!(decoded, header);
    }

    #[test]
    fn short_payloads_are_typed_errors() {
        let c = HeaderCaps::for_data_field(496);
        let blocks: Vec<u64> = (0..c.direct as u64 + 3).collect();
        let header = FileHeader::new(FileKind::Data, 100, [1u8; 16], blocks);
        let (payload, ind) = header.encode(&c, 496, &[77]).unwrap();
        // A header cut inside its pointer area (the parent indexed past the
        // end) and an indirect block cut short.
        for cut in [
            PREFIX_LEN - 1,
            PREFIX_LEN,
            PREFIX_LEN + 12,
            PREFIX_LEN + c.direct * 8 + 4,
        ] {
            assert!(matches!(
                FileHeader::decode_prefix(&payload[..cut], &c),
                Err(FsError::Corrupt(_))
            ));
        }
        let (mut decoded, _) = FileHeader::decode_prefix(&payload, &c).unwrap();
        decoded.absorb_indirect(&ind[0][..12], &c);
        assert!(!decoded.is_complete());
    }
}
