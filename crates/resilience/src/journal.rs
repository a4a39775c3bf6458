//! The deniable write-ahead intent journal.
//!
//! Every multi-block mutation of a resilient volume (file create, delta
//! update, stripe repair) writes a sealed *intent record* into one of a small
//! pool of journal slot blocks **before** touching any data block. The slots
//! are ordinary payload blocks claimed through the same uniform path as
//! hidden data (one compare-exchange in the block map,
//! [`stegfs_base::ShardedBlockMap::claim`]) and sealed with the volume's
//! block codec, so on disk a journal slot is `IV ‖ CBC bytes` —
//! byte-indistinguishable from free space, parity, or hidden content. Their
//! locations travel in the anchor payload, so only the master key ever finds
//! them.
//!
//! The block cipher layer has no MAC (a design requirement: *every* block
//! must decrypt to something), so a record authenticates itself from the
//! inside: magic, then fields, then a truncated keyed HMAC over everything
//! before it, all inside the sealed plaintext. A slot holding random fill, a
//! torn record, or a record sealed under the wrong volume key simply fails
//! validation and means "no intent" — which is exactly the pre-operation
//! state, so a torn journal write degrades to "the operation never started".
//!
//! Commit discipline per kind:
//!
//! * **Create** — commit point is the anchor generation bump that publishes
//!   the path in the FAK table. At recovery, an intent whose path is in the
//!   table is complete; otherwise the file is undone by key derivation.
//! * **WriteBatch** — one record covers a whole multi-block delta update: an
//!   *ordered* list of per-block entries, each carrying pre- and post-image
//!   integrity checks for its data block and every parity row of its stripe.
//!   The entries are written in record order, parity rows updated after each
//!   data block, so at any power cut at most one entry is in flight and the
//!   parity chain state is always one of the recorded pre/post values. There
//!   is no commit record: recovery walks the entries front to back, rolls
//!   completed entries' stripe-map checks forward, resolves the single
//!   in-flight entry by its plaintext digests (forward if any new image
//!   landed, backward otherwise, via single-unknown parity solves), and
//!   stops — entries past the frontier never started. Batching amortises the
//!   one journal write over every block of the operation. The record's tail
//!   ([`SHADOW_ENTRY_BASE`]-offset, parity-less entries) covers the shadow
//!   stripe-map rewrite that closes each chunk: recovery re-derives the map
//!   from the resolved frontier and rewrites the shadow unless its on-disk
//!   blocks already verify against it.
//! * **Repair** — repair is idempotent, so the record is a pure redo marker:
//!   recovery re-verifies and re-repairs the whole file.
//!
//! The store serves one call at a time and no call holds two intents, so
//! every record is sealed into logical slot 0, over the record of the
//! operation before it; the other slots keep their fill until recovery
//! randomizes them. A finished operation's record is left behind (clearing
//! it would cost a write per operation and a distinguishable "always
//! rewritten twice" pattern). Staleness is resolved by op-id: among valid
//! records for the same path every record except the highest op-id is
//! necessarily complete. [`ResilientStore::open`] scans every slot (a
//! volume written by a build that spread intents over the pool may hold
//! one in each), recovers the highest record per path, then randomizes
//! every slot.
//!
//! **Slot replication.** A slot block is itself a single point of loss: a
//! zeroed or bit-rotted slot silently orphans an in-flight intent, and
//! recovery would see "no intent" where a cut mid-operation needs one.
//! Consecutive slot blocks therefore form *pairs* holding one logical slot:
//! `begin` seals the same record into both blocks of the pair (two
//! independent seals, so the two ciphertexts share no bytes and the mirror is
//! not a visible twin), and the scan accepts whichever copy authenticates —
//! preferring the higher op-id when a torn rewrite leaves the two copies
//! holding different (both certainly-valid) records. Losing either block of
//! a pair costs nothing; only losing both degrades to the pre-PR state.
//!
//! [`ResilientStore::open`]: crate::ResilientStore::open

use std::sync::atomic::{AtomicU64, Ordering};

use stegfs_base::wire::{Reader, WireError, Writer, TAG_LEN};
use stegfs_base::StegFs;
use stegfs_blockdev::{BlockDevice, BlockId};
use stegfs_crypto::{HmacSha256, Key256};

use crate::error::ResilienceError;
use crate::stripe::BlockCheck;

const MAGIC: [u8; 8] = *b"SJINT\x01\0\0";
/// Encoded bytes of one parity row: location ‖ pre ‖ post.
const PARITY_LEN: usize = 8 + 2 * BlockCheck::ENCODED_LEN;
/// Encoded bytes of a parity-less entry: index ‖ location ‖ pre ‖ post ‖
/// parity row count.
const ENTRY_LEN: usize = 8 + 8 + 2 * BlockCheck::ENCODED_LEN + 1;
const KIND_CREATE: u8 = 1;
const KIND_WRITE_BATCH: u8 = 2;
const KIND_REPAIR: u8 = 3;
// Kind 4 belonged to a retired record; it decodes as no intent and is not
// reused.

/// Pre/post integrity checks and the location of one parity row touched by a
/// journaled delta update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParityIntent {
    /// Physical block holding the sealed parity shard (unchanged by the op).
    pub location: BlockId,
    /// Checks of the parity plaintext before the update.
    pub pre: BlockCheck,
    /// Checks of the parity plaintext after the update.
    pub post: BlockCheck,
}

/// Entry indices at or above this value address the file's *shadow* stripe
/// map rather than its content: `SHADOW_ENTRY_BASE + i` is shadow content
/// block `i`. Shadow entries carry no parity rows and always form the tail
/// of a `WriteBatch` record, mirroring the write order of the operation
/// (data and parity first, the single shadow rewrite last).
pub const SHADOW_ENTRY_BASE: u64 = 1 << 63;

/// One block of a journaled delta update: pre/post checks for the content
/// block and every parity row of its stripe. For entries sharing a stripe,
/// the parity pre/post values are *chain* states — each entry's pre is the
/// previous same-stripe entry's post — matching the in-order parity rewrites
/// the operation performs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockWriteIntent {
    /// File-wide index of the content block.
    pub index: u64,
    /// Physical location of the content block (unchanged by the op).
    pub data_location: BlockId,
    /// Checks of the data plaintext before the update.
    pub data_pre: BlockCheck,
    /// Checks of the data plaintext after the update.
    pub data_post: BlockCheck,
    /// One entry per parity row of the affected stripe.
    pub parity: Vec<ParityIntent>,
}

/// What a journaled operation intends to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntentBody {
    /// Create the file at the record's path (undone if the path never
    /// reaches the committed FAK table).
    Create,
    /// Delta-update the listed content blocks and their parity rows in
    /// place, in record order. A single-block update is a one-entry batch.
    WriteBatch {
        /// The per-block updates, in the order they will be written.
        entries: Vec<BlockWriteIntent>,
    },
    /// Re-verify and re-repair the whole file (idempotent redo marker).
    Repair,
}

/// One sealed journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntentRecord {
    /// Monotone operation id; the highest valid record per path is the only
    /// one that can be incomplete.
    pub op_id: u64,
    /// Path of the affected file.
    pub path: String,
    /// The intended operation.
    pub body: IntentBody,
}

impl IntentRecord {
    /// Serialise and authenticate: `MAGIC ‖ op_id ‖ kind ‖ path ‖ body ‖
    /// HMAC₁₆(everything before)`.
    #[doc(hidden)]
    pub fn encode(&self, mac: &HmacSha256) -> Vec<u8> {
        let kind = match &self.body {
            IntentBody::Create => KIND_CREATE,
            IntentBody::WriteBatch { .. } => KIND_WRITE_BATCH,
            IntentBody::Repair => KIND_REPAIR,
        };
        let mut w = Writer::with_capacity(128);
        w.bytes(&MAGIC).u64(self.op_id).u8(kind).str16(&self.path);
        match &self.body {
            IntentBody::WriteBatch { entries } => {
                w.u16(entries.len() as u16);
                for e in entries {
                    w.u64(e.index).u64(e.data_location);
                    e.data_pre.write(&mut w);
                    e.data_post.write(&mut w);
                    w.u8(e.parity.len() as u8);
                    for p in &e.parity {
                        w.u64(p.location);
                        p.pre.write(&mut w);
                        p.post.write(&mut w);
                    }
                }
            }
            IntentBody::Create | IntentBody::Repair => {}
        }
        w.finish_tagged(mac)
    }

    /// Parse and authenticate a candidate plaintext. `None` means "no valid
    /// intent here" — random fill, a torn record, or a forged one.
    #[doc(hidden)]
    pub fn decode(plain: &[u8], mac: &HmacSha256) -> Option<Self> {
        Self::parse(plain, mac).ok()
    }

    fn parse(plain: &[u8], mac: &HmacSha256) -> Result<Self, WireError> {
        let mut r = Reader::new(plain);
        r.magic(&MAGIC)?;
        let op_id = r.u64()?;
        let kind = r.u8()?;
        let path = r.str16()?.to_string();
        let body = match kind {
            KIND_CREATE => IntentBody::Create,
            KIND_REPAIR => IntentBody::Repair,
            KIND_WRITE_BATCH => {
                let count = r.u16()?;
                let mut entries = Vec::with_capacity(r.count(count, ENTRY_LEN)?);
                for _ in 0..count {
                    let index = r.u64()?;
                    let data_location = r.u64()?;
                    let data_pre = BlockCheck::read(&mut r)?;
                    let data_post = BlockCheck::read(&mut r)?;
                    let rows = r.u8()?;
                    let mut parity = Vec::with_capacity(r.count(rows, PARITY_LEN)?);
                    for _ in 0..rows {
                        parity.push(ParityIntent {
                            location: r.u64()?,
                            pre: BlockCheck::read(&mut r)?,
                            post: BlockCheck::read(&mut r)?,
                        });
                    }
                    entries.push(BlockWriteIntent {
                        index,
                        data_location,
                        data_pre,
                        data_post,
                        parity,
                    });
                }
                IntentBody::WriteBatch { entries }
            }
            _ => {
                return Err(WireError {
                    what: "intent kind",
                    at: r.pos() - 1,
                })
            }
        };
        r.tag16(mac)?;
        Ok(Self { op_id, path, body })
    }
}

/// The slots and keys of a volume's intent journal. The slot list is never
/// empty: `ResilientStore::format` and `open` refuse a volume without slots,
/// so [`IntentJournal::begin`] always has slot 0 to seal into.
///
/// Consecutive blocks of the slot list form replicated pairs: blocks `2i`
/// and `2i + 1` both hold logical slot `i`'s record. An odd trailing block
/// (a legacy single-copy pool) is a logical slot with no mirror.
pub struct IntentJournal {
    slots: Vec<BlockId>,
    op_counter: AtomicU64,
    seal_key: Key256,
    mac: HmacSha256,
}

impl IntentJournal {
    /// Build the journal over `slots` (previously claimed payload blocks),
    /// deriving its keys from the volume master key. Blocks pair up into
    /// replicated logical slots: `slots[2i]` and `slots[2i + 1]` mirror each
    /// other.
    pub fn new(master: &Key256, slots: Vec<BlockId>) -> Self {
        assert!(!slots.is_empty(), "an intent journal needs a slot");
        let mac_key = master.derive("resilience:journal-mac");
        Self {
            op_counter: AtomicU64::new(1),
            seal_key: master.derive("resilience:journal"),
            mac: HmacSha256::new(mac_key.as_bytes()),
            slots,
        }
    }

    /// The slot block locations, in pool order (both copies of every pair).
    pub fn slots(&self) -> &[BlockId] {
        &self.slots
    }

    /// Number of logical (replicated) slots [`IntentJournal::scan`] reads.
    /// [`IntentJournal::begin`] writes slot 0 only; the others hold a
    /// record only on a volume written by a build that spread intents over
    /// the pool.
    pub fn logical_slots(&self) -> usize {
        self.slots.len().div_ceil(2)
    }

    /// The block pair of logical slot `i`: primary plus mirror (if any).
    fn pair(&self, i: usize) -> (BlockId, Option<BlockId>) {
        (self.slots[2 * i], self.slots.get(2 * i + 1).copied())
    }

    /// How many [`BlockWriteIntent`] entries (each with `parity_rows` parity
    /// rows) fit in one sealed record for a file at `path`. Delta updates
    /// chunk larger batches to this size so a record never overflows its
    /// slot. Computed from the record wire format.
    pub fn batch_capacity<D: BlockDevice>(
        &self,
        fs: &StegFs<D>,
        path: &str,
        parity_rows: usize,
    ) -> usize {
        self.batch_capacity_reserving(fs, path, parity_rows, 0)
    }

    /// Like [`IntentJournal::batch_capacity`], but reserving room for
    /// `tail_entries` additional parity-less entries (the shadow stripe-map
    /// rewrite recorded at the end of each chunk's record).
    pub fn batch_capacity_reserving<D: BlockDevice>(
        &self,
        fs: &StegFs<D>,
        path: &str,
        parity_rows: usize,
        tail_entries: usize,
    ) -> usize {
        // magic ‖ op id ‖ kind ‖ path ‖ entry count ‖ tag
        let fixed = MAGIC.len() + 8 + 1 + 2 + path.len() + 2 + TAG_LEN;
        fs.codec()
            .data_field_len()
            .saturating_sub(fixed + tail_entries * ENTRY_LEN)
            / (ENTRY_LEN + parity_rows * PARITY_LEN)
    }

    /// Journal an intent: seal the record into logical slot 0 *before* the
    /// operation's first data write. The record stays behind as a stale
    /// (certainly-complete) entry once the operation finishes, until the
    /// next operation's record replaces it.
    pub fn begin<D: BlockDevice>(
        &self,
        fs: &StegFs<D>,
        path: &str,
        body: IntentBody,
    ) -> Result<(), ResilienceError> {
        let record = IntentRecord {
            op_id: self.op_counter.fetch_add(1, Ordering::Relaxed),
            path: path.to_string(),
            body,
        };
        let plain = record.encode(&self.mac);
        let capacity = fs.codec().data_field_len();
        if plain.len() > capacity {
            return Err(ResilienceError::JournalOverflow {
                needed: plain.len(),
                capacity,
            });
        }
        let (primary, mirror) = self.pair(0);
        // Two independent seals (fresh IV each): the mirror shares no
        // ciphertext bytes with the primary, so the pair never reads as a
        // visible twin on disk. Sealed and written primary first.
        let pair: Vec<(BlockId, &[u8])> = std::iter::once(primary)
            .chain(mirror)
            .map(|block| (block, plain.as_slice()))
            .collect();
        fs.with_rng(|rng| {
            fs.codec()
                .write_sealed_many(fs.device(), &self.seal_key, &pair, rng)
        })?;
        Ok(())
    }

    /// Read every logical slot and return the valid records found, in slot
    /// order — one record per pair, taken from whichever copy authenticates
    /// (the higher op-id wins if a torn rewrite left the copies holding two
    /// different, individually valid records). Also advances the op counter
    /// past the highest id seen, so recovery-time operations never reuse a
    /// live id.
    pub fn scan<D: BlockDevice>(
        &self,
        fs: &StegFs<D>,
    ) -> Result<Vec<IntentRecord>, ResilienceError> {
        let mut out = Vec::new();
        for i in 0..self.logical_slots() {
            let (primary, mirror) = self.pair(i);
            let decode = |block: BlockId| -> Result<Option<IntentRecord>, ResilienceError> {
                let plain = fs.codec().read_sealed(fs.device(), block, &self.seal_key)?;
                Ok(IntentRecord::decode(&plain, &self.mac))
            };
            let a = decode(primary)?;
            let b = match mirror {
                Some(m) => decode(m)?,
                None => None,
            };
            let record = match (a, b) {
                (Some(a), Some(b)) => Some(if a.op_id >= b.op_id { a } else { b }),
                (a, b) => a.or(b),
            };
            if let Some(record) = record {
                self.op_counter
                    .fetch_max(record.op_id + 1, Ordering::Relaxed);
                out.push(record);
            }
        }
        Ok(out)
    }

    /// Randomize every slot — the post-recovery "journal is empty" state,
    /// indistinguishable from the slots never having been written.
    pub fn clear_all<D: BlockDevice>(&self, fs: &StegFs<D>) -> Result<(), ResilienceError> {
        let mut scratch = vec![0u8; fs.codec().block_size()];
        for &slot in &self.slots {
            fs.randomize_block(slot, &mut scratch)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac() -> HmacSha256 {
        HmacSha256::new(Key256::from_passphrase("journal test").as_bytes())
    }

    fn sample_entry(salt: u8) -> BlockWriteIntent {
        BlockWriteIntent {
            index: 7 + salt as u64,
            data_location: 311 + salt as u64,
            data_pre: BlockCheck {
                fast: 1,
                mac: [0x11 ^ salt; 16],
            },
            data_post: BlockCheck {
                fast: 2,
                mac: [0x22 ^ salt; 16],
            },
            parity: vec![
                ParityIntent {
                    location: 95,
                    pre: BlockCheck {
                        fast: 3,
                        mac: [0x33 ^ salt; 16],
                    },
                    post: BlockCheck {
                        fast: 4,
                        mac: [0x44 ^ salt; 16],
                    },
                },
                ParityIntent {
                    location: 401,
                    pre: BlockCheck {
                        fast: 5,
                        mac: [0x55 ^ salt; 16],
                    },
                    post: BlockCheck {
                        fast: 6,
                        mac: [0x66 ^ salt; 16],
                    },
                },
            ],
        }
    }

    fn sample_write_record() -> IntentRecord {
        IntentRecord {
            op_id: 42,
            path: "/db/main".to_string(),
            body: IntentBody::WriteBatch {
                entries: vec![sample_entry(0), sample_entry(1)],
            },
        }
    }

    #[test]
    fn record_roundtrip_all_kinds() {
        let mac = mac();
        for record in [
            IntentRecord {
                op_id: 1,
                path: "/a".into(),
                body: IntentBody::Create,
            },
            IntentRecord {
                op_id: 2,
                path: "/b".into(),
                body: IntentBody::Repair,
            },
            sample_write_record(),
        ] {
            let plain = record.encode(&mac);
            assert_eq!(IntentRecord::decode(&plain, &mac), Some(record));
        }
    }

    #[test]
    fn records_fit_one_small_block() {
        // A single-entry batch of an (8, 4) stripe shape with a long path
        // must still fit the 496-byte data field of a 512-byte block.
        let mut record = sample_write_record();
        record.path = "/quite/long/path/to/a/database/file.db".to_string();
        if let IntentBody::WriteBatch { entries } = &mut record.body {
            entries.truncate(1);
            for _ in 0..2 {
                let p = entries[0].parity[0].clone();
                entries[0].parity.push(p);
            }
        }
        assert!(record.encode(&mac()).len() <= 512 - 16);
    }

    #[test]
    fn batch_capacity_matches_wire_format() {
        // A record holding exactly `batch_capacity` entries must encode to at
        // most the data field, and one more entry must overflow it. The
        // capacity formula is pure arithmetic, so check it against a real
        // encode for a couple of parity widths.
        for (field, rows) in [(496usize, 2usize), (4064, 2), (4064, 4)] {
            let path = "/db/main";
            let fixed = MAGIC.len() + 8 + 1 + 2 + path.len() + 2 + TAG_LEN;
            let per =
                8 + 8 + 2 * BlockCheck::ENCODED_LEN + 1 + rows * (8 + 2 * BlockCheck::ENCODED_LEN);
            let cap = (field - fixed) / per;
            let entry = || {
                let mut e = sample_entry(0);
                e.parity.resize(
                    rows,
                    ParityIntent {
                        location: 9,
                        pre: e.data_pre,
                        post: e.data_post,
                    },
                );
                e
            };
            let record = |n: usize| IntentRecord {
                op_id: 1,
                path: path.to_string(),
                body: IntentBody::WriteBatch {
                    entries: (0..n).map(|_| entry()).collect(),
                },
            };
            assert!(record(cap).encode(&mac()).len() <= field, "cap fits");
            assert!(record(cap + 1).encode(&mac()).len() > field, "cap is tight");
        }
    }

    #[test]
    fn random_fill_is_not_a_record() {
        let mac = mac();
        let mut drbg = stegfs_crypto::HashDrbg::from_u64(3);
        for _ in 0..64 {
            let junk = drbg.bytes(496);
            assert_eq!(IntentRecord::decode(&junk, &mac), None);
        }
        assert_eq!(IntentRecord::decode(&[], &mac), None);
    }

    #[test]
    fn any_truncation_or_flip_invalidates() {
        let mac = mac();
        let record = sample_write_record();
        let plain = record.encode(&mac);
        for cut in 0..plain.len() {
            assert_eq!(IntentRecord::decode(&plain[..cut], &mac), None, "cut {cut}");
        }
        let mut flipped = plain.clone();
        flipped[20] ^= 1;
        assert_eq!(IntentRecord::decode(&flipped, &mac), None);
        // And a record under a different journal key does not validate.
        let other = HmacSha256::new(Key256::from_passphrase("other").as_bytes());
        assert_eq!(IntentRecord::decode(&plain, &other), None);
    }

    #[test]
    fn padded_tail_is_tolerated() {
        // Sealed plaintexts come back zero-padded to the data field length;
        // the record must still parse (trailing zeros beyond the MAC).
        let mac = mac();
        let record = sample_write_record();
        let mut plain = record.encode(&mac);
        plain.resize(496, 0);
        assert_eq!(IntentRecord::decode(&plain, &mac), Some(record));
    }

    /// Bytes produced by the encoder as it stood before the port onto
    /// `wire`: the format must not move.
    #[test]
    fn golden_vectors_are_bit_identical() {
        const GOLDEN_CREATE: &[u8] = b"\
            \x53\x4a\x49\x4e\x54\x01\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x01\x02\x00\x2f\
            \x61\xbf\xcf\xe5\x26\xb6\xbe\xa2\x2f\x21\xc3\x91\x76\xc7\x9d\x26\xc7";
        const GOLDEN_REPAIR: &[u8] = b"\
            \x53\x4a\x49\x4e\x54\x01\x00\x00\x08\x07\x06\x05\x04\x03\x02\x01\x03\x05\x00\x2f\
            \x62\x2f\xc3\xbc\xf6\x17\xae\x63\x48\x25\xd5\xf2\x6e\x04\xd7\x5e\x47\x72\x54\xa7";
        const GOLDEN_WRITE_BATCH: &[u8] = b"\
            \x53\x4a\x49\x4e\x54\x01\x00\x00\x2a\x00\x00\x00\x00\x00\x00\x00\x02\x08\x00\x2f\
            \x64\x62\x2f\x6d\x61\x69\x6e\x02\x00\x07\x00\x00\x00\x00\x00\x00\x00\x37\x01\x00\
            \x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x11\x11\x11\x11\x11\x11\x11\
            \x11\x11\x11\x11\x11\x11\x11\x11\x11\x02\x00\x00\x00\x00\x00\x00\x00\x22\x22\x22\
            \x22\x22\x22\x22\x22\x22\x22\x22\x22\x22\x22\x22\x22\x02\x5f\x00\x00\x00\x00\x00\
            \x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x33\x33\x33\x33\x33\x33\x33\x33\x33\x33\
            \x33\x33\x33\x33\x33\x33\x04\x00\x00\x00\x00\x00\x00\x00\x44\x44\x44\x44\x44\x44\
            \x44\x44\x44\x44\x44\x44\x44\x44\x44\x44\x91\x01\x00\x00\x00\x00\x00\x00\x05\x00\
            \x00\x00\x00\x00\x00\x00\x55\x55\x55\x55\x55\x55\x55\x55\x55\x55\x55\x55\x55\x55\
            \x55\x55\x06\x00\x00\x00\x00\x00\x00\x00\x66\x66\x66\x66\x66\x66\x66\x66\x66\x66\
            \x66\x66\x66\x66\x66\x66\x01\x00\x00\x00\x00\x00\x00\x80\x4d\x00\x00\x00\x00\x00\
            \x00\x00\x08\x00\x00\x00\x00\x00\x00\x00\x88\x88\x88\x88\x88\x88\x88\x88\x88\x88\
            \x88\x88\x88\x88\x88\x88\x09\x00\x00\x00\x00\x00\x00\x00\x99\x99\x99\x99\x99\x99\
            \x99\x99\x99\x99\x99\x99\x99\x99\x99\x99\x00\x7f\xaa\x2c\x92\x7c\x0a\xe2\x5b\xa0\
            \x79\x97\x23\x3a\xef\x12\x84";
        let mac = HmacSha256::new(Key256::from_passphrase("journal golden").as_bytes());
        let record = |op_id, path: &str, body| IntentRecord {
            op_id,
            path: path.to_string(),
            body,
        };
        let shadow_tail = BlockWriteIntent {
            index: SHADOW_ENTRY_BASE + 1,
            data_location: 77,
            data_pre: BlockCheck {
                fast: 8,
                mac: [0x88; 16],
            },
            data_post: BlockCheck {
                fast: 9,
                mac: [0x99; 16],
            },
            parity: vec![],
        };
        for (record, golden) in [
            (record(1, "/a", IntentBody::Create), GOLDEN_CREATE),
            (
                record(0x0102_0304_0506_0708, "/b/ü", IntentBody::Repair),
                GOLDEN_REPAIR,
            ),
            (
                record(
                    42,
                    "/db/main",
                    IntentBody::WriteBatch {
                        entries: vec![sample_entry(0), shadow_tail],
                    },
                ),
                GOLDEN_WRITE_BATCH,
            ),
        ] {
            assert_eq!(record.encode(&mac), golden);
            assert_eq!(IntentRecord::decode(golden, &mac), Some(record));
        }
    }
}
