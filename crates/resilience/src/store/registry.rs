//! The persistent sharded registry: per-user records kept as one ordinary
//! resilient hidden file at [`REGISTRY_PATH`], one shard per content block.
//! A user's shard is `HMAC(registry key, user) mod n` for a file of `n`
//! blocks: the file's length is the only geometry. A shard is its encoded
//! records in one zero-padded data field, and a zeroed field holds none.
//!
//! A shard loads through the healing read (a damaged one is rebuilt from
//! parity or reported, never served from an older state), and a checkpoint
//! is one batch of the write plan. A shard is one block because that plan is
//! atomic per block: after a power cut each block, so each shard, is old or
//! new. Shards load lazily into a bounded FIFO cache, a dirty one written
//! back as it is evicted, so resident memory is O(active users).

use std::collections::{BTreeMap, VecDeque};

use parking_lot::Mutex;

use stegfs_base::wire::{Reader, Writer};
use stegfs_blockdev::{BlockDevice, BlockId};
use stegfs_crypto::HmacSha256;

use super::ResilientStore;
use crate::error::ResilienceError;

/// Path of the hidden file holding the registry's shards.
pub const REGISTRY_PATH: &str = "/.registry";

/// Shape of a new registry, persisted as its file's length; the resident
/// bound is a runtime setting, `ResilienceConfig::registry_resident_shards`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryConfig {
    /// Number of shards the key space is partitioned into, one block each.
    pub shards: u32,
}

/// Point-in-time registry statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryStats {
    /// Shards in the registry.
    pub shards: u32,
    /// Shards currently resident in memory.
    pub resident_shards: usize,
    /// Records held by the resident shards — the O(active users) bound.
    pub resident_records: usize,
}

/// One resident shard: content block `id` of the registry file.
struct Shard {
    id: u32,
    records: BTreeMap<String, Vec<u8>>,
    /// Whether `records` differ from the shard's block.
    dirty: bool,
}

/// In-memory state of an opened registry.
pub(super) struct RegistryState {
    shards: u32,
    max_resident: usize,
    mac: HmacSha256,
    /// Resident shards in load order; the front is evicted first, which is
    /// deterministic for a deterministic operation sequence.
    resident: Mutex<VecDeque<Shard>>,
}

impl RegistryState {
    /// Shard owning `user`: a keyed hash, opaque without the registry key.
    fn shard_of(&self, user: &str) -> u32 {
        (self.mac.derive_u64_with(user.as_bytes()) % u64::from(self.shards)) as u32
    }
}

/// A shard's records: `count ‖ (user, value length, value)*`.
#[doc(hidden)]
pub fn encode_records(records: &BTreeMap<String, Vec<u8>>) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(records.len() as u32);
    for (user, value) in records {
        w.str16(user).u32(value.len() as u32).bytes(value);
    }
    w.finish()
}

/// Inverse of [`encode_records`]; trailing padding is ignored, so an
/// all-zero field is an empty shard.
#[doc(hidden)]
pub fn decode_records(buf: &[u8]) -> Result<BTreeMap<String, Vec<u8>>, ResilienceError> {
    let mut r = Reader::new(buf);
    let count = r.u32()?;
    let mut out = BTreeMap::new();
    // An empty record: key length ‖ value length.
    for _ in 0..r.count(count, 2 + 4)? {
        let user = r.str16()?.to_string();
        let len = r.u32()? as usize;
        out.insert(user, r.bytes(len)?.to_vec());
    }
    Ok(out)
}

fn not_initialised() -> ResilienceError {
    ResilienceError::Corrupt("registry not initialised".to_string())
}

impl<D: BlockDevice> ResilientStore<D> {
    /// Create the persistent registry on this volume: a hidden file at
    /// [`REGISTRY_PATH`] of `cfg.shards` zeroed blocks, each an empty shard.
    pub fn init_registry(&self, cfg: RegistryConfig) -> Result<(), ResilienceError> {
        if cfg.shards == 0 {
            return Err(ResilienceError::Corrupt("registry of zero shards".into()));
        }
        let per = self.fs.content_bytes_per_block();
        self.create_file(REGISTRY_PATH, &vec![0u8; cfg.shards as usize * per])?;
        self.load_registry()
    }

    /// Start serving the registry if this volume carries one. Called by
    /// [`ResilientStore::open`] after journal recovery, like any file's use.
    pub(super) fn load_registry(&self) -> Result<(), ResilienceError> {
        let Ok(file) = self.file_state(REGISTRY_PATH) else {
            return Ok(());
        };
        let blocks = file.read().open.header.num_blocks();
        let shards = u32::try_from(blocks)
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| ResilienceError::Corrupt(format!("registry of {blocks} blocks")))?;
        let mac_key = self.master.derive("resilience:registry").derive("mac");
        *self.registry.write() = Some(RegistryState {
            shards,
            max_resident: self.registry_resident.max(1),
            mac: HmacSha256::new(mac_key.as_bytes()),
            resident: Mutex::default(),
        });
        Ok(())
    }

    /// Whether this volume carries a persistent registry.
    pub fn has_registry(&self) -> bool {
        self.registry.read().is_some()
    }

    /// The shard a user's records live in, stable across reopens.
    pub fn registry_shard_of(&self, user: &str) -> Option<u32> {
        self.registry.read().as_ref().map(|s| s.shard_of(user))
    }

    /// Every block the registry file occupies (content, parity, header tree
    /// and shadow stripe map), for invisibility and cover-traffic tests.
    pub fn registry_blocks(&self) -> Vec<BlockId> {
        let Ok(file) = self.file_state(REGISTRY_PATH) else {
            return Vec::new();
        };
        let owned = file.read().owned_blocks();
        owned.into_iter().map(|(b, _)| b).collect()
    }

    /// Resident-memory statistics: the O(active users) contract.
    pub fn registry_stats(&self) -> RegistryStats {
        let reg = self.registry.read();
        let Some(state) = reg.as_ref() else {
            return RegistryStats {
                shards: 0,
                resident_shards: 0,
                resident_records: 0,
            };
        };
        let resident = state.resident.lock();
        RegistryStats {
            shards: state.shards,
            resident_shards: resident.len(),
            resident_records: resident.iter().map(|s| s.records.len()).sum(),
        }
    }

    /// Total records as of each shard's last checkpoint, dirty resident ones
    /// not included: one verified read per shard, no resident memory.
    pub fn registry_checkpointed_records(&self) -> Result<u64, ResilienceError> {
        if !self.has_registry() {
            return Ok(0);
        }
        let per = self.fs.content_bytes_per_block();
        let shards = self.read_file(REGISTRY_PATH)?;
        shards
            .chunks(per)
            .map(|field| Ok(u64::from(Reader::new(field).u32()?)))
            .sum()
    }

    /// Insert or replace `user`'s record.
    pub fn registry_put(&self, user: &str, value: &[u8]) -> Result<(), ResilienceError> {
        self.with_shard_of(user, |shard| {
            shard.records.insert(user.to_string(), value.to_vec());
            shard.dirty = true;
        })
    }

    /// Look up `user`'s record.
    pub fn registry_get(&self, user: &str) -> Result<Option<Vec<u8>>, ResilienceError> {
        self.with_shard_of(user, |shard| shard.records.get(user).cloned())
    }

    /// Remove `user`'s record; reports whether it existed.
    pub fn registry_remove(&self, user: &str) -> Result<bool, ResilienceError> {
        self.with_shard_of(user, |shard| {
            let existed = shard.records.remove(user).is_some();
            shard.dirty |= existed;
            existed
        })
    }

    /// Checkpoint every dirty resident shard as one batch; returns how many
    /// were written.
    pub fn registry_checkpoint(&self) -> Result<usize, ResilienceError> {
        let reg = self.registry.read();
        let state = reg.as_ref().ok_or_else(not_initialised)?;
        let mut resident = state.resident.lock();
        let mut dirty: Vec<&mut Shard> = resident.iter_mut().filter(|s| s.dirty).collect();
        // The write plan takes a batch in block order.
        dirty.sort_unstable_by_key(|s| s.id);
        self.write_shards(&dirty.iter().map(|s| &**s).collect::<Vec<_>>())?;
        for shard in &mut dirty {
            shard.dirty = false;
        }
        Ok(dirty.len())
    }

    /// Checkpoint dirty shards, then drop every resident shard: the cold
    /// state a fresh open starts from.
    pub fn registry_drop_caches(&self) -> Result<(), ResilienceError> {
        self.registry_checkpoint()?;
        if let Some(state) = self.registry.read().as_ref() {
            state.resident.lock().clear();
        }
        Ok(())
    }

    /// Run `f` over `user`'s shard, made resident.
    fn with_shard_of<T>(
        &self,
        user: &str,
        f: impl FnOnce(&mut Shard) -> T,
    ) -> Result<T, ResilienceError> {
        let reg = self.registry.read();
        let state = reg.as_ref().ok_or_else(not_initialised)?;
        let id = state.shard_of(user);
        let mut resident = state.resident.lock();
        let at = match resident.iter().position(|s| s.id == id) {
            Some(at) => at,
            None => {
                // The oldest shards leave past the bound, each written back
                // before it goes when dirty, so a failed write loses nothing.
                while resident.len() >= state.max_resident {
                    if let Some(old) = resident.front().filter(|s| s.dirty) {
                        self.write_shards(&[old])?;
                    }
                    resident.pop_front();
                }
                resident.push_back(self.load_shard(id)?);
                resident.len() - 1
            }
        };
        Ok(f(&mut resident[at]))
    }

    /// Read shard `id` from its block through the healing read: a damaged
    /// block is rebuilt from parity first, or the load fails.
    fn load_shard(&self, id: u32) -> Result<Shard, ResilienceError> {
        let file = self.file_state(REGISTRY_PATH)?;
        let mut field = vec![0u8; self.fs.content_bytes_per_block()];
        self.healed_read(&mut file.write(), u64::from(id), &mut field)?;
        Ok(Shard {
            id,
            records: decode_records(&field)?,
            dirty: false,
        })
    }

    /// Write `shards`, in ascending id order, to their blocks as one batch of
    /// the write plan. Nothing is written if any shard outgrows its block.
    fn write_shards(&self, shards: &[&Shard]) -> Result<(), ResilienceError> {
        let capacity = self.fs.content_bytes_per_block();
        let mut fields = Vec::with_capacity(shards.len());
        for shard in shards {
            let field = encode_records(&shard.records);
            if field.len() > capacity {
                return Err(ResilienceError::ShardOverflow {
                    shard: shard.id,
                    needed: field.len(),
                    capacity,
                });
            }
            fields.push((u64::from(shard.id), field));
        }
        let blocks: Vec<(u64, &[u8])> = fields.iter().map(|(i, f)| (*i, f.as_slice())).collect();
        self.write_blocks(REGISTRY_PATH, &blocks)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::store::{ResilienceConfig, ResilientStore};
    use stegfs_base::StegFsConfig;
    use stegfs_blockdev::{FaultDevice, FaultPlan, MemDevice};
    use stegfs_crypto::Key256;

    fn cfg() -> ResilienceConfig {
        ResilienceConfig::default()
            .with_fs(StegFsConfig::default().with_block_size(512))
            .with_stripe(4, 2)
            .with_registry_resident(2)
    }

    fn master() -> Key256 {
        Key256::from_passphrase("registry-owner")
    }

    fn reg_cfg() -> RegistryConfig {
        RegistryConfig { shards: 4 }
    }

    type Store = ResilientStore<FaultDevice<MemDevice>>;

    fn fresh_store() -> Store {
        let dev = FaultDevice::new(MemDevice::new(2048, 512));
        let store = ResilientStore::format(dev, cfg(), &master(), 7).unwrap();
        store.init_registry(reg_cfg()).unwrap();
        store
    }

    /// Zero `blocks` on the raw device, below every check.
    fn zero(store: &Store, blocks: &[BlockId]) {
        let mut plan = FaultPlan::new(31);
        for &b in blocks {
            plan.zero_block(b);
        }
        store.fs.device().apply_plan(&plan).unwrap();
    }

    /// A registry where `u0` was checkpointed as "first", then as "second",
    /// with nothing resident; and the stripe of `u0`'s shard with the
    /// shard's own block in it (shard `i` is content block `i`).
    fn checkpointed_twice() -> (Store, Vec<BlockId>, BlockId) {
        let store = fresh_store();
        for value in [&b"first"[..], b"second"] {
            store.registry_put("u0", value).unwrap();
            store.registry_checkpoint().unwrap();
        }
        store.registry_drop_caches().unwrap();
        let k = store.stripe_config().k;
        let shard = store.registry_shard_of("u0").unwrap() as usize;
        let stripe = store.stripe_layout(REGISTRY_PATH).unwrap()[shard / k].clone();
        let block = stripe[shard % k];
        (store, stripe, block)
    }

    #[test]
    fn put_get_remove_roundtrip() {
        let store = fresh_store();
        assert!(store.has_registry());
        assert_eq!(store.registry_stats().shards, reg_cfg().shards);
        for i in 0..20 {
            store
                .registry_put(&format!("user-{i}"), format!("state-{i}").as_bytes())
                .unwrap();
        }
        for i in 0..20 {
            assert_eq!(
                store.registry_get(&format!("user-{i}")).unwrap().as_deref(),
                Some(format!("state-{i}").as_bytes())
            );
        }
        assert!(store.registry_remove("user-3").unwrap());
        assert!(!store.registry_remove("user-3").unwrap());
        assert_eq!(store.registry_get("user-3").unwrap(), None);
        assert_eq!(store.registry_get("never-registered").unwrap(), None);
    }

    #[test]
    fn checkpoint_then_reopen_from_disk() {
        let store = fresh_store();
        for i in 0..12 {
            store
                .registry_put(&format!("u{i}"), &[i as u8; 24])
                .unwrap();
        }
        assert!(store.registry_checkpoint().unwrap() >= 1);
        assert_eq!(store.registry_checkpointed_records().unwrap(), 12);
        let device = store.fs.into_device();

        let reopened = ResilientStore::open(device, cfg(), &master(), 8).unwrap();
        assert!(reopened.has_registry());
        // Cold start: nothing resident until a lookup pulls a shard in.
        assert_eq!(reopened.registry_stats().resident_shards, 0);
        for i in 0..12 {
            assert_eq!(
                reopened.registry_get(&format!("u{i}")).unwrap(),
                Some(vec![i as u8; 24])
            );
        }
    }

    #[test]
    fn resident_memory_stays_bounded() {
        let store = fresh_store();
        for i in 0..64 {
            store.registry_put(&format!("user-{i}"), &[7; 8]).unwrap();
            assert!(store.registry_stats().resident_shards <= 2);
        }
        // Eviction checkpointed the displaced shards: everything reads back
        // even though at most two shards were ever resident.
        for i in 0..64 {
            assert_eq!(
                store.registry_get(&format!("user-{i}")).unwrap(),
                Some(vec![7; 8])
            );
        }
        store.registry_drop_caches().unwrap();
        assert_eq!(store.registry_stats().resident_records, 0);
        assert_eq!(store.registry_checkpointed_records().unwrap(), 64);
    }

    #[test]
    fn shard_overflow_is_reported() {
        let store = fresh_store();
        // A shard holds one data field; a record that cannot fit must not
        // checkpoint, and must not be silently truncated.
        let capacity = store.fs().content_bytes_per_block();
        store.registry_put("whale", &vec![1u8; capacity]).unwrap();
        let err = store.registry_checkpoint().unwrap_err();
        let shard = store.registry_shard_of("whale").unwrap();
        assert!(matches!(
            err,
            ResilienceError::ShardOverflow { shard: s, needed, capacity: c }
                if s == shard && needed > capacity && c == capacity
        ));
        // Still resident and dirty: nothing was lost.
        assert_eq!(
            store.registry_get("whale").unwrap(),
            Some(vec![1u8; capacity])
        );
    }

    #[test]
    fn zeroed_shard_heals_to_the_latest_checkpoint() {
        let (store, _, block) = checkpointed_twice();
        zero(&store, &[block]);
        assert_eq!(
            store.registry_get("u0").unwrap().as_deref(),
            Some(&b"second"[..]),
            "a damaged shard must heal, not roll back"
        );
        assert_eq!(store.stats().blocks_repaired, 1, "healed through parity");
        assert!(store.scrub().unwrap().is_clean());
    }

    #[test]
    fn shard_stripe_past_parity_is_unrecoverable() {
        // The shard and m more blocks of its stripe: one past what parity
        // can rebuild.
        let (store, stripe, block) = checkpointed_twice();
        let m = store.stripe_config().m;
        let mut lost = vec![block];
        lost.extend(stripe.iter().filter(|&&b| b != block).take(m));
        zero(&store, &lost);
        assert!(matches!(
            store.registry_get("u0"),
            Err(ResilienceError::Unrecoverable { path, .. }) if path == REGISTRY_PATH
        ));
    }

    #[test]
    fn cover_traffic_reseals_every_registry_block() {
        let store = fresh_store();
        let users: Vec<String> = (0..12).map(|i| format!("u{i}")).collect();
        for (i, user) in users.iter().enumerate() {
            store.registry_put(user, &[i as u8; 24]).unwrap();
        }
        store.registry_checkpoint().unwrap();
        let image = store.read_file(REGISTRY_PATH).unwrap();

        // One scrub-cursor cycle rewrites every block the registry file
        // owns — content, parity, header tree and shadow — as it does any
        // managed file's.
        let cursor = store.scrub_cursor(3);
        let mut touched = BTreeSet::new();
        for _ in 0..cursor.cycle_len().div_ceil(8) {
            touched.extend(store.dummy_update_batch(8, Some(&cursor)).unwrap());
        }
        let blocks = store.registry_blocks();
        assert!(blocks.len() > reg_cfg().shards as usize);
        for b in &blocks {
            assert!(touched.contains(b), "registry block {b} never resealed");
        }

        let read_back = |store: &Store| {
            assert_eq!(store.read_file(REGISTRY_PATH).unwrap(), image);
            for (i, user) in users.iter().enumerate() {
                assert_eq!(
                    store.registry_get(user).unwrap(),
                    Some(vec![i as u8; 24]),
                    "{user}"
                );
            }
        };
        store.registry_drop_caches().unwrap();
        read_back(&store);
        let reopened = ResilientStore::open(store.into_device(), cfg(), &master(), 8).unwrap();
        read_back(&reopened);
    }

    /// Bytes produced by the encoder as it stood before the port onto
    /// `wire`: the format must not move.
    #[test]
    fn golden_vectors_are_bit_identical() {
        const GOLDEN_RECORDS: &[u8] = b"\
            \x03\x00\x00\x00\x00\x00\x01\x00\x00\x00\x09\x05\x00\x61\x6c\x69\x63\x65\x03\x00\
            \x00\x00\x01\x02\x03\x03\x00\x62\x6f\x62\x00\x00\x00\x00";
        let mut records = BTreeMap::new();
        records.insert("alice".to_string(), vec![1, 2, 3]);
        records.insert("bob".to_string(), vec![]);
        records.insert(String::new(), vec![9]);
        assert_eq!(encode_records(&records), GOLDEN_RECORDS);
        assert_eq!(decode_records(GOLDEN_RECORDS).unwrap(), records);
        // A zeroed field — a shard never written — is an empty shard.
        assert_eq!(decode_records(&[0; 64]).unwrap(), BTreeMap::new());
    }
}
