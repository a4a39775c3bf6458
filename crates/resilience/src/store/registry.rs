//! The persistent sharded registry: per-user records kept as one ordinary
//! resilient hidden file at [`REGISTRY_PATH`], one shard per content block.
//! A user's shard is `HMAC(registry key, user) mod n` for a file of `n`
//! blocks: the file's length is the only geometry. A shard is its encoded
//! records in one zero-padded data field, and a zeroed field holds none.
//!
//! [`Registry`] is a client of the store, found through its path like any
//! file: it borrows a [`ResilientStore`], reads a shard through the healing
//! read (a damaged one is rebuilt from parity or reported, never served
//! from an older state), and checkpoints as one batch of the write plan. A
//! shard is one block because that plan is atomic per block: after a power
//! cut each block, so each shard, is old or new. Shards load lazily into a
//! bounded FIFO cache, a dirty one written back as it is evicted, so
//! resident memory is O(active users).

use std::collections::{BTreeMap, VecDeque};

use parking_lot::Mutex;

use stegfs_base::wire::{Reader, Writer};
use stegfs_blockdev::{BlockDevice, BlockId};
use stegfs_crypto::HmacSha256;

use super::ResilientStore;
use crate::error::ResilienceError;

/// Path of the hidden file holding the registry's shards.
pub const REGISTRY_PATH: &str = "/.registry";

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
    /// Encoded length of `records`, at most one data field: `put` refuses
    /// a record that would push it past.
    len: usize,
    /// Whether `records` differ from the shard's block.
    dirty: bool,
}

/// Bytes a record adds to its shard's encoding: key length, key, value
/// length, value.
fn record_len(user: &str, value: &[u8]) -> usize {
    2 + user.len() + 4 + value.len()
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

/// The persistent registry of one volume, served over the store that holds
/// its file. A value exists only while the volume carries the file.
pub struct Registry<'s, D> {
    store: &'s ResilientStore<D>,
    shards: u32,
    max_resident: usize,
    mac: HmacSha256,
    /// Resident shards in load order; the front is evicted first, which is
    /// deterministic for a deterministic operation sequence.
    resident: Mutex<VecDeque<Shard>>,
}

impl<'s, D: BlockDevice> Registry<'s, D> {
    /// Create the registry on `store`'s volume: a hidden file at
    /// [`REGISTRY_PATH`] of `shards` zeroed blocks, each an empty shard,
    /// served as [`Registry::open`] serves it.
    pub fn create(
        store: &'s ResilientStore<D>,
        shards: u32,
        resident: usize,
    ) -> Result<Self, ResilienceError> {
        if shards == 0 {
            return Err(ResilienceError::Corrupt("registry of zero shards".into()));
        }
        let per = store.fs.content_bytes_per_block();
        store.create_file(REGISTRY_PATH, &vec![0u8; shards as usize * per])?;
        Ok(Self::serve(store, shards, resident))
    }

    /// The registry `store`'s volume carries, if any. At most `resident`
    /// shards stay in memory; past it the oldest is checkpointed (when
    /// dirty) and dropped. A runtime setting: nothing of it is persisted.
    pub fn open(
        store: &'s ResilientStore<D>,
        resident: usize,
    ) -> Result<Option<Self>, ResilienceError> {
        let blocks = match store.tables.lock().files.get(REGISTRY_PATH) {
            Some(file) => file.open.header.num_blocks(),
            None => return Ok(None),
        };
        let shards = u32::try_from(blocks)
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| ResilienceError::Corrupt(format!("registry of {blocks} blocks")))?;
        Ok(Some(Self::serve(store, shards, resident)))
    }

    fn serve(store: &'s ResilientStore<D>, shards: u32, resident: usize) -> Self {
        let mac_key = store.master.derive("resilience:registry").derive("mac");
        Self {
            store,
            shards,
            max_resident: resident.max(1),
            mac: HmacSha256::new(mac_key.as_bytes()),
            resident: Mutex::default(),
        }
    }

    /// The shard a user's records live in: a keyed hash, opaque without the
    /// registry key, stable across reopens.
    pub fn shard_of(&self, user: &str) -> u32 {
        (self.mac.derive_u64_with(user.as_bytes()) % u64::from(self.shards)) as u32
    }

    /// Every block the registry file occupies (content, parity, header tree
    /// and shadow stripe map), for invisibility and cover-traffic tests.
    pub fn blocks(&self) -> Vec<BlockId> {
        let tables = self.store.tables.lock();
        let owned = tables.files.get(REGISTRY_PATH).map(|f| f.owned_blocks());
        owned.into_iter().flatten().map(|(b, _)| b).collect()
    }

    /// Resident-memory statistics: the O(active users) contract.
    pub fn stats(&self) -> RegistryStats {
        let resident = self.resident.lock();
        RegistryStats {
            shards: self.shards,
            resident_shards: resident.len(),
            resident_records: resident.iter().map(|s| s.records.len()).sum(),
        }
    }

    /// Total records as of each shard's last checkpoint, dirty resident ones
    /// not included: one verified read per shard, no resident memory.
    pub fn checkpointed_records(&self) -> Result<u64, ResilienceError> {
        let per = self.store.fs.content_bytes_per_block();
        let shards = self.store.read_file(REGISTRY_PATH)?;
        shards
            .chunks(per)
            .map(|field| Ok(u64::from(Reader::new(field).u32()?)))
            .sum()
    }

    /// Insert or replace `user`'s record. A record that would make its shard
    /// outgrow one data field is refused with
    /// [`ResilienceError::ShardOverflow`], and the shard is left as it was.
    pub fn put(&self, user: &str, value: &[u8]) -> Result<(), ResilienceError> {
        let capacity = self.store.fs.content_bytes_per_block();
        self.with_shard_of(user, |shard| {
            let old = shard.records.get(user).map_or(0, |v| record_len(user, v));
            let needed = shard.len - old + record_len(user, value);
            if needed > capacity {
                return Err(ResilienceError::ShardOverflow {
                    shard: shard.id,
                    needed,
                    capacity,
                });
            }
            shard.records.insert(user.to_string(), value.to_vec());
            shard.len = needed;
            shard.dirty = true;
            Ok(())
        })?
    }

    /// Look up `user`'s record.
    pub fn get(&self, user: &str) -> Result<Option<Vec<u8>>, ResilienceError> {
        self.with_shard_of(user, |shard| shard.records.get(user).cloned())
    }

    /// Remove `user`'s record; reports whether it existed.
    pub fn remove(&self, user: &str) -> Result<bool, ResilienceError> {
        self.with_shard_of(user, |shard| {
            let Some(value) = shard.records.remove(user) else {
                return false;
            };
            shard.len -= record_len(user, &value);
            shard.dirty = true;
            true
        })
    }

    /// Checkpoint every dirty resident shard as one batch; returns how many
    /// were written.
    pub fn checkpoint(&self) -> Result<usize, ResilienceError> {
        let mut resident = self.resident.lock();
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
    pub fn drop_caches(&self) -> Result<(), ResilienceError> {
        self.checkpoint()?;
        self.resident.lock().clear();
        Ok(())
    }

    /// Run `f` over `user`'s shard, made resident.
    fn with_shard_of<T>(
        &self,
        user: &str,
        f: impl FnOnce(&mut Shard) -> T,
    ) -> Result<T, ResilienceError> {
        let id = self.shard_of(user);
        let mut resident = self.resident.lock();
        let at = match resident.iter().position(|s| s.id == id) {
            Some(at) => at,
            None => {
                // The oldest shards leave past the bound, each written back
                // before it goes when dirty, so a failed write loses nothing.
                while resident.len() >= self.max_resident {
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
        let mut field = vec![0u8; self.store.fs.content_bytes_per_block()];
        let mut tables = self.store.tables.lock();
        let mut file = tables.file_mut(REGISTRY_PATH)?;
        self.store
            .healed_read(&mut file, u64::from(id), &mut field)?;
        let records = decode_records(&field)?;
        let len = 4 + records.iter().map(|(u, v)| record_len(u, v)).sum::<usize>();
        Ok(Shard {
            id,
            records,
            len,
            dirty: false,
        })
    }

    /// Write `shards`, in ascending id order, to their blocks as one batch of
    /// the write plan.
    fn write_shards(&self, shards: &[&Shard]) -> Result<(), ResilienceError> {
        let fields: Vec<(u64, Vec<u8>)> = shards
            .iter()
            .map(|s| (u64::from(s.id), encode_records(&s.records)))
            .collect();
        let blocks: Vec<(u64, &[u8])> = fields.iter().map(|(i, f)| (*i, f.as_slice())).collect();
        self.store.write_blocks(REGISTRY_PATH, &blocks)
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

    const SHARDS: u32 = 4;
    const RESIDENT: usize = 2;

    fn cfg() -> ResilienceConfig {
        ResilienceConfig::default()
            .with_fs(StegFsConfig::default().with_block_size(512))
            .with_stripe(4, 2)
    }

    fn master() -> Key256 {
        Key256::from_passphrase("registry-owner")
    }

    type Store = ResilientStore<FaultDevice<MemDevice>>;

    fn fresh_store() -> Store {
        let dev = FaultDevice::new(MemDevice::new(2048, 512));
        ResilientStore::format(dev, cfg(), &master(), 7).unwrap()
    }

    fn create(store: &Store) -> Registry<'_, FaultDevice<MemDevice>> {
        Registry::create(store, SHARDS, RESIDENT).unwrap()
    }

    fn open(store: &Store) -> Registry<'_, FaultDevice<MemDevice>> {
        Registry::open(store, RESIDENT)
            .unwrap()
            .expect("volume carries a registry")
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
        let reg = create(&store);
        for value in [&b"first"[..], b"second"] {
            reg.put("u0", value).unwrap();
            reg.checkpoint().unwrap();
        }
        reg.drop_caches().unwrap();
        let k = store.stripe_config().k;
        let shard = reg.shard_of("u0") as usize;
        let stripe = store.stripe_layout(REGISTRY_PATH).unwrap()[shard / k].clone();
        let block = stripe[shard % k];
        (store, stripe, block)
    }

    #[test]
    fn put_get_remove_roundtrip() {
        let store = fresh_store();
        assert!(Registry::open(&store, RESIDENT).unwrap().is_none());
        let reg = create(&store);
        assert_eq!(reg.stats().shards, SHARDS);
        for i in 0..20 {
            reg.put(&format!("user-{i}"), format!("state-{i}").as_bytes())
                .unwrap();
        }
        for i in 0..20 {
            assert_eq!(
                reg.get(&format!("user-{i}")).unwrap().as_deref(),
                Some(format!("state-{i}").as_bytes())
            );
        }
        assert!(reg.remove("user-3").unwrap());
        assert!(!reg.remove("user-3").unwrap());
        assert_eq!(reg.get("user-3").unwrap(), None);
        assert_eq!(reg.get("never-registered").unwrap(), None);
    }

    #[test]
    fn checkpoint_then_reopen_from_disk() {
        let store = fresh_store();
        let reg = create(&store);
        for i in 0..12 {
            reg.put(&format!("u{i}"), &[i as u8; 24]).unwrap();
        }
        assert!(reg.checkpoint().unwrap() >= 1);
        assert_eq!(reg.checkpointed_records().unwrap(), 12);
        let device = store.fs.into_device();

        let reopened = ResilientStore::open(device, cfg(), &master(), 8).unwrap();
        let reg = open(&reopened);
        // Cold start: nothing resident until a lookup pulls a shard in.
        assert_eq!(reg.stats().resident_shards, 0);
        for i in 0..12 {
            assert_eq!(reg.get(&format!("u{i}")).unwrap(), Some(vec![i as u8; 24]));
        }
    }

    #[test]
    fn resident_memory_stays_bounded() {
        let store = fresh_store();
        let reg = create(&store);
        for i in 0..64 {
            reg.put(&format!("user-{i}"), &[7; 8]).unwrap();
            assert!(reg.stats().resident_shards <= RESIDENT);
        }
        // Eviction checkpointed the displaced shards: everything reads back
        // even though at most two shards were ever resident.
        for i in 0..64 {
            assert_eq!(reg.get(&format!("user-{i}")).unwrap(), Some(vec![7; 8]));
        }
        reg.drop_caches().unwrap();
        assert_eq!(reg.stats().resident_records, 0);
        assert_eq!(reg.checkpointed_records().unwrap(), 64);
    }

    #[test]
    fn shard_overflow_is_reported() {
        let store = fresh_store();
        let reg = create(&store);
        // A shard holds one data field: a record that fills it exactly fits,
        // one byte more is refused before it reaches the shard — never
        // stored, never silently truncated.
        let capacity = store.fs().content_bytes_per_block();
        let fits = capacity - 4 - record_len("whale", &[]);
        reg.put("whale", &vec![1u8; fits]).unwrap();
        let err = reg.put("whale", &vec![2u8; fits + 1]).unwrap_err();
        let shard = reg.shard_of("whale");
        assert!(matches!(
            err,
            ResilienceError::ShardOverflow { shard: s, needed, capacity: c }
                if s == shard && needed == capacity + 1 && c == capacity
        ));
        // The refused put changed nothing: the full shard checkpoints and
        // reads back whole.
        assert_eq!(reg.get("whale").unwrap(), Some(vec![1u8; fits]));
        reg.drop_caches().unwrap();
        assert_eq!(reg.get("whale").unwrap(), Some(vec![1u8; fits]));
    }

    #[test]
    fn refused_put_leaves_other_shards_writable() {
        // A refused record never reaches the resident cache: kept dirty
        // there, it would be retried first by every eviction and fail it,
        // taking down puts to every other shard and every checkpoint.
        let store = fresh_store();
        let reg = create(&store);
        assert!(matches!(
            reg.put("whale", &[9; 496]),
            Err(ResilienceError::ShardOverflow {
                needed: 511,
                capacity: 496,
                ..
            })
        ));
        let whale_shard = reg.shard_of("whale");
        let users: Vec<String> = (0..)
            .map(|i| format!("user-{i}"))
            .filter(|u| reg.shard_of(u) != whale_shard)
            .take(28)
            .collect();
        for user in &users {
            reg.put(user, user.as_bytes()).unwrap();
            assert!(reg.stats().resident_shards <= RESIDENT);
        }
        reg.checkpoint().unwrap();
        reg.drop_caches().unwrap();
        assert_eq!(reg.checkpointed_records().unwrap(), users.len() as u64);
        for user in &users {
            assert_eq!(reg.get(user).unwrap().as_deref(), Some(user.as_bytes()));
        }
    }

    #[test]
    fn zeroed_shard_heals_to_the_latest_checkpoint() {
        let (store, _, block) = checkpointed_twice();
        zero(&store, &[block]);
        assert_eq!(
            open(&store).get("u0").unwrap().as_deref(),
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
            open(&store).get("u0"),
            Err(ResilienceError::Unrecoverable { path, .. }) if path == REGISTRY_PATH
        ));
    }

    #[test]
    fn cover_traffic_reseals_every_registry_block() {
        let store = fresh_store();
        let reg = create(&store);
        let users: Vec<String> = (0..12).map(|i| format!("u{i}")).collect();
        for (i, user) in users.iter().enumerate() {
            reg.put(user, &[i as u8; 24]).unwrap();
        }
        reg.checkpoint().unwrap();
        let image = store.read_file(REGISTRY_PATH).unwrap();

        // One scrub-cursor cycle rewrites every block the registry file
        // owns — content, parity, header tree and shadow — as it does any
        // managed file's.
        let cursor = store.scrub_cursor(3);
        let mut touched = BTreeSet::new();
        for _ in 0..cursor.cycle_len().div_ceil(8) {
            touched.extend(store.dummy_update_batch(8, Some(&cursor)).unwrap());
        }
        let blocks = reg.blocks();
        assert!(blocks.len() > SHARDS as usize);
        for b in &blocks {
            assert!(touched.contains(b), "registry block {b} never resealed");
        }

        let read_back = |store: &Store| {
            assert_eq!(store.read_file(REGISTRY_PATH).unwrap(), image);
            let reg = open(store);
            for (i, user) in users.iter().enumerate() {
                assert_eq!(reg.get(user).unwrap(), Some(vec![i as u8; 24]), "{user}");
            }
        };
        reg.drop_caches().unwrap();
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
