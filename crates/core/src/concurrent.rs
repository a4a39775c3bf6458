//! Construction 1 (the paper's **StegHide\***, Section 4.1): the agent holds
//! a volume-wide key.
//!
//! The agent runs in a safe environment and owns exactly two persistent
//! secrets — the volume-wide block encryption key and the FAK of the dummy
//! file — plus the block map it saves beside them. Every block on the volume
//! is encrypted under the single agent key; user secrets only determine
//! *where* a file's header lives. Because the agent has a complete view of
//! the volume, any payload block is a dummy-update victim and any abandoned
//! block a relocation target: every access lands on a uniformly selected
//! block, which the `concurrent_security` integration test verifies against
//! the statistical attackers.
//!
//! [`ConcurrentAgent`] is that keying plus file lifecycle over the shared
//! [`Engine`]. Every method takes `&self`, so many threads may share one
//! agent; each call holds the engine's one lock from start to end, so they
//! take turns.

use stegfs_base::{
    BlockClass, FileAccessKey, FsError, OpenFile, ShardedBlockMap, StegFs, StegFsConfig,
};
use stegfs_blockdev::{BlockDevice, BlockId};
use stegfs_crypto::{HashDrbg, Key256};

use crate::config::AgentConfig;
use crate::engine::{Engine, Keying, Reseal, SwapTarget, UpdateOutcome};
use crate::error::AgentError;
use crate::registry::{FileId, Registry};
use crate::stats::UpdateStats;

/// Construction 1 keying: one key seals everything, so no question needs the
/// registry.
pub(crate) struct VolumeKey(Key256);

impl VolumeKey {
    /// Effective FAK for a user file: the location comes from the user's
    /// secret and path, while header and content are encrypted under the
    /// agent's volume-wide key (Section 4.1.2: "the agent keeps two keys
    /// \[...\] the other is the secret key for encrypting all the storage
    /// blocks").
    fn fak(&self, user_secret: &Key256) -> FileAccessKey {
        FileAccessKey::from_parts(
            user_secret.derive("steghide:location"),
            self.0,
            Some(self.0),
        )
    }
}

impl Keying for VolumeKey {
    fn draw(&self, payload_blocks: u64, _: &Registry, rng: &mut HashDrbg) -> Option<BlockId> {
        Some(1 + rng.gen_range(payload_blocks))
    }

    fn claim_swap_target(
        &self,
        map: &ShardedBlockMap,
        _: &Registry,
        b2: BlockId,
    ) -> Option<SwapTarget> {
        map.claim(b2, BlockClass::Dummy, BlockClass::Data)
            .then_some(SwapTarget::Abandoned)
    }

    fn reseal(&self, _: &Registry, _: BlockId) -> Result<Reseal, AgentError> {
        Ok(Reseal::Key(self.0))
    }

    fn content_key(&self, _: &OpenFile) -> Result<Key256, AgentError> {
        Ok(self.0)
    }
}

/// The Construction 1 agent (StegHide\*).
pub struct ConcurrentAgent<D> {
    pub(crate) engine: Engine<D, VolumeKey>,
}

impl<D: BlockDevice> ConcurrentAgent<D> {
    fn assemble(
        fs: StegFs<D>,
        map: ShardedBlockMap,
        agent_cfg: AgentConfig,
        agent_key: Key256,
        seed: u64,
    ) -> Self {
        let keying = VolumeKey(agent_key);
        Self {
            engine: Engine::new(fs, map, agent_cfg, seed ^ 0x5deece66d, keying),
        }
    }

    /// Format `device` as a fresh volume served by this agent. `num_shards`
    /// groups a dummy batch's reseals ([`ShardedBlockMap::shard_of`]); it
    /// splits nothing.
    ///
    /// `agent_key` is the secret the agent keeps; `seed` drives all
    /// pseudo-random choices (block scattering, IVs, dummy targets) so
    /// experiments are reproducible.
    pub fn format(
        device: D,
        fs_cfg: StegFsConfig,
        agent_cfg: AgentConfig,
        agent_key: Key256,
        seed: u64,
        num_shards: usize,
    ) -> Result<Self, AgentError> {
        let (fs, map) = StegFs::format(device, fs_cfg, seed)?;
        // The paper's construction keeps a dummy file whose FAK the agent
        // holds; all abandoned blocks conceptually belong to it. Its header
        // is materialised so the construction is complete, while the
        // abandoned pool itself is tracked by the block map.
        let dummy_fak = FileAccessKey::from_parts(
            agent_key.derive("steghide:dummy-file:location"),
            agent_key,
            Some(agent_key),
        );
        let map = map.with_shards(num_shards);
        fs.create_dummy_file(&map, "/.steghide-dummy", &dummy_fak, 1)?;
        Ok(Self::assemble(fs, map, agent_cfg, agent_key, seed))
    }

    /// Re-attach the agent to an existing volume using its persistent
    /// secrets: the key and the block map it saved (see
    /// [`ConcurrentAgent::export_block_map`]), whose reseal grouping
    /// ([`ShardedBlockMap::num_shards`]) it keeps.
    /// `seed` drives the candidate draws and, in a stream of its own, the
    /// volume DRBG ([`StegFs::mount`]): give each restart a fresh one.
    pub fn mount(
        device: D,
        agent_cfg: AgentConfig,
        agent_key: Key256,
        block_map: ShardedBlockMap,
        seed: u64,
    ) -> Result<Self, AgentError> {
        let fs = StegFs::mount(device, seed)?;
        Ok(Self::assemble(fs, block_map, agent_cfg, agent_key, seed))
    }

    /// Serialize the agent's block map — the state it persists alongside its
    /// key so that a later [`ConcurrentAgent::mount`] (via
    /// [`ShardedBlockMap::from_bytes`]) has the complete view.
    pub fn export_block_map(&self) -> Vec<u8> {
        let _quiesced = self.engine.lock();
        self.engine.map.to_bytes()
    }

    /// Run a [`StegFs`] creation path under the engine's lock and register
    /// the result.
    fn create(
        &self,
        user_secret: &Key256,
        make: impl FnOnce(&StegFs<D>, &ShardedBlockMap, &FileAccessKey) -> Result<OpenFile, FsError>,
    ) -> Result<FileId, AgentError> {
        let mut e = self.engine.lock();
        let fak = e.keying.fak(user_secret);
        let file = make(&self.engine.fs, &self.engine.map, &fak)?;
        Ok(e.registry.register(file).0)
    }

    /// Create a hidden file for a user and leave it open; returns its id.
    pub fn create_file(
        &self,
        user_secret: &Key256,
        path: &str,
        content: &[u8],
    ) -> Result<FileId, AgentError> {
        self.create(user_secret, |fs, map, fak| {
            fs.create_file(map, path, fak, content)
        })
    }

    /// Create a hidden file of `size` bytes without writing its content
    /// blocks (benchmark set-up helper; reads and updates behave identically
    /// to a fully written file).
    pub fn create_file_sparse(
        &self,
        user_secret: &Key256,
        path: &str,
        size: u64,
    ) -> Result<FileId, AgentError> {
        self.create(user_secret, |fs, map, fak| {
            fs.create_file_sparse(map, path, fak, size)
        })
    }

    /// Open an existing hidden file; returns its id. Idempotent: opening a
    /// file that is already open returns the existing id, so all its users
    /// share one cached header.
    pub fn open_file(&self, user_secret: &Key256, path: &str) -> Result<FileId, AgentError> {
        let mut e = self.engine.lock();
        let file = self.engine.fs.open_file(&e.keying.fak(user_secret), path)?;
        Ok(e.registry.register(file).0)
    }

    /// Save (if dirty) and close an open file. The id is dead afterwards for
    /// everyone who held it.
    pub fn close_file(&self, id: FileId) -> Result<(), AgentError> {
        let mut e = self.engine.lock();
        e.save(id)?;
        e.registry.unregister(id);
        Ok(())
    }

    /// Delete an open file, returning its blocks to the dummy pool.
    pub fn delete_file(&self, id: FileId) -> Result<(), AgentError> {
        let mut e = self.engine.lock();
        let file = e
            .registry
            .unregister(id)
            .ok_or(AgentError::UnknownFile(id))?;
        self.engine.fs.delete_file(&self.engine.map, file)?;
        Ok(())
    }

    /// Read one content block of an open file.
    pub fn read_block(&self, id: FileId, index: u64) -> Result<Vec<u8>, AgentError> {
        self.engine.lock().read_block(id, index)
    }

    /// Read a whole open file as one consistent snapshot.
    pub fn read_file(&self, id: FileId) -> Result<Vec<u8>, AgentError> {
        self.engine.lock().read_file(id)
    }

    /// Number of content blocks of an open file.
    pub fn num_blocks(&self, id: FileId) -> Result<u64, AgentError> {
        self.engine.lock().num_blocks(id)
    }

    /// Update one content block with the Figure 6 algorithm.
    pub fn update_block(
        &self,
        id: FileId,
        index: u64,
        payload: &[u8],
    ) -> Result<UpdateOutcome, AgentError> {
        self.engine.lock().update_block(id, index, payload)
    }

    /// Update `count` consecutive content blocks starting at `start_index`,
    /// filling each with `fill` — the paper's "update range" workload
    /// (Figure 11(b)).
    pub fn update_range_fill(
        &self,
        id: FileId,
        start_index: u64,
        count: u64,
        fill: u8,
    ) -> Result<Vec<UpdateOutcome>, AgentError> {
        self.engine
            .lock()
            .update_range_fill(id, start_index, count, fill)
    }

    /// Issue `k` idle-time dummy updates (Section 4.1.3) on uniformly drawn
    /// payload blocks; returns the touched blocks in selection order.
    pub fn dummy_update_batch(&self, k: usize) -> Result<Vec<u64>, AgentError> {
        self.engine.lock().dummy_update_batch(k)
    }

    /// Write back every dirty cached header.
    pub fn flush(&self) -> Result<(), AgentError> {
        self.engine.lock().flush()
    }

    /// Update statistics collected so far.
    pub fn stats(&self) -> UpdateStats {
        self.engine.stats.snapshot()
    }

    /// Current space utilisation (`data blocks / payload blocks`).
    pub fn utilisation(&self) -> f64 {
        self.engine.map.utilisation()
    }

    /// The agent's block map.
    pub fn map(&self) -> &ShardedBlockMap {
        &self.engine.map
    }

    /// The underlying file system.
    pub fn fs(&self) -> &StegFs<D> {
        &self.engine.fs
    }

    /// Consume the agent and return the underlying device.
    pub fn into_device(self) -> D {
        self.engine.fs.into_device()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::{mpsc, Arc};
    use std::thread::ThreadId;
    use std::time::Duration;

    use parking_lot::Mutex;
    use stegfs_blockdev::{DeviceError, Io, IoKind, Layered, MemDevice, TraceLog, TracingDevice};

    pub(crate) const AGENT_SECRET: &str = "concurrent agent secret";

    pub(crate) fn agent_with(
        num_blocks: u64,
        shards: usize,
        cfg: AgentConfig,
    ) -> ConcurrentAgent<MemDevice> {
        ConcurrentAgent::format(
            MemDevice::new(num_blocks, 512),
            StegFsConfig::default().with_block_size(512),
            cfg,
            Key256::from_passphrase(AGENT_SECRET),
            7,
            shards,
        )
        .unwrap()
    }

    pub(crate) fn agent(num_blocks: u64, shards: usize) -> ConcurrentAgent<MemDevice> {
        agent_with(num_blocks, shards, AgentConfig::default())
    }

    #[test]
    fn create_update_read_roundtrip() {
        let agent = agent(512, 8);
        let user = Key256::from_passphrase("alice");
        let per = agent.fs().content_bytes_per_block();
        let content = vec![1u8; per * 5];
        let id = agent.create_file(&user, "/alice/db", &content).unwrap();
        assert_eq!(agent.num_blocks(id).unwrap(), 5);

        let new_block = vec![7u8; per];
        agent.update_block(id, 3, &new_block).unwrap();
        let read = agent.read_file(id).unwrap();
        assert_eq!(&read[3 * per..4 * per], &new_block[..]);
        assert_eq!(&read[..per], &content[..per]);
        assert_eq!(agent.read_block(id, 3).unwrap()[..per], new_block[..]);

        // Close the loop through a flush and a fresh open.
        agent.flush().unwrap();
        let id2 = agent.open_file(&user, "/alice/db").unwrap();
        assert_eq!(agent.read_file(id2).unwrap(), read);
    }

    /// A device gate for the one-call-at-a-time tests: once armed, the first
    /// write parks until the test releases it. Each request is logged with
    /// its thread as it goes on to the device, after any park.
    #[derive(Clone, Default)]
    pub(crate) struct WriteGate {
        log: Arc<Mutex<Vec<ThreadId>>>,
        armed: Arc<Mutex<Option<Park>>>,
    }

    /// Where a parked write says it has parked, and waits to be released.
    type Park = (mpsc::Sender<()>, mpsc::Receiver<()>);

    impl WriteGate {
        pub(crate) fn device(
            &self,
            num_blocks: u64,
        ) -> Layered<MemDevice, impl Fn(&MemDevice, Io) -> Result<(), DeviceError> + Send + Sync>
        {
            let gate = self.clone();
            let hook = move |_: &MemDevice, io: Io| {
                let park = gate.armed.lock().take_if(|_| io.kind == IoKind::Write);
                if let Some((parked, release)) = park {
                    parked.send(()).unwrap();
                    release.recv().unwrap();
                }
                gate.log.lock().push(std::thread::current().id());
                Ok(())
            };
            Layered::with_hook(MemDevice::new(num_blocks, 512), hook)
        }

        /// Run `update` on one thread until its first write parks, start
        /// `read` on a second, release the update 200 ms later, and assert
        /// that every request of the read comes after the update's last.
        pub(crate) fn read_during_update(
            &self,
            update: impl FnOnce() + Send,
            read: impl FnOnce() + Send,
        ) {
            self.log.lock().clear();
            let (updater, reader) = std::thread::scope(|s| {
                let (parked_tx, parked) = mpsc::channel();
                let (release, release_rx) = mpsc::channel();
                *self.armed.lock() = Some((parked_tx, release_rx));
                let updater = s.spawn(update);
                parked
                    .recv_timeout(Duration::from_secs(10))
                    .expect("the update never wrote");
                let reader = s.spawn(read);
                std::thread::sleep(Duration::from_millis(200));
                release.send(()).unwrap();
                let ids = (updater.thread().id(), reader.thread().id());
                updater.join().unwrap();
                reader.join().unwrap();
                ids
            });
            let order: String = (self.log.lock().iter())
                .map(|&t| match t {
                    t if t == updater => 'U',
                    t if t == reader => 'R',
                    _ => '?',
                })
                .collect();
            let last_update = order.rfind('U').expect("the update made no request");
            let first_read = order.find('R').expect("the read made no request");
            assert!(
                first_read > last_update,
                "the read ran inside the update (U: update, R: read): {order}"
            );
        }
    }

    #[test]
    fn concurrent_calls_wait_for_an_update_in_flight() {
        let gate = WriteGate::default();
        let agent = ConcurrentAgent::format(
            gate.device(512),
            StegFsConfig::default().with_block_size(512),
            AgentConfig::default(),
            Key256::from_passphrase(AGENT_SECRET),
            7,
            8,
        )
        .unwrap();
        let per = agent.fs().content_bytes_per_block();
        let user = Key256::from_passphrase("gate");
        let a = agent.create_file(&user, "/a", &vec![1u8; per * 2]).unwrap();
        let b = agent.create_file(&user, "/b", &vec![2u8; per * 2]).unwrap();
        gate.read_during_update(
            || {
                agent.update_block(a, 0, &vec![3u8; per]).unwrap();
            },
            || assert_eq!(agent.read_block(b, 0).unwrap(), vec![2u8; per]),
        );
        assert_eq!(agent.read_block(a, 0).unwrap(), vec![3u8; per]);
    }

    #[test]
    fn dummy_batch_touches_k_payload_blocks_and_counts() {
        let agent = agent(256, 4);
        let touched = agent.dummy_update_batch(64).unwrap();
        assert_eq!(touched.len(), 64);
        assert!(touched.iter().all(|&b| (1..256).contains(&b)));
        let stats = agent.stats();
        assert_eq!(stats.dummy_updates, 64);
        assert_eq!(stats.mean_ios_per_data_update(), 0.0, "no data update yet");
    }

    /// The reseal grouping is a contract, not a layout: a dummy batch
    /// writes its victims stably sorted by `b % num_shards`, so the request
    /// order (and every pinned image) depends on the grouping number alone.
    #[test]
    fn dummy_batch_reseals_in_shard_groups() {
        let mut orders = Vec::new();
        for shards in [1, 16] {
            let log = TraceLog::new();
            let agent = ConcurrentAgent::format(
                TracingDevice::with_log(MemDevice::new(512, 512), log.clone()),
                StegFsConfig::default().with_block_size(512),
                AgentConfig::default(),
                Key256::from_passphrase(AGENT_SECRET),
                7,
                shards,
            )
            .unwrap();
            log.clear();
            let victims = agent.dummy_update_batch(12).unwrap();
            let writes: Vec<BlockId> = (log.records().iter())
                .filter(|r| r.kind == IoKind::Write)
                .map(|r| r.block)
                .collect();
            let mut grouped = victims.clone();
            grouped.sort_by_key(|&b| b % agent.map().num_shards() as u64);
            assert_eq!(writes, grouped, "{shards} shards: victims {victims:?}");
            orders.push(writes);
        }
        assert_ne!(
            orders[0], orders[1],
            "the seed must tell the groupings apart"
        );
    }

    #[test]
    fn dummy_updates_do_not_corrupt_data() {
        let agent = agent(256, 8);
        let user = Key256::from_passphrase("bob");
        let per = agent.fs().content_bytes_per_block();
        let content = vec![0x42u8; per * 4];
        let id = agent.create_file(&user, "/bob/f", &content).unwrap();
        for _ in 0..20 {
            agent.dummy_update_batch(10).unwrap();
        }
        assert_eq!(agent.read_file(id).unwrap(), content);
        assert_eq!(agent.stats().dummy_updates, 200);
    }

    #[test]
    fn concurrent_updates_and_reads_preserve_every_file() {
        let agent = agent(1024, 8);
        let per = agent.fs().content_bytes_per_block();
        let users = 4usize;
        let ids: Vec<FileId> = (0..users)
            .map(|u| {
                let secret = Key256::from_passphrase(&format!("user-{u}"));
                agent
                    .create_file(&secret, &format!("/u{u}"), &vec![u as u8; per * 4])
                    .unwrap()
            })
            .collect();

        std::thread::scope(|s| {
            for (u, &id) in ids.iter().enumerate() {
                let agent = &agent;
                s.spawn(move || {
                    for round in 0..8u64 {
                        let fill = (u as u8) ^ (round as u8) | 0x80;
                        agent.update_block(id, round % 4, &vec![fill; per]).unwrap();
                        agent.read_block(id, round % 4).unwrap();
                    }
                });
            }
            let agent = &agent;
            s.spawn(move || {
                for _ in 0..16 {
                    agent.dummy_update_batch(8).unwrap();
                }
            });
        });

        // Every file still reads back: position (round % 4) holds the last
        // fill its owner wrote.
        for (u, &id) in ids.iter().enumerate() {
            let read = agent.read_file(id).unwrap();
            let expected_last = (u as u8) ^ 7u8 | 0x80;
            assert_eq!(read[3 * per], expected_last, "user {u} block 3");
        }
        let stats = agent.stats();
        assert_eq!(stats.data_updates, users as u64 * 8);
        assert_eq!(
            stats.dummy_updates,
            128 + stats.iterations - stats.data_updates
        );
        assert!(agent.map().counters_are_consistent());
    }

    #[test]
    fn relocation_reclassifies_and_conserves_blocks() {
        let agent = agent(1024, 8);
        let user = Key256::from_passphrase("carol");
        let per = agent.fs().content_bytes_per_block();
        let id = agent.create_file(&user, "/c", &vec![1u8; per * 2]).unwrap();
        let before_data = agent.map().data_blocks();

        let mut relocated = false;
        for i in 0..20u64 {
            match agent.update_block(id, 0, &vec![i as u8; per]).unwrap() {
                UpdateOutcome::Relocated { from, to } => {
                    relocated = true;
                    assert_eq!(agent.map().class(from), BlockClass::Dummy);
                    assert_eq!(agent.map().class(to), BlockClass::Data);
                }
                UpdateOutcome::InPlace { .. } => {}
            }
        }
        assert!(relocated, "expected at least one relocation in 20 updates");
        // Relocation swaps classifications one for one.
        assert_eq!(agent.map().data_blocks(), before_data);
        assert!(agent.map().counters_are_consistent());
    }

    #[test]
    fn reopening_a_file_returns_the_same_id() {
        // Two sessions opening the same physical file must share one cached
        // header; a second id would let their updates diverge and the last
        // flushed header win.
        let agent = agent(512, 8);
        let user = Key256::from_passphrase("erin");
        let per = agent.fs().content_bytes_per_block();
        let id = agent.create_file(&user, "/e", &vec![3u8; per * 2]).unwrap();
        agent.flush().unwrap();
        assert_eq!(agent.open_file(&user, "/e").unwrap(), id);
        assert_eq!(agent.open_file(&user, "/e").unwrap(), id);
        // Updates through the reopened handle land in the one shared header.
        agent.update_block(id, 1, &vec![9u8; per]).unwrap();
        assert_eq!(agent.read_block(id, 1).unwrap()[..per], vec![9u8; per][..]);
    }

    #[test]
    fn unknown_file_and_oversized_payload_error() {
        let agent = agent(256, 4);
        assert!(matches!(
            agent.read_file(999),
            Err(AgentError::UnknownFile(999))
        ));
        let user = Key256::from_passphrase("dan");
        let per = agent.fs().content_bytes_per_block();
        let id = agent.create_file(&user, "/d", &vec![0u8; per]).unwrap();
        assert!(matches!(
            agent.update_block(id, 0, &vec![0u8; per + 1]),
            Err(AgentError::PayloadTooLarge { .. })
        ));
        assert!(matches!(
            agent.update_block(id, 99, &vec![0u8; per]),
            Err(AgentError::Fs(stegfs_base::FsError::OutOfBounds { .. }))
        ));
    }
}
