//! Construction 2 (the paper's **StegHide**, Section 4.2): the agent keeps
//! *no* persistent secrets.
//!
//! Each hidden file is encrypted under its own keys, dummy blocks are
//! organised into per-user dummy files "of approximately the size of data
//! files", and both kinds of FAK are disclosed to the agent only when the
//! user logs on. When the agent starts it has zero knowledge of the volume;
//! its view — and therefore the region of storage it dummy-updates — grows
//! as users log in, and is forgotten again at logout or restart.
//!
//! [`ConcurrentVolatileAgent`] is that keying plus session lifecycle over the
//! shared [`Engine`]; every method takes `&self`:
//!
//! * **login and logout are structural**: they open/forget many files,
//!   re-classify all their blocks and mutate the registry wholesale, so they
//!   exclude all per-block traffic — a logout can never race a read or
//!   update of the session's own blocks;
//! * the **session table is sharded** by session id: ownership checks on
//!   different shards never contend, and a login storm distributes its
//!   bookkeeping instead of serialising on one map;
//! * **candidates** (dummy-update victims and relocation targets alike) are
//!   drawn from the *known* universe only — the blocks of files disclosed by
//!   logged-in sessions, exactly Construction 2's visibility rule — and a
//!   relocation target is a content block of a disclosed *dummy* file
//!   (Section 4.2.2, the user's own decoys).
//!
//! Sessions of the same user may overlap: files are reference-counted, so a
//! file stays registered (and its blocks stay visible) until the last
//! session disclosing it logs out.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, RwLock};

use stegfs_base::{
    BlockClass, FileAccessKey, FileKind, FsError, OpenFile, ShardedBlockMap, StegFs, StegFsConfig,
};
use stegfs_blockdev::{BlockDevice, BlockId};
use stegfs_crypto::{HashDrbg, Key256};

use crate::config::AgentConfig;
use crate::engine::{Engine, Exclusive, Keying, Reseal, Shared, SwapTarget, UpdateOutcome};
use crate::error::AgentError;
use crate::registry::{BlockRole, FileId, Registry};
use crate::stats::UpdateStats;

/// Identifier of a login session.
pub type SessionId = u64;

/// One (path, FAK) pair a user discloses when logging on. Users disclose
/// their hidden files *and* their dummy files — the agent cannot tell which
/// is which until it opens the header, and the distinction never leaves the
/// agent's volatile memory.
#[derive(Debug, Clone)]
pub struct UserCredential {
    /// Path of the file.
    pub path: String,
    /// File access key.
    pub fak: FileAccessKey,
}

impl UserCredential {
    /// Convenience constructor.
    pub fn new(path: impl Into<String>, fak: FileAccessKey) -> Self {
        Self {
            path: path.into(),
            fak,
        }
    }
}

struct Session {
    user: String,
    files: Vec<FileId>,
}

/// Construction 2 keying: every answer comes from what logged-in users have
/// disclosed.
pub(crate) struct DisclosedKeys;

impl Keying for DisclosedKeys {
    fn draw(&self, _: u64, registry: &RwLock<Registry>, rng: &mut HashDrbg) -> Option<BlockId> {
        registry.read().random_known_block(rng)
    }

    fn claim_swap_target(
        &self,
        map: &ShardedBlockMap,
        registry: &RwLock<Registry>,
        b2: BlockId,
    ) -> Option<SwapTarget> {
        let target = {
            let registry = registry.read();
            match registry.owner_of(b2)? {
                (file, BlockRole::Content(index)) if registry.get(file)?.is_dummy() => {
                    SwapTarget::DummyFile { file, index }
                }
                _ => return None,
            }
        };
        // Losing the claim means a concurrent update is converting B2 right
        // now; the caller's dummy update of it will skip.
        map.claim(b2, BlockClass::Dummy, BlockClass::Data)
            .then_some(target)
    }

    fn reseal(&self, map: &ShardedBlockMap, registry: &RwLock<Registry>, block: BlockId) -> Reseal {
        let registry = registry.read();
        // A drawn block is always attributed (logout is structural), but Skip
        // is the safe answer if it is not.
        let Some((file, role)) = registry
            .owner_of(block)
            .and_then(|(id, role)| Some((registry.get(id)?, role)))
        else {
            return Reseal::Skip;
        };
        match role {
            BlockRole::Header | BlockRole::Indirect(_) => Reseal::Key(*file.fak.header_key()),
            BlockRole::Content(_) => match (file.header.kind, file.fak.content_key()) {
                (FileKind::Data, Some(key)) => Reseal::Key(*key),
                // Dummy-file content (or a data file whose content key was
                // withheld): the bytes are meaningless — unless the block has
                // just been claimed as a relocation target.
                _ if map.class(block) == BlockClass::Data => Reseal::Skip,
                _ => Reseal::Random,
            },
        }
    }

    fn content_key(&self, file: &OpenFile) -> Result<Key256, AgentError> {
        file.fak
            .content_key()
            .copied()
            .ok_or(AgentError::Fs(FsError::NoContentKey))
    }
}

/// The Construction 2 agent (StegHide).
pub struct ConcurrentVolatileAgent<D> {
    pub(crate) engine: Engine<D, DisclosedKeys>,
    /// Sessions, sharded by `session % shards`.
    sessions: Vec<RwLock<HashMap<SessionId, Session>>>,
    /// How many live sessions disclosed each registered file.
    open_counts: Mutex<HashMap<FileId, usize>>,
    next_session: AtomicU64,
}

impl<D: BlockDevice> ConcurrentVolatileAgent<D> {
    fn assemble(fs: StegFs<D>, map: ShardedBlockMap, agent_cfg: AgentConfig, seed: u64) -> Self {
        Self {
            sessions: (0..map.num_shards())
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            engine: Engine::new(fs, map, agent_cfg, seed ^ 0x9e3779b9, DisclosedKeys),
            open_counts: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
        }
    }

    /// Format `device` as a fresh volume. The returned agent's block map
    /// reflects the freshly formatted (all-dummy) volume, which makes it
    /// suitable for the provisioning phase: creating users' initial hidden
    /// and dummy files before the system goes live. A production agent then
    /// restarts ([`ConcurrentVolatileAgent::into_device`] +
    /// [`ConcurrentVolatileAgent::mount`]) and runs with zero knowledge.
    pub fn format(
        device: D,
        fs_cfg: StegFsConfig,
        agent_cfg: AgentConfig,
        seed: u64,
    ) -> Result<Self, AgentError> {
        let (fs, map) = StegFs::format(device, fs_cfg, seed)?;
        Ok(Self::assemble(fs, map, agent_cfg, seed))
    }

    /// Attach to an existing volume with zero knowledge, the production
    /// posture of Construction 2: every payload block starts out
    /// [`BlockClass::Unknown`] and the agent only ever touches blocks of
    /// files that logged-in users disclose.
    pub fn mount(
        device: D,
        agent_cfg: AgentConfig,
        seed: u64,
        num_shards: usize,
    ) -> Result<Self, AgentError> {
        let fs = StegFs::mount(device)?;
        let map = ShardedBlockMap::new_unknown(fs.superblock().num_blocks, num_shards);
        Ok(Self::assemble(fs, map, agent_cfg, seed))
    }

    /// Run a [`StegFs`] creation path during the set-up phase (requires a map
    /// with known dummy blocks, i.e. an agent obtained from
    /// [`ConcurrentVolatileAgent::format`]). Nothing is registered: the files
    /// are found again when their owners log in.
    fn provision(
        &self,
        make: impl FnOnce(&StegFs<D>, &ShardedBlockMap) -> Result<OpenFile, FsError>,
    ) -> Result<(), AgentError> {
        let _exclusive = self.engine.exclusive();
        make(&self.engine.fs, &self.engine.map)?;
        Ok(())
    }

    /// Provision a hidden file.
    pub fn provision_file(
        &self,
        path: &str,
        fak: &FileAccessKey,
        content: &[u8],
    ) -> Result<(), AgentError> {
        self.provision(|fs, map| fs.create_file(map, path, fak, content))
    }

    /// Provision a hidden file of `size` bytes without writing its content
    /// blocks (benchmark set-up helper).
    pub fn provision_file_sparse(
        &self,
        path: &str,
        fak: &FileAccessKey,
        size: u64,
    ) -> Result<(), AgentError> {
        self.provision(|fs, map| fs.create_file_sparse(map, path, fak, size))
    }

    /// Provision a dummy file of `num_blocks` blocks.
    pub fn provision_dummy_file(
        &self,
        path: &str,
        fak: &FileAccessKey,
        num_blocks: u64,
    ) -> Result<(), AgentError> {
        self.provision(|fs, map| fs.create_dummy_file(map, path, fak, num_blocks))
    }

    /// Provision a dummy file without re-randomising its content blocks (they
    /// already hold random bytes on a formatted volume); benchmark set-up
    /// helper.
    pub fn provision_dummy_file_sparse(
        &self,
        path: &str,
        fak: &FileAccessKey,
        num_blocks: u64,
    ) -> Result<(), AgentError> {
        self.provision(|fs, map| fs.create_dummy_file_sparse(map, path, fak, num_blocks))
    }

    fn session_shard(&self, session: SessionId) -> &RwLock<HashMap<SessionId, Session>> {
        &self.sessions[(session as usize) % self.sessions.len()]
    }

    /// Log a user on: open every disclosed file, add its blocks to the
    /// agent's view, and return the session id. Structural: it excludes all
    /// per-block traffic for its duration.
    pub fn login(
        &self,
        user: &str,
        credentials: &[UserCredential],
    ) -> Result<SessionId, AgentError> {
        let exclusive = self.engine.exclusive();
        let mut counts = self.open_counts.lock();
        let mut files = Vec::with_capacity(credentials.len());
        for cred in credentials {
            let file = match self.engine.fs.open_file(&cred.fak, &cred.path) {
                Ok(file) => file,
                Err(e) => {
                    // Roll back the files this login already opened.
                    for id in files {
                        self.release_file(&exclusive, &mut counts, id);
                    }
                    return Err(e.into());
                }
            };
            // Re-disclosure of an already-registered file (another live
            // session of the same user) reuses the id and its cached header.
            let (id, fresh) = self.engine.register(file);
            if fresh {
                // Registered a moment ago, under the exclusive side: no
                // close can have taken it out since.
                if let Some(file) = self.engine.registry.read().get(id) {
                    self.engine.fs.register_file(&self.engine.map, file);
                }
            }
            *counts.entry(id).or_insert(0) += 1;
            files.push(id);
        }
        let session = self.next_session.fetch_add(1, Ordering::Relaxed);
        self.session_shard(session).write().insert(
            session,
            Session {
                user: user.to_string(),
                files,
            },
        );
        Ok(session)
    }

    /// Drop one disclosure of `id`; on the last one, forget the file's keys
    /// and block classifications. The header must already be saved.
    fn release_file(
        &self,
        exclusive: &Exclusive<'_, D, DisclosedKeys>,
        counts: &mut HashMap<FileId, usize>,
        id: FileId,
    ) {
        let Some(remaining) = counts.get_mut(&id) else {
            return;
        };
        *remaining -= 1;
        if *remaining > 0 {
            return;
        }
        counts.remove(&id);
        if let Some(file) = exclusive.unregister(id) {
            for b in file.all_blocks() {
                self.engine.map.set(b, BlockClass::Unknown);
            }
        }
    }

    /// Log a user off: persist dirty headers, then forget every file, key
    /// and block classification the session contributed (unless another live
    /// session still disclosed the same file). Structural.
    ///
    /// If a header cannot be written the error is returned and the session
    /// stays logged in, untouched, so the caller can retry: forgetting a
    /// relocated file whose on-disk header still names its abandoned blocks
    /// would hand the next login stale — or by then re-claimed — blocks.
    pub fn logout(&self, session: SessionId) -> Result<(), AgentError> {
        let exclusive = self.engine.exclusive();
        let files = self.session_files(session)?;
        for &id in &files {
            exclusive.save(id)?;
        }
        self.session_shard(session).write().remove(&session);
        let mut counts = self.open_counts.lock();
        for id in files {
            self.release_file(&exclusive, &mut counts, id);
        }
        Ok(())
    }

    /// Users currently logged in (sorted, duplicates preserved per session).
    pub fn logged_in_users(&self) -> Vec<String> {
        let mut users: Vec<String> = self
            .sessions
            .iter()
            .flat_map(|shard| {
                shard
                    .read()
                    .values()
                    .map(|s| s.user.clone())
                    .collect::<Vec<_>>()
            })
            .collect();
        users.sort();
        users
    }

    /// File ids registered by a session, in credential order (files created
    /// during the session follow).
    pub fn session_files(&self, session: SessionId) -> Result<Vec<FileId>, AgentError> {
        Ok(self
            .session_shard(session)
            .read()
            .get(&session)
            .ok_or(AgentError::UnknownSession(session))?
            .files
            .clone())
    }

    /// Enter as per-block traffic on a file `session` disclosed. The check
    /// runs inside the structural read lock, so it cannot race a logout.
    fn shared_for(
        &self,
        session: SessionId,
        id: FileId,
    ) -> Result<Shared<'_, D, DisclosedKeys>, AgentError> {
        let shared = self.engine.shared();
        self.check_ownership(session, id)?;
        Ok(shared)
    }

    fn check_ownership(&self, session: SessionId, id: FileId) -> Result<(), AgentError> {
        let shard = self.session_shard(session).read();
        let s = shard
            .get(&session)
            .ok_or(AgentError::UnknownSession(session))?;
        if s.files.contains(&id) {
            Ok(())
        } else {
            Err(AgentError::UnknownFile(id))
        }
    }

    /// Create a new hidden file for a logged-in user by converting blocks of
    /// the disclosed dummy files into data blocks. This is how new data
    /// enters the system at runtime without the agent needing any global
    /// free-space knowledge. Structural.
    pub fn create_file_from_dummies(
        &self,
        session: SessionId,
        path: &str,
        fak: &FileAccessKey,
        content: &[u8],
    ) -> Result<FileId, AgentError> {
        let _exclusive = self.engine.exclusive();
        let mut sessions = self.session_shard(session).write();
        let state = sessions
            .get_mut(&session)
            .ok_or(AgentError::UnknownSession(session))?;
        let fs = &self.engine.fs;
        let file = fs.create_file(&self.engine.map, path, fak, content)?;
        fs.register_file(&self.engine.map, &file);

        // Creating the file consumed blocks the map classified as dummy;
        // here those belong to disclosed dummy files, whose headers must stop
        // referencing them.
        {
            let mut registry = self.engine.registry.write();
            for block in file.all_blocks() {
                let Some((owner, BlockRole::Content(_))) = registry.owner_of(block) else {
                    continue;
                };
                if registry.get(owner).is_some_and(|f| f.is_dummy()) {
                    registry.donate_content_block(
                        owner,
                        block,
                        fs.content_bytes_per_block() as u64,
                    );
                }
            }
        }
        let (id, _) = self.engine.register(file);
        self.open_counts.lock().insert(id, 1);
        state.files.push(id);
        Ok(id)
    }

    /// Read a whole file as one consistent snapshot.
    pub fn read_file(&self, session: SessionId, id: FileId) -> Result<Vec<u8>, AgentError> {
        self.shared_for(session, id)?.read_file(id)
    }

    /// Read one content block.
    pub fn read_block(
        &self,
        session: SessionId,
        id: FileId,
        index: u64,
    ) -> Result<Vec<u8>, AgentError> {
        self.shared_for(session, id)?.read_block(id, index)
    }

    /// Number of content blocks of an open file.
    pub fn num_blocks(&self, session: SessionId, id: FileId) -> Result<u64, AgentError> {
        self.check_ownership(session, id)?;
        self.engine.num_blocks(id)
    }

    /// Update one content block with the Figure 6 algorithm. Relocation
    /// targets are drawn from the dummy blocks disclosed by logged-in users.
    pub fn update_block(
        &self,
        session: SessionId,
        id: FileId,
        index: u64,
        payload: &[u8],
    ) -> Result<UpdateOutcome, AgentError> {
        self.shared_for(session, id)?
            .update_block(id, index, payload)
    }

    /// Update `count` consecutive blocks with a fill byte (Figure 11(b)'s
    /// range-update workload).
    pub fn update_range_fill(
        &self,
        session: SessionId,
        id: FileId,
        start_index: u64,
        count: u64,
        fill: u8,
    ) -> Result<Vec<UpdateOutcome>, AgentError> {
        self.shared_for(session, id)?
            .update_range_fill(id, start_index, count, fill)
    }

    /// Issue `k` idle-time dummy updates over the blocks the agent currently
    /// knows about; returns the touched blocks. With nobody logged in there
    /// is nothing the agent can touch ([`AgentError::NothingToUpdate`]) — the
    /// price of volatility the paper notes.
    pub fn dummy_update_batch(&self, k: usize) -> Result<Vec<BlockId>, AgentError> {
        self.engine.shared().dummy_update_batch(k)
    }

    /// Save the cached header of one file. Structural.
    pub fn save_file(&self, session: SessionId, id: FileId) -> Result<(), AgentError> {
        let exclusive = self.engine.exclusive();
        self.check_ownership(session, id)?;
        exclusive.save(id)
    }

    /// Write back every dirty cached header. Structural.
    pub fn flush(&self) -> Result<(), AgentError> {
        self.engine.exclusive().flush()
    }

    /// Update statistics collected so far.
    pub fn stats(&self) -> UpdateStats {
        self.engine.stats.snapshot()
    }

    /// The agent's (volatile) block map.
    pub fn map(&self) -> &ShardedBlockMap {
        &self.engine.map
    }

    /// Quiesce all traffic and audit the map: cached per-shard counters agree
    /// with the class vectors and every block is in exactly one class. The
    /// only way to observe counter consistency while other threads are live;
    /// sampling [`ConcurrentVolatileAgent::map`] mid-flight races in-flight
    /// claim/counter pairs by design.
    pub fn audit_map_consistency(&self) -> bool {
        let _exclusive = self.engine.exclusive();
        let map = &self.engine.map;
        map.counters_are_consistent()
            && map.data_blocks() + map.dummy_blocks() + map.unknown_blocks() + map.reserved_blocks()
                == map.num_blocks()
    }

    /// The underlying file system.
    pub fn fs(&self) -> &StegFs<D> {
        &self.engine.fs
    }

    /// Shard count of the map, the update-lock array and the session table.
    pub fn num_shards(&self) -> usize {
        self.engine.map.num_shards()
    }

    /// Consume the agent and return the underlying device (simulated agent
    /// restart — all volatile knowledge is forgotten).
    pub fn into_device(self) -> D {
        self.engine.fs.into_device()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use stegfs_blockdev::MemDevice;

    /// Provision `device` with a data file (six blocks of a known pattern)
    /// and an eight-block dummy file for each of `users`, then restart the
    /// agent so it has zero knowledge. Returns the data files' content.
    pub(crate) fn provisioned_on<D: BlockDevice>(
        device: D,
        users: &[&str],
        cfg: AgentConfig,
    ) -> (ConcurrentVolatileAgent<D>, Vec<u8>) {
        let fs_cfg = StegFsConfig::default().with_block_size(512);
        let setup = ConcurrentVolatileAgent::format(device, fs_cfg, cfg, 21).unwrap();
        let per = setup.fs().content_bytes_per_block();
        let content = (0..per * 6).map(|i| (i % 251) as u8).collect::<Vec<u8>>();
        for user in users {
            let creds = credentials(user);
            setup
                .provision_file(&creds[0].path, &creds[0].fak, &content)
                .unwrap();
            setup
                .provision_dummy_file(&creds[1].path, &creds[1].fak, 8)
                .unwrap();
        }
        let agent = ConcurrentVolatileAgent::mount(setup.into_device(), cfg, 77, 8).unwrap();
        (agent, content)
    }

    fn provisioned() -> (ConcurrentVolatileAgent<MemDevice>, Vec<u8>) {
        provisioned_on(
            MemDevice::new(2048, 512),
            &["alice", "bob"],
            AgentConfig::default(),
        )
    }

    /// What `user` discloses at login: the data file, then the dummy file.
    pub(crate) fn credentials(user: &str) -> Vec<UserCredential> {
        vec![
            UserCredential::new(
                format!("/{user}/data"),
                FileAccessKey::from_passphrase(&format!("{user}-data")),
            ),
            UserCredential::new(
                format!("/{user}/dummy"),
                FileAccessKey::from_passphrase(&format!("{user}-dummy")).without_content_key(),
            ),
        ]
    }

    #[test]
    fn fresh_agent_knows_nothing() {
        let (agent, _) = provisioned();
        assert_eq!(agent.map().data_blocks(), 0);
        assert!(matches!(
            agent.dummy_update_batch(1),
            Err(AgentError::NothingToUpdate)
        ));
    }

    #[test]
    fn login_read_update_logout_roundtrip() {
        let (agent, content) = provisioned();
        let per = agent.fs().content_bytes_per_block();
        let session = agent.login("alice", &credentials("alice")).unwrap();
        let files = agent.session_files(session).unwrap();
        assert_eq!(agent.read_file(session, files[0]).unwrap(), content);

        let new_block = vec![0xABu8; per];
        agent
            .update_block(session, files[0], 2, &new_block)
            .unwrap();
        let read = agent.read_file(session, files[0]).unwrap();
        assert_eq!(&read[2 * per..3 * per], &new_block[..]);
        assert_eq!(agent.dummy_update_batch(3).unwrap().len(), 3);
        assert!(agent.map().counters_are_consistent());

        agent.logout(session).unwrap();
        assert_eq!(agent.map().data_blocks(), 0, "view forgotten at logout");
        assert_eq!(agent.map().unknown_blocks(), agent.map().num_blocks() - 1);

        // The update survived the logout: a fresh session reads it back.
        let session2 = agent.login("alice", &credentials("alice")).unwrap();
        let files2 = agent.session_files(session2).unwrap();
        let read2 = agent.read_file(session2, files2[0]).unwrap();
        assert_eq!(&read2[2 * per..3 * per], &new_block[..]);
    }

    #[test]
    fn overlapping_sessions_refcount_shared_files() {
        let (agent, content) = provisioned();
        let s1 = agent.login("alice", &credentials("alice")).unwrap();
        let s2 = agent.login("alice", &credentials("alice")).unwrap();
        let f1 = agent.session_files(s1).unwrap();
        let f2 = agent.session_files(s2).unwrap();
        assert_eq!(f1, f2, "re-disclosure reuses ids");
        agent.logout(s1).unwrap();
        // s2 still sees everything.
        assert_eq!(agent.read_file(s2, f2[0]).unwrap(), content);
        assert!(agent.map().data_blocks() > 0);
        agent.logout(s2).unwrap();
        assert_eq!(agent.map().data_blocks(), 0);
    }

    #[test]
    fn sessions_cannot_touch_each_others_files() {
        let (agent, _) = provisioned();
        let alice = agent.login("alice", &credentials("alice")).unwrap();
        let bob = agent.login("bob", &credentials("bob")).unwrap();
        let alice_files = agent.session_files(alice).unwrap();
        assert!(matches!(
            agent.read_file(bob, alice_files[0]),
            Err(AgentError::UnknownFile(_))
        ));
        assert!(matches!(
            agent.update_block(bob, alice_files[0], 0, b"x"),
            Err(AgentError::UnknownFile(_))
        ));
        assert!(matches!(
            agent.logout(999),
            Err(AgentError::UnknownSession(999))
        ));
    }

    #[test]
    fn updates_relocate_into_the_users_dummy_blocks() {
        let (agent, _) = provisioned();
        let session = agent.login("alice", &credentials("alice")).unwrap();
        let files = agent.session_files(session).unwrap();
        let per = agent.fs().content_bytes_per_block();
        let before_data = agent.map().data_blocks();

        let mut relocations = 0;
        for i in 0..16u64 {
            let payload = vec![i as u8 + 1; per];
            if matches!(
                agent
                    .update_block(session, files[0], i % 6, &payload)
                    .unwrap(),
                UpdateOutcome::Relocated { .. }
            ) {
                relocations += 1;
            }
        }
        assert!(relocations > 0, "expected at least one relocation");
        // Swap semantics conserve classes: the dummy file keeps its size and
        // the map keeps its counts.
        assert_eq!(agent.num_blocks(session, files[1]).unwrap(), 8);
        assert_eq!(agent.map().data_blocks(), before_data);
        assert!(agent.map().counters_are_consistent());
        assert_eq!(agent.stats().data_updates, 16);
    }
}
