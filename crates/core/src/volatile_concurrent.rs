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
//! The volume is provisioned on the substrate before any agent runs:
//!
//! ```text
//! let (fs, map) = StegFs::format(device, fs_cfg, seed)?;
//! fs.create_file(&map, "/alice/diary", &diary_fak, &diary)?;
//! fs.create_dummy_file(&map, "/alice/decoy", &decoy_fak, 16)?;
//! let agent = ConcurrentVolatileAgent::mount(fs.into_device(), agent_cfg, seed2, shards)?;
//! ```
//!
//! [`ConcurrentVolatileAgent::mount`] is the agent's only constructor, so the
//! agent never holds a map that knows the volume's free blocks.
//!
//! [`ConcurrentVolatileAgent`] is that keying plus session lifecycle over the
//! shared [`Engine`]. Every method takes `&self` and holds the engine's one
//! lock from start to end, so calls from many threads take turns:
//!
//! * the **session table** lives in the keying, under that lock: a login,
//!   a logout or a file creation is one call, and the ownership check that
//!   guards a read or an update runs inside the same call as the read or
//!   update, so it can never race a logout;
//! * **candidates** (dummy-update victims and relocation targets alike) are
//!   drawn from the *known* universe only — the blocks of files disclosed by
//!   logged-in sessions, exactly Construction 2's visibility rule, less the
//!   content of a data file disclosed without its content key — and a
//!   relocation target is a content block of a disclosed *dummy* file
//!   (Section 4.2.2, the user's own decoys).
//!
//! Sessions of the same user may overlap: a file stays registered (and its
//! blocks stay visible) until no live session lists it. The session table is
//! the only record of who disclosed what; the registry the only record of
//! what was disclosed.

use std::collections::HashMap;

use stegfs_base::{
    BlockClass, FileAccessKey, FileKind, FsError, OpenFile, ShardedBlockMap, StegFs,
};
use stegfs_blockdev::{BlockDevice, BlockId};
use stegfs_crypto::{HashDrbg, Key256};

use crate::config::AgentConfig;
use crate::engine::{Engine, Keying, Locked, Reseal, SwapTarget, UpdateOutcome};
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
/// disclosed, and the session table records who disclosed what.
pub(crate) struct DisclosedKeys {
    /// Live sessions and the files each one lists.
    sessions: HashMap<SessionId, Session>,
    next_session: SessionId,
}

impl DisclosedKeys {
    /// The files `session` lists.
    fn files(&self, session: SessionId) -> Result<&[FileId], AgentError> {
        Ok(&self
            .sessions
            .get(&session)
            .ok_or(AgentError::UnknownSession(session))?
            .files)
    }

    /// Whether `session` may touch file `id`.
    fn check_ownership(&self, session: SessionId, id: FileId) -> Result<(), AgentError> {
        if self.files(session)?.contains(&id) {
            Ok(())
        } else {
            Err(AgentError::UnknownFile(id))
        }
    }
}

impl Keying for DisclosedKeys {
    fn draw(&self, _: u64, registry: &Registry, rng: &mut HashDrbg) -> Option<BlockId> {
        registry.random_known_block(rng)
    }

    fn claim_swap_target(
        &self,
        map: &ShardedBlockMap,
        registry: &Registry,
        b2: BlockId,
    ) -> Option<SwapTarget> {
        let target = match registry.owner_of(b2)? {
            (file, BlockRole::Content(index)) if registry.get(file)?.is_dummy() => {
                SwapTarget::DummyFile { file, index }
            }
            _ => return None,
        };
        map.claim(b2, BlockClass::Dummy, BlockClass::Data)
            .then_some(target)
    }

    fn reseal(&self, registry: &Registry, block: BlockId) -> Result<Reseal, AgentError> {
        // Every drawn block is attributed and keyed: draws sample the
        // registry under the same lock, and the registry leaves out content
        // it holds no key for. A block it cannot key is never written.
        let (file, role) = registry
            .owner_of(block)
            .and_then(|(id, role)| Some((registry.get(id)?, role)))
            .ok_or(AgentError::NothingToUpdate)?;
        Ok(match role {
            BlockRole::Header | BlockRole::Indirect(_) => Reseal::Key(*file.fak.header_key()),
            BlockRole::Content(_) => match file.header.kind {
                FileKind::Data => Reseal::Key(self.content_key(file)?),
                // Dummy-file content: the bytes are meaningless.
                FileKind::Dummy => Reseal::Random,
            },
        })
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
}

impl<D: BlockDevice> ConcurrentVolatileAgent<D> {
    /// Attach to a provisioned volume with zero knowledge, the one posture
    /// of Construction 2: every payload block starts out
    /// [`BlockClass::Unknown`] and the agent only ever touches blocks of
    /// files that logged-in users disclose. `seed` drives the candidate draws
    /// and, in a stream of its own, the volume DRBG ([`StegFs::mount`]):
    /// give each restart a fresh one.
    ///
    /// Provisioning happens on the substrate before the agent exists:
    /// [`StegFs::format`], then `create_file`, `create_file_sparse`,
    /// `create_dummy_file` or `create_dummy_file_sparse` on the map it
    /// returns, then [`StegFs::into_device`] handed to this constructor.
    /// Nothing is registered then; the files are found again when their
    /// owners log in.
    pub fn mount(
        device: D,
        agent_cfg: AgentConfig,
        seed: u64,
        num_shards: usize,
    ) -> Result<Self, AgentError> {
        let fs = StegFs::mount(device, seed)?;
        let map = ShardedBlockMap::new_unknown(fs.superblock().num_blocks, num_shards);
        let keying = DisclosedKeys {
            sessions: HashMap::new(),
            next_session: 1,
        };
        Ok(Self {
            engine: Engine::new(fs, map, agent_cfg, seed ^ 0x9e3779b9, keying),
        })
    }

    /// Log a user on: open every disclosed file, add its blocks to the
    /// agent's view, and return the session id.
    pub fn login(
        &self,
        user: &str,
        credentials: &[UserCredential],
    ) -> Result<SessionId, AgentError> {
        let mut e = self.engine.lock();
        let mut files = Vec::with_capacity(credentials.len());
        for cred in credentials {
            let file = match self.engine.fs.open_file(&cred.fak, &cred.path) {
                Ok(file) => file,
                Err(err) => {
                    // Roll back the files this login already opened.
                    self.release_unlisted(&mut e, &files);
                    return Err(err.into());
                }
            };
            // Re-disclosure of an already-registered file (another live
            // session of the same user) reuses the id and its cached header.
            let (id, fresh) = e.registry.register(file);
            if let Some(file) = e.registry.get(id).filter(|_| fresh) {
                self.engine.fs.register_file(&self.engine.map, file);
            }
            files.push(id);
        }
        let keys = &mut e.keying;
        let session = keys.next_session;
        keys.next_session += 1;
        keys.sessions.insert(
            session,
            Session {
                user: user.to_string(),
                files,
            },
        );
        Ok(session)
    }

    /// Forget every file of `files` that no live session lists: its keys,
    /// its cached header and its blocks' classifications. Headers must
    /// already be saved.
    fn release_unlisted(&self, e: &mut Locked<'_, D, DisclosedKeys>, files: &[FileId]) {
        for &id in files {
            if e.keying.sessions.values().any(|s| s.files.contains(&id)) {
                continue;
            }
            if let Some(file) = e.registry.unregister(id) {
                for b in file.all_blocks() {
                    self.engine.map.set(b, BlockClass::Unknown);
                }
            }
        }
    }

    /// Log a user off: persist dirty headers, then forget every file, key
    /// and block classification the session contributed (unless another live
    /// session still lists the same file).
    ///
    /// If a header cannot be written the error is returned and the session
    /// stays logged in, untouched, so the caller can retry: forgetting a
    /// relocated file whose on-disk header still names its abandoned blocks
    /// would hand the next login stale — or by then re-claimed — blocks.
    pub fn logout(&self, session: SessionId) -> Result<(), AgentError> {
        let mut e = self.engine.lock();
        let files = e.keying.files(session)?.to_vec();
        for &id in &files {
            e.save(id)?;
        }
        e.keying.sessions.remove(&session);
        self.release_unlisted(&mut e, &files);
        Ok(())
    }

    /// Users currently logged in (sorted, duplicates preserved per session).
    pub fn logged_in_users(&self) -> Vec<String> {
        let e = self.engine.lock();
        let mut users: Vec<String> = e.keying.sessions.values().map(|s| s.user.clone()).collect();
        users.sort();
        users
    }

    /// File ids registered by a session, in credential order (files created
    /// during the session follow).
    pub fn session_files(&self, session: SessionId) -> Result<Vec<FileId>, AgentError> {
        Ok(self.engine.lock().keying.files(session)?.to_vec())
    }

    /// Take the engine's lock for a call on a file `session` disclosed.
    fn lock_for(
        &self,
        session: SessionId,
        id: FileId,
    ) -> Result<Locked<'_, D, DisclosedKeys>, AgentError> {
        let e = self.engine.lock();
        e.keying.check_ownership(session, id)?;
        Ok(e)
    }

    /// Create a new hidden file for a logged-in user by converting blocks of
    /// the disclosed dummy files into data blocks. This is how new data
    /// enters the system at runtime without the agent needing any global
    /// free-space knowledge.
    pub fn create_file_from_dummies(
        &self,
        session: SessionId,
        path: &str,
        fak: &FileAccessKey,
        content: &[u8],
    ) -> Result<FileId, AgentError> {
        let mut e = self.engine.lock();
        let state = &mut *e;
        let listed = state
            .keying
            .sessions
            .get_mut(&session)
            .ok_or(AgentError::UnknownSession(session))?;
        let registry = &mut state.registry;
        let fs = &self.engine.fs;
        let file = fs.create_file(&self.engine.map, path, fak, content)?;
        fs.register_file(&self.engine.map, &file);

        // Creating the file consumed blocks the map classified as dummy;
        // here those belong to disclosed dummy files, whose headers must stop
        // referencing them.
        for block in file.all_blocks() {
            let Some((owner, BlockRole::Content(_))) = registry.owner_of(block) else {
                continue;
            };
            if registry.get(owner).is_some_and(|f| f.is_dummy()) {
                registry.donate_content_block(owner, block, fs.content_bytes_per_block() as u64);
            }
        }
        let (id, _) = registry.register(file);
        listed.files.push(id);
        Ok(id)
    }

    /// Read a whole file as one consistent snapshot.
    pub fn read_file(&self, session: SessionId, id: FileId) -> Result<Vec<u8>, AgentError> {
        self.lock_for(session, id)?.read_file(id)
    }

    /// Read one content block.
    pub fn read_block(
        &self,
        session: SessionId,
        id: FileId,
        index: u64,
    ) -> Result<Vec<u8>, AgentError> {
        self.lock_for(session, id)?.read_block(id, index)
    }

    /// Number of content blocks of an open file.
    pub fn num_blocks(&self, session: SessionId, id: FileId) -> Result<u64, AgentError> {
        self.lock_for(session, id)?.num_blocks(id)
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
        self.lock_for(session, id)?.update_block(id, index, payload)
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
        self.lock_for(session, id)?
            .update_range_fill(id, start_index, count, fill)
    }

    /// Issue `k` idle-time dummy updates over the blocks the agent currently
    /// knows about; returns the touched blocks. With nobody logged in there
    /// is nothing the agent can touch ([`AgentError::NothingToUpdate`]) — the
    /// price of volatility the paper notes.
    pub fn dummy_update_batch(&self, k: usize) -> Result<Vec<BlockId>, AgentError> {
        self.engine.lock().dummy_update_batch(k)
    }

    /// Save the cached header of one file.
    pub fn save_file(&self, session: SessionId, id: FileId) -> Result<(), AgentError> {
        self.lock_for(session, id)?.save(id)
    }

    /// Write back every dirty cached header.
    pub fn flush(&self) -> Result<(), AgentError> {
        self.engine.lock().flush()
    }

    /// Update statistics collected so far.
    pub fn stats(&self) -> UpdateStats {
        self.engine.stats.snapshot()
    }

    /// The agent's (volatile) block map.
    pub fn map(&self) -> &ShardedBlockMap {
        &self.engine.map
    }

    /// Audit the map between calls: cached per-shard counters agree with the
    /// class vectors and every block is in exactly one class. The only way to
    /// observe counter consistency while other threads are live; sampling
    /// [`ConcurrentVolatileAgent::map`] mid-flight races a call's
    /// claim/counter pairs.
    pub fn audit_map_consistency(&self) -> bool {
        let _between_calls = self.engine.lock();
        let map = &self.engine.map;
        map.counters_are_consistent()
            && map.data_blocks() + map.dummy_blocks() + map.unknown_blocks() + map.reserved_blocks()
                == map.num_blocks()
    }

    /// The underlying file system.
    pub fn fs(&self) -> &StegFs<D> {
        &self.engine.fs
    }

    /// Shard count of the agent's block map.
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
    use stegfs_base::StegFsConfig;
    use stegfs_blockdev::MemDevice;

    /// Provision `device` with a data file (six blocks of a known pattern)
    /// and an eight-block dummy file for each of `users`, then mount the
    /// agent with zero knowledge. Returns the data files' content.
    pub(crate) fn provisioned_on<D: BlockDevice>(
        device: D,
        users: &[&str],
        cfg: AgentConfig,
    ) -> (ConcurrentVolatileAgent<D>, Vec<u8>) {
        let fs_cfg = StegFsConfig::default().with_block_size(512);
        let (fs, map) = StegFs::format(device, fs_cfg, 21).unwrap();
        let per = fs.content_bytes_per_block();
        let content = (0..per * 6).map(|i| (i % 251) as u8).collect::<Vec<u8>>();
        for user in users {
            let creds = credentials(user);
            fs.create_file(&map, &creds[0].path, &creds[0].fak, &content)
                .unwrap();
            fs.create_dummy_file(&map, &creds[1].path, &creds[1].fak, 8)
                .unwrap();
        }
        let agent = ConcurrentVolatileAgent::mount(fs.into_device(), cfg, 77, 8).unwrap();
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
    fn concurrent_calls_wait_for_an_update_in_flight() {
        let gate = crate::concurrent::tests::WriteGate::default();
        let (agent, content) =
            provisioned_on(gate.device(2048), &["alice", "bob"], AgentConfig::default());
        let per = agent.fs().content_bytes_per_block();
        let alice = agent.login("alice", &credentials("alice")).unwrap();
        let bob = agent.login("bob", &credentials("bob")).unwrap();
        let a = agent.session_files(alice).unwrap()[0];
        let b = agent.session_files(bob).unwrap()[0];
        gate.read_during_update(
            || {
                agent.update_block(alice, a, 0, &vec![3u8; per]).unwrap();
            },
            || assert_eq!(agent.read_block(bob, b, 0).unwrap(), content[..per]),
        );
        assert_eq!(agent.read_block(alice, a, 0).unwrap(), vec![3u8; per]);
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
