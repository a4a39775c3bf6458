//! A mount never replays the volume DRBG stream of an earlier session.
//!
//! Every IV, random fill and salt on a volume comes from one DRBG. If a
//! mount seeds it the way an earlier session did, the new session draws the
//! same bytes again: the same IV under the same key and plaintext gives the
//! same ciphertext, and the same random fill lands on another block. A
//! snapshot attacker who finds a 16-byte run twice on the device has linked
//! two writes. Each test records every block written in two sessions and
//! asserts that no 16-byte window of the later session appears anywhere in
//! the earlier one.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use stegfs_repro::blockdev::{Io, IoHook, IoKind, Layered};
use stegfs_repro::prelude::*;

const BLOCK_SIZE: usize = 512;

/// Records the bytes of every block written through it, as they landed.
#[derive(Clone, Default)]
struct Written(Arc<Mutex<Vec<Vec<u8>>>>);

impl IoHook<MemDevice> for Written {
    fn after(&self, inner: &MemDevice, io: Io) {
        if io.kind != IoKind::Write {
            return;
        }
        for block in io.block_ids() {
            let mut landed = vec![0u8; inner.block_size()];
            inner.read_block(block, &mut landed).unwrap();
            self.0.lock().unwrap().push(landed);
        }
    }
}

impl Written {
    /// The blocks written since the last call.
    fn take(&self) -> Vec<Vec<u8>> {
        std::mem::take(&mut *self.0.lock().unwrap())
    }
}

type Recorded = Layered<MemDevice, Written>;

fn recorded(blocks: u64) -> (Recorded, Written) {
    let written = Written::default();
    let device = Layered::with_hook(MemDevice::new(blocks, BLOCK_SIZE), written.clone());
    (device, written)
}

/// How many of `later`'s blocks share a 16-byte window, at any offset, with
/// any block of `earlier`.
fn blocks_replaying(earlier: &[Vec<u8>], later: &[Vec<u8>]) -> usize {
    let seen: HashSet<[u8; 16]> = earlier
        .iter()
        .flat_map(|block| block.windows(16))
        .map(|window| window.try_into().unwrap())
        .collect();
    later
        .iter()
        .filter(|block| {
            block
                .windows(16)
                .any(|window| seen.contains(&<[u8; 16]>::try_from(window).unwrap()))
        })
        .count()
}

fn credentials() -> Vec<UserCredential> {
    vec![
        UserCredential::new("/alice/data", FileAccessKey::from_passphrase("mount alice")),
        UserCredential::new(
            "/alice/dummy",
            FileAccessKey::from_passphrase("mount alice dummy").without_content_key(),
        ),
    ]
}

/// Two restarts of a Construction 2 agent under different seeds, each
/// running the same session: login, updates, a dummy batch, logout.
#[test]
fn volatile_agent_restarts_draw_fresh_bytes() {
    let fs_cfg = StegFsConfig::default().with_block_size(BLOCK_SIZE);
    let (device, written) = recorded(1024);
    let (fs, map) = StegFs::format(device, fs_cfg, 21).unwrap();
    let per = fs.content_bytes_per_block();
    let creds = credentials();
    fs.create_file(&map, &creds[0].path, &creds[0].fak, &vec![0x11; 6 * per])
        .unwrap();
    fs.create_dummy_file(&map, &creds[1].path, &creds[1].fak, 8)
        .unwrap();
    let mut device = fs.into_device();
    written.take();

    let mut sessions = Vec::new();
    for seed in [77, 1234] {
        let agent =
            ConcurrentVolatileAgent::mount(device, AgentConfig::default(), seed, 4).unwrap();
        let session = agent.login("alice", &creds).unwrap();
        let data = agent.session_files(session).unwrap()[0];
        for i in 0..6u64 {
            agent
                .update_block(session, data, i, &vec![i as u8; per])
                .unwrap();
        }
        agent.dummy_update_batch(8).unwrap();
        agent.logout(session).unwrap();
        sessions.push(written.take());
        device = agent.into_device();
    }
    assert!(!sessions[1].is_empty());
    assert_eq!(
        blocks_replaying(&sessions[0], &sessions[1]),
        0,
        "the second restart wrote bytes the first had written"
    );
}

/// A durable volume formatted and then opened with the same seed: nothing
/// written after the open repeats anything the formatting session wrote,
/// the superblock's salt included.
#[test]
fn durable_open_draws_fresh_bytes_after_format() {
    let cfg = ResilienceConfig::default()
        .with_fs(StegFsConfig::default().with_block_size(BLOCK_SIZE))
        .with_stripe(4, 2);
    let master = Key256::from_passphrase("mount owner");
    let (device, written) = recorded(512);
    let store = ResilientStore::format(device, cfg, &master, 41).unwrap();
    store.create_file("/a", &vec![0x22; 3000]).unwrap();
    store.write_block("/a", 2, &[0x33; 100]).unwrap();
    store.dummy_update_batch(16, None).unwrap();
    let formatted = written.take();

    let store = ResilientStore::open(store.into_device(), cfg, &master, 41).unwrap();
    store.write_block("/a", 1, &[0x44; 100]).unwrap();
    store.dummy_update_batch(16, None).unwrap();
    let opened = written.take();
    assert!(!opened.is_empty());
    assert_eq!(
        blocks_replaying(&formatted, &opened),
        0,
        "the open wrote bytes the format session had written"
    );
}
