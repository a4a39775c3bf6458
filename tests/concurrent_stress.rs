//! Stress/invariant suite for the concurrent serving layer: 8 threads of
//! mixed read / update / create tasks (plus oblivious reads straight at the
//! shared [`ObliviousStore`]) hammer one shared system through
//! [`ConcurrentDriver`] — the agent and the store each serve one call at a
//! time behind one lock, so the threads' calls take turns — then every
//! safety invariant is audited:
//!
//! * [`ObliviousStore::membership_is_consistent`] holds *during* the run
//!   (audited from the worker threads) and after it, and
//!   [`ObliviousStore::write_epoch`] is even (twice the structural passes
//!   run: no call sees one in flight);
//! * block-class conservation on the block map — every block is in exactly
//!   one class and the cached per-class counters agree with the class
//!   vector (`data + dummy + unknown + reserved == num_blocks`);
//! * every file reads back byte-identical to what its owner last wrote.
//!
//! Thread count defaults to 8 and can be pinned with `STEGFS_BENCH_THREADS`
//! (the CI `concurrent-stress` job does exactly that).

use stegfs_repro::oblivious::{ObliviousConfig, ObliviousStore};
use stegfs_repro::prelude::*;
use stegfs_repro::stegfs::DEFAULT_MAP_SHARDS;
use stegfs_repro::workload::ConcurrentDriver;
use steghide::{AgentConfig, ConcurrentAgent, FileId};

const USERS: usize = 8;
const ROUNDS: u64 = 18;
const FILE_BLOCKS: u64 = 6;
const OBLIVIOUS_ITEMS: u64 = 64;

/// Worker count: the bench harness's `STEGFS_BENCH_THREADS`/`--threads`
/// policy (loud on invalid values), defaulting to 8 when unpinned.
fn stress_threads() -> usize {
    stegfs_bench::harness::bench_threads().unwrap_or(8)
}

/// The shared system the tasks run against: the agent and the oblivious
/// store. Each keeps its state behind one lock held for the whole call, so
/// calls from different threads take turns, and the membership audit runs
/// between them under all 8 threads.
struct SharedSystem {
    agent: ConcurrentAgent<MemDevice>,
    oblivious: ObliviousStore<MemDevice, MemDevice>,
}

fn build_system() -> (SharedSystem, Vec<FileId>) {
    let agent = ConcurrentAgent::format(
        MemDevice::new(4096, 512),
        StegFsConfig::default().with_block_size(512),
        AgentConfig::default(),
        Key256::from_passphrase("stress agent"),
        41,
        DEFAULT_MAP_SHARDS,
    )
    .expect("format volume");
    let per = agent.fs().content_bytes_per_block();
    let ids: Vec<FileId> = (0..USERS)
        .map(|u| {
            let secret = Key256::from_passphrase(&format!("stress-user-{u}"));
            agent
                .create_file(
                    &secret,
                    &format!("/stress/u{u}"),
                    &vec![u as u8; per * FILE_BLOCKS as usize],
                )
                .expect("create user file")
        })
        .collect();

    let store_block = ObliviousStore::<MemDevice, MemDevice>::block_size_for_item(512);
    let cfg = ObliviousConfig::new(8, OBLIVIOUS_ITEMS);
    let store = ObliviousStore::new(
        MemDevice::new(
            ObliviousStore::<MemDevice, MemDevice>::blocks_required(&cfg, store_block),
            store_block,
        ),
        MemDevice::new(
            ObliviousStore::<MemDevice, MemDevice>::sort_blocks_required(&cfg) + 8,
            ObliviousStore::<MemDevice, MemDevice>::sort_block_size_for(store_block),
        ),
        cfg,
        Key256::from_passphrase("stress oblivious"),
        9,
        None,
    )
    .expect("oblivious store");
    for id in 0..OBLIVIOUS_ITEMS {
        store.insert(id, vec![id as u8; 128]).expect("populate");
    }
    (
        SharedSystem {
            agent,
            oblivious: store,
        },
        ids,
    )
}

/// Deterministic fill byte user `u` writes to block `b` in round `r`.
fn fill_byte(u: usize, r: u64, b: u64) -> u8 {
    (0x40 ^ (u as u8) << 4 ^ (r as u8) << 1 ^ b as u8) | 1
}

#[test]
fn eight_thread_mixed_workload_preserves_all_invariants() {
    let (system, ids) = build_system();
    let per = system.agent.fs().content_bytes_per_block();

    // One task per user. Each round: update one block of the user's file,
    // read another back, read an oblivious item; every third round the user
    // also creates a fresh file. One block-granular op per driver step.
    let tasks: Vec<_> = ids
        .iter()
        .enumerate()
        .map(|(u, &id)| {
            let mut round = 0u64;
            let mut step = 0u8;
            let mut created = 0u64;
            move |s: &SharedSystem| {
                match step {
                    0 => {
                        let block = round % FILE_BLOCKS;
                        let fill = fill_byte(u, round, block);
                        s.agent
                            .update_block(id, block, &vec![fill; per])
                            .expect("update");
                        step = 1;
                    }
                    1 => {
                        let block = (round + 1) % FILE_BLOCKS;
                        s.agent.read_block(id, block).expect("read");
                        step = 2;
                    }
                    _ => {
                        let item = (u as u64 * 7 + round) % OBLIVIOUS_ITEMS;
                        let value = s.oblivious.read(item).expect("oblivious read");
                        assert_eq!(value[..128], vec![item as u8; 128][..], "item {item}");
                        if round % 4 == 1 {
                            // Mid-run audit under full concurrency: the
                            // membership/manifest/buffer-index invariant must
                            // hold while other threads read and flush.
                            assert!(
                                s.oblivious.membership_is_consistent(),
                                "membership audit failed mid-run (user {u}, round {round})"
                            );
                        }
                        if round % 3 == 2 {
                            let secret = Key256::from_passphrase(&format!("extra-{u}-{created}"));
                            s.agent
                                .create_file(
                                    &secret,
                                    &format!("/extra/u{u}/{created}"),
                                    &vec![fill_byte(u, round, 63); per],
                                )
                                .expect("create extra file");
                            created += 1;
                        }
                        round += 1;
                        step = 0;
                    }
                }
                round == ROUNDS && step == 0
            }
        })
        .collect();

    let threads = stress_threads();
    let timings = ConcurrentDriver::run(&system, tasks, threads, || 0);
    assert_eq!(timings.len(), USERS);

    // ------------------------------------------------- invariant audits
    // 1. Oblivious store membership is still consistent, no structural pass
    //    was left open, and every item is readable.
    assert!(system.oblivious.membership_is_consistent());
    assert_eq!(
        system.oblivious.write_epoch() % 2,
        0,
        "a flush/dump cascade left its epoch guard open"
    );
    for item in 0..OBLIVIOUS_ITEMS {
        assert_eq!(
            system.oblivious.read(item).expect("post-run read")[..128],
            vec![item as u8; 128][..]
        );
    }

    // 2. Block-class conservation on the block map.
    let map = system.agent.map();
    assert!(map.counters_are_consistent(), "cached counters drifted");
    assert_eq!(
        map.data_blocks() + map.dummy_blocks() + map.unknown_blocks() + map.reserved_blocks(),
        map.num_blocks(),
        "class conservation violated"
    );
    assert_eq!(map.reserved_blocks(), 1, "only the superblock is reserved");
    assert_eq!(
        map.unknown_blocks(),
        0,
        "construction 1 has a complete view"
    );

    // 3. Every user file reads back byte-identical to the last write of each
    //    block (updates in a round-robin over the blocks: the final content
    //    of block b is the fill of the last round that updated it).
    for (u, &id) in ids.iter().enumerate() {
        let read = system.agent.read_file(id).expect("read back");
        for b in 0..FILE_BLOCKS {
            let last_round = (0..ROUNDS).rev().find(|r| r % FILE_BLOCKS == b).unwrap();
            let expected = fill_byte(u, last_round, b);
            assert_eq!(
                read[(b as usize) * per],
                expected,
                "user {u} block {b}: expected fill of round {last_round}"
            );
            assert!(
                read[(b as usize) * per..(b as usize + 1) * per]
                    .iter()
                    .all(|&x| x == expected),
                "user {u} block {b} partially written"
            );
        }
    }

    // 4. The extra files created mid-run read back too, after a flush.
    system.agent.flush().expect("flush");
    let stats = system.agent.stats();
    assert_eq!(stats.data_updates, USERS as u64 * ROUNDS);
    for u in 0..USERS {
        for c in 0..ROUNDS / 3 {
            let secret = Key256::from_passphrase(&format!("extra-{u}-{c}"));
            let id = system
                .agent
                .open_file(&secret, &format!("/extra/u{u}/{c}"))
                .expect("open extra file");
            let content = system.agent.read_file(id).expect("read extra");
            assert_eq!(content.len(), per);
        }
    }
}

/// The same mix at one thread is the sequential reference: everything above
/// must hold there too (and this anchors the equivalence the proptests check
/// at the driver level).
#[test]
fn single_thread_reference_run_passes_the_same_audits() {
    let (system, ids) = build_system();
    let per = system.agent.fs().content_bytes_per_block();
    let tasks: Vec<_> = ids
        .iter()
        .enumerate()
        .map(|(u, &id)| {
            let mut round = 0u64;
            move |s: &SharedSystem| {
                let block = round % FILE_BLOCKS;
                s.agent
                    .update_block(id, block, &vec![fill_byte(u, round, block); per])
                    .expect("update");
                round += 1;
                round == ROUNDS
            }
        })
        .collect();
    ConcurrentDriver::run(&system, tasks, 1, || 0);
    let map = system.agent.map();
    assert!(map.counters_are_consistent());
    assert_eq!(
        map.data_blocks() + map.dummy_blocks() + map.unknown_blocks() + map.reserved_blocks(),
        map.num_blocks()
    );
    for (u, &id) in ids.iter().enumerate() {
        let read = system.agent.read_file(id).expect("read back");
        for b in 0..FILE_BLOCKS {
            let last_round = (0..ROUNDS).rev().find(|r| r % FILE_BLOCKS == b).unwrap();
            assert_eq!(read[(b as usize) * per], fill_byte(u, last_round, b));
        }
    }
}

// ---------------------------------------------------------------------------
// Construction 2 under storms: the agent's registry is shared by
// every session, and logins/logouts rebuild it while other sessions read and
// relocate. The satellite invariants: class-counter conservation on the
// block map at every point, and byte-identical read-back of every user's
// file after the storm.

use steghide::{ConcurrentVolatileAgent, SessionId, UserCredential};

const V_USERS: usize = 8;
const V_ROUNDS: u64 = 12;
const V_FILE_BLOCKS: u64 = 4;
const V_DUMMY_BLOCKS: u64 = 8;

fn volatile_credentials(u: usize) -> Vec<UserCredential> {
    vec![
        UserCredential::new(
            format!("/v{u}/data"),
            FileAccessKey::from_passphrase(&format!("volatile-{u}-data")),
        ),
        UserCredential::new(
            format!("/v{u}/dummy"),
            FileAccessKey::from_passphrase(&format!("volatile-{u}-dummy")).without_content_key(),
        ),
    ]
}

/// Provision a volume with `V_USERS` users (a data and a dummy file each)
/// and hand it to the zero-knowledge concurrent volatile agent.
fn build_volatile_system() -> ConcurrentVolatileAgent<MemDevice> {
    let (fs, map) = StegFs::format(
        MemDevice::new(4096, 512),
        StegFsConfig::default().with_block_size(512),
        33,
    )
    .expect("format volume");
    let per = fs.content_bytes_per_block();
    for u in 0..V_USERS {
        let mut content = Vec::with_capacity(per * V_FILE_BLOCKS as usize);
        for b in 0..V_FILE_BLOCKS {
            content.extend(std::iter::repeat_n(fill_byte(u, 0, b), per));
        }
        fs.create_file(
            &map,
            &format!("/v{u}/data"),
            &FileAccessKey::from_passphrase(&format!("volatile-{u}-data")),
            &content,
        )
        .expect("provision data file");
        fs.create_dummy_file(
            &map,
            &format!("/v{u}/dummy"),
            &FileAccessKey::from_passphrase(&format!("volatile-{u}-dummy")).without_content_key(),
            V_DUMMY_BLOCKS,
        )
        .expect("provision dummy file");
    }
    ConcurrentVolatileAgent::mount(
        fs.into_device(),
        AgentConfig::default(),
        91,
        DEFAULT_MAP_SHARDS,
    )
    .expect("mount concurrent volatile agent")
}

/// Class-counter conservation on the volatile agent's block map: cached
/// counters agree with the class vector and every block is in exactly one
/// class. Safe to call mid-flight from any worker thread.
fn audit_volatile_map(agent: &ConcurrentVolatileAgent<MemDevice>, ctx: &str) {
    let map = agent.map();
    assert!(
        map.counters_are_consistent(),
        "{ctx}: cached counters drifted"
    );
    assert_eq!(
        map.data_blocks() + map.dummy_blocks() + map.unknown_blocks() + map.reserved_blocks(),
        map.num_blocks(),
        "{ctx}: class conservation violated"
    );
}

#[test]
fn volatile_agent_survives_login_logout_storms() {
    let agent = build_volatile_system();
    let per = agent.fs().content_bytes_per_block();

    // One task per user. Each round is a full session: login, update one
    // block, read another back and check it, occasionally drive a dummy
    // update or audit the map, logout. Sessions therefore appear and vanish
    // continuously while the other seven users are mid-traffic — exactly the
    // storm the engine's one lock must serialise against per-block calls.
    let tasks: Vec<_> = (0..V_USERS)
        .map(|u| {
            let mut round = 0u64;
            let mut step = 0u8;
            let mut session: Option<SessionId> = None;
            let mut last_fill: Vec<Option<u8>> = vec![None; V_FILE_BLOCKS as usize];
            move |agent: &ConcurrentVolatileAgent<MemDevice>| {
                match step {
                    0 => {
                        let s = agent
                            .login(&format!("v{u}"), &volatile_credentials(u))
                            .expect("login");
                        session = Some(s);
                        step = 1;
                    }
                    1 => {
                        let s = session.unwrap();
                        let files = agent.session_files(s).expect("session files");
                        let block = round % V_FILE_BLOCKS;
                        let fill = fill_byte(u, round + 1, block);
                        agent
                            .update_block(s, files[0], block, &vec![fill; per])
                            .expect("update");
                        last_fill[block as usize] = Some(fill);
                        step = 2;
                    }
                    2 => {
                        let s = session.unwrap();
                        let files = agent.session_files(s).expect("session files");
                        let block = (round + 1) % V_FILE_BLOCKS;
                        let read = agent.read_block(s, files[0], block).expect("read block");
                        let expected =
                            last_fill[block as usize].unwrap_or_else(|| fill_byte(u, 0, block));
                        assert!(
                            read.iter().all(|&x| x == expected),
                            "user {u} round {round}: stale or torn read of block {block}"
                        );
                        if round % 3 == 1 {
                            // Background cover traffic against whatever is
                            // currently disclosed (possibly nothing, if this
                            // races every other user's logout window).
                            match agent.dummy_update_batch(1) {
                                Ok(_) | Err(steghide::AgentError::NothingToUpdate) => {}
                                Err(e) => panic!("dummy update failed: {e:?}"),
                            }
                        }
                        if round % 4 == 2 {
                            // Mid-run audit: takes the engine's lock
                            // between calls, then checks counter/class
                            // conservation under it.
                            assert!(
                                agent.audit_map_consistency(),
                                "mid-run audit failed (user {u}, round {round})"
                            );
                        }
                        step = 3;
                    }
                    _ => {
                        agent.logout(session.take().unwrap()).expect("logout");
                        round += 1;
                        step = 0;
                    }
                }
                round == V_ROUNDS && step == 0
            }
        })
        .collect();

    let threads = stress_threads();
    let timings = ConcurrentDriver::run(&agent, tasks, threads, || 0);
    assert_eq!(timings.len(), V_USERS);

    // 1. Everyone logged out: the agent's view collapsed back to zero
    //    knowledge, and class conservation still holds exactly.
    assert!(agent.logged_in_users().is_empty());
    audit_volatile_map(&agent, "post-storm");
    assert_eq!(
        agent.map().data_blocks(),
        0,
        "view survived the last logout"
    );
    assert_eq!(agent.map().dummy_blocks(), 0);

    // 2. Every user's file reads back byte-identical to the last write of
    //    each block, through a fresh session.
    for u in 0..V_USERS {
        let s = agent
            .login(&format!("v{u}"), &volatile_credentials(u))
            .expect("audit login");
        let files = agent.session_files(s).expect("session files");
        let read = agent.read_file(s, files[0]).expect("read back");
        for b in 0..V_FILE_BLOCKS {
            let last_round = (0..V_ROUNDS)
                .rev()
                .find(|r| r % V_FILE_BLOCKS == b)
                .unwrap();
            let expected = fill_byte(u, last_round + 1, b);
            assert!(
                read[(b as usize) * per..(b as usize + 1) * per]
                    .iter()
                    .all(|&x| x == expected),
                "user {u} block {b}: expected fill of round {last_round}"
            );
        }
        agent.logout(s).expect("audit logout");
    }
    audit_volatile_map(&agent, "final");
}
