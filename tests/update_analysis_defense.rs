//! Cross-crate integration test of the update-analysis defence (Section 4):
//! the snapshot-diffing attacker must lose against the full StegHide
//! mechanism and win against in-place updates — under both constructions,
//! which run the same hot-spot workload through one helper. A request-stream
//! attacker who links an update's read to the block the previous update
//! wrote must find nothing to link.

use stegfs_repro::analysis::{TrafficAnalysisAttacker, UpdateAnalysisAttacker, UpdateVerdict};
use stegfs_repro::blockdev::{IoKind, Snapshot, TraceLog};
use stegfs_repro::prelude::*;
use stegfs_repro::stegfs::{BlockClass, StegFsConfig};
use stegfs_repro::steghide::UpdateOutcome;

const BLOCK_SIZE: usize = 512;
const VOLUME_BLOCKS: u64 = 4096;
const HOT_BLOCKS: u64 = 64;
const FILLER_BLOCKS: u64 = 900;

#[derive(Debug, Clone, Copy)]
enum Construction {
    /// StegHide\*: the agent may touch every payload block.
    One,
    /// StegHide: the agent may touch only what the logged-in user disclosed.
    Two,
}

fn agent_config(relocate: bool) -> AgentConfig {
    if relocate {
        AgentConfig::default()
    } else {
        AgentConfig::default().without_relocation()
    }
}

fn fs_config() -> StegFsConfig {
    StegFsConfig::default().with_block_size(BLOCK_SIZE)
}

/// The workload, independent of who serves it: 30 rounds of a user hammering
/// a handful of logical blocks of a hot file while the agent mixes in dummy
/// updates, with the attacker diffing a snapshot after every round.
///
/// `universe` lists (ascending) the blocks the agent may touch. The attacker
/// knows that set's size and judges each changed block by its *rank* within
/// it: under Construction 1 that is simply the payload position; under
/// Construction 2 changes can only ever land inside the disclosed universe,
/// and the question is whether they are uniform *there*.
fn hot_spot_verdict(
    device: &MemDevice,
    universe: &[u64],
    update_hot: impl Fn(u64),
    cover: impl Fn(),
) -> UpdateVerdict {
    let mut attacker = UpdateAnalysisAttacker::new(universe.len() as u64);
    let mut before = Snapshot::capture(device).unwrap();
    for round in 0..30u64 {
        for i in 0..8u64 {
            update_hot((round + i) % 8);
        }
        cover();
        let after = Snapshot::capture(device).unwrap();
        for block in before.diff(&after).changed {
            let rank = universe
                .binary_search(&block)
                .expect("a change landed outside what the agent may touch");
            attacker.observe_changed_block(rank as u64);
        }
        before = after;
    }
    attacker.verdict(0.01)
}

/// Build a volume at ~25 % utilisation (of the agent's universe) under the
/// given construction and show its hot-spot workload to the attacker.
fn attacker_verdict(construction: Construction, relocate: bool) -> UpdateVerdict {
    let device = MemDevice::new(VOLUME_BLOCKS, BLOCK_SIZE);
    let payload = vec![0xAAu8; BLOCK_SIZE - stegfs_repro::stegfs::IV_SIZE];
    let per = payload.len() as u64;
    match construction {
        Construction::One => {
            let agent = ConcurrentAgent::format(
                device,
                fs_config(),
                agent_config(relocate),
                Key256::from_passphrase("agent"),
                17,
                8,
            )
            .unwrap();
            let hot = agent
                .create_file_sparse(&Key256::from_passphrase("user"), "/hot", HOT_BLOCKS * per)
                .unwrap();
            agent
                .create_file_sparse(
                    &Key256::from_passphrase("filler"),
                    "/filler",
                    FILLER_BLOCKS * per,
                )
                .unwrap();
            let universe: Vec<u64> = (1..VOLUME_BLOCKS).collect();
            hot_spot_verdict(
                agent.fs().device(),
                &universe,
                |index| {
                    agent.update_block(hot, index, &payload).unwrap();
                },
                || drop(agent.dummy_update_batch(8).unwrap()),
            )
        }
        Construction::Two => {
            let (fs, map) = StegFs::format(device, fs_config(), 17).unwrap();
            let mut credentials = Vec::new();
            for (name, blocks) in [("hot", HOT_BLOCKS), ("filler", FILLER_BLOCKS)] {
                let fak = FileAccessKey::from_passphrase(name);
                fs.create_file_sparse(&map, &format!("/{name}"), &fak, blocks * per)
                    .unwrap();
                credentials.push(UserCredential::new(format!("/{name}"), fak));
            }
            for decoy in 0..3 {
                let fak =
                    FileAccessKey::from_passphrase(&format!("decoy-{decoy}")).without_content_key();
                fs.create_dummy_file(&map, &format!("/decoy{decoy}"), &fak, FILLER_BLOCKS)
                    .unwrap();
                credentials.push(UserCredential::new(format!("/decoy{decoy}"), fak));
            }
            let agent =
                ConcurrentVolatileAgent::mount(fs.into_device(), agent_config(relocate), 18, 8)
                    .unwrap();
            let session = agent.login("user", &credentials).unwrap();
            let hot = agent.session_files(session).unwrap()[0];
            // Swaps move blocks between disclosed files but never in or out
            // of the disclosed set, so the universe is fixed at login.
            let mut universe = agent.map().blocks_in_class(BlockClass::Data);
            universe.extend(agent.map().blocks_in_class(BlockClass::Dummy));
            universe.sort_unstable();
            assert!(universe.len() < VOLUME_BLOCKS as usize);
            hot_spot_verdict(
                agent.fs().device(),
                &universe,
                |index| {
                    agent.update_block(session, hot, index, &payload).unwrap();
                },
                || drop(agent.dummy_update_batch(8).unwrap()),
            )
        }
    }
}

#[test]
fn relocating_updates_defeat_the_snapshot_attacker() {
    for construction in [Construction::One, Construction::Two] {
        let verdict = attacker_verdict(construction, true);
        assert!(verdict.observations > 300, "{construction:?}: {verdict:?}");
        assert!(
            verdict.chi_square <= verdict.critical_value && !verdict.distinguishable,
            "{construction:?}: attacker should not distinguish relocated updates ({verdict:?})"
        );
    }
}

#[test]
fn in_place_updates_are_caught_by_the_snapshot_attacker() {
    for construction in [Construction::One, Construction::Two] {
        let verdict = attacker_verdict(construction, false);
        assert!(
            verdict.distinguishable,
            "{construction:?}: attacker should catch in-place updates ({verdict:?})"
        );
    }
}

/// A request-stream attacker who chains reads: a relocation that read the
/// old location of the data it hides would name, in its read, the block the
/// previous update of the same logical block wrote. Every update read must
/// instead be addressed at a block the update writes, so over a hot-spot
/// stream on one logical block no read lands on a vacated location — and the
/// read positions stay uniform.
#[test]
fn update_reads_never_name_the_vacated_block() {
    let log = TraceLog::new();
    let device = TracingDevice::with_log(MemDevice::new(VOLUME_BLOCKS, BLOCK_SIZE), log.clone());
    let agent = ConcurrentAgent::format(
        device,
        fs_config(),
        AgentConfig::default(),
        Key256::from_passphrase("agent"),
        17,
        8,
    )
    .unwrap();
    let per = agent.fs().content_bytes_per_block();
    let hot = agent
        .create_file_sparse(
            &Key256::from_passphrase("user"),
            "/hot",
            HOT_BLOCKS * per as u64,
        )
        .unwrap();
    agent
        .create_file_sparse(
            &Key256::from_passphrase("filler"),
            "/filler",
            FILLER_BLOCKS * per as u64,
        )
        .unwrap();

    let payload = vec![0xAAu8; per];
    let mut attacker = TrafficAnalysisAttacker::new(VOLUME_BLOCKS);
    let (mut relocations, mut linked) = (0, 0);
    for _ in 0..240 {
        log.clear();
        let outcome = agent.update_block(hot, 0, &payload).unwrap();
        let reads: Vec<_> = log
            .records()
            .into_iter()
            .filter(|r| r.kind == IoKind::Read)
            .collect();
        if let UpdateOutcome::Relocated { from, .. } = outcome {
            relocations += 1;
            linked += reads.iter().filter(|r| r.block == from).count();
        }
        attacker.observe_trace(&reads);
    }
    assert!(relocations > 150, "{relocations} relocations of 240");
    assert_eq!(
        linked, 0,
        "{linked} of {relocations} relocations read the block they vacated"
    );
    let verdict = attacker.read_verdict(0.01);
    assert!(
        !verdict.distinguishable,
        "update reads are not uniform: {verdict:?}"
    );
}

#[test]
fn dummy_updates_alone_change_ciphertext_but_not_data() {
    let agent = ConcurrentAgent::format(
        MemDevice::new(1024, BLOCK_SIZE),
        fs_config(),
        AgentConfig::default(),
        Key256::from_passphrase("dummy-update-agent"),
        3,
        8,
    )
    .unwrap();
    let content = vec![7u8; 3000];
    let id = agent
        .create_file(&Key256::from_passphrase("u"), "/f", &content)
        .unwrap();

    let before = Snapshot::capture(agent.fs().device()).unwrap();
    agent.dummy_update_batch(64).unwrap();
    let after = Snapshot::capture(agent.fs().device()).unwrap();
    let diff = before.diff(&after);
    assert!(
        diff.num_changed() >= 32,
        "dummy updates must visibly change blocks ({} changed)",
        diff.num_changed()
    );
    assert_eq!(agent.read_file(id).unwrap(), content);
}
