//! The device requests of a Figure 6 update, pinned where the attacker and
//! the disk see them: every iteration — in place, relocation or reseal — is
//! one scalar read of a block followed by one scalar write of the same
//! block. Under both constructions the read never names a block the
//! iteration does not write, and the simulated disk therefore bills every
//! Figure 6 write as a continuation of the head: one positioning per
//! iteration, as the paper's 2E model counts it.

use std::sync::{Arc, Mutex};

use stegfs_repro::blockdev::{DeviceError, Io, IoHook, IoKind, Layered};
use stegfs_repro::prelude::*;
use steghide::{UpdateOutcome, UpdateStats};

const BLOCK_SIZE: usize = 512;
const UPDATES: u64 = 300;

type Log = Arc<Mutex<Vec<Io>>>;

fn fs_config() -> StegFsConfig {
    StegFsConfig::default().with_block_size(BLOCK_SIZE)
}

/// A memory device whose every request is appended to the returned log.
fn logged(blocks: u64) -> (Layered<MemDevice, impl IoHook<MemDevice>>, Log) {
    let log = Log::default();
    let sink = log.clone();
    let hook = move |_: &MemDevice, io: Io| -> Result<(), DeviceError> {
        sink.lock().unwrap().push(io);
        Ok(())
    };
    (
        Layered::with_hook(MemDevice::new(blocks, BLOCK_SIZE), hook),
        log,
    )
}

fn scalar(kind: IoKind, block: u64) -> Io {
    Io {
        kind,
        start: block,
        blocks: 1,
        ranged: false,
    }
}

/// Run `UPDATES` calls of `update` (given the call's ordinal). Each must
/// issue exactly `[Read X, Write X]` once per Figure 6 iteration it took,
/// the last pair on the block that now holds the content, and the stream
/// must take all three branches.
fn assert_one_block_per_iteration(
    log: &Log,
    stats: impl Fn() -> UpdateStats,
    mut update: impl FnMut(u64) -> UpdateOutcome,
) {
    let start = stats();
    for call in 0..UPDATES {
        let before = stats();
        log.lock().unwrap().clear();
        let outcome = update(call);
        let requests = std::mem::take(&mut *log.lock().unwrap());
        let iterations = stats().since(&before).iterations;
        assert_eq!(
            requests.len() as u64,
            2 * iterations,
            "update {call}: {iterations} iterations issued {requests:?}"
        );
        for pair in requests.chunks_exact(2) {
            let block = pair[1].start;
            assert_eq!(
                pair,
                [scalar(IoKind::Read, block), scalar(IoKind::Write, block)],
                "update {call} ({outcome:?}): an iteration must read the block it writes"
            );
        }
        assert_eq!(
            requests.last().map(|io| io.start),
            Some(outcome.current_block()),
            "update {call}: the last write lands the content"
        );
    }
    let s = stats().since(&start);
    assert_eq!(s.data_updates, UPDATES);
    assert!(
        s.relocations > 0 && s.in_place > 0 && s.dummy_updates > 0,
        "the stream must take all three Figure 6 branches: {s:?}"
    );
}

#[test]
fn every_figure6_iteration_reads_the_block_it_writes() {
    // Construction 1 on a small half-full volume: a draw lands on the
    // updated block itself often enough for the in-place branch to show.
    let (device, log) = logged(128);
    let agent = ConcurrentAgent::format(
        device,
        fs_config(),
        AgentConfig::default(),
        Key256::from_passphrase("shape agent"),
        5,
        4,
    )
    .unwrap();
    let per = agent.fs().content_bytes_per_block();
    let hot = agent
        .create_file_sparse(&Key256::from_passphrase("hot"), "/hot", 4 * per as u64)
        .unwrap();
    agent
        .create_file_sparse(
            &Key256::from_passphrase("filler"),
            "/filler",
            56 * per as u64,
        )
        .unwrap();
    let payload = vec![0x5A; per];
    assert_one_block_per_iteration(
        &log,
        || agent.stats(),
        |call| agent.update_block(hot, call % 4, &payload).unwrap(),
    );

    // Construction 2: the universe is what the user disclosed, and every
    // relocation swaps with a dummy file's block.
    let (device, log) = logged(512);
    let (fs, map) = StegFs::format(device, fs_config(), 6).unwrap();
    let fak = FileAccessKey::from_passphrase("hot");
    fs.create_file_sparse(&map, "/hot", &fak, 4 * per as u64)
        .unwrap();
    let mut credentials = vec![UserCredential::new("/hot".to_string(), fak)];
    for decoy in 0..2 {
        let path = format!("/decoy{decoy}");
        let fak = FileAccessKey::from_passphrase(&path).without_content_key();
        fs.create_dummy_file(&map, &path, &fak, 8).unwrap();
        credentials.push(UserCredential::new(path, fak));
    }
    let agent =
        ConcurrentVolatileAgent::mount(fs.into_device(), AgentConfig::default(), 7, 4).unwrap();
    let session = agent.login("user", &credentials).unwrap();
    let hot = agent.session_files(session).unwrap()[0];
    assert_one_block_per_iteration(
        &log,
        || agent.stats(),
        |call| {
            agent
                .update_block(session, hot, call % 4, &payload)
                .unwrap()
        },
    );
}

#[test]
fn the_simulated_disk_bills_every_figure6_write_as_a_head_continuation() {
    let agent = ConcurrentAgent::format(
        SimDevice::new(MemDevice::new(1024, BLOCK_SIZE)),
        fs_config().without_fill(),
        AgentConfig::default(),
        Key256::from_passphrase("billing agent"),
        9,
        8,
    )
    .unwrap();
    let per = agent.fs().content_bytes_per_block();
    let hot = agent
        .create_file_sparse(&Key256::from_passphrase("hot"), "/hot", 16 * per as u64)
        .unwrap();
    agent
        .create_file_sparse(
            &Key256::from_passphrase("filler"),
            "/filler",
            480 * per as u64,
        )
        .unwrap();
    let device = agent.fs().device();
    device.stats().reset();
    device.clock().reset();
    let before = agent.stats();

    let payload = vec![0xA5; per];
    for call in 0..UPDATES {
        agent.update_block(hot, call % 16, &payload).unwrap();
    }

    let s = agent.stats().since(&before);
    let io = device.stats().snapshot();
    assert!(s.relocations > 0 && s.dummy_updates > 0, "{s:?}");
    assert_eq!((io.reads, io.writes), (s.iterations, s.iterations));
    assert!(
        io.sequential >= io.writes,
        "every Figure 6 write continues the head: {io:?}"
    );
    assert!(
        io.random <= io.reads,
        "only reads may position the head: {io:?}"
    );
    // One positioning per iteration, so no iteration costs more than a
    // random read plus a streamed write.
    let model = device.model();
    let per_iteration = model.random_block_us(BLOCK_SIZE) + model.sequential_block_us(BLOCK_SIZE);
    assert!(device.clock().now_us() <= s.iterations * per_iteration);
}
