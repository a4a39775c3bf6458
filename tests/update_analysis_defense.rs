//! Cross-crate integration test of the update-analysis defence (Section 4):
//! the snapshot-diffing attacker must lose against the full StegHide
//! mechanism and win against in-place updates — under both constructions,
//! which run the same hot-spot workload through one helper. A request-stream
//! attacker who links an update's read to the block the previous update
//! wrote must find nothing to link.

use stegfs_repro::analysis::{TrafficAnalysisAttacker, UpdateAnalysisAttacker, UpdateVerdict};
use stegfs_repro::blockdev::{BlockDeviceExt, IoKind, Snapshot, TraceLog};
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

/// One unknown bit of a fill generator's 256-bit state, or a GF(2) sum of
/// them: bit `i` of the mask is bit `i % 64` of state word `i / 64`.
type Mask = [u64; 4];

/// A 64-bit generator word as 64 masks, bit by bit.
type SymWord = [Mask; 64];

fn xor_into(word: &mut SymWord, other: &SymWord) {
    for (bit, other) in word.iter_mut().zip(other) {
        for (limb, other) in bit.iter_mut().zip(other) {
            *limb ^= other;
        }
    }
}

/// Bit `i` of the result is bit `i - by` of `word` when `i >= by`; with
/// `wrap`, bit `(i - by) mod 64` instead (a left rotation).
fn shifted(word: &SymWord, by: usize, wrap: bool) -> SymWord {
    let mut out = [[0u64; 4]; 64];
    for (i, bit) in out.iter_mut().enumerate() {
        if i >= by || wrap {
            *bit = word[(i + 64 - by) % 64];
        }
    }
    out
}

/// One xoshiro256** state step. The same code runs on concrete words and
/// (through `xor`, `shl` and `rotl`) on symbolic ones.
macro_rules! xoshiro_step {
    ($s:expr, $xor:expr, $shl:expr, $rotl:expr) => {{
        let t = $shl(&$s[1], 17);
        let (s0, s1) = ($s[0].clone(), $s[1].clone());
        $xor(&mut $s[2], &s0);
        $xor(&mut $s[3], &s1);
        let s2 = $s[2].clone();
        $xor(&mut $s[1], &s2);
        let s3 = $s[3].clone();
        $xor(&mut $s[0], &s3);
        $xor(&mut $s[2], &t);
        $s[3] = $rotl(&$s[3], 45);
    }};
}

fn xoshiro_next(s: &mut [u64; 4]) -> u64 {
    let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
    xoshiro_step!(
        s,
        |a: &mut u64, b: &u64| *a ^= b,
        |a: &u64, n| a << n,
        |a: &u64, n| a.rotate_left(n)
    );
    out
}

/// The multiplicative inverse of odd `a` modulo 2⁶⁴ (Newton's iteration).
fn inverse(a: u64) -> u64 {
    let mut x = a;
    for _ in 0..6 {
        x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
    }
    x
}

/// The attacker: given fill words `outputs` read at word offset `offset` of
/// the generator's stream, undo the output scrambler (`rotl(s1 · 5, 7) · 9`
/// is a bijection of `s1`), express each recovered `s1` as a GF(2) function
/// of the initial state by stepping the generator symbolically, and solve.
/// Equations that contradict the ones before them are dropped, so there is
/// always an answer; on a xoshiro stream six words pin all 256 bits.
fn solve_fill_state(outputs: &[u64], offset: usize) -> [u64; 4] {
    let mut state: [SymWord; 4] = std::array::from_fn(|w| {
        std::array::from_fn(|i| {
            let mut mask = [0u64; 4];
            mask[w] = 1 << i;
            mask
        })
    });
    let shl = |w: &SymWord, n| shifted(w, n as usize, false);
    let rotl = |w: &SymWord, n| shifted(w, n as usize, true);
    let mut equations = Vec::new();
    for step in 0..offset + outputs.len() {
        if step >= offset {
            let s1 = inverse(5)
                .wrapping_mul((outputs[step - offset].wrapping_mul(inverse(9))).rotate_right(7));
            for (i, mask) in state[1].iter().enumerate() {
                equations.push((*mask, s1 >> i & 1 == 1));
            }
        }
        xoshiro_step!(state, xor_into, shl, rotl);
    }
    // Gauss–Jordan elimination over GF(2), one pivot per state bit.
    let mut pivots: Vec<(usize, Mask, bool)> = Vec::new();
    for (mut mask, mut rhs) in equations {
        for (bit, pivot, value) in &pivots {
            if mask[bit / 64] >> (bit % 64) & 1 == 1 {
                for (limb, p) in mask.iter_mut().zip(pivot) {
                    *limb ^= p;
                }
                rhs ^= value;
            }
        }
        let Some(bit) = (0..256).find(|b| mask[b / 64] >> (b % 64) & 1 == 1) else {
            continue;
        };
        for (_, pivot, value) in &mut pivots {
            if pivot[bit / 64] >> (bit % 64) & 1 == 1 {
                for (limb, m) in pivot.iter_mut().zip(&mask) {
                    *limb ^= m;
                }
                *value ^= rhs;
            }
        }
        pivots.push((bit, mask, rhs));
    }
    let mut solution = [0u64; 4];
    for (bit, _, value) in pivots {
        solution[bit / 64] |= (value as u64) << (bit % 64);
    }
    solution
}

/// The fill a generator in `state` lays over payload blocks `1..`, block by
/// block: its words end to end, little-endian.
fn predicted_fill(mut state: [u64; 4], blocks: u64) -> Vec<Vec<u8>> {
    (1..blocks)
        .map(|_| {
            (0..BLOCK_SIZE / 8)
                .flat_map(|_| xoshiro_next(&mut state).to_le_bytes())
                .collect()
        })
        .collect()
}

/// A snapshot attacker who models the format fill as a fast linear
/// generator (xoshiro256**): from 48 bytes of one block the hidden file does
/// not own it solves for the generator's state and predicts every payload
/// block. Were the fill that generator, every block the format left alone
/// would match the prediction byte for byte and every hidden block would
/// not — one image would locate the file. The fill is sealed under a key
/// nobody holds, so the prediction must be no better than chance anywhere.
#[test]
fn the_format_fill_cannot_be_predicted_from_one_block() {
    const BLOCKS: u64 = 256;
    const WORDS: usize = BLOCK_SIZE / 8;
    // The solver itself: six words at the same offset of a genuine xoshiro
    // stream give its state back, so a miss below is the fill's doing.
    let genuine = [0x0123_4567_89ab_cdef, 0xdead_beef, 7, u64::MAX / 3];
    let mut stream = genuine;
    let words: Vec<u64> = (0..WORDS + 6).map(|_| xoshiro_next(&mut stream)).collect();
    assert_eq!(solve_fill_state(&words[WORDS..], WORDS), genuine);

    let (fs, map) = StegFs::format(MemDevice::new(BLOCKS, BLOCK_SIZE), fs_config(), 21).unwrap();
    let fak = FileAccessKey::from_passphrase("predictor victim");
    let per = fs.content_bytes_per_block();
    let file = fs
        .create_file(&map, "/victim", &fak, &vec![0x42u8; 20 * per])
        .unwrap();
    let owned = file.all_blocks();
    let image: Vec<Vec<u8>> = (0..BLOCKS)
        .map(|b| fs.device().read_block_vec(b).unwrap())
        .collect();

    let probe = (1..BLOCKS).find(|b| !owned.contains(b)).unwrap();
    let outputs: Vec<u64> = image[probe as usize][..48]
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
        .collect();
    let state = solve_fill_state(&outputs, (probe as usize - 1) * WORDS);
    let prediction = predicted_fill(state, BLOCKS);

    let (mut matched, mut equal_bytes, mut bytes) = (Vec::new(), 0usize, 0usize);
    for (b, predicted) in (1..BLOCKS).zip(&prediction) {
        let actual = &image[b as usize];
        if actual == predicted {
            matched.push(b);
        }
        if !owned.contains(&b) {
            equal_bytes += actual.iter().zip(predicted).filter(|(a, p)| a == p).count();
            bytes += actual.len();
        }
    }
    let unowned = BLOCKS - 1 - owned.len() as u64;
    assert!(
        matched.is_empty(),
        "the prediction matches {} of {unowned} blocks the file does not own and {} of its {}",
        matched.iter().filter(|b| !owned.contains(b)).count(),
        matched.iter().filter(|b| owned.contains(b)).count(),
        owned.len()
    );
    // Chance agreement is one byte in 256.
    assert!(
        equal_bytes * 128 < bytes,
        "{equal_bytes} of {bytes} predicted bytes agree"
    );
}
