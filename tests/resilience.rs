//! Cross-crate resilience suite.
//!
//! Exercises the erasure-coded store end to end: recovery of arbitrary
//! within-tolerance erasure patterns under concurrent readers, honest
//! reporting beyond the tolerance (never wrong bytes), the full seeded
//! fault-plan acceptance scenario (scrub repairs every injected fault,
//! confirmed against the fault device's own bookkeeping), torn-write crash
//! consistency, reopen-after-damage, and the parity-visibility check: a
//! striped volume must look exactly as random as an unstriped one.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use stegfs_repro::analysis::{byte_value_chi_square, byte_value_kl, kl_divergence_between};
use stegfs_repro::blockdev::{BlockDevice, BlockDeviceExt, FaultDevice, FaultPlan, MemDevice};
use stegfs_repro::prelude::*;
use stegfs_repro::resilience::{ResilienceError, VolumeAnchor};

const BLOCK_SIZE: usize = 512;
const NUM_BLOCKS: u64 = 512;

fn cfg(k: usize, m: usize) -> ResilienceConfig {
    ResilienceConfig::default()
        .with_fs(StegFsConfig::default().with_block_size(BLOCK_SIZE))
        .with_stripe(k, m)
}

fn master() -> Key256 {
    Key256::from_passphrase("resilience integration")
}

fn fresh(k: usize, m: usize, seed: u64) -> ResilientStore<FaultDevice<MemDevice>> {
    let dev = FaultDevice::new(MemDevice::new(NUM_BLOCKS, BLOCK_SIZE));
    ResilientStore::format(dev, cfg(k, m), &master(), seed).unwrap()
}

/// Deterministic payload bytes that differ per seed.
fn pattern(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 56) as u8
        })
        .collect()
}

/// Tiny SplitMix64 for picking fault positions inside proptest cases.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Any pattern of at most `m` erasures per stripe — random counts at
    /// random positions, hitting data and parity shards alike — is repaired
    /// transparently on the read path, with eight threads reading at once.
    /// Every read returns the exact original bytes.
    #[test]
    fn concurrent_reads_survive_up_to_m_erasures_per_stripe(seed in any::<u64>()) {
        let store = fresh(4, 2, 11);
        let per = store.fs().content_bytes_per_block();
        let data = pattern(7 * per + 123, seed);
        store.create_file("/hot", &data).unwrap();

        let mut rng = Mix(seed);
        let mut plan = FaultPlan::new(seed ^ 0xfa17);
        for stripe in store.stripe_layout("/hot").unwrap() {
            let faults = rng.below(3); // 0, 1 or 2 = m erasures in this stripe
            let mut picked = BTreeSet::new();
            while (picked.len() as u64) < faults {
                picked.insert(stripe[rng.below(stripe.len() as u64) as usize]);
            }
            for block in picked {
                if rng.below(2) == 0 {
                    plan.flip_bit(block);
                } else {
                    plan.zero_block(block);
                }
            }
        }
        store.fs().device().apply_plan(&plan).unwrap();

        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    assert_eq!(store.read_file("/hot").unwrap(), data);
                });
            }
        });

        // After the dust settles a scrub mops up whatever the reads did not
        // need to touch (e.g. parity-only damage), and the next one is clean.
        prop_assert!(store.scrub().unwrap().fully_repaired());
        prop_assert!(store.scrub().unwrap().is_clean());
    }
}

/// More than `m` erasures in one stripe must be reported as unrecoverable —
/// the store never fabricates bytes — while scrub keeps every other stripe
/// healthy.
#[test]
fn beyond_tolerance_is_reported_never_invented() {
    let store = fresh(4, 2, 3);
    let per = store.fs().content_bytes_per_block();
    let data = pattern(8 * per, 0x5eed);
    store.create_file("/doomed", &data).unwrap();

    // Kill 3 of the 6 shards of stripe 1; with m = 2 that is unrecoverable.
    let layout = store.stripe_layout("/doomed").unwrap();
    let mut plan = FaultPlan::new(9);
    for &block in &layout[1][..3] {
        plan.zero_block(block);
    }
    store.fs().device().apply_plan(&plan).unwrap();

    match store.read_file("/doomed") {
        Err(ResilienceError::Unrecoverable { path, stripes }) => {
            assert_eq!(path, "/doomed");
            assert_eq!(stripes, vec![1]);
        }
        Ok(_) => panic!("read returned bytes from an unrecoverable stripe"),
        Err(other) => panic!("unexpected error: {other:?}"),
    }

    let report = store.scrub().unwrap();
    assert_eq!(report.unrecoverable_stripes, 1);
    assert!(!report.fully_repaired());

    // The error is stable: a second read still refuses rather than lies.
    assert!(matches!(
        store.read_file("/doomed"),
        Err(ResilienceError::Unrecoverable { .. })
    ));
}

/// The acceptance scenario from the issue: a seeded fault plan corrupts up
/// to `m` blocks in every stripe of every file plus one anchor replica; one
/// scrub repairs all of it, the detected sites match the planned faults
/// exactly, and every file reads back byte-identical.
#[test]
fn scrub_repairs_seeded_fault_plan_and_anchor_replica() {
    let store = fresh(4, 2, 21);
    let per = store.fs().content_bytes_per_block();
    let a = pattern(9 * per + 17, 0xa);
    let b = pattern(5 * per, 0xb);
    store.create_file("/a", &a).unwrap();
    store.create_file("/b", &b).unwrap();

    let mut plan = FaultPlan::new(0xfa17);
    let mut expected = BTreeSet::new();
    for path in ["/a", "/b"] {
        for (i, stripe) in store.stripe_layout(path).unwrap().iter().enumerate() {
            // m faults in even stripes, one in odd ones; mix data and parity
            // shards by taking from opposite ends.
            let n = if i % 2 == 0 { 2 } else { 1 };
            for j in 0..n {
                let block = if j % 2 == 0 {
                    stripe[j]
                } else {
                    stripe[stripe.len() - 1 - j]
                };
                if expected.insert(block) {
                    plan.flip_bit(block);
                }
            }
        }
    }
    let replica = VolumeAnchor::replica_blocks(NUM_BLOCKS)[1];
    plan.zero_block(replica);

    store.fs().device().apply_plan(&plan).unwrap();
    assert_eq!(
        plan.len(),
        expected.len() + 1,
        "fault bookkeeping disagrees"
    );

    let report = store.scrub().unwrap();
    assert!(report.fully_repaired(), "{report:?}");
    assert_eq!(report.anchor_replicas_repaired, 1);
    let detected: BTreeSet<u64> = report.detected.iter().copied().collect();
    assert_eq!(
        detected, expected,
        "scrub must find exactly the injected sites"
    );

    assert_eq!(store.read_file("/a").unwrap(), a);
    assert_eq!(store.read_file("/b").unwrap(), b);
    assert!(store.scrub().unwrap().is_clean());
}

/// Crash consistency: a data write torn mid-block (only 100 bytes land)
/// under an intact journal record leaves the stripe recoverable to the
/// *new* content, because parity is updated with the intended delta. The
/// update's first two scalar writes are the record's two slot copies; they
/// land whole, so the tear hits the data block.
#[test]
fn torn_write_during_update_recovers_new_content() {
    let store = fresh(4, 2, 5);
    let per = store.fs().content_bytes_per_block();
    let data = pattern(6 * per, 1);
    store.create_file("/journal", &data).unwrap();

    let new_block = pattern(per, 2);
    let device = store.fs().device();
    device.arm_partial_scalar_write(BLOCK_SIZE);
    device.arm_partial_scalar_write(BLOCK_SIZE);
    device.arm_partial_scalar_write(100);
    store.write_block("/journal", 2, &new_block).unwrap();

    let mut want = data;
    want[2 * per..3 * per].copy_from_slice(&new_block);
    assert_eq!(store.read_file("/journal").unwrap(), want);
    assert_eq!(
        store.stats().read_check_failures,
        1,
        "the torn data block fails its check and parity rebuilds it"
    );
    assert!(store.scrub().unwrap().is_clean());
}

/// Damage inflicted while the volume is offline — one erasure per stripe
/// plus a zeroed anchor replica — is healed on the next open/read/scrub
/// cycle, with only the master key to go on.
#[test]
fn reopen_after_offline_damage_recovers_everything() {
    let dev = Arc::new(FaultDevice::new(MemDevice::new(NUM_BLOCKS, BLOCK_SIZE)));
    let store = ResilientStore::format(Arc::clone(&dev), cfg(4, 1), &master(), 13).unwrap();
    let per = store.fs().content_bytes_per_block();
    let data = pattern(7 * per + 41, 0xd15c);
    store.create_file("/persist", &data).unwrap();
    let layout = store.stripe_layout("/persist").unwrap();
    drop(store);

    let mut plan = FaultPlan::new(2);
    for stripe in &layout {
        plan.zero_block(stripe[0]);
    }
    plan.zero_block(VolumeAnchor::replica_blocks(NUM_BLOCKS)[2]);
    dev.apply_plan(&plan).unwrap();

    let store = ResilientStore::open(Arc::clone(&dev), cfg(4, 1), &master(), 14).unwrap();
    // The open-time quorum read already healed the zeroed replica.
    assert!(store.stats().anchor_repairs >= 1);
    assert_eq!(store.read_file("/persist").unwrap(), data);
    assert!(store.scrub().unwrap().fully_repaired());
    assert!(store.scrub().unwrap().is_clean());
    assert_eq!(store.read_file("/persist").unwrap(), data);
}

/// A volume reopened under another striping shape than the one its files
/// were written with is refused at `open`, with an error naming the file and
/// both shapes — never mounted to panic on the first write, whose stripe
/// indices would address parity rows the file's map does not have. The
/// refusal writes nothing: the right shape still opens the volume intact.
#[test]
fn reopen_under_another_stripe_shape_is_refused() {
    let dev = Arc::new(FaultDevice::new(MemDevice::new(NUM_BLOCKS, BLOCK_SIZE)));
    let store = ResilientStore::format(Arc::clone(&dev), cfg(4, 1), &master(), 21).unwrap();
    let per = store.fs().content_bytes_per_block();
    let mut data = pattern(6 * per + 17, 0x5a9e);
    store.create_file("/shaped", &data).unwrap();
    drop(store);

    for (k, m) in [(4, 2), (3, 1), (8, 1)] {
        let refused = ResilientStore::open(Arc::clone(&dev), cfg(k, m), &master(), 22).err();
        let expected = ResilienceError::StripeShapeMismatch {
            path: "/shaped".to_string(),
            stored: StripeConfig::new(4, 1),
            configured: StripeConfig::new(k, m),
        };
        assert_eq!(refused.as_ref(), Some(&expected), "opened as ({k}, {m})");
        let message = expected.to_string();
        assert!(
            message.contains("/shaped") && message.contains("(4, 1)"),
            "{message}"
        );
        assert!(message.contains(&format!("({k}, {m})")), "{message}");
    }

    let store = ResilientStore::open(Arc::clone(&dev), cfg(4, 1), &master(), 23).unwrap();
    store.write_block("/shaped", 5, &[0x11; 64]).unwrap();
    data[5 * per..6 * per].fill(0);
    data[5 * per..5 * per + 64].fill(0x11);
    assert_eq!(store.read_file("/shaped").unwrap(), data);
    assert!(store.scrub().unwrap().is_clean());
}

/// Dump a device's raw contents, skipping the public superblock/anchor
/// replica locations. Those blocks are *known* plaintext metadata in both
/// designs (an attacker can read the volume shape without any key); the
/// deniability claim is about every other block, and the zero padding of the
/// plain superblock would otherwise dominate the byte histogram.
fn dump_hidden<D: BlockDevice>(device: &D) -> Vec<u8> {
    let bs = device.block_size();
    let public: BTreeSet<u64> = VolumeAnchor::replica_blocks(device.num_blocks())
        .into_iter()
        .collect();
    let mut buf = vec![0u8; bs];
    let mut out = Vec::with_capacity((device.num_blocks() as usize - public.len()) * bs);
    for block in 0..device.num_blocks() {
        if public.contains(&block) {
            continue;
        }
        device.read_block(block, &mut buf).unwrap();
        out.extend_from_slice(&buf);
    }
    out
}

/// Parity visibility: the striped volume's raw bytes pass the same
/// uniformity bounds as an unstriped volume holding the same payload.
/// Parity blocks, stripe maps and the anchor's key table must leave no
/// plaintext fingerprint an update-analysis attacker could latch onto.
#[test]
fn striped_volume_is_statistically_indistinguishable_from_unstriped() {
    let payload = pattern(6000, 0x1dd);

    // Unstriped reference: the plain substrate with the same shape/payload.
    let (fs, map) = StegFs::format(
        MemDevice::new(NUM_BLOCKS, BLOCK_SIZE),
        StegFsConfig::default().with_block_size(BLOCK_SIZE),
        31,
    )
    .unwrap();
    let fak = FileAccessKey::from_master(&Key256::from_passphrase("unstriped owner"));
    fs.create_file(&map, "/doc", &fak, &payload).unwrap();
    let plain_bytes = dump_hidden(fs.device());

    // Striped volume under the resilience tier, (4, 2) parity.
    let store = fresh(4, 2, 31);
    store.create_file("/doc", &payload).unwrap();
    let striped_bytes = dump_hidden(store.fs().device());

    let plain = byte_value_chi_square(&plain_bytes, 0.01);
    let striped = byte_value_chi_square(&striped_bytes, 0.01);
    assert!(
        !plain.rejects_uniformity,
        "reference not uniform: {plain:?}"
    );
    assert!(
        !striped.rejects_uniformity,
        "striped volume shows structure: {striped:?}"
    );
    assert!(byte_value_kl(&plain_bytes) < 0.01);
    assert!(byte_value_kl(&striped_bytes) < 0.01);

    // And the two distributions are mutually indistinguishable.
    let as_obs = |bytes: &[u8]| bytes.iter().map(|&b| b as u64).collect::<Vec<u64>>();
    let kl = kl_divergence_between(&as_obs(&plain_bytes), &as_obs(&striped_bytes), 256, 256);
    assert!(kl < 0.01, "KL(plain ‖ striped) = {kl}");
}

/// Scrub-as-cover-traffic visibility: the dummy-update stream with the scrub
/// cursor riding it must be distributionally indistinguishable from the pure
/// uniform stream. The two victim streams are drawn on the *same* volume in
/// alternation and compared as binned block-id histograms; a cursor that
/// clustered its sweeps (or skipped different blocks than the uniform mode)
/// would separate here.
#[test]
fn scrub_cover_traffic_is_indistinguishable_from_uniform_dummies() {
    let store = fresh(2, 1, 0x5c2b);
    let per = store.fs().content_bytes_per_block();
    store.create_file("/doc", &pattern(5 * per, 3)).unwrap();

    let cursor = store.scrub_cursor(17);
    let mut with_cursor: Vec<u64> = Vec::new();
    let mut uniform: Vec<u64> = Vec::new();
    for _ in 0..600 {
        with_cursor.extend(store.dummy_update_batch(8, Some(&cursor)).unwrap());
        uniform.extend(store.dummy_update_batch(8, None).unwrap());
    }
    // Both modes drop the occasional reserved-block draw, so the stream
    // lengths agree only approximately.
    assert!(with_cursor.len() >= 4500 && uniform.len() >= 4500);

    let kl = kl_divergence_between(&with_cursor, &uniform, NUM_BLOCKS, 16);
    assert!(kl < 0.01, "KL(cursor ‖ uniform) = {kl}");

    // One full cursor cycle names every payload block exactly once — the
    // scrub guarantee the cover traffic pays for. (Reserved blocks are in
    // the cycle but skipped at rewrite time, identically to the uniform
    // mode's skip of reserved draws.)
    let fresh_cursor = store.scrub_cursor(23);
    let mut cycle = fresh_cursor.next_victims(fresh_cursor.cycle_len());
    cycle.sort_unstable();
    let expect: Vec<u64> = (1..NUM_BLOCKS).collect();
    assert_eq!(cycle, expect);
}

/// Eight threads race to open the same volume while one anchor replica is a
/// stale (older-generation) copy. Every open must resolve the quorum to the
/// newest generation, see both files intact, and the stale replica must end
/// up repaired in place.
#[test]
fn concurrent_opens_repair_a_stale_anchor_replica() {
    let dev = Arc::new(MemDevice::new(NUM_BLOCKS, BLOCK_SIZE));
    let store = ResilientStore::format(Arc::clone(&dev), cfg(2, 1), &master(), 77).unwrap();
    let per = store.fs().content_bytes_per_block();
    let a = pattern(3 * per, 1);
    store.create_file("/a", &a).unwrap();

    // Capture a replica now, then advance the volume one more generation so
    // the captured bytes become a genuinely stale — but validly sealed —
    // anchor copy.
    let replica = VolumeAnchor::replica_blocks(NUM_BLOCKS)[1];
    let stale = dev.read_block_vec(replica).unwrap();
    let b = pattern(4 * per + 9, 2);
    store.create_file("/b", &b).unwrap();
    let generation = store.generation();
    drop(store);
    dev.write_block(replica, &stale).unwrap();

    let barrier = Arc::new(std::sync::Barrier::new(8));
    let handles: Vec<_> = (0..8u64)
        .map(|t| {
            let dev = Arc::clone(&dev);
            let barrier = Arc::clone(&barrier);
            let (a, b) = (a.clone(), b.clone());
            std::thread::spawn(move || {
                barrier.wait();
                let store = ResilientStore::open(dev, cfg(2, 1), &master(), 1000 + t).unwrap();
                assert_eq!(store.generation(), generation);
                assert_eq!(store.read_file("/a").unwrap(), a);
                assert_eq!(store.read_file("/b").unwrap(), b);
                store.stats().anchor_repairs
            })
        })
        .collect();
    let repairs: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(repairs >= 1, "no open repaired the stale replica");

    // The racing repairs converged: a fresh open finds a full-quorum anchor.
    let store = ResilientStore::open(Arc::clone(&dev), cfg(2, 1), &master(), 5).unwrap();
    assert_eq!(store.stats().anchor_repairs, 0);
    assert_eq!(store.generation(), generation);
}

/// Registry invisibility: every block of a fully populated, checkpointed
/// registry file (shards, parity, header tree, shadow map) must be
/// byte-level uniform and distributionally indistinguishable from the free
/// space they sit in. An attacker dumping the volume sees no new structure
/// after a million-user registry moves in.
#[test]
fn registry_segments_are_indistinguishable_from_free_space() {
    use stegfs_repro::resilience::Registry;

    let store = fresh(2, 1, 0x3e61);
    // 128 one-block shards make a file of ≈ 200 blocks: enough bytes that
    // the KL estimators' own sampling bias, which shrinks as 1/n over n
    // bytes, sits well under the 0.01 bounds below.
    let mut registry = Registry::create(&store, 128, 4).unwrap();
    // Fill the shards with real records (bounded by block capacity) and
    // push them all to disk.
    for i in 0..96u64 {
        registry
            .put(&format!("invis-user-{i}"), &pattern(24, i))
            .unwrap();
    }
    registry.checkpoint().unwrap();

    // Bytes of every registry block, straight off the raw device.
    let registry_blocks = registry.blocks();
    assert!(!registry_blocks.is_empty());
    let device = store.fs().device();
    let bs = device.block_size();
    let mut registry_bytes = Vec::with_capacity(registry_blocks.len() * bs);
    let mut buf = vec![0u8; bs];
    for &b in &registry_blocks {
        device.read_block(b, &mut buf).unwrap();
        registry_bytes.extend_from_slice(&buf);
    }

    // Reference: the same block positions on an identically formatted volume
    // that never grew a registry — pure free space.
    let reference_store = fresh(2, 1, 0x3e61 ^ 1);
    let reference_device = reference_store.fs().device();
    let mut free_bytes = Vec::with_capacity(registry_blocks.len() * bs);
    for &b in &registry_blocks {
        reference_device.read_block(b, &mut buf).unwrap();
        free_bytes.extend_from_slice(&buf);
    }

    let reg = byte_value_chi_square(&registry_bytes, 0.01);
    assert!(
        !reg.rejects_uniformity,
        "registry blocks show byte-level structure: {reg:?}"
    );
    assert!(byte_value_kl(&registry_bytes) < 0.01);

    let free = byte_value_chi_square(&free_bytes, 0.01);
    assert!(!free.rejects_uniformity, "reference not uniform: {free:?}");

    let as_obs = |bytes: &[u8]| bytes.iter().map(|&b| b as u64).collect::<Vec<u64>>();
    let kl = kl_divergence_between(&as_obs(&registry_bytes), &as_obs(&free_bytes), 256, 256);
    assert!(kl < 0.01, "KL(registry ‖ free space) = {kl}");

    // The whole hidden area still passes, registry included.
    let all = byte_value_chi_square(&dump_hidden(device), 0.01);
    assert!(
        !all.rejects_uniformity,
        "volume-wide uniformity broke: {all:?}"
    );
}

/// Journal invisibility: the raw bytes of the intent-journal slot blocks,
/// sampled across a `write_block` stream, must pass the same uniformity
/// bounds as any hidden block. A journal an attacker could find would defeat
/// the deniability the volume exists for.
#[test]
fn journal_slots_are_indistinguishable_from_free_space() {
    let store = fresh(4, 2, 0x6a71);
    let per = store.fs().content_bytes_per_block();
    let file_blocks = 16u64;
    store
        .create_file("/j", &pattern(file_blocks as usize * per, 71))
        .unwrap();
    let slots = store.journal_slots();
    assert!(!slots.is_empty());
    let device = store.fs().device();

    // A slot counts only when its bytes changed since the last sample:
    // re-counting an untouched slot round after round multiplies that one
    // sample's chi-square deviation by the repeat count and manufactures a
    // rejection out of perfectly uniform data.
    let mut last: Vec<Vec<u8>> = slots
        .iter()
        .map(|&s| device.read_block_vec(s).unwrap())
        .collect();
    let mut slot_bytes = Vec::new();
    for r in 0..300u64 {
        store
            .write_block("/j", r % file_blocks, &pattern(per, 7000 + r))
            .unwrap();
        for (seen, &s) in last.iter_mut().zip(&slots) {
            let now = device.read_block_vec(s).unwrap();
            if now != *seen {
                slot_bytes.extend_from_slice(&now);
                *seen = now;
            }
        }
    }
    // Every update seals its intent into both blocks of one slot pair.
    assert_eq!(slot_bytes.len(), 300 * 2 * BLOCK_SIZE);

    let chi = byte_value_chi_square(&slot_bytes, 0.01);
    assert!(
        !chi.rejects_uniformity,
        "journal slots show byte-level structure: {chi:?}"
    );
    let kl = byte_value_kl(&slot_bytes);
    assert!(kl < 0.01, "journal slot KL too high: {kl}");
}
