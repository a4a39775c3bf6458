use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::AtomicUsize;
use std::sync::{mpsc, Arc};
use std::thread::ThreadId;
use std::time::Duration;

use stegfs_blockdev::sim::{DiskModel, SimDevice};
use stegfs_blockdev::{DeviceError, FaultDevice, FaultPlan, Io, IoKind, Layered, MemDevice};
use stegfs_crypto::HashDrbg;

use super::file::Role;
use super::*;
use crate::journal::{BlockWriteIntent, IntentBody, SHADOW_ENTRY_BASE};
use crate::stripe::{BlockCheck, ChecksumKeys};

fn cfg() -> ResilienceConfig {
    ResilienceConfig::default()
        .with_fs(StegFsConfig::default().with_block_size(512))
        .with_stripe(4, 2)
}

fn master() -> Key256 {
    Key256::from_passphrase("resilient-owner")
}

fn content(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

fn fresh_store() -> ResilientStore<FaultDevice<MemDevice>> {
    let dev = FaultDevice::new(MemDevice::new(512, 512));
    ResilientStore::format(dev, cfg(), &master(), 7).unwrap()
}

#[test]
fn create_read_roundtrip() {
    let store = fresh_store();
    let data = content(3000);
    store.create_file("/a", &data).unwrap();
    assert_eq!(store.read_file("/a").unwrap(), data);
    assert!(store.stats().reads_verified > 0);
    assert_eq!(store.stats().read_check_failures, 0);
}

#[test]
fn reopen_from_anchor_recovers_everything() {
    let store = fresh_store();
    let a = content(2000);
    let b = content(700);
    store.create_file("/a", &a).unwrap();
    store.create_file("/b", &b).unwrap();
    let device = store.fs.into_device();

    let reopened = ResilientStore::open(device, cfg(), &master(), 8).unwrap();
    assert_eq!(reopened.paths(), vec!["/a".to_string(), "/b".to_string()]);
    assert_eq!(reopened.read_file("/a").unwrap(), a);
    assert_eq!(reopened.read_file("/b").unwrap(), b);
}

#[test]
fn wrong_master_cannot_open() {
    let store = fresh_store();
    store.create_file("/a", &content(100)).unwrap();
    let device = store.fs.into_device();
    assert!(matches!(
        ResilientStore::open(device, cfg(), &Key256::from_passphrase("wrong"), 8),
        Err(ResilienceError::AnchorUnrecoverable(_))
    ));
}

#[test]
fn a_freshly_formatted_volume_scans_an_empty_journal() {
    // The slots hold nothing but the format fill; opening the volume reads
    // every one of them and finds no intent.
    let device = fresh_store().fs.into_device();
    let reopened = ResilientStore::open(device, cfg(), &master(), 8).unwrap();
    let report = reopened.last_recovery();
    assert_eq!(report.intents_found, 0, "{report:?}");
    assert!(reopened.paths().is_empty());
}

#[test]
fn format_refuses_zero_journal_slots() {
    // There is no un-journaled write path: a volume without slots would
    // wait for one forever on its first create.
    let dev = FaultDevice::new(MemDevice::new(512, 512));
    assert!(matches!(
        ResilientStore::format(dev, cfg().with_journal_slots(0), &master(), 7),
        Err(ResilienceError::NoJournal)
    ));
    let dev = FaultDevice::new(MemDevice::new(512, 512));
    let store = ResilientStore::format(dev, cfg().with_journal_slots(1), &master(), 7).unwrap();
    assert_eq!(store.journal_slots().len(), 2);
}

#[test]
fn read_path_repairs_corrupted_block() {
    let store = fresh_store();
    let data = content(4000);
    store.create_file("/a", &data).unwrap();

    let victim = {
        let tables = store.tables.lock();
        let g = &tables.files["/a"];
        g.open.header.blocks[2]
    };
    let mut plan = FaultPlan::new(11);
    plan.zero_block(victim);
    store.fs.device().apply_plan(&plan).unwrap();

    assert_eq!(store.read_file("/a").unwrap(), data);
    let stats = store.stats();
    assert_eq!(stats.read_check_failures, 1);
    assert_eq!(stats.blocks_repaired, 1);
    // Repaired onto a fresh block; the old location is dummy again.
    assert_ne!(block_of(&store, "/a", 2), victim);
    assert_eq!(store.block_map().class(victim), BlockClass::Dummy);
    // A second read is clean.
    assert_eq!(store.read_file("/a").unwrap(), data);
    assert_eq!(store.stats().read_check_failures, 1);
}

#[test]
fn beyond_parity_tolerance_reports_never_lies() {
    let store = fresh_store();
    let data = content(2000); // 5 blocks of 496 → stripes of 4
    store.create_file("/a", &data).unwrap();

    // Corrupt 3 blocks of stripe 0 (m = 2 tolerated).
    let victims = {
        let tables = store.tables.lock();
        let g = &tables.files["/a"];
        g.open.header.blocks[..3].to_vec()
    };
    let mut plan = FaultPlan::new(13);
    for v in victims {
        plan.zero_block(v);
    }
    store.fs.device().apply_plan(&plan).unwrap();

    match store.read_file("/a") {
        Err(ResilienceError::Unrecoverable { path, stripes }) => {
            assert_eq!(path, "/a");
            assert_eq!(stripes, vec![0]);
        }
        other => panic!("expected Unrecoverable, got {other:?}"),
    }
    assert_eq!(store.stats().unrecoverable_stripes, 1);
}

#[test]
fn scrub_finds_and_repairs_silent_corruption() {
    let store = fresh_store();
    let data = content(5000);
    store.create_file("/a", &data).unwrap();

    let (victim_data, victim_parity) = {
        let tables = store.tables.lock();
        let g = &tables.files["/a"];
        (
            g.open.header.blocks[0],
            g.stripes.parity_entry(1, 0).location,
        )
    };
    let mut plan = FaultPlan::new(17);
    plan.flip_bit(victim_data);
    plan.zero_block(victim_parity);
    store.fs.device().apply_plan(&plan).unwrap();
    assert_eq!(plan.len(), 2);

    let report = store.scrub().unwrap();
    assert!(report.fully_repaired());
    assert_eq!(report.degraded_stripes, 2);
    assert_eq!(report.blocks_repaired, 2);
    let mut detected = report.detected.clone();
    detected.sort_unstable();
    let mut expected = vec![victim_data, victim_parity];
    expected.sort_unstable();
    assert_eq!(detected, expected);
    assert_eq!(store.read_file("/a").unwrap(), data);

    // Scrub again: clean.
    let report2 = store.scrub().unwrap();
    assert!(report2.is_clean());
}

#[test]
fn scrub_heals_corrupt_anchor_replica() {
    let store = fresh_store();
    store.create_file("/a", &content(300)).unwrap();
    let replica = VolumeAnchor::replica_blocks(512)[1];
    let mut plan = FaultPlan::new(19);
    plan.zero_block(replica);
    store.fs.device().apply_plan(&plan).unwrap();

    let report = store.scrub().unwrap();
    assert_eq!(report.anchor_replicas_repaired, 1);
    // The healed volume reopens fine even if another replica dies next.
    let device = store.fs.into_device();
    let reopened = ResilientStore::open(device, cfg(), &master(), 9).unwrap();
    assert_eq!(reopened.read_file("/a").unwrap(), content(300));
}

#[test]
fn reseal_preserves_parity_relations() {
    let store = fresh_store();
    let data = content(3500);
    store.create_file("/a", &data).unwrap();
    let owned: Vec<BlockId> = {
        let tables = store.tables.lock();
        let g = &tables.files["/a"];
        g.owned_blocks().into_iter().map(|(loc, _)| loc).collect()
    };
    let ciphertext = |loc: BlockId| {
        let mut buf = vec![0u8; 512];
        store.fs.device().read_block(loc, &mut buf).unwrap();
        buf
    };
    // One full cycle of scrub-cursor cover traffic reseals every block of
    // the volume, so every block the file owns.
    let cursor = store.scrub_cursor(5);
    for _ in 0..3 {
        let before: Vec<Vec<u8>> = owned.iter().map(|&loc| ciphertext(loc)).collect();
        for _ in 0..cursor.cycle_len().div_ceil(8) {
            store.dummy_update_batch(8, Some(&cursor)).unwrap();
        }
        // Every block the file owns — the shadow stripe map and its header
        // tree included — comes back under a fresh IV.
        for (&loc, before) in owned.iter().zip(&before) {
            assert!(&ciphertext(loc) != before, "block {loc} was left as it was");
        }
    }
    assert_eq!(store.read_file("/a").unwrap(), data);
    // All ciphertexts changed, but a scrub still finds the volume clean
    // and a degraded read still reconstructs.
    assert!(store.scrub().unwrap().is_clean());
    let victim = {
        let tables = store.tables.lock();
        let g = &tables.files["/a"];
        g.open.header.blocks[1]
    };
    let mut plan = FaultPlan::new(23);
    plan.zero_block(victim);
    store.fs.device().apply_plan(&plan).unwrap();
    assert_eq!(store.read_file("/a").unwrap(), data);
    // The resealed shadow map and header trees still open.
    let reopened = ResilientStore::open(store.into_device(), cfg(), &master(), 9).unwrap();
    assert_eq!(reopened.read_file("/a").unwrap(), data);
    assert!(reopened.scrub().unwrap().is_clean());
}

#[test]
fn delta_parity_update_matches_full_reencode() {
    let store = fresh_store();
    let data = content(4000);
    store.create_file("/a", &data).unwrap();

    let per = store.fs().content_bytes_per_block();
    let new_block = vec![0x5au8; per];
    store.write_block("/a", 1, &new_block).unwrap();

    let mut expected = data.clone();
    expected[per..2 * per].copy_from_slice(&new_block);
    assert_eq!(store.read_file("/a").unwrap(), expected);
    // Parity still reconstructs after the delta update: kill the block
    // we just wrote and read through repair.
    let victim = {
        let tables = store.tables.lock();
        let g = &tables.files["/a"];
        g.open.header.blocks[1]
    };
    let mut plan = FaultPlan::new(29);
    plan.zero_block(victim);
    store.fs.device().apply_plan(&plan).unwrap();
    assert_eq!(store.read_file("/a").unwrap(), expected);
    // And the scrub agrees everything is consistent.
    assert!(store.scrub().unwrap().is_clean());
}

#[test]
fn torn_write_mid_update_is_recovered() {
    let store = fresh_store();
    let data = content(4000);
    store.create_file("/a", &data).unwrap();

    // Tear the update's first three scalar writes mid-sector: the intent
    // record's two slot copies (torn journal records self-invalidate;
    // nothing scans them here) and then the data block write.
    let per = store.fs().content_bytes_per_block();
    store.fs.device().arm_partial_scalar_write(100);
    store.fs.device().arm_partial_scalar_write(100);
    store.fs.device().arm_partial_scalar_write(100);
    let new_block = vec![0x77u8; per];
    store.write_block("/a", 0, &new_block).unwrap();

    // The torn block fails its check; parity (updated from the intended
    // delta) reconstructs the *new* content.
    let mut expected = data.clone();
    expected[..per].copy_from_slice(&new_block);
    assert_eq!(store.read_file("/a").unwrap(), expected);
    assert!(store.stats().read_check_failures >= 1);
}

#[test]
fn journal_record_survives_one_zeroed_slot_copy() {
    let store = fresh_store();
    let guard = store
        .journal
        .begin(store.fs(), "/victim", IntentBody::Create)
        .unwrap();
    // Leak the guard: the record stays live on disk, as after a crash.
    std::mem::forget(guard);
    let found = store.journal.scan(store.fs()).unwrap();
    assert_eq!(found.len(), 1);

    // Zero every primary copy: the mirrors alone must still carry it.
    let slots: Vec<BlockId> = store.journal.slots().to_vec();
    let mut plan = FaultPlan::new(41);
    for pair in slots.chunks(2) {
        plan.zero_block(pair[0]);
    }
    store.fs.device().apply_plan(&plan).unwrap();
    assert_eq!(store.journal.scan(store.fs()).unwrap(), found);

    // Zero the mirrors as well and the record is (correctly) gone.
    let mut plan = FaultPlan::new(43);
    for pair in slots.chunks(2) {
        if let Some(&mirror) = pair.get(1) {
            plan.zero_block(mirror);
        }
    }
    store.fs.device().apply_plan(&plan).unwrap();
    assert!(store.journal.scan(store.fs()).unwrap().is_empty());
}

fn block_of(store: &ResilientStore<impl BlockDevice>, path: &str, index: usize) -> BlockId {
    store.tables.lock().files[path].open.header.blocks[index]
}

fn image(device: &impl BlockDevice) -> Vec<u8> {
    let mut out = vec![0u8; device.num_blocks() as usize * device.block_size()];
    for (b, block) in out.chunks_exact_mut(device.block_size()).enumerate() {
        device.read_block(b as u64, block).unwrap();
    }
    out
}

#[test]
fn corrupt_parity_row_is_healed_before_a_delta_folds_into_it() {
    let store = fresh_store();
    let data = content(4000);
    store.create_file("/a", &data).unwrap();
    let row = store.stripe_layout("/a").unwrap()[0][4];
    let mut plan = FaultPlan::new(31);
    plan.flip_bit(row);
    store.fs.device().apply_plan(&plan).unwrap();

    let per = store.fs().content_bytes_per_block();
    let new_block = vec![0x5au8; per];
    store.write_block("/a", 0, &new_block).unwrap();
    // The plan's first read of the row caught it: healed onto a fresh
    // block before the delta, not laundered into a "valid" post-image.
    assert_eq!(store.stats().blocks_repaired, 1);
    assert_ne!(store.stripe_layout("/a").unwrap()[0][4], row);
    assert!(store.scrub().unwrap().is_clean());

    // Both parity rows are good, so m = 2 still covers a double loss.
    let mut plan = FaultPlan::new(37);
    plan.zero_block(block_of(&store, "/a", 1));
    plan.zero_block(block_of(&store, "/a", 2));
    store.fs.device().apply_plan(&plan).unwrap();
    let mut expected = data;
    expected[..per].copy_from_slice(&new_block);
    assert_eq!(store.read_file("/a").unwrap(), expected);
}

#[test]
fn write_file_heals_the_corrupt_block_among_those_it_changes() {
    // A changed block is read, so it is verified: the corrupt one among
    // them is healed before its delta is taken, like `write_block`'s.
    let store = fresh_store();
    let per = store.fs().content_bytes_per_block();
    let data = content(64 * per - 100);
    store.create_file("/a", &data).unwrap();
    let victim = block_of(&store, "/a", 37);
    let mut plan = FaultPlan::new(47);
    plan.zero_block(victim);
    store.fs.device().apply_plan(&plan).unwrap();

    // Change the corrupt block, a neighbour in its stripe, one block far
    // away and the short tail.
    let mut updated = data;
    for i in [37, 38, 5, 63] {
        updated[i * per] ^= 0xff;
    }
    store.write_file("/a", &updated).unwrap();
    assert_eq!(store.stats().blocks_repaired, 1);
    assert_ne!(block_of(&store, "/a", 37), victim);
    assert_eq!(store.read_file("/a").unwrap(), updated);
    assert_eq!(store.stats().read_check_failures, 0);
    assert!(store.scrub().unwrap().is_clean());
}

#[test]
fn write_block_refuses_more_than_a_data_field_with_a_typed_error() {
    let store = fresh_store();
    store.create_file("/a", &content(2000)).unwrap();
    let per = store.fs().content_bytes_per_block();
    assert_eq!(
        store.write_block("/a", 1, &vec![0u8; per + 1]),
        Err(ResilienceError::BlockTooLarge {
            len: per + 1,
            capacity: per
        })
    );
    store.write_block("/a", 1, &vec![0u8; per]).unwrap();
}

/// A store over a device that logs every block read.
fn read_logged_store() -> (ResilientStore<impl BlockDevice>, Arc<Mutex<Vec<BlockId>>>) {
    let reads: Arc<Mutex<Vec<BlockId>>> = Arc::default();
    let log = reads.clone();
    let device = Layered::with_hook(MemDevice::new(512, 512), move |_: &MemDevice, io: Io| {
        if io.kind == IoKind::Read {
            log.lock().extend(io.block_ids());
        }
        Ok(())
    });
    let store = ResilientStore::format(device, cfg(), &master(), 7).unwrap();
    (store, reads)
}

#[test]
fn write_file_reads_only_the_blocks_it_rewrites() {
    let (store, reads) = read_logged_store();
    let per = store.fs().content_bytes_per_block();
    let data = content(12 * per - 100);
    store.create_file("/a", &data).unwrap();

    // The same content again: the stripe map answers for every block.
    reads.lock().clear();
    store.write_file("/a", &data).unwrap();
    assert!(reads.lock().is_empty(), "identical content read the device");

    // Block 5 rots on the device. A rewrite that changes its stripe-mate 4
    // and block 9 leaves it alone: not read, not in the intent, not healed.
    let victim = block_of(&store, "/a", 5);
    store.fs.device().write_block(victim, &[0u8; 512]).unwrap();
    let mut updated = data;
    for i in [4, 9] {
        updated[i * per + 3] ^= 0xff;
    }
    store.write_file("/a", &updated).unwrap();
    let layout = store.stripe_layout("/a").unwrap();
    let mut expected = vec![layout[1][0], layout[2][1]];
    for stripe in [1, 2] {
        let mut rows = layout[stripe][4..].to_vec();
        rows.sort_unstable();
        expected.extend(rows);
    }
    assert_eq!(
        *reads.lock(),
        expected,
        "the blocks, then each stripe's rows in ascending order"
    );
    let indices: Vec<u64> = last_write_batch(&store, "/a")
        .iter()
        .map(|e| e.index)
        .filter(|&i| i < SHADOW_ENTRY_BASE)
        .collect();
    assert_eq!(indices, [4, 9]);
    assert_eq!(store.stats().blocks_repaired, 0);
    assert_eq!(block_of(&store, "/a", 5), victim);

    // The next read of the file finds it and heals it — from parity rows
    // that took block 4's delta in the meantime.
    assert_eq!(store.read_file("/a").unwrap(), updated);
    assert_eq!(store.stats().blocks_repaired, 1);
    assert_ne!(block_of(&store, "/a", 5), victim);
    assert!(store.scrub().unwrap().is_clean());
}

/// What `model` bills for reading `addresses` one scalar request each, in
/// that order, from a head at an unknown position.
fn scalar_bill(model: &DiskModel, addresses: &[BlockId], block_size: usize) -> u64 {
    let mut head = None;
    addresses
        .iter()
        .map(|&block| {
            let us = model.service_time_us(head, block, block_size);
            head = Some(block);
            us
        })
        .sum()
}

#[test]
fn read_file_is_billed_as_one_ascending_sweep() {
    // 96 content blocks scattered over a 4 096-block volume: under the
    // paper's disk model an index-order read is a random walk, an ascending
    // one moves the head forward only.
    const N: usize = 96;
    let device = SimDevice::new(MemDevice::new(4096, 512));
    let store = ResilientStore::format(device, cfg(), &master(), 7).unwrap();
    let per = store.fs.content_bytes_per_block();
    let data = content(N * per - 5);
    store.create_file("/big", &data).unwrap();
    let by_index = store.tables.lock().files["/big"].open.header.blocks.clone();
    assert_eq!(by_index.len(), N);
    let mut ascending = by_index.clone();
    ascending.sort_unstable();

    let sim = store.fs.device();
    sim.clock().reset();
    assert_eq!(store.read_file("/big").unwrap(), data);
    let billed = sim.clock().now_us();

    let (model, block_size) = (sim.model(), sim.block_size());
    let sweep = scalar_bill(model, &ascending, block_size);
    let index_order = scalar_bill(model, &by_index, block_size);
    println!(
        "read_file of {N} blocks over 4096: {billed} us simulated; ascending sweep {sweep} us, \
         index order {index_order} us ({:.1} % less)",
        100.0 * (index_order - sweep) as f64 / index_order as f64
    );
    assert_eq!(billed, sweep, "the clock bills exactly the ascending sweep");
    assert!(sweep <= index_order, "{sweep} us > {index_order} us");
}

#[test]
fn write_file_takes_a_fast_hash_collision_for_the_change_it_is() {
    // New content whose block 3 differs from the stored one and has the
    // same fast hash — a real collision, since a record edited so that its
    // two halves disagree is one `healed_read` rightly refuses. The fast
    // hash only nominates a block as unchanged; the MAC decides.
    let store = fresh_store();
    let per = store.fs().content_bytes_per_block();
    let data = content(8 * per);
    store.create_file("/a", &data).unwrap();
    let mut updated = data.clone();
    let colliding = {
        let tables = store.tables.lock();
        let g = &tables.files["/a"];
        let colliding = g.keys.fast_collision(&data[3 * per..4 * per]);
        assert_eq!(g.keys.fast(&colliding), g.stripes.data_check(3).fast);
        colliding
    };
    updated[3 * per..4 * per].copy_from_slice(&colliding);
    assert_ne!(updated, data);

    store.write_file("/a", &updated).unwrap();
    assert_eq!(last_write_batch(&store, "/a")[0].index, 3);
    assert_eq!(store.read_file("/a").unwrap(), updated);
    assert_eq!(store.stats().read_check_failures, 0);
    assert!(store.scrub().unwrap().is_clean());
}

/// The check of every shadow block of `path` as the device holds it.
fn shadow_checks_on_device(
    store: &ResilientStore<impl BlockDevice>,
    path: &str,
) -> Vec<BlockCheck> {
    let tables = store.tables.lock();
    let g = &tables.files[path];
    let blocks = g.shadow.header.blocks.iter();
    blocks
        .map(|&loc| {
            g.shadow_keys
                .check(&store.open_block(loc, &g.shadow_key).unwrap())
        })
        .collect()
}

/// `write_block` on `path`, asserting that the shadow entries of its intent
/// record what the device held before (pre) and holds after (post).
fn write_block_checking_shadow_entries(
    store: &ResilientStore<impl BlockDevice>,
    path: &str,
    index: u64,
    fill: u8,
) {
    let before = shadow_checks_on_device(store, path);
    store.write_block(path, index, &[fill; 300]).unwrap();
    let entries = last_write_batch(store, path);
    let shadow: Vec<&BlockWriteIntent> = entries
        .iter()
        .filter(|e| e.index >= SHADOW_ENTRY_BASE)
        .collect();
    let pre: Vec<BlockCheck> = shadow.iter().map(|e| e.data_pre).collect();
    let post: Vec<BlockCheck> = shadow.iter().map(|e| e.data_post).collect();
    assert_eq!(pre, before, "shadow pre-images");
    assert_eq!(
        post,
        shadow_checks_on_device(store, path),
        "shadow post-images"
    );
}

#[test]
fn shadow_pre_images_follow_a_repair_and_a_recovery_between_two_updates() {
    let device = FaultDevice::new(MemDevice::new(512, 4096));
    let store = ResilientStore::format(device, ResilienceConfig::default(), &master(), 7).unwrap();
    let per = store.fs().content_bytes_per_block();
    store.create_file("/a", &content(12 * per - 300)).unwrap();

    // Computed the first time, taken from the previous plan the second.
    write_block_checking_shadow_entries(&store, "/a", 5, 0x11);
    write_block_checking_shadow_entries(&store, "/a", 6, 0x22);

    // A repair re-homes a parity row, so the shadow it rewrites differs
    // from the one the last plan left: that plan's checks must be gone.
    let row = store.stripe_layout("/a").unwrap()[1][4];
    let zeros = vec![0u8; 4096];
    store.fs.device().inner().write_block(row, &zeros).unwrap();
    assert_eq!(store.scrub().unwrap().blocks_repaired, 1);
    write_block_checking_shadow_entries(&store, "/a", 5, 0x33);
    write_block_checking_shadow_entries(&store, "/a", 2, 0x44);

    // A power cut after the intent pair, the data block and one parity
    // row; recovery resolves the stripe and rewrites the shadow.
    store.fs.device().reset_counters();
    store.fs.device().arm_cut(4);
    store.write_block("/a", 9, &[0x55; 300]).unwrap();
    assert!(store.fs.device().power_is_cut());
    let device = store.into_device();
    device.disarm();
    let store = ResilientStore::open(device, ResilienceConfig::default(), &master(), 8).unwrap();
    assert_eq!(store.last_recovery().recovered(), 1);
    write_block_checking_shadow_entries(&store, "/a", 9, 0x66);
    write_block_checking_shadow_entries(&store, "/a", 9, 0x77);
    assert!(store.scrub().unwrap().is_clean());
}

/// A store of 4 KB blocks: one journal record holds a 22-entry batch, so
/// the record an operation leaves in its slot carries its whole plan.
fn roomy_store() -> ResilientStore<FaultDevice<MemDevice>> {
    let dev = FaultDevice::new(MemDevice::new(512, 4096));
    ResilientStore::format(dev, ResilienceConfig::default(), &master(), 7).unwrap()
}

/// The checks of a batch's entries, without the locations a repair may
/// have moved: `(index, data pre, data post, [(row pre, row post)])`.
type EntryChecks = (u64, BlockCheck, BlockCheck, Vec<(BlockCheck, BlockCheck)>);

fn checks_of(entries: &[BlockWriteIntent]) -> Vec<EntryChecks> {
    entries
        .iter()
        .map(|e| {
            let rows = e.parity.iter().map(|p| (p.pre, p.post)).collect();
            (e.index, e.data_pre, e.data_post, rows)
        })
        .collect()
}

/// What the plan of `changes` (block index, new data field; in order) on
/// `path` must record, every check recomputed with `keys.check` from the
/// plaintext on the device — the way the plan itself worked before it
/// began to reuse the checks the stripe map already holds.
fn recomputed_plan(
    store: &ResilientStore<impl BlockDevice>,
    path: &str,
    changes: &[(u64, Vec<u8>)],
) -> Vec<EntryChecks> {
    let tables = store.tables.lock();
    let g = &tables.files[path];
    let (k, m) = (store.stripe_cfg.k as u64, store.stripe_cfg.m);
    let per = store.fs.content_bytes_per_block();
    let content_key = *g.open.fak.content_key().unwrap();
    let read = |loc| {
        store
            .read_shards(std::iter::once(loc), &content_key)
            .unwrap()
            .remove(0)
    };
    let mut post_map = g.stripes.clone();
    let mut data: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut parity: BTreeMap<u64, Vec<Vec<u8>>> = BTreeMap::new();
    let mut plan = Vec::new();
    for (index, new) in changes {
        let stripe = index / k;
        let old = data
            .entry(*index)
            .or_insert_with(|| read(g.open.header.blocks[*index as usize]));
        let rows = parity.entry(stripe).or_insert_with(|| {
            (0..m)
                .map(|row| read(g.stripes.parity_entry(stripe, row).location))
                .collect()
        });
        let pre: Vec<BlockCheck> = rows.iter().map(|row| g.keys.check(row)).collect();
        let delta: Vec<u8> = old.iter().zip(new).map(|(a, b)| a ^ b).collect();
        store.codec.apply_delta((index % k) as usize, &delta, rows);
        let post: Vec<BlockCheck> = rows.iter().map(|row| g.keys.check(row)).collect();
        let (data_pre, data_post) = (g.keys.check(old), g.keys.check(new));
        post_map.set_data_check(*index, data_post);
        for (row, check) in post.iter().enumerate() {
            let mut entry = *post_map.parity_entry(stripe, row);
            entry.check = *check;
            post_map.set_parity_entry(stripe, row, entry);
        }
        plan.push((
            *index,
            data_pre,
            data_post,
            pre.into_iter().zip(post).collect(),
        ));
        *old = new.clone();
    }
    // The chunk-closing shadow rewrite: the map before and after.
    let (pre, post) = (g.stripes.encode(), post_map.encode());
    for (i, (pre, post)) in pre.chunks(per).zip(post.chunks(per)).enumerate() {
        let field = |chunk: &[u8]| {
            let mut field = vec![0u8; per];
            field[..chunk.len()].copy_from_slice(chunk);
            g.shadow_keys.check(&field)
        };
        plan.push((
            SHADOW_ENTRY_BASE + i as u64,
            field(pre),
            field(post),
            Vec::new(),
        ));
    }
    plan
}

/// The entries of the newest `WriteBatch` record `path` left in the
/// journal (a finished operation's record stays in its slot).
fn last_write_batch(store: &ResilientStore<impl BlockDevice>, path: &str) -> Vec<BlockWriteIntent> {
    let records = store.journal.scan(store.fs()).unwrap();
    let newest = records
        .into_iter()
        .filter(|r| r.path == path)
        .max_by_key(|r| r.op_id)
        .expect("a record for the path");
    match newest.body {
        IntentBody::WriteBatch { entries } => entries,
        other => panic!("newest record is {other:?}"),
    }
}

fn field_of(store: &ResilientStore<impl BlockDevice>, data: &[u8]) -> Vec<u8> {
    let mut field = vec![0u8; store.fs.content_bytes_per_block()];
    field[..data.len()].copy_from_slice(data);
    field
}

#[test]
fn write_plan_records_the_checks_a_full_recompute_would() {
    let store = roomy_store();
    let per = store.fs().content_bytes_per_block();
    let data = content(12 * per - 300);
    store.create_file("/a", &data).unwrap();

    // One block: a one-entry batch plus the shadow rewrite.
    let changes = vec![(5, field_of(&store, &[0x5a; 1000]))];
    let expected = recomputed_plan(&store, "/a", &changes);
    store.write_block("/a", 5, &[0x5a; 1000]).unwrap();
    let entries = last_write_batch(&store, "/a");
    assert_eq!(checks_of(&entries), expected);
    assert_eq!(entries[0].data_location, block_of(&store, "/a", 5));
    assert_eq!(
        entries[0].parity[1].location,
        store.stripe_layout("/a").unwrap()[1][5]
    );

    // A rewrite touching all three stripes, two of them twice (so parity
    // checks chain from entry to entry) and the short tail block.
    let mut updated = store.read_file("/a").unwrap();
    let touched = [0u64, 3, 5, 8, 11];
    for i in touched {
        updated[i as usize * per + 17] ^= 0xff;
    }
    let changes: Vec<(u64, Vec<u8>)> = touched
        .iter()
        .map(|&i| {
            let start = i as usize * per;
            let end = updated.len().min(start + per);
            (i, field_of(&store, &updated[start..end]))
        })
        .collect();
    let expected = recomputed_plan(&store, "/a", &changes);
    store.write_file("/a", &updated).unwrap();
    assert_eq!(checks_of(&last_write_batch(&store, "/a")), expected);
    assert_eq!(store.read_file("/a").unwrap(), updated);
    assert!(store.scrub().unwrap().is_clean());
}

#[test]
fn corrupt_data_block_is_healed_before_its_delta_is_taken() {
    // The data-block twin of the parity-row test above: the block being
    // overwritten is itself corrupt. It is healed, re-read and verified
    // by its full recomputed check, and only then does the plan take the
    // stripe map's record as its pre-image — which must be the check of
    // the true old plaintext, not of anything the corruption left.
    let store = roomy_store();
    let per = store.fs().content_bytes_per_block();
    let data = content(8 * per);
    store.create_file("/a", &data).unwrap();
    let changes = vec![(1, field_of(&store, &[0x33; 50]))];
    let expected = recomputed_plan(&store, "/a", &changes);

    let victim = block_of(&store, "/a", 1);
    let mut plan = FaultPlan::new(59);
    plan.flip_bit(victim);
    store.fs.device().apply_plan(&plan).unwrap();
    store.write_block("/a", 1, &[0x33; 50]).unwrap();
    assert_eq!(store.stats().blocks_repaired, 1);
    assert_ne!(block_of(&store, "/a", 1), victim);
    let entries = last_write_batch(&store, "/a");
    assert_eq!(checks_of(&entries), expected);
    assert_eq!(entries[0].data_location, block_of(&store, "/a", 1));
    assert!(store.scrub().unwrap().is_clean());

    // Parity took the true delta, so m = 2 still covers a double loss.
    let mut plan = FaultPlan::new(61);
    plan.zero_block(block_of(&store, "/a", 0));
    plan.zero_block(block_of(&store, "/a", 1));
    store.fs.device().apply_plan(&plan).unwrap();
    let mut updated = data;
    updated[per..2 * per].copy_from_slice(&changes[0].1);
    assert_eq!(store.read_file("/a").unwrap(), updated);
}

#[test]
fn write_file_records_the_healed_blocks_true_pre_image() {
    // The twin of the batched pre-read test above, on a volume whose
    // journal record holds the whole batch: the one corrupt block among
    // the changed ones goes through heal, full re-check and then the
    // recorded-check branch like its intact neighbours.
    let store = roomy_store();
    let per = store.fs().content_bytes_per_block();
    let data = content(12 * per);
    store.create_file("/a", &data).unwrap();
    let mut updated = data;
    let touched = [2u64, 6, 7, 10];
    for i in touched {
        updated[i as usize * per] ^= 0xff;
    }
    let changes: Vec<(u64, Vec<u8>)> = touched
        .iter()
        .map(|&i| (i, updated[i as usize * per..][..per].to_vec()))
        .collect();
    let expected = recomputed_plan(&store, "/a", &changes);

    let victim = block_of(&store, "/a", 6);
    let mut plan = FaultPlan::new(67);
    plan.zero_block(victim);
    store.fs.device().apply_plan(&plan).unwrap();
    store.write_file("/a", &updated).unwrap();
    assert_eq!(store.stats().blocks_repaired, 1);
    assert_ne!(block_of(&store, "/a", 6), victim);
    assert_eq!(checks_of(&last_write_batch(&store, "/a")), expected);
    assert_eq!(store.read_file("/a").unwrap(), updated);
    assert_eq!(store.stats().read_check_failures, 0);
    assert!(store.scrub().unwrap().is_clean());
}

/// The owner index, rebuilt from the file table the way every
/// `dummy_update_batch` call used to.
fn rebuilt_owners<D: BlockDevice>(store: &ResilientStore<D>) -> BTreeMap<BlockId, (String, Role)> {
    let mut owners = BTreeMap::new();
    for (path, g) in store.tables.lock().files.iter() {
        let mut own = |loc, role| owners.insert(loc, (path.clone(), role));
        for (i, &loc) in g.open.header.blocks.iter().enumerate() {
            own(loc, Role::Content(i as u64));
        }
        for stripe in 0..g.stripes.num_stripes() {
            for row in 0..store.stripe_cfg.m {
                let loc = g.stripes.parity_entry(stripe, row).location;
                own(loc, Role::Parity(stripe, row));
            }
        }
        own(g.open.header_location, Role::HeaderTree);
        for &loc in &g.open.indirect_locations {
            own(loc, Role::HeaderTree);
        }
        for &loc in &g.shadow.header.blocks {
            own(loc, Role::ShadowContent);
        }
        own(g.shadow.header_location, Role::ShadowHeaderTree);
        for &loc in &g.shadow.indirect_locations {
            own(loc, Role::ShadowHeaderTree);
        }
    }
    owners
}

fn assert_index_is_current<D: BlockDevice>(store: &ResilientStore<D>, when: &str) {
    let rebuilt = rebuilt_owners(store);
    let tables = store.tables.lock();
    let index = &tables.index;
    let standing: BTreeMap<BlockId, (String, Role)> = index
        .iter()
        .map(|(&loc, (path, role))| (loc, (path.to_string(), *role)))
        .collect();
    assert_eq!(standing, rebuilt, "{when}");
    // What the index used to list as reserved is the block map's to know:
    // claimed, and nobody's in the index.
    for b in VolumeAnchor::replica_blocks(store.fs.superblock().num_blocks)
        .into_iter()
        .chain(store.journal_slots())
    {
        assert_ne!(store.map.class(b), BlockClass::Dummy, "{when}");
        assert!(!index.contains_key(&b), "{when}");
    }
}

#[test]
fn owner_index_tracks_a_rebuild_through_creates_writes_repairs_and_reopens() {
    let mut store = fresh_store();
    let mut rng = HashDrbg::from_u64(2024);
    let mut sizes: Vec<usize> = Vec::new();
    assert_index_is_current(&store, "fresh volume");
    for step in 0..60 {
        let op = if sizes.is_empty() {
            0
        } else {
            rng.gen_range(5)
        };
        let file = rng.gen_range(sizes.len().max(1) as u64) as usize;
        let path = format!("/f{file}");
        let when = format!("step {step}, op {op} on {path}");
        match op {
            0 if sizes.len() < 3 => {
                let len = 1 + rng.gen_range(6000) as usize;
                store
                    .create_file(&format!("/f{}", sizes.len()), &content(len))
                    .unwrap();
                sizes.push(len);
            }
            0 | 1 => {
                let per = store.fs().content_bytes_per_block();
                let index = rng.gen_range(sizes[file].div_ceil(per) as u64);
                store.write_block(&path, index, &[step as u8; 40]).unwrap();
            }
            // Corrupt any shard of the file: the read, or a cover-traffic
            // sweep over the whole volume, re-homes it.
            2 | 3 => {
                let layout = store.stripe_layout(&path).unwrap();
                let stripe = &layout[rng.gen_range(layout.len() as u64) as usize];
                let mut plan = FaultPlan::new(step);
                plan.zero_block(stripe[rng.gen_range(stripe.len() as u64) as usize]);
                store.fs.device().apply_plan(&plan).unwrap();
                if op == 2 {
                    store.read_file(&path).unwrap();
                } else {
                    let cursor = store.scrub_cursor(step);
                    store
                        .dummy_update_batch(cursor.cycle_len(), Some(&cursor))
                        .unwrap();
                }
            }
            // Reopen with a live `Repair` intent over a corrupt shard:
            // the re-homing happens inside `open`'s recovery pass.
            _ => {
                let guard = store
                    .journal
                    .begin(store.fs(), &path, IntentBody::Repair)
                    .unwrap();
                std::mem::forget(guard);
                let mut plan = FaultPlan::new(step);
                plan.zero_block(block_of(&store, &path, 0));
                store.fs.device().apply_plan(&plan).unwrap();
                store = ResilientStore::open(store.into_device(), cfg(), &master(), step).unwrap();
                assert_eq!(store.last_recovery().rolled_forward, 1, "{when}");
            }
        }
        assert_index_is_current(&store, &when);
    }
    // A zeroed parity row is invisible to `read_file`; the scrub re-homes
    // whatever is still waiting.
    assert!(store.scrub().unwrap().fully_repaired());
    assert_index_is_current(&store, "after the closing scrub");
    assert!(store.stats().blocks_repaired > 0);
}

/// `dummy_update_batch` as it was before the standing index: the owner
/// map rebuilt for every batch, keys derived and buffers allocated per
/// victim. The reference for the touched stream and the device image.
fn rebuild_per_batch_dummy_update<D: BlockDevice>(
    store: &ResilientStore<D>,
    k: usize,
    cursor: Option<&ScrubCursor>,
) -> Vec<BlockId> {
    let num = store.fs.superblock().num_blocks;
    let victims: Vec<BlockId> = match cursor {
        Some(cursor) => cursor.next_victims(k),
        None => (0..k)
            .map(|_| store.fs.with_rng(|rng| 1 + rng.gen_range(num - 1)))
            .collect(),
    };
    let reserved: BTreeSet<BlockId> = VolumeAnchor::replica_blocks(num)
        .into_iter()
        .chain(store.journal_slots())
        .collect();
    let owners = rebuilt_owners(store);
    let mut scratch = vec![0u8; store.fs.codec().block_size()];
    let mut touched = Vec::new();
    for victim in victims {
        if reserved.contains(&victim) {
            continue;
        }
        match owners.get(&victim) {
            None => store.fs.randomize_block(victim, &mut scratch).unwrap(),
            Some((path, role)) => {
                let mut tables = store.tables.lock();
                let g = &tables.files[path];
                let content_key = *g.open.fak.content_key().unwrap();
                let keys = ChecksumKeys::derive(&content_key);
                let verified = |expected: [u8; 16]| {
                    let codec = store.fs.codec();
                    let field = codec
                        .read_sealed(store.fs.device(), victim, &content_key)
                        .unwrap();
                    keys.mac16(&field) == expected
                };
                let (key, stripe, intact) = match *role {
                    Role::Content(i) => (
                        content_key,
                        store.stripe_cfg.stripe_of(i),
                        verified(g.stripes.data_check(i).mac),
                    ),
                    Role::Parity(stripe, row) => (
                        content_key,
                        stripe,
                        verified(g.stripes.parity_entry(stripe, row).check.mac),
                    ),
                    Role::HeaderTree => (*g.open.fak.header_key(), 0, true),
                    Role::ShadowContent => (*g.shadow.fak.content_key().unwrap(), 0, true),
                    Role::ShadowHeaderTree => (*g.shadow.fak.header_key(), 0, true),
                };
                if intact {
                    store.fs.reseal_block(victim, &key).unwrap();
                } else {
                    store
                        .repair_stripe(&mut tables.file_mut(path).unwrap(), stripe, true)
                        .unwrap();
                }
            }
        }
        touched.push(victim);
    }
    touched
}

#[test]
fn dummy_updates_match_the_rebuild_per_batch_reference() {
    for with_cursor in [true, false] {
        let build = || {
            let store = fresh_store();
            store.create_file("/a", &content(3000)).unwrap();
            store.create_file("/b", &content(5000)).unwrap();
            store.create_file("/c", &content(700)).unwrap();
            // One corrupt data block and one corrupt parity row, so the
            // verify-and-repair arm is on the compared path too.
            let mut plan = FaultPlan::new(53);
            plan.zero_block(block_of(&store, "/a", 2));
            plan.flip_bit(store.stripe_layout("/b").unwrap()[1][5]);
            store.fs.device().apply_plan(&plan).unwrap();
            let cursor = with_cursor.then(|| store.scrub_cursor(5));
            (store, cursor)
        };
        let (standing, standing_cursor) = build();
        let (reference, reference_cursor) = build();
        // 8 at a time, past one full cycle of the 511 payload blocks.
        for batch in 0..80 {
            let touched = standing
                .dummy_update_batch(8, standing_cursor.as_ref())
                .unwrap();
            let expected = rebuild_per_batch_dummy_update(&reference, 8, reference_cursor.as_ref());
            assert_eq!(touched, expected, "batch {batch}, cursor {with_cursor}");
        }
        assert!(
            image(standing.fs.device()) == image(reference.fs.device()),
            "device images diverge, cursor {with_cursor}"
        );
        assert_eq!(standing.stats(), reference.stats());
        if with_cursor {
            assert_eq!(standing.stats().blocks_repaired, 2);
        }
        assert_index_is_current(&standing, "after the sweep");
    }
}

/// A device gate for the one-call-at-a-time tests: once armed, the first
/// write parks until the test releases it. Each request is logged with its
/// thread as it goes on to the device, after any park.
#[derive(Clone, Default)]
struct WriteGate {
    log: Arc<Mutex<Vec<ThreadId>>>,
    armed: Arc<Mutex<Option<Park>>>,
}

/// Where a parked write says it has parked, and waits to be released.
type Park = (mpsc::Sender<()>, mpsc::Receiver<()>);

impl WriteGate {
    fn device(
        &self,
    ) -> Layered<MemDevice, impl Fn(&MemDevice, Io) -> Result<(), DeviceError> + Send + Sync> {
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
        Layered::with_hook(MemDevice::new(512, 512), hook)
    }

    /// Run `first` on one thread until its first write parks, start
    /// `second` on another, and release the write 200 ms later. Returns both
    /// results and the order of their requests: `1` for a request of
    /// `first`, `2` for one of `second`.
    fn race<A: Send, B: Send>(
        &self,
        first: impl FnOnce() -> A + Send,
        second: impl FnOnce() -> B + Send,
    ) -> (A, B, String) {
        self.log.lock().clear();
        let (a, b, ids) = std::thread::scope(|s| {
            let (parked_tx, parked) = mpsc::channel();
            let (release, release_rx) = mpsc::channel();
            *self.armed.lock() = Some((parked_tx, release_rx));
            let first = s.spawn(first);
            parked
                .recv_timeout(Duration::from_secs(10))
                .expect("the first call never wrote");
            let second = s.spawn(second);
            std::thread::sleep(Duration::from_millis(200));
            release.send(()).unwrap();
            let ids = (first.thread().id(), second.thread().id());
            (first.join().unwrap(), second.join().unwrap(), ids)
        });
        let order = (self.log.lock().iter())
            .map(|&t| match t {
                t if t == ids.0 => '1',
                t if t == ids.1 => '2',
                _ => '?',
            })
            .collect();
        (a, b, order)
    }
}

#[test]
fn concurrent_calls_wait_for_a_write_in_flight() {
    let gate = WriteGate::default();
    let store = ResilientStore::format(gate.device(), cfg(), &master(), 7).unwrap();
    store.create_file("/a", &content(2000)).unwrap();
    store.create_file("/b", &content(700)).unwrap();
    let ((), (), order) = gate.race(
        || store.write_block("/a", 1, &[0x5a; 100]).unwrap(),
        || assert_eq!(store.read_file("/b").unwrap(), content(700)),
    );
    let last_write = order.rfind('1').expect("the write made no request");
    let first_read = order.find('2').expect("the read made no request");
    assert!(
        first_read > last_write,
        "the read ran inside the write (1: write, 2: read): {order}"
    );
}

#[test]
fn a_create_racing_a_create_of_its_path_is_refused() {
    let gate = WriteGate::default();
    let store = ResilientStore::format(gate.device(), cfg(), &master(), 7).unwrap();
    let (first, second) = (vec![1u8; 700], vec![2u8; 700]);
    let (a, b, order) = gate.race(
        || store.create_file("/same", &first),
        || store.create_file("/same", &second),
    );
    let (created, refused) = match (a, b) {
        (Ok(()), Err(e)) => (&first, e),
        (Err(e), Ok(())) => (&second, e),
        outcome => panic!("creates returned {outcome:?}, one must win: {order}"),
    };
    assert!(
        matches!(&refused, ResilienceError::AlreadyExists(path) if path == "/same"),
        "the losing create is refused as a taken path, not {refused:?}"
    );
    let live = store.read_file("/same").unwrap();
    let reopened = ResilientStore::open(store.into_device(), cfg(), &master(), 8).unwrap();
    assert_eq!(
        &live, created,
        "the live read serves the refused create's bytes"
    );
    assert_eq!(reopened.read_file("/same").unwrap(), live);
}

#[test]
fn unknown_file_and_duplicate_create() {
    let store = fresh_store();
    assert!(matches!(
        store.read_file("/nope"),
        Err(ResilienceError::UnknownFile(_))
    ));
    store.create_file("/a", &content(10)).unwrap();
    assert!(matches!(
        store.create_file("/a", &content(10)),
        Err(ResilienceError::AlreadyExists(path)) if path == "/a"
    ));
}

#[test]
fn parity_blocks_look_like_free_space() {
    // A parity block and a never-used block are both `IV ‖ CBC bytes`
    // with no plaintext structure; spot-check that parity blocks are not
    // trivially distinguishable (full chi-square analysis lives in the
    // stegfs-analysis integration test).
    let store = fresh_store();
    store.create_file("/a", &content(3000)).unwrap();
    let tables = store.tables.lock();
    let g = &tables.files["/a"];
    let loc = g.stripes.parity_locations()[0];
    let mut buf = vec![0u8; 512];
    store.fs.device().read_block(loc, &mut buf).unwrap();
    let mut counts = [0u32; 256];
    for &b in &buf {
        counts[b as usize] += 1;
    }
    assert!(*counts.iter().max().unwrap() < 20);
}

/// Bytes produced by the encoder as it stood before the port onto
/// `wire`: the format must not move.
#[test]
fn anchor_payload_golden_vectors_are_bit_identical() {
    const GOLDEN_PAYLOAD_PLAIN: &[u8] = b"\
        \x08\x00\x6b\x01\x00\x00\x00\x00\x00\x00\xaf\x00\x00\x00\x00\x00\x00\x00\x77\x01\
        \x00\x00\x00\x00\x00\x00\xe2\x01\x00\x00\x00\x00\x00\x00\x94\x00\x00\x00\x00\x00\
        \x00\x00\xe5\x00\x00\x00\x00\x00\x00\x00\xc3\x01\x00\x00\x00\x00\x00\x00\x6d\x01\
        \x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x02\x00\x2f\x61\x01\xc9\xa7\xa1\x2d\x1b\
        \x41\x16\x79\x7d\x93\xf2\xc8\xa8\x03\xe9\xf4\x01\x77\x52\xb4\x83\x24\xd7\xf3\x6f\
        \xc3\x80\xfe\x8a\x35\x86\xfe\x1d\xe5\x72\x17\x92\x02\xbe\xf2\xab\x39\xe4\x8e\xad\
        \xdc\xcb\xe5\x9a\x9b\x58\xa1\xd3\x09\x89\xcc\xc6\xbc\xc1\xd2\x62\x28\x70\x82\x23\
        \x22\xd0\xb8\x94\xfa\xc1\x3f\x4a\x8b\xd8\x02\xd0\x6b\x70\x91\x1c\x31\x99\x37\x86\
        \xf1\x9b\x0a\xf3\x4d\x4b\xe1\x34\x04\xc3\x60\x05\x00\x2f\x62\x2f\xc3\xbc\x01\x95\
        \x9b\xb4\x23\x54\x72\xf7\x1f\x89\xb3\x5b\x7a\x12\x44\x20\xb3\x3d\x11\xef\xf3\xb4\
        \x59\x0f\x93\x31\x27\x98\x4c\x7f\x26\x9f\xa8\x1a\x50\x8e\x39\xb6\x71\x39\x8e\x05\
        \xa2\xec\x65\xb7\xea\x4e\x5d\x9e\xa9\x05\xfa\xbf\xfa\x6f\x54\x26\xd0\xe1\x43\xb9\
        \x72\x87\x44\x9f\x1a\xab\x28\x3f\x59\xba\x96\x77\x00\xbc\xa4\xc0\xab\x49\xa7\x6e\
        \x07\x42\xfe\x37\xad\xc1\xd5\x6e\x2f\x2b\xbb\xa7\x6e\x66\x27";
    const GOLDEN_PAYLOAD_SEALED: &[u8] = b"\
        \xc8\xfa\xc1\xcb\x5e\x08\x32\x0d\xb9\x7b\x50\x53\x08\xce\x38\xb0\x13\x01\x00\x00\
        \x56\xc6\x0e\x82\x34\x0a\x49\x74\x3f\x35\x6c\x31\x44\x8b\xa5\x43\x41\x3b\x29\x84\
        \xf6\x92\x68\x9d\xd6\xdb\x3b\xcb\x47\xba\x16\xee\xfd\x86\x97\x8f\xe8\x03\xbb\x52\
        \x93\x87\xe4\x51\xe3\xd1\xd8\x69\xfc\x1a\x04\xd7\xd8\x38\xa2\xfc\x60\xd7\xa0\xa7\
        \x19\x51\x9a\xb4\x38\x06\x56\x97\x7a\x0e\x0a\xe7\xf8\xd5\x60\xa8\x55\x49\x68\x1d\
        \xc4\xb2\x77\xcf\xce\xe6\xfd\x7d\x8b\xe3\xb8\xd8\x8f\x20\x04\x86\xc3\x84\x59\x33\
        \xf7\x7a\xdf\x0d\xa0\x38\xa0\x9d\x0b\xd5\xfb\x83\xaf\x44\x4c\xbb\x80\x98\x5f\xa0\
        \x9f\x20\xf6\x19\xc7\x33\xe9\x0f\x8a\x61\x18\xfb\x68\x1d\x59\x9a\x76\x9e\x03\xef\
        \x30\x35\x91\x6a\x42\x6a\xee\x75\xba\x3f\xea\x0e\xc9\x96\xa9\xbd\xa7\xbf\xff\x09\
        \x40\x03\xf4\x0e\x5a\x4f\xd7\x93\xf9\x4c\x7c\x3a\x10\x62\xca\xef\x57\x6a\xd4\x77\
        \x5a\x7a\x8f\x28\x55\x4a\x0c\xfd\xa3\x05\xc5\x04\x26\x93\xb9\x7b\x9e\x04\x2b\xc5\
        \xda\x4e\x80\x70\x1d\x99\xdd\x53\x05\x42\xb2\x7d\x52\xea\xb4\x11\x92\xcf\xc9\xc1\
        \xf6\x4e\x5e\x22\xf5\x41\x32\x46\x3e\xd7\x3d\xca\xa3\x12\xb0\x3e\x71\xe3\x75\x72\
        \x34\xaa\x27\x1d\x2d\x37\x30\xe4\xbf\xd3\xe2\x4d\x56\xb0\xde\x72\x98\xf3\xee\xf4\
        \xfe\x32\x2f\x83\x55\x00\x71\xb0\x2d\x03\xa0\xa8\xdd\xbe\xb2\xd3\x6f\x6a\x09\xdc\
        \xf7\x4c\xd5\xda\x44\xc5\xf6\xfc";
    let store = fresh_store();
    store.create_file("/a", &content(700)).unwrap();
    store.create_file("/b/ü", &content(10)).unwrap();
    let plain = store.encode_payload_plain(&store.tables.lock().files);
    assert_eq!(plain, GOLDEN_PAYLOAD_PLAIN);
    assert_eq!(store.seal_payload(&plain), GOLDEN_PAYLOAD_SEALED);

    type Store = ResilientStore<FaultDevice<MemDevice>>;
    let opened = Store::open_payload_with(&store.payload_key, GOLDEN_PAYLOAD_SEALED).unwrap();
    assert_eq!(opened, GOLDEN_PAYLOAD_PLAIN);
    let (slots, faks) = Store::parse_payload(GOLDEN_PAYLOAD_PLAIN).unwrap();
    assert_eq!(slots, store.journal_slots());
    assert_eq!(
        faks,
        [
            ("/a".to_string(), store.file_fak("/a")),
            ("/b/ü".to_string(), store.file_fak("/b/ü")),
        ]
    );
}

/// Regression: six bytes declaring no journal slots and `u32::MAX` files
/// made the parent reserve 549 GB and abort the process.
#[test]
fn hostile_anchor_payload_count_is_refused_before_allocation() {
    type Store = ResilientStore<FaultDevice<MemDevice>>;
    assert!(matches!(
        Store::parse_payload(&[0, 0, 0xff, 0xff, 0xff, 0xff]),
        Err(ResilienceError::Corrupt(_))
    ));
    assert!(matches!(
        Store::parse_payload(&[0xff, 0xff, 1]),
        Err(ResilienceError::Corrupt(_))
    ));
}

#[test]
fn cover_traffic_leaves_a_claimed_but_unowned_block_alone() {
    // The state `create_file` is in between `fs.create_file` and `adopt`,
    // and `repair_stripe` between `allocate_blocks` and `index.relocate`:
    // the block map says the block is taken, the owner index has no key for
    // it yet.
    let store = fresh_store();
    store.create_file("/a", &content(2000)).unwrap();
    let claimed = store.fs.allocate_blocks(&store.map, 1).unwrap()[0];
    let sentinel = vec![0xa5u8; 512];
    store.fs.device().write_block(claimed, &sentinel).unwrap();
    let on_device = || {
        let mut buf = vec![0u8; 512];
        store.fs.device().read_block(claimed, &mut buf).unwrap();
        buf
    };
    let aim = || ScrubCursor {
        order: vec![claimed],
        pos: AtomicUsize::new(0),
    };

    assert_eq!(store.dummy_update_batch(1, Some(&aim())).unwrap(), vec![]);
    assert!(on_device() == sentinel, "a claimed block was rewritten");

    // Released, it is free space again and the same batch rewrites it.
    store.map.set(claimed, BlockClass::Dummy);
    assert_eq!(
        store.dummy_update_batch(1, Some(&aim())).unwrap(),
        vec![claimed]
    );
    assert!(on_device() != sentinel, "a free block was left as it was");
    assert_eq!(store.map.class(claimed), BlockClass::Dummy);
}

/// A (4, 2) stripe of `live` data shards with its parity at made-up
/// locations: what the stripe truly holds and the MACs a stripe map would
/// record for it.
struct SampleStripe {
    sites: Vec<(usize, BlockId)>,
    truth: Vec<Vec<u8>>,
    recorded: Vec<[u8; 16]>,
    keys: ChecksumKeys,
}

impl SampleStripe {
    fn new(live: usize) -> Self {
        let keys = ChecksumKeys::derive(&master());
        let mut data: Vec<Vec<u8>> = (0..live)
            .map(|slot| (0..64).map(|i| (slot * 37 + i) as u8).collect())
            .collect();
        // A short final stripe is encoded with zeros in the missing slots.
        data.resize(4, vec![0u8; 64]);
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let parity = ErasureCodec::new(4, 2).encode(&refs);
        data.truncate(live);
        let truth: Vec<Vec<u8>> = data.into_iter().chain(parity).collect();
        Self {
            sites: (0..live)
                .chain(4..6)
                .map(|slot| (slot, 100 + slot as u64))
                .collect(),
            recorded: truth.iter().map(|field| keys.mac16(field)).collect(),
            truth,
            keys,
        }
    }

    /// The stripe as read from a device that damaged the `damage`d shards.
    fn view(&self, damage: &[usize]) -> repair::StripeView {
        let mut on_device = self.truth.clone();
        for &shard in damage {
            on_device[shard][5] ^= 0x40;
        }
        repair::StripeView::new(self.sites.clone(), on_device, &self.keys)
    }
}

#[test]
fn stripe_view_rebuilds_exactly_the_erased_slots_or_reports_lost() {
    let codec = ErasureCodec::new(4, 2);
    // A full stripe and a short final one (two live data shards).
    for live in [4usize, 2] {
        let stripe = SampleStripe::new(live);
        let shards = live + 2;
        for pattern in 0u32..1 << shards {
            let damage: Vec<usize> = (0..shards).filter(|s| pattern & (1 << s) != 0).collect();
            let solved = stripe.view(&damage).solve(&codec, &stripe.recorded);
            if damage.len() > 2 {
                // Past tolerance it is `Lost`, naming what failed — never
                // an attempt at the bytes.
                let repair::Lost(detected) = solved.err().expect("beyond parity");
                let expected: Vec<BlockId> = damage.iter().map(|&s| stripe.sites[s].1).collect();
                assert_eq!(detected, expected, "live {live}, pattern {pattern:#b}");
                continue;
            }
            let rebuilt = solved.ok().expect("within parity");
            assert_eq!(rebuilt.len(), damage.len(), "live {live}, {pattern:#b}");
            for (shard, &damaged) in rebuilt.iter().zip(&damage) {
                assert_eq!((shard.slot, shard.location), stripe.sites[damaged]);
                assert_eq!(
                    shard.shard, stripe.truth[damaged],
                    "live {live}, {pattern:#b}"
                );
            }
        }
    }
}
