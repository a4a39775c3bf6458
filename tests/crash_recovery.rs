//! Exhaustive crash-point recovery matrix.
//!
//! Every mutating operation of the stack is run under [`FaultDevice`] with a
//! power cut armed at *every* write index `N = 0..=total` (the total is the
//! device's `writes_attempted` after one uncut run). After each cut the
//! surviving bytes are snapshotted and the volume is re-opened — which runs
//! the intent-journal recovery pass — and the tests assert the crash
//! contract: the affected object reads back as **exactly the old or exactly
//! the new state, never a hybrid**, with zero unclassifiable outcomes.
//!
//! Covered operations: resilient `create_file` (commit point = anchor
//! generation bump), the delta-parity `write_block` update, a scrub repair
//! over a pre-corrupted stripe, the oblivious store's structural flush
//! (a cache: recovery is a rebuild over whatever survived), and the
//! steghide agent's relocate-update plus header flush. A second matrix re-crashes the
//! recovery pass itself at every write index and checks recovery is
//! idempotent.
//!
//! Set `STEGFS_CRASH_QUICK=1` to stride through the cut indices (always
//! keeping `0`, `total`, and every eighth point in between) for the reduced
//! CI profile; the default runs the full matrix.

use std::sync::Arc;

use stegfs_repro::blockdev::{clone_to_mem, FaultDevice};
use stegfs_repro::prelude::*;
use stegfs_repro::steghide::ConcurrentAgent;

const BLOCK_SIZE: usize = 512;
const NUM_BLOCKS: u64 = 256;
const SEED: u64 = 0x5eed_cafe;

fn quick() -> bool {
    std::env::var("STEGFS_CRASH_QUICK").is_ok_and(|v| v != "0")
}

/// Cut indices to sweep: the full `0..=total` matrix, or a strided subset
/// (always including both endpoints) in quick mode.
fn cut_points(total: u64) -> Vec<u64> {
    let step = if quick() { (total / 8).max(1) } else { 1 };
    let mut points: Vec<u64> = (0..=total).step_by(step as usize).collect();
    if points.last() != Some(&total) {
        points.push(total);
    }
    points
}

fn cfg() -> ResilienceConfig {
    ResilienceConfig::default()
        .with_fs(StegFsConfig::default().with_block_size(BLOCK_SIZE))
        .with_stripe(2, 1)
}

fn master() -> Key256 {
    Key256::from_passphrase("crash recovery")
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

type CrashStore = ResilientStore<Arc<FaultDevice<MemDevice>>>;

/// Clone `image` behind a fresh crash wrapper and open it (recovery runs
/// uncut; the caller arms the cut afterwards).
fn open_clone(image: &MemDevice) -> (Arc<FaultDevice<MemDevice>>, CrashStore) {
    let dev = Arc::new(FaultDevice::new(clone_to_mem(image).unwrap()));
    let store = ResilientStore::open(Arc::clone(&dev), cfg(), &master(), SEED).unwrap();
    (dev, store)
}

fn reopen(snapshot: MemDevice) -> ResilientStore<MemDevice> {
    ResilientStore::open(snapshot, cfg(), &master(), SEED).unwrap()
}

/// A formatted volume holding one bystander file, plus that file's bytes.
fn baseline() -> (MemDevice, Vec<u8>) {
    let dev = Arc::new(MemDevice::new(NUM_BLOCKS, BLOCK_SIZE));
    let store = ResilientStore::format(Arc::clone(&dev), cfg(), &master(), SEED).unwrap();
    let per = store.fs().content_bytes_per_block();
    let keep = pattern(4 * per, 7);
    store.create_file("/keep", &keep).unwrap();
    drop(store);
    (clone_to_mem(&dev).unwrap(), keep)
}

/// Common post-crash checks: recovery classified everything, the generation
/// never went backwards, and the bystander file is untouched.
fn assert_volume_sane(store: &ResilientStore<MemDevice>, gen0: u64, keep: &[u8], ctx: &str) {
    let report = store.last_recovery();
    assert_eq!(report.unrecoverable, 0, "{ctx}: unclassifiable crash state");
    assert!(
        report.intents_found >= report.recovered() + report.intents_stale,
        "{ctx}: incoherent recovery report {report:?}"
    );
    assert!(
        store.generation() >= gen0,
        "{ctx}: anchor generation moved backwards"
    );
    assert_eq!(
        store.read_file("/keep").unwrap(),
        keep,
        "{ctx}: bystander file damaged"
    );
}

#[test]
fn create_file_recovers_to_old_or_new_at_every_cut() {
    let (image, keep) = baseline();
    let (dev, store) = open_clone(&image);
    let gen0 = store.generation();
    let per = store.fs().content_bytes_per_block();
    // Deliberately not block-aligned so the tail check exercises file_size.
    let content = pattern(3 * per - 57, 13);

    dev.reset_counters();
    store.create_file("/new", &content).unwrap();
    let total = dev.writes_attempted();
    assert!(total >= 5, "create issued only {} writes", total);
    drop(store);

    for n in cut_points(total) {
        let (dev, store) = open_clone(&image);
        dev.reset_counters();
        dev.arm_cut(n);
        let _ = store.create_file("/new", &content);
        let snapshot = dev.snapshot_to_mem().unwrap();
        drop(store);

        let store = reopen(snapshot);
        assert_volume_sane(&store, gen0, &keep, &format!("create cut {n}"));
        if n == 0 {
            // Nothing landed: trivially rolled back.
            assert_eq!(store.generation(), gen0, "cut 0 must be a no-op");
        }
        if n == total {
            assert!(
                store.paths().iter().any(|p| p == "/new"),
                "uncut create must be committed"
            );
        }
        if store.paths().iter().any(|p| p == "/new") {
            // Committed: the file must read back fully, not half-exist.
            assert_eq!(
                store.read_file("/new").unwrap(),
                content,
                "create cut {n}: committed file is not intact"
            );
            assert!(
                store.generation() > gen0,
                "create cut {n}: committed without a generation bump"
            );
        } else {
            // Rolled back: the undo must have freed everything the aborted
            // create touched — re-creating the same path must succeed.
            store.create_file("/new", &content).unwrap();
            assert_eq!(store.read_file("/new").unwrap(), content);
        }
    }
}

/// Build the write_block fixture: a volume with "/f" holding `old`, plus the
/// bystander, and the expected post-update bytes.
fn update_fixture() -> (MemDevice, Vec<u8>, Vec<u8>, Vec<u8>, Vec<u8>) {
    let (image, keep) = baseline();
    let (dev, store) = open_clone(&image);
    let per = store.fs().content_bytes_per_block();
    let old = pattern(4 * per, 29);
    store.create_file("/f", &old).unwrap();
    let image = dev.snapshot_to_mem().unwrap();
    drop(store);

    let newblk = pattern(per, 99);
    let mut new = old.clone();
    new[per..2 * per].copy_from_slice(&newblk);
    (image, keep, old, new, newblk)
}

#[test]
fn block_update_is_old_or_new_at_every_cut() {
    let (image, keep, old, new, newblk) = update_fixture();

    let (dev, store) = open_clone(&image);
    let gen0 = store.generation();
    dev.reset_counters();
    store.write_block("/f", 1, &newblk).unwrap();
    let total = dev.writes_attempted();
    assert!(total >= 4, "update issued only {} writes", total);
    drop(store);

    let (mut saw_old, mut saw_new) = (false, false);
    for n in cut_points(total) {
        let (dev, store) = open_clone(&image);
        dev.reset_counters();
        dev.arm_cut(n);
        let _ = store.write_block("/f", 1, &newblk);
        let snapshot = dev.snapshot_to_mem().unwrap();
        drop(store);

        let store = reopen(snapshot);
        assert_volume_sane(&store, gen0, &keep, &format!("update cut {n}"));
        let got = store.read_file("/f").unwrap();
        assert!(
            got == old || got == new,
            "update cut {n}: hybrid state (neither old nor new bytes)"
        );
        saw_old |= got == old;
        saw_new |= got == new;
        if n == 0 {
            assert_eq!(got, old, "cut 0 must keep the old bytes");
        }
        if n == total {
            assert_eq!(got, new, "uncut update must land the new bytes");
        }
    }
    // The sweep must have exercised both recovery directions.
    assert!(saw_old && saw_new, "sweep never covered both outcomes");
}

#[test]
fn batched_file_rewrite_recovers_to_a_clean_frontier_at_every_cut() {
    let (image, keep) = baseline();
    let (dev, store) = open_clone(&image);
    let per = store.fs().content_bytes_per_block();
    let old = pattern(8 * per, 31);
    store.create_file("/f", &old).unwrap();
    let image = dev.snapshot_to_mem().unwrap();
    drop(store);

    // Change 5 of 8 blocks: both blocks of stripe 0 (exercising the parity
    // chain within one record) plus singles across other stripes. With
    // 512-byte blocks the journal record fits three entries, so the batch
    // also splits across two sealed intents.
    let changed: [u64; 5] = [0, 1, 2, 5, 7];
    let mut new = old.clone();
    for (j, &i) in changed.iter().enumerate() {
        let blk = pattern(per, 900 + j as u64);
        new[i as usize * per..(i as usize + 1) * per].copy_from_slice(&blk);
    }

    let (dev, store) = open_clone(&image);
    let gen0 = store.generation();
    dev.reset_counters();
    store.write_file("/f", &new).unwrap();
    let total = dev.writes_attempted();
    assert!(total >= 10, "batched rewrite issued only {} writes", total);
    drop(store);

    let mut frontiers = std::collections::BTreeSet::new();
    for n in cut_points(total) {
        let (dev, store) = open_clone(&image);
        dev.reset_counters();
        dev.arm_cut(n);
        let _ = store.write_file("/f", &new);
        let snapshot = dev.snapshot_to_mem().unwrap();
        drop(store);

        let store = reopen(snapshot);
        assert_volume_sane(&store, gen0, &keep, &format!("rewrite cut {n}"));
        let got = store.read_file("/f").unwrap();

        // Every unchanged block is untouched; every changed block is exactly
        // old or new; and in batch (index) order the changed blocks form a
        // contiguous new-prefix / old-suffix — the recovery frontier.
        let mut states: Vec<bool> = Vec::new();
        for i in 0..8usize {
            let g = &got[i * per..(i + 1) * per];
            let o = &old[i * per..(i + 1) * per];
            let w = &new[i * per..(i + 1) * per];
            if changed.contains(&(i as u64)) {
                assert!(
                    g == o || g == w,
                    "rewrite cut {n}: block {i} is a hybrid of old and new"
                );
                states.push(g == w);
            } else {
                assert_eq!(g, o, "rewrite cut {n}: bystander block {i} damaged");
            }
        }
        let frontier = states.iter().filter(|&&s| s).count();
        assert!(
            states[..frontier].iter().all(|&s| s) && states[frontier..].iter().all(|&s| !s),
            "rewrite cut {n}: non-contiguous frontier {states:?}"
        );
        frontiers.insert(frontier);
        if n == 0 {
            assert_eq!(frontier, 0, "cut 0 must keep the old bytes");
        }
        if n == total {
            assert_eq!(frontier, changed.len(), "uncut rewrite must land fully");
        }
    }
    assert!(
        frontiers.contains(&0) && frontiers.contains(&changed.len()),
        "sweep never covered both extremes: {frontiers:?}"
    );
    if !quick() {
        assert!(
            frontiers.len() >= 3,
            "sweep never stopped mid-batch: {frontiers:?}"
        );
    }
}

#[test]
fn shadow_map_rewrite_cuts_leave_a_consistent_stripe_map() {
    // The shadow stripe-map rewrite at the end of each batched chunk is now
    // recorded as the tail of the chunk's intent record. Whatever write the
    // cut lands on — data, parity, or any shadow block — recovery must leave
    // the on-disk stripe map aligned with the resolved data frontier: the
    // volume scrubs clean and a further update works first try.
    let (image, keep) = baseline();
    let (dev, store) = open_clone(&image);
    let per = store.fs().content_bytes_per_block();
    let old = pattern(6 * per, 61);
    store.create_file("/f", &old).unwrap();
    let image = dev.snapshot_to_mem().unwrap();
    drop(store);

    let mut new = old.clone();
    for i in [0usize, 3, 4] {
        new[i * per..(i + 1) * per].copy_from_slice(&pattern(per, 700 + i as u64));
    }

    let (dev, store) = open_clone(&image);
    let gen0 = store.generation();
    dev.reset_counters();
    store.write_file("/f", &new).unwrap();
    let total = dev.writes_attempted();
    drop(store);

    for n in cut_points(total) {
        let (dev, store) = open_clone(&image);
        dev.reset_counters();
        dev.arm_cut(n);
        let _ = store.write_file("/f", &new);
        let snapshot = dev.snapshot_to_mem().unwrap();
        drop(store);

        let store = reopen(snapshot);
        assert_volume_sane(&store, gen0, &keep, &format!("shadow cut {n}"));
        // The recovered stripe map agrees with every on-disk block: a scrub
        // finds nothing to repair.
        let report = store.scrub().unwrap();
        assert!(
            report.is_clean(),
            "shadow cut {n}: stripe map out of line with disk: {report:?}"
        );
        // And the map serves a fresh delta update correctly.
        let touch = pattern(per, 1234);
        store.write_block("/f", 2, &touch).unwrap();
        let got = store.read_file("/f").unwrap();
        assert_eq!(&got[2 * per..3 * per], &touch[..], "shadow cut {n}");
    }
}

#[test]
fn registry_checkpoint_is_old_or_new_at_every_cut() {
    // Tentpole crash row: a power cut anywhere inside a registry checkpoint
    // (intent slots, shard blocks, parity rows, shadow stripe map) must
    // resolve, per shard, to exactly the pre-checkpoint or post-checkpoint
    // record set.
    let (image, keep) = baseline();
    const RESIDENT: usize = 4;
    let (dev, store) = open_clone(&image);
    let registry = Registry::create(&store, 4, RESIDENT).unwrap();
    let users: Vec<String> = (0..10).map(|i| format!("user-{i}")).collect();
    for u in &users {
        registry.put(u, b"old-state").unwrap();
    }
    registry.checkpoint().unwrap();
    let image = dev.snapshot_to_mem().unwrap();
    drop(store);

    // The dirtying itself is in-memory; only the checkpoint writes.
    let dirty_and_checkpoint = |store: &CrashStore| {
        let registry = Registry::open(store, RESIDENT).unwrap().unwrap();
        for u in &users {
            registry.put(u, b"new-state").unwrap();
        }
        let _ = registry.checkpoint();
    };

    let (dev, store) = open_clone(&image);
    let gen0 = store.generation();
    dev.reset_counters();
    dirty_and_checkpoint(&store);
    let total = dev.writes_attempted();
    assert!(total >= 4, "checkpoint issued only {} writes", total);
    drop(store);

    let (mut saw_old, mut saw_new) = (false, false);
    for n in cut_points(total) {
        let (dev, store) = open_clone(&image);
        dev.reset_counters();
        dev.arm_cut(n);
        dirty_and_checkpoint(&store);
        let snapshot = dev.snapshot_to_mem().unwrap();
        drop(store);

        let store = reopen(snapshot);
        assert_volume_sane(&store, gen0, &keep, &format!("checkpoint cut {n}"));
        let registry = Registry::open(&store, RESIDENT).unwrap().unwrap();
        // Per shard, the record set is all-old or all-new; a user never
        // reads a hybrid or vanishes.
        let mut shard_saw: std::collections::HashMap<u32, bool> = std::collections::HashMap::new();
        for (i, u) in users.iter().enumerate() {
            let got = registry.get(u).unwrap();
            let is_new = match got.as_deref() {
                Some(b"new-state") => true,
                Some(b"old-state") => false,
                other => panic!("checkpoint cut {n}: user {i} reads {other:?}"),
            };
            saw_old |= !is_new;
            saw_new |= is_new;
            let shard = registry.shard_of(u);
            let first = *shard_saw.entry(shard).or_insert(is_new);
            assert_eq!(
                first, is_new,
                "checkpoint cut {n}: shard {shard} committed only some of its users"
            );
        }
        if n == 0 {
            assert!(
                users
                    .iter()
                    .all(|u| registry.get(u).unwrap().as_deref() == Some(&b"old-state"[..])),
                "cut 0 must keep the old records"
            );
        }
        if n == total {
            assert!(
                users
                    .iter()
                    .all(|u| registry.get(u).unwrap().as_deref() == Some(&b"new-state"[..])),
                "uncut checkpoint must land the new records"
            );
        }
        // After recovery the registry accepts further traffic and
        // checkpoints cleanly.
        registry.put("post-crash", b"fresh").unwrap();
        registry.checkpoint().unwrap();
        assert_eq!(
            registry.get("post-crash").unwrap().as_deref(),
            Some(&b"fresh"[..])
        );
    }
    assert!(saw_old && saw_new, "sweep never covered both outcomes");
}

#[test]
fn live_intent_survives_a_zeroed_slot_copy() {
    // Satellite: journal slots are replicated; losing one copy of a live
    // record must not orphan the in-flight intent. Crash an update mid-way,
    // zero the *primary* copy of every slot pair, and recovery must still
    // classify the cut from the mirror.
    let (image, keep, old, new, newblk) = update_fixture();

    let (dev, store) = open_clone(&image);
    let gen0 = store.generation();
    let slots = store.journal_slots();
    assert!(slots.len() >= 2 && slots.len() % 2 == 0, "slots are paired");
    dev.reset_counters();
    store.write_block("/f", 1, &newblk).unwrap();
    let total = dev.writes_attempted();
    drop(store);

    for n in cut_points(total) {
        for copy in [0usize, 1] {
            let (dev, store) = open_clone(&image);
            dev.reset_counters();
            dev.arm_cut(n);
            let _ = store.write_block("/f", 1, &newblk);
            let snapshot = dev.snapshot_to_mem().unwrap();
            drop(store);

            // Lose one copy of every pair (primaries, then mirrors on the
            // second pass) — the FaultDevice-style zeroed-block loss model.
            for pair in slots.chunks(2) {
                snapshot
                    .write_block(pair[copy], &vec![0u8; BLOCK_SIZE])
                    .unwrap();
            }

            let store = reopen(snapshot);
            assert_volume_sane(&store, gen0, &keep, &format!("slot loss {n}/{copy}"));
            let got = store.read_file("/f").unwrap();
            assert!(
                got == old || got == new,
                "slot loss {n}/{copy}: hybrid state after losing a slot copy"
            );
        }
    }
}

#[test]
fn scrub_repair_crash_never_loses_data() {
    let (image, keep) = baseline();
    let (dev, store) = open_clone(&image);
    let per = store.fs().content_bytes_per_block();
    let old = pattern(4 * per, 43);
    store.create_file("/f", &old).unwrap();
    // Physical location of content block 0 — the shard the scrub will find
    // corrupt and repair.
    let victim = store.stripe_layout("/f").unwrap()[0][0];
    let image = dev.snapshot_to_mem().unwrap();
    drop(store);
    image.write_block(victim, &pattern(BLOCK_SIZE, 5)).unwrap();

    let (dev, store) = open_clone(&image);
    let gen0 = store.generation();
    dev.reset_counters();
    store.scrub().unwrap();
    let total = dev.writes_attempted();
    assert!(total >= 1, "scrub over a corrupt shard wrote nothing");
    drop(store);

    for n in cut_points(total) {
        let (dev, store) = open_clone(&image);
        dev.reset_counters();
        dev.arm_cut(n);
        let _ = store.scrub();
        let snapshot = dev.snapshot_to_mem().unwrap();
        drop(store);

        // Repair is content-neutral: whatever prefix of it landed, the file
        // must still read back byte-exact (the read path re-repairs any
        // remaining damage from parity).
        let store = reopen(snapshot);
        assert_volume_sane(&store, gen0, &keep, &format!("scrub cut {n}"));
        assert_eq!(
            store.read_file("/f").unwrap(),
            old,
            "scrub cut {n}: repair changed file content"
        );
        // And the volume scrubs clean afterwards.
        store.scrub().unwrap();
        assert_eq!(store.read_file("/f").unwrap(), old);
    }
}

#[test]
fn recovery_is_idempotent_under_a_second_crash() {
    let (image, keep, old, new, newblk) = update_fixture();

    let (dev, store) = open_clone(&image);
    let gen0 = store.generation();
    dev.reset_counters();
    store.write_block("/f", 1, &newblk).unwrap();
    let total = dev.writes_attempted();
    drop(store);

    // Representative first-crash points: just after the intent landed, the
    // middle of the data writes, and just before completion.
    let mut firsts = vec![1, total / 2, total.saturating_sub(1)];
    firsts.dedup();
    for n in firsts.into_iter().filter(|&n| n > 0 && n < total) {
        let (dev, store) = open_clone(&image);
        dev.reset_counters();
        dev.arm_cut(n);
        let _ = store.write_block("/f", 1, &newblk);
        let crashed = dev.snapshot_to_mem().unwrap();
        drop(store);

        // Discover how many writes the recovery pass itself issues.
        let rdev = Arc::new(FaultDevice::new(clone_to_mem(&crashed).unwrap()));
        drop(ResilientStore::open(Arc::clone(&rdev), cfg(), &master(), SEED).unwrap());
        let recovery_total = rdev.writes_attempted();
        drop(rdev);

        for m in cut_points(recovery_total) {
            let rdev = Arc::new(FaultDevice::new(clone_to_mem(&crashed).unwrap()));
            rdev.arm_cut(m);
            // The recovery pass is cut at write m; it may finish in memory or
            // surface an error — either way only the landed prefix matters.
            let _ = ResilientStore::open(Arc::clone(&rdev), cfg(), &master(), SEED);
            let snapshot = rdev.snapshot_to_mem().unwrap();
            drop(rdev);

            let store = reopen(snapshot);
            assert_volume_sane(&store, gen0, &keep, &format!("double crash {n}/{m}"));
            let got = store.read_file("/f").unwrap();
            assert!(
                got == old || got == new,
                "double crash {n}/{m}: hybrid state after re-recovery"
            );
            if m == recovery_total {
                // The first recovery ran to completion: a further open must
                // find a quiescent journal.
                let again = reopen(clone_to_mem(store.fs().device()).unwrap());
                assert_eq!(
                    again.last_recovery().intents_found,
                    0,
                    "double crash {n}/{m}: completed recovery left intents behind"
                );
                assert_eq!(again.read_file("/f").unwrap(), got);
            }
        }
    }
}

// ----- oblivious structural flush ---------------------------------------

type ObStore = ObliviousStore<Arc<FaultDevice<MemDevice>>, MemDevice>;

fn ob_cfg() -> ObliviousConfig {
    ObliviousConfig::new(4, 32)
}

fn ob_master() -> Key256 {
    Key256::from_passphrase("crash oblivious")
}

fn ob_payload(id: u64) -> Vec<u8> {
    vec![(id % 251) as u8; 200]
}

/// Fresh oblivious store over a crash wrapper, with the buffer one insert
/// away from its first structural flush.
fn ob_store_primed() -> (Arc<FaultDevice<MemDevice>>, ObStore) {
    let cfg = ob_cfg();
    let blocks = ObStore::blocks_required(&cfg, BLOCK_SIZE);
    let sort_blocks = ObStore::sort_blocks_required(&cfg);
    let dev = Arc::new(FaultDevice::new(MemDevice::new(blocks, BLOCK_SIZE)));
    let sort = MemDevice::new(sort_blocks + 8, BLOCK_SIZE + 32);
    let store = ObliviousStore::new(Arc::clone(&dev), sort, cfg, ob_master(), 9, None).unwrap();
    for id in 0..3u64 {
        store.insert(id, ob_payload(id)).unwrap();
    }
    (dev, store)
}

#[test]
fn oblivious_flush_cut_at_any_write_rebuilds() {
    // Cuts land on the main partition; the sort partition is scratch.
    let cfg = ob_cfg();
    let master = ob_master();

    let (dev, store) = ob_store_primed();
    dev.reset_counters();
    store.insert(3, ob_payload(3)).unwrap();
    let total = dev.writes_attempted();
    assert!(total >= 3, "flush issued only {} writes", total);
    drop((dev, store));

    for n in cut_points(total) {
        let (dev, store) = ob_store_primed();
        dev.reset_counters();
        dev.arm_cut(n);
        let _ = store.insert(3, ob_payload(3));
        let snapshot = dev.snapshot_to_mem().unwrap();
        drop((dev, store));

        // Recovery for the (lossless) cache is a rebuild: a fresh store over
        // the surviving partition, which it never reads, must come up and
        // serve reads.
        let sort = MemDevice::new(ObStore::sort_blocks_required(&cfg) + 8, BLOCK_SIZE + 32);
        let rebuilt =
            ObliviousStore::<MemDevice, MemDevice>::new(snapshot, sort, cfg, master, 10, None)
                .unwrap();
        for id in 0..4u64 {
            rebuilt.insert(id, ob_payload(id)).unwrap();
            assert_eq!(rebuilt.read(id).unwrap(), ob_payload(id));
        }
        assert!(rebuilt.membership_is_consistent(), "flush cut {n}");
    }
}

// ----- steghide relocate-update -----------------------------------------

#[test]
fn agent_relocate_update_is_old_or_new_at_every_cut() {
    let fs_cfg = StegFsConfig::default().with_block_size(BLOCK_SIZE);
    let agent_key = Key256::from_passphrase("crash agent");
    let user = Key256::from_passphrase("crash user");

    // The agent's state lives in memory, so every sweep iteration replays
    // the identical seeded format + create + update sequence on a fresh
    // device and only the cut index varies; the write trace before the cut
    // is deterministic.
    let run = |cut: Option<u64>| -> (MemDevice, u64, Vec<u8>, Vec<u8>) {
        let dev = Arc::new(FaultDevice::new(MemDevice::new(NUM_BLOCKS, BLOCK_SIZE)));
        let agent = ConcurrentAgent::format(
            Arc::clone(&dev),
            fs_cfg,
            AgentConfig::default(),
            agent_key,
            SEED,
            4,
        )
        .unwrap();
        let per = agent.fs().content_bytes_per_block();
        let old = pattern(3 * per, 21);
        let id = agent.create_file(&user, "/doc", &old).unwrap();
        agent.flush().unwrap();

        let newblk = pattern(per, 77);
        let mut new = old.clone();
        new[per..2 * per].copy_from_slice(&newblk);

        dev.reset_counters();
        if let Some(n) = cut {
            dev.arm_cut(n);
        }
        let _ = agent.update_block(id, 1, &newblk);
        let _ = agent.flush();
        let total = dev.writes_attempted();
        (dev.snapshot_to_mem().unwrap(), total, old, new)
    };

    let (_, total, _, _) = run(None);
    assert!(total >= 2, "update+flush issued only {total} writes");

    for n in cut_points(total) {
        let (snapshot, _, old, new) = run(Some(n));
        // Remount the raw substrate and open the file exactly as the agent
        // would: the header either still points at the old block or was
        // repointed to the relocated one — never in between.
        let fs = StegFs::mount(snapshot, SEED).unwrap();
        let fak =
            FileAccessKey::from_parts(user.derive("steghide:location"), agent_key, Some(agent_key));
        let open = fs.open_file(&fak, "/doc").unwrap();
        let got = fs.read_file(&open).unwrap();
        assert!(
            got == old || got == new,
            "agent cut {n}: hybrid state after relocate-update"
        );
        if n == 0 {
            assert_eq!(got, old, "cut 0 must keep the old bytes");
        }
        if n == total {
            assert_eq!(got, new, "uncut update must land the new bytes");
        }
    }
}
