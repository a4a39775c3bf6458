//! The durable path's I/O budget: the analytical model of what each
//! `ResilientStore` operation asks of the device, held to the measurement
//! exactly. (`benchmark/`'s `durable_mixed` reports the same counts per
//! operation — `resilience.reads_per_update`, `journal_writes_per_update`,
//! `other_writes_per_update` — with no model beside them.)
//!
//! A hook under a (k, m) = (4, 2) store logs every request and the test
//! sorts each into *journal* (`journal_slots()`), *stripe* (`stripe_layout()`:
//! content blocks and parity rows) or *other* (the shadow stripe map, header
//! trees). With c blocks changed over s stripes, all in one journal chunk,
//! and S blocks of shadow map:
//!
//! | operation              | reads     | writes                              |
//! |------------------------|-----------|-------------------------------------|
//! | `write_block`          | 1 + m     | 2 journal + (1 + m) stripe + S other |
//! | `write_file`           | c + m·s   | 2 journal + c(1 + m) stripe + S other |
//! | `write_file`, same content | 0     | 0                                   |
//! | `read_file`, n blocks  | n, ascending | 0                                |
//! | cover update, owned victim of any role | 1 (the victim) | 1 (the victim) |
//!
//! The pre-reads are Plank's delta update — the block and its stripe's m
//! parity rows — and nothing else. Two rows are about the attacker, not the
//! bill: an update reads only blocks it then writes, so the read set tells
//! whoever watches the bus nothing the write set does not; and the request
//! sequence of `write_block` does not depend on how hot the block is. The
//! read row also fixes the order: one sweep in ascending block order, which
//! under the disk model turns some of a scattered file's full seeks into
//! near ones, and shows the bus the file's set of blocks but not which index
//! lives where.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use stegfs_repro::blockdev::{BlockDevice, BlockId, Io, IoKind, Layered, MemDevice};
use stegfs_repro::prelude::*;
use stegfs_repro::resilience::StripeMap;
use stegfs_repro::stegfs::BlockClass;

const K: usize = 4;
const M: usize = 2;
/// Content blocks of the file under test: 30 stripes, and a stripe map two
/// blocks long.
const N: usize = 120;

type Log = Arc<Mutex<Vec<Io>>>;

fn cfg() -> ResilienceConfig {
    ResilienceConfig::default().with_stripe(K, M)
}

/// A store of 4 KB blocks — one journal record holds a 22-entry chunk — over
/// a device that logs every request in the shape it arrived in.
fn logged_store() -> (ResilientStore<impl BlockDevice>, Log) {
    let log = Log::default();
    let sink = log.clone();
    let device = Layered::with_hook(MemDevice::new(1024, 4096), move |_: &MemDevice, io: Io| {
        sink.lock().unwrap().push(io);
        Ok(())
    });
    let master = Key256::from_passphrase("durable io budget");
    let store = ResilientStore::format(device, cfg(), &master, 7).unwrap();
    (store, log)
}

fn content(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8 ^ salt).collect()
}

/// Requests of one operation, by the class of block they address.
#[derive(Debug, Default, PartialEq, Eq)]
struct Bill {
    journal_reads: usize,
    journal_writes: usize,
    stripe_reads: usize,
    stripe_writes: usize,
    other_reads: usize,
    other_writes: usize,
}

/// What `op` asked of the device: the bill, the blocks read and the blocks
/// written. Every request must be scalar — a ranged one would be billed as
/// one positioning by the disk model and is no part of this budget.
fn billed<D: BlockDevice>(
    store: &ResilientStore<D>,
    log: &Log,
    path: &str,
    op: impl FnOnce(),
) -> (Bill, BTreeSet<BlockId>, BTreeSet<BlockId>) {
    log.lock().unwrap().clear();
    op();
    let requests = std::mem::take(&mut *log.lock().unwrap());
    let journal: BTreeSet<BlockId> = store.journal_slots().into_iter().collect();
    let layout = store.stripe_layout(path).unwrap();
    let stripes: BTreeSet<BlockId> = layout.into_iter().flatten().collect();
    let (mut bill, mut read, mut written) = (Bill::default(), BTreeSet::new(), BTreeSet::new());
    for io in requests {
        assert!(!io.ranged && io.blocks == 1, "{io:?}");
        let (in_journal, in_stripes) = (journal.contains(&io.start), stripes.contains(&io.start));
        let slot = match (io.kind, in_journal, in_stripes) {
            (IoKind::Read, true, _) => &mut bill.journal_reads,
            (IoKind::Write, true, _) => &mut bill.journal_writes,
            (IoKind::Read, _, true) => &mut bill.stripe_reads,
            (IoKind::Write, _, true) => &mut bill.stripe_writes,
            (IoKind::Read, ..) => &mut bill.other_reads,
            (IoKind::Write, ..) => &mut bill.other_writes,
        };
        *slot += 1;
        match io.kind {
            IoKind::Read => read.insert(io.start),
            IoKind::Write => written.insert(io.start),
        };
    }
    (bill, read, written)
}

/// The model: an update of `c` blocks over `s` stripes in one chunk.
fn update_bill(c: usize, s: usize, shadow_blocks: usize) -> Bill {
    Bill {
        journal_writes: 2,
        stripe_reads: c + M * s,
        stripe_writes: c * (1 + M),
        other_writes: shadow_blocks,
        ..Bill::default()
    }
}

#[test]
fn every_operation_costs_what_the_model_says() {
    let (store, log) = logged_store();
    let per = store.fs().content_bytes_per_block();
    let shadow_blocks = StripeMap::encoded_len(store.stripe_config(), N as u64).div_ceil(per);
    assert_eq!(shadow_blocks, 2);
    let mut data = content(N * per - 100, 1);
    store.create_file("/a", &data).unwrap();
    store.create_file("/b", &content(9 * per, 2)).unwrap();

    // write_block: the block and its stripe's rows, read then rewritten.
    let (bill, read, written) = billed(&store, &log, "/a", || {
        store.write_block("/a", 17, &[0x5a; 300]).unwrap();
    });
    assert_eq!(bill, update_bill(1, 1, shadow_blocks), "write_block");
    assert!(
        read.is_subset(&written),
        "write_block read more than it wrote"
    );
    data[17 * per..18 * per].fill(0);
    data[17 * per..17 * per + 300].fill(0x5a);

    // write_file: c = 8 blocks over s = 6 stripes; c = 4 in one stripe;
    // c = 1 — the tail block, short of a data field.
    for changed in [
        &[3usize, 4, 5, 40, 41, 77, 100, 118][..],
        &[8, 9, 10, 11],
        &[119],
    ] {
        for &i in changed {
            data[i * per + 9] ^= 0xff;
        }
        let stripes: BTreeSet<usize> = changed.iter().map(|i| i / K).collect();
        let (bill, read, written) = billed(&store, &log, "/a", || {
            store.write_file("/a", &data).unwrap();
        });
        let model = update_bill(changed.len(), stripes.len(), shadow_blocks);
        assert_eq!(bill, model, "write_file changing {changed:?}");
        assert!(
            read.is_subset(&written),
            "write_file read more than it wrote"
        );
    }

    // The same content again: the stripe map's MACs answer, not the device.
    let (bill, ..) = billed(&store, &log, "/a", || {
        store.write_file("/a", &data).unwrap();
    });
    assert_eq!(bill, Bill::default(), "unchanged write_file");

    // read_file: each content block once, nothing else, in one ascending
    // sweep over the disk.
    let mut addresses: Vec<BlockId> = Vec::new();
    let (bill, ..) = billed(&store, &log, "/a", || {
        assert_eq!(store.read_file("/a").unwrap(), data);
        addresses = log.lock().unwrap().iter().map(|io| io.start).collect();
    });
    let model = Bill {
        stripe_reads: N,
        ..Bill::default()
    };
    assert_eq!(bill, model, "read_file");
    assert!(
        addresses.windows(2).all(|w| w[0] < w[1]),
        "read_file's addresses do not strictly ascend: {addresses:?}"
    );
    let mut content_blocks: Vec<BlockId> = store
        .stripe_layout("/a")
        .unwrap()
        .iter()
        .flat_map(|stripe| stripe[..stripe.len() - M].to_vec())
        .collect();
    content_blocks.sort_unstable();
    assert_eq!(
        addresses, content_blocks,
        "read_file reads the content blocks"
    );
}

#[test]
fn a_cover_update_reads_and_writes_its_victim_once_whatever_it_holds() {
    let (store, log) = logged_store();
    let per = store.fs().content_bytes_per_block();
    store.create_file("/a", &content(N * per, 3)).unwrap();
    store.create_file("/b", &content(9 * per, 4)).unwrap();
    let journal = store.journal_slots();
    let striped: BTreeSet<BlockId> = ["/a", "/b"]
        .iter()
        .flat_map(|path| store.stripe_layout(path).unwrap())
        .flatten()
        .collect();
    // Content blocks and rows; header trees, shadow maps and their header
    // trees make up the rest of what the two files own.
    assert_eq!(striped.len(), (N + 9) + M * (N / K + 3));

    let cursor = store.scrub_cursor(5);
    let (mut owned, mut free) = (BTreeSet::new(), 0);
    for _ in 0..cursor.cycle_len() {
        log.lock().unwrap().clear();
        let touched = store.dummy_update_batch(1, Some(&cursor)).unwrap();
        let shape: Vec<(IoKind, BlockId)> = log
            .lock()
            .unwrap()
            .iter()
            .map(|io| (io.kind, io.start))
            .collect();
        match touched[..] {
            // Claimed by nobody's file — a journal slot, an anchor replica.
            [] => assert_eq!(shape, []),
            [victim] if store.block_map().class(victim) == BlockClass::Data => {
                assert!(!journal.contains(&victim));
                assert_eq!(shape, [(IoKind::Read, victim), (IoKind::Write, victim)]);
                owned.insert(victim);
            }
            [victim] => {
                assert_eq!(shape, [(IoKind::Write, victim)]);
                free += 1;
            }
            _ => panic!("one victim a batch, got {touched:?}"),
        }
    }
    assert!(
        owned.is_superset(&striped),
        "a content block or row went unvisited"
    );
    // Two header blocks and two shadow headers at the least, and the
    // shadow maps: 2 blocks for /a, 1 for /b.
    assert!(
        owned.len() >= striped.len() + 4 + 3,
        "only striped roles seen"
    );
    assert_eq!(
        owned.len() as u64,
        store.block_map().data_blocks() - journal.len() as u64,
        "every owned block is a (read, write) victim"
    );
    assert!(free > 0);
    assert!(store.scrub().unwrap().is_clean());
}

#[test]
fn write_block_asks_the_same_of_the_device_hot_or_cold() {
    let (store, log) = logged_store();
    let per = store.fs().content_bytes_per_block();
    store.create_file("/a", &content(N * per, 5)).unwrap();
    // The request sequence as (kind, blocks) — everything about it but the
    // addresses, which are where the file lives.
    let sequence_of = |index: u64, fill: u8| -> Vec<(IoKind, u64)> {
        log.lock().unwrap().clear();
        store.write_block("/a", index, &vec![fill; per]).unwrap();
        let requests = log.lock().unwrap();
        requests.iter().map(|io| (io.kind, io.blocks)).collect()
    };
    let first = sequence_of(7, 0);
    assert_eq!(first.len(), (1 + M) + 2 + (1 + M) + 2);
    for round in 1..1000u32 {
        assert_eq!(sequence_of(7, round as u8), first, "hot write {round}");
    }
    assert_eq!(sequence_of(101, 0xee), first, "cold write");
}
