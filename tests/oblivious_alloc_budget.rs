//! What the oblivious store asks of the allocator.
//!
//! A level re-order moves every item of the receiving level, so anything it
//! allocates per item — a `Vec` for the decoded payload, another for the
//! sealed record, another for the record read back from the sort partition —
//! is paid thousands of times per flush cascade. The re-order forms its
//! records in the sorter's run arena and hands them on as borrowed slices;
//! this suite holds it to that: the bytes a cascade allocates are the fixed
//! buffers of the pipeline, whatever the size of the levels it streams, and
//! the *number* of allocations does not depend on how many items the
//! receiving level holds. A read that scans the levels reads every probe into one scratch
//! block.
//!
//! The counting allocator lives here, in the test crate: the workspace crates
//! stay `forbid(unsafe_code)`. One test in the file, counting on its own
//! thread only, so the harness's threads do not show up in the numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use stegfs_repro::blockdev::MemDevice;
use stegfs_repro::crypto::Key256;
use stegfs_repro::oblivious::{DetHashMap, ObliviousConfig, ObliviousStore};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are atomics and the flag a
// const-initialised thread-local without a destructor, so neither allocates
// nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTED.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What one call asked of the allocator: requests (a `realloc` counts as the
/// request for the grown block) and bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Asked {
    allocations: u64,
    bytes: u64,
}

fn measure<T>(op: impl FnOnce() -> T) -> (T, Asked) {
    let before = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    COUNTED.with(|c| c.set(true));
    let out = op();
    COUNTED.with(|c| c.set(false));
    let asked = Asked {
        allocations: ALLOCATIONS.load(Ordering::Relaxed) - before.0,
        bytes: BYTES.load(Ordering::Relaxed) - before.1,
    };
    (out, asked)
}

type Store = ObliviousStore<MemDevice, MemDevice>;

const BLOCK: usize = 512;
const BUFFER: u64 = 64;
const LAST_LEVEL: u64 = 2048;

#[test]
fn reorders_allocate_per_sort_and_level_scans_one_scratch() {
    // k = 5 levels of 128 … 2048 slots over a 64-item buffer, so a spilled
    // sort never has more runs than records of memory.
    let cfg = ObliviousConfig::new(BUFFER, LAST_LEVEL);
    let levels = cfg.num_levels() as usize;
    let sort_block = Store::sort_block_size_for(BLOCK);
    let store = Store::new(
        MemDevice::new(Store::blocks_required(&cfg, BLOCK), BLOCK),
        MemDevice::new(Store::sort_blocks_required(&cfg) + 8, sort_block),
        cfg,
        Key256::from_passphrase("allocation budget"),
        7,
        None,
    )
    .unwrap();
    let payload_len = store.item_capacity();
    let payload = |id: u64| vec![id as u8; payload_len];

    // Ids in order, round and round: the levels fill like a binary counter,
    // and flushes 31 and 47 carry all the way down. The first of the two
    // cascades finds the last level empty and leaves 1024 items in it; the
    // second finds those 1024 and leaves 2048. Above the last level both
    // move the same number of items through the same levels.
    let mut cascades: Vec<(usize, Vec<usize>, Asked)> = Vec::new();
    for n in 0..47 * BUFFER {
        let id = n % LAST_LEVEL;
        let before = store.occupancy();
        let reorders = store.stats().reorders;
        let item = payload(id);
        let (result, asked) = measure(|| store.insert(id, item));
        result.unwrap();
        if store.stats().reorders - reorders == levels as u64 {
            cascades.push((before[levels], before, asked));
        }
    }
    let [(0, _, into_empty), (1024, upper, into_1024)] = &cascades[..] else {
        panic!("expected two cascades into the last level, got {cascades:?}");
    };
    assert_eq!(store.occupancy()[levels], 2048);

    // Count. What is left that grows with the receiving level is not per
    // item: the doublings of its new manifest map — measured here on a map
    // grown the same way — and the one thing sweeping an empty level does
    // not need: the AES schedule of the level's old epoch key, long evicted
    // from the codec's cache. The batch buffer is there either way: the
    // level emptied into it streams through the same one.
    let map_growth = |entries: u64| {
        measure(|| {
            let mut map = DetHashMap::default();
            for i in 0..entries {
                map.insert(i, i);
            }
            map
        })
        .1
        .allocations
    };
    assert_eq!(
        into_1024.allocations - into_empty.allocations,
        map_growth(2048) - map_growth(1024) + 1,
        "{into_empty:?} into the empty level, {into_1024:?} into 1024 items"
    );

    // Bytes. Each of the k re-orders allocates the sorter's memory — run
    // arena, then look-ahead, and one I/O batch of spill staging — plus one
    // batch for sweeping the emptied level and the old contents and one for
    // writing the new ones, and the index image. Beyond that fixed part only
    // hashed bookkeeping — manifest maps and shadow sets, doublings included
    // — of well under 192 bytes an item.
    let buffer = BUFFER as usize;
    let sorter_memory = buffer * (BLOCK + sort_block) + buffer.min(64) * sort_block;
    let level_batches = 2 * 64 * BLOCK;
    let index_images = (Store::blocks_required(&cfg, BLOCK) - cfg.total_slots()) as usize * BLOCK;
    let streamed: usize = upper[1..levels].iter().sum();
    let reordered = buffer + streamed + upper[levels];
    let budget = levels * (sorter_memory + level_batches) + index_images + reordered * 192;
    assert!(
        into_1024.bytes as usize <= budget,
        "cascade allocated {} bytes, budget {budget}",
        into_1024.bytes
    );
    // The budget is not slack: one more block-sized allocation per item
    // re-ordered would break it.
    assert!(budget < into_1024.bytes as usize + reordered * BLOCK);

    // A read that reaches the levels: the scratch block every probe reads
    // into, the payload it found, and the copy left in the buffer.
    assert_eq!(store.occupancy()[0], 0, "the cascade emptied the buffer");
    let (value, asked) = measure(|| store.read(5));
    assert_eq!(value.unwrap(), payload(5));
    assert!(
        asked.bytes as usize <= 4 * BLOCK,
        "a level scan allocated {asked:?}"
    );
}
