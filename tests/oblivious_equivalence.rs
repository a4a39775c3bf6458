//! Equivalence proptest for the shared oblivious store: for random
//! interleaved read/update/flush-heavy operation sequences, the `&self`
//! store called from many threads at once (its own lock makes the calls
//! take turns) produces exactly the same read-back results as the same
//! operations funneled through an outer `Mutex<ObliviousStore>` — at any
//! thread count, compared at value level.
//!
//! Thread ids get disjoint id stripes so every id's final value is
//! well-defined regardless of scheduling; within a stripe the owner thread
//! issues its operations in program order, so "last write wins" is the same
//! on both sides. (Trace-level equality at one thread is covered by
//! `tests/determinism.rs`; this suite covers the multi-threaded value
//! contract.)

use std::sync::Mutex;

use proptest::prelude::*;

use stegfs_repro::oblivious::{ObliviousConfig, ObliviousStore};
use stegfs_repro::prelude::*;

const ITEMS_PER_USER: u64 = 16;
const BUFFER_BLOCKS: u64 = 4; // small: flush cascades fire constantly

/// One step of a user's oblivious workload.
#[derive(Debug, Clone, Copy)]
enum ObliviousOp {
    /// Overwrite item `slot` (within the user's stripe) with a fill byte.
    Write { slot: u8, fill: u8 },
    /// Read item `slot` back (value checked against the model at the end;
    /// mid-run it must simply succeed once the slot was ever written).
    Read { slot: u8 },
}

fn oblivious_op() -> impl Strategy<Value = ObliviousOp> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(slot, fill)| ObliviousOp::Write { slot, fill }),
        any::<u8>().prop_map(|slot| ObliviousOp::Read { slot }),
    ]
}

fn new_store(users: u64) -> ObliviousStore<MemDevice, MemDevice> {
    let items = users * ITEMS_PER_USER;
    let cfg = ObliviousConfig::new(BUFFER_BLOCKS, items.max(8));
    let store_block = ObliviousStore::<MemDevice, MemDevice>::block_size_for_item(64);
    ObliviousStore::new(
        MemDevice::new(
            ObliviousStore::<MemDevice, MemDevice>::blocks_required(&cfg, store_block),
            store_block,
        ),
        MemDevice::new(
            ObliviousStore::<MemDevice, MemDevice>::sort_blocks_required(&cfg) + 8,
            ObliviousStore::<MemDevice, MemDevice>::sort_block_size_for(store_block),
        ),
        cfg,
        Key256::from_passphrase("equivalence"),
        2024,
        None,
    )
    .expect("store")
}

fn item_id(user: usize, slot: u8) -> u64 {
    user as u64 * ITEMS_PER_USER + slot as u64 % ITEMS_PER_USER
}

fn payload(user: usize, fill: u8) -> Vec<u8> {
    vec![fill ^ user as u8; 48]
}

/// Run each user's op sequence on its own thread against `apply`, which
/// hides whether the store is shared directly or Mutex-wrapped.
fn run_threaded<F>(ops_per_user: &[Vec<ObliviousOp>], apply: F)
where
    F: Fn(usize, ObliviousOp) + Sync,
{
    std::thread::scope(|s| {
        for (user, ops) in ops_per_user.iter().enumerate() {
            let apply = &apply;
            s.spawn(move || {
                for &op in ops {
                    apply(user, op);
                }
            });
        }
    });
}

/// Final per-id values a user's program-order sequence must leave behind.
fn expected_values(user: usize, ops: &[ObliviousOp]) -> Vec<(u64, Vec<u8>)> {
    let mut last: Vec<Option<Vec<u8>>> = vec![None; ITEMS_PER_USER as usize];
    for &op in ops {
        if let ObliviousOp::Write { slot, fill } = op {
            last[(slot as u64 % ITEMS_PER_USER) as usize] = Some(payload(user, fill));
        }
    }
    last.into_iter()
        .enumerate()
        .filter_map(|(slot, v)| v.map(|v| (item_id(user, slot as u8), v)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The store shared by real threads vs the same sequences through an
    /// outer `Mutex`: identical final read-back for every written id, and
    /// identical membership.
    #[test]
    fn decomposed_store_is_value_equivalent_to_mutex_wrapped(
        ops_per_user in proptest::collection::vec(
            proptest::collection::vec(oblivious_op(), 1..24),
            2..5,
        ),
    ) {
        let users = ops_per_user.len();

        // Shared store: users run concurrently, ops race freely
        // across stripes (reads of never-written slots are allowed to fail
        // with NotCached — that is not a divergence, both sides skip them).
        let shared = new_store(users as u64);
        run_threaded(&ops_per_user, |user, op| match op {
            ObliviousOp::Write { slot, fill } => {
                shared
                    .write(item_id(user, slot), payload(user, fill))
                    .expect("shared write");
            }
            ObliviousOp::Read { slot } => {
                let _ = shared.read(item_id(user, slot));
            }
        });

        // Outer-Mutex reference: same sequences, same threads, a second
        // whole-store lock around every operation.
        let wrapped = Mutex::new(new_store(users as u64));
        run_threaded(&ops_per_user, |user, op| {
            let store = wrapped.lock().unwrap();
            match op {
                ObliviousOp::Write { slot, fill } => {
                    store
                        .write(item_id(user, slot), payload(user, fill))
                        .expect("wrapped write");
                }
                ObliviousOp::Read { slot } => {
                    let _ = store.read(item_id(user, slot));
                }
            }
        });
        let wrapped = wrapped.into_inner().unwrap();

        // Value-level equivalence: every id a user wrote reads back that
        // user's last program-order write on both stores.
        for (user, ops) in ops_per_user.iter().enumerate() {
            for (id, want) in expected_values(user, ops) {
                prop_assert_eq!(
                    shared.read(id).expect("shared read-back"),
                    want.clone(),
                    "shared store diverged on id {}", id
                );
                prop_assert_eq!(
                    wrapped.read(id).expect("wrapped read-back"),
                    want,
                    "wrapped store diverged on id {}", id
                );
            }
        }

        // Identical membership on both sides, and both internally sound.
        prop_assert_eq!(shared.len(), wrapped.len());
        prop_assert!(shared.membership_is_consistent());
        prop_assert!(wrapped.membership_is_consistent());
        prop_assert_eq!(shared.write_epoch() % 2, 0);
    }
}
