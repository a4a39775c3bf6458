//! Crash-state exploration: one bounded explorer drives every crash property.
//!
//! A *system* is a seeded start behind a `FaultDevice` (a fixture image, or a
//! replay from `format`), an `Op` enum, a remount from the `MemDevice`
//! snapshot, and a property over the remount and the acknowledged states.
//! `explore` walks op sequences shortest-first (a list, or `every_sequence`
//! up to depth *d*), learns each one's write marks and acknowledged states
//! `S_0..S_n` from one uncut run, then replays it under a cut at every index
//! of `0..=total`: a *prefix* cut (`arm_cut(n)`) lands the first `n` write
//! units, a *torn* cut (`arm_cut_torn(n, t)`) also `t` bytes of the next.
//!
//! The old-or-new rule lives here, once: a state is a list of cells (a file,
//! a block, a record), each atomic on its own, and if k ops landed before the
//! cut each cell reads as in `S_k` or `S_{k+1}`; cut 0 reads `S_0`, the uncut
//! run the last state. Torn cuts skip the rule (the disk model is
//! sector-atomic) and check only the system's property. The first failure,
//! a panic included, is a `Counterexample` printed as a
//! `replay(&system, &[..], Cut { .. })` call to paste into a unit test.
//!
//! The search is bounded and explicit-state, not a proof: it covers only the
//! sequences and cuts it enumerates. `STEGFS_CRASH_QUICK=1` strides the cut
//! indices (keeping `0`, `total` and every eighth one) for the CI profile.

use std::any::Any;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::{self, Debug};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use stegfs_repro::blockdev::{clone_to_mem, BlockDeviceExt, FaultDevice};
use stegfs_repro::prelude::*;
use stegfs_repro::resilience::ResilienceError;

const BLOCK_SIZE: usize = 512;
const NUM_BLOCKS: u64 = 256;
const SEED: u64 = 0x5eed_cafe;

fn quick() -> bool {
    std::env::var("STEGFS_CRASH_QUICK").is_ok_and(|v| v != "0")
}

/// Cut indices: all of `0..=total`, or a strided subset in quick mode.
fn cut_points(total: u64) -> Vec<u64> {
    let step = if quick() { (total / 8).max(1) } else { 1 };
    let mut points: Vec<u64> = (0..=total).step_by(step as usize).collect();
    if points.last() != Some(&total) {
        points.push(total);
    }
    points
}

fn pattern(len: usize, seed: u64) -> Vec<u8> {
    HashDrbg::from_u64(seed).bytes(len)
}

fn key(phrase: &str) -> Key256 {
    Key256::from_passphrase(phrase)
}

/// One cell per unit that must be atomic on its own; `None` is absent.
type State = Vec<Option<Vec<u8>>>;
type Dev = Arc<FaultDevice<MemDevice>>;

trait System {
    type Op: Clone + Debug;
    type Live;
    /// The seeded start. Its writes are not counted.
    fn start(&self) -> (Dev, Self::Live);
    /// Run one op. An op that fails acknowledges nothing.
    fn apply(&self, live: &mut Self::Live, op: &Self::Op);
    /// The cells the acknowledged ops have promised.
    fn acked(&self, _live: &Self::Live) -> State {
        State::new()
    }
    /// Remount `snapshot`, assert the system's own property, and return the
    /// remount's cells for the old-or-new rule.
    fn check(&self, snapshot: MemDevice, cut: Cut, trace: &Trace) -> State;
}

/// A cut after `at` write units; `torn` bytes of the next one land too.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Cut {
    at: u64,
    torn: Option<usize>,
}

/// A sequence's uncut run: the write mark after each op, and `S_0..=S_n`.
#[derive(Default)]
struct Trace {
    marks: Vec<u64>,
    history: Vec<State>,
}

impl Trace {
    fn total(&self) -> u64 {
        self.marks.last().copied().unwrap_or(0)
    }
}

struct Counterexample<Op> {
    ops: Vec<Op>,
    marks: Vec<u64>,
    cut: Cut,
    why: String,
}

impl<Op: Debug> fmt::Display for Counterexample<Op> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (ops, marks, cut) = (&self.ops, &self.marks, self.cut);
        writeln!(f, "crash counterexample: {}", self.why)?;
        writeln!(f, "write marks after each op: {marks:?}; to replay it:")?;
        write!(f, "replay(&system, &{ops:?}, {cut:?}).unwrap();")
    }
}

/// Each explored sequence's trace and the remounted cells of its cut runs.
type Explored<S> = Result<Vec<(Trace, Vec<State>)>, Found<S>>;
type Found<S> = Counterexample<<S as System>::Op>;
type Checked<S> = Result<State, Found<S>>;

/// Every sequence over `alphabet` of length 1 to `depth`, shortest first.
fn every_sequence<Op: Clone>(alphabet: &[Op], depth: usize) -> Vec<Vec<Op>> {
    let (mut seqs, mut next) = (vec![vec![]], 0);
    while seqs[next].len() < depth {
        for op in alphabet {
            seqs.push([&seqs[next][..], std::slice::from_ref(op)].concat());
        }
        next += 1;
    }
    seqs.split_off(1)
}

/// Run `ops` from the start, uncut or under `cut`: trace and surviving bytes.
fn run<S: System>(sys: &S, ops: &[S::Op], cut: Option<Cut>) -> (Trace, MemDevice) {
    let (dev, mut live) = sys.start();
    dev.reset_counters();
    match cut.map(|c| (c.at, c.torn)) {
        Some((at, None)) => dev.arm_cut(at),
        Some((at, Some(bytes))) => dev.arm_cut_torn(at, bytes),
        None => {}
    }
    let mut trace = Trace::default();
    trace.history.push(sys.acked(&live));
    for op in ops {
        sys.apply(&mut live, op);
        trace.marks.push(dev.writes_attempted());
        trace.history.push(sys.acked(&live));
    }
    let snapshot = dev.snapshot_to_mem().unwrap();
    drop(live);
    (trace, snapshot)
}

/// The old-or-new rule for the cells of a remount after `at` write units.
fn old_or_new(state: &State, trace: &Trace, at: u64) -> Result<(), String> {
    let history = &trace.history;
    let landed = trace.marks.iter().filter(|&&m| m <= at).count();
    let allowed = match at {
        _ if at == trace.total() => vec![history.len() - 1],
        0 => vec![0],
        _ => vec![landed, landed + 1],
    };
    if state.len() != history[0].len() {
        return Err(format!("the remount has {} cells", state.len()));
    }
    for (c, cell) in state.iter().enumerate() {
        if !allowed.iter().any(|&k| history[k][c] == *cell) {
            let k = history.iter().position(|s| s[c] == *cell);
            return Err(format!("cell {c} reads S_k for k = {k:?}, not {allowed:?}"));
        }
    }
    Ok(())
}

fn panicked(payload: Box<dyn Any + Send>) -> String {
    let text = payload.downcast_ref::<String>().cloned();
    let text = text.or(payload.downcast_ref::<&str>().map(|s| s.to_string()));
    format!("panicked: {}", text.unwrap_or_default())
}

/// Crash `ops` at `cut`, remount, and check the system and the rule.
fn check_cut<S: System>(sys: &S, ops: &[S::Op], trace: &Trace, cut: Cut) -> Checked<S> {
    let checked = catch_unwind(AssertUnwindSafe(|| {
        let state = sys.check(run(sys, ops, Some(cut)).1, cut, trace);
        match cut.torn {
            None => old_or_new(&state, trace, cut.at).map(|()| state),
            Some(_) => Ok(state),
        }
    }));
    let checked = checked.unwrap_or_else(|payload| Err(panicked(payload)));
    checked.map_err(|why| Counterexample {
        ops: ops.to_vec(),
        marks: trace.marks.clone(),
        cut,
        why,
    })
}

/// Explore `seqs`, shortest first, at every cut in each mode of `tears`.
fn explore<S: System>(sys: &S, mut seqs: Vec<Vec<S::Op>>, tears: &[Option<usize>]) -> Explored<S> {
    seqs.sort_by_key(Vec::len);
    let mut explored = Vec::new();
    for ops in &seqs {
        let (trace, mut states) = (run(sys, ops, None).0, Vec::new());
        for at in cut_points(trace.total()) {
            for &torn in tears {
                states.push(check_cut(sys, ops, &trace, Cut { at, torn })?);
            }
        }
        explored.push((trace, states));
    }
    let runs: usize = explored.iter().map(|(_, states)| states.len()).sum();
    eprintln!("{} sequences, {runs} cut runs", seqs.len());
    Ok(explored)
}

fn holds<S: System>(sys: &S, seqs: Vec<Vec<S::Op>>) -> Vec<(Trace, Vec<State>)> {
    explore(sys, seqs, &[None]).unwrap_or_else(|cx| panic!("{cx}"))
}

/// Re-run one cut of `ops`: the call a counterexample prints.
fn replay<S: System>(sys: &S, ops: &[S::Op], cut: Cut) -> Checked<S> {
    check_cut(sys, ops, &run(sys, ops, None).0, cut)
}

type Remount = ResilientStore<MemDevice>;
type Property<'a> = dyn Fn(&Remount, Cut, &Trace, &State) + 'a;
/// What a durable store acknowledged, and how its cells are read: files by
/// path, registry records by user.
type Acked = BTreeMap<String, Vec<u8>>;
type Read<'a> = &'a dyn Fn(&str) -> Option<Vec<u8>>;

const PER: usize = 496; // content bytes in a 512-byte block
const RESIDENT: usize = 4;

fn cfg() -> ResilienceConfig {
    ResilienceConfig::default()
        .with_fs(StegFsConfig::default().with_block_size(BLOCK_SIZE))
        .with_stripe(2, 1)
}

fn open<D: BlockDevice>(device: D) -> Result<ResilientStore<D>, ResilienceError> {
    ResilientStore::open(device, cfg(), &key("crash recovery"), SEED)
}

fn users() -> Vec<String> {
    (0..10).map(|i| format!("user-{i}")).collect()
}

/// The cells of `/f`, one per block.
fn blocks(read: Read<'_>) -> State {
    let f = read("/f").unwrap_or_default();
    f.chunks(PER).map(|block| Some(block.to_vec())).collect()
}

/// `content` with block `i` replaced by `pattern(seed)`.
fn replaced(mut content: Vec<u8>, i: u64, seed: u64) -> Vec<u8> {
    content[i as usize * PER..][..PER].copy_from_slice(&pattern(PER, seed));
    content
}

/// The durable ops; all but `Create` act on `/f`.
#[derive(Clone, Debug)]
enum Op {
    /// `create_file(path)` of `pattern(seed)`, 57 bytes short of `blocks` blocks.
    Create(&'static str, usize, u64),
    /// `write_block(index)` with `pattern(seed)`.
    WriteBlock(u64, u64),
    /// `write_file` with each listed block `i` replaced by `pattern(seed + i)`.
    WriteFile(&'static [u64], u64),
    Scrub,
    /// Set every registry user to the value, then checkpoint.
    Checkpoint(&'static [u8]),
    /// Drop the store and open its device again: recovery runs.
    Reopen,
}
use Op::*;

const UPDATE: Op = WriteBlock(1, 99);

/// A `ResilientStore` over a volume image.
struct Durable<'a> {
    image: MemDevice,
    acked: Acked,
    /// The image's anchor generation.
    gen0: u64,
    /// Whether the start opens the store; if not, the first op is `Reopen`.
    mounted: bool,
    /// The state's cells, read from what was acknowledged or remounted.
    cells: fn(Read<'_>) -> State,
    property: Box<Property<'a>>,
    /// A transform on the snapshot before it is remounted.
    damage: Box<dyn Fn(&MemDevice) + 'a>,
}

impl<'a> Durable<'a> {
    /// A formatted volume holding the `/keep` bystander.
    fn new(cells: fn(Read<'_>) -> State) -> Self {
        let dev = Arc::new(MemDevice::new(NUM_BLOCKS, BLOCK_SIZE));
        let master = key("crash recovery");
        let store = ResilientStore::format(Arc::clone(&dev), cfg(), &master, SEED).unwrap();
        assert_eq!(store.fs().content_bytes_per_block(), PER);
        let keep = pattern(4 * PER, 7);
        store.create_file("/keep", &keep).unwrap();
        let (image, gen0) = (clone_to_mem(&dev).unwrap(), store.generation());
        let acked = Acked::from([("/keep".into(), keep)]);
        Self {
            image,
            acked,
            gen0,
            mounted: true,
            cells,
            property: Box::new(no_property),
            damage: Box::new(|_| {}),
        }
    }

    /// Open the image and keep what `f` makes of the store and the model.
    fn with(mut self, f: impl FnOnce(&ResilientStore<Dev>, &mut Acked)) -> Self {
        let dev = Arc::new(FaultDevice::new(self.image));
        let store = open(Arc::clone(&dev)).unwrap();
        f(&store, &mut self.acked);
        self.gen0 = store.generation();
        self.image = dev.snapshot_to_mem().unwrap();
        self
    }

    fn with_file(self, path: &str, blocks: usize, seed: u64) -> Self {
        let content = pattern(blocks * PER, seed);
        self.with(|store, acked| {
            store.create_file(path, &content).unwrap();
            acked.insert(path.into(), content);
        })
    }

    fn property(mut self, property: impl Fn(&Remount, Cut, &Trace, &State) + 'a) -> Self {
        self.property = Box::new(property);
        self
    }
}

fn no_property(_: &Remount, _: Cut, _: &Trace, _: &State) {}

/// `/f` holding four blocks next to the bystander.
fn update_fixture<'a>(cells: fn(Read<'_>) -> State) -> Durable<'a> {
    Durable::new(cells).with_file("/f", 4, 29)
}

impl System for Durable<'_> {
    type Op = Op;
    type Live = (Dev, Option<ResilientStore<Dev>>, Acked);

    fn start(&self) -> (Dev, Self::Live) {
        let dev = Arc::new(FaultDevice::new(clone_to_mem(&self.image).unwrap()));
        let store = self.mounted.then(|| open(Arc::clone(&dev)).unwrap());
        (Arc::clone(&dev), (dev, store, self.acked.clone()))
    }

    fn apply(&self, (dev, store, acked): &mut Self::Live, op: &Op) {
        if let Reopen = op {
            *store = None;
            *store = open(Arc::clone(dev)).ok();
        }
        let Some(store) = store else { return };
        let f = acked.get("/f").cloned().unwrap_or_default();
        let (path, content, landed) = match *op {
            Create(path, blocks, seed) => {
                let content = pattern(blocks * PER - 57, seed);
                let landed = store.create_file(path, &content).is_ok();
                (path, content, landed)
            }
            WriteBlock(i, seed) => {
                let landed = store.write_block("/f", i, &pattern(PER, seed)).is_ok();
                ("/f", replaced(f, i, seed), landed)
            }
            WriteFile(blocks, seed) => {
                let f = blocks.iter().fold(f, |f, &i| replaced(f, i, seed + i));
                let landed = store.write_file("/f", &f).is_ok();
                ("/f", f, landed)
            }
            Checkpoint(value) => {
                let mut registry = Registry::open(store, RESIDENT).unwrap().unwrap();
                let put = users().iter().all(|u| registry.put(u, value).is_ok());
                if put && registry.checkpoint().is_ok() {
                    acked.extend(users().into_iter().map(|u| (u, value.to_vec())));
                }
                return;
            }
            Scrub => return drop(store.scrub()),
            Reopen => return,
        };
        if landed {
            acked.insert(path.into(), content);
        }
    }

    fn acked(&self, (_, _, acked): &Self::Live) -> State {
        (self.cells)(&|key| acked.get(key).cloned())
    }

    fn check(&self, snapshot: MemDevice, cut: Cut, trace: &Trace) -> State {
        (self.damage)(&snapshot);
        let store = match (open(snapshot), cut.torn) {
            (Ok(store), _) => store,
            // A torn cut may leave the volume unopenable, with a typed error.
            (Err(_), Some(_)) => return State::new(),
            (Err(e), None) => panic!("remount refused: {e:?}"),
        };
        // A key the store has no file for reads as a registry record.
        let registry = RefCell::new(Registry::open(&store, RESIDENT).unwrap());
        let state = (self.cells)(&|key| match store.read_file(key) {
            Err(ResilienceError::UnknownFile(_)) => {
                registry.borrow_mut().as_mut()?.get(key).unwrap()
            }
            read => Some(read.unwrap()),
        });
        if cut.torn.is_none() {
            // Recovery classified everything, the generation never went
            // backwards, and the bystander file is untouched.
            let r = store.last_recovery();
            assert_eq!(r.unrecoverable, 0, "unclassified crash state");
            assert!(r.intents_found >= r.recovered() + r.intents_stale, "{r:?}");
            assert!(store.generation() >= self.gen0, "generation went back");
            let keep = store.read_file("/keep").ok();
            assert_eq!(keep.as_ref(), self.acked.get("/keep"), "bystander");
        }
        (self.property)(&store, cut, trace, &state);
        state
    }
}

#[test]
fn create_file_recovers_to_old_or_new_at_every_cut() {
    let sys = Durable::new(|read| vec![read("/new")]);
    let gen0 = sys.gen0;
    let sys = sys.property(|store, cut, trace, state| {
        if cut.at == 0 {
            assert_eq!(store.generation(), gen0, "cut 0 must be a no-op");
        }
        if state[0].is_some() {
            assert!(store.generation() > gen0, "committed without a bump");
        } else {
            // Rolled back: the undo freed all the create touched.
            let content = trace.history[1][0].clone().unwrap();
            store.create_file("/new", &content).unwrap();
            assert_eq!(store.read_file("/new").unwrap(), content);
        }
    });
    let (trace, _) = &holds(&sys, vec![vec![Create("/new", 3, 13)]])[0];
    assert!(trace.total() >= 5, "create issued too few writes");
}

#[test]
fn block_update_is_old_or_new_at_every_cut() {
    let sys = update_fixture(|read| vec![read("/f")]);
    let (trace, states) = &holds(&sys, vec![vec![UPDATE]])[0];
    assert!(trace.total() >= 4, "update issued too few writes");
    let saw = |k: usize| states.contains(&trace.history[k]);
    assert!(saw(0) && saw(1), "sweep never covered both outcomes");
}

/// Which changed blocks of `/f` read new, in index order.
fn frontier(state: &State, history: &[State]) -> Vec<bool> {
    let (old, new) = (&history[0], &history[1]);
    let changed = (0..state.len()).filter(|&i| old[i] != new[i]);
    changed.map(|i| state[i] == new[i]).collect()
}

#[test]
fn batched_file_rewrite_recovers_to_a_clean_frontier_at_every_cut() {
    // Both blocks of stripe 0 plus singles across other stripes; a 512-byte
    // journal record fits three entries, so the batch splits in two.
    let sys = Durable::new(blocks).with_file("/f", 8, 31);
    let sys = sys.property(|_, _, trace, state| {
        // In batch (index) order the changed blocks read new, then old.
        let states = frontier(state, &trace.history);
        let contiguous = states.windows(2).all(|w| w[0] >= w[1]);
        assert!(contiguous, "non-contiguous frontier {states:?}");
    });
    let rewrite = WriteFile(&[0, 1, 2, 5, 7], 900);
    let (trace, states) = &holds(&sys, vec![vec![rewrite]])[0];
    assert!(trace.total() >= 10, "rewrite issued too few writes");
    let frontier = |s| frontier(s, &trace.history);
    let frontiers: BTreeSet<_> = states.iter().map(frontier).collect();
    let extremes = [[false; 5], [true; 5]].map(|f| frontiers.contains(&f[..]));
    assert!(extremes == [true; 2], "missed an extreme: {frontiers:?}");
    assert!(quick() || frontiers.len() >= 3, "never stopped mid-batch");
}

#[test]
fn shadow_map_rewrite_cuts_leave_a_consistent_stripe_map() {
    // Wherever the cut lands (data, parity, or the shadow stripe map at the
    // tail of the intent), the volume scrubs clean and updates first try.
    let sys = Durable::new(blocks).with_file("/f", 6, 61);
    let sys = sys.property(|store, _, _, _| {
        let report = store.scrub().unwrap();
        assert!(report.is_clean(), "stripe map off disk: {report:?}");
        let touch = pattern(PER, 1234);
        store.write_block("/f", 2, &touch).unwrap();
        assert_eq!(store.read_file("/f").unwrap()[2 * PER..3 * PER], touch);
    });
    holds(&sys, vec![vec![WriteFile(&[0, 3, 4], 700)]]);
}

#[test]
fn registry_checkpoint_is_old_or_new_at_every_cut() {
    let records = |read: Read<'_>| users().iter().map(|u| read(u)).collect();
    let sys = Durable::new(records).with(|store, acked| {
        let mut registry = Registry::create(store, 4, RESIDENT).unwrap();
        for u in users() {
            registry.put(&u, b"old-state").unwrap();
            acked.insert(u, b"old-state".to_vec());
        }
        registry.checkpoint().unwrap();
    });
    let sys = sys.property(|store, _, _, state| {
        let mut registry = Registry::open(store, RESIDENT).unwrap().unwrap();
        let mut first = HashMap::new();
        for (u, record) in users().iter().zip(state) {
            let shard = registry.shard_of(u);
            let same = *first.entry(shard).or_insert(record) == record;
            assert!(same, "shard {shard} committed only some users");
        }
        registry.put("post-crash", b"fresh").unwrap();
        registry.checkpoint().unwrap();
        assert_eq!(registry.get("post-crash").unwrap().unwrap(), b"fresh");
    });
    let (trace, states) = &holds(&sys, vec![vec![Checkpoint(b"new-state")]])[0];
    assert!(trace.total() >= 4, "checkpoint issued too few writes");
    let saw = |v: &[u8]| states.iter().flatten().any(|c| c.as_deref() == Some(v));
    assert!(saw(b"old-state") && saw(b"new-state"), "missed an outcome");
}

#[test]
fn live_intent_survives_a_zeroed_slot_copy() {
    // Zero one copy of every journal slot pair in the snapshot (primaries,
    // then mirrors): recovery classifies the intent from the other.
    for copy in [0, 1] {
        let mut slots = Vec::new();
        let sys = update_fixture(|read| vec![read("/f")]);
        let mut sys = sys.with(|store, _| slots = store.journal_slots());
        assert!(slots.len() >= 2 && slots.len() % 2 == 0, "slots are paired");
        sys.damage = Box::new(|snapshot| {
            for pair in slots.chunks(2) {
                snapshot.write_block(pair[copy], &[0; BLOCK_SIZE]).unwrap();
            }
        });
        holds(&sys, vec![vec![UPDATE]]);
    }
}

#[test]
fn scrub_repair_crash_never_loses_data() {
    // Corrupt `/f`'s block 0 for the scrub to repair.
    let mut victim = 0;
    let sys = Durable::new(|read| vec![read("/f")]).with_file("/f", 4, 43);
    let sys = sys.with(|store, _| victim = store.stripe_layout("/f").unwrap()[0][0]);
    let garbage = pattern(BLOCK_SIZE, 5);
    sys.image.write_block(victim, &garbage).unwrap();
    // Repair is content-neutral (the rule, with S_0 = S_1).
    let sys = sys.property(|store, _, trace, _| {
        store.scrub().unwrap();
        assert_eq!(store.read_file("/f").ok(), trace.history[0][0]);
    });
    let (trace, _) = &holds(&sys, vec![vec![Scrub]])[0];
    assert!(trace.total() >= 1, "scrub wrote nothing");
}

#[test]
fn recovery_is_idempotent_under_a_second_crash() {
    let update = update_fixture(|read| vec![read("/f")]);
    let (trace, _) = run(&update, &[UPDATE], None);
    let (old, new) = (&trace.history[0][0], &trace.history[1][0]);
    // The second cut lands in the recovery that `Reopen` runs.
    let total = trace.total();
    let firsts = BTreeSet::from([1, total / 2, total.saturating_sub(1)]);
    for n in firsts.into_iter().filter(|&n| n > 0 && n < total) {
        let mut sys = update_fixture(|_| vec![]);
        sys.image = run(&update, &[UPDATE], Some(Cut { at: n, torn: None })).1;
        sys.mounted = false;
        let sys = sys.property(|store, cut, trace, _| {
            let got = store.read_file("/f").ok();
            assert!(got == *old || got == *new, "hybrid after re-recovery");
            if cut.at == trace.total() {
                // The first recovery completed: the journal is quiescent.
                let again = open(clone_to_mem(store.fs().device()).unwrap()).unwrap();
                assert_eq!(again.last_recovery().intents_found, 0, "intents left");
                assert_eq!(again.read_file("/f").ok(), got);
            }
        });
        holds(&sys, vec![vec![Reopen]]);
    }
}

#[test]
fn resilient_store_chains_are_old_or_new_at_depth_2() {
    // Each block of `/f`, and `/g` as a whole, is old-or-new.
    let sys = update_fixture(|read| [blocks(read), vec![read("/g")]].concat());
    let writes = [WriteBlock(1, 99), WriteBlock(1, 98), WriteBlock(3, 97)];
    let others = [Create("/g", 2, 51), Scrub, WriteFile(&[0, 2], 800)];
    holds(&sys, every_sequence(&[writes, others].concat(), 2));
}

#[test]
fn torn_cuts_never_panic_the_durable_store() {
    // A store that opens answers a read and a scrub.
    let sys = Durable::new(|_| vec![]).with_file("/f", 8, 31);
    let sys = sys.property(|store, _, _, _| {
        let _ = store.read_file("/f");
        let _ = store.scrub();
    });
    let rewrite = WriteFile(&[0, 1, 2, 5, 7], 900);
    let ops = [Create("/g", 2, 51), UPDATE, Scrub, rewrite];
    let tears = [Some(1), Some(BLOCK_SIZE / 2)];
    explore(&sys, every_sequence(&ops, 1), &tears).unwrap_or_else(|cx| panic!("{cx}"));
}

type ObStore<D> = ObliviousStore<D, MemDevice>;

fn ob_store<D: BlockDevice>(device: D, seed: u64) -> ObStore<D> {
    let cfg = ObliviousConfig::new(4, 32);
    let sort_blocks = ObStore::<D>::sort_blocks_required(&cfg) + 8;
    let sort = MemDevice::new(sort_blocks, BLOCK_SIZE + 32);
    ObliviousStore::new(device, sort, cfg, key("crash oblivious"), seed, None).unwrap()
}

/// `Insert(id)` into an oblivious store one insert short of its first flush,
/// cut on the main partition. The store is a cache: it recovers by a rebuild
/// over whatever survived, which it never reads.
struct Oblivious;

#[derive(Clone, Debug)]
struct Insert(u64);

impl System for Oblivious {
    type Op = Insert;
    type Live = ObStore<Dev>;
    fn start(&self) -> (Dev, ObStore<Dev>) {
        let blocks = ObStore::<Dev>::blocks_required(&ObliviousConfig::new(4, 32), BLOCK_SIZE);
        let dev = Arc::new(FaultDevice::new(MemDevice::new(blocks, BLOCK_SIZE)));
        let store = ob_store(Arc::clone(&dev), 9);
        (0..3).for_each(|id| store.insert(id, vec![id as u8; 200]).unwrap());
        (dev, store)
    }
    fn apply(&self, store: &mut ObStore<Dev>, &Insert(id): &Insert) {
        let _ = store.insert(id, vec![id as u8; 200]);
    }
    fn check(&self, snapshot: MemDevice, _: Cut, _: &Trace) -> State {
        let rebuilt = ob_store(snapshot, 10);
        for id in 0..4 {
            rebuilt.insert(id, vec![id as u8; 200]).unwrap();
            assert_eq!(rebuilt.read(id).unwrap(), vec![id as u8; 200]);
        }
        assert!(rebuilt.membership_is_consistent());
        State::new()
    }
}

#[test]
fn oblivious_flush_cut_at_any_write_rebuilds() {
    let (trace, _) = &holds(&Oblivious, vec![vec![Insert(3)]])[0];
    assert!(trace.total() >= 3, "flush issued too few writes");
}

/// The agent's relocate-update plus header flush. Its state lives in memory,
/// so the start replays a seeded format, create and flush; a remount opens
/// the file as the agent would, through whichever block the header names.
struct Agent;

#[derive(Clone, Debug)]
struct UpdateAndFlush(u64, u64);

impl System for Agent {
    type Op = UpdateAndFlush;
    type Live = (ConcurrentAgent<Dev>, u64, Vec<u8>);
    fn start(&self) -> (Dev, Self::Live) {
        let dev = Arc::new(FaultDevice::new(MemDevice::new(NUM_BLOCKS, BLOCK_SIZE)));
        let fs_cfg = StegFsConfig::default().with_block_size(BLOCK_SIZE);
        let (agent_cfg, agent) = (AgentConfig::default(), key("crash agent"));
        let agent = ConcurrentAgent::format(Arc::clone(&dev), fs_cfg, agent_cfg, agent, SEED, 4);
        let agent = agent.unwrap();
        let doc = pattern(3 * PER, 21);
        let id = agent.create_file(&key("crash user"), "/doc", &doc).unwrap();
        agent.flush().unwrap();
        (dev, (agent, id, doc))
    }
    fn apply(&self, (agent, id, doc): &mut Self::Live, &UpdateAndFlush(i, seed): &Self::Op) {
        let updated = agent.update_block(*id, i, &pattern(PER, seed)).is_ok();
        if agent.flush().is_ok() && updated {
            *doc = replaced(std::mem::take(doc), i, seed);
        }
    }
    fn acked(&self, (_, _, doc): &Self::Live) -> State {
        vec![Some(doc.clone())]
    }
    fn check(&self, snapshot: MemDevice, _: Cut, _: &Trace) -> State {
        let fs = StegFs::mount(snapshot, SEED).unwrap();
        let (user, agent) = (key("crash user"), key("crash agent"));
        let fak = FileAccessKey::from_parts(user.derive("steghide:location"), agent, Some(agent));
        let open = fs.open_file(&fak, "/doc").unwrap();
        vec![Some(fs.read_file(&open).unwrap())]
    }
}

#[test]
fn agent_relocate_update_is_old_or_new_at_every_cut() {
    let (trace, _) = &holds(&Agent, vec![vec![UpdateAndFlush(1, 77)]])[0];
    assert!(trace.total() >= 2, "update+flush issued too few writes");
}

/// A planted bug: the op writes block A, then block B, and the property is
/// A == B, so a cut between the two writes breaks it.
struct Planted;

#[derive(Clone, Debug)]
struct WriteAThenB;

impl System for Planted {
    type Op = WriteAThenB;
    type Live = Dev;
    fn start(&self) -> (Dev, Dev) {
        let dev = Arc::new(FaultDevice::new(MemDevice::new(2, BLOCK_SIZE)));
        (Arc::clone(&dev), dev)
    }
    fn apply(&self, dev: &mut Dev, _: &WriteAThenB) {
        (0..2).for_each(|block| dev.write_block(block, &[7; BLOCK_SIZE]).unwrap());
    }
    fn check(&self, snapshot: MemDevice, _: Cut, _: &Trace) -> State {
        let [a, b] = [0, 1].map(|block| snapshot.read_block_vec(block).unwrap());
        assert!(a == b, "A and B disagree");
        State::new()
    }
}

#[test]
fn explorer_reports_the_shortest_counterexample_to_a_planted_bug() {
    let found = explore(&Planted, every_sequence(&[WriteAThenB], 2), &[None]);
    let cx = found.err().expect("the planted bug went unseen");
    assert_eq!((cx.ops.len(), cx.cut), (1, Cut { at: 1, torn: None }));
    assert_eq!(cx.marks, [2]);
    let printed = cx.to_string();
    let call = "replay(&system, &[WriteAThenB], Cut { at: 1, torn: None })";
    assert!(printed.contains("A and B disagree") && printed.contains(call));
    assert!(replay(&Planted, &cx.ops, cx.cut).is_err());
}
