//! Empirical validation of Definition 1 (Section 3.2.4): the access patterns
//! produced with user activity must be indistinguishable from pure dummy
//! traffic.
//!
//! Part 1 (update analysis, Section 4): an attacker diffs storage snapshots
//! while a user keeps updating a hot set of blocks. With the full StegHide
//! mechanism (dummy updates + Figure 6 relocation) the changed positions stay
//! uniform; with relocation disabled (the ablation) the hot blocks show up
//! immediately.
//!
//! Part 2 (traffic analysis, Section 5): an attacker watches the I/O request
//! stream while a user repeatedly reads a skewed (Zipf) subset of blocks.
//! Reading straight from the StegFS partition leaks the skew (the same
//! physical blocks recur); reading through the oblivious storage does not —
//! the request positions under the skewed workload match those under a
//! uniform workload.

use stegfs_analysis::{kl_divergence_between, TrafficAnalysisAttacker, UpdateAnalysisAttacker};
use stegfs_base::{FileAccessKey, StegFs, StegFsConfig, DEFAULT_MAP_SHARDS};
use stegfs_bench::harness::{fan_out, pick};
use stegfs_bench::report::print_table;
use stegfs_blockdev::{MemDevice, Snapshot, TracingDevice};
use stegfs_crypto::{HashDrbg, Key256};
use stegfs_oblivious::{ObliviousConfig, ObliviousStore};
use stegfs_workload::AccessPattern;
use steghide::{AgentConfig, ConcurrentAgent};

const BLOCK_SIZE: usize = 4096;

fn update_analysis_scenario(relocate: bool, rounds: u64) -> (f64, f64, bool, u64) {
    let volume_blocks = 8192u64;
    let device = MemDevice::new(volume_blocks, BLOCK_SIZE);
    let cfg = if relocate {
        AgentConfig::default()
    } else {
        AgentConfig::default().without_relocation()
    };
    let agent = ConcurrentAgent::format(
        device,
        StegFsConfig::default(),
        cfg,
        Key256::from_passphrase("security-analysis-agent"),
        31,
        DEFAULT_MAP_SHARDS,
    )
    .expect("format volume");

    // A hot 1 MB file plus filler to reach ~25 % utilisation.
    let per_block = agent.fs().content_bytes_per_block() as u64;
    let hot = agent
        .create_file_sparse(&Key256::from_passphrase("hot"), "/hot", 256 * per_block)
        .expect("create hot file");
    agent
        .create_file_sparse(
            &Key256::from_passphrase("filler"),
            "/filler",
            1700 * per_block,
        )
        .expect("create filler");

    let mut attacker = UpdateAnalysisAttacker::new(volume_blocks);
    let mut pattern = AccessPattern::zipf(256, 1.0);
    let mut rng = HashDrbg::from_u64(17);
    let payload = vec![0x5Au8; per_block as usize];

    let mut before = Snapshot::capture(agent.fs().device()).expect("snapshot");
    for _round in 0..rounds {
        for _ in 0..10 {
            let block = pattern.next(&mut rng);
            agent.update_block(hot, block, &payload).expect("update");
        }
        agent.dummy_update_batch(10).expect("dummy updates");
        let after = Snapshot::capture(agent.fs().device()).expect("snapshot");
        attacker.observe_diff(&before.diff(&after));
        before = after;
    }
    let verdict = attacker.verdict(0.01);
    (
        verdict.chi_square,
        verdict.kl_divergence,
        verdict.distinguishable,
        verdict.observations as u64,
    )
}

/// Observed physical read positions for a workload against the plain StegFS
/// partition (no oblivious storage).
fn direct_read_positions(skewed: bool, reads: u64) -> (Vec<u64>, u64) {
    let volume_blocks = 4096u64;
    let device = TracingDevice::new(MemDevice::new(volume_blocks, BLOCK_SIZE));
    let (fs, map) =
        StegFs::format(device, StegFsConfig::default().without_fill(), 3).expect("format");
    let fak = FileAccessKey::from_passphrase("reader");
    let per_block = fs.content_bytes_per_block() as u64;
    let file = fs
        .create_file_sparse(&map, "/data", &fak, 128 * per_block)
        .expect("create file");

    let mut rng = HashDrbg::from_u64(23);
    let mut pattern = if skewed {
        AccessPattern::zipf(128, 1.2)
    } else {
        AccessPattern::uniform(128)
    };
    fs.device().log().clear();
    for _ in 0..reads {
        let b = pattern.next(&mut rng);
        fs.read_content_block(&file, b).expect("read");
    }
    let positions: Vec<u64> = fs
        .device()
        .log()
        .records()
        .iter()
        .map(|r| r.block)
        .collect();
    (positions, volume_blocks)
}

/// Observed physical read positions on the oblivious partition for a workload
/// served through the oblivious storage.
fn oblivious_read_positions(skewed: bool, reads: u64) -> (Vec<u64>, u64) {
    let items = 512u64;
    let store_block = ObliviousStore::<MemDevice, MemDevice>::block_size_for_item(BLOCK_SIZE);
    let cfg = ObliviousConfig::new(16, items);
    let num_blocks = ObliviousStore::<MemDevice, MemDevice>::blocks_required(&cfg, store_block);
    // Keep a handle on the trace log so the attacker can read it after the
    // device has been moved into the store.
    let log = stegfs_blockdev::TraceLog::new();
    let device = TracingDevice::with_log(MemDevice::new(num_blocks, store_block), log.clone());
    let sort_device = MemDevice::new(
        ObliviousStore::<MemDevice, MemDevice>::sort_blocks_required(&cfg) + 8,
        ObliviousStore::<MemDevice, MemDevice>::sort_block_size_for(store_block),
    );
    let store = ObliviousStore::new(
        device,
        sort_device,
        cfg,
        Key256::from_passphrase("oblivious security"),
        5,
        None,
    )
    .expect("store");
    for id in 0..items {
        store.insert(id, vec![0u8; 1024]).expect("populate");
    }

    let mut rng = HashDrbg::from_u64(29);
    let mut pattern = if skewed {
        AccessPattern::zipf(items, 1.2)
    } else {
        AccessPattern::uniform(items)
    };
    // Measure the steady-state read phase only: drop the population trace.
    log.clear();
    for _ in 0..reads {
        let id = pattern.next(&mut rng);
        store.read(id).expect("read");
    }
    let positions: Vec<u64> = log
        .records()
        .iter()
        .filter(|r| r.kind == stegfs_blockdev::IoKind::Read)
        .map(|r| r.block)
        .collect();
    (positions, num_blocks)
}

fn main() {
    // 40 rounds of 10 updates = the 400 data updates the table title quotes;
    // quick mode keeps the shape with a quarter of the observations.
    let rounds = pick(40u64, 10);
    let reads = pick(2000u64, 500);

    // ---------------------------------------------------------------- Part 1
    // The two agent configurations are independent simulations; run them (and
    // the four read-trace collections below) concurrently.
    let update_verdicts = fan_out(vec![true, false], |relocate| {
        update_analysis_scenario(relocate, rounds)
    });
    let (chi_on, kl_on, dist_on, obs_on) = update_verdicts[0];
    let (chi_off, kl_off, dist_off, obs_off) = update_verdicts[1];
    print_table(
        &format!(
            "Update analysis (snapshot diffing attacker), {} data updates on a Zipf-hot file",
            rounds * 10
        ),
        &[
            "configuration",
            "changed blocks observed",
            "chi-square",
            "KL vs uniform (bits)",
            "attacker wins?",
        ],
        &[
            vec![
                "StegHide* (relocation + dummy updates)".to_string(),
                obs_on.to_string(),
                format!("{chi_on:.1}"),
                format!("{kl_on:.3}"),
                if dist_on { "YES" } else { "no" }.to_string(),
            ],
            vec![
                "ablation: in-place updates + dummy updates".to_string(),
                obs_off.to_string(),
                format!("{chi_off:.1}"),
                format!("{kl_off:.3}"),
                if dist_off { "YES" } else { "no" }.to_string(),
            ],
        ],
    );

    // ---------------------------------------------------------------- Part 2
    let mut direct_traces = fan_out(vec![true, false], |skewed| {
        direct_read_positions(skewed, reads)
    });
    let (direct_uniform, _) = direct_traces.pop().expect("uniform trace");
    let (direct_skewed, direct_universe) = direct_traces.pop().expect("skewed trace");
    let mut direct_attacker = TrafficAnalysisAttacker::new(direct_universe);
    for (i, &b) in direct_skewed.iter().enumerate() {
        direct_attacker.observe(&stegfs_blockdev::IoRecord {
            seq: i as u64,
            kind: stegfs_blockdev::IoKind::Read,
            block: b,
        });
    }
    let direct_verdict = direct_attacker.read_verdict(0.01);
    let direct_kl = kl_divergence_between(&direct_skewed, &direct_uniform, direct_universe, 64);

    let mut obli_traces = fan_out(vec![true, false], |skewed| {
        oblivious_read_positions(skewed, reads)
    });
    let (obli_uniform, _) = obli_traces.pop().expect("uniform trace");
    let (obli_skewed, obli_universe) = obli_traces.pop().expect("skewed trace");
    let obli_kl = kl_divergence_between(&obli_skewed, &obli_uniform, obli_universe, 64);

    print_table(
        &format!(
            "Traffic analysis (request-stream attacker), {reads} reads with a Zipf-skewed workload"
        ),
        &[
            "configuration",
            "requests observed",
            "repetition rate",
            "KL(skewed || uniform workload) bits",
            "attacker wins?",
        ],
        &[
            vec![
                "direct StegFS reads (no oblivious storage)".to_string(),
                direct_skewed.len().to_string(),
                format!("{:.3}", direct_verdict.repetition_rate),
                format!("{direct_kl:.3}"),
                if direct_verdict.distinguishable {
                    "YES"
                } else {
                    "no"
                }
                .to_string(),
            ],
            vec![
                "reads through the oblivious storage".to_string(),
                obli_skewed.len().to_string(),
                "n/a (positions reshuffled)".to_string(),
                format!("{obli_kl:.3}"),
                if obli_kl > 0.5 { "YES" } else { "no" }.to_string(),
            ],
        ],
    );
    println!(
        "\nInterpretation: the attacker should win only in the two unprotected configurations\n\
         (in-place updates, direct reads). KL close to zero means the observable access\n\
         pattern under real user activity matches the pattern of dummy traffic (Definition 1)."
    );
}
