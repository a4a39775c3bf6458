//! The paper's motivating scenario (Figures 1 and 2): a DBMS stores a salary
//! table in a hidden file on shared storage, and an attacker who can diff
//! storage snapshots tries to learn that the table was updated.
//!
//! Run with `cargo run --release --example database_update_hiding`.
//!
//! Two agents are compared on identical workloads:
//! * one with the full StegHide mechanism (dummy updates + relocation),
//! * one with relocation disabled, i.e. updates happen in place.
//!
//! The snapshot attacker's chi-square distinguisher flags the in-place
//! configuration but not the protected one.

use stegfs_repro::analysis::UpdateAnalysisAttacker;
use stegfs_repro::blockdev::Snapshot;
use stegfs_repro::prelude::*;
use stegfs_repro::stegfs::{StegFsConfig, DEFAULT_MAP_SHARDS};

/// One employee row of the toy salary table.
fn salary_row(name: &str, salary: u64) -> Vec<u8> {
    format!("{name:<24}|{salary:>12}\n").into_bytes()
}

fn run_scenario(relocate: bool) -> (bool, f64, usize) {
    let cfg = if relocate {
        AgentConfig::default()
    } else {
        AgentConfig::default().without_relocation()
    };
    let volume_blocks = 4096u64;
    let agent = ConcurrentAgent::format(
        MemDevice::new(volume_blocks, 4096),
        StegFsConfig::default(),
        cfg,
        Key256::from_passphrase("dbms agent"),
        42,
        DEFAULT_MAP_SHARDS,
    )
    .expect("format");

    // Build the salary table: 4000 rows across a handful of blocks.
    let dba = Key256::from_passphrase("dba secret");
    let mut table = Vec::new();
    for i in 0..4000 {
        table.extend_from_slice(&salary_row(&format!("employee-{i:05}"), 200_000));
    }
    let file = agent
        .create_file(&dba, "/db/sal_table", &table)
        .expect("create table");
    let per_block = agent.fs().content_bytes_per_block();
    let rows_per_block = per_block / 38;

    // The attacker scans the raw storage between every batch of activity.
    let mut attacker = UpdateAnalysisAttacker::new(volume_blocks);
    let mut before = Snapshot::capture(agent.fs().device()).expect("snapshot");

    // 30 batches of "UPDATE sal_table SET salary += 100000 WHERE name = ..."
    // hitting rows that all live in the same hot block, interleaved with the
    // agent's background dummy updates.
    for batch in 0..30u64 {
        for i in 0..5u64 {
            let row = (batch * 5 + i) % rows_per_block as u64; // all in block 0
            let mut block = agent.read_block(file, 0).expect("read block");
            let row_bytes = salary_row(&format!("employee-{row:05}"), 300_000);
            let offset = row as usize * 38;
            block[offset..offset + row_bytes.len()].copy_from_slice(&row_bytes);
            agent.update_block(file, 0, &block).expect("update row");
        }
        agent.dummy_update_batch(5).expect("dummy updates");
        let after = Snapshot::capture(agent.fs().device()).expect("snapshot");
        attacker.observe_diff(&before.diff(&after));
        before = after;
    }

    let verdict = attacker.verdict(0.01);
    (
        verdict.distinguishable,
        verdict.kl_divergence,
        verdict.observations,
    )
}

fn main() {
    println!("Scenario: a DBMS keeps updating the same hot block of Sal_table (Figure 1).");
    println!("The attacker diffs storage snapshots after every batch of updates.\n");

    let (wins_protected, kl_protected, obs_p) = run_scenario(true);
    let (wins_inplace, kl_inplace, obs_i) = run_scenario(false);

    println!("StegHide* (dummy updates + Figure 6 relocation):");
    println!("  changed blocks observed: {obs_p}");
    println!("  KL divergence from uniform: {kl_protected:.3} bits");
    println!(
        "  attacker identifies real updates: {}",
        if wins_protected { "YES" } else { "no" }
    );

    println!("\nAblation (dummy updates but in-place writes, as in Figure 1):");
    println!("  changed blocks observed: {obs_i}");
    println!("  KL divergence from uniform: {kl_inplace:.3} bits");
    println!(
        "  attacker identifies real updates: {}",
        if wins_inplace { "YES" } else { "no" }
    );

    assert!(
        !wins_protected,
        "the protected configuration must resist update analysis"
    );
    assert!(
        wins_inplace,
        "the in-place configuration is expected to leak"
    );
    println!("\nAs in the paper: relocation makes the DBMS's updates vanish into the dummy noise.");
}
