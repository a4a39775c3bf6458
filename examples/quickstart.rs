//! Quickstart: hide a file, update it without leaving a trace, read it back.
//!
//! Run with `cargo run --release --example quickstart`.
//!
//! This walks through the Construction 1 agent (the paper's "StegHide*"):
//! every block of the volume is encrypted under the agent's
//! key, user secrets only determine where file headers live, data updates
//! relocate blocks to uniformly random positions, and idle time is filled
//! with dummy updates.

use stegfs_repro::prelude::*;
use stegfs_repro::stegfs::{StegFsConfig, DEFAULT_MAP_SHARDS};
use stegfs_repro::steghide::UpdateOutcome;

fn main() {
    // A 64 MB in-memory volume of 4 KB blocks. Swap in `FileDevice` for a
    // persistent volume file.
    let device = MemDevice::new(16 * 1024, 4096);

    // The agent's persistent secret (Construction 1 keeps this in the agent's
    // non-volatile memory). Every method takes `&self`: share the agent
    // across as many serving threads as there are users.
    let agent_key = Key256::from_passphrase("agent: keep this in the HSM");
    let agent = ConcurrentAgent::format(
        device,
        StegFsConfig::default(),
        AgentConfig::default(),
        agent_key,
        0xC0FFEE,
        DEFAULT_MAP_SHARDS,
    )
    .expect("format volume");

    // Alice hides a file. Her secret never reaches the disk; it only decides
    // where the file's header is placed.
    let alice = Key256::from_passphrase("alice's passphrase");
    let report = b"Q3 numbers: revenue 4.2M, burn 1.1M, runway 14 months".repeat(400);
    let file = agent
        .create_file(&alice, "/alice/q3-report", &report)
        .expect("create hidden file");
    println!(
        "created /alice/q3-report: {} bytes in {} scattered blocks",
        report.len(),
        agent.num_blocks(file).unwrap()
    );

    // Updating a block relocates it to a uniformly random position (Figure 6),
    // so the update is indistinguishable from the agent's dummy updates.
    let per_block = agent.fs().content_bytes_per_block();
    let new_page = vec![b'X'; per_block];
    match agent.update_block(file, 2, &new_page).expect("update") {
        UpdateOutcome::Relocated { from, to } => {
            println!("update relocated block 2: physical {from} -> {to}")
        }
        UpdateOutcome::InPlace { block } => {
            println!("update landed on the same random draw, stayed at {block}")
        }
    }

    // Idle-time dummy updates: random blocks get re-encrypted under fresh IVs.
    let touched = agent.dummy_update_batch(4).expect("dummy updates");
    println!("idle time re-encrypted blocks {touched:?} — contents unchanged");

    // Reading back returns the updated content.
    let read = agent.read_file(file).expect("read");
    assert_eq!(&read[2 * per_block..2 * per_block + 5], b"XXXXX");
    assert_eq!(&read[..40], &report[..40]);
    println!("read back {} bytes, content verified", read.len());

    // Someone without Alice's secret cannot even tell the file exists.
    let eve = Key256::from_passphrase("eve guessing");
    assert!(agent.open_file(&eve, "/alice/q3-report").is_err());
    println!("wrong passphrase: file is indistinguishable from free space");

    let stats = agent.stats();
    println!(
        "agent stats: {} data updates ({} relocations), {} dummy updates, {:.2} I/Os per update",
        stats.data_updates,
        stats.relocations,
        stats.dummy_updates,
        stats.mean_ios_per_data_update()
    );
}
