//! Million-user scale: the persistent sharded registry and the Construction 2
//! agent under login churn.
//!
//! Run with `cargo run --release --example million_user_registry`.
//!
//! Two halves of the scale tier in one walkthrough:
//!
//! 1. A persistent `Registry` is created over a `ResilientStore` —
//!    shard-partitioned by a keyed hash into one hidden file of one-block
//!    shards, checkpointed through the same journaled, parity-protected write
//!    path as any file — and serves a churn of lookups with memory bounded by
//!    the *active* users, not the registered population.
//! 2. A volume provisioned on the StegFS substrate (`StegFs::format`, then
//!    `create_file` / `create_dummy_file`) is mounted by
//!    `ConcurrentVolatileAgent` (Construction 2): sessions log in, disclose
//!    their files, update through the relocate-on-write path, and log out —
//!    after which the agent provably knows nothing again.

use stegfs_repro::prelude::*;
use stegfs_repro::workload::{ChurnConfig, ChurnOp, ChurnWorkload};

fn main() {
    // ---- 1. The persistent registry. ----
    let master = Key256::from_passphrase("operator master key");
    let store = ResilientStore::format(
        MemDevice::new(4096, 4096),
        ResilienceConfig::default().with_stripe(2, 1),
        &master,
        0x5ca1e,
    )
    .expect("format volume");
    let registry = Registry::create(&store, 256, 8).expect("create registry");

    let users = 20_000u64;
    for u in 0..users {
        registry
            .put(&format!("user-{u:06}"), &u.to_le_bytes())
            .expect("register");
    }
    registry.checkpoint().expect("checkpoint");
    println!(
        "registered {} users into {} sealed blocks ({} durable records)",
        users,
        registry.blocks().len(),
        registry.checkpointed_records().expect("count"),
    );

    // Churn: Zipf-skewed activity with login/logout storms. The resident
    // cache tracks the active set, never the population.
    let mut churn = ChurnWorkload::new(
        ChurnConfig::default()
            .with_users(users)
            .with_max_active(128),
        7,
    );
    let mut peak = 0usize;
    for _ in 0..5_000 {
        match churn.next().expect("infinite stream") {
            ChurnOp::Login(u) | ChurnOp::Lookup(u) => {
                registry
                    .get(&format!("user-{u:06}"))
                    .expect("lookup")
                    .expect("registered user");
            }
            ChurnOp::Logout(u) | ChurnOp::Update(u) => {
                registry
                    .put(&format!("user-{u:06}"), &(!u).to_le_bytes())
                    .expect("update");
            }
        }
        peak = peak.max(registry.stats().resident_records);
    }
    println!(
        "churned 5000 ops: peak {} resident records for {} registered ({}x headroom)",
        peak,
        users,
        users as usize / peak.max(1)
    );

    // ---- 2. The Construction 2 agent. ----
    // Provision two users, each with a data file and a dummy file whose
    // blocks donate relocation targets while the user is logged in.
    let (fs, map) =
        StegFs::format(MemDevice::new(2048, 4096), StegFsConfig::default(), 21).expect("format");
    let per = fs.content_bytes_per_block();
    for name in ["alice", "bob"] {
        fs.create_file(
            &map,
            &format!("/{name}/notes"),
            &FileAccessKey::from_passphrase(&format!("{name}'s passphrase")),
            &vec![0x5a; per * 4],
        )
        .expect("provision data");
        fs.create_dummy_file(
            &map,
            &format!("/{name}/cover"),
            &FileAccessKey::from_passphrase(&format!("{name}'s cover")).without_content_key(),
            8,
        )
        .expect("provision dummy");
    }
    let agent = ConcurrentVolatileAgent::mount(fs.into_device(), AgentConfig::default(), 7, 8)
        .expect("mount");
    assert_eq!(agent.map().data_blocks(), 0); // zero knowledge at mount

    let creds = |name: &str| {
        vec![
            UserCredential::new(
                format!("/{name}/notes"),
                FileAccessKey::from_passphrase(&format!("{name}'s passphrase")),
            ),
            UserCredential::new(
                format!("/{name}/cover"),
                FileAccessKey::from_passphrase(&format!("{name}'s cover")).without_content_key(),
            ),
        ]
    };
    let session = agent.login("alice", &creds("alice")).expect("login");
    let files = agent.session_files(session).expect("files");
    agent
        .update_block(session, files[0], 1, &vec![0xA5; per])
        .expect("update relocates into alice's own cover blocks");
    println!(
        "alice logged in: {} blocks visible to the agent",
        agent.map().data_blocks() + agent.map().dummy_blocks()
    );
    agent.logout(session).expect("logout");
    println!(
        "alice logged out: {} blocks visible — the agent has forgotten her",
        agent.map().data_blocks() + agent.map().dummy_blocks()
    );
}
