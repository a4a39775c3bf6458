//! Plausible deniability under Construction 2 (the paper's StegHide).
//!
//! Run with `cargo run --release --example plausible_deniability`.
//!
//! The agent keeps no persistent secrets: Alice owns the keys to
//! both her real files and her decoy (dummy) files and discloses them only at
//! login. If she is later coerced, she can hand over the dummy files' keys —
//! or even a real header key paired with a wrong content key — and nothing
//! about the volume contradicts her story (Section 4.2.1).

use stegfs_repro::prelude::*;
use stegfs_repro::stegfs::{FileAccessKey, StegFsConfig};

fn main() {
    let fs_cfg = StegFsConfig::default();

    // ---- Provisioning phase (before the system goes live). ----------------
    let setup = ConcurrentVolatileAgent::format(
        MemDevice::new(16 * 1024, 4096),
        fs_cfg,
        AgentConfig::default(),
        7,
    )
    .expect("format");

    let diary_fak = FileAccessKey::from_passphrase("alice diary key");
    let decoy_fak = FileAccessKey::from_passphrase("alice decoy key").without_content_key();
    let diary = b"2026-06-13: met the journalist at the usual place...".repeat(50);
    setup
        .provision_file("/alice/diary", &diary_fak, &diary)
        .expect("provision diary");
    setup
        .provision_dummy_file("/alice/vacation-photos", &decoy_fak, 16)
        .expect("provision decoy");

    // ---- The agent restarts: it now knows nothing at all. -----------------
    let device = setup.into_device();
    let agent = ConcurrentVolatileAgent::mount(device, AgentConfig::default(), 99, 8)
        .expect("mount with zero knowledge");
    println!(
        "agent restarted: knows about {} blocks",
        agent.map().data_blocks()
    );

    // ---- Alice logs in, disclosing both her real and her decoy files. -----
    let session = agent
        .login(
            "alice",
            &[
                UserCredential::new("/alice/diary", diary_fak.clone()),
                UserCredential::new("/alice/vacation-photos", decoy_fak.clone()),
            ],
        )
        .expect("login");
    let files = agent.session_files(session).expect("files");
    let read = agent.read_file(session, files[0]).expect("read diary");
    assert_eq!(read, diary);
    println!("alice logged in and read her diary ({} bytes)", read.len());

    // Updates relocate into her own decoy blocks; dummy traffic covers her.
    let per = agent.fs().content_bytes_per_block();
    agent
        .update_block(session, files[0], 0, &vec![b'-'; per])
        .expect("redact first page");
    agent.dummy_update_batch(4).expect("dummy updates");
    agent.logout(session).expect("logout");
    println!("alice logged out: the agent forgot every key and block location");

    // ---- Coercion scenario. ------------------------------------------------
    // Alice is compelled to reveal "her files". She hands over only the decoy
    // key, plus the diary's header key with a *wrong* content key, claiming
    // both are junk test files.
    let coerced_session = agent
        .login(
            "alice-under-coercion",
            &[
                UserCredential::new("/alice/vacation-photos", decoy_fak),
                UserCredential::new("/alice/diary", diary_fak.with_wrong_content_key()),
            ],
        )
        .expect("coerced login");
    let coerced_files = agent.session_files(coerced_session).expect("files");
    let decoy_bytes = agent
        .read_file(coerced_session, coerced_files[0])
        .expect("read decoy");
    let fake_diary = agent
        .read_file(coerced_session, coerced_files[1])
        .expect("read diary under wrong content key");
    println!(
        "coercer sees: a {}-byte random blob and a {}-byte random blob",
        decoy_bytes.len(),
        fake_diary.len()
    );
    assert_ne!(
        &fake_diary[..50],
        &diary[..50],
        "the wrong content key yields garbage"
    );
    println!("nothing distinguishes the real diary from a decoy — plausible deniability holds");
}
