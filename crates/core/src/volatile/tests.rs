//! Construction 2 lifecycle: zero knowledge at start, a view that follows
//! logins and logouts, and state that lives on the volume — never in the
//! agent — between sessions.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use stegfs_base::{BlockClass, FileAccessKey};
use stegfs_blockdev::{DeviceError, Io, IoKind, Layered, MemDevice};

use crate::volatile_concurrent::tests::{credentials, provisioned_on};
use crate::{AgentConfig, AgentError, ConcurrentVolatileAgent, UpdateOutcome, UserCredential};

/// One user (alice) with a data and a dummy file; the agent restarted.
fn provisioned_agent() -> (ConcurrentVolatileAgent<MemDevice>, Vec<u8>) {
    provisioned_on(
        MemDevice::new(1024, 512),
        &["alice"],
        AgentConfig::default(),
    )
}

#[test]
fn fresh_agent_knows_nothing() {
    let (agent, _) = provisioned_agent();
    assert_eq!(agent.map().data_blocks(), 0);
    assert_eq!(agent.map().dummy_blocks(), 0);
    assert_eq!(agent.logged_in_users().len(), 0);
    // With nobody logged in there is nothing to dummy-update.
    assert_eq!(
        agent.dummy_update_batch(1),
        Err(AgentError::NothingToUpdate)
    );
}

#[test]
fn login_discloses_files_and_enables_dummy_traffic() {
    let (agent, content) = provisioned_agent();
    let session = agent.login("alice", &credentials("alice")).unwrap();
    assert_eq!(agent.logged_in_users(), vec!["alice".to_string()]);
    let files = agent.session_files(session).unwrap();
    assert_eq!(files.len(), 2);
    assert_eq!(agent.read_file(session, files[0]).unwrap(), content);
    // Now dummy updates are possible and touch only known blocks: the two
    // headers, six data blocks and eight dummy blocks alice disclosed.
    assert_eq!(agent.map().data_blocks(), 2 + 6);
    assert_eq!(agent.map().dummy_blocks(), 8);
    let touched = agent.dummy_update_batch(32).unwrap();
    assert_eq!(touched.len(), 32);
    assert!(touched
        .iter()
        .all(|&b| agent.map().class(b) != BlockClass::Unknown));
    // Content still intact afterwards.
    assert_eq!(agent.read_file(session, files[0]).unwrap(), content);
}

#[test]
fn updates_relocate_into_the_users_dummy_blocks() {
    let (agent, _) = provisioned_agent();
    let session = agent.login("alice", &credentials("alice")).unwrap();
    let files = agent.session_files(session).unwrap();
    let (data_id, dummy_id) = (files[0], files[1]);
    let per = agent.fs().content_bytes_per_block();
    let dummy_before = agent.engine.locations(dummy_id);

    let mut relocations = 0;
    for i in 0..12u64 {
        let payload = vec![i as u8 + 1; per];
        let before = agent.engine.locations(data_id)[(i % 6) as usize];
        match agent
            .update_block(session, data_id, i % 6, &payload)
            .unwrap()
        {
            UpdateOutcome::Relocated { from, to } => {
                relocations += 1;
                assert_eq!(from, before);
                // The target came out of the dummy file, which took the
                // vacated block in exchange.
                assert!(agent.engine.locations(dummy_id).contains(&from));
                assert!(!agent.engine.locations(dummy_id).contains(&to));
            }
            UpdateOutcome::InPlace { block } => assert_eq!(block, before),
        }
    }
    assert!(relocations > 0, "expected at least one relocation");
    assert_ne!(agent.engine.locations(dummy_id), dummy_before);
    // Dummy file keeps the same number of content blocks (swap semantics).
    assert_eq!(agent.num_blocks(session, dummy_id).unwrap(), 8);
    assert_eq!(agent.stats().data_updates, 12);
}

#[test]
fn state_survives_logout_and_new_session() {
    let (agent, _) = provisioned_agent();
    let per = agent.fs().content_bytes_per_block();
    let session = agent.login("alice", &credentials("alice")).unwrap();
    let files = agent.session_files(session).unwrap();
    let expected: Vec<u8> = vec![0xC3; per];
    agent
        .update_range_fill(session, files[0], 2, 3, 0xC3)
        .unwrap();
    agent.save_file(session, files[0]).unwrap();
    agent.logout(session).unwrap();
    assert_eq!(agent.map().data_blocks(), 0, "view forgotten at logout");
    assert!(agent.logged_in_users().is_empty());
    assert!(agent.session_files(session).is_err());

    // A restarted agent — nothing carried over in memory — sees the updates.
    let agent =
        ConcurrentVolatileAgent::mount(agent.into_device(), AgentConfig::default(), 5, 2).unwrap();
    let session2 = agent.login("alice", &credentials("alice")).unwrap();
    let files2 = agent.session_files(session2).unwrap();
    let read = agent.read_file(session2, files2[0]).unwrap();
    for index in 2..5 {
        assert_eq!(&read[index * per..(index + 1) * per], &expected[..]);
    }
    assert_eq!(agent.num_blocks(session2, files2[1]).unwrap(), 8);
}

#[test]
fn sessions_cannot_touch_each_others_files() {
    let (agent, _) = provisioned_agent();
    let alice = agent.login("alice", &credentials("alice")).unwrap();
    let alice_files = agent.session_files(alice).unwrap();
    let mallory = agent.login("mallory", &[]).unwrap();
    assert!(matches!(
        agent.read_file(mallory, alice_files[0]),
        Err(AgentError::UnknownFile(_))
    ));
    assert!(matches!(
        agent.update_block(mallory, alice_files[0], 0, b"x"),
        Err(AgentError::UnknownFile(_))
    ));
    assert!(matches!(
        agent.save_file(mallory, alice_files[0]),
        Err(AgentError::UnknownFile(_))
    ));
}

#[test]
fn login_with_wrong_key_fails() {
    let (agent, _) = provisioned_agent();
    let mut creds = credentials("alice");
    // Right dummy key, wrong data key — and in the order that makes the
    // login open a file before it fails.
    creds.reverse();
    creds[1].fak = FileAccessKey::from_passphrase("not-alice");
    assert!(agent.login("alice", &creds).is_err());
    // The half-finished login left nothing behind.
    assert!(agent.logged_in_users().is_empty());
    assert_eq!(agent.map().data_blocks() + agent.map().dummy_blocks(), 0);
    assert!(agent.engine.lock().registry.is_empty());
    assert_eq!(
        agent.dummy_update_batch(1),
        Err(AgentError::NothingToUpdate)
    );
}

#[test]
fn a_data_file_disclosed_without_its_content_key_stays_out_of_the_draws() {
    let (agent, content) = provisioned_on(
        MemDevice::new(2048, 512),
        &["alice", "bob"],
        AgentConfig::default(),
    );
    let mut creds = credentials("alice");
    creds[0].fak = creds[0].fak.without_content_key();
    let alice = agent.login("alice", &creds).unwrap();
    let alice_data = agent.session_files(alice).unwrap()[0];
    let keyless = agent.engine.locations(alice_data);
    let bob = agent.login("bob", &credentials("bob")).unwrap();
    let bob_data = agent.session_files(bob).unwrap()[0];
    let per = agent.fs().content_bytes_per_block();
    // Six of the 32 blocks alice and bob disclosed are content alice's key
    // cannot reseal: every batch and every update would draw some of them
    // if they were drawable.
    for i in 0..16u64 {
        agent
            .update_block(bob, bob_data, i % 6, &vec![i as u8; per])
            .unwrap();
        let victims = agent.dummy_update_batch(16).unwrap();
        assert!(victims.iter().all(|b| !keyless.contains(b)), "{victims:?}");
    }
    agent.logout(alice).unwrap();
    let alice = agent.login("alice", &credentials("alice")).unwrap();
    let data = agent.session_files(alice).unwrap()[0];
    assert_eq!(agent.engine.locations(data), keyless);
    assert_eq!(agent.read_file(alice, data).unwrap(), content);
}

#[test]
fn create_file_from_dummies_converts_dummy_blocks() {
    let (agent, _) = provisioned_agent();
    let session = agent.login("alice", &credentials("alice")).unwrap();
    let dummy_id = agent.session_files(session).unwrap()[1];
    let dummy_before = agent.engine.locations(dummy_id);
    let per = agent.fs().content_bytes_per_block();
    let new_fak = FileAccessKey::from_passphrase("alice-notes");
    let content = vec![0x5Au8; per * 2];
    let id = agent
        .create_file_from_dummies(session, "/alice/notes", &new_fak, &content)
        .unwrap();
    assert_eq!(agent.session_files(session).unwrap().len(), 3);
    // Every content block of the new file was one of the dummy file's, and
    // the dummy file gave up exactly those.
    let taken = agent.engine.locations(id);
    assert!(taken.iter().all(|b| dummy_before.contains(b)), "{taken:?}");
    let kept: Vec<_> = dummy_before
        .into_iter()
        .filter(|b| !taken.contains(b))
        .collect();
    assert_eq!(agent.engine.locations(dummy_id), kept);
    assert_eq!(agent.read_file(session, id).unwrap(), content);
    // The new file is a first-class citizen of the session.
    agent
        .update_block(session, id, 1, &vec![0x5B; per])
        .unwrap();
    assert!(agent.audit_map_consistency());
    // The user's dummy file shrank to donate the blocks.
    agent.flush().unwrap();
    agent.logout(session).unwrap();

    let dummy = credentials("alice").remove(1);
    let session2 = agent
        .login(
            "alice",
            &[dummy, UserCredential::new("/alice/notes", new_fak.clone())],
        )
        .unwrap();
    let files = agent.session_files(session2).unwrap();
    assert_eq!(agent.num_blocks(session2, files[0]).unwrap(), 8 - 2);
    let read = agent.read_file(session2, files[1]).unwrap();
    assert_eq!(&read[..per], &content[..per]);
    assert_eq!(&read[per..], &vec![0x5B; per][..]);
}

#[test]
fn logout_unknown_session_errors() {
    let (agent, _) = provisioned_agent();
    assert_eq!(agent.logout(99), Err(AgentError::UnknownSession(99)));
}

#[test]
fn login_churn_leaves_the_registry_empty() {
    let (agent, _) = provisioned_agent();
    let per = agent.fs().content_bytes_per_block();
    let mut ids = Vec::new();
    for cycle in 0..10u64 {
        let session = agent.login("alice", &credentials("alice")).unwrap();
        let files = agent.session_files(session).unwrap();
        agent
            .update_block(session, files[0], cycle % 6, &vec![cycle as u8; per])
            .unwrap();
        assert!(!agent.engine.lock().registry.is_empty());
        agent.logout(session).unwrap();
        assert!(agent.engine.lock().registry.is_empty(), "cycle {cycle}");
        ids.extend(files);
    }
    // Every login minted fresh ids; none of them left anything behind.
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 20);
}

#[test]
fn logout_surfaces_a_failed_header_write_and_keeps_the_session() {
    // A device whose writes fail while `failing` is set.
    let failing = Arc::new(AtomicBool::new(false));
    let device = Layered::with_hook(MemDevice::new(1024, 512), {
        let failing = failing.clone();
        move |_: &MemDevice, io: Io| {
            if io.kind == IoKind::Write && failing.load(Ordering::SeqCst) {
                return Err(DeviceError::Io("injected write failure".to_string()));
            }
            Ok(())
        }
    });
    let (agent, _) = provisioned_on(device, &["alice"], AgentConfig::default());
    let per = agent.fs().content_bytes_per_block();
    let session = agent.login("alice", &credentials("alice")).unwrap();
    let data = agent.session_files(session).unwrap()[0];
    // Relocate until the cached header differs from the one on disk.
    let on_disk = agent.engine.locations(data);
    let mut fill = 0u8;
    while agent.engine.locations(data) == on_disk {
        fill += 1;
        agent
            .update_block(session, data, 0, &vec![fill; per])
            .unwrap();
    }
    let expected = agent.read_file(session, data).unwrap();

    failing.store(true, Ordering::SeqCst);
    assert!(matches!(
        agent.logout(session),
        Err(AgentError::Fs(stegfs_base::FsError::Device(
            DeviceError::Io(_)
        )))
    ));
    // Nothing was forgotten: the session still works off the cached header.
    assert_eq!(agent.logged_in_users(), vec!["alice".to_string()]);
    assert_eq!(agent.read_file(session, data).unwrap(), expected);
    assert_ne!(agent.engine.locations(data)[0], on_disk[0]);

    // The retry the error asked for succeeds once the device recovers, and
    // the relocation is what the next login finds.
    failing.store(false, Ordering::SeqCst);
    agent.logout(session).unwrap();
    let session = agent.login("alice", &credentials("alice")).unwrap();
    let data = agent.session_files(session).unwrap()[0];
    assert_eq!(agent.read_file(session, data).unwrap(), expected);
}
