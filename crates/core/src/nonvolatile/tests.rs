//! Construction 1 lifecycle: what the agent's persistent secrets (key +
//! block map) buy it, and what happens to a file between open and close.

use stegfs_base::{BlockClass, ShardedBlockMap};
use stegfs_crypto::Key256;

use crate::concurrent::tests::{agent, AGENT_SECRET};
use crate::{AgentConfig, AgentError, ConcurrentAgent, UpdateOutcome};

#[test]
fn create_update_read_roundtrip() {
    let agent = agent(512, 8);
    let user = Key256::from_passphrase("alice");
    let per = agent.fs().content_bytes_per_block();
    let content = vec![1u8; per * 5];
    let id = agent.create_file(&user, "/alice/db", &content).unwrap();
    assert_eq!(agent.num_blocks(id).unwrap(), 5);

    let new_block = vec![7u8; per];
    agent.update_range_fill(id, 3, 2, 7).unwrap();
    let read = agent.read_file(id).unwrap();
    assert_eq!(&read[3 * per..4 * per], &new_block[..]);
    assert_eq!(&read[4 * per..], &new_block[..]);
    assert_eq!(&read[..3 * per], &content[..3 * per]);

    // Close and reopen: relocations must have been persisted, and the old
    // id is dead.
    agent.close_file(id).unwrap();
    assert_eq!(agent.read_file(id), Err(AgentError::UnknownFile(id)));
    assert_eq!(agent.close_file(id), Err(AgentError::UnknownFile(id)));
    let id2 = agent.open_file(&user, "/alice/db").unwrap();
    assert_ne!(id2, id);
    assert_eq!(agent.read_file(id2).unwrap(), read);
}

#[test]
fn mount_with_exported_map_preserves_view() {
    let agent = agent(256, 8);
    let user = Key256::from_passphrase("bob");
    let per = agent.fs().content_bytes_per_block();
    let id = agent
        .create_file(&user, "/bob/f", &vec![9u8; per * 2])
        .unwrap();
    agent.update_block(id, 0, &vec![8u8; per]).unwrap();
    agent.close_file(id).unwrap();
    let map_bytes = agent.export_block_map();
    let data_blocks = agent.map().blocks_in_class(BlockClass::Data);

    let remounted = ConcurrentAgent::mount(
        agent.into_device(),
        AgentConfig::default(),
        Key256::from_passphrase(AGENT_SECRET),
        ShardedBlockMap::from_bytes(&map_bytes)
            .unwrap()
            .with_shards(4),
        99,
    )
    .unwrap();
    assert_eq!(remounted.num_shards(), 4);
    assert_eq!(
        remounted.map().blocks_in_class(BlockClass::Data),
        data_blocks
    );
    let id = remounted.open_file(&user, "/bob/f").unwrap();
    let mut expected = vec![9u8; per * 2];
    expected[..per].fill(8);
    assert_eq!(remounted.read_file(id).unwrap(), expected);
    // The restored view is a working one: updates relocate into its dummies.
    for i in 0..8u64 {
        remounted
            .update_block(id, i % 2, &vec![i as u8; per])
            .unwrap();
    }
    assert!(remounted.stats().relocations > 0);
    assert_eq!(remounted.map().data_blocks(), data_blocks.len() as u64);
}

#[test]
fn wrong_user_secret_cannot_open() {
    let agent = agent(256, 8);
    let user = Key256::from_passphrase("alice");
    agent.create_file(&user, "/f", b"secret").unwrap();
    let wrong = Key256::from_passphrase("eve");
    assert!(agent.open_file(&wrong, "/f").is_err());
}

#[test]
fn tick_idle_issues_dummy_updates_without_corruption() {
    let agent = agent(256, 8);
    let user = Key256::from_passphrase("alice");
    let content = vec![3u8; 1000];
    let id = agent.create_file(&user, "/f", &content).unwrap();
    for _ in 0..50 {
        let touched = agent.dummy_update_batch(1).unwrap();
        assert!((1..256).contains(&touched[0]));
    }
    assert_eq!(agent.stats().dummy_updates, 50);
    assert_eq!(agent.read_file(id).unwrap(), content);
}

#[test]
fn delete_restores_dummy_pool() {
    let agent = agent(256, 8);
    let user = Key256::from_passphrase("alice");
    let before = agent.map().dummy_blocks();
    let id = agent.create_file(&user, "/f", &vec![1u8; 3000]).unwrap();
    assert!(agent.map().dummy_blocks() < before);
    agent.delete_file(id).unwrap();
    assert_eq!(agent.map().dummy_blocks(), before);
    assert!(agent.read_file(id).is_err());
    assert!(agent.open_file(&user, "/f").is_err());
    assert_eq!(agent.delete_file(id), Err(AgentError::UnknownFile(id)));
}

#[test]
fn relocation_moves_block_to_dummy_class_target() {
    let agent = agent(1024, 8);
    let user = Key256::from_passphrase("alice");
    let per = agent.fs().content_bytes_per_block();
    let id = agent.create_file(&user, "/f", &vec![1u8; per * 2]).unwrap();
    // Force enough updates that at least one relocation occurs.
    let mut saw_relocation = false;
    for i in 0..20u64 {
        if let UpdateOutcome::Relocated { from, to } =
            agent.update_block(id, 0, &vec![i as u8; per]).unwrap()
        {
            saw_relocation = true;
            assert_eq!(agent.map().class(from), BlockClass::Dummy);
            assert_eq!(agent.map().class(to), BlockClass::Data);
        }
    }
    assert!(saw_relocation);
}

#[test]
fn utilisation_reflects_allocations() {
    let agent = agent(512, 8);
    assert!(agent.utilisation() < 0.02);
    let user = Key256::from_passphrase("u");
    let per = agent.fs().content_bytes_per_block();
    agent
        .create_file(&user, "/f", &vec![0u8; per * 100])
        .unwrap();
    assert!(agent.utilisation() > 0.15);
}

#[test]
fn closing_and_deleting_files_empties_the_registry() {
    let agent = agent(512, 8);
    let per = agent.fs().content_bytes_per_block();
    let user = Key256::from_passphrase("churn");
    for round in 0..12u64 {
        let path = format!("/churn/{round}");
        let id = agent
            .create_file(&user, &path, &vec![1u8; per * 2])
            .unwrap();
        agent.update_block(id, round % 2, &vec![2u8; per]).unwrap();
        assert!(!agent.engine.lock().registry.is_empty());
        if round % 2 == 0 {
            agent.close_file(id).unwrap();
            let id = agent.open_file(&user, &path).unwrap();
            agent.update_block(id, 0, &vec![3u8; per]).unwrap();
            agent.delete_file(id).unwrap();
        } else {
            agent.delete_file(id).unwrap();
        }
        assert!(agent.engine.lock().registry.is_empty(), "round {round}");
    }
}
