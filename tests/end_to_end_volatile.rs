//! End-to-end integration test of the Construction 2 deployment (the paper's
//! StegHide): provisioning on the substrate, a zero-knowledge mount,
//! multi-user sessions, updates with relocation, logout and a restart.

use stegfs_repro::prelude::*;

const BLOCK_SIZE: usize = 512;

struct User {
    name: &'static str,
    data_fak: FileAccessKey,
    dummy_fak: FileAccessKey,
    content: Vec<u8>,
}

fn users(per_block: usize) -> Vec<User> {
    ["alice", "bob", "carol"]
        .iter()
        .enumerate()
        .map(|(i, name)| User {
            name,
            data_fak: FileAccessKey::from_passphrase(&format!("{name}-data")),
            dummy_fak: FileAccessKey::from_passphrase(&format!("{name}-dummy"))
                .without_content_key(),
            content: (0..per_block * (4 + i))
                .map(|b| ((b + i) % 251) as u8)
                .collect(),
        })
        .collect()
}

fn credentials(user: &User) -> Vec<UserCredential> {
    vec![
        UserCredential::new(format!("/{}/data", user.name), user.data_fak.clone()),
        UserCredential::new(format!("/{}/dummy", user.name), user.dummy_fak.clone()),
    ]
}

#[test]
fn multi_user_lifecycle_across_restarts() {
    let fs_cfg = StegFsConfig::default().with_block_size(BLOCK_SIZE);
    let (fs, map) = StegFs::format(MemDevice::new(4096, BLOCK_SIZE), fs_cfg, 1).unwrap();
    let per_block = fs.content_bytes_per_block();
    let users = users(per_block);

    // Provision every user with a data file and a dummy pool.
    for user in &users {
        fs.create_file(
            &map,
            &format!("/{}/data", user.name),
            &user.data_fak,
            &user.content,
        )
        .unwrap();
        fs.create_dummy_file(&map, &format!("/{}/dummy", user.name), &user.dummy_fak, 12)
            .unwrap();
    }

    // Mount: the agent starts with zero knowledge.
    let agent =
        ConcurrentVolatileAgent::mount(fs.into_device(), AgentConfig::default(), 2, 4).unwrap();
    assert_eq!(agent.map().data_blocks(), 0);

    // All three users log in concurrently; each reads and updates its file
    // while the agent interleaves dummy traffic.
    let mut sessions = Vec::new();
    for user in &users {
        sessions.push(agent.login(user.name, &credentials(user)).unwrap());
    }
    assert_eq!(agent.logged_in_users(), vec!["alice", "bob", "carol"]);

    let mut expected: Vec<Vec<u8>> = users.iter().map(|u| u.content.clone()).collect();
    for (i, (&session, user)) in sessions.iter().zip(&users).enumerate() {
        let files = agent.session_files(session).unwrap();
        assert_eq!(agent.read_file(session, files[0]).unwrap(), user.content);

        let new_block = vec![0xB0 + i as u8; per_block];
        agent
            .update_block(session, files[0], 1, &new_block)
            .unwrap();
        expected[i][per_block..2 * per_block].copy_from_slice(&new_block);
        agent.dummy_update_batch(1).unwrap();
        assert_eq!(agent.read_file(session, files[0]).unwrap(), expected[i]);
    }

    // Everyone logs out; the agent's view empties again.
    for &session in &sessions {
        agent.logout(session).unwrap();
    }
    assert_eq!(agent.map().data_blocks(), 0);
    assert!(
        agent.dummy_update_batch(1).is_err(),
        "nothing left to dummy-update"
    );

    // Restart, then each user independently verifies its data.
    let device = agent.into_device();
    let agent = ConcurrentVolatileAgent::mount(device, AgentConfig::default(), 3, 4).unwrap();
    for (user, expected) in users.iter().zip(&expected) {
        let session = agent.login(user.name, &credentials(user)).unwrap();
        let files = agent.session_files(session).unwrap();
        assert_eq!(&agent.read_file(session, files[0]).unwrap(), expected);
        // The dummy file is still openable and still a dummy.
        assert!(agent.read_file(session, files[1]).is_ok());
        agent.logout(session).unwrap();
    }
}

#[test]
fn users_cannot_find_each_others_files() {
    let fs_cfg = StegFsConfig::default().with_block_size(BLOCK_SIZE);
    let (fs, map) = StegFs::format(MemDevice::new(2048, BLOCK_SIZE), fs_cfg, 5).unwrap();
    let alice = FileAccessKey::from_passphrase("alice-data");
    fs.create_file(&map, "/alice/data", &alice, b"alice's secret")
        .unwrap();

    let agent =
        ConcurrentVolatileAgent::mount(fs.into_device(), AgentConfig::default(), 6, 4).unwrap();

    // Bob guesses Alice's path but has his own key: login fails, and the
    // failure is indistinguishable from the file simply not existing.
    let bob_key = FileAccessKey::from_passphrase("bob-guess");
    let err = agent
        .login("bob", &[UserCredential::new("/alice/data", bob_key)])
        .unwrap_err();
    assert!(format!("{err}").contains("hidden file"));
}
