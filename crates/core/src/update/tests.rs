//! The Figure 6 loop, asserted identically under both keyings: every test
//! body runs once against each front's engine.

use stegfs_base::{BlockClass, FsError};
use stegfs_blockdev::{BlockDevice, MemDevice};
use stegfs_crypto::Key256;

use crate::concurrent::tests as star;
use crate::engine::{Keying, Reseal};
use crate::volatile_concurrent::tests as plain;
use crate::{AgentConfig, AgentError, UpdateOutcome, UpdateStats};

/// Run `$body` with `$e` bound to the engine of a Construction 1 agent
/// (~3 % utilisation: almost every draw is a swap target) and then of a
/// Construction 2 agent (one user logged in: 8 of the 16 known blocks are
/// swap targets), `$id` naming an open six-block file.
macro_rules! on_both_keyings {
    ($cfg:expr, |$e:ident, $id:ident| $body:block) => {{
        let agent = star::agent_with(512, 4, $cfg);
        let per = agent.fs().content_bytes_per_block();
        let $id = agent
            .create_file(&Key256::from_passphrase("user"), "/t", &vec![0x42; per * 6])
            .unwrap();
        {
            let $e = &agent.engine;
            $body
        }

        let (agent, _) = plain::provisioned_on(MemDevice::new(1024, 512), &["alice"], $cfg);
        let session = agent.login("alice", &plain::credentials("alice")).unwrap();
        let $id = agent.session_files(session).unwrap()[0];
        {
            let $e = &agent.engine;
            $body
        }
    }};
}

#[test]
fn in_place_and_relocated_updates_preserve_readability() {
    on_both_keyings!(AgentConfig::default(), |e, id| {
        let per = e.fs.content_bytes_per_block();
        let before = e.shared().read_file(id).unwrap();
        let data_blocks = e.map.data_blocks();
        let new_block = vec![0x99u8; per];
        let outcome = e.shared().update_block(id, 2, &new_block).unwrap();
        // Whatever branch was taken, the file now reads back with the new
        // block in position 2 and everything else untouched.
        let read = e.shared().read_file(id).unwrap();
        assert_eq!(&read[..2 * per], &before[..2 * per]);
        assert_eq!(&read[2 * per..3 * per], &new_block[..]);
        assert_eq!(&read[3 * per..], &before[3 * per..]);
        assert_eq!(e.locations(id)[2], outcome.current_block());
        if let UpdateOutcome::Relocated { from, to } = outcome {
            assert_ne!(from, to);
            assert_eq!(e.map.class(from), BlockClass::Dummy);
            assert_eq!(e.map.class(to), BlockClass::Data);
        }
        assert_eq!(e.map.data_blocks(), data_blocks);
        assert_eq!(e.stats.snapshot().data_updates, 1);
        assert!(e.stats.snapshot().iterations >= 1);
    });
}

#[test]
fn scratch_buffer_reseal_is_byte_identical_to_open_then_seal() {
    on_both_keyings!(AgentConfig::default(), |e, id| {
        let block = e.locations(id)[3];
        let Reseal::Key(key) = e.keying.reseal(&e.map, &e.registry, block) else {
            panic!("a live content block is dummy-updated under its key");
        };
        // The formulation the in-place round trip replaced — open into a
        // fresh plaintext, seal into a fresh block — replayed on a copy of
        // the volume DRBG.
        let codec = e.fs.codec();
        let mut rng = e.fs.with_rng(|rng| rng.clone());
        let plaintext = codec.read_sealed(e.fs.device(), block, &key).unwrap();
        let expected = codec.seal(&key, &plaintext, &mut rng).unwrap();

        {
            let _shard = e.shard_lock(block);
            assert!(e.reseal_shard_locked(block).unwrap());
        }

        let mut on_device = vec![0u8; codec.block_size()];
        e.fs.device().read_block(block, &mut on_device).unwrap();
        assert_eq!(on_device, expected);
        // The same single IV draw: both generators are in the same state.
        assert_eq!(e.fs.with_rng(|live| live.next_u64()), rng.next_u64());
        assert_eq!(e.stats.snapshot().dummy_updates, 1);
    });
}

#[test]
fn relocation_is_overwhelmingly_likely_at_low_utilisation() {
    on_both_keyings!(AgentConfig::default(), |e, id| {
        let per = e.fs.content_bytes_per_block();
        let mut relocated = 0;
        for i in 0..50u64 {
            if matches!(
                e.shared().update_block(id, i % 4, &vec![i as u8; per]),
                Ok(UpdateOutcome::Relocated { .. })
            ) {
                relocated += 1;
            }
        }
        // An update ends on its first draw that is B1 itself or a swap
        // target: 1 against ~490 under Construction 1, 1 against 8 under
        // Construction 2 (expected 44 of 50).
        assert!(relocated > 35, "relocated only {relocated} of 50");
        assert_eq!(e.stats.snapshot().data_updates, 50);
        assert_eq!(e.stats.snapshot().relocations, relocated);
        // After a flush the relocations are on disk: a fresh open of the
        // file finds the header the agent has cached.
        e.exclusive().flush().unwrap();
        let (fak, path) = {
            let registry = e.registry.read();
            let file = registry.get(id).unwrap();
            (file.fak.clone(), file.path.clone())
        };
        let reopened = e.fs.open_file(&fak, &path).unwrap();
        assert_eq!(reopened.header.blocks, e.locations(id));
    });
}

#[test]
fn iterations_track_figure6_retries() {
    on_both_keyings!(AgentConfig::default(), |e, id| {
        let per = e.fs.content_bytes_per_block();
        for i in 0..20u64 {
            e.shared().update_block(id, 0, &vec![i as u8; per]).unwrap();
        }
        let s = e.stats.snapshot();
        assert_eq!(s.data_updates, 20);
        assert!(s.iterations >= 20);
        assert_eq!(s.relocations + s.in_place, 20);
        // Retries show up as dummy updates, each one read and one write.
        assert_eq!(s.dummy_updates, s.iterations - s.data_updates);
        assert_eq!(
            s.mean_ios_per_data_update(),
            2.0 * s.iterations as f64 / 20.0
        );
    });
}

#[test]
fn ablation_mode_never_relocates() {
    on_both_keyings!(AgentConfig::default().without_relocation(), |e, id| {
        let per = e.fs.content_bytes_per_block();
        let before = e.locations(id);
        for i in 0..10u64 {
            let outcome = e.shared().update_block(id, 1, &vec![i as u8; per]);
            assert_eq!(outcome, Ok(UpdateOutcome::InPlace { block: before[1] }));
        }
        assert_eq!(e.locations(id), before);
        let s = e.stats.snapshot();
        assert_eq!((s.relocations, s.in_place, s.iterations), (0, 10, 10));
        assert_eq!(s.mean_ios_per_data_update(), 2.0);
        assert_eq!(e.shared().read_block(id, 1).unwrap(), vec![9u8; per]);
    });
}

#[test]
fn dummy_updates_do_not_corrupt_data() {
    on_both_keyings!(AgentConfig::default(), |e, id| {
        let content = e.shared().read_file(id).unwrap();
        for _ in 0..20 {
            assert_eq!(e.shared().dummy_update_batch(10).unwrap().len(), 10);
        }
        assert_eq!(e.shared().read_file(id).unwrap(), content);
        let s = e.stats.snapshot();
        assert_eq!(s.dummy_updates, 200);
        assert_eq!(s.data_updates, 0);
    });
}

#[test]
fn oversized_payload_rejected() {
    on_both_keyings!(AgentConfig::default(), |e, id| {
        let per = e.fs.content_bytes_per_block();
        assert_eq!(
            e.shared().update_block(id, 0, &vec![0u8; per + 1]),
            Err(AgentError::PayloadTooLarge {
                got: per + 1,
                max: per
            })
        );
        assert_eq!(e.stats.snapshot(), UpdateStats::default());
    });
}

#[test]
fn unknown_file_and_index_errors() {
    on_both_keyings!(AgentConfig::default(), |e, id| {
        assert!(matches!(
            e.shared().update_block(id, 1000, b"x"),
            Err(AgentError::Fs(FsError::OutOfBounds { index: 1000, .. }))
        ));
        assert_eq!(
            e.shared().update_block(id + 100, 0, b"x"),
            Err(AgentError::UnknownFile(id + 100))
        );
        assert_eq!(
            e.shared().read_file(id + 100),
            Err(AgentError::UnknownFile(id + 100))
        );
        assert_eq!(e.stats.snapshot(), UpdateStats::default());
    });
}
