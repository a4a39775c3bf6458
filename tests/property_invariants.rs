//! Cross-crate property-based tests: for arbitrary operation sequences the
//! hidden data always reads back exactly, no matter how much relocation,
//! dummy traffic and oblivious shuffling happened in between.

use proptest::prelude::*;

use stegfs_repro::oblivious::{ObliviousConfig, ObliviousStore};
use stegfs_repro::prelude::*;
use stegfs_repro::stegfs::{FileAccessKey, StegFsConfig};

const BLOCK_SIZE: usize = 512;

/// One step of the agent workload model.
#[derive(Debug, Clone)]
enum AgentOp {
    Update { block: u8, fill: u8 },
    DummyUpdates { count: u8 },
    SaveAndReopen,
}

fn agent_op() -> impl Strategy<Value = AgentOp> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(block, fill)| AgentOp::Update { block, fill }),
        (1u8..16).prop_map(|count| AgentOp::DummyUpdates { count }),
        Just(AgentOp::SaveAndReopen),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The steganographic file system plus the Figure 6 update algorithm is a
    /// faithful key-value store: an in-memory model of the file contents
    /// always matches what the agent reads back, across relocations, dummy
    /// updates and header save/reopen cycles.
    #[test]
    fn agent_matches_in_memory_model(ops in proptest::collection::vec(agent_op(), 1..40)) {
        let agent = ConcurrentAgent::format(
            MemDevice::new(1024, BLOCK_SIZE),
            StegFsConfig::default().with_block_size(BLOCK_SIZE).without_fill(),
            AgentConfig::default(),
            Key256::from_passphrase("prop agent"),
            7,
            4,
        ).unwrap();
        let user = Key256::from_passphrase("prop user");
        let per = agent.fs().content_bytes_per_block();
        let file_blocks = 8u64;
        let mut model: Vec<Vec<u8>> = (0..file_blocks)
            .map(|i| vec![i as u8; per])
            .collect();
        let mut id = agent
            .create_file(&user, "/prop", &model.concat())
            .unwrap();

        for op in ops {
            match op {
                AgentOp::Update { block, fill } => {
                    let block = block as u64 % file_blocks;
                    let payload = vec![fill; per];
                    agent.update_block(id, block, &payload).unwrap();
                    model[block as usize] = payload;
                }
                AgentOp::DummyUpdates { count } => {
                    agent.dummy_update_batch(count as usize).unwrap();
                }
                AgentOp::SaveAndReopen => {
                    agent.close_file(id).unwrap();
                    id = agent.open_file(&user, "/prop").unwrap();
                }
            }
            prop_assert_eq!(agent.read_file(id).unwrap(), model.concat());
        }
    }

    /// The oblivious store behaves like a hash map under arbitrary interleaved
    /// reads and overwrites, regardless of buffer flushes and level cascades.
    #[test]
    fn oblivious_store_matches_hash_map(
        ops in proptest::collection::vec((0u64..24, any::<u8>(), any::<bool>()), 1..120),
        buffer in 2u64..6,
    ) {
        let block = 256usize;
        let cfg = ObliviousConfig::new(buffer, 64);
        let store = ObliviousStore::new(
            MemDevice::new(
                ObliviousStore::<MemDevice, MemDevice>::blocks_required(&cfg, block),
                block,
            ),
            MemDevice::new(
                ObliviousStore::<MemDevice, MemDevice>::sort_blocks_required(&cfg) + 8,
                ObliviousStore::<MemDevice, MemDevice>::sort_block_size_for(block),
            ),
            cfg,
            Key256::from_passphrase("prop store"),
            11,
            None,
        ).unwrap();
        let mut model = std::collections::HashMap::new();

        for (id, fill, is_write) in ops {
            if is_write || !model.contains_key(&id) {
                let value = vec![fill; 64 + (id as usize % 32)];
                store.write(id, value.clone()).unwrap();
                model.insert(id, value);
            } else {
                prop_assert_eq!(&store.read(id).unwrap(), model.get(&id).unwrap());
            }
        }
        for (id, value) in &model {
            prop_assert_eq!(&store.read(*id).unwrap(), value);
        }
    }

    /// Whatever a user hides with one FAK comes back bit-exact with the same
    /// FAK and stays invisible under any other FAK.
    #[test]
    fn hidden_files_roundtrip_and_stay_hidden(
        content in proptest::collection::vec(any::<u8>(), 0..4000),
        pass_a in "[a-z]{4,12}",
        pass_b in "[a-z]{4,12}",
    ) {
        prop_assume!(pass_a != pass_b);
        let (fs, map) = StegFs::format(
            MemDevice::new(512, BLOCK_SIZE),
            StegFsConfig::default().with_block_size(BLOCK_SIZE).without_fill(),
            3,
        ).unwrap();
        let fak_a = FileAccessKey::from_passphrase(&pass_a);
        let fak_b = FileAccessKey::from_passphrase(&pass_b);
        fs.create_file(&map, "/doc", &fak_a, &content).unwrap();

        let reopened = fs.open_file(&fak_a, "/doc").unwrap();
        prop_assert_eq!(fs.read_file(&reopened).unwrap(), content);
        prop_assert!(fs.open_file(&fak_b, "/doc").is_err());
    }
}
