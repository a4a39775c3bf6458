//! Whole-device images after a scripted, fixed-seed sequence that writes
//! every on-disk format, pinned by SHA-256.
//!
//! The hashes were taken from the build *before* the codecs moved onto
//! `stegfs_base::wire`; they hold only while every format stays bit-identical
//! — same magics, field order, widths, padding, MAC coverage and tag length —
//! and the DRBG is consumed in the same order. The oblivious store's request
//! sequence on both of its partitions is pinned the same way, and so are a
//! session of each StegHide construction.
//!
//! Every volume formatted through `StegFs::format` carries the format fill,
//! so its pins were taken again from the first build that sealed the fill
//! (zeros under a one-time key, written as ranged requests) instead of
//! drawing it from a linear generator one block at a time. The two builds
//! agree on the two logged agent sessions everywhere else: every request
//! after the fill is the same, and a block differs only where no request
//! after the format wrote it or where a dummy update resealed fill bytes.
//!
//! The four pins of volumes whose blocks the `BlockCodec` sealed — the
//! durable volume, the registry volume and the two construction sessions —
//! were taken again when the codec cut every StegFS block's data field into
//! eight CBC lanes seeded from the one stored IV: the same IVs, requests and
//! draws, so every request-log pin held, but other ciphertext bytes. The
//! format and file-lifecycle images hold no codec-sealed block once the
//! script ends (the fill is sealed under a one-time key as one chain, and a
//! deleted file's blocks are refilled with noise), and the oblivious slots
//! keep one chain, so those pins did not move.

use std::sync::{Arc, Mutex};

use stegfs_repro::blockdev::{BlockDevice, BlockId, DeviceError, MemDevice};
use stegfs_repro::oblivious::{ObliviousConfig, ObliviousStore};
use stegfs_repro::prelude::*;

fn sha256_hex(bytes: &[u8]) -> String {
    let mut hasher = Sha256::new();
    hasher.update(bytes);
    hasher
        .finalize()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

fn image_sha256(device: &MemDevice) -> String {
    let mut image = vec![0u8; device.num_blocks() as usize * device.block_size()];
    device.read_blocks(0, &mut image).unwrap();
    sha256_hex(&image)
}

/// A device that appends every request it serves — `name`, `r` or `w`, first
/// block and block count as little-endian `u64`s, a ranged request as one
/// entry — to a log it can share with another device.
struct Watched {
    inner: Arc<MemDevice>,
    name: u8,
    log: Arc<Mutex<Vec<u8>>>,
}

impl Watched {
    fn note(&self, kind: u8, start: BlockId, bytes: usize) {
        let blocks = (bytes / self.inner.block_size()) as u64;
        let mut log = self.log.lock().unwrap();
        log.extend([self.name, kind]);
        log.extend(start.to_le_bytes());
        log.extend(blocks.to_le_bytes());
    }
}

impl BlockDevice for Watched {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }
    fn read_block(&self, block: BlockId, buf: &mut [u8]) -> Result<(), DeviceError> {
        self.note(b'r', block, buf.len());
        self.inner.read_block(block, buf)
    }
    fn write_block(&self, block: BlockId, buf: &[u8]) -> Result<(), DeviceError> {
        self.note(b'w', block, buf.len());
        self.inner.write_block(block, buf)
    }
    fn read_blocks(&self, start: BlockId, buf: &mut [u8]) -> Result<(), DeviceError> {
        self.note(b'r', start, buf.len());
        self.inner.read_blocks(start, buf)
    }
    fn write_blocks(&self, start: BlockId, buf: &[u8]) -> Result<(), DeviceError> {
        self.note(b'w', start, buf.len());
        self.inner.write_blocks(start, buf)
    }
}

fn content(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8 ^ salt).collect()
}

/// Superblock, anchor replicas and payload, create / write-batch journal
/// records, file headers with indirect blocks and stripe maps — on one
/// durable volume.
fn durable_volume() -> (Arc<MemDevice>, ResilientStore<Arc<MemDevice>>) {
    let device = Arc::new(MemDevice::new(2048, 512));
    let cfg = ResilienceConfig::default()
        .with_fs(StegFsConfig::default().with_block_size(512))
        .with_stripe(4, 2);
    let master = Key256::from_passphrase("wire image owner");
    let store = ResilientStore::format(Arc::clone(&device), cfg, &master, 41).unwrap();

    // 60 content blocks: more than a 512-byte header's direct pointers.
    store.create_file("/big", &content(60 * 496, 0)).unwrap();
    store.create_file("/small", &content(1300, 0x5a)).unwrap();
    store.write_block("/big", 7, &content(496, 0xc3)).unwrap();
    store.write_file("/small", &content(1300, 0xa5)).unwrap();
    (device, store)
}

/// The hash the first build with laned blocks gave (f71a6c…cad2 with one
/// chain a block; before the sealed format fill 7e5453…f728, as in the
/// build before the hidden-directory format was deleted, for this script
/// with the directory's lines taken out).
#[test]
fn durable_volume_image_is_pinned() {
    let (device, _store) = durable_volume();
    assert_eq!(
        image_sha256(&device),
        "b7d3d8b3763b92e61faf6cebdbb939a7e746217605bce3b01532ac89c0e948f9"
    );
}

/// [`durable_volume`] plus a registry: a hidden file of zeroed one-block
/// shards, then records checkpointed into it through the write plan. Pinned
/// the same way (3a4fc7…be3a with one chain a block, 62f05d…4570 before the
/// sealed fill).
#[test]
fn registry_volume_image_is_pinned() {
    let (device, store) = durable_volume();
    let mut registry = Registry::create(&store, 4, 4).unwrap();
    for i in 0..24u8 {
        registry
            .put(&format!("user-{i}"), &content(8 + i as usize, i))
            .unwrap();
    }
    registry.checkpoint().unwrap();
    assert_eq!(
        image_sha256(&device),
        "aacf09ba56fd8d7d31d2d345b3dbb59c586f122ed899545219c21c3eb87e6012"
    );
}

/// A bare substrate volume through two files' lives: a data file created
/// and a dummy file created with random content, then both deleted — the
/// random fill of a dummy file's content and the refill of every released
/// block, drawn from the volume DRBG. Pinned the same way (1585966…db19
/// before the sealed fill, as in the build before both fills went through
/// `StegFs::randomize_block`).
#[test]
fn substrate_file_lifecycle_image_is_pinned() {
    let device = Arc::new(MemDevice::new(512, 512));
    let cfg = StegFsConfig::default().with_block_size(512);
    let (fs, map) = StegFs::format(Arc::clone(&device), cfg, 44).unwrap();
    let data_fak = FileAccessKey::from_passphrase("wire image data");
    let data = fs
        .create_file(&map, "/data", &data_fak, &content(3000, 0x3c))
        .unwrap();
    let dummy_fak = FileAccessKey::from_passphrase("wire image dummy").without_content_key();
    let dummy = fs.create_dummy_file(&map, "/dummy", &dummy_fak, 5).unwrap();
    fs.delete_file(&map, data).unwrap();
    fs.delete_file(&map, dummy).unwrap();
    assert_eq!(
        image_sha256(&device),
        "4a0d6e11759aaee18eb9ece2fb3ad25e4a8e446a913ed82db1214f786efc8b7c"
    );
}

/// A fresh memory device behind a request log of its own.
fn watched_device(blocks: u64) -> (Arc<MemDevice>, Watched) {
    let device = Arc::new(MemDevice::new(blocks, 512));
    let watched = Watched {
        inner: Arc::clone(&device),
        name: b'A',
        log: Arc::new(Mutex::new(Vec::new())),
    };
    (device, watched)
}

/// A bare substrate volume straight after `format`: the superblock, the
/// format fill (every payload block zeros sealed under a one-time key) and
/// the requests that wrote them, one ranged write per fill chunk in
/// ascending order, the last chunk short. The fill depends on the seed and
/// the geometry alone — not on how many workers sealed it, nor on the cipher
/// backend — so both pins hold on every machine and every backend.
#[test]
fn substrate_format_image_is_pinned() {
    let (device, watched) = watched_device(1500);
    let log = Arc::clone(&watched.log);
    StegFs::format(watched, StegFsConfig::default().with_block_size(512), 48).unwrap();
    assert_eq!(
        image_sha256(&device),
        "233f2c91d0478bef427ac384e8f9e5100bae02bf7c929e6bff6e500c1c6acb60"
    );
    assert_eq!(
        sha256_hex(&log.lock().unwrap()),
        "c670423785e1073c52dad8d9b963b99b328bd46bc643c0ef8f0519a2a4325681"
    );
}

/// One Construction 1 agent from format to file deletion, with no restart:
/// files created, a file closed and opened again (the construction's
/// login), relocating updates interleaved with dummy batches, a range
/// update, a file created mid-session, then flush, close and delete. Pinned
/// the same way: with one chain a block the image was 949ee4…3af5; before
/// the sealed fill the image was bb9d0b…657e and the request sequence
/// 1f2c59…bdbb, as in the build before the agent's per-file and per-block
/// state moved into one registry.
#[test]
fn construction1_session_is_pinned() {
    let (device, watched) = watched_device(512);
    let log = Arc::clone(&watched.log);
    let agent = ConcurrentAgent::format(
        watched,
        StegFsConfig::default().with_block_size(512),
        AgentConfig::default(),
        Key256::from_passphrase("wire image agent"),
        45,
        4,
    )
    .unwrap();
    let per = agent.fs().content_bytes_per_block();
    let (alice, bob) = (
        Key256::from_passphrase("wire image alice"),
        Key256::from_passphrase("wire image bob"),
    );
    let db = agent
        .create_file(&alice, "/alice/db", &content(6 * per, 1))
        .unwrap();
    let notes = agent
        .create_file(&bob, "/bob/notes", &content(3 * per, 2))
        .unwrap();
    agent.close_file(notes).unwrap();
    let notes = agent.open_file(&bob, "/bob/notes").unwrap();
    for i in 0..24u64 {
        agent
            .update_block(db, i % 6, &content(per, i as u8))
            .unwrap();
        if i % 4 == 0 {
            agent.dummy_update_batch(8).unwrap();
        }
    }
    agent.update_range_fill(notes, 0, 3, 0x77).unwrap();
    let late = agent
        .create_file(&alice, "/alice/late", &content(2 * per, 3))
        .unwrap();
    agent.update_block(late, 1, &content(per, 4)).unwrap();
    assert!(agent.stats().relocations > 0);
    agent.flush().unwrap();
    agent.close_file(db).unwrap();
    agent.delete_file(notes).unwrap();
    agent.close_file(late).unwrap();

    assert_eq!(
        image_sha256(&device),
        "ac913aed4ed24367d3955e4056291af33c8e9fb184e7b6379436b4ec564830a9"
    );
    assert_eq!(
        sha256_hex(&log.lock().unwrap()),
        "cd67fe578fc219be28144b267d2381c2317bc2baa9a548027a697438355d0599"
    );
}

/// One Construction 2 session on a volume provisioned on the substrate: two
/// users' data and dummy files created through `StegFs`, the agent mounted
/// with zero knowledge, both users logged in, relocating updates (each a
/// swap with a disclosed dummy file's block) interleaved with dummy batches,
/// a file created from the disclosed dummy files' blocks, then both logouts.
/// Pinned the same way as [`construction1_session_is_pinned`] (image
/// 5607a0…91f8 with one chain a block; 4e808c…4d1b and a300aa…292f before
/// the sealed fill).
#[test]
fn construction2_session_is_pinned() {
    let (device, watched) = watched_device(1024);
    let log = Arc::clone(&watched.log);
    let (fs, map) =
        StegFs::format(watched, StegFsConfig::default().with_block_size(512), 46).unwrap();
    let per = fs.content_bytes_per_block();
    let credentials = |user: &str| {
        vec![
            UserCredential::new(
                format!("/{user}/data"),
                FileAccessKey::from_passphrase(&format!("wire image {user} data")),
            ),
            UserCredential::new(
                format!("/{user}/dummy"),
                FileAccessKey::from_passphrase(&format!("wire image {user} dummy"))
                    .without_content_key(),
            ),
        ]
    };
    for (salt, user) in ["alice", "bob"].into_iter().enumerate() {
        let creds = credentials(user);
        fs.create_file(
            &map,
            &creds[0].path,
            &creds[0].fak,
            &content(6 * per, salt as u8),
        )
        .unwrap();
        fs.create_dummy_file(&map, &creds[1].path, &creds[1].fak, 12)
            .unwrap();
    }
    let agent =
        ConcurrentVolatileAgent::mount(fs.into_device(), AgentConfig::default(), 47, 4).unwrap();
    let alice = agent.login("alice", &credentials("alice")).unwrap();
    let bob = agent.login("bob", &credentials("bob")).unwrap();
    let (data, bob_data) = (
        agent.session_files(alice).unwrap()[0],
        agent.session_files(bob).unwrap()[0],
    );
    for i in 0..24u64 {
        agent
            .update_block(alice, data, i % 6, &content(per, i as u8))
            .unwrap();
        if i % 4 == 0 {
            agent.dummy_update_batch(8).unwrap();
        }
    }
    agent.update_range_fill(bob, bob_data, 2, 3, 0x66).unwrap();
    // The dummy files' blocks just before the creation, read from headers
    // the agent has saved, through a mount the request log does not see.
    agent.flush().unwrap();
    let substrate = StegFs::mount(Arc::clone(&device), 0).unwrap();
    let dummy_blocks: Vec<u64> = ["alice", "bob"]
        .into_iter()
        .flat_map(|user| {
            let dummy = &credentials(user)[1];
            substrate
                .open_file(&dummy.fak, &dummy.path)
                .unwrap()
                .header
                .blocks
        })
        .collect();
    let notes_fak = FileAccessKey::from_passphrase("wire image alice notes");
    let notes = agent
        .create_file_from_dummies(alice, "/alice/notes", &notes_fak, &content(2 * per, 5))
        .unwrap();
    let notes_blocks = substrate
        .open_file(&notes_fak, "/alice/notes")
        .unwrap()
        .header
        .blocks;
    assert!(
        notes_blocks.iter().all(|b| dummy_blocks.contains(b)),
        "/alice/notes took {notes_blocks:?}, the dummy files held {dummy_blocks:?}"
    );
    agent
        .update_block(alice, notes, 0, &content(per, 6))
        .unwrap();
    agent.dummy_update_batch(16).unwrap();
    assert!(agent.stats().relocations > 0);
    agent.logout(alice).unwrap();
    agent.logout(bob).unwrap();

    assert_eq!(
        image_sha256(&device),
        "2249cd3750b6fd148b9bfb97931bb130bf7b99d76661ffe9d70a4a35ab7a40e4"
    );
    assert_eq!(
        sha256_hex(&log.lock().unwrap()),
        "8f46547877d61f9526e1e8f962522aa7201cd00ee3184ab93972cfcc33456027"
    );
}

/// The entries of a [`Watched`] log that the main partition (`L`) served.
fn main_only(log: &[u8]) -> Vec<u8> {
    log.chunks_exact(18)
        .filter(|entry| entry[0] == b'L')
        .flatten()
        .copied()
        .collect()
}

/// Level items and index regions on the main partition; spilled sort
/// records on the sort partition; and the requests that put them there, as
/// an observer of both partitions sees them. The store keeps no record of
/// its own beside the levels. The main-partition part of both request logs
/// was taken from the last build that could persist a write-epoch record,
/// with that record off, so no main-partition request moved when it went,
/// nor when the sort stopped spilling its last batch, nor when the index
/// regions stopped holding `(hash, slot)` entries. The sort image and the
/// two whole logs were taken from the first build that kept that batch in
/// memory; the main-partition image from the first build whose index
/// regions hold noise under each level's epoch key. All but the first
/// main-partition pin were taken again when every index probe became a DRBG
/// draw and the per-epoch index nonce went: without the nonce draws the IVs
/// and sort keys move, and with them the refill order of the sorted runs,
/// both images and every probe position, while the maintenance requests on
/// the main partition stay where they were.
#[test]
fn oblivious_store_images_are_pinned() {
    type Store = ObliviousStore<Watched, Watched>;
    let cfg = ObliviousConfig::new(4, 64);
    let device = Arc::new(MemDevice::new(Store::blocks_required(&cfg, 512), 512));
    let sort_device = Arc::new(MemDevice::new(
        Store::sort_blocks_required(&cfg) + 8,
        Store::sort_block_size_for(512),
    ));
    let log = Arc::new(Mutex::new(Vec::new()));
    let watched = |inner: &Arc<MemDevice>, name| Watched {
        inner: Arc::clone(inner),
        name,
        log: Arc::clone(&log),
    };
    let store = Store::new(
        watched(&device, b'L'),
        watched(&sort_device, b'S'),
        cfg,
        Key256::from_passphrase("wire image oblivious"),
        43,
        None,
    )
    .unwrap();
    // Enough inserts to flush the buffer, merge level 1 down and spill
    // sorted runs to the sort partition.
    for id in 0..40u64 {
        store.insert(id, content(200, id as u8)).unwrap();
    }
    assert!(store.stats().reorders > 0, "no flush ran");
    // Every flush cascade lies behind: the request sequence of the whole
    // maintenance path, and the part of it the main partition serves.
    assert_eq!(
        sha256_hex(&log.lock().unwrap()),
        "ae9c5d352b10764a247bc9637155cbec273b187a8a0dab1bc4af804d56a357c4"
    );
    assert_eq!(
        sha256_hex(&main_only(&log.lock().unwrap())),
        "605a2bff2598b683d495445eab415c494964e6b6e43427660d967bdd644400bc"
    );
    for id in [0u64, 17, 39] {
        assert_eq!(store.read(id).unwrap(), content(200, id as u8));
    }
    // ... and with three level scans behind them, each a DRBG-drawn index
    // block in every level and then every level's data slot: every dummy
    // data slot is drawn from the level's occupied prefix, and a one-block
    // index region or a one-slot prefix consumes no draw.
    assert_eq!(
        sha256_hex(&log.lock().unwrap()),
        "e4fdf63ff3396bac06286c36d6f272e8256fa0280ef2b549ad755492fa9d5a19"
    );
    assert_eq!(
        sha256_hex(&main_only(&log.lock().unwrap())),
        "e53e7a181a8b9192fbde718cd462abdc163634cafee3a3fea73a34e7a4920998"
    );

    assert_eq!(
        image_sha256(&device),
        "ecaf5252e1cf4c79c8df9b5c3cd1ee6373c71490d3a3fedbd4fc7bfeb1130553"
    );
    let sort_image = image_sha256(&sort_device);
    let untouched = MemDevice::new(sort_device.num_blocks(), sort_device.block_size());
    assert_ne!(sort_image, image_sha256(&untouched), "no run was spilled");
    assert_eq!(
        sort_image,
        "c4c8d6a548573ad1777b2d3cb7658f54cfd229b8e3c1f0025270ee05c1b83c56"
    );
}
