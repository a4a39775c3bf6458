//! Mutate-and-decode: every on-disk decoder against hostile bytes.
//!
//! Every persistent structure lives on a volume the attacker can write
//! (Section 3.2), so each decoder registers one valid encoding in the table
//! below and the suite feeds it every truncation, byte flips and `0xff` runs
//! at every offset (what turns a length or count field hostile), splices of
//! two valid encodings and — for the self-authenticating frames — absurd
//! bodies *re-tagged under the right key*, which is what an insider or a key
//! leak can present. A decoder may refuse (typed error or `None`) or decode;
//! it may never panic, and what it decodes may never hold more elements than
//! the input had bytes: a declared count is checked against the bytes that
//! back it before anything is allocated for it (`wire::Reader::count`).
//!
//! Run in debug *and* `--release`: overflow checks differ, which is how an
//! overflowing size product once hid in a since-retired registry decoder.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use stegfs_repro::blockdev::MemDevice;
use stegfs_repro::crypto::{HmacSha256, Key256};
use stegfs_repro::oblivious::{decode_item, encode_item_into, SortRecord};
use stegfs_repro::resilience::{
    decode_records, encode_records, BlockCheck, BlockWriteIntent, IntentBody, IntentRecord,
    ParityEntry, ParityIntent, ResilientStore, StripeConfig, StripeMap, VolumeAnchor,
};
use stegfs_repro::stegfs::header::HeaderCaps;
use stegfs_repro::stegfs::wire::{Writer, TAG_LEN};
use stegfs_repro::stegfs::{
    BlockClass, FileAccessKey, FileHeader, FileKind, ShardedBlockMap, Superblock,
};

/// `Some(n)`: decoded, holding `n` elements (entries, pointers, payload
/// bytes). `None`: refused with a typed error or "nothing here".
type Outcome = Option<usize>;
type Decode = Box<dyn Fn(&[u8]) -> Outcome>;
/// Tags a frame's body under the right key.
type Retag = Box<dyn Fn(&[u8]) -> Vec<u8>>;

struct Case {
    name: &'static str,
    /// One valid, non-trivial encoding.
    valid: Vec<u8>,
    decode: Decode,
    /// For a self-authenticating frame: its tag length and tagger.
    frame: Option<(usize, Retag)>,
}

fn mac() -> HmacSha256 {
    HmacSha256::new(Key256::from_passphrase("hostile suite").as_bytes())
}

/// `body ‖ HMAC₁₆(body)` — the frame `wire::Writer::finish_tagged` closes.
fn tag16(body: &[u8]) -> Vec<u8> {
    Writer::new().bytes(body).finish_tagged(&mac())
}

fn check(salt: u8) -> BlockCheck {
    BlockCheck {
        fast: 0x0101_0101_0101_0101 * salt as u64,
        mac: [salt; 16],
    }
}

fn cases() -> Vec<Case> {
    let mut cases: Vec<Case> = Vec::new();
    let mut plain = |name, valid: Vec<u8>, decode: Decode| {
        cases.push(Case {
            name,
            valid,
            decode,
            frame: None,
        })
    };

    // ----- stegfs_base ---------------------------------------------------
    let caps = HeaderCaps::for_data_field(496);
    let blocks: Vec<u64> = (0..caps.direct as u64 + caps.ptrs_per_indirect as u64 + 5).collect();
    let header = FileHeader::new(FileKind::Data, 12_345, [7; 16], blocks);
    let (payload, indirect) = header.encode(&caps, 496, &[900, 901]).unwrap();
    let indirect = indirect[0].clone();
    plain(
        "file header",
        payload,
        Box::new(move |bytes| {
            let (mut header, locs) = FileHeader::decode_prefix(bytes, &caps).ok()?;
            // An indirect block is as hostile as the header naming it.
            header.absorb_indirect(&bytes[..bytes.len().min(indirect.len())], &caps);
            header.absorb_indirect(&indirect, &caps);
            Some(header.blocks.len() + locs.len())
        }),
    );

    let mut block0 = vec![0u8; 64];
    Superblock::new(4096, 1 << 20, [9; 16]).encode_into(&mut block0);
    plain(
        "superblock",
        block0,
        Box::new(|bytes| Superblock::decode(bytes).ok().map(|_| 1)),
    );

    plain(
        "file access key",
        FileAccessKey::from_passphrase("k").to_bytes().to_vec(),
        Box::new(|bytes| FileAccessKey::from_bytes(bytes).map(|_| 1)),
    );

    let map = ShardedBlockMap::new_all_dummy(203, 4);
    map.set(17, BlockClass::Data);
    plain(
        "block map",
        map.to_bytes(),
        // Four blocks to a byte.
        Box::new(|bytes| ShardedBlockMap::from_bytes(bytes).map(|m| m.num_blocks() as usize / 4)),
    );

    // ----- stegfs_resilience: unauthenticated bodies ----------------------
    let mut records = BTreeMap::new();
    records.insert("alice".to_string(), vec![1; 40]);
    records.insert("bob".to_string(), vec![]);
    plain(
        "registry records",
        encode_records(&records),
        Box::new(|bytes| {
            let records = decode_records(bytes).ok()?;
            Some(records.iter().map(|(k, v)| k.len() + v.len()).sum())
        }),
    );

    let mut stripes = StripeMap::new(StripeConfig::new(4, 2), 9);
    stripes.set_data_check(3, check(3));
    let location = 77;
    stripes.set_parity_entry(
        1,
        1,
        ParityEntry {
            location,
            check: check(5),
        },
    );
    plain(
        "stripe map",
        stripes.encode(),
        Box::new(|bytes| {
            let map = StripeMap::decode(bytes).ok()?;
            Some(map.num_data() as usize + map.parity_locations().len())
        }),
    );

    type Store = ResilientStore<MemDevice>;
    let payload_plain = {
        let mut w = Writer::new();
        w.u16(3).u64(11).u64(12).u64(13).u32(2);
        for path in ["/a", "/b/c"] {
            w.str16(path)
                .bytes(&FileAccessKey::from_passphrase(path).to_bytes());
        }
        w.finish()
    };
    plain(
        "anchor payload",
        payload_plain.clone(),
        Box::new(|bytes| {
            let (slots, files) = Store::parse_payload(bytes).ok()?;
            Some(slots.len() + files.len())
        }),
    );
    let payload_key = Key256::from_passphrase("payload key");
    plain(
        "sealed anchor payload",
        {
            // IV ‖ plain_len ‖ CBC(padded); any ciphertext will do here.
            let mut w = Writer::new();
            w.bytes(&[0x42; 16])
                .u32(payload_plain.len() as u32)
                .bytes(&payload_plain)
                .skip_to(20 + payload_plain.len().div_ceil(16) * 16);
            w.finish()
        },
        Box::new(move |bytes| {
            Store::open_payload_with(&payload_key, bytes)
                .ok()
                .map(|p| p.len())
        }),
    );

    // ----- stegfs_oblivious: unauthenticated bodies -----------------------
    let mut sort_block = vec![0u8; 128];
    let record = SortRecord {
        key: 5,
        id: 6,
        payload: &[0xc3; 60],
    };
    record.encode_into(&mut sort_block).unwrap();
    plain(
        "sort record",
        sort_block,
        // The merge reads records through this borrowed view, straight out
        // of the look-ahead buffer a ranged read filled.
        Box::new(|bytes| Some(SortRecord::view(bytes).ok()?.payload.len())),
    );

    let mut field = vec![0u8; 112];
    encode_item_into(&mut field, 99, &[0x3c; 70]);
    plain(
        "level item",
        field,
        Box::new(|bytes| decode_item(bytes).ok().map(|(_, payload)| payload.len())),
    );

    // ----- self-authenticating frames -------------------------------------
    let mut framed = |name, valid: Vec<u8>, decode: Decode| {
        cases.push(Case {
            name,
            valid,
            decode,
            frame: Some((TAG_LEN, Box::new(tag16))),
        })
    };

    let batch = IntentRecord {
        op_id: 42,
        path: "/db/main".to_string(),
        body: IntentBody::WriteBatch {
            entries: (0..3u8)
                .map(|i| BlockWriteIntent {
                    index: i as u64,
                    data_location: 300 + i as u64,
                    data_pre: check(i),
                    data_post: check(i + 10),
                    parity: (0..2)
                        .map(|row| ParityIntent {
                            location: 500 + row,
                            pre: check(20 + i),
                            post: check(30 + i),
                        })
                        .collect(),
                })
                .collect(),
        },
    };
    let decode_intent = |bytes: &[u8]| {
        let record = IntentRecord::decode(bytes, &mac())?;
        Some(match record.body {
            IntentBody::WriteBatch { entries } => {
                entries.iter().map(|e| 1 + e.parity.len()).sum::<usize>() + record.path.len()
            }
            _ => record.path.len(),
        })
    };
    framed(
        "write-batch intent",
        batch.encode(&mac()),
        Box::new(decode_intent),
    );
    // The anchor replica keeps its own frame: a 32-byte HMAC over the
    // content *and the slot index*, behind a length-prefixed payload.
    let anchor_key = Key256::from_passphrase("anchor key");
    let anchor = VolumeAnchor {
        superblock: Superblock::new(256, 64, [7; 16]),
        generation: 5,
        payload: vec![0xab; 100],
    };
    let replica = anchor.encode_replica(256, 1, &anchor_key).unwrap();
    let content_len = 40 + 8 + 8 + 4 + 100;
    cases.push(Case {
        name: "anchor replica",
        valid: replica[..content_len + 32].to_vec(),
        decode: Box::new(move |bytes| {
            let anchor = VolumeAnchor::decode_replica(bytes, 1, &anchor_key).ok()?;
            Some(anchor.payload.len())
        }),
        frame: Some((
            32,
            Box::new(move |content| {
                let mut mac = HmacSha256::new(anchor_key.as_bytes());
                mac.update(content);
                mac.update(&[1]);
                [content, &mac.finalize()[..]].concat()
            }),
        )),
    });

    cases
}

/// Decode `input`, requiring a refusal or a decode no larger than its input.
fn feed(case: &Case, input: &[u8], what: &dyn Fn() -> String) -> Outcome {
    let outcome = catch_unwind(AssertUnwindSafe(|| (case.decode)(input)))
        .unwrap_or_else(|_| panic!("{}: decoder panicked on {}", case.name, what()));
    if let Some(elements) = outcome {
        assert!(
            elements <= input.len().max(case.valid.len()),
            "{}: {elements} elements decoded from {} bytes ({})",
            case.name,
            input.len(),
            what()
        );
    }
    outcome
}

/// Byte flips and `0xff` runs of every width at every offset of `bytes`.
fn mutations(bytes: &[u8]) -> impl Iterator<Item = (String, Vec<u8>)> + '_ {
    (0..bytes.len()).flat_map(move |at| {
        let flips = [0x01u8, 0x80].into_iter().map(move |mask| {
            let mut out = bytes.to_vec();
            out[at] ^= mask;
            (format!("flip {mask:#04x} at {at}"), out)
        });
        let runs = [1usize, 2, 4, 8].into_iter().map(move |width| {
            let mut out = bytes.to_vec();
            let end = (at + width).min(out.len());
            out[at..end].fill(0xff);
            (format!("{width}-byte 0xff run at {at}"), out)
        });
        flips.chain(runs)
    })
}

#[test]
fn valid_encodings_decode() {
    for case in cases() {
        let decoded = feed(&case, &case.valid, &|| "its valid encoding".to_string());
        assert!(decoded.is_some(), "{}: valid encoding refused", case.name);
        if let Some((tag_len, retag)) = &case.frame {
            let body = &case.valid[..case.valid.len() - tag_len];
            assert_eq!(retag(body), case.valid, "{}: re-tag helper", case.name);
        }
    }
}

#[test]
fn truncations_never_panic() {
    for case in cases() {
        for cut in 0..case.valid.len() {
            feed(&case, &case.valid[..cut], &|| format!("cut at {cut}"));
        }
    }
}

#[test]
fn flips_and_hostile_runs_never_panic() {
    for case in cases() {
        for (what, input) in mutations(&case.valid) {
            let outcome = feed(&case, &input, &|| what.clone());
            if case.frame.is_some() && input != case.valid {
                assert_eq!(outcome, None, "{}: accepted after {what}", case.name);
            }
        }
    }
}

#[test]
fn splices_of_two_valid_encodings_never_panic() {
    let cases = cases();
    for head in &cases {
        for tail in &cases {
            for i in (0..=head.valid.len()).step_by(head.valid.len().div_ceil(12)) {
                for j in (0..=tail.valid.len()).step_by(tail.valid.len().div_ceil(12)) {
                    let input = [&head.valid[..i], &tail.valid[j..]].concat();
                    let what = || format!("{}[..{i}] ‖ {}[{j}..]", head.name, tail.name);
                    feed(head, &input, &what);
                    feed(tail, &input, &what);
                }
            }
        }
    }
}

/// Validly-MACed-but-semantically-absurd: mutate the body, then tag it under
/// the right key, so the frame check passes and the fields behind it are the
/// only defence.
#[test]
fn retagged_absurd_bodies_never_panic() {
    for case in cases() {
        let Some((tag_len, retag)) = &case.frame else {
            continue;
        };
        let body = &case.valid[..case.valid.len() - tag_len];
        for cut in 0..body.len() {
            feed(&case, &retag(&body[..cut]), &|| {
                format!("re-tagged body cut at {cut}")
            });
        }
        for (what, absurd) in mutations(body) {
            feed(&case, &retag(&absurd), &|| format!("re-tagged {what}"));
        }
    }
}

/// An authentic record of intent kind 4 — the retired registry checkpoint,
/// which a volume written before the registry became an ordinary file can
/// still hold in a journal slot — is no intent, not a panic.
#[test]
fn retired_intent_kind_decodes_to_no_intent() {
    let retired = Writer::new()
        .bytes(b"SJINT\x01\0\0")
        .u64(43)
        .u8(4)
        .str16("/.registry")
        .u32(3)
        .u64(9)
        .finish_tagged(&mac());
    let case = Case {
        name: "retired intent kind",
        valid: retired.clone(),
        decode: Box::new(|bytes| IntentRecord::decode(bytes, &mac()).map(|_| 1)),
        frame: None,
    };
    assert_eq!(feed(&case, &retired, &|| "kind 4".to_string()), None);
}

/// An anchor that authenticates — written by someone holding the master key,
/// or left by a build that still had an un-journaled mode — whose journal
/// slot list is empty or of odd length. There is no un-journaled write path
/// any more, so the empty list is refused with a typed error; the odd list
/// (a trailing slot with no mirror) opens, and recovery still finds every
/// intent that was in flight.
#[test]
fn anchor_with_an_empty_or_odd_journal_slot_list_never_skips_an_intent() {
    use stegfs_repro::blockdev::clone_to_mem;
    use stegfs_repro::crypto::{Aes256, CbcCipher};
    use stegfs_repro::resilience::{IntentJournal, ResilienceConfig, ResilienceError};
    use stegfs_repro::stegfs::StegFsConfig;

    let master = Key256::from_passphrase("hostile anchor");
    let cfg = ResilienceConfig::default().with_fs(StegFsConfig::default().with_block_size(512));
    let store = ResilientStore::format(MemDevice::new(512, 512), cfg, &master, 3).unwrap();
    store.create_file("/a", &[0x5a; 700]).unwrap();
    // One live intent in every logical slot, as a volume written by a build
    // that spread in-flight intents over the pool may hold: each sealed
    // through a journal over that slot's pair alone.
    let slots = store.journal_slots();
    assert_eq!(slots.len(), 8);
    for (f, pair) in slots.chunks(2).enumerate() {
        IntentJournal::new(&master, pair.to_vec())
            .begin(store.fs(), &format!("/ghost{f}"), IntentBody::Create)
            .unwrap();
    }
    let image = store.into_device();

    // Re-issue the volume's own anchor, one generation on, naming only the
    // first `keep` slot blocks.
    let anchor_key = master.derive("resilience:anchor");
    let payload_key = master.derive("resilience:payload");
    let with_slots = |keep: usize| {
        let device = clone_to_mem(&image).unwrap();
        let (mut anchor, _) = VolumeAnchor::read_quorum(&device, &anchor_key).unwrap();
        let plain =
            ResilientStore::<MemDevice>::open_payload_with(&payload_key, &anchor.payload).unwrap();
        let mut w = Writer::new();
        w.u16(keep as u16)
            .bytes(&plain[2..2 + 8 * keep])
            .bytes(&plain[2 + 8 * slots.len()..]);
        let plain = w.finish();
        let mut padded = plain.clone();
        padded.resize(plain.len().div_ceil(16) * 16, 0);
        let iv = [0x24; 16];
        CbcCipher::new(Aes256::new(payload_key.as_bytes()))
            .encrypt_in_place(&iv, &mut padded)
            .unwrap();
        let mut w = Writer::new();
        w.bytes(&iv).u32(plain.len() as u32).bytes(&padded);
        anchor.payload = w.finish();
        anchor.generation += 1;
        anchor.write_replicas(&device, &anchor_key).unwrap();
        device
    };

    assert!(matches!(
        ResilientStore::open(with_slots(0), cfg, &master, 4),
        Err(ResilienceError::NoJournal)
    ));

    let odd = ResilientStore::open(with_slots(7), cfg, &master, 4).unwrap();
    assert_eq!(odd.journal_slots(), slots[..7]);
    assert_eq!(odd.last_recovery().intents_found, 4);
    assert_eq!(odd.read_file("/a").unwrap(), [0x5a; 700]);
    odd.create_file("/b", &[1; 100]).unwrap();
    assert_eq!(odd.stats().intents_journaled, 1);
}
