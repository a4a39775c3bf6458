//! External merge sort over a sort partition.
//!
//! Re-ordering a level of the oblivious storage means rewriting it in a fresh
//! random permutation without ever holding more than the agent's buffer in
//! memory. The paper does this with an external merge sort over a dedicated
//! sort partition ("we use another 1 GBytes partition as sorting space",
//! Section 6.3); the random permutation comes from sorting records by a
//! random key.
//!
//! The sort is the reason the oblivious storage's large I/O count translates
//! into a modest time overhead: run formation and the final merge output are
//! sequential sweeps, which the disk model (like the paper's physical disk)
//! services at transfer speed rather than seek speed — the effect measured in
//! Figure 12(b).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use stegfs_base::wire::{Reader, Writer};
use stegfs_blockdev::BlockDevice;

use crate::error::ObliviousError;
use crate::level::IO_BATCH_BLOCKS;

/// One record flowing through the sorter: a random sort key, the logical
/// block id and the (opaque, typically encrypted) payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortRecord {
    /// Random sort key; the output permutation is the ascending key order.
    pub key: u64,
    /// Logical block id.
    pub id: u64,
    /// Opaque payload bytes.
    pub payload: Vec<u8>,
}

/// Fixed per-record header on the sort partition: key, id, payload length.
const RECORD_HEADER: usize = 8 + 8 + 4;

/// I/O counts produced by one sort.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SortIo {
    /// Blocks read from the sort partition.
    pub reads: u64,
    /// Blocks written to the sort partition.
    pub writes: u64,
}

/// External merge sorter writing its runs to a sort partition device.
pub struct ExternalSorter<D> {
    sort_device: D,
    /// Maximum number of records held in memory at once (the agent's buffer).
    memory_records: usize,
}

impl<D: BlockDevice> ExternalSorter<D> {
    /// Create a sorter over `sort_device` that keeps at most `memory_records`
    /// records in memory.
    pub fn new(sort_device: D, memory_records: usize) -> Self {
        assert!(memory_records >= 2, "need at least two records of memory");
        Self {
            sort_device,
            memory_records,
        }
    }

    /// The sort partition device.
    pub fn device(&self) -> &D {
        &self.sort_device
    }

    /// Records per run: [`Self::sort`] pulls exactly this many records from
    /// its input between one spill to the sort partition and the next.
    pub fn memory_records(&self) -> usize {
        self.memory_records
    }

    #[doc(hidden)]
    pub fn encode_record_into(
        &self,
        record: &SortRecord,
        block: &mut [u8],
    ) -> Result<(), ObliviousError> {
        let bs = self.sort_device.block_size();
        if RECORD_HEADER + record.payload.len() > bs {
            return Err(ObliviousError::ItemTooLarge {
                got: record.payload.len(),
                max: bs - RECORD_HEADER,
            });
        }
        Writer::over(block)
            .u64(record.key)
            .u64(record.id)
            .u32(record.payload.len() as u32)
            .bytes(&record.payload);
        Ok(())
    }

    /// Decode one sort-partition block. The partition is attacker-writable
    /// storage, so the declared payload length is checked against the block.
    #[doc(hidden)]
    pub fn decode_record(block: &[u8]) -> Result<SortRecord, ObliviousError> {
        let mut r = Reader::new(block);
        let (key, id, len) = (r.u64()?, r.u64()?, r.u32()?);
        Ok(SortRecord {
            key,
            id,
            payload: r.bytes(len as usize)?.to_vec(),
        })
    }

    /// Sort `records` by ascending key, delivering them to `output` in order.
    ///
    /// The input is a fallible stream so callers can decrypt/seal items
    /// lazily while the sort consumes them (the level re-ordering pipeline);
    /// the first `Err` aborts the sort. If everything fits in memory the sort
    /// partition is not touched; otherwise sorted runs of `memory_records`
    /// records are spilled to the partition as **consecutive ranged writes**
    /// of at most [`IO_BATCH_BLOCKS`] blocks (the head continues across
    /// batches, so a run still streams at transfer speed while the byte
    /// staging stays capped at one batch) and merged with a single multi-way
    /// merge pass whose per-run refills are ranged reads capped the same
    /// way. On the simulated disk both phases therefore pay one positioning
    /// per batch instead of one per block, which is what makes sorting's
    /// share of access *time* far smaller than its share of I/O *operations*
    /// (Figure 12(b)).
    pub fn sort<I, F>(&self, records: I, mut output: F) -> Result<SortIo, ObliviousError>
    where
        I: IntoIterator<Item = Result<SortRecord, ObliviousError>>,
        F: FnMut(SortRecord) -> Result<(), ObliviousError>,
    {
        let mut io = SortIo::default();
        let mut iter = records.into_iter();
        let bs = self.sort_device.block_size();

        // Run formation.
        let mut runs: Vec<(u64, u64)> = Vec::new(); // (start_block, len)
        let mut next_free: u64 = 0;
        let mut first_run: Option<Vec<SortRecord>> = None;
        // Staging buffer for one encoded run, reused across spills.
        let mut staging: Vec<u8> = Vec::new();
        loop {
            let mut chunk: Vec<SortRecord> = Vec::with_capacity(self.memory_records);
            for record in iter.by_ref() {
                chunk.push(record?);
                if chunk.len() == self.memory_records {
                    break;
                }
            }
            if chunk.is_empty() {
                break;
            }
            chunk.sort_by_key(|r| (r.key, r.id));
            let is_last_possible = chunk.len() < self.memory_records;
            if runs.is_empty() && first_run.is_none() && is_last_possible {
                // Everything fits in memory: no external phase needed.
                first_run = Some(chunk);
                break;
            }
            // Spill the run in consecutive ranged writes of at most
            // IO_BATCH_BLOCKS blocks: the head continues across batches, so
            // the run streams contiguously while the staging buffer stays
            // one batch — not one run — in size.
            let start = next_free;
            let len = chunk.len() as u64;
            if start + len > self.sort_device.num_blocks() {
                return Err(ObliviousError::SortPartitionTooSmall {
                    required: start + len,
                    available: self.sort_device.num_blocks(),
                });
            }
            let mut written = 0u64;
            while written < len {
                let batch = (len - written).min(IO_BATCH_BLOCKS);
                staging.clear();
                staging.resize(batch as usize * bs, 0);
                let records = &chunk[written as usize..(written + batch) as usize];
                for (record, block) in records.iter().zip(staging.chunks_exact_mut(bs)) {
                    self.encode_record_into(record, block)?;
                }
                self.sort_device.write_blocks(start + written, &staging)?;
                written += batch;
            }
            io.writes += len;
            next_free += len;
            runs.push((start, len));
            if is_last_possible {
                break;
            }
        }

        if let Some(run) = first_run {
            for record in run {
                output(record)?;
            }
            return Ok(io);
        }
        if runs.is_empty() {
            return Ok(io);
        }

        // Multi-way merge with per-run read-ahead: the memory budget is split
        // across the runs so that each refill reads a contiguous batch of
        // blocks — this is what keeps the merge pass largely sequential on a
        // physical disk, the property Figure 12(b) of the paper relies on.
        struct RunCursor {
            next_block: u64,
            remaining: u64,
            buffered: std::collections::VecDeque<SortRecord>,
        }
        let lookahead = (self.memory_records / runs.len()).max(1) as u64;
        let mut cursors: Vec<RunCursor> = runs
            .iter()
            .map(|&(start, len)| RunCursor {
                next_block: start,
                remaining: len,
                buffered: std::collections::VecDeque::new(),
            })
            .collect();

        // Refills stream one run's whole look-ahead window off the partition
        // before the head moves to another run, as consecutive ranged reads
        // of at most IO_BATCH_BLOCKS blocks so the byte buffer stays capped
        // at one batch.
        let read_batch = lookahead.min(IO_BATCH_BLOCKS);
        let mut buf = vec![0u8; read_batch as usize * bs];
        let mut refill = |cursor: &mut RunCursor, io: &mut SortIo| -> Result<(), ObliviousError> {
            let mut want = lookahead.min(cursor.remaining);
            while want > 0 {
                let batch = want.min(read_batch);
                let window = &mut buf[..batch as usize * bs];
                self.sort_device.read_blocks(cursor.next_block, window)?;
                io.reads += batch;
                cursor.next_block += batch;
                cursor.remaining -= batch;
                want -= batch;
                for block in window.chunks_exact(bs) {
                    cursor.buffered.push_back(Self::decode_record(block)?);
                }
            }
            Ok(())
        };

        let mut heap: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
        for (run_idx, cursor) in cursors.iter_mut().enumerate() {
            refill(cursor, &mut io)?;
            if let Some(front) = cursor.buffered.front() {
                heap.push(Reverse((front.key, front.id, run_idx)));
            }
        }

        while let Some(Reverse((_, _, run_idx))) = heap.pop() {
            let record = cursors[run_idx]
                .buffered
                .pop_front()
                .expect("buffered record for popped run");
            output(record)?;
            let cursor = &mut cursors[run_idx];
            if cursor.buffered.is_empty() && cursor.remaining > 0 {
                refill(cursor, &mut io)?;
            }
            if let Some(front) = cursor.buffered.front() {
                heap.push(Reverse((front.key, front.id, run_idx)));
            }
        }

        Ok(io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stegfs_blockdev::MemDevice;

    fn records(n: u64, payload_len: usize) -> Vec<SortRecord> {
        // Keys chosen as a simple permutation so the expected order is known.
        (0..n)
            .map(|i| SortRecord {
                key: (i * 7919) % n,
                id: i,
                payload: vec![(i % 256) as u8; payload_len],
            })
            .collect()
    }

    fn run_sort(n: u64, memory: usize) -> (Vec<SortRecord>, SortIo) {
        let device = MemDevice::new(4 * n.max(8), 256);
        let sorter = ExternalSorter::new(device, memory);
        let mut out = Vec::new();
        let io = sorter
            .sort(records(n, 100).into_iter().map(Ok), |r| {
                out.push(r);
                Ok(())
            })
            .unwrap();
        (out, io)
    }

    #[test]
    fn in_memory_sort_uses_no_io() {
        let (out, io) = run_sort(10, 64);
        assert_eq!(io, SortIo::default());
        assert_eq!(out.len(), 10);
        assert!(out.windows(2).all(|w| w[0].key <= w[1].key));
    }

    #[test]
    fn external_sort_produces_sorted_output() {
        let (out, io) = run_sort(100, 8);
        assert_eq!(out.len(), 100);
        assert!(out.windows(2).all(|w| w[0].key <= w[1].key));
        // Every record was spilled once and read back once.
        assert_eq!(io.writes, 100);
        assert_eq!(io.reads, 100);
        // Payloads survive.
        for r in &out {
            assert_eq!(r.payload, vec![(r.id % 256) as u8; 100]);
        }
    }

    #[test]
    fn all_ids_survive_the_sort() {
        let (out, _) = run_sort(257, 10);
        let mut ids: Vec<u64> = out.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..257).collect::<Vec<_>>());
    }

    #[test]
    fn runs_larger_than_one_io_batch_round_trip() {
        // Runs of 150 records spill as 64 + 64 + 22 block batches and the
        // merge refills read 64 + 11; the sort must be oblivious to the
        // batching seams.
        let (out, io) = run_sort(300, 150);
        assert_eq!(out.len(), 300);
        assert!(out.windows(2).all(|w| w[0].key <= w[1].key));
        assert_eq!(io.writes, 300);
        assert_eq!(io.reads, 300);
        let mut ids: Vec<u64> = out.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..300).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_is_fine() {
        let device = MemDevice::new(8, 256);
        let sorter = ExternalSorter::new(device, 4);
        let mut count = 0;
        let io = sorter
            .sort(std::iter::empty(), |_| {
                count += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(count, 0);
        assert_eq!(io, SortIo::default());
    }

    #[test]
    fn oversized_payload_rejected() {
        let device = MemDevice::new(64, 64);
        let sorter = ExternalSorter::new(device, 2);
        let too_big = vec![
            SortRecord {
                key: 0,
                id: 0,
                payload: vec![0u8; 100],
            };
            5
        ];
        assert!(matches!(
            sorter.sort(too_big.into_iter().map(Ok), |_| Ok(())),
            Err(ObliviousError::ItemTooLarge { .. })
        ));
    }

    #[test]
    fn hostile_length_fields_decode_to_typed_errors() {
        type Sorter = ExternalSorter<MemDevice>;
        let sorter = ExternalSorter::new(MemDevice::new(8, 256), 2);
        let record = SortRecord {
            key: 3,
            id: 4,
            payload: vec![0xC3; 100],
        };
        let mut block = vec![0u8; 256];
        sorter.encode_record_into(&record, &mut block).unwrap();
        assert_eq!(Sorter::decode_record(&block).unwrap(), record);

        // Every declared length the block can hold decodes to that many
        // bytes; one past the end and beyond is `Corrupt`, never a panic.
        let room = (256 - RECORD_HEADER) as u32;
        for len in [0, 1, 100, room - 1, room] {
            block[16..20].copy_from_slice(&len.to_le_bytes());
            let decoded = Sorter::decode_record(&block).unwrap();
            assert_eq!(decoded.payload.len(), len as usize);
        }
        for len in [room + 1, 256, 257, 1 << 16, u32::MAX - 19, u32::MAX] {
            block[16..20].copy_from_slice(&len.to_le_bytes());
            assert!(
                matches!(
                    Sorter::decode_record(&block),
                    Err(ObliviousError::Corrupt(_))
                ),
                "declared length {len}"
            );
        }
        for cut in [0, 1, RECORD_HEADER - 1] {
            assert!(matches!(
                Sorter::decode_record(&block[..cut]),
                Err(ObliviousError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn input_stream_errors_abort_the_sort() {
        let device = MemDevice::new(64, 256);
        let sorter = ExternalSorter::new(device, 4);
        let input = records(10, 10).into_iter().enumerate().map(|(i, r)| {
            if i == 7 {
                Err(ObliviousError::Corrupt("stream failure".to_string()))
            } else {
                Ok(r)
            }
        });
        let mut delivered = 0;
        let err = sorter.sort(input, |_| {
            delivered += 1;
            Ok(())
        });
        assert!(matches!(err, Err(ObliviousError::Corrupt(_))));
        assert_eq!(delivered, 0, "no output before the input error surfaced");
    }

    #[test]
    fn sort_partition_exhaustion_detected() {
        let device = MemDevice::new(4, 256);
        let sorter = ExternalSorter::new(device, 2);
        let many = records(50, 10);
        assert!(matches!(
            sorter.sort(many.into_iter().map(Ok), |_| Ok(())),
            Err(ObliviousError::SortPartitionTooSmall { .. })
        ));
    }

    #[test]
    fn ties_are_broken_deterministically() {
        let device = MemDevice::new(64, 256);
        let sorter = ExternalSorter::new(device, 3);
        let input = vec![
            SortRecord {
                key: 5,
                id: 2,
                payload: vec![],
            },
            SortRecord {
                key: 5,
                id: 1,
                payload: vec![],
            },
            SortRecord {
                key: 5,
                id: 3,
                payload: vec![],
            },
            SortRecord {
                key: 1,
                id: 9,
                payload: vec![],
            },
        ];
        let mut out = Vec::new();
        sorter
            .sort(input.into_iter().map(Ok), |r| {
                out.push((r.key, r.id));
                Ok(())
            })
            .unwrap();
        assert_eq!(out, vec![(1, 9), (5, 1), (5, 2), (5, 3)]);
    }

    /// Bytes produced by the encoder as it stood before the port onto
    /// `wire`: the format must not move.
    #[test]
    fn golden_vector_is_bit_identical() {
        const GOLDEN_SORT_RECORD: &[u8] = b"\
            \x08\x07\x06\x05\x04\x03\x02\x01\x18\x17\x16\x15\x14\x13\x12\x11\x15\x00\x00\x00\
            \x20\x21\x22\x23\x24\x25\x26\x27\x28\x29\x2a\x2b\x2c\x2d\x2e\x2f\x30\x31\x32\x33\
            \x34\xee\xee\xee\xee\xee\xee\xee\xee\xee\xee\xee\xee\xee\xee\xee\xee\xee\xee\xee\
            \xee\xee\xee\xee";
        let sorter = ExternalSorter::new(MemDevice::new(4, 64), 2);
        let record = SortRecord {
            key: 0x0102_0304_0506_0708,
            id: 0x1112_1314_1516_1718,
            payload: (0x20..0x35).collect(),
        };
        // Bytes behind the payload are not the encoder's: they keep whatever
        // the staging buffer held.
        let mut block = vec![0xEEu8; 64];
        sorter.encode_record_into(&record, &mut block).unwrap();
        assert_eq!(block, GOLDEN_SORT_RECORD);
        assert_eq!(
            ExternalSorter::<MemDevice>::decode_record(GOLDEN_SORT_RECORD).unwrap(),
            record
        );
    }
}
