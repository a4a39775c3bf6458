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
use std::ops::AddAssign;

use stegfs_base::wire::{Reader, Writer};
use stegfs_blockdev::BlockDevice;

use crate::error::ObliviousError;
use crate::level::IO_BATCH_BLOCKS;

/// One record as the sorter hands it out or finds it on the sort partition:
/// a random sort key, the logical block id and the (opaque, typically
/// sealed) payload, borrowed from the buffer it lies in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortRecord<'a> {
    /// Random sort key; the output permutation is the ascending key order.
    pub key: u64,
    /// Logical block id.
    pub id: u64,
    /// Opaque payload bytes.
    pub payload: &'a [u8],
}

/// Fixed per-record header on the sort partition: key, id, payload length.
const RECORD_HEADER: usize = 8 + 8 + 4;

impl<'a> SortRecord<'a> {
    /// Encode the record over the front of `block` (one sort-partition
    /// block); bytes behind the payload keep their value.
    #[doc(hidden)]
    pub fn encode_into(&self, block: &mut [u8]) -> Result<(), ObliviousError> {
        if RECORD_HEADER + self.payload.len() > block.len() {
            return Err(ObliviousError::ItemTooLarge {
                got: self.payload.len(),
                max: block.len().saturating_sub(RECORD_HEADER),
            });
        }
        Writer::over(block)
            .u64(self.key)
            .u64(self.id)
            .u32(self.payload.len() as u32)
            .bytes(self.payload);
        Ok(())
    }

    /// View one sort-partition block as a record. The partition is
    /// attacker-writable storage, so the declared payload length is checked
    /// against the block.
    #[doc(hidden)]
    pub fn view(block: &'a [u8]) -> Result<Self, ObliviousError> {
        let mut r = Reader::new(block);
        let (key, id, len) = (r.u64()?, r.u64()?, r.u32()?);
        Ok(Self {
            key,
            id,
            payload: r.bytes(len as usize)?,
        })
    }
}

/// Blocks moved by maintenance: one sort (on the sort partition), one level
/// collect or re-order (on both partitions), or a whole flush cascade.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceIo {
    /// Blocks read.
    pub reads: u64,
    /// Blocks written.
    pub writes: u64,
}

impl MaintenanceIo {
    /// Reads plus writes.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }
}

impl AddAssign for MaintenanceIo {
    fn add_assign(&mut self, other: Self) {
        self.reads += other.reads;
        self.writes += other.writes;
    }
}

/// Encode `records` over the leading `bs`-byte blocks of `staging`, one a
/// block, and return the blocks they cover.
fn stage<'s, 'r>(
    records: impl ExactSizeIterator<Item = SortRecord<'r>>,
    staging: &'s mut [u8],
    bs: usize,
) -> Result<&'s [u8], ObliviousError> {
    let window = &mut staging[..records.len() * bs];
    for (record, block) in records.zip(window.chunks_exact_mut(bs)) {
        record.encode_into(block)?;
    }
    Ok(window)
}

/// External merge sorter writing its runs to a sort partition device.
pub struct ExternalSorter<D> {
    sort_device: D,
    /// Maximum number of records held in memory at once (the agent's buffer).
    memory_records: usize,
}

/// Where the merge stands in one spilled run (or the resident batch, which
/// has nothing left on the partition), and which part of its look-ahead
/// buffer holds records read but not yet delivered.
struct RunCursor {
    next_block: u64,
    remaining: u64,
    head: usize,
    filled: usize,
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

    /// Sort the `count` records `produce` makes, of `payload_len` payload
    /// bytes each, by ascending `(key, id)`, delivering them to `output` in
    /// order.
    ///
    /// The sorter owns the memory the records are formed in: a **run arena**
    /// of `memory_records` payload slots, allocated once per sort. `produce`
    /// is handed the unfilled tail of the current run — whole slots, at
    /// least one — writes payloads into its leading slots and pushes one
    /// `(key, id)` tag per slot it filled; an `Err` aborts the sort. A run
    /// holds `memory_records` records or, the last, what is left of
    /// `count`, so the producer is never offered more than the run still
    /// holds nor more than the count still owed: whatever it reads to make
    /// its records, it reads no earlier than a record-at-a-time input would.
    /// Filling none of a non-empty offer ends the input early, which is
    /// [`ObliviousError::Corrupt`]. Once the last run is complete the input's
    /// end is confirmed with one **empty offer**: the producer finishes
    /// whatever reading its input needs and must tag nothing.
    ///
    /// A run is ordered by sorting an index of its tags, not its payloads.
    /// A sort of at most `memory_records` records is delivered straight from
    /// the arena and never touches the sort partition. Otherwise each run is
    /// spilled to the partition by gathering its payloads in sorted order
    /// into the batch staging: **consecutive ranged writes** of at most
    /// `IO_BATCH_BLOCKS` blocks (the head continues across batches, so a run
    /// still streams at transfer speed while the staging stays capped at one
    /// batch) — all but the last run's final batch, which is still in the
    /// staging when the input ends and **stays resident**. The runs are
    /// merged in a single multi-way pass from per-run look-ahead buffers
    /// that the ranged refill reads, capped the same way, fill directly,
    /// with the resident batch as one more input; `output` borrows each
    /// record from the buffer it lies in. The look-ahead reuses the arena's
    /// memory, so a sort holds `memory_records` sort-partition blocks (one
    /// per run where there are more runs) plus one batch of staging. With
    /// `n` records, runs of `B = memory_records` and a last run of `L`
    /// records whose final batch holds `r`, a spilling sort writes and reads
    /// `n − r` blocks. On the
    /// simulated disk both phases pay one positioning per batch instead of
    /// one per block, which is what makes sorting's share of access *time*
    /// far smaller than its share of I/O *operations* (Figure 12(b)).
    ///
    /// # Panics
    ///
    /// If `payload_len` is zero, or `produce` tags more slots than it was
    /// offered.
    pub fn sort<P, F>(
        &self,
        payload_len: usize,
        count: u64,
        mut produce: P,
        mut output: F,
    ) -> Result<MaintenanceIo, ObliviousError>
    where
        P: FnMut(&mut [u8], &mut Vec<(u64, u64)>) -> Result<(), ObliviousError>,
        F: FnMut(SortRecord<'_>) -> Result<(), ObliviousError>,
    {
        assert!(payload_len > 0, "records must carry a payload");
        let bs = self.sort_device.block_size();
        if RECORD_HEADER + payload_len > bs {
            return Err(ObliviousError::ItemTooLarge {
                got: payload_len,
                max: bs.saturating_sub(RECORD_HEADER),
            });
        }
        let mut io = MaintenanceIo::default();

        // Run formation, in the front of the sort's memory. The merge's
        // look-ahead reuses that memory once the runs are formed, so it is
        // sized in partition blocks rather than payloads.
        let mut memory = vec![0u8; self.memory_records * bs];
        let arena = &mut memory[..self.memory_records * payload_len];
        let mut tags: Vec<(u64, u64)> = Vec::with_capacity(self.memory_records);
        let mut order: Vec<usize> = Vec::with_capacity(self.memory_records);
        // One batch of encoded records, allocated at the first spill. Every
        // record covers the same prefix of its block, so the bytes behind it
        // stay zero from one batch to the next.
        let mut staging: Vec<u8> = Vec::new();
        // Records produced and records spilled so far. Runs lie back to back
        // from block 0, each `memory_records` long but the last.
        let (mut produced, mut spilled) = (0u64, 0u64);
        let resident = loop {
            let run = (self.memory_records as u64).min(count - produced) as usize;
            tags.clear();
            while tags.len() < run {
                let filled = tags.len();
                produce(
                    &mut arena[filled * payload_len..run * payload_len],
                    &mut tags,
                )?;
                assert!(
                    tags.len() <= run,
                    "producer tagged more slots than it was offered"
                );
                if tags.len() == filled {
                    return Err(ObliviousError::Corrupt(format!(
                        "sort input ended after {} of {count} records",
                        produced + filled as u64
                    )));
                }
            }
            produced += run as u64;
            let last = produced == count;
            if last {
                produce(&mut [], &mut tags)?;
                assert!(
                    tags.len() == run,
                    "producer tagged more slots than it was offered"
                );
            }
            // The slot number breaks ties, as a stable sort of the records
            // themselves would.
            order.clear();
            order.extend(0..run);
            order.sort_unstable_by_key(|&slot| (tags[slot], slot));
            let record = |slot: usize| SortRecord {
                key: tags[slot].0,
                id: tags[slot].1,
                payload: &arena[slot * payload_len..][..payload_len],
            };
            if last && spilled == 0 {
                // Everything fits in memory: no external phase needed.
                for &slot in &order {
                    output(record(slot))?;
                }
                return Ok(io);
            }

            // The last run's final batch is encoded like the others but
            // stays in the staging.
            let kept = if last {
                (run - 1) % IO_BATCH_BLOCKS as usize + 1
            } else {
                0
            };
            let (spill, keep) = order.split_at(run - kept);
            let required = spilled + spill.len() as u64;
            if required > self.sort_device.num_blocks() {
                return Err(ObliviousError::SortPartitionTooSmall {
                    required,
                    available: self.sort_device.num_blocks(),
                });
            }
            if staging.is_empty() {
                staging = vec![0u8; self.memory_records.min(IO_BATCH_BLOCKS as usize) * bs];
            }
            for batch in spill.chunks(IO_BATCH_BLOCKS as usize) {
                let window = stage(batch.iter().map(|&slot| record(slot)), &mut staging, bs)?;
                self.sort_device.write_blocks(spilled, window)?;
                spilled += batch.len() as u64;
            }
            io.writes += spill.len() as u64;
            if last {
                stage(keep.iter().map(|&slot| record(slot)), &mut staging, bs)?;
                break kept;
            }
        };

        // Multi-way merge with per-run read-ahead: the memory budget is split
        // across the runs on the partition so that each refill reads a
        // contiguous batch of blocks — this is what keeps the merge pass
        // largely sequential on a physical disk, the property Figure 12(b)
        // of the paper relies on. The resident batch is one more input, its
        // look-ahead the staging it was encoded in.
        let run_len = self.memory_records as u64;
        let runs = spilled.div_ceil(run_len) as usize;
        let lookahead = (self.memory_records / runs).max(1);
        // More runs than records of memory still get one block each.
        memory.resize(memory.len().max(runs * lookahead * bs), 0);
        let mut inputs: Vec<&mut [u8]> = memory[..runs * lookahead * bs]
            .chunks_exact_mut(lookahead * bs)
            .chain([&mut staging[..resident * bs]])
            .collect();
        let mut cursors: Vec<RunCursor> = (0..runs as u64)
            .map(|run| RunCursor {
                next_block: run * run_len,
                remaining: run_len.min(spilled - run * run_len),
                head: 0,
                filled: 0,
            })
            .chain([RunCursor {
                next_block: 0,
                remaining: 0,
                head: 0,
                filled: resident,
            }])
            .collect();
        let mut heap: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::with_capacity(runs + 1);
        for (run, (cursor, buffer)) in cursors.iter_mut().zip(&mut inputs).enumerate() {
            if cursor.filled == 0 {
                self.refill(cursor, buffer, payload_len, &mut io)?;
            }
            let front = SortRecord::view(&buffer[..bs])?;
            heap.push(Reverse((front.key, front.id, run)));
        }

        while let Some(Reverse((_, _, run))) = heap.pop() {
            let (cursor, buffer) = (&mut cursors[run], &mut *inputs[run]);
            output(SortRecord::view(&buffer[cursor.head * bs..][..bs])?)?;
            cursor.head += 1;
            if cursor.head == cursor.filled && cursor.remaining > 0 {
                self.refill(cursor, buffer, payload_len, &mut io)?;
            }
            if cursor.head < cursor.filled {
                let front = SortRecord::view(&buffer[cursor.head * bs..][..bs])?;
                heap.push(Reverse((front.key, front.id, run)));
            }
        }

        Ok(io)
    }

    /// Stream the next look-ahead window of `cursor`'s run off the partition
    /// straight into `buffer` (the run's look-ahead, drained by now) before
    /// the head moves to another run: consecutive ranged reads of at most
    /// [`IO_BATCH_BLOCKS`] blocks. Every record is checked on arrival — the
    /// partition is attacker-writable — and must carry exactly the payload
    /// length this sort spilled.
    fn refill(
        &self,
        cursor: &mut RunCursor,
        buffer: &mut [u8],
        payload_len: usize,
        io: &mut MaintenanceIo,
    ) -> Result<(), ObliviousError> {
        let bs = self.sort_device.block_size();
        let want = ((buffer.len() / bs) as u64).min(cursor.remaining);
        cursor.head = 0;
        cursor.filled = 0;
        while (cursor.filled as u64) < want {
            let batch = (want - cursor.filled as u64).min(IO_BATCH_BLOCKS);
            let window = &mut buffer[cursor.filled * bs..][..batch as usize * bs];
            self.sort_device.read_blocks(cursor.next_block, window)?;
            io.reads += batch;
            cursor.next_block += batch;
            cursor.remaining -= batch;
            cursor.filled += batch as usize;
            for block in window.chunks_exact(bs) {
                let got = SortRecord::view(block)?.payload.len();
                if got != payload_len {
                    return Err(ObliviousError::Corrupt(format!(
                        "sort record of {got} payload bytes in a sort of {payload_len}"
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stegfs_blockdev::{Io, IoHook, Layered, MemDevice};

    /// An owned `(key, id, payload)`, the sorter's input and output in tests.
    type Owned = (u64, u64, Vec<u8>);

    fn records(n: u64, payload_len: usize) -> Vec<Owned> {
        // Keys chosen as a simple permutation so the expected order is known.
        (0..n)
            .map(|i| ((i * 7919) % n, i, vec![(i % 256) as u8; payload_len]))
            .collect()
    }

    /// A producer over `records` that fills at most `per_call` of the slots
    /// it is offered and fails in place of record `fail_at`.
    fn feed(
        records: &[Owned],
        per_call: usize,
        fail_at: Option<usize>,
    ) -> impl FnMut(&mut [u8], &mut Vec<(u64, u64)>) -> Result<(), ObliviousError> + '_ {
        let mut next = 0;
        move |free, tags| {
            let Some((_, _, first)) = records.get(next) else {
                return Ok(());
            };
            for slot in free.chunks_exact_mut(first.len()).take(per_call) {
                if fail_at == Some(next) {
                    return Err(ObliviousError::Corrupt("stream failure".to_string()));
                }
                let Some((key, id, payload)) = records.get(next) else {
                    break;
                };
                slot.copy_from_slice(payload);
                tags.push((*key, *id));
                next += 1;
            }
            Ok(())
        }
    }

    fn sort_all<D: BlockDevice>(
        sorter: &ExternalSorter<D>,
        input: &[Owned],
    ) -> Result<(Vec<Owned>, MaintenanceIo), ObliviousError> {
        let mut out = Vec::new();
        let payload_len = input.first().map_or(1, |r| r.2.len());
        let io = sorter.sort(payload_len, input.len() as u64, feed(input, 3, None), |r| {
            out.push((r.key, r.id, r.payload.to_vec()));
            Ok(())
        })?;
        Ok((out, io))
    }

    fn run_sort(n: u64, memory: usize) -> (Vec<Owned>, MaintenanceIo) {
        let device = MemDevice::new(4 * n.max(8), 256);
        let sorter = ExternalSorter::new(device, memory);
        sort_all(&sorter, &records(n, 100)).unwrap()
    }

    #[test]
    fn in_memory_sort_uses_no_io() {
        let (out, io) = run_sort(10, 64);
        assert_eq!(io, MaintenanceIo::default());
        assert_eq!(out.len(), 10);
        assert!(out.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn external_sort_produces_sorted_output() {
        let (out, io) = run_sort(100, 8);
        assert_eq!(out.len(), 100);
        assert!(out.windows(2).all(|w| w[0].0 <= w[1].0));
        // Every record was spilled once and read back once, but the last
        // run of 4, which stays in memory.
        assert_eq!(io.writes, 96);
        assert_eq!(io.reads, 96);
        // Payloads survive.
        for (_, id, payload) in &out {
            assert_eq!(payload, &vec![(id % 256) as u8; 100]);
        }
    }

    #[test]
    fn all_ids_survive_the_sort() {
        let (out, _) = run_sort(257, 10);
        let mut ids: Vec<u64> = out.iter().map(|r| r.1).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..257).collect::<Vec<_>>());
    }

    #[test]
    fn runs_larger_than_one_io_batch_round_trip() {
        // Runs of 150 records spill as 64 + 64 + 22 block batches — the
        // last run's 22 stay in memory — and the merge refills read 64 + 11;
        // the sort must be oblivious to the batching seams.
        let (out, io) = run_sort(300, 150);
        assert_eq!(out.len(), 300);
        assert!(out.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(io.writes, 278);
        assert_eq!(io.reads, 278);
        let mut ids: Vec<u64> = out.iter().map(|r| r.1).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..300).collect::<Vec<_>>());
    }

    #[test]
    fn a_full_first_run_is_not_spilled_when_it_is_the_last() {
        // Exactly `memory_records` records: the count says the input ends
        // there, so the one run is delivered from the arena.
        let (out, io) = run_sort(8, 8);
        assert_eq!((io.writes, io.reads), (0, 0));
        assert_eq!(out.len(), 8);
        assert!(out.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn more_runs_than_memory_records_merge_one_block_at_a_time() {
        // 25 runs against 2 records of memory: every spilled run's
        // look-ahead is the one-block minimum; the last run stays in memory.
        let (out, io) = run_sort(50, 2);
        assert_eq!((io.writes, io.reads), (48, 48));
        assert_eq!(
            out.iter().map(|r| r.0).collect::<Vec<_>>(),
            (0..50).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_input_is_fine() {
        let device = MemDevice::new(8, 256);
        let sorter = ExternalSorter::new(device, 4);
        let (out, io) = sort_all(&sorter, &[]).unwrap();
        assert!(out.is_empty());
        assert_eq!(io, MaintenanceIo::default());
    }

    #[test]
    fn oversized_payload_rejected() {
        let device = MemDevice::new(64, 64);
        let sorter = ExternalSorter::new(device, 2);
        let too_big = vec![(0u64, 0u64, vec![0u8; 100]); 5];
        assert!(matches!(
            sort_all(&sorter, &too_big),
            Err(ObliviousError::ItemTooLarge { .. })
        ));
    }

    #[test]
    fn hostile_length_fields_decode_to_typed_errors() {
        let record = SortRecord {
            key: 3,
            id: 4,
            payload: &[0xC3; 100],
        };
        let mut block = vec![0u8; 256];
        record.encode_into(&mut block).unwrap();
        assert_eq!(SortRecord::view(&block).unwrap(), record);

        // Every declared length the block can hold decodes to that many
        // bytes; one past the end and beyond is `Corrupt`, never a panic.
        let room = (256 - RECORD_HEADER) as u32;
        for len in [0, 1, 100, room - 1, room] {
            block[16..20].copy_from_slice(&len.to_le_bytes());
            let decoded = SortRecord::view(&block).unwrap();
            assert_eq!(decoded.payload.len(), len as usize);
        }
        for len in [room + 1, 256, 257, 1 << 16, u32::MAX - 19, u32::MAX] {
            block[16..20].copy_from_slice(&len.to_le_bytes());
            assert!(
                matches!(SortRecord::view(&block), Err(ObliviousError::Corrupt(_))),
                "declared length {len}"
            );
        }
        for cut in [0, 1, RECORD_HEADER - 1] {
            assert!(matches!(
                SortRecord::view(&block[..cut]),
                Err(ObliviousError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn a_spilled_record_of_another_length_is_corrupt() {
        /// A sort partition whose second run's first block reads back one
        /// payload byte short — a length the block can hold, so the view
        /// accepts it.
        struct Shortened;
        impl IoHook<MemDevice> for Shortened {
            fn after_read(&self, _: &MemDevice, io: Io, buf: &mut [u8]) {
                if io.contains(4) {
                    let at = (4 - io.start) as usize * 256;
                    buf[at + 16..at + 20].copy_from_slice(&99u32.to_le_bytes());
                }
            }
        }
        let sorter = ExternalSorter::new(Layered::with_hook(MemDevice::new(64, 256), Shortened), 4);
        let mut delivered = 0;
        let result = sorter.sort(100, 10, feed(&records(10, 100), 3, None), |_| {
            delivered += 1;
            Ok(())
        });
        assert!(matches!(result, Err(ObliviousError::Corrupt(_))));
        assert_eq!(
            delivered, 0,
            "the run is refused when the merge first reads it"
        );
    }

    #[test]
    fn input_stream_errors_abort_the_sort() {
        let device = MemDevice::new(64, 256);
        let sorter = ExternalSorter::new(device, 4);
        let input = records(10, 10);
        let mut delivered = 0;
        let err = sorter.sort(10, 10, feed(&input, 3, Some(7)), |_| {
            delivered += 1;
            Ok(())
        });
        assert!(matches!(err, Err(ObliviousError::Corrupt(_))));
        assert_eq!(delivered, 0, "no output before the input error surfaced");
    }

    #[test]
    fn the_producer_is_never_offered_more_than_the_run_still_holds() {
        // Runs of 5 over 13 records, a producer that fills 1, 2 or 3 slots a
        // call: every offer is exactly the unfilled tail of the current run —
        // the last run holds the 3 records the count still owes — a run is
        // on the partition before the next one's first offer, and one empty
        // offer confirms the end of the input before the last run's records
        // go anywhere.
        let device = stegfs_blockdev::TracingDevice::new(MemDevice::new(64, 64));
        let sorter = ExternalSorter::new(device, 5);
        let input = records(13, 8);
        let mut inner = feed(&input, 1, None);
        let mut calls = 0usize;
        let mut offers: Vec<(usize, usize, usize)> = Vec::new(); // (offered, taken, spilled)
        let produce = |free: &mut [u8], tags: &mut Vec<(u64, u64)>| {
            let before = tags.len();
            let width = calls % 3 + 1;
            calls += 1;
            let offered = free.len() / 8;
            for slot in 0..width.min(offered) {
                inner(&mut free[slot * 8..], tags)?;
            }
            offers.push((
                offered,
                tags.len() - before,
                sorter.device().log().records().len(),
            ));
            Ok(())
        };
        sorter.sort(8, 13, produce, |_| Ok(())).unwrap();

        let mut held = 0;
        let mut produced = 0;
        for &(offered, taken, spilled) in &offers {
            let run_start = produced - held;
            assert_eq!(
                offered,
                5.min(13 - run_start) - held,
                "after {produced} records"
            );
            assert_eq!(spilled, run_start, "after {produced} records");
            produced += taken;
            held = (held + taken) % 5;
        }
        assert_eq!(produced, 13);
        assert_eq!(offers.last().map(|o| (o.0, o.1)), Some((0, 0)));
        assert_eq!(offers.iter().filter(|o| o.0 == 0).count(), 1);
    }

    #[test]
    fn an_input_short_of_its_count_is_corrupt() {
        // 10 records where 12 were promised, ending inside the last run and
        // at its start: the sort fails before it outputs anything.
        for memory in [4, 5] {
            let sorter = ExternalSorter::new(MemDevice::new(64, 256), memory);
            let input = records(10, 10);
            let mut delivered = 0;
            let result = sorter.sort(10, 12, feed(&input, 3, None), |_| {
                delivered += 1;
                Ok(())
            });
            assert_eq!(
                result,
                Err(ObliviousError::Corrupt(
                    "sort input ended after 10 of 12 records".to_string()
                )),
                "runs of {memory}"
            );
            assert_eq!(delivered, 0, "runs of {memory}");
        }
    }

    #[test]
    fn the_last_sort_batch_stays_in_memory() {
        // The spill rule: n <= B records never touch the partition; past
        // that, everything but the last run's final I/O batch — r records,
        // for a last run of L — is written once and read back once.
        for memory in [4u64, 64, 150] {
            for n in [
                1,
                memory - 1,
                memory,
                memory + 1,
                2 * memory,
                3 * memory + 5,
            ] {
                let (out, io) = run_sort(n, memory as usize);
                let last_run = n - memory * ((n - 1) / memory);
                let last_batch = last_run - IO_BATCH_BLOCKS * ((last_run - 1) / IO_BATCH_BLOCKS);
                let resident = if n <= memory { n } else { last_batch };
                let expected = n - resident;
                println!(
                    "B = {memory:>3}  n = {n:>3}  last run {last_run:>3}  in memory {resident:>3}  \
                     writes {:>3}  reads {:>3}",
                    io.writes, io.reads
                );
                assert_eq!(
                    (io.writes, io.reads),
                    (expected, expected),
                    "n = {n}, B = {memory}"
                );
                assert_eq!(
                    out.iter().map(|r| r.0).collect::<Vec<_>>(),
                    (0..n).collect::<Vec<_>>(),
                    "n = {n}, B = {memory}"
                );
            }
        }
    }

    #[test]
    fn sort_partition_exhaustion_detected() {
        let device = MemDevice::new(4, 256);
        let sorter = ExternalSorter::new(device, 2);
        assert!(matches!(
            sort_all(&sorter, &records(50, 10)),
            Err(ObliviousError::SortPartitionTooSmall { .. })
        ));
    }

    #[test]
    fn ties_are_broken_deterministically() {
        let device = MemDevice::new(64, 256);
        let sorter = ExternalSorter::new(device, 3);
        let input: Vec<Owned> = [(5, 2), (5, 1), (5, 3), (1, 9)]
            .into_iter()
            .map(|(key, id)| (key, id, vec![0u8]))
            .collect();
        let (out, _) = sort_all(&sorter, &input).unwrap();
        let order: Vec<(u64, u64)> = out.iter().map(|r| (r.0, r.1)).collect();
        assert_eq!(order, vec![(1, 9), (5, 1), (5, 2), (5, 3)]);
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
        let payload: Vec<u8> = (0x20..0x35).collect();
        let record = SortRecord {
            key: 0x0102_0304_0506_0708,
            id: 0x1112_1314_1516_1718,
            payload: &payload,
        };
        // Bytes behind the payload are not the encoder's: they keep whatever
        // the staging buffer held.
        let mut block = vec![0xEEu8; 64];
        record.encode_into(&mut block).unwrap();
        assert_eq!(block, GOLDEN_SORT_RECORD);
        assert_eq!(SortRecord::view(GOLDEN_SORT_RECORD).unwrap(), record);
    }
}
