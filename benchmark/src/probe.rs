//! The benchmark's view from outside: a counting, timing device wrapper and
//! the span recorder it shares with the load driver.
//!
//! [`ProbeDevice`] sits between a system under test and its backing device.
//! It never changes a byte or an error; it counts every call with relaxed
//! atomics and, when a [`Tracer`] is attached and enabled, records one span
//! per call as a child of the operation the calling thread is inside. The
//! driver brackets each call into a layer with [`Tracer::begin_op`] /
//! [`Tracer::end_op`], so a layer's time above the device is its span minus
//! the device spans beneath it — measured entirely from the benchmark's own
//! files, with no instrumentation in the program.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use stegfs_blockdev::{BlockDevice, BlockId, DeviceError};

/// What the calling thread's current operation has spent in the device.
#[derive(Clone, Copy, Default)]
struct OpScope {
    id: u64,
    device_ns: u64,
    read_blocks: u64,
    write_blocks: u64,
}

thread_local! {
    static SCOPE: Cell<OpScope> = const { Cell::new(OpScope { id: 0, device_ns: 0, read_blocks: 0, write_blocks: 0 }) };
}

/// One recorded interval. `parent == 0` marks an operation span; device
/// spans carry the id of the operation that caused them. Spans of one
/// request share `op`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// First block addressed (device spans) or 0.
    pub block: u64,
    /// Blocks moved (device spans) or 0.
    pub blocks: u64,
}

/// Totals over every operation span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanAgg {
    pub count: u64,
    pub total_ns: u64,
    /// Time covered by device child spans.
    pub device_ns: u64,
    pub device_read_blocks: u64,
    pub device_write_blocks: u64,
}

impl SpanAgg {
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// In-memory span recorder. Disabled until [`Tracer::enable`], so set-up I/O
/// is not recorded.
pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    aggregates: Mutex<BTreeMap<&'static str, SpanAgg>>,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            aggregates: Mutex::new(BTreeMap::new()),
        })
    }

    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Open an operation on the calling thread; device calls made until
    /// [`Tracer::end_op`] become its children.
    pub fn begin_op(&self) {
        if !self.is_enabled() {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        SCOPE.with(|s| {
            s.set(OpScope {
                id,
                ..OpScope::default()
            })
        });
    }

    /// Close the calling thread's operation: the layer call ran from `start`
    /// to `end`.
    pub fn end_op(&self, name: &'static str, start: Instant, end: Instant) {
        if !self.is_enabled() {
            return;
        }
        let scope = SCOPE.with(|s| s.replace(OpScope::default()));
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans
            .lock()
            .expect("no panic while holding the span buffer")
            .push(Span {
                id: scope.id,
                parent: 0,
                op: scope.id,
                name,
                start_ns,
                end_ns,
                block: 0,
                blocks: 0,
            });
        let mut aggregates = self
            .aggregates
            .lock()
            .expect("no panic while holding the aggregates");
        let agg = aggregates.entry(name).or_default();
        agg.count += 1;
        agg.total_ns += end_ns - start_ns;
        agg.device_ns += scope.device_ns;
        agg.device_read_blocks += scope.read_blocks;
        agg.device_write_blocks += scope.write_blocks;
    }

    fn device_call(
        &self,
        name: &'static str,
        is_write: bool,
        block: BlockId,
        blocks: u64,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let parent = SCOPE.with(|s| {
            let mut scope = s.get();
            scope.device_ns += end_ns - start_ns;
            if is_write {
                scope.write_blocks += blocks;
            } else {
                scope.read_blocks += blocks;
            }
            s.set(scope);
            scope.id
        });
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.spans
            .lock()
            .expect("no panic while holding the span buffer")
            .push(Span {
                id,
                parent,
                op: parent,
                name,
                start_ns,
                end_ns,
                block,
                blocks,
            });
    }

    /// Per-name totals of the operation spans recorded so far.
    pub fn aggregates(&self) -> BTreeMap<&'static str, SpanAgg> {
        self.aggregates
            .lock()
            .expect("no panic while holding the aggregates")
            .clone()
    }

    #[cfg(test)]
    fn span_count(&self) -> usize {
        self.spans
            .lock()
            .expect("no panic while holding the span buffer")
            .len()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let spans = self
            .spans
            .lock()
            .expect("no panic while holding the span buffer");
        for s in spans.iter() {
            writeln!(
                out,
                r#"{{"id":{},"parent":{},"op":{},"name":"{}","start_ns":{},"end_ns":{},"block":{},"blocks":{}}}"#,
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns, s.block, s.blocks
            )?;
        }
        Ok(())
    }
}

/// Cumulative device-call counters of one or more [`ProbeDevice`]s.
#[derive(Default)]
pub struct ProbeCounters {
    read_calls: AtomicU64,
    write_calls: AtomicU64,
    blocks_read: AtomicU64,
    blocks_written: AtomicU64,
    /// Blocks moved by `read_blocks` / `write_blocks` (included above).
    ranged_blocks: AtomicU64,
    /// Blocks written onto the marked class (included in `blocks_written`).
    class_blocks_written: AtomicU64,
    bytes_written: AtomicU64,
    busy_ns: AtomicU64,
}

/// A copy of [`ProbeCounters`] at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeSnapshot {
    pub read_calls: u64,
    pub write_calls: u64,
    pub blocks_read: u64,
    pub blocks_written: u64,
    pub ranged_blocks: u64,
    pub class_blocks_written: u64,
    pub bytes_written: u64,
    pub busy_ns: u64,
}

impl ProbeCounters {
    pub fn snapshot(&self) -> ProbeSnapshot {
        ProbeSnapshot {
            read_calls: self.read_calls.load(Ordering::Relaxed),
            write_calls: self.write_calls.load(Ordering::Relaxed),
            blocks_read: self.blocks_read.load(Ordering::Relaxed),
            blocks_written: self.blocks_written.load(Ordering::Relaxed),
            ranged_blocks: self.ranged_blocks.load(Ordering::Relaxed),
            class_blocks_written: self.class_blocks_written.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }
}

impl ProbeSnapshot {
    pub fn since(&self, earlier: &ProbeSnapshot) -> ProbeSnapshot {
        ProbeSnapshot {
            read_calls: self.read_calls - earlier.read_calls,
            write_calls: self.write_calls - earlier.write_calls,
            blocks_read: self.blocks_read - earlier.blocks_read,
            blocks_written: self.blocks_written - earlier.blocks_written,
            ranged_blocks: self.ranged_blocks - earlier.ranged_blocks,
            class_blocks_written: self.class_blocks_written - earlier.class_blocks_written,
            bytes_written: self.bytes_written - earlier.bytes_written,
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }
}

/// Pass-through [`BlockDevice`] that counts and (optionally) traces.
pub struct ProbeDevice<D> {
    inner: D,
    counters: Arc<ProbeCounters>,
    tracer: Option<Arc<Tracer>>,
    /// One flag per block: writes landing on flagged blocks are counted as
    /// class writes (the durable store's journal slots).
    class: Vec<AtomicBool>,
}

impl<D: BlockDevice> ProbeDevice<D> {
    /// Wrap `inner`; several probes may share `counters` and `tracer`.
    pub fn new(inner: D, counters: Arc<ProbeCounters>, tracer: Option<Arc<Tracer>>) -> Self {
        let class = (0..inner.num_blocks())
            .map(|_| AtomicBool::new(false))
            .collect();
        Self {
            inner,
            counters,
            tracer,
            class,
        }
    }

    /// Mark `blocks` as the class whose writes are counted separately.
    pub fn mark_class(&self, blocks: &[BlockId]) {
        for &b in blocks {
            self.class[b as usize].store(true, Ordering::Relaxed);
        }
    }

    fn count(&self, is_write: bool, ranged: bool, start: BlockId, blocks: u64) {
        let c = &self.counters;
        if is_write {
            c.write_calls.fetch_add(1, Ordering::Relaxed);
            c.blocks_written.fetch_add(blocks, Ordering::Relaxed);
            c.bytes_written
                .fetch_add(blocks * self.inner.block_size() as u64, Ordering::Relaxed);
            let in_class = (start..start + blocks)
                .filter(|&b| self.class[b as usize].load(Ordering::Relaxed))
                .count() as u64;
            if in_class > 0 {
                c.class_blocks_written
                    .fetch_add(in_class, Ordering::Relaxed);
            }
        } else {
            c.read_calls.fetch_add(1, Ordering::Relaxed);
            c.blocks_read.fetch_add(blocks, Ordering::Relaxed);
        }
        if ranged {
            c.ranged_blocks.fetch_add(blocks, Ordering::Relaxed);
        }
    }

    /// Run one device call, counting it if it succeeds and tracing it if a
    /// tracer is live.
    fn observe(
        &self,
        name: &'static str,
        is_write: bool,
        ranged: bool,
        start_block: BlockId,
        blocks: u64,
        call: impl FnOnce(&D) -> Result<(), DeviceError>,
    ) -> Result<(), DeviceError> {
        let tracer = self.tracer.as_deref().filter(|t| t.is_enabled());
        let Some(tracer) = tracer else {
            call(&self.inner)?;
            self.count(is_write, ranged, start_block, blocks);
            return Ok(());
        };
        let t0 = Instant::now();
        let result = call(&self.inner);
        let t1 = Instant::now();
        result?;
        self.count(is_write, ranged, start_block, blocks);
        self.counters
            .busy_ns
            .fetch_add((t1 - t0).as_nanos() as u64, Ordering::Relaxed);
        tracer.device_call(name, is_write, start_block, blocks, t0, t1);
        Ok(())
    }
}

impl<D: BlockDevice> BlockDevice for ProbeDevice<D> {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn read_block(&self, block: BlockId, buf: &mut [u8]) -> Result<(), DeviceError> {
        self.observe("blockdev.read_block", false, false, block, 1, |d| {
            d.read_block(block, buf)
        })
    }

    fn write_block(&self, block: BlockId, buf: &[u8]) -> Result<(), DeviceError> {
        self.observe("blockdev.write_block", true, false, block, 1, |d| {
            d.write_block(block, buf)
        })
    }

    fn read_blocks(&self, start: BlockId, buf: &mut [u8]) -> Result<(), DeviceError> {
        let blocks = (buf.len() / self.inner.block_size()) as u64;
        self.observe("blockdev.read_blocks", false, true, start, blocks, |d| {
            d.read_blocks(start, buf)
        })
    }

    fn write_blocks(&self, start: BlockId, buf: &[u8]) -> Result<(), DeviceError> {
        let blocks = (buf.len() / self.inner.block_size()) as u64;
        self.observe("blockdev.write_blocks", true, true, start, blocks, |d| {
            d.write_blocks(start, buf)
        })
    }

    fn sync(&self) -> Result<(), DeviceError> {
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stegfs_blockdev::MemDevice;

    const BS: usize = 64;

    fn pattern(tag: u8, blocks: usize) -> Vec<u8> {
        (0..blocks * BS)
            .map(|i| tag.wrapping_add(i as u8))
            .collect()
    }

    /// The scripted sequence: scalar and ranged writes and reads, plus two
    /// requests that must fail.
    fn script(dev: &dyn BlockDevice) -> Vec<Result<Vec<u8>, DeviceError>> {
        let mut out = Vec::new();
        let mut run_read = |start: u64, blocks: usize, ranged: bool| {
            let mut buf = vec![0u8; blocks * BS];
            let r = if ranged {
                dev.read_blocks(start, &mut buf)
            } else {
                dev.read_block(start, &mut buf)
            };
            out.push(r.map(|()| buf));
        };
        dev.write_block(1, &pattern(1, 1)).unwrap();
        dev.write_blocks(4, &pattern(9, 3)).unwrap();
        dev.write_block(5, &pattern(3, 1)).unwrap();
        run_read(1, 1, false);
        run_read(3, 4, true);
        run_read(5, 1, false);
        run_read(16, 1, false); // out of range
        run_read(14, 4, true); // runs off the end
        out.push(dev.write_block(2, &[0u8; 7]).map(|()| Vec::new())); // bad size
        out
    }

    fn contents(dev: &dyn BlockDevice) -> Vec<u8> {
        let mut all = vec![0u8; 16 * BS];
        dev.read_blocks(0, &mut all).unwrap();
        all
    }

    #[test]
    fn pass_through_is_byte_identical_to_the_bare_device() {
        let bare = MemDevice::new(16, BS);
        let probed = ProbeDevice::new(
            MemDevice::new(16, BS),
            Arc::new(ProbeCounters::default()),
            None,
        );
        assert_eq!(script(&bare), script(&probed));
        assert_eq!(contents(&bare), contents(&probed));
        assert_eq!(probed.num_blocks(), 16);
        assert_eq!(probed.block_size(), BS);
    }

    #[test]
    fn counts_are_exact_on_the_scripted_sequence() {
        let counters = Arc::new(ProbeCounters::default());
        let probed = ProbeDevice::new(MemDevice::new(16, BS), counters.clone(), None);
        script(&probed);
        let c = counters.snapshot();
        // Failed requests are not counted.
        assert_eq!(c.write_calls, 3);
        assert_eq!(c.blocks_written, 5);
        assert_eq!(c.bytes_written, 5 * BS as u64);
        assert_eq!(c.read_calls, 3);
        assert_eq!(c.blocks_read, 6);
        assert_eq!(c.ranged_blocks, 3 + 4);
        assert_eq!(c.class_blocks_written, 0);
        assert_eq!(c.busy_ns, 0, "no tracer, no timing");

        let before = counters.snapshot();
        probed.write_block(0, &pattern(0, 1)).unwrap();
        let delta = counters.snapshot().since(&before);
        assert_eq!(delta.write_calls, 1);
        assert_eq!(delta.blocks_written, 1);
        assert_eq!(delta.read_calls, 0);
    }

    #[test]
    fn class_writes_are_attributed_to_the_marked_blocks_only() {
        let counters = Arc::new(ProbeCounters::default());
        let probed = ProbeDevice::new(MemDevice::new(16, BS), counters.clone(), None);
        probed.mark_class(&[5, 9]);
        probed.write_block(5, &pattern(1, 1)).unwrap(); // class
        probed.write_block(6, &pattern(1, 1)).unwrap(); // not class
        probed.write_blocks(8, &pattern(2, 3)).unwrap(); // 8, 9, 10: one in class
        let mut buf = vec![0u8; BS];
        probed.read_block(9, &mut buf).unwrap(); // reads never count
        let c = counters.snapshot();
        assert_eq!(c.class_blocks_written, 2);
        assert_eq!(c.blocks_written, 5);
    }

    #[test]
    fn spans_nest_under_the_operation_that_caused_them() {
        let counters = Arc::new(ProbeCounters::default());
        let tracer = Tracer::new();
        let probed = ProbeDevice::new(
            MemDevice::new(16, BS),
            counters.clone(),
            Some(tracer.clone()),
        );
        // Disabled: set-up I/O leaves no span.
        probed.write_block(0, &pattern(0, 1)).unwrap();
        assert_eq!(tracer.span_count(), 0);

        tracer.enable();
        tracer.begin_op();
        let t0 = Instant::now();
        probed.write_block(1, &pattern(1, 1)).unwrap();
        let mut buf = vec![0u8; 2 * BS];
        probed.read_blocks(1, &mut buf).unwrap();
        let t1 = Instant::now();
        tracer.end_op("layer.call", t0, t1);

        let spans = tracer.spans.lock().unwrap().clone();
        assert_eq!(spans.len(), 3);
        let op = spans[2];
        assert_eq!(
            (op.name, op.parent),
            ("layer.call", 0),
            "the operation span closes last and has no parent"
        );
        for child in &spans[..2] {
            assert_eq!(child.parent, op.id);
            assert_eq!(child.op, op.id);
            assert!(child.start_ns >= op.start_ns && child.end_ns <= op.end_ns);
        }
        assert_eq!(spans[0].name, "blockdev.write_block");
        assert_eq!(
            (spans[1].name, spans[1].block, spans[1].blocks),
            ("blockdev.read_blocks", 1, 2)
        );

        let agg = tracer.aggregates()["layer.call"];
        assert_eq!(agg.count, 1);
        assert_eq!(agg.device_read_blocks, 2);
        assert_eq!(agg.device_write_blocks, 1);
        assert_eq!(
            agg.device_ns,
            spans[..2]
                .iter()
                .map(|s| s.end_ns - s.start_ns)
                .sum::<u64>()
        );
        assert!(agg.device_ns <= agg.total_ns);
        assert_eq!(counters.snapshot().busy_ns, agg.device_ns);

        let mut dumped = Vec::new();
        tracer.write_jsonl(&mut dumped).unwrap();
        let text = String::from_utf8(dumped).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text
            .lines()
            .all(|l| l.starts_with("{\"id\":") && l.ends_with('}')));
    }
}
