//! `ProbeDisk`: the benchmark's own `BlockDevice`, wrapped around each
//! innermost device and handed to `Volume::new`, so it sits *under* the
//! executor bank and sees every request the program sends to a device.
//!
//! It counts requests, blocks, flushes, writes landing in the volume's
//! meta region and a request-size histogram — always, at the cost of a
//! few relaxed atomic adds — and records one leaf span per request only
//! while tracing is switched on.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pario_disk::{BlockDevice, DeviceRef, IoCounters, IoNodeStats, Ticket};

/// Request sizes `1..SIZE_BUCKETS-1` blocks are counted exactly; the
/// last bucket holds everything larger.
pub const SIZE_BUCKETS: usize = 130;

/// The benchmark's clock and tracing switch, shared by the generator
/// and every `ProbeDisk` so all spans are on one time base.
pub struct TraceCtl {
    epoch: Instant,
    on: AtomicBool,
}

impl TraceCtl {
    /// A clock starting now, tracing off.
    pub fn new() -> Arc<TraceCtl> {
        Arc::new(TraceCtl {
            epoch: Instant::now(),
            on: AtomicBool::new(false),
        })
    }

    /// Nanoseconds since the clock started.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Switch leaf-span recording on or off.
    pub fn set(&self, on: bool) {
        // Relaxed: the flag gates a statistic, it publishes no data.
        self.on.store(on, Ordering::Relaxed);
    }

    /// Whether leaf spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }
}

/// One device request, as seen under the executor.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LeafSpan {
    /// Volume device index.
    pub dev: usize,
    /// Write (`true`) or read.
    pub write: bool,
    /// First absolute device block.
    pub block: u64,
    /// Blocks transferred.
    pub blocks: u64,
    /// Service start, `TraceCtl` nanoseconds.
    pub start_ns: u64,
    /// Service end.
    pub end_ns: u64,
}

/// A snapshot of a probe's counters; subtract two for a window's delta.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProbeCounts {
    /// Read requests.
    pub reads: u64,
    /// Write requests.
    pub writes: u64,
    /// Blocks moved by reads.
    pub blocks_read: u64,
    /// Blocks moved by writes.
    pub blocks_written: u64,
    /// `flush` calls.
    pub flushes: u64,
    /// Write requests that start inside the meta region.
    pub meta_writes: u64,
    /// Requests by size in blocks (see [`SIZE_BUCKETS`]).
    pub sizes: Vec<u64>,
}

impl ProbeCounts {
    /// All-zero counts.
    pub fn zero() -> ProbeCounts {
        ProbeCounts {
            reads: 0,
            writes: 0,
            blocks_read: 0,
            blocks_written: 0,
            flushes: 0,
            meta_writes: 0,
            sizes: vec![0; SIZE_BUCKETS],
        }
    }

    /// `self + other`, field by field.
    pub fn plus(&self, other: &ProbeCounts) -> ProbeCounts {
        self.zip(other, |a, b| a + b)
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &ProbeCounts) -> ProbeCounts {
        self.zip(earlier, |a, b| a - b)
    }

    fn zip(&self, o: &ProbeCounts, f: impl Fn(u64, u64) -> u64) -> ProbeCounts {
        ProbeCounts {
            reads: f(self.reads, o.reads),
            writes: f(self.writes, o.writes),
            blocks_read: f(self.blocks_read, o.blocks_read),
            blocks_written: f(self.blocks_written, o.blocks_written),
            flushes: f(self.flushes, o.flushes),
            meta_writes: f(self.meta_writes, o.meta_writes),
            sizes: self
                .sizes
                .iter()
                .zip(&o.sizes)
                .map(|(a, b)| f(*a, *b))
                .collect(),
        }
    }

    /// Read plus write requests.
    pub fn requests(&self) -> u64 {
        self.reads + self.writes
    }

    /// Blocks moved in either direction.
    pub fn blocks(&self) -> u64 {
        self.blocks_read + self.blocks_written
    }

    /// Median request size in blocks (the overflow bucket reads as
    /// `SIZE_BUCKETS - 1`); 0 with no requests.
    pub fn size_p50(&self) -> u64 {
        let total: u64 = self.sizes.iter().sum();
        let mut seen = 0;
        for (size, n) in self.sizes.iter().enumerate() {
            seen += n;
            if total > 0 && seen * 2 >= total {
                return size as u64;
            }
        }
        0
    }
}

/// The counting, optionally span-recording pass-through device.
pub struct ProbeDisk {
    inner: DeviceRef,
    dev: usize,
    ctl: Arc<TraceCtl>,
    /// Blocks `0..meta_blocks` are the volume's meta region (device 0
    /// only; set once the volume exists).
    meta_blocks: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    blocks_read: AtomicU64,
    blocks_written: AtomicU64,
    flushes: AtomicU64,
    meta_writes: AtomicU64,
    sizes: Vec<AtomicU64>,
    spans: Mutex<Vec<LeafSpan>>,
}

impl ProbeDisk {
    /// Wrap `inner` as volume device `dev`.
    pub fn wrap(inner: DeviceRef, dev: usize, ctl: Arc<TraceCtl>) -> Arc<ProbeDisk> {
        Arc::new(ProbeDisk {
            inner,
            dev,
            ctl,
            meta_blocks: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            blocks_read: AtomicU64::new(0),
            blocks_written: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            meta_writes: AtomicU64::new(0),
            sizes: (0..SIZE_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Declare blocks `0..blocks` of this device the meta region.
    pub fn set_meta_region(&self, blocks: u64) {
        self.meta_blocks.store(blocks, Ordering::Relaxed);
    }

    /// Current counters. Every counter here is a statistic read after
    /// the fact, hence `Relaxed` throughout.
    pub fn counts(&self) -> ProbeCounts {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        ProbeCounts {
            reads: get(&self.reads),
            writes: get(&self.writes),
            blocks_read: get(&self.blocks_read),
            blocks_written: get(&self.blocks_written),
            flushes: get(&self.flushes),
            meta_writes: get(&self.meta_writes),
            sizes: self.sizes.iter().map(get).collect(),
        }
    }

    /// Take the leaf spans recorded so far.
    pub fn take_spans(&self) -> Vec<LeafSpan> {
        std::mem::take(&mut self.spans.lock().expect("probe span lock"))
    }

    /// Count one request of `blocks` blocks at `block`, run it, and
    /// record its service span if tracing is on.
    fn probe<T>(&self, write: bool, block: u64, blocks: u64, op: impl FnOnce() -> T) -> T {
        let add = |a: &AtomicU64, n: u64| a.fetch_add(n, Ordering::Relaxed);
        if write {
            add(&self.writes, 1);
            add(&self.blocks_written, blocks);
            if block < self.meta_blocks.load(Ordering::Relaxed) {
                add(&self.meta_writes, 1);
            }
        } else {
            add(&self.reads, 1);
            add(&self.blocks_read, blocks);
        }
        add(&self.sizes[(blocks as usize).min(SIZE_BUCKETS - 1)], 1);
        if !self.ctl.enabled() {
            return op();
        }
        let start_ns = self.ctl.now_ns();
        let out = op();
        let end_ns = self.ctl.now_ns();
        self.spans.lock().expect("probe span lock").push(LeafSpan {
            dev: self.dev,
            write,
            block,
            blocks,
            start_ns,
            end_ns,
        });
        out
    }

    fn blocks_in(&self, bytes: usize) -> u64 {
        (bytes / self.inner.block_size()) as u64
    }
}

impl BlockDevice for ProbeDisk {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_block(&self, block: u64, buf: &mut [u8]) -> pario_disk::Result<()> {
        self.probe(false, block, 1, || self.inner.read_block(block, buf))
    }

    fn write_block(&self, block: u64, data: &[u8]) -> pario_disk::Result<()> {
        self.probe(true, block, 1, || self.inner.write_block(block, data))
    }

    fn read_blocks_at(&self, block: u64, buf: &mut [u8]) -> pario_disk::Result<()> {
        let n = self.blocks_in(buf.len());
        self.probe(false, block, n, || self.inner.read_blocks_at(block, buf))
    }

    fn write_blocks_at(&self, block: u64, data: &[u8]) -> pario_disk::Result<()> {
        let n = self.blocks_in(data.len());
        self.probe(true, block, n, || self.inner.write_blocks_at(block, data))
    }

    fn submit_read_blocks(&self, block: u64, buf: Box<[u8]>) -> Ticket<Box<[u8]>> {
        let n = self.blocks_in(buf.len());
        self.probe(false, block, n, || {
            self.inner.submit_read_blocks(block, buf)
        })
    }

    fn submit_write_blocks(&self, block: u64, data: Box<[u8]>) -> Ticket<Box<[u8]>> {
        let n = self.blocks_in(data.len());
        self.probe(true, block, n, || {
            self.inner.submit_write_blocks(block, data)
        })
    }

    fn flush(&self) -> pario_disk::Result<()> {
        self.flushes.fetch_add(1, Ordering::Relaxed);
        self.inner.flush()
    }

    fn counters(&self) -> IoCounters {
        self.inner.counters()
    }

    fn fail(&self) {
        self.inner.fail()
    }

    fn heal(&self) {
        self.inner.heal()
    }

    fn is_failed(&self) -> bool {
        self.inner.is_failed()
    }

    fn label(&self) -> String {
        format!("probe({})", self.inner.label())
    }

    fn ionode_stats(&self) -> Option<IoNodeStats> {
        self.inner.ionode_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pario_disk::MemDisk;

    const BS: usize = 64;

    /// A mixed workload through every forwarded path: the probe's
    /// counts equal the wrapped `MemDisk`'s own, and an unprobed twin
    /// fed the same calls ends with the same bytes.
    #[test]
    fn counts_match_inner_and_bytes_are_untouched() {
        let ctl = TraceCtl::new();
        let mem = Arc::new(MemDisk::new(64, BS));
        let probe = ProbeDisk::wrap(mem.clone(), 0, ctl.clone());
        probe.set_meta_region(8);
        let twin = MemDisk::new(64, BS);
        let pat = |tag: u8, blocks: usize| -> Vec<u8> {
            (0..blocks * BS)
                .map(|i| tag.wrapping_add(i as u8))
                .collect()
        };

        for dev in [&*probe as &dyn BlockDevice, &twin] {
            dev.write_block(3, &pat(1, 1)).unwrap(); // meta region
            dev.write_block(20, &pat(2, 1)).unwrap();
            dev.write_blocks_at(30, &pat(3, 4)).unwrap();
            dev.submit_write_blocks(40, pat(4, 2).into_boxed_slice())
                .wait()
                .unwrap();
            let mut b1 = vec![0u8; BS];
            dev.read_block(20, &mut b1).unwrap();
            let mut b3 = vec![0u8; 3 * BS];
            dev.read_blocks_at(30, &mut b3).unwrap();
            dev.submit_read_blocks(40, vec![0u8; 2 * BS].into_boxed_slice())
                .wait()
                .unwrap();
            dev.flush().unwrap();
        }

        let c = probe.counts();
        let inner = mem.counters();
        assert_eq!(
            (c.reads, c.writes, c.blocks_read, c.blocks_written),
            (
                inner.reads,
                inner.writes,
                inner.blocks_read,
                inner.blocks_written
            )
        );
        assert_eq!(probe.counters(), inner);
        assert_eq!((c.reads, c.writes), (3, 4));
        assert_eq!((c.blocks_read, c.blocks_written), (6, 8));
        assert_eq!((c.flushes, c.meta_writes), (1, 1));
        assert_eq!(
            (c.sizes[1], c.sizes[2], c.sizes[3], c.sizes[4]),
            (3, 2, 1, 1)
        );
        assert_eq!(c.size_p50(), 2);

        let mut a = vec![0u8; 64 * BS];
        let mut b = vec![0u8; 64 * BS];
        mem.read_blocks_at(0, &mut a).unwrap();
        twin.read_blocks_at(0, &mut b).unwrap();
        assert_eq!(a, b, "the probe changes no bytes");
        assert!(
            probe.take_spans().is_empty(),
            "no spans while tracing is off"
        );
    }

    #[test]
    fn spans_only_while_tracing() {
        let ctl = TraceCtl::new();
        let probe = ProbeDisk::wrap(Arc::new(MemDisk::new(16, BS)), 2, ctl.clone());
        let mut buf = vec![0u8; 2 * BS];
        probe.read_blocks_at(4, &mut buf).unwrap();
        ctl.set(true);
        probe.read_blocks_at(4, &mut buf).unwrap();
        probe.write_block(9, &buf[..BS]).unwrap();
        ctl.set(false);
        probe.write_block(9, &buf[..BS]).unwrap();
        let spans = probe.take_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (
                spans[0].dev,
                spans[0].write,
                spans[0].block,
                spans[0].blocks
            ),
            (2, false, 4, 2)
        );
        assert!(spans[1].write && spans[1].start_ns <= spans[1].end_ns);
        assert_eq!(probe.counts().requests(), 4);
        let d = probe.counts().since(&ProbeCounts::zero());
        assert_eq!(d.blocks(), 6);
    }
}
