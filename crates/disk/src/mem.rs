//! In-memory block device.
//!
//! `MemDisk` is the workhorse device for tests and for the real-thread
//! experiments where the costs being measured are *software* costs (lock
//! contention in self-scheduling, buffering overhead): storage itself is a
//! memcpy, optionally padded with a calibrated busy-wait so that I/O has a
//! nonzero service time to overlap with computation.

use std::sync::atomic::Ordering;

use pario_check::{AtomicBool, AtomicU64};
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use crate::device::{BlockDevice, IoCounters};
use crate::error::{DiskError, Result};

/// A thread-safe RAM-backed block device with failure injection.
pub struct MemDisk {
    block_size: usize,
    num_blocks: u64,
    /// Guards on this lock are statement-scoped: the counters below are
    /// yield points under the model checker, and a model thread parked
    /// at one must hold no real lock another thread can block on.
    data: RwLock<Box<[u8]>>,
    failed: AtomicBool,
    reads: AtomicU64,
    writes: AtomicU64,
    blocks_read: AtomicU64,
    blocks_written: AtomicU64,
    /// Busy-wait added to every block transfer, emulating device service
    /// time in wall-clock experiments. Zero by default.
    delay: Duration,
    name: String,
}

impl MemDisk {
    /// A zero-filled device of `num_blocks` blocks of `block_size` bytes.
    pub fn new(num_blocks: u64, block_size: usize) -> MemDisk {
        MemDisk::named("mem", num_blocks, block_size)
    }

    /// Like [`MemDisk::new`] with a label used in error messages.
    pub fn named(name: &str, num_blocks: u64, block_size: usize) -> MemDisk {
        assert!(block_size > 0, "block size must be positive");
        let bytes = (num_blocks as usize)
            .checked_mul(block_size)
            // invariant: a device larger than the address space is a config bug.
            .expect("device size overflows usize");
        MemDisk {
            block_size,
            num_blocks,
            data: RwLock::new(vec![0u8; bytes].into_boxed_slice()),
            failed: AtomicBool::new(false),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            blocks_read: AtomicU64::new(0),
            blocks_written: AtomicU64::new(0),
            delay: Duration::ZERO,
            name: name.to_string(),
        }
    }

    /// Add a service delay of `delay` to every block transfer.
    ///
    /// Delays of 100µs and above are slept (the calling thread yields the
    /// CPU, exactly as a thread blocked on a real device would — so
    /// read-ahead genuinely overlaps computation even on a single core);
    /// shorter delays are busy-waited for accuracy.
    pub fn with_delay(mut self, delay: Duration) -> MemDisk {
        self.delay = delay;
        self
    }

    /// Flip bit `bit` of block `block` in place, corrupting stored data.
    ///
    /// Models the paper's "single-bit error in a striped block"; detection
    /// and correction live in `pario-reliability`.
    pub fn corrupt_bit(&self, block: u64, bit: usize) {
        assert!(block < self.num_blocks);
        assert!(bit < self.block_size * 8);
        let mut data = self.data.write();
        let base = block as usize * self.block_size;
        data[base + bit / 8] ^= 1 << (bit % 8);
    }

    /// Overwrite the whole device with zeros (models replacing a failed
    /// drive with a blank spare before a rebuild).
    pub fn wipe(&self) {
        self.data.write().fill(0);
    }

    /// Checks a transfer of `len` bytes at `block`; returns its blocks.
    fn check_span(&self, block: u64, len: usize) -> Result<u64> {
        if self.failed.load(Ordering::Acquire) {
            return Err(DiskError::DeviceFailed {
                device: self.name.clone(),
            });
        }
        if !len.is_multiple_of(self.block_size) {
            return Err(DiskError::BadBufferSize {
                got: len,
                expected: self.block_size,
            });
        }
        let nblocks = (len / self.block_size) as u64;
        match block.checked_add(nblocks) {
            Some(end) if end <= self.num_blocks => Ok(nblocks),
            // Report the first block outside the device.
            _ => Err(DiskError::OutOfRange {
                block: block.max(self.num_blocks),
                capacity: self.num_blocks,
            }),
        }
    }

    fn service_delay(&self) {
        if self.delay.is_zero() {
            return;
        }
        if self.delay >= Duration::from_micros(100) {
            std::thread::sleep(self.delay);
        } else {
            let end = Instant::now() + self.delay;
            while Instant::now() < end {
                std::hint::spin_loop();
            }
        }
    }
}

impl BlockDevice for MemDisk {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    /// One service delay, one lock acquisition, one contiguous copy —
    /// however many blocks the run covers.
    fn read_blocks_at(&self, block: u64, buf: &mut [u8]) -> Result<()> {
        let nblocks = self.check_span(block, buf.len())?;
        if nblocks == 0 {
            return Ok(());
        }
        self.service_delay();
        let base = block as usize * self.block_size;
        buf.copy_from_slice(&self.data.read()[base..base + buf.len()]);
        self.reads.fetch_add(1, Ordering::Relaxed); // ordering: monotonic stats counter; read only by diagnostic snapshots
        self.blocks_read.fetch_add(nblocks, Ordering::Relaxed); // ordering: monotonic stats counter; read only by diagnostic snapshots
        Ok(())
    }

    /// The mirror of [`MemDisk::read_blocks_at`].
    fn write_blocks_at(&self, block: u64, data_in: &[u8]) -> Result<()> {
        let nblocks = self.check_span(block, data_in.len())?;
        if nblocks == 0 {
            return Ok(());
        }
        self.service_delay();
        let base = block as usize * self.block_size;
        self.data.write()[base..base + data_in.len()].copy_from_slice(data_in);
        self.writes.fetch_add(1, Ordering::Relaxed); // ordering: monotonic stats counter; read only by diagnostic snapshots
        self.blocks_written.fetch_add(nblocks, Ordering::Relaxed); // ordering: monotonic stats counter; read only by diagnostic snapshots
        Ok(())
    }

    fn counters(&self) -> IoCounters {
        IoCounters {
            reads: self.reads.load(Ordering::Relaxed), // ordering: diagnostic snapshot; staleness is acceptable
            writes: self.writes.load(Ordering::Relaxed), // ordering: diagnostic snapshot; staleness is acceptable
            blocks_read: self.blocks_read.load(Ordering::Relaxed), // ordering: diagnostic snapshot; staleness is acceptable
            blocks_written: self.blocks_written.load(Ordering::Relaxed), // ordering: diagnostic snapshot; staleness is acceptable
        }
    }

    fn fail(&self) {
        self.failed.store(true, Ordering::Release);
    }

    fn heal(&self) {
        self.failed.store(false, Ordering::Release);
    }

    fn is_failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    fn label(&self) -> String {
        self.name.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn read_write_round_trip() {
        let d = MemDisk::new(8, 32);
        let block = vec![0xAB; 32];
        d.write_block(5, &block).unwrap();
        let mut out = vec![0u8; 32];
        d.read_block(5, &mut out).unwrap();
        assert_eq!(out, block);
        // Unwritten blocks read as zeros.
        d.read_block(4, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn bounds_and_size_checks() {
        let d = MemDisk::new(4, 16);
        let mut buf = vec![0u8; 16];
        assert!(matches!(
            d.read_block(4, &mut buf),
            Err(DiskError::OutOfRange { .. })
        ));
        let mut small = vec![0u8; 8];
        assert!(matches!(
            d.read_block(0, &mut small),
            Err(DiskError::BadBufferSize {
                got: 8,
                expected: 16
            })
        ));
        assert!(matches!(
            d.write_block(0, &small),
            Err(DiskError::BadBufferSize { .. })
        ));
    }

    #[test]
    fn vectored_round_trip_counts_one_request() {
        let d = MemDisk::new(8, 32);
        let data: Vec<u8> = (0..96).map(|i| i as u8).collect();
        d.write_blocks_at(2, &data).unwrap();
        let mut back = vec![0u8; 96];
        d.read_blocks_at(2, &mut back).unwrap();
        assert_eq!(back, data);
        let c = d.counters();
        assert_eq!((c.reads, c.writes), (1, 1));
        assert_eq!((c.blocks_read, c.blocks_written), (3, 3));
        // The vectored and per-block views agree on contents.
        let mut one = vec![0u8; 32];
        d.read_block(3, &mut one).unwrap();
        assert_eq!(one, data[32..64]);
    }

    #[test]
    fn vectored_bounds_and_size_checks() {
        let d = MemDisk::new(4, 16);
        let mut buf = vec![0u8; 32];
        // Last block of the span out of range.
        assert!(matches!(
            d.read_blocks_at(3, &mut buf),
            Err(DiskError::OutOfRange {
                block: 4,
                capacity: 4
            })
        ));
        // Start out of range.
        assert!(matches!(
            d.write_blocks_at(5, &buf),
            Err(DiskError::OutOfRange { block: 5, .. })
        ));
        // Ragged length.
        let mut ragged = vec![0u8; 24];
        assert!(matches!(
            d.read_blocks_at(0, &mut ragged),
            Err(DiskError::BadBufferSize { got: 24, .. })
        ));
        // Empty spans are free no-ops.
        d.read_blocks_at(0, &mut []).unwrap();
        d.write_blocks_at(0, &[]).unwrap();
        assert_eq!(d.counters().total(), 0);
        // Failure still applies to vectored transfers.
        d.fail();
        assert!(matches!(
            d.read_blocks_at(0, &mut buf),
            Err(DiskError::DeviceFailed { .. })
        ));
    }

    #[test]
    fn fail_stop_and_heal() {
        let d = MemDisk::named("d7", 4, 16);
        let mut buf = vec![0u8; 16];
        d.fail();
        assert!(d.is_failed());
        match d.read_block(0, &mut buf) {
            Err(DiskError::DeviceFailed { device }) => assert_eq!(device, "d7"),
            other => panic!("expected failure, got {other:?}"),
        }
        assert!(d.write_block(0, &buf).is_err());
        d.heal();
        assert!(!d.is_failed());
        d.read_block(0, &mut buf).unwrap();
    }

    #[test]
    fn corrupt_bit_flips_exactly_one_bit() {
        let d = MemDisk::new(2, 16);
        d.write_block(1, &[0u8; 16]).unwrap();
        d.corrupt_bit(1, 9); // byte 1, bit 1
        let mut buf = vec![0u8; 16];
        d.read_block(1, &mut buf).unwrap();
        assert_eq!(buf[1], 0b10);
        assert!(buf.iter().enumerate().all(|(i, &b)| i == 1 || b == 0));
        d.corrupt_bit(1, 9); // flip back
        d.read_block(1, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn wipe_zeroes_everything() {
        let d = MemDisk::new(2, 8);
        d.write_block(0, &[1u8; 8]).unwrap();
        d.wipe();
        let mut buf = vec![9u8; 8];
        d.read_block(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn concurrent_writers_distinct_blocks() {
        let d = Arc::new(MemDisk::new(64, 128));
        crossbeam::thread::scope(|s| {
            for t in 0..8u8 {
                let d = Arc::clone(&d);
                s.spawn(move |_| {
                    for b in 0..8u64 {
                        let block = b + u64::from(t) * 8;
                        d.write_block(block, &[t + 1; 128]).unwrap();
                    }
                });
            }
        })
        .unwrap();
        let mut buf = vec![0u8; 128];
        for t in 0..8u8 {
            for b in 0..8u64 {
                d.read_block(b + u64::from(t) * 8, &mut buf).unwrap();
                assert!(buf.iter().all(|&x| x == t + 1));
            }
        }
        assert_eq!(d.counters().writes, 64);
    }

    #[test]
    fn delay_slows_transfers() {
        let fast = MemDisk::new(4, 64);
        let slow = MemDisk::new(4, 64).with_delay(Duration::from_micros(200));
        let mut buf = vec![0u8; 64];
        let t0 = Instant::now();
        for _ in 0..10 {
            slow.read_block(0, &mut buf).unwrap();
        }
        let slow_time = t0.elapsed();
        let t0 = Instant::now();
        for _ in 0..10 {
            fast.read_block(0, &mut buf).unwrap();
        }
        let fast_time = t0.elapsed();
        assert!(slow_time >= Duration::from_micros(2000));
        assert!(slow_time > fast_time);
    }
}
