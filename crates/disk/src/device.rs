//! The [`BlockDevice`] abstraction.
//!
//! Everything above this layer (caches, file systems, parallel file
//! handles) speaks to storage through this trait, so in-memory devices,
//! file-backed devices, and redundancy wrappers (shadow pairs, parity
//! groups) compose freely.

use std::sync::Arc;

use crate::error::Result;

/// Cumulative traffic counters for one device.
///
/// `reads`/`writes` count *requests* issued to the device; `blocks_read`/
/// `blocks_written` count the blocks those requests moved. For single-block
/// transfers the pairs advance in lockstep; a vectored transfer of `n`
/// blocks costs one request and `n` blocks, so the ratio `blocks / requests`
/// measures how well a workload coalesces.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct IoCounters {
    /// Read requests completed.
    pub reads: u64,
    /// Write requests completed.
    pub writes: u64,
    /// Blocks transferred by read requests.
    pub blocks_read: u64,
    /// Blocks transferred by write requests.
    pub blocks_written: u64,
}

impl IoCounters {
    /// Total requests.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total blocks transferred.
    pub fn total_blocks(&self) -> u64 {
        self.blocks_read + self.blocks_written
    }
}

/// A random-access block storage device.
///
/// All methods take `&self`: devices are internally synchronised and shared
/// across threads behind `Arc`. Transfers are whole blocks — exactly the
/// discipline real device drivers impose — and partial-block framing is the
/// job of the buffering layer above.
pub trait BlockDevice: Send + Sync {
    /// Block size in bytes. Constant for the device's lifetime.
    fn block_size(&self) -> usize;

    /// Capacity in blocks.
    fn num_blocks(&self) -> u64;

    /// Read one block into `buf` (`buf.len()` must equal `block_size`).
    fn read_block(&self, block: u64, buf: &mut [u8]) -> Result<()>;

    /// Write one block from `data` (`data.len()` must equal `block_size`).
    fn write_block(&self, block: u64, data: &[u8]) -> Result<()>;

    /// Read `buf.len() / block_size` consecutive blocks starting at
    /// `block` into `buf` (`buf.len()` must be a whole number of blocks).
    ///
    /// The default implementation loops over [`read_block`]; devices that
    /// can service a contiguous run in one operation (one lock
    /// acquisition, one positioned syscall, one queued request) override
    /// it, which is what makes span I/O cheap.
    ///
    /// [`read_block`]: BlockDevice::read_block
    fn read_blocks_at(&self, block: u64, buf: &mut [u8]) -> Result<()> {
        let bs = self.block_size();
        assert_eq!(buf.len() % bs, 0, "buffer must be a whole number of blocks");
        for (i, chunk) in buf.chunks_mut(bs).enumerate() {
            self.read_block(block + i as u64, chunk)?;
        }
        Ok(())
    }

    /// Write `data` (a whole number of blocks) starting at `block`.
    ///
    /// Default loops over [`write_block`]; see [`read_blocks_at`] for the
    /// override contract.
    ///
    /// [`write_block`]: BlockDevice::write_block
    /// [`read_blocks_at`]: BlockDevice::read_blocks_at
    fn write_blocks_at(&self, block: u64, data: &[u8]) -> Result<()> {
        let bs = self.block_size();
        assert_eq!(
            data.len() % bs,
            0,
            "buffer must be a whole number of blocks"
        );
        for (i, chunk) in data.chunks(bs).enumerate() {
            self.write_block(block + i as u64, chunk)?;
        }
        Ok(())
    }

    /// Submit an asynchronous read of `buf.len() / block_size` blocks at
    /// `block`, returning a [`Ticket`](crate::Ticket) that yields the
    /// filled buffer on [`wait`](crate::Ticket::wait).
    ///
    /// The default services the request inline and returns a completed
    /// ticket, so every device supports the submission API; handles that
    /// route through a dedicated I/O processor
    /// ([`IoNode`](crate::IoNode)) override it with true queued
    /// submission — that is what lets span I/O enqueue every per-device
    /// run before blocking on any of them.
    fn submit_read_blocks(&self, block: u64, mut buf: Box<[u8]>) -> crate::Ticket<Box<[u8]>> {
        let res = self.read_blocks_at(block, &mut buf).map(|()| buf);
        crate::Ticket::ready(res)
    }

    /// Submit an asynchronous write of `data` (a whole number of blocks)
    /// at `block`. The ticket yields the buffer back on success so
    /// callers can recycle it.
    ///
    /// Default is inline-synchronous; see
    /// [`submit_read_blocks`](BlockDevice::submit_read_blocks).
    fn submit_write_blocks(&self, block: u64, data: Box<[u8]>) -> crate::Ticket<Box<[u8]>> {
        let res = self.write_blocks_at(block, &data).map(|()| data);
        crate::Ticket::ready(res)
    }

    /// Durably flush any device write-behind (no-op for RAM devices).
    fn flush(&self) -> Result<()> {
        Ok(())
    }

    /// Traffic counters since creation.
    fn counters(&self) -> IoCounters;

    /// Inject a fail-stop failure: every subsequent operation returns
    /// [`DeviceFailed`](crate::DiskError::DeviceFailed) until [`heal`].
    ///
    /// [`heal`]: BlockDevice::heal
    fn fail(&self);

    /// Clear an injected failure. Device contents are whatever they were —
    /// recovery (rebuild from parity or a shadow) is a higher layer's job.
    fn heal(&self);

    /// Whether the device is currently failed.
    fn is_failed(&self) -> bool;

    /// A short human-readable identity for error messages.
    fn label(&self) -> String {
        "device".to_string()
    }

    /// Queue statistics when this handle routes through a dedicated I/O
    /// processor ([`IoNode`](crate::IoNode)); `None` for plain devices.
    /// Lets a layer that only holds `DeviceRef`s (the volume's
    /// `executor_stats`) aggregate queue-wait and service-time
    /// attribution without keeping the nodes themselves around.
    fn ionode_stats(&self) -> Option<crate::IoNodeStats> {
        None
    }
}

/// A shared handle to any block device.
pub type DeviceRef = Arc<dyn BlockDevice>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemDisk;

    #[test]
    fn multi_block_helpers_round_trip() {
        let d = MemDisk::new(16, 64);
        let data: Vec<u8> = (0..128).map(|i| i as u8).collect();
        d.write_blocks_at(3, &data).unwrap();
        let mut back = vec![0u8; 128];
        d.read_blocks_at(3, &mut back).unwrap();
        assert_eq!(back, data);
        // MemDisk services each two-block helper call as ONE vectored
        // request moving two blocks.
        assert_eq!(
            d.counters(),
            IoCounters {
                reads: 1,
                writes: 1,
                blocks_read: 2,
                blocks_written: 2,
            }
        );
        assert_eq!(d.counters().total(), 2);
        assert_eq!(d.counters().total_blocks(), 4);
    }

    /// A device that opts out of the vectored overrides, so the trait's
    /// default per-block loop stays covered.
    struct PlainDevice(MemDisk);

    impl BlockDevice for PlainDevice {
        fn block_size(&self) -> usize {
            self.0.block_size()
        }
        fn num_blocks(&self) -> u64 {
            self.0.num_blocks()
        }
        fn read_block(&self, block: u64, buf: &mut [u8]) -> Result<()> {
            self.0.read_block(block, buf)
        }
        fn write_block(&self, block: u64, data: &[u8]) -> Result<()> {
            self.0.write_block(block, data)
        }
        fn counters(&self) -> IoCounters {
            self.0.counters()
        }
        fn fail(&self) {
            self.0.fail()
        }
        fn heal(&self) {
            self.0.heal()
        }
        fn is_failed(&self) -> bool {
            self.0.is_failed()
        }
    }

    #[test]
    fn default_span_impl_loops_per_block() {
        let d = PlainDevice(MemDisk::new(16, 64));
        let data: Vec<u8> = (0..192).map(|i| i as u8).collect();
        d.write_blocks_at(2, &data).unwrap();
        let mut back = vec![0u8; 192];
        d.read_blocks_at(2, &mut back).unwrap();
        assert_eq!(back, data);
        // The default implementation issues one request per block.
        assert_eq!(
            d.counters(),
            IoCounters {
                reads: 3,
                writes: 3,
                blocks_read: 3,
                blocks_written: 3,
            }
        );
        // Errors surface from the failing block.
        let mut big = vec![0u8; 64 * 16];
        assert!(d.read_blocks_at(1, &mut big).is_err());
    }
}
