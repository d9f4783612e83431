//! The [`BlockDevice`] abstraction.
//!
//! Everything above this layer (caches, file systems, parallel file
//! handles) speaks to storage through this trait, so in-memory devices,
//! file-backed devices, and redundancy wrappers (shadow pairs, parity
//! groups) compose freely.

use std::sync::Arc;

use crate::error::{DiskError, Result};

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
/// job of the buffering layer above. A device moves *runs*: its one
/// transfer pair services a contiguous run as one request (one lock, one
/// positioned syscall, one queued request), and the single-block calls
/// are that pair with a run of one.
pub trait BlockDevice: Send + Sync {
    /// Block size in bytes. Constant for the device's lifetime.
    fn block_size(&self) -> usize;

    /// Capacity in blocks.
    fn num_blocks(&self) -> u64;

    /// Read `buf.len() / block_size` consecutive blocks starting at
    /// `block` into `buf` (a whole number of blocks) as one request.
    fn read_blocks_at(&self, block: u64, buf: &mut [u8]) -> Result<()>;

    /// Write `data` (a whole number of blocks) at `block` as one request.
    fn write_blocks_at(&self, block: u64, data: &[u8]) -> Result<()>;

    /// Read one block into `buf`: a run of one. Any other length is
    /// [`BadBufferSize`](DiskError::BadBufferSize).
    fn read_block(&self, block: u64, buf: &mut [u8]) -> Result<()> {
        one_block(self.block_size(), buf.len())?;
        self.read_blocks_at(block, buf)
    }

    /// Write one block from `data`: a run of one. Any other length is
    /// [`BadBufferSize`](DiskError::BadBufferSize).
    fn write_block(&self, block: u64, data: &[u8]) -> Result<()> {
        one_block(self.block_size(), data.len())?;
        self.write_blocks_at(block, data)
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
    /// run before blocking on any of them. A queued ticket completes
    /// through a slot the node recycles, so a queued submission
    /// allocates nothing once the node's free list has grown to its
    /// deepest backlog.
    fn submit_read_blocks(&self, block: u64, mut buf: Box<[u8]>) -> crate::Ticket<Box<[u8]>> {
        let res = self.read_blocks_at(block, &mut buf).map(|()| buf);
        crate::Ticket::ready(res)
    }

    /// As [`submit_read_blocks`](BlockDevice::submit_read_blocks), for
    /// one copy of a hedged read: raced against another copy
    /// ([`Ticket::race`](crate::Ticket::race)), it is worth something
    /// only while both are in flight, so a handle with a queue never
    /// services it on the calling thread. The default is
    /// `submit_read_blocks`.
    fn submit_hedged_read_blocks(&self, block: u64, buf: Box<[u8]>) -> crate::Ticket<Box<[u8]>> {
        self.submit_read_blocks(block, buf)
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

/// The single-block methods' length check.
fn one_block(expected: usize, got: usize) -> Result<()> {
    (got == expected)
        .then_some(())
        .ok_or(DiskError::BadBufferSize { got, expected })
}

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
}
