//! # pario-disk — the storage substrate
//!
//! Crockett (1989) assumes "multiple direct-access storage devices" under
//! the file system. This crate supplies them: [`MemDisk`] (thread-safe
//! RAM device with failure injection and an optional calibrated service
//! delay) and [`FileDisk`] (file-backed, persistent), both implementing
//! [`BlockDevice`], the trait every layer above speaks; [`FaultDevice`]
//! for seeded fault plans; and the per-device I/O executor
//! ([`IoNode`]) every transfer goes through. The modelled 1989 drive
//! the virtual-time experiments run on is `pario_sim::disk`. [`wire`]
//! is the byte codec of everything the tree puts on a wire or on media
//! (`pario-net`'s frames, `pario-fs`'s meta region).
//!
//! ```
//! use pario_disk::{mem_array, BlockDevice};
//!
//! let bank = mem_array(4, 128, 4096);
//! bank[2].write_block(7, &[0xAB; 4096]).unwrap();
//! let mut buf = [0u8; 4096];
//! bank[2].read_block(7, &mut buf).unwrap();
//! assert_eq!(buf[0], 0xAB);
//! // Fail-stop injection:
//! bank[2].fail();
//! assert!(bank[2].read_block(7, &mut buf).is_err());
//! ```

#![warn(missing_docs)]

mod device;
mod error;
mod fault;
mod file;
mod ionode;
mod mem;
pub mod wire;

pub use device::{BlockDevice, DeviceRef, IoCounters};
pub use error::{DiskError, Result};
pub use fault::{FaultCounts, FaultDevice, FaultPlan};
pub use file::FileDisk;
pub use ionode::{IoNode, IoNodeStats, Ticket};
pub use mem::MemDisk;

use std::sync::Arc;

/// Build an array of `n` identical in-memory devices, each of
/// `blocks_per_device` blocks of `block_size` bytes — the standard device
/// bank used throughout tests and experiments.
pub fn mem_array(n: usize, blocks_per_device: u64, block_size: usize) -> Vec<DeviceRef> {
    (0..n)
        .map(|i| {
            Arc::new(MemDisk::named(
                &format!("mem{i}"),
                blocks_per_device,
                block_size,
            )) as DeviceRef
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_array_builds_labelled_devices() {
        let devs = mem_array(3, 8, 64);
        assert_eq!(devs.len(), 3);
        assert_eq!(devs[1].label(), "mem1");
        assert_eq!(devs[2].num_blocks(), 8);
        assert_eq!(devs[0].block_size(), 64);
    }
}
