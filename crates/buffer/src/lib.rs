//! # pario-buffer — buffering for parallel files
//!
//! "Just as important as the layout of data on disks is the development of
//! appropriate buffering techniques and I/O software" (Crockett 1989, §4).
//! This crate is that software layer:
//!
//! * [`VolumeCache`] — the volume-wide shared block cache tier in front
//!   of the executor bank: CLOCK eviction over a fixed frame budget,
//!   read-through miss coalescing, and deferred writes (§4) that go
//!   home as coalesced runs at eviction or flush. Write-back is its
//!   only policy.
//! * [`CacheStats`] — the cache traffic counters [`VolumeCache`]
//!   reports.
//!
//! Reading ahead and deferred writing for a *sequential* stream — the
//! other half of §4's buffering — live with the stream itself, in
//! `pario-fs`'s global view: a stream's windows go through the file
//! layer's span planner, and through this crate's cache when the volume
//! has one.
//!
//! ```
//! use pario_buffer::{VolumeCache, VolumeCacheConfig};
//! use pario_disk::mem_array;
//!
//! // Write-back: two adjacent blocks are absorbed, then go home as one run.
//! let devices = mem_array(1, 16, 512);
//! let cache = VolumeCache::new(devices.clone(), VolumeCacheConfig::write_back(4));
//! cache.submit_write(0, 3, &[7u8; 1024]).unwrap();
//! let mut media = [0u8; 512];
//! devices[0].read_block(4, &mut media).unwrap();
//! assert_eq!(media[0], 0, "nothing on the device before a flush");
//! cache.flush().unwrap();
//! devices[0].read_block(4, &mut media).unwrap();
//! assert_eq!(media[0], 7);
//! assert_eq!(cache.stats().coalesced_writes, 1);
//! ```

#![warn(missing_docs)]

mod cache;
mod volume_cache;

pub use cache::CacheStats;
pub use volume_cache::{CacheReadTicket, VolumeCache, VolumeCacheConfig, VolumeCacheStats};
