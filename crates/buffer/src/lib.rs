//! # pario-buffer — buffering for parallel files
//!
//! "Just as important as the layout of data on disks is the development of
//! appropriate buffering techniques and I/O software" (Crockett 1989, §4).
//! This crate is that software layer:
//!
//! * [`BufferPool`] — a fixed pool of reusable block buffers with RAII
//!   guards and back-pressure.
//! * [`VolumeCache`] — the volume-wide shared block cache tier in front
//!   of the executor bank: CLOCK eviction over a fixed frame budget,
//!   read-through miss coalescing, write-behind run coalescing, and a
//!   scratch-device spill path for dirty overflow.
//! * [`CacheStats`] / [`WritePolicy`] — the cache traffic counters and
//!   the write-through/write-back policy knob [`VolumeCache`] reports
//!   and takes.
//!
//! Reading ahead and deferred writing for a *sequential* stream — the
//! other half of §4's buffering — live with the stream itself, in
//! `pario-fs`'s global view: a stream's windows go through the file
//! layer's span planner, and through this crate's cache when the volume
//! has one.
//!
//! ```
//! use pario_buffer::BufferPool;
//!
//! // Two 512-byte buffers: a third `acquire` would wait for a drop.
//! let pool = BufferPool::new(2, 512);
//! let (a, b) = (pool.acquire(), pool.acquire());
//! assert_eq!((a.len(), b.len(), pool.available()), (512, 512, 0));
//! assert!(pool.try_acquire().is_none());
//! drop(a);
//! assert_eq!(pool.available(), 1);
//! ```

#![warn(missing_docs)]

mod cache;
mod pool;
mod volume_cache;

pub use cache::{CacheStats, WritePolicy};
pub use pool::{BufferPool, PoolBuf};
pub use volume_cache::{
    CacheReadTicket, CacheWriteTicket, VolumeCache, VolumeCacheConfig, VolumeCacheStats,
};
