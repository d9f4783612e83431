//! # pario-fs — the parallel file system layer
//!
//! The operating-system half of Crockett (1989): volumes over multiple
//! storage devices, a directory of files with durable metadata, per-device
//! block allocation, and the *global view* that lets any parallel file be
//! consumed by conventional sequential software.
//!
//! * [`Volume`] — device array + allocator + directory + superblock.
//! * [`RawFile`] — block/record access with address translation and
//!   transparent redundancy (parity read-modify-write and reconstruction,
//!   shadow dual-writes and failover).
//! * [`GlobalReader`] / [`GlobalWriter`] / [`copy_global`] — the
//!   conventional sequential interface and the conversion utility.
//! * [`RangeLocks`] — the one range-lock type: a file's device rows,
//!   and the server's GDA byte ranges.
//!
//! The parallel *internal views* (S/PS/IS/SS/GDA/PDA handles) live in
//! `pario-core`, layered on [`RawFile`].
//!
//! ```
//! use pario_fs::{FileSpec, Volume, VolumeConfig};
//! use pario_layout::LayoutSpec;
//!
//! let vol = Volume::create_in_memory(VolumeConfig {
//!     devices: 4,
//!     device_blocks: 256,
//!     block_size: 512,
//! })
//! .unwrap();
//! let f = vol
//!     .create_file(FileSpec::new(
//!         "data",
//!         128,
//!         4,
//!         LayoutSpec::Striped { devices: 4, unit: 1 },
//!     ))
//!     .unwrap();
//! f.write_record(9, &[7u8; 128]).unwrap();
//! let mut buf = [0u8; 128];
//! f.read_record(9, &mut buf).unwrap();
//! assert_eq!(buf[0], 7);
//! assert_eq!(f.len_records(), 10);
//! ```

#![warn(missing_docs)]

mod alloc;
mod codec;
mod error;
mod file;
mod frame;
mod global;
mod health;
mod journal;
mod locks;
mod meta;
mod staging;
mod superblock;
mod volume;

pub use alloc::{extents_len, resolve, Allocator, Extent};
pub use error::{FsError, Result};
pub use file::RawFile;
pub use global::{copy_global, ByteReader, ByteWriter, GlobalReader, GlobalWriter};
pub use health::{legal_transition, DeviceHealth, HealthBoard, HealthPolicy, HealthState};
pub use locks::{RangeGuard, RangeLocks};
pub use meta::FileMeta;
pub use pario_buffer::{VolumeCache, VolumeCacheConfig, VolumeCacheStats};
pub use superblock::{MetaStatus, MountReport};
pub use volume::{FileSpec, FileState, Volume, VolumeConfig};
