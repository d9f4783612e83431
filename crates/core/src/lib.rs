//! # pario-core — parallel file organizations (Crockett, 1989)
//!
//! The paper's primary contribution: *standardized file organizations for
//! parallel programs*, each with an internal view for concurrent access
//! and a global view for conventional sequential software.
//!
//! | Type | Organization | Internal view |
//! |------|--------------|---------------|
//! | S    | [`Organization::Sequential`] | [`ParallelFile::global_reader`] / [`ParallelFile::global_writer`] (the global view *is* the stream: striped, read ahead, written behind) |
//! | PS   | [`Organization::PartitionedSeq`] | [`PartitionHandle`] |
//! | IS   | [`Organization::InterleavedSeq`] | [`InterleavedHandle`] |
//! | SS   | [`Organization::SelfScheduledSeq`] | [`SelfSchedReader`] / [`SelfSchedWriter`] |
//! | GDA  | [`Organization::GlobalDirect`] | [`DirectHandle`] |
//! | PDA  | [`Organization::PartitionedDirect`] | [`PartitionHandle`] (`read_at`/`write_at`) |
//!
//! Plus the paper's §5 problem-area machinery: forced alternate views
//! ([`views`]), conversion utilities ([`convert`], [`convert_parallel`]),
//! and partition-boundary handling ([`read_partition_with_halo`],
//! [`create_replicated`]).
//!
//! ```
//! use pario_core::{Organization, ParallelFile};
//! use pario_fs::{Volume, VolumeConfig};
//!
//! let vol = Volume::create_in_memory(VolumeConfig {
//!     devices: 4,
//!     device_blocks: 256,
//!     block_size: 4096,
//! })
//! .unwrap();
//! let pf = ParallelFile::create(
//!     &vol,
//!     "results",
//!     Organization::SelfScheduledSeq,
//!     128,
//!     32,
//! )
//! .unwrap();
//! let w = pf.self_sched_writer().unwrap();
//! for i in 0..100u32 {
//!     w.write_next(&vec![i as u8; 128]).unwrap();
//! }
//! assert_eq!(w.finish().unwrap(), 100);
//! ```

#![warn(missing_docs)]

mod boundary;
mod convert;
mod direct;
mod error;
mod interleaved;
mod organization;
mod partitioned;
mod pfile;
mod selfsched;
pub mod views;

pub use boundary::{create_replicated, read_partition_with_halo, HaloRegion, ReplicatedBoundary};
pub use convert::{convert, convert_parallel};
pub use direct::DirectHandle;
pub use error::{intern_expected, CoreError, Result};
pub use interleaved::InterleavedHandle;
pub use organization::Organization;
pub use partitioned::{BlockCursor, PartitionHandle};
pub use pfile::ParallelFile;
pub use selfsched::{SelfSchedReader, SelfSchedWriter, SharedCursor};
