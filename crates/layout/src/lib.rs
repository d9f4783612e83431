//! # pario-layout — data placement for parallel files
//!
//! Crockett's *File Concepts for Parallel I/O* (1989) proposes implementing
//! every parallel file organization "using multiple direct-access storage
//! devices to obtain parallelism in the I/O system". This crate is the
//! placement mathematics that makes that concrete: exact, invertible
//! mappings from a file's logical blocks onto `(device, device block)`
//! locations.
//!
//! * [`Striped`] — round-robin units: plain striping (type S/SS files),
//!   interleaved placement (type IS), declustering (`unit == 1`) and its
//!   whole-block baseline.
//! * [`Partitioned`] — contiguous per-process ranges (type PS), device per
//!   partition or stacked.
//! * [`ParityStriped`] — RAID-4/5 style parity placement for the paper's
//!   reliability discussion.
//! * [`Shadowed`] — mirrored device pairs ("shadowing").
//!
//! Every layout satisfies the bijection invariants checked by
//! [`check_bijection`], and [`runs`] coalesces logical ranges into the
//! per-device contiguous requests the global view issues.
//!
//! ```
//! use pario_layout::{runs, Layout, Striped};
//!
//! // 64 KiB stripe units (16 x 4 KiB blocks) over 4 drives.
//! let layout = Striped::new(4, 16);
//! let p = layout.map(35);
//! assert_eq!(p.device, 2); // block 35 sits in unit 2
//! assert_eq!(layout.invert(p.device, p.block), Some(35));
//! // A 128-block range coalesces into 8 per-device requests.
//! assert_eq!(runs(&layout, 0, 128).len(), 8);
//! ```

#![warn(missing_docs)]

mod parity;
mod partitioned;
mod shadow;
mod spec;
mod striped;
mod traits;

pub use parity::{ParityPlacement, ParityStriped};
pub use partitioned::Partitioned;
pub use shadow::Shadowed;
pub use spec::LayoutSpec;
pub use striped::Striped;
pub use traits::{check_bijection, runs, Layout, PhysBlock, Run};
