//! # pario — parallel file organizations, after Crockett (1989)
//!
//! `pario` is a workspace-level facade re-exporting every subsystem of the
//! reproduction of Thomas W. Crockett, *File Concepts for Parallel I/O*
//! (ICASE Interim Report 7 / NASA CR-181843, May 1989):
//!
//! * [`core`] — the paper's contribution: the six standard parallel file
//!   organizations (S, PS, IS, SS, GDA, PDA) with internal and global views,
//!   cross-view adapters, format conversion, and boundary replication.
//! * [`fs`] — volumes, allocation, metadata, directories, global views.
//! * [`layout`] — striped / partitioned / interleaved / declustered / parity
//!   / shadowed data placement.
//! * [`disk`] — the storage substrate: real in-memory and file-backed block
//!   devices, fault injection, and the per-device I/O executor.
//! * [`buffer`] — the volume-wide write-back block cache, with miss and
//!   write-back coalescing.
//! * [`sim`] — the deterministic discrete-event engine timing experiments
//!   run on, with the models of the 1989 hardware: a parameterised
//!   rotating-disk timing model and the MTBF / failure model.
//! * [`server`] — the concurrent multi-client service layer: sessions,
//!   per-organization sharing semantics, bounded admission, statistics.
//! * [`reliability`] — device rebuild, scrub and repair, snapshot and
//!   rollback, checksums, consistency checking.
//! * [`workloads`] — seeded workload generators used by the experiments.
//!
//! See `README.md` for a tour and `DESIGN.md` for the experiment index.
//!
//! ## Quickstart
//!
//! ```
//! use pario::core::{Organization, ParallelFile};
//! use pario::fs::{Volume, VolumeConfig};
//!
//! // A volume over 4 in-memory devices of 1 MiB each.
//! let volume = Volume::create_in_memory(VolumeConfig {
//!     devices: 4,
//!     device_blocks: 256,
//!     block_size: 4096,
//! })
//! .unwrap();
//!
//! // A self-scheduled parallel file holding 100 records of 128 bytes.
//! let pf = ParallelFile::create(
//!     &volume,
//!     "work.queue",
//!     Organization::SelfScheduledSeq,
//!     128,
//!     32,
//! )
//! .unwrap();
//!
//! let writer = pf.self_sched_writer().unwrap();
//! for i in 0..100u32 {
//!     let rec = vec![i as u8; 128];
//!     writer.write_next(&rec).unwrap();
//! }
//! writer.finish().unwrap();
//! assert_eq!(pf.len_records(), 100);
//! ```

pub mod cli;

pub use pario_buffer as buffer;
pub use pario_core as core;
pub use pario_disk as disk;
pub use pario_fs as fs;
pub use pario_layout as layout;
pub use pario_net as net;
pub use pario_reliability as reliability;
pub use pario_server as server;
pub use pario_sim as sim;
pub use pario_workloads as workloads;
