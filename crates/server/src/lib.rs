//! # pario-server — the concurrent multi-client file service layer
//!
//! Crockett's organizations assume many cooperating processes share one
//! parallel file; ViPIOS-style client–server designs put dedicated
//! server processes in front of the volume to arbitrate exactly that.
//! This crate is that front door: a [`Server`] owns a
//! [`Volume`](pario_fs::Volume) and hands out [`Session`]s —
//! independent clients usable from separate threads. A session opens a
//! file one way, [`Session::open`], as a [`View`] — the organizations
//! are views processes take on one file — and gets a [`Handle`]: the
//! session, the view's claim if it takes one, and its cursor. Every
//! handle is served by the same verbs (next record, record *r*, next
//! block, finish, rewind); a verb the view lacks is refused with
//! [`ServerError::NotServed`]. The server enforces each view's sharing
//! semantics *across clients*:
//!
//! * **SS** — one server-side shared cursor per file: any session's next
//!   request gets the globally next record, none skipped or duplicated
//!   (the §3.1 invariant, now spanning clients; the same two-phase
//!   reservation as [`pario_core::SharedCursor`]).
//! * **PS / PDA** — partition ownership: each partition is claimed by at
//!   most one handle, and an access outside the claimed partition fails
//!   with the view's own [`pario_core::CoreError::OutsideView`] rather than silently
//!   corrupting a neighbour.
//! * **IS** — interleaved slots are claimed like partitions.
//! * **GDA** — writers take byte-range locks so overlapping writes are
//!   serialised; disjoint writers proceed in parallel
//!   ([`DirectClient`], which [`Session::open_direct`] also returns).
//! * **S** — plain sequential files are exclusive to one handle.
//!
//! The claims, the exclusive hold included, are one table per file,
//! keyed by view; a handle releases its claim when it drops.
//!
//! In front of the data path sits a bounded admission queue with
//! backpressure ([`Saturation::Block`]) or fail-fast
//! ([`Saturation::Reject`] → [`ServerError::Busy`]) and round-robin
//! fairness across sessions, plus a [`ServerStats`] snapshot of what the
//! server owns (admissions, rejections, queue-depth high water, the
//! latency histogram, sessions connected) so load experiments are
//! observable; the volume's executor, health and cache numbers are read
//! from the [`Volume`](pario_fs::Volume) itself. When the volume's health
//! board reports a degraded device, data-path failures surface as the
//! typed [`ServerError::Degraded`] advisory — clients see a brownout
//! naming the device, not an opaque disk error.
//!
//! ```
//! use pario_core::{Organization, ParallelFile};
//! use pario_fs::{Volume, VolumeConfig};
//! use pario_server::{Server, ServerConfig, View};
//!
//! let volume = Volume::create_in_memory(VolumeConfig {
//!     devices: 4,
//!     device_blocks: 256,
//!     block_size: 4096,
//! })
//! .unwrap();
//! // Producer fills a self-scheduled work queue.
//! let pf = ParallelFile::create(&volume, "queue", Organization::SelfScheduledSeq, 64, 4).unwrap();
//! let w = pf.self_sched_writer().unwrap();
//! for i in 0..100u32 {
//!     w.write_next(&[i as u8; 64]).unwrap();
//! }
//! w.finish().unwrap();
//!
//! // Two independent clients drain it through the server: every record
//! // is delivered to exactly one of them.
//! let server = Server::new(volume, ServerConfig::default());
//! let (a, b) = (server.connect(), server.connect());
//! let mut qa = a.open("queue", View::SelfSched).unwrap();
//! let mut qb = b.open("queue", View::SelfSched).unwrap();
//! let mut buf = [0u8; 64];
//! let mut served = 0;
//! loop {
//!     match (qa.read_next(&mut buf).unwrap(), qb.read_next(&mut buf).unwrap()) {
//!         (None, None) => break,
//!         (x, y) => served += x.is_some() as u64 + y.is_some() as u64,
//!     }
//! }
//! assert_eq!(served, 100);
//! // Ops admitted per request (including the end-of-file probes).
//! assert!(server.stats().total_admitted >= 100);
//! ```

#![warn(missing_docs)]

pub mod admission;
mod error;
mod session;
mod stats;

pub use admission::{Admission, Permit, Saturation};
pub use error::{Result, ServerError};
pub use session::{DirectClient, Handle, LockedRange, Server, ServerConfig, Session, View};
pub use stats::{quantile_nanos, LatencyBucket, LatencyHistogram, ServerStats, LATENCY_BUCKETS};
