//! # pario-sim — deterministic discrete-event I/O simulation
//!
//! The timing experiments in Crockett's *File Concepts for Parallel I/O*
//! (1989) concern the interaction of parallel processes with a bank of
//! rotating storage devices: how striping scales transfer rates, how seeks
//! degrade a device shared by many processes, how read-ahead overlaps I/O
//! with computation. This crate provides the substrate those experiments run
//! on: a deterministic discrete-event engine with
//!
//! * a virtual nanosecond clock ([`SimTime`]),
//! * scripted processes ([`Script`]/[`Op`]) that compute, issue blocking or
//!   asynchronous device requests, and synchronise at barriers,
//! * pluggable per-device service models ([`DeviceModel`]), among them
//!   the modelled 1989 drive with seek/rotation/transfer timing and arm
//!   scheduling ([`disk`]),
//! * the drive's failure model: MTBF arithmetic and seeded failure
//!   schedules ([`failure`]),
//! * and per-run measurement ([`SimReport`]).
//!
//! Every model of the 1989 hardware — its timing and its failures —
//! lives here; the product crates hold only the product.
//!
//! Everything is exactly reproducible: equal-time events are ordered by
//! insertion sequence and no wall-clock or OS entropy enters the engine.
//!
//! ```
//! use pario_sim::{FixedLatencyModel, Script, SimTime, Simulation};
//!
//! let mut sim = Simulation::new();
//! let disks: Vec<usize> = (0..4)
//!     .map(|_| {
//!         sim.add_device(Box::new(FixedLatencyModel::new(
//!             SimTime::from_us(100),
//!             SimTime::from_us(10),
//!         )))
//!     })
//!     .collect();
//! // One process streams 64 blocks striped round-robin over 4 devices.
//! let mut script = Script::new();
//! for b in 0..64u64 {
//!     script = script.read(disks[(b % 4) as usize], b / 4, 1);
//! }
//! let report = Simulation::run({
//!     sim.add_proc(script.build());
//!     sim
//! });
//! assert!(report.makespan > SimTime::ZERO);
//! ```

#![warn(missing_docs)]

pub mod disk;
mod engine;
pub mod failure;
mod model;
mod request;
mod script;
mod stats;
mod time;

pub use engine::Simulation;
pub use model::{DeviceModel, FixedLatencyModel};
pub use request::{DiskReq, PendingReq, ReqKind, ServiceBreakdown, Started};
pub use script::{Op, Script};
pub use stats::{DeviceStats, ProcStats, SimReport, TraceEvent};
pub use time::SimTime;
