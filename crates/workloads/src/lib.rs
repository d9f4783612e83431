//! # pario-workloads — seeded workload generators
//!
//! The paper motivates each organization with an application pattern;
//! this crate generates those patterns deterministically so experiments
//! are exactly repeatable:
//!
//! * [`WrappedMatrix`] — wrapped matrix storage (type IS).
//! * [`TaskQueue`] — master/worker "queue with multiple servers" (SS).
//! * [`OutOfCore`] — multi-pass paging (PDA).
//! * [`SkewedBlocks`] — Zipf-skewed database blocks (GDA / declustering).
//! * [`Stencil1D`] — boundary-sharing relaxation (the §5 halo scenario).
//! * [`OpenLoop`] — fixed-rate arrival schedule for overload/scale
//!   experiments (E19), coordinated-omission safe.
//!
//! All generators emit [`Trace`]s consumable by both the real file
//! handles and the discrete-event simulator.
//!
//! ```
//! use pario_workloads::{TaskQueue, WrappedMatrix};
//!
//! let m = WrappedMatrix { rows: 9, cols: 4, processes: 3 };
//! assert_eq!(m.rows_of(1), vec![1, 4, 7]);
//!
//! let q = TaskQueue::generate(100, 10, 42);
//! assert!(q.self_sched_makespan(4) <= q.static_makespan(4));
//! ```

#![warn(missing_docs)]

mod generators;
mod openloop;
mod stencil;
mod trace;
mod zipf;

pub use generators::{record_payload, OutOfCore, SkewedBlocks, TaskQueue, WrappedMatrix};
pub use openloop::{OpenLoop, OpenLoopPlan};
pub use stencil::{Stencil1D, Stencil2D};
pub use trace::{Access, AccessKind, Trace};
pub use zipf::Zipf;
