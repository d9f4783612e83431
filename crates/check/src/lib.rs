//! `pario-check`: an in-tree concurrency model checker.
//!
//! The request path of pario is genuinely concurrent — shared
//! self-scheduled cursors, byte-range write locks, bounded admission,
//! and a per-device I/O executor — and stress tests alone cannot
//! explore the interleavings that break it. This crate provides the
//! sync primitives those layers build on, in two personalities:
//!
//! * **Normal builds** (no extra cfg): [`Mutex`], [`Condvar`] and the
//!   atomics are thin zero-overhead pass-throughs to `parking_lot` /
//!   `std::sync::atomic` (see `passthrough`).
//! * **`--cfg pario_check` builds**: the same types route every
//!   operation through a cooperative scheduler that runs one thread at
//!   a time and *chooses* who runs next, so a test can deterministically
//!   explore thread interleavings (seeded random walk and
//!   bounded-preemption strategies, pruned by sleep-set partial-order
//!   reduction), detect deadlocks and lock-order inversions against the
//!   declared [`hierarchy::LockLevel`] table, track the happens-before
//!   relation with vector clocks keyed on the `Ordering` each atomic
//!   call site passes, report data races on [`CheckCell`] data as two
//!   labeled sites, and print a replayable schedule string on failure.
//!
//! Model tests live in this crate's `tests/` directory behind
//! `#![cfg(pario_check)]` and drive the *real* production types
//! (`SharedCursor`, `ByteRangeLocks`, `Admission`, the fs RMW path)
//! compiled under the same cfg:
//!
//! ```text
//! RUSTFLAGS="--cfg pario_check" cargo test -p pario-check
//! ```
//!
//! To replay a failing schedule, paste the printed string into
//! `Explorer::replay` (or re-run the test: exploration is seeded and
//! deterministic).

pub mod hierarchy;
pub use hierarchy::LockLevel;

#[cfg(not(pario_check))]
mod passthrough;
#[cfg(not(pario_check))]
pub use passthrough::*;

#[cfg(pario_check)]
mod clocks;
#[cfg(pario_check)]
mod sched;

#[cfg(pario_check)]
mod checked;
#[cfg(pario_check)]
pub use checked::*;

#[cfg(pario_check)]
mod explore;
#[cfg(pario_check)]
pub use explore::{replay, spawn, yield_now, CheckFailure, Config, Explorer, JoinHandle, Report};
