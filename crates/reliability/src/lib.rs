//! # pario-reliability — failure, redundancy, recovery
//!
//! The paper's §5 identifies reliability as the limiting factor on I/O
//! parallelism: MTBF falls linearly in device count, parity handles a
//! single failed drive for striped files but not independently-accessed
//! layouts, shadowing is the expensive alternative, and restoring one
//! drive from backup tears cross-device consistency. This crate makes
//! each of those statements executable:
//!
//! * [`mtbf`] analytics reproducing the paper's 10-device / 100-device
//!   arithmetic, with a Monte-Carlo cross-check.
//! * [`ChecksumDevice`] — single-bit-error detection; combined with the
//!   file layer's parity reconstruction it *corrects* bit errors.
//! * [`rebuild_device`] — recovery after drive replacement, driven
//!   through the volume's health state machine in throttled bursts, so
//!   foreground I/O keeps flowing while the drive rebuilds and the
//!   device ends `Healthy`. It is the one way to rebuild: every
//!   redundant file on the device replays its slot from
//!   `RawFile::recover_rows`, the recovery rule `pario-fs` keeps beside
//!   its degraded reads ([`RebuildThrottle::UNBOUNDED`] for a volume
//!   nothing else uses).
//! * [`scrub`] + [`snapshot_device`] / [`restore_device`] — the
//!   partial-rollback consistency demonstration; [`repair`] recomputes
//!   blocks that read corrupt from the same rule.
//! * [`audit_volume`] — volume-wide allocator/extent/directory
//!   agreement, the invariant the crash-recovery sweep asserts after
//!   every simulated crash and remount.
//! * [`failure_schedule`] — deterministic exponential failure campaigns.
//!
//! ```
//! use pario_reliability::{system_mtbf_hours, PAPER_DEVICE_MTBF_HOURS};
//!
//! // The paper's arithmetic: ten 30,000-hour drives fail every 3,000 h.
//! assert_eq!(system_mtbf_hours(PAPER_DEVICE_MTBF_HOURS, 10), 3_000.0);
//! ```

#![warn(missing_docs)]

mod audit;
mod checksum;
mod inject;
pub mod mtbf;
mod rebuild;
mod scrub;

pub use audit::{audit_volume, AuditReport};
pub use checksum::{fnv1a, ChecksumDevice};
pub use inject::{failure_schedule, FailureEvent};
pub use mtbf::{
    expected_failures, monte_carlo_mttf, paper_table, system_mtbf_hours, MtbfRow, HOURS_PER_YEAR,
    PAPER_DEVICE_MTBF_HOURS,
};
pub use rebuild::{rebuild_device, RebuildReport, RebuildThrottle};
pub use scrub::{repair, restore_device, scrub, snapshot_device};
