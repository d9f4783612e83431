//! # pario-reliability — failure, redundancy, recovery
//!
//! The paper's §5 identifies reliability as the limiting factor on I/O
//! parallelism: parity handles a single failed drive for striped files,
//! shadowing is the expensive alternative, and restoring one drive from
//! backup tears cross-device consistency. The recovery rule itself —
//! degraded reads, reconstruction, `RawFile::recover_rows` — lives in
//! `pario-fs`; this crate holds the volume-wide sweeps over it:
//!
//! * [`rebuild_device`] — recovery after drive replacement, driven
//!   through the volume's health state machine in throttled bursts, so
//!   foreground I/O keeps flowing while the drive rebuilds and the
//!   device ends `Healthy`. It is the one way to rebuild: every
//!   redundant file on the device replays its slot from
//!   `RawFile::recover_rows` ([`RebuildThrottle::UNBOUNDED`] for a
//!   volume nothing else uses).
//! * [`ChecksumDevice`] — single-bit-error detection; combined with the
//!   file layer's parity reconstruction it *corrects* bit errors.
//! * [`scrub()`] + [`snapshot_device`] / [`restore_device`] — the
//!   partial-rollback consistency demonstration; [`repair`] recomputes
//!   blocks that read corrupt from the same rule.
//! * [`audit_volume`] — volume-wide allocator/extent/directory
//!   agreement, the invariant the crash-recovery sweep asserts after
//!   every simulated crash and remount.
//!
//! The failure model the paper's arithmetic rests on (MTBF, failure
//! schedules) is `pario_sim::failure`.

#![warn(missing_docs)]

mod audit;
mod checksum;
mod rebuild;
mod scrub;

pub use audit::{audit_volume, AuditReport};
pub use checksum::{fnv1a, ChecksumDevice};
pub use rebuild::{rebuild_device, RebuildReport, RebuildThrottle};
pub use scrub::{repair, restore_device, scrub, snapshot_device};
