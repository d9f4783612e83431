//! Error type for the service layer.

use std::fmt;

use pario_core::CoreError;
use pario_fs::{FsError, HealthState};

use crate::View;

/// Errors surfaced to service-layer clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// The admission queue is saturated and the server is configured to
    /// reject rather than queue (see
    /// [`Saturation::Reject`](crate::Saturation::Reject)).
    Busy,
    /// A type-S file is already open exclusively by another session.
    Exclusive {
        /// File name.
        name: String,
        /// Session currently holding the file.
        by: u64,
    },
    /// The requested partition (PS/PDA) or interleaved slot (IS) is
    /// already claimed by another session.
    Claimed {
        /// File name.
        name: String,
        /// Partition / process index.
        index: u32,
        /// Session currently holding the claim.
        by: u64,
    },
    /// A locked GDA operation addressed bytes outside the byte-range
    /// lock the caller holds (see `DirectClient::write_record_locked`):
    /// the write is refused rather than performed unserialised.
    RangeNotLocked {
        /// First byte the operation needed.
        lo: u64,
        /// One past the last byte the operation needed.
        hi: u64,
    },
    /// The verb called is not one the handle's view serves (a record
    /// read on a GDA handle opened as [`View::Direct`] is `read_record`,
    /// not `read_next`). Refused before admission.
    NotServed {
        /// The view the handle was opened as.
        view: View,
    },
    /// A device-level failure surfaced while the volume is running
    /// degraded — a *brownout advisory*, not an opaque disk error: the
    /// named device is Suspect / Failed / Rebuilding, redundant layouts
    /// keep serving (slower), and unprotected data on it is unavailable
    /// until the rebuild completes.
    Degraded {
        /// Volume device index the health board blames.
        device: usize,
        /// That device's health state at the time of the failure.
        state: HealthState,
    },
    /// An error from the parallel-file layer.
    Core(CoreError),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Busy => write!(f, "server busy: admission queue saturated"),
            ServerError::Exclusive { name, by } => {
                write!(f, "file '{name}' is held exclusively by session {by}")
            }
            ServerError::Claimed { name, index, by } => {
                write!(
                    f,
                    "partition {index} of '{name}' is claimed by session {by}"
                )
            }
            ServerError::RangeNotLocked { lo, hi } => write!(
                f,
                "bytes [{lo}, {hi}) are not covered by the held range lock"
            ),
            ServerError::NotServed { view } => {
                write!(f, "a {view:?} handle does not serve this verb")
            }
            ServerError::Degraded { device, state } => write!(
                f,
                "volume degraded: device {device} is {state}; redundant \
                 layouts keep serving"
            ),
            ServerError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<CoreError> for ServerError {
    fn from(e: CoreError) -> ServerError {
        ServerError::Core(e)
    }
}

impl From<FsError> for ServerError {
    fn from(e: FsError) -> ServerError {
        ServerError::Core(CoreError::Fs(e))
    }
}

/// Result alias for service-layer operations.
pub type Result<T> = std::result::Result<T, ServerError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(ServerError::Busy.to_string().contains("saturated"));
        let e = ServerError::Exclusive {
            name: "f".into(),
            by: 3,
        };
        assert!(e.to_string().contains("session 3"));
        let e = ServerError::Claimed {
            name: "f".into(),
            index: 2,
            by: 1,
        };
        assert!(e.to_string().contains("partition 2"));
        let e: ServerError = FsError::NotFound("x".into()).into();
        assert!(matches!(e, ServerError::Core(_)));
        let e = ServerError::NotServed {
            view: View::Partition(3),
        };
        assert!(e.to_string().contains("Partition(3) handle"));
        let e = ServerError::RangeNotLocked { lo: 64, hi: 128 };
        assert!(e.to_string().contains("[64, 128)"));
        let e = ServerError::Degraded {
            device: 1,
            state: HealthState::Rebuilding,
        };
        assert!(e.to_string().contains("device 1 is rebuilding"));
    }
}
