//! Error type shared by all storage devices.

use std::fmt;

/// Errors surfaced by block devices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskError {
    /// The device has suffered a (possibly injected) fail-stop failure.
    DeviceFailed {
        /// Human-readable device identity.
        device: String,
    },
    /// A request addressed blocks beyond the end of the device.
    OutOfRange {
        /// Requested block.
        block: u64,
        /// Device capacity in blocks.
        capacity: u64,
    },
    /// A buffer did not match the device block size.
    BadBufferSize {
        /// Buffer length supplied.
        got: usize,
        /// Device block size expected.
        expected: usize,
    },
    /// Stored data failed verification (bit rot / injected corruption).
    Corruption {
        /// Device-local block address.
        block: u64,
    },
    /// A transient fault (bus glitch, injected soft error): the same
    /// operation is expected to succeed if retried.
    Transient {
        /// Human-readable device identity.
        device: String,
    },
    /// An underlying OS I/O error (file-backed devices).
    Io(String),
}

impl DiskError {
    /// True for faults that are expected to clear on retry
    /// ([`DiskError::Transient`]); false for permanent failures
    /// ([`DiskError::DeviceFailed`], [`DiskError::Corruption`]) and
    /// caller bugs ([`DiskError::OutOfRange`],
    /// [`DiskError::BadBufferSize`]).
    /// The executor's retry loop and the volume health state machine
    /// both branch on this split.
    pub fn is_transient(&self) -> bool {
        matches!(self, DiskError::Transient { .. })
    }
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::DeviceFailed { device } => write!(f, "device {device} has failed"),
            DiskError::OutOfRange { block, capacity } => {
                write!(f, "block {block} out of range (capacity {capacity})")
            }
            DiskError::BadBufferSize { got, expected } => {
                write!(f, "buffer of {got} bytes, device block size is {expected}")
            }
            DiskError::Corruption { block } => write!(f, "data corruption at block {block}"),
            DiskError::Transient { device } => {
                write!(f, "transient fault on device {device} (retryable)")
            }
            DiskError::Io(msg) => write!(f, "I/O error: {msg}"),
        }
    }
}

impl std::error::Error for DiskError {}

impl From<std::io::Error> for DiskError {
    fn from(e: std::io::Error) -> DiskError {
        DiskError::Io(e.to_string())
    }
}

/// Convenient result alias for device operations.
pub type Result<T> = std::result::Result<T, DiskError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(DiskError::DeviceFailed {
            device: "mem3".into()
        }
        .to_string()
        .contains("mem3"));
        assert!(DiskError::OutOfRange {
            block: 9,
            capacity: 4
        }
        .to_string()
        .contains("9"));
        let io: DiskError = std::io::Error::other("boom").into();
        assert!(io.to_string().contains("boom"));
        assert!(DiskError::Transient {
            device: "mem0".into()
        }
        .to_string()
        .contains("transient"));
    }

    #[test]
    fn transient_permanent_split() {
        assert!(DiskError::Transient { device: "d".into() }.is_transient());
        let permanent = [
            DiskError::DeviceFailed { device: "d".into() },
            DiskError::OutOfRange {
                block: 1,
                capacity: 1,
            },
            DiskError::BadBufferSize {
                got: 1,
                expected: 2,
            },
            DiskError::Corruption { block: 0 },
            DiskError::Io("x".into()),
        ];
        assert!(permanent.iter().all(|e| !e.is_transient()));
    }
}
