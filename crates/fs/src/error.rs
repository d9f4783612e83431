//! File-system error type.

use std::fmt;

use pario_disk::DiskError;

/// Errors surfaced by the volume and file layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// An underlying device error.
    Disk(DiskError),
    /// A device ran out of free blocks.
    NoSpace {
        /// Device that could not satisfy the allocation.
        device: usize,
        /// Blocks requested.
        requested: u64,
    },
    /// Named file does not exist.
    NotFound(String),
    /// Named file already exists.
    AlreadyExists(String),
    /// An impossible specification: a file's layout, or a slot or
    /// device the file or volume does not have.
    BadSpec(String),
    /// Access outside the file (record index past end, fixed-size
    /// overflow, device row past a slot's allocation).
    OutOfBounds {
        /// Offending record (or row) index.
        record: u64,
        /// File length in records (or the slot's rows) at the time.
        len: u64,
    },
    /// A fixed-size file (PS/PDA) cannot grow past its creation capacity.
    CapacityExceeded {
        /// Units (records or blocks, per the operation) requested.
        requested: u64,
        /// The file's fixed capacity in the same units.
        capacity: u64,
    },
    /// Metadata (superblock) could not be read or written.
    Meta(String),
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::Disk(e) => write!(f, "device error: {e}"),
            FsError::NoSpace { device, requested } => {
                write!(f, "device {device} cannot allocate {requested} blocks")
            }
            FsError::NotFound(name) => write!(f, "file '{name}' not found"),
            FsError::AlreadyExists(name) => write!(f, "file '{name}' already exists"),
            FsError::BadSpec(msg) => write!(f, "bad specification: {msg}"),
            FsError::OutOfBounds { record, len } => {
                write!(f, "record {record} out of bounds (file length {len})")
            }
            FsError::CapacityExceeded {
                requested,
                capacity,
            } => write!(
                f,
                "fixed-size file cannot grow to {requested} (capacity {capacity})"
            ),
            FsError::Meta(msg) => write!(f, "metadata error: {msg}"),
        }
    }
}

impl std::error::Error for FsError {}

impl From<DiskError> for FsError {
    fn from(e: DiskError) -> FsError {
        FsError::Disk(e)
    }
}

/// Result alias for file-system operations.
pub type Result<T> = std::result::Result<T, FsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_from() {
        let e: FsError = DiskError::Corruption { block: 3 }.into();
        assert!(e.to_string().contains("corruption"));
        assert!(FsError::NotFound("x".into()).to_string().contains("'x'"));
        assert!(FsError::OutOfBounds { record: 9, len: 4 }
            .to_string()
            .contains("9"));
    }
}
