//! Error type for parallel-file operations.

use std::fmt;

use pario_fs::FsError;

use crate::organization::Organization;

/// Errors from the parallel file layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// An underlying file-system error.
    Fs(FsError),
    /// A handle was requested that does not match the file's organization
    /// (use the `views` module to force a mismatched view deliberately).
    WrongOrganization {
        /// What the operation needed.
        expected: &'static str,
        /// What the file actually is.
        actual: Organization,
    },
    /// A process index was out of range for the organization.
    BadProcess {
        /// The offending index.
        process: u32,
        /// Processes the organization was created for.
        of: u32,
    },
    /// The file's stored organization tag is unparseable.
    BadTag(String),
    /// Sizing or geometry error at creation.
    BadGeometry(String),
    /// A process's view (a PS/PDA partition or an IS slot) refused a
    /// record outside it: the view holds `piece` records of every
    /// `stride` in `[start, end)`.
    OutsideView {
        /// The refused global record.
        record: u64,
        /// The view's first global record.
        start: u64,
        /// One past the view's last global record; `u64::MAX` for a
        /// view without end.
        end: u64,
        /// Records per contiguous piece of the view.
        piece: u64,
        /// Global records from one piece's start to the next's.
        stride: u64,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Fs(e) => write!(f, "{e}"),
            CoreError::WrongOrganization { expected, actual } => {
                write!(f, "operation needs a {expected} file, this one is {actual}")
            }
            CoreError::BadProcess { process, of } => {
                write!(f, "process {process} out of range (organization has {of})")
            }
            CoreError::BadTag(tag) => write!(f, "unparseable organization tag '{tag}'"),
            CoreError::BadGeometry(msg) => write!(f, "bad geometry: {msg}"),
            CoreError::OutsideView {
                record,
                start,
                end,
                piece,
                stride,
            } => {
                write!(f, "record {record} lies outside the view [{start}, ")?;
                match *end {
                    u64::MAX => write!(f, "…)")?,
                    end => write!(f, "{end})")?,
                }
                if piece < stride {
                    write!(f, ", {piece} records in every {stride}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl From<FsError> for CoreError {
    fn from(e: FsError) -> CoreError {
        CoreError::Fs(e)
    }
}

impl From<pario_disk::DiskError> for CoreError {
    fn from(e: pario_disk::DiskError) -> CoreError {
        CoreError::Fs(FsError::Disk(e))
    }
}

/// Intern a [`CoreError::WrongOrganization`] `expected` string back to
/// the `&'static str` values this library produces. This is the
/// wire-decode hook for `pario-net`: the variant carries a static
/// string, so a lossless round-trip over a byte protocol needs a way to
/// recover the original static. Unknown strings (which this workspace
/// never emits) map to `"unknown organization"`.
pub fn intern_expected(s: &str) -> &'static str {
    match s {
        "S" => "S",
        "PS" => "PS",
        "IS" => "IS",
        "SS" => "SS",
        "GDA" => "GDA",
        "PDA" => "PDA",
        "PS or PDA" => "PS or PDA",
        _ => "unknown organization",
    }
}

/// Result alias for parallel-file operations.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = CoreError::WrongOrganization {
            expected: "SS",
            actual: Organization::Sequential,
        };
        assert!(e.to_string().contains("SS"));
        assert!(e.to_string().contains('S'));
        let e: CoreError = FsError::NotFound("f".into()).into();
        assert!(e.to_string().contains("'f'"));
    }

    #[test]
    fn expected_strings_intern_round_trip() {
        for s in ["S", "PS", "IS", "SS", "GDA", "PDA", "PS or PDA"] {
            assert_eq!(intern_expected(s), s);
        }
        assert_eq!(intern_expected("bogus"), "unknown organization");
    }
}
