//! Error type for store encoding, decoding, and I/O.

use std::fmt;
use std::path::PathBuf;
use swim_trace::TraceError;

/// Errors produced while writing or reading a columnar trace store.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// Underlying I/O failure with no file attribution (in-memory
    /// sources, generic writers).
    Io(std::io::Error),
    /// I/O failure on a specific store file: every path-based entry point
    /// ([`crate::Store::open`], per-scan reopens, chunk reads,
    /// [`crate::write_store_path`]) attributes its errors to the file so
    /// a federated scan over many shards names the one that failed.
    File {
        /// The store file the operation was touching.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The byte stream ended inside a structure.
    Truncated {
        /// What was being decoded.
        context: &'static str,
    },
    /// A structural invariant of the format was violated.
    Corrupt {
        /// What was violated.
        context: &'static str,
    },
    /// Stored bytes do not match the checksum stored with them: the file
    /// was damaged after it was written.
    Checksum {
        /// The store file, when the bytes came from one.
        path: Option<PathBuf>,
        /// Which checksummed part failed.
        context: &'static str,
    },
    /// The file carries a format version other than
    /// [`crate::format::VERSION`], the only one this build reads.
    UnsupportedVersion(u16),
    /// Writer options were rejected before any bytes were written
    /// (e.g. a zero `jobs_per_chunk`).
    InvalidOptions {
        /// Which option was invalid and why.
        context: &'static str,
    },
    /// A job handed to [`crate::StoreWriter::push`] sorts before its
    /// predecessor by `(submit, id)`; the chunk index and every range
    /// scan rely on that order.
    Unsorted {
        /// Id of the offending job.
        id: u64,
    },
    /// A trace-level failure while rebuilding [`swim_trace::Trace`].
    Trace(TraceError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::File { path, source } => {
                write!(f, "store i/o error at {}: {source}", path.display())
            }
            StoreError::Truncated { context } => {
                write!(f, "truncated store: {context}")
            }
            StoreError::Corrupt { context } => write!(f, "corrupt store: {context}"),
            StoreError::Checksum {
                path: Some(path),
                context,
            } => write!(f, "checksum mismatch in {}: {context}", path.display()),
            StoreError::Checksum {
                path: None,
                context,
            } => write!(f, "checksum mismatch: {context}"),
            StoreError::UnsupportedVersion(v) => write!(
                f,
                "unsupported store format version {v} (this build reads version {})",
                crate::format::VERSION
            ),
            StoreError::InvalidOptions { context } => {
                write!(f, "invalid store options: {context}")
            }
            StoreError::Unsorted { id } => write!(
                f,
                "job {id} is out of order: jobs must be written in non-decreasing (submit, id) order"
            ),
            StoreError::Trace(e) => write!(f, "store trace error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::File { source, .. } => Some(source),
            StoreError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl StoreError {
    /// Attribute a bare I/O error or a checksum mismatch to `path`. Errors
    /// that already carry a path (or are neither) pass through unchanged.
    pub fn at_path(self, path: &std::path::Path) -> StoreError {
        match self {
            StoreError::Io(source) => StoreError::File {
                path: path.to_path_buf(),
                source,
            },
            StoreError::Checksum {
                path: None,
                context,
            } => StoreError::Checksum {
                path: Some(path.to_path_buf()),
                context,
            },
            other => other,
        }
    }
}

impl From<TraceError> for StoreError {
    fn from(e: TraceError) -> Self {
        StoreError::Trace(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        assert!(StoreError::Truncated { context: "x" }
            .to_string()
            .contains("x"));
        assert!(StoreError::Corrupt { context: "y" }
            .to_string()
            .contains("y"));
        assert_eq!(
            StoreError::UnsupportedVersion(2).to_string(),
            "unsupported store format version 2 (this build reads version 5)"
        );
        assert!(StoreError::InvalidOptions { context: "z" }
            .to_string()
            .contains("z"));
        assert!(StoreError::Unsorted { id: 77 }.to_string().contains("77"));
        let io = StoreError::from(std::io::Error::other("boom"));
        assert!(io.to_string().contains("boom"));
        use std::error::Error as _;
        assert!(io.source().is_some());
    }

    #[test]
    fn file_errors_render_the_offending_path() {
        let e = StoreError::File {
            path: PathBuf::from("/data/shard-7.swim"),
            source: std::io::Error::other("disk fell off"),
        };
        let rendered = e.to_string();
        assert!(rendered.contains("/data/shard-7.swim"), "{rendered}");
        assert!(rendered.contains("disk fell off"), "{rendered}");
        use std::error::Error as _;
        assert!(e.source().is_some());
    }

    #[test]
    fn at_path_attributes_only_bare_io_errors() {
        let io = StoreError::from(std::io::Error::other("boom"));
        let attributed = io.at_path(std::path::Path::new("x.swim"));
        assert!(matches!(attributed, StoreError::File { .. }));
        assert!(attributed.to_string().contains("x.swim"));
        // A checksum mismatch learns its file once.
        let damaged = StoreError::Checksum {
            path: None,
            context: "column block",
        };
        assert_eq!(damaged.to_string(), "checksum mismatch: column block");
        let damaged = damaged
            .at_path(std::path::Path::new("x.swim"))
            .at_path(std::path::Path::new("y.swim"));
        assert_eq!(
            damaged.to_string(),
            "checksum mismatch in x.swim: column block"
        );
        // Other errors pass through untouched.
        let corrupt = StoreError::Corrupt { context: "c" }.at_path(std::path::Path::new("y.swim"));
        assert!(matches!(corrupt, StoreError::Corrupt { .. }));
        assert!(!corrupt.to_string().contains("y.swim"));
    }
}
