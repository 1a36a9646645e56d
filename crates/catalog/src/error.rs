//! Error type for catalog operations.

use std::fmt;
use std::path::PathBuf;
use swim_store::StoreError;

/// Errors produced while opening, ingesting into, querying, or compacting
/// a catalog.
#[derive(Debug)]
#[non_exhaustive]
pub enum CatalogError {
    /// I/O failure on a catalog file (manifest, temp file, rename).
    Io {
        /// The file the operation was touching.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A shard store failed to open, read, or write. The shard file name
    /// is carried so a federated scan over many shards names the one that
    /// failed (the store error itself also carries the full path).
    Shard {
        /// The shard file name within the catalog directory.
        file: String,
        /// The underlying store error.
        source: StoreError,
    },
    /// The `MANIFEST` file is malformed.
    Manifest {
        /// Path of the manifest that failed to parse.
        path: PathBuf,
        /// What was wrong.
        context: String,
    },
    /// `Catalog::init` found an existing manifest in the directory.
    AlreadyInitialized(PathBuf),
    /// `Catalog::open` found no manifest in the directory.
    NotACatalog(PathBuf),
    /// A trace file handed to ingest failed to parse.
    Parse {
        /// The input file.
        path: PathBuf,
        /// The codec's error message.
        message: String,
    },
    /// An operation was invalid (zero shard size, out-of-order jobs, …).
    Invalid(String),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::Io { path, source } => {
                write!(f, "catalog i/o error at {}: {source}", path.display())
            }
            CatalogError::Shard { file, source } => {
                write!(f, "catalog shard {file}: {source}")
            }
            CatalogError::Manifest { path, context } => {
                write!(f, "bad catalog manifest {}: {context}", path.display())
            }
            CatalogError::AlreadyInitialized(dir) => {
                write!(
                    f,
                    "{} is already a catalog (MANIFEST exists)",
                    dir.display()
                )
            }
            CatalogError::NotACatalog(dir) => {
                write!(f, "{} is not a catalog (no MANIFEST)", dir.display())
            }
            CatalogError::Parse { path, message } => {
                write!(f, "cannot ingest {}: {message}", path.display())
            }
            CatalogError::Invalid(msg) => write!(f, "invalid catalog operation: {msg}"),
        }
    }
}

impl std::error::Error for CatalogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CatalogError::Io { source, .. } => Some(source),
            CatalogError::Shard { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl CatalogError {
    /// Attribute an I/O error to `path`.
    pub(crate) fn io(path: impl Into<PathBuf>, source: std::io::Error) -> CatalogError {
        CatalogError::Io {
            path: path.into(),
            source,
        }
    }

    /// Attribute a store error to the shard `file`.
    pub(crate) fn shard(file: impl Into<String>, source: StoreError) -> CatalogError {
        CatalogError::Shard {
            file: file.into(),
            source,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants_and_paths() {
        let e = CatalogError::io("/cat/MANIFEST", std::io::Error::other("boom"));
        assert!(e.to_string().contains("/cat/MANIFEST"));
        assert!(e.to_string().contains("boom"));
        use std::error::Error as _;
        assert!(e.source().is_some());

        let e = CatalogError::shard(
            "shard-g000001-0000.swim",
            StoreError::Corrupt { context: "bad" },
        );
        assert!(e.to_string().contains("shard-g000001-0000.swim"));
        assert!(e.source().is_some());

        assert!(CatalogError::AlreadyInitialized(PathBuf::from("/d"))
            .to_string()
            .contains("already"));
        assert!(CatalogError::NotACatalog(PathBuf::from("/d"))
            .to_string()
            .contains("not a catalog"));
        assert!(CatalogError::Manifest {
            path: PathBuf::from("/d/MANIFEST"),
            context: "line 3".into(),
        }
        .to_string()
        .contains("line 3"));
        assert!(CatalogError::Parse {
            path: PathBuf::from("x.csv"),
            message: "bad row".into(),
        }
        .to_string()
        .contains("bad row"));
        assert!(CatalogError::Invalid("zero".into())
            .to_string()
            .contains("zero"));
    }
}
