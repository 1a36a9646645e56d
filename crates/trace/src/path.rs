//! File-path identity.
//!
//! The original traces contain *hashed* HDFS path names (§4.2); all the
//! analysis needs is identity ("is this the same file?") plus a stable
//! ordering. [`PathId`] is that identity; trace codecs read it as a raw
//! id and synthetic generators mint it directly.

use std::fmt;

/// Opaque identity of one HDFS file path.
///
/// `PathId(u64)` rather than a string: the paper's traces ship hashed paths,
/// and identity is all the data-access analysis (§4) consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathId(pub u64);

impl PathId {
    /// Raw id value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for PathId {
    /// Renders like a hashed path name (`path:000000000000002a`), matching
    /// how the original traces expose anonymized HDFS paths.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "path:{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_hash_like() {
        assert_eq!(PathId(42).to_string(), "path:000000000000002a");
    }
}
