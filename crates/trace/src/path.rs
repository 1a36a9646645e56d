//! File-path interning.
//!
//! The original traces contain *hashed* HDFS path names (§4.2); all the
//! analysis needs is identity ("is this the same file?") plus a stable
//! ordering. [`PathId`] is that identity, and [`PathInterner`] maps string
//! paths to ids when ingesting external logs. Synthetic generators mint
//! `PathId`s directly.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

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

/// Thread-safe string-path → [`PathId`] interner.
///
/// Cloning is cheap (shared `Arc`); concurrent readers do not block each
/// other. Ids are dense and allocation-ordered, which downstream analyses
/// exploit for `Vec`-indexed per-file accumulators.
#[derive(Debug, Clone, Default)]
pub struct PathInterner {
    inner: Arc<RwLock<InternerInner>>,
}

#[derive(Debug, Default)]
struct InternerInner {
    by_name: HashMap<String, PathId>,
    names: Vec<String>,
}

impl PathInterner {
    /// New, empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `path`, returning its stable id. Repeated calls with the same
    /// string return the same id.
    pub fn intern(&self, path: &str) -> PathId {
        if let Some(&id) = self.read().by_name.get(path) {
            return id;
        }
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        // Re-check: another writer may have interned between lock transitions.
        if let Some(&id) = inner.by_name.get(path) {
            return id;
        }
        let id = PathId(inner.names.len() as u64);
        inner.names.push(path.to_owned());
        inner.by_name.insert(path.to_owned(), id);
        id
    }

    /// Resolve an id back to its path string, if it was interned here.
    #[cfg(test)]
    pub(crate) fn resolve(&self, id: PathId) -> Option<String> {
        self.read().names.get(id.0 as usize).cloned()
    }

    /// Number of distinct paths interned.
    pub fn len(&self) -> usize {
        self.read().names.len()
    }

    /// `true` iff nothing interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shared state, read-locked; a poisoned lock is used as is.
    fn read(&self) -> RwLockReadGuard<'_, InternerInner> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let i = PathInterner::new();
        let a = i.intern("/user/hive/warehouse/t1");
        let b = i.intern("/user/hive/warehouse/t1");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let i = PathInterner::new();
        let a = i.intern("a");
        let b = i.intern("b");
        let c = i.intern("c");
        assert_eq!((a.raw(), b.raw(), c.raw()), (0, 1, 2));
    }

    #[test]
    fn resolve_round_trips() {
        let i = PathInterner::new();
        let id = i.intern("/data/clicks/2011-03-01");
        assert_eq!(i.resolve(id).as_deref(), Some("/data/clicks/2011-03-01"));
        assert_eq!(i.resolve(PathId(999)), None);
    }

    #[test]
    fn clone_shares_state() {
        let i = PathInterner::new();
        let j = i.clone();
        let id = i.intern("shared");
        assert_eq!(j.resolve(id).as_deref(), Some("shared"));
        assert_eq!(j.len(), 1);
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let i = PathInterner::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let i = i.clone();
                s.spawn(move || {
                    for k in 0..100 {
                        i.intern(&format!("p{}", k % 10));
                    }
                });
            }
        });
        assert_eq!(i.len(), 10);
    }

    #[test]
    fn display_is_hash_like() {
        assert_eq!(PathId(42).to_string(), "path:000000000000002a");
    }
}
