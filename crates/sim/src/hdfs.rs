//! The HDFS-like storage layer: a flat file namespace with sizes, block
//! accounting, and an optional cache tier in front of reads.

use crate::cache::{Cache, CachePolicy, CacheStats};
use std::collections::HashMap;
use swim_trace::{DataSize, PathId, Timestamp};

/// Storage configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HdfsConfig {
    /// Block size (for block counting; default 128 MB).
    pub block_size: DataSize,
}

impl Default for HdfsConfig {
    fn default() -> Self {
        HdfsConfig {
            block_size: DataSize::from_mb(128),
        }
    }
}

/// The simulated file system.
#[derive(Debug)]
pub struct Hdfs {
    config: HdfsConfig,
    files: HashMap<PathId, DataSize>,
    cache: Option<Cache>,
}

impl Hdfs {
    /// Empty file system without a cache tier.
    pub fn new(config: HdfsConfig) -> Self {
        Hdfs {
            config,
            files: HashMap::new(),
            cache: None,
        }
    }

    /// Attach a cache tier in front of reads.
    pub fn with_cache(mut self, policy: CachePolicy, capacity: DataSize) -> Self {
        self.cache = Some(Cache::new(policy, capacity));
        self
    }

    /// Create (or overwrite) a file. Overwrites invalidate the cache entry.
    pub fn write(&mut self, path: PathId, size: DataSize, _now: Timestamp) {
        if let Some(c) = &mut self.cache {
            c.invalidate(path);
        }
        self.files.insert(path, size);
    }

    /// Read a file; unknown paths are created implicitly (replays against
    /// a partially pre-populated namespace must not fail — the original
    /// SWIM driver likewise fabricates missing inputs). Returns `true` if
    /// the read was served from cache.
    pub fn read(&mut self, path: PathId, fallback_size: DataSize, now: Timestamp) -> bool {
        let size = *self.files.entry(path).or_insert(fallback_size);
        match &mut self.cache {
            Some(c) => c.access(path, size, now),
            None => false,
        }
    }

    /// File size, if present.
    pub fn size_of(&self, path: PathId) -> Option<DataSize> {
        self.files.get(&path).copied()
    }

    /// Total blocks across all files.
    pub fn total_blocks(&self) -> u64 {
        let bs = self.config.block_size.bytes().max(1);
        self.files
            .values()
            .map(|s| s.bytes().div_ceil(bs).max(1))
            .sum()
    }

    /// Cache statistics, if a cache tier is attached.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut fs = Hdfs::new(HdfsConfig::default());
        fs.write(PathId(1), DataSize::from_mb(64), ts(0));
        assert_eq!(fs.size_of(PathId(1)), Some(DataSize::from_mb(64)));
        fs.read(PathId(1), DataSize::ZERO, ts(1));
        assert_eq!(fs.size_of(PathId(1)), Some(DataSize::from_mb(64)));
    }

    #[test]
    fn implicit_creation_on_read() {
        let mut fs = Hdfs::new(HdfsConfig::default());
        fs.read(PathId(9), DataSize::from_mb(10), ts(0));
        assert_eq!(fs.size_of(PathId(9)), Some(DataSize::from_mb(10)));
    }

    #[test]
    fn cached_reads_hit_after_first_touch() {
        let mut fs =
            Hdfs::new(HdfsConfig::default()).with_cache(CachePolicy::Lru, DataSize::from_gb(1));
        fs.write(PathId(1), DataSize::from_mb(10), ts(0));
        assert!(!fs.read(PathId(1), DataSize::ZERO, ts(1)));
        assert!(fs.read(PathId(1), DataSize::ZERO, ts(2)));
        let stats = fs.cache_stats().unwrap();
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn overwrite_invalidates_cache() {
        let mut fs =
            Hdfs::new(HdfsConfig::default()).with_cache(CachePolicy::Lru, DataSize::from_gb(1));
        fs.write(PathId(1), DataSize::from_mb(10), ts(0));
        fs.read(PathId(1), DataSize::ZERO, ts(1)); // miss, admits
        fs.write(PathId(1), DataSize::from_mb(20), ts(2)); // invalidates
        assert!(!fs.read(PathId(1), DataSize::ZERO, ts(3)));
        assert_eq!(fs.size_of(PathId(1)), Some(DataSize::from_mb(20)));
    }

    #[test]
    fn block_counting() {
        let mut fs = Hdfs::new(HdfsConfig::default());
        fs.write(PathId(1), DataSize::from_mb(200), ts(0)); // 2 blocks
        fs.write(PathId(2), DataSize::from_kb(1), ts(0)); // 1 block
        assert_eq!(fs.total_blocks(), 3);
    }
}
