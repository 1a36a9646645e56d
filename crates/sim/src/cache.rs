//! Cache tiers in front of a replay's input reads.
//!
//! §4.2–4.3 of the study argue from measured skew and temporal locality
//! that (a) any policy caching the frequently accessed files brings
//! considerable benefit, (b) caching a *fixed fraction of bytes* is
//! unsustainable, and (c) a viable policy caches files **below a size
//! threshold**, detaching cache growth from data growth; eviction by
//! recency (LRU-like) suits the observed 6-hour re-access locality.
//! This module implements the candidate policies so those claims can be
//! measured rather than asserted.

use std::collections::HashMap;
use swim_trace::{DataSize, PathId, Timestamp};

/// Which replacement/admission policy a cache tier uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CachePolicy {
    /// Evict the least-recently-used file; admit everything that fits.
    Lru,
    /// Evict the least-frequently-used file; admit everything that fits.
    Lfu,
    /// Admit only files smaller than the threshold; evict by recency.
    /// This is the §4.2 policy proposal.
    SizeThreshold {
        /// Maximum admitted file size.
        threshold: DataSize,
    },
    /// Unbounded cache (upper bound on achievable hit rate).
    Unlimited,
}

/// Aggregate cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Accesses served from cache.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Files evicted.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit rate by access count, in `[0,1]`; 0 when no accesses.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone)]
struct Entry {
    size: DataSize,
    last_access: Timestamp,
    access_count: u64,
    /// Monotone sequence for deterministic tie-breaks.
    seq: u64,
}

/// A file a replay reads, as the cache keys it: a path the trace names,
/// or the file of its own that a job naming no path reads. The latter is
/// keyed by the job's plan index, so it never equals any path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum FileKey {
    /// A trace path, shared by every job that names it.
    Path(PathId),
    /// The own file of the plan job at this index.
    Own(usize),
}

/// A single cache tier.
#[derive(Debug)]
pub(crate) struct Cache {
    policy: CachePolicy,
    capacity: DataSize,
    used: DataSize,
    entries: HashMap<FileKey, Entry>,
    stats: CacheStats,
    seq: u64,
}

impl Cache {
    /// Build a cache with the given policy and byte capacity. Capacity is
    /// ignored by [`CachePolicy::Unlimited`].
    pub(crate) fn new(policy: CachePolicy, capacity: DataSize) -> Self {
        Cache {
            policy,
            capacity,
            used: DataSize::ZERO,
            entries: HashMap::new(),
            stats: CacheStats::default(),
            seq: 0,
        }
    }

    /// Record an access to `file` of `size` bytes at time `now`. Returns
    /// `true` on a hit. Misses admit the file subject to policy.
    pub(crate) fn access(&mut self, file: FileKey, size: DataSize, now: Timestamp) -> bool {
        self.seq += 1;
        if let Some(e) = self.entries.get_mut(&file) {
            e.last_access = now;
            e.access_count += 1;
            e.seq = self.seq;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        if self.admits(size) {
            self.make_room(size);
            // make_room may fail to free enough for pathological sizes;
            // only insert when the file actually fits.
            if matches!(self.policy, CachePolicy::Unlimited) || self.used + size <= self.capacity {
                self.used += size;
                self.entries.insert(
                    file,
                    Entry {
                        size,
                        last_access: now,
                        access_count: 1,
                        seq: self.seq,
                    },
                );
            }
        }
        false
    }

    /// Whether the policy admits a file of `size` at all.
    fn admits(&self, size: DataSize) -> bool {
        match self.policy {
            CachePolicy::Unlimited => true,
            CachePolicy::SizeThreshold { threshold } => size < threshold && size <= self.capacity,
            CachePolicy::Lru | CachePolicy::Lfu => size <= self.capacity,
        }
    }

    /// Evict until `size` fits (no-op for unlimited).
    fn make_room(&mut self, size: DataSize) {
        if matches!(self.policy, CachePolicy::Unlimited) {
            return;
        }
        while self.used + size > self.capacity && !self.entries.is_empty() {
            let victim = match self.policy {
                CachePolicy::Lfu => self
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| (e.access_count, e.seq))
                    .map(|(&f, _)| f),
                // LRU and size-threshold evict by recency.
                _ => self
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| (e.last_access, e.seq))
                    .map(|(&f, _)| f),
            };
            let Some(e) = victim.and_then(|f| self.entries.remove(&f)) else {
                break;
            };
            self.used = self.used.saturating_sub(e.size);
            self.stats.evictions += 1;
        }
    }

    /// Bytes currently cached.
    #[cfg(test)]
    pub(crate) fn used(&self) -> DataSize {
        self.used
    }

    /// Files currently cached.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff nothing cached.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Statistics so far.
    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn path(id: u64) -> FileKey {
        FileKey::Path(PathId(id))
    }

    #[test]
    fn second_access_hits() {
        let mut c = Cache::new(CachePolicy::Lru, DataSize::from_mb(100));
        assert!(!c.access(path(1), DataSize::from_mb(10), ts(0)));
        assert!(c.access(path(1), DataSize::from_mb(10), ts(1)));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = Cache::new(CachePolicy::Lru, DataSize::from_mb(20));
        c.access(path(1), DataSize::from_mb(10), ts(0));
        c.access(path(2), DataSize::from_mb(10), ts(1));
        c.access(path(1), DataSize::from_mb(10), ts(2)); // refresh 1
        c.access(path(3), DataSize::from_mb(10), ts(3)); // evicts 2
        assert!(c.access(path(1), DataSize::from_mb(10), ts(4)));
        assert!(!c.access(path(2), DataSize::from_mb(10), ts(5)));
        assert!(c.stats().evictions >= 1);
    }

    #[test]
    fn lfu_evicts_least_frequent() {
        let mut c = Cache::new(CachePolicy::Lfu, DataSize::from_mb(20));
        c.access(path(1), DataSize::from_mb(10), ts(0));
        c.access(path(1), DataSize::from_mb(10), ts(1));
        c.access(path(1), DataSize::from_mb(10), ts(2)); // count 3
        c.access(path(2), DataSize::from_mb(10), ts(3)); // count 1
        c.access(path(3), DataSize::from_mb(10), ts(4)); // evicts 2
        assert!(c.access(path(1), DataSize::from_mb(10), ts(5)));
        assert!(!c.access(path(2), DataSize::from_mb(10), ts(6)));
    }

    #[test]
    fn threshold_policy_rejects_large_files() {
        let mut c = Cache::new(
            CachePolicy::SizeThreshold {
                threshold: DataSize::from_mb(50),
            },
            DataSize::from_gb(1),
        );
        c.access(path(1), DataSize::from_gb(10), ts(0));
        // Large file was never admitted → still a miss.
        assert!(!c.access(path(1), DataSize::from_gb(10), ts(1)));
        c.access(path(2), DataSize::from_mb(10), ts(2));
        assert!(c.access(path(2), DataSize::from_mb(10), ts(3)));
        // Only the small file occupies capacity.
        assert_eq!(c.used(), DataSize::from_mb(10));
    }

    #[test]
    fn unlimited_never_evicts() {
        let mut c = Cache::new(CachePolicy::Unlimited, DataSize::ZERO);
        for i in 0..100 {
            c.access(path(i), DataSize::from_gb(1), ts(i));
        }
        assert_eq!(c.len(), 100);
        assert_eq!(c.stats().evictions, 0);
        assert!(c.access(path(0), DataSize::from_gb(1), ts(200)));
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut c = Cache::new(CachePolicy::Lru, DataSize::from_mb(35));
        for i in 0..50 {
            c.access(path(i % 7), DataSize::from_mb(10), ts(i));
            assert!(c.used() <= DataSize::from_mb(35), "used {}", c.used());
        }
    }

    #[test]
    fn oversized_file_is_not_admitted() {
        let mut c = Cache::new(CachePolicy::Lru, DataSize::from_mb(5));
        c.access(path(1), DataSize::from_mb(10), ts(0));
        assert!(c.is_empty());
        assert_eq!(c.used(), DataSize::ZERO);
    }
}
