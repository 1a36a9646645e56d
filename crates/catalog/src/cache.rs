//! LRU cache of decoded per-shard numeric columns, held column by column.
//!
//! Decoding a shard's chunks (delta+varint → `Vec<u64>` columns) is the
//! dominant cost of a federated scan once zone maps have pruned the I/O,
//! so the catalog keeps the most recently used shards' decoded columns in
//! memory. An entry is one shard ([`ShardColumns`]) and holds each of its
//! ten columns *individually*: a lookup names the column set a query
//! reads and is a hit iff the entry has all of it; a miss decodes only
//! the columns the entry lacks and adds them, so an entry grows to the
//! union of what queries have asked of its shard and never holds a
//! column nothing read. Capacity, LRU order and [`CacheStats`] count
//! shards. Entries are keyed by `(file, created_gen)`: shard files are
//! immutable once renamed into place and compaction creates new files
//! under a new generation, so a stale entry can never be served — it
//! simply stops being looked up and ages out.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use swim_store::format::columns::{ChunkView, ColumnSet};
use swim_store::ZONE_COLUMNS;

/// swim-obs mirrors of the cache counters, so `--profile` and the JSONL
/// sink see cache behavior without a [`CacheStats`] in hand.
mod obs {
    use swim_obs::Counter;

    pub static HITS: Counter = Counter::new("catalog.cache_hits");
    pub static MISSES: Counter = Counter::new("catalog.cache_misses");
    pub static EVICTIONS: Counter = Counter::new("catalog.cache_evictions");
}

/// Counters and sizing of the decoded-column cache.
///
/// `hits`, `misses`, and `evictions` are **lifetime** counters: they
/// survive cache invalidation (and therefore catalog compaction),
/// which resets entries only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups whose whole column set was in memory (no decode).
    pub hits: u64,
    /// Lookups that went to disk for at least one column of a shard
    /// (which was then cached).
    pub misses: u64,
    /// Entries dropped to keep the cache within capacity (LRU-first;
    /// does not count `clear`, which is invalidation, not pressure).
    pub evictions: u64,
    /// Shards currently cached.
    pub entries: usize,
    /// Maximum number of cached shards.
    pub capacity: usize,
}

/// Cache key: shard file name + the generation that created the file.
type Key = (String, u64);

/// One shard's decoded columns, each present or not yet: what a cache
/// entry holds and a lookup hands out. Columns are set once and never
/// change (shard files are immutable), so readers share an entry while
/// another thread adds the columns it lacks.
#[derive(Debug, Default)]
pub struct ShardColumns {
    /// Jobs per chunk, in chunk order.
    rows: Vec<usize>,
    /// Per column (layout order): its values, chunk by chunk.
    cols: [OnceLock<Vec<Vec<u64>>>; ZONE_COLUMNS],
}

impl ShardColumns {
    /// An entry for a shard of `rows.len()` chunks holding no column yet.
    pub(crate) fn new(rows: Vec<usize>) -> ShardColumns {
        ShardColumns {
            rows,
            cols: Default::default(),
        }
    }

    /// Number of chunks in the shard.
    pub fn chunk_count(&self) -> usize {
        self.rows.len()
    }

    /// The columns held so far.
    pub fn present(&self) -> ColumnSet {
        (0..ZONE_COLUMNS)
            .filter(|&c| self.cols[c].get().is_some())
            .fold(ColumnSet::EMPTY, ColumnSet::with)
    }

    /// Chunk `idx` over the columns held; one not held reads as empty.
    pub fn chunk(&self, idx: usize) -> ChunkView<'_> {
        ChunkView::new(
            self.rows.get(idx).copied().unwrap_or(0),
            self.cols.each_ref().map(|column| {
                let chunk = column.get().and_then(|chunks| chunks.get(idx));
                chunk.map_or(&[][..], Vec::as_slice)
            }),
        )
    }

    /// Add freshly decoded columns (`decoded[c]` chunk by chunk, for each
    /// `c` in `set`). A column another thread added first stays: both
    /// decoded the same immutable bytes.
    pub(crate) fn fill(&self, set: ColumnSet, decoded: [Vec<Vec<u64>>; ZONE_COLUMNS]) {
        for (c, chunks) in decoded.into_iter().enumerate() {
            if set.contains(c) {
                let _ = self.cols[c].set(chunks);
            }
        }
    }
}

struct Slot {
    columns: Arc<ShardColumns>,
    last_used: u64,
}

struct Inner {
    map: HashMap<Key, Slot>,
    tick: u64,
    capacity: usize,
}

impl Inner {
    /// Evict LRU-first down to capacity, returning how many entries were
    /// dropped (the caller owns the eviction counters).
    fn evict_over_capacity(&mut self) -> u64 {
        let mut evicted = 0;
        while self.map.len() > self.capacity {
            // The loop condition guarantees the map is non-empty, but a
            // defensive break beats a panic in library code.
            let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(key, _)| key.clone())
            else {
                break;
            };
            self.map.remove(&oldest);
            evicted += 1;
        }
        evicted
    }
}

/// The per-catalog cache. Interior-mutable so immutable query paths can
/// share it across worker threads.
pub(crate) struct ColumnCache {
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Default capacity: a shard's decoded columns cost 8 bytes per job per
/// column held, ~80 with all ten, so at the default shard size
/// (§ `DEFAULT_JOBS_PER_SHARD`) this bounds the cache around a gigabyte.
pub(crate) const DEFAULT_CACHE_SHARDS: usize = 64;

impl ColumnCache {
    pub(crate) fn new(capacity: usize) -> ColumnCache {
        ColumnCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                capacity,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// A shard's entry, if it holds every column of `set` (counted as a
    /// hit). An entry lacking some of them is no hit and stays untouched.
    pub(crate) fn lookup(
        &self,
        file: &str,
        created_gen: u64,
        set: ColumnSet,
    ) -> Option<Arc<ShardColumns>> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let slot = inner.map.get_mut(&(file.to_owned(), created_gen))?;
        if !set.minus(slot.columns.present()).is_empty() {
            return None;
        }
        slot.last_used = tick;
        // lint: ordering: statistics counter; no data is published through it
        self.hits.fetch_add(1, Ordering::Relaxed);
        obs::HITS.incr();
        Some(slot.columns.clone())
    }

    /// The entry a miss decodes into (counted as a miss): the shard's
    /// existing entry, or `new()` inserted in its place, evicting the
    /// least recently used entry if the cache is over capacity. At
    /// capacity 0 the new entry is handed back uncached.
    pub(crate) fn entry(
        &self,
        file: &str,
        created_gen: u64,
        new: impl FnOnce() -> ShardColumns,
    ) -> Arc<ShardColumns> {
        // lint: ordering: statistics counter; no data is published through it
        self.misses.fetch_add(1, Ordering::Relaxed);
        obs::MISSES.incr();
        let mut inner = self.inner.lock();
        if inner.capacity == 0 {
            return Arc::new(new());
        }
        inner.tick += 1;
        let tick = inner.tick;
        let slot = inner
            .map
            .entry((file.to_owned(), created_gen))
            .or_insert_with(|| Slot {
                columns: Arc::new(new()),
                last_used: tick,
            });
        slot.last_used = tick;
        let columns = slot.columns.clone();
        self.count_evictions(inner.evict_over_capacity());
        columns
    }

    fn count_evictions(&self, evicted: u64) {
        if evicted > 0 {
            // lint: ordering: statistics counter; no data is published through it
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            obs::EVICTIONS.add(evicted);
        }
    }

    /// Drop every entry (compaction rewrote the manifest). Lifetime
    /// hit/miss/eviction counters are deliberately untouched: clearing
    /// invalidates *entries*, not history.
    pub(crate) fn clear(&self) {
        self.inner.lock().map.clear();
    }

    pub(crate) fn set_capacity(&self, capacity: usize) {
        let mut inner = self.inner.lock();
        inner.capacity = capacity;
        let evicted = inner.evict_over_capacity();
        drop(inner);
        self.count_evictions(evicted);
    }

    /// Current capacity (cheap: one lock, no counter reads).
    pub(crate) fn capacity(&self) -> usize {
        self.inner.lock().capacity
    }

    pub(crate) fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            // lint: ordering: monotonic stats reads; a stale value only skews the snapshot
            hits: self.hits.load(Ordering::Relaxed),
            // lint: ordering: monotonic stats reads; a stale value only skews the snapshot
            misses: self.misses.load(Ordering::Relaxed),
            // lint: ordering: monotonic stats reads; a stale value only skews the snapshot
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: inner.map.len(),
            capacity: inner.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-chunk, one-row shard with all ten columns present.
    fn cols(n: u64) -> ShardColumns {
        let shard = ShardColumns::new(vec![1]);
        shard.fill(ColumnSet::ALL, std::array::from_fn(|_| vec![vec![n]]));
        shard
    }

    impl ColumnCache {
        fn insert(&self, file: &str, created_gen: u64, columns: ShardColumns) {
            self.entry(file, created_gen, || columns);
        }

        fn lookup_all(&self, file: &str, created_gen: u64) -> Option<Arc<ShardColumns>> {
            self.lookup(file, created_gen, ColumnSet::ALL)
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ColumnCache::new(2);
        cache.insert("a", 1, cols(1));
        cache.insert("b", 1, cols(2));
        assert!(cache.lookup_all("a", 1).is_some()); // touch a: b is now LRU
        cache.insert("c", 1, cols(3));
        assert!(cache.lookup_all("b", 1).is_none());
        assert!(cache.lookup_all("a", 1).is_some());
        assert!(cache.lookup_all("c", 1).is_some());
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 3);
    }

    #[test]
    fn generation_is_part_of_the_key() {
        let cache = ColumnCache::new(4);
        cache.insert("a", 1, cols(1));
        assert!(cache.lookup_all("a", 2).is_none());
        assert!(cache.lookup_all("a", 1).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ColumnCache::new(0);
        cache.insert("a", 1, cols(1));
        assert!(cache.lookup_all("a", 1).is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn shrinking_capacity_evicts_down() {
        let cache = ColumnCache::new(4);
        for (i, name) in ["a", "b", "c", "d"].iter().enumerate() {
            cache.insert(name, 1, cols(i as u64));
        }
        cache.set_capacity(1);
        assert_eq!(cache.stats().entries, 1);
        assert!(cache.lookup_all("d", 1).is_some(), "most recent survives");
    }

    #[test]
    fn clear_empties_the_cache() {
        let cache = ColumnCache::new(4);
        cache.insert("a", 1, cols(1));
        cache.clear();
        assert!(cache.lookup_all("a", 1).is_none());
    }

    #[test]
    fn evictions_are_counted_under_pressure_but_not_on_clear() {
        let cache = ColumnCache::new(2);
        for (i, name) in ["a", "b", "c", "d"].iter().enumerate() {
            cache.insert(name, 1, cols(i as u64));
        }
        assert_eq!(cache.stats().evictions, 2, "c and d pushed a and b out");
        cache.set_capacity(1);
        assert_eq!(cache.stats().evictions, 3, "shrinking evicts too");
        cache.clear();
        assert_eq!(cache.stats().evictions, 3, "clear is not an eviction");
    }

    #[test]
    fn clear_resets_entries_but_lifetime_counters_survive() {
        let cache = ColumnCache::new(4);
        cache.insert("a", 1, cols(1));
        cache.insert("b", 1, cols(2));
        assert!(cache.lookup_all("a", 1).is_some());
        assert!(cache.lookup_all("zzz", 1).is_none());
        let before = cache.stats();
        cache.clear();
        let after = cache.stats();
        assert_eq!(after.entries, 0);
        assert_eq!(after.hits, before.hits);
        assert_eq!(after.misses, before.misses);
        assert_eq!(after.evictions, before.evictions);
    }

    #[test]
    fn a_hit_needs_every_asked_column_and_a_fill_adds_only_what_is_missing() {
        let cache = ColumnCache::new(4);
        let (a, b) = (ColumnSet::EMPTY.with(2), ColumnSet::EMPTY.with(7));
        let entry = cache.entry("s", 1, || ShardColumns::new(vec![2, 1]));
        let mut decoded: [Vec<Vec<u64>>; ZONE_COLUMNS] = Default::default();
        decoded[2] = vec![vec![10, 11], vec![12]];
        entry.fill(a, decoded);
        assert_eq!(entry.present(), a);
        assert!(cache.lookup("s", 1, a).is_some());
        assert!(cache.lookup("s", 1, ColumnSet::EMPTY).is_some());
        assert!(cache.lookup("s", 1, b).is_none(), "column 7 is not there");
        assert!(
            cache.lookup("s", 1, a.with(7)).is_none(),
            "a partial hit is a miss"
        );
        // The miss fills the same entry; the first column is kept, not redone.
        let again = cache.entry("s", 1, || unreachable!("the entry exists"));
        assert!(Arc::ptr_eq(&entry, &again));
        let mut decoded: [Vec<Vec<u64>>; ZONE_COLUMNS] = Default::default();
        decoded[7] = vec![vec![70, 71], vec![72]];
        again.fill(b, decoded);
        let both = cache.lookup("s", 1, a.with(7)).expect("the union is held");
        let second = both.chunk(1);
        assert_eq!(second.len(), 1);
        assert_eq!((second.column(2), second.column(7)), (&[12][..], &[72][..]));
        assert!(second.column(3).is_empty());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (3, 2, 1));
    }
}
