//! Cache of decoded per-shard numeric columns, held column by column:
//! LRU eviction behind a recency-gated admission rule.
//!
//! Decoding a shard's chunks (packed blocks → `Vec<u64>` columns) is the
//! dominant cost of a federated scan once zone maps have pruned the I/O,
//! so the catalog keeps decoded shards in memory. An entry is one shard
//! ([`ShardColumns`]) and holds each of its ten columns *individually*:
//! a lookup names the column set a query reads and is a hit iff the
//! entry has all of it; a miss decodes only the columns the entry lacks
//! and adds them, so an entry grows to the union of what queries have
//! asked of its shard and never holds a column nothing read. Capacity,
//! recency and [`CacheStats`] count shards. Entries are keyed by
//! `(file, created_gen)`: shard files are immutable once renamed into
//! place and compaction creates new files under a new generation, so a
//! stale entry can never be served — it simply stops being looked up
//! and ages out.
//!
//! # Admission
//!
//! The paper's §4.2–4.3 (summarised in `crates/sim/src/cache.rs`) argue
//! that what makes a cache viable is its *admission* rule. Every
//! unpruned query visits shards in manifest order, so a catalog with
//! more shards (N) than slots (C) is the sequential-flooding case: an
//! always-admit LRU evicts each shard just before the loop comes back
//! to it and never hits. So the victim order is LRU, but a full cache
//! is gated: a shard that is not resident takes the least recently used
//! entry's slot only if the shard's *own previous lookup* is more recent
//! than that entry's last use. A miss that is not admitted evicts
//! nothing, is remembered by its tick, and is *read through* — the
//! caller streams the shard off its file and nothing is materialised
//! for a shard that will not be kept.
//!
//! * In a loop over N > C shards the victim has always been touched
//!   since the candidate's previous turn, so the first C residents stay
//!   and hit on every pass: C/N instead of 0.
//! * A shard that really is hotter than the victim — a narrowed time
//!   range, a moved working set — wins its slot on its second lookup; a
//!   brand-new shard at a full cache therefore pays two decodes instead
//!   of one before it is served from memory.
//! * A one-off sweep of shards never seen before displaces nothing.
//!
//! This is the second-reference admission of 2Q (Johnson & Shasha,
//! VLDB '94) with the recency comparison that makes it loop-proof. Free
//! room admits at once, and a resident entry lacking a column is filled
//! in place. The lookup ticks of refused shards live in the same map as
//! the entries, at most [`HISTORY_PER_SLOT`] per slot of capacity, the
//! oldest forgotten first; a working set whose refused part outnumbers
//! that is refused on every pass, as if never seen (it would not have
//! hit an LRU either).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use swim_store::format::columns::{ChunkView, ColumnSet};
use swim_store::ZONE_COLUMNS;

/// swim-obs mirrors of the cache counters, so `--profile` and the JSONL
/// sink see cache behavior without a [`CacheStats`] in hand.
mod obs {
    use swim_obs::Counter;

    pub static HITS: Counter = Counter::new("catalog.cache_hits");
    pub static MISSES: Counter = Counter::new("catalog.cache_misses");
    pub static BYPASSED: Counter = Counter::new("catalog.cache_bypassed");
    pub static EVICTIONS: Counter = Counter::new("catalog.cache_evictions");
}

/// Counters and sizing of the decoded-column cache.
///
/// `hits`, `misses`, `bypassed` and `evictions` are **lifetime**
/// counters: they survive cache invalidation (and therefore catalog
/// compaction), which resets entries only. `misses - bypassed` is the
/// number of fills, and `evictions <= misses - bypassed`: only a fill
/// that found the cache full evicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups whose whole column set was in memory (no decode).
    pub hits: u64,
    /// Lookups that went to the shard's file for at least one column:
    /// the fills (decoded into a resident entry) plus `bypassed`.
    pub misses: u64,
    /// Misses the cache did not admit (it was full and the shard's
    /// previous lookup was no more recent than the LRU entry's last
    /// use, or capacity is 0): read through, nothing kept or evicted.
    pub bypassed: u64,
    /// Entries dropped to make room for an admitted shard or to follow
    /// a shrunk capacity (LRU-first; does not count `clear`, which is
    /// invalidation, not pressure).
    pub evictions: u64,
    /// Shards currently cached.
    pub entries: usize,
    /// Maximum number of cached shards.
    pub capacity: usize,
}

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

/// What [`ColumnCache::lookup_or_admit`] found.
pub(crate) enum Found {
    /// The shard's entry, holding every column asked for.
    Hit(Arc<ShardColumns>),
    /// A miss the cache keeps: the resident entry to decode the lacking
    /// columns into.
    Fill(Arc<ShardColumns>),
    /// A miss the cache does not keep: read the shard through.
    Bypass,
}

/// Refused shards remembered per slot of capacity. Eight covers the
/// paper-scale catalog (381 default-size shards against 64 slots leave
/// 317 outside) at ~100 bytes a key.
pub(crate) const HISTORY_PER_SLOT: usize = 8;

/// Cache key, as the recency indexes hold it: the generation that
/// created the shard file, then its name.
type Key = (u64, Arc<str>);

struct Slot {
    /// The shard's entry while it is resident; `None` for a refused
    /// shard that is only remembered.
    columns: Option<Arc<ShardColumns>>,
    /// Tick of the key's last lookup: where `resident` or `refused`
    /// holds it.
    tick: u64,
}

struct Inner {
    /// `created_gen`, then the file name: two levels, so that a lookup
    /// borrows the name instead of building an owned key.
    slots: HashMap<u64, HashMap<Arc<str>, Slot>>,
    /// Every resident key under the tick of its last use. Ticks are
    /// unique, so the first entry is the least recently used.
    resident: BTreeMap<u64, Key>,
    /// Every refused key under the tick of its last lookup, oldest first.
    refused: BTreeMap<u64, Key>,
    tick: u64,
    capacity: usize,
}

impl Inner {
    /// The key's resident entry, marked used now — if `wanted` accepts
    /// what it holds; otherwise nothing changes.
    fn touch(
        &mut self,
        file: &str,
        created_gen: u64,
        wanted: impl FnOnce(&ShardColumns) -> bool,
    ) -> Option<Arc<ShardColumns>> {
        let slot = self.slots.get_mut(&created_gen)?.get_mut(file)?;
        let columns = slot.columns.as_ref().filter(|held| wanted(held))?.clone();
        self.tick += 1;
        if let Some(key) = self.resident.remove(&slot.tick) {
            self.resident.insert(self.tick, key);
        }
        slot.tick = self.tick;
        Some(columns)
    }

    /// The gate, for a key that is not resident: its new entry and how
    /// many entries that evicted, or `None` for a lookup that is refused
    /// and remembered.
    fn admit(
        &mut self,
        file: &str,
        created_gen: u64,
        new: impl FnOnce() -> ShardColumns,
    ) -> Option<(Arc<ShardColumns>, u64)> {
        if self.capacity == 0 {
            return None;
        }
        self.tick += 1;
        let tick = self.tick;
        let files = self.slots.entry(created_gen).or_default();
        let previous = files.get(file).map(|refused| refused.tick);
        // Free room admits; a full cache admits only a shard looked up
        // since its least recently used entry was last used.
        let full = self.resident.len() >= self.capacity;
        let victim = self.resident.keys().next().filter(|_| full);
        let admitted = victim.is_none_or(|victim| previous.is_some_and(|seen| seen > *victim));
        let key = previous
            .and_then(|seen| self.refused.remove(&seen))
            .unwrap_or_else(|| (created_gen, Arc::from(file)));
        let columns = admitted.then(|| Arc::new(new()));
        let slot = Slot {
            columns: columns.clone(),
            tick,
        };
        files.insert(key.1.clone(), slot);
        let index = if admitted {
            &mut self.resident
        } else {
            &mut self.refused
        };
        index.insert(tick, key);
        // A new entry holds the latest tick, so what it evicts is the
        // victim the gate compared it with.
        let evicted = self.trim();
        columns.map(|columns| (columns, evicted))
    }

    fn remove_slot(&mut self, (created_gen, file): Key) {
        if let Some(files) = self.slots.get_mut(&created_gen) {
            files.remove(&file);
            if files.is_empty() {
                self.slots.remove(&created_gen);
            }
        }
    }

    /// Evict LRU-first down to capacity and forget the oldest refused
    /// lookups down to their bound, returning how many entries were
    /// evicted (the caller owns the eviction counters).
    fn trim(&mut self) -> u64 {
        let mut evicted = 0;
        while self.resident.len() > self.capacity {
            // The loop condition guarantees the index is non-empty, but a
            // defensive break beats a panic in library code.
            let Some((_, key)) = self.resident.pop_first() else {
                break;
            };
            self.remove_slot(key);
            evicted += 1;
        }
        while self.refused.len() > self.capacity.saturating_mul(HISTORY_PER_SLOT) {
            let Some((_, key)) = self.refused.pop_first() else {
                break;
            };
            self.remove_slot(key);
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
    bypassed: AtomicU64,
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
                slots: HashMap::new(),
                resident: BTreeMap::new(),
                refused: BTreeMap::new(),
                tick: 0,
                capacity,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bypassed: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The policy state, locked; a poisoned lock is used as is.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A shard's entry, if it holds every column of `set` (counted as a
    /// hit). Anything else is `None` and leaves the cache as it was: a
    /// caller that cannot fill is no candidate for admission.
    pub(crate) fn lookup(
        &self,
        file: &str,
        created_gen: u64,
        set: ColumnSet,
    ) -> Option<Arc<ShardColumns>> {
        let has_all = |held: &ShardColumns| set.minus(held.present()).is_empty();
        let hit = self.lock().touch(file, created_gen, has_all)?;
        self.count_hit();
        Some(hit)
    }

    /// Lookup for a caller that can decode what is lacking: a hit, or a
    /// miss that is either kept — [`Found::Fill`] hands out the shard's
    /// resident entry, `new()` if the gate (module docs) admits it now,
    /// evicting the least recently used entry of a full cache — or
    /// refused (always at capacity 0) and counted as bypassed.
    pub(crate) fn lookup_or_admit(
        &self,
        file: &str,
        created_gen: u64,
        set: ColumnSet,
        new: impl FnOnce() -> ShardColumns,
    ) -> Found {
        let mut inner = self.lock();
        if let Some(held) = inner.touch(file, created_gen, |_| true) {
            drop(inner);
            return if set.minus(held.present()).is_empty() {
                self.count_hit();
                Found::Hit(held)
            } else {
                self.count_miss();
                Found::Fill(held)
            };
        }
        let admitted = inner.admit(file, created_gen, new);
        drop(inner);
        self.count_miss();
        match admitted {
            Some((columns, evicted)) => {
                self.count_evictions(evicted);
                Found::Fill(columns)
            }
            None => {
                // lint: ordering: statistics counter; no data is published through it
                self.bypassed.fetch_add(1, Ordering::Relaxed);
                obs::BYPASSED.incr();
                Found::Bypass
            }
        }
    }

    fn count_miss(&self) {
        // lint: ordering: statistics counter; no data is published through it
        self.misses.fetch_add(1, Ordering::Relaxed);
        obs::MISSES.incr();
    }

    fn count_hit(&self) {
        // lint: ordering: statistics counter; no data is published through it
        self.hits.fetch_add(1, Ordering::Relaxed);
        obs::HITS.incr();
    }

    fn count_evictions(&self, evicted: u64) {
        if evicted > 0 {
            // lint: ordering: statistics counter; no data is published through it
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            obs::EVICTIONS.add(evicted);
        }
    }

    /// Drop every entry and every remembered lookup (compaction rewrote
    /// the manifest). Lifetime counters are deliberately untouched:
    /// clearing invalidates *entries*, not history.
    pub(crate) fn clear(&self) {
        let mut inner = self.lock();
        inner.slots.clear();
        inner.resident.clear();
        inner.refused.clear();
    }

    pub(crate) fn set_capacity(&self, capacity: usize) {
        let mut inner = self.lock();
        inner.capacity = capacity;
        let evicted = inner.trim();
        drop(inner);
        self.count_evictions(evicted);
    }

    /// Current capacity (cheap: one lock, no counter reads).
    pub(crate) fn capacity(&self) -> usize {
        self.lock().capacity
    }

    pub(crate) fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            // lint: ordering: monotonic stats reads; a stale value only skews the snapshot
            hits: self.hits.load(Ordering::Relaxed),
            // lint: ordering: monotonic stats reads; a stale value only skews the snapshot
            misses: self.misses.load(Ordering::Relaxed),
            // lint: ordering: monotonic stats reads; a stale value only skews the snapshot
            bypassed: self.bypassed.load(Ordering::Relaxed),
            // lint: ordering: monotonic stats reads; a stale value only skews the snapshot
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: inner.resident.len(),
            capacity: inner.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A one-chunk, one-row shard with all ten columns present.
    fn cols(n: u64) -> ShardColumns {
        let shard = ShardColumns::new(vec![1]);
        shard.fill(ColumnSet::ALL, std::array::from_fn(|_| vec![vec![n]]));
        shard
    }

    /// How a read that can fill came out.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Read {
        Hit,
        Fill,
        Bypass,
    }

    impl ColumnCache {
        /// A full-shard read of all ten columns, as a scan makes it.
        fn read(&self, file: &str) -> Read {
            match self.lookup_or_admit(file, 1, ColumnSet::ALL, || cols(0)) {
                Found::Hit(_) => Read::Hit,
                Found::Fill(_) => Read::Fill,
                Found::Bypass => Read::Bypass,
            }
        }

        /// One pass of a loop: how many reads hit.
        fn pass(&self, files: &[String]) -> usize {
            let hits = files.iter().filter(|f| self.read(f) == Read::Hit);
            hits.count()
        }

        fn insert(&self, file: &str, created_gen: u64, columns: ShardColumns) {
            self.lookup_or_admit(file, created_gen, ColumnSet::ALL, || columns);
        }

        fn lookup_all(&self, file: &str, created_gen: u64) -> Option<Arc<ShardColumns>> {
            self.lookup(file, created_gen, ColumnSet::ALL)
        }

        /// Resident file names, sorted (read off the index: no lookup,
        /// so nothing is touched or counted).
        fn resident(&self) -> Vec<String> {
            let inner = self.lock();
            let mut files: Vec<String> = inner.resident.values().map(|k| k.1.to_string()).collect();
            files.sort();
            files
        }
    }

    fn names(range: std::ops::Range<usize>) -> Vec<String> {
        range.map(|i| format!("shard-{i:02}")).collect()
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ColumnCache::new(2);
        cache.insert("a", 1, cols(1));
        cache.insert("b", 1, cols(2));
        assert!(cache.lookup_all("a", 1).is_some()); // touch a: b is now LRU
                                                     // A full cache refuses c's first lookup; nothing has used b since,
                                                     // so its second takes b's slot.
        assert_eq!(cache.read("c"), Read::Bypass);
        assert_eq!(cache.read("c"), Read::Fill);
        assert!(cache.lookup_all("b", 1).is_none());
        assert!(cache.lookup_all("a", 1).is_some());
        assert!(cache.lookup_all("c", 1).is_some());
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!((stats.misses, stats.bypassed, stats.evictions), (4, 1, 1));
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
        assert_eq!(cache.read("a"), Read::Bypass, "nor is anything remembered");
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.misses, stats.bypassed), (0, 2, 2));
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
    fn regrown_room_admits_at_once_and_capacity_zero_forgets_everything() {
        let cache = ColumnCache::new(1);
        assert_eq!(
            (cache.read("d"), cache.read("b")),
            (Read::Fill, Read::Bypass)
        );
        cache.set_capacity(3);
        assert_eq!(
            cache.read("e"),
            Read::Fill,
            "free room needs no second look"
        );
        assert_eq!(cache.read("a"), Read::Fill);
        assert_eq!(cache.read("c"), Read::Bypass, "full again");
        assert_eq!(cache.resident(), ["a", "d", "e"]);
        // Down to nothing and back leaves an empty cache with no memory of
        // b or c: the next scan decodes every shard it visits.
        cache.set_capacity(0);
        cache.set_capacity(3);
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.pass(&names(0..3)), 0);
        assert_eq!(cache.resident(), names(0..3));
        assert_eq!(cache.read("c"), Read::Bypass, "first sight, again");
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
        for name in ["a", "b", "c", "d", "c", "d"] {
            cache.insert(name, 1, cols(0));
        }
        let stats = cache.stats();
        assert_eq!(
            stats.evictions, 2,
            "c and d, seen twice, pushed a and b out"
        );
        assert_eq!((stats.misses, stats.bypassed), (6, 2));
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
        let Found::Fill(entry) = cache.lookup_or_admit("s", 1, a, || ShardColumns::new(vec![2, 1]))
        else {
            panic!("free room admits");
        };
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
        let Found::Fill(again) = cache.lookup_or_admit("s", 1, b, || unreachable!("it exists"))
        else {
            panic!("a resident entry lacking a column is filled");
        };
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

    #[test]
    fn a_loop_longer_than_the_cache_keeps_its_first_residents() {
        let cache = ColumnCache::new(8);
        let all = names(0..12);
        assert_eq!(cache.pass(&all), 0);
        let first = cache.stats();
        assert_eq!((first.misses, first.bypassed, first.evictions), (12, 4, 0));
        assert_eq!(cache.resident(), names(0..8));
        for pass in 2..6 {
            let before = cache.stats();
            assert_eq!(cache.pass(&all), 8, "pass {pass}");
            let after = cache.stats();
            assert_eq!(after.hits - before.hits, 8);
            assert_eq!(after.bypassed - before.bypassed, 4);
            assert_eq!(after.misses - before.misses, 4);
            assert_eq!(after.evictions, 0);
            assert_eq!(cache.resident(), names(0..8), "pass {pass}");
        }

        // The working set narrows to six shards, four of them outside:
        // each wins a slot on its next lookup (its previous one is more
        // recent than the last use of a shard the loop has left).
        let narrow = names(6..12);
        assert_eq!(cache.pass(&narrow), 2);
        assert_eq!(cache.pass(&narrow), 6);
        assert_eq!(cache.pass(&narrow), 6);
        assert_eq!(cache.stats().evictions, 4);
        assert_eq!(cache.resident(), names(4..12));

        // Widening back is a loop again: whoever is resident stays.
        for _ in 0..3 {
            assert_eq!(cache.pass(&all), 8);
        }
        assert_eq!(cache.stats().evictions, 4);
        assert_eq!(cache.resident(), names(4..12));
    }

    #[test]
    fn a_sweep_of_unseen_keys_displaces_nothing() {
        let cache = ColumnCache::new(8);
        let all = names(0..12);
        cache.pass(&all);
        cache.pass(&all);
        let before = cache.stats();
        assert_eq!(cache.pass(&names(100..140)), 0);
        let after = cache.stats();
        assert_eq!(after.bypassed - before.bypassed, 40);
        assert_eq!(after.evictions, 0);
        assert_eq!(cache.resident(), names(0..8));
        assert_eq!(cache.pass(&all), 8, "the loop hits as before the sweep");
    }

    #[test]
    fn a_second_lookup_is_admitted_iff_more_recent_than_the_victims_last_use() {
        let cache = ColumnCache::new(2);
        assert_eq!((cache.read("a"), cache.read("b")), (Read::Fill, Read::Fill));
        // x: refused unseen, then both residents are used, so its first
        // lookup is older than the victim's last use — refused again; that
        // lookup is now the more recent, and the third is admitted.
        assert_eq!(cache.read("x"), Read::Bypass);
        assert_eq!((cache.read("a"), cache.read("b")), (Read::Hit, Read::Hit));
        assert_eq!(cache.read("x"), Read::Bypass);
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.read("x"), Read::Fill);
        assert_eq!(cache.resident(), ["b", "x"]);
        // y: only the victim's last use counts — b is used in between,
        // a is long gone, x is the victim and older than y's first lookup.
        assert_eq!(cache.read("y"), Read::Bypass);
        assert_eq!(cache.read("b"), Read::Hit);
        assert_eq!(cache.read("y"), Read::Fill);
        assert_eq!(cache.resident(), ["b", "y"]);
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn remembered_lookups_stay_within_their_bound() {
        let cache = ColumnCache::new(4);
        for i in 0..100_000 {
            cache.read(&format!("s{i}"));
        }
        let inner = cache.lock();
        assert_eq!(inner.resident.len(), 4);
        assert_eq!(inner.refused.len(), 4 * HISTORY_PER_SLOT);
        let slots: usize = inner.slots.values().map(HashMap::len).sum();
        assert_eq!(slots, 4 + 4 * HISTORY_PER_SLOT);
        // The oldest were forgotten: the last refused are the ones kept.
        let oldest = inner.refused.values().next().expect("bound > 0");
        assert_eq!(&*oldest.1, format!("s{}", 100_000 - 4 * HISTORY_PER_SLOT));
        drop(inner);
        cache.set_capacity(1);
        assert_eq!(cache.lock().refused.len(), HISTORY_PER_SLOT);
    }

    /// The rule, longhand: plain `Vec`s and linear scans, two columns.
    #[derive(Default)]
    struct Model {
        capacity: usize,
        tick: u64,
        /// `(key, tick of last use, columns held)`.
        resident: Vec<(usize, u64, [bool; 2])>,
        /// `(key, tick of last refused lookup)`.
        refused: Vec<(usize, u64)>,
    }

    impl Model {
        fn peek(&mut self, key: usize, set: [bool; 2]) -> bool {
            self.tick += 1;
            let held =
                |r: &&mut (usize, u64, [bool; 2])| r.0 == key && (0..2).all(|c| r.2[c] || !set[c]);
            let hit = self.resident.iter_mut().find(held);
            hit.map(|r| r.1 = self.tick).is_some()
        }

        /// The outcome of a read that can fill, and whether it evicted.
        fn read(&mut self, key: usize, set: [bool; 2]) -> (Read, bool) {
            self.tick += 1;
            if let Some(r) = self.resident.iter_mut().find(|r| r.0 == key) {
                let hit = (0..2).all(|c| r.2[c] || !set[c]);
                (r.1, r.2) = (self.tick, [r.2[0] || set[0], r.2[1] || set[1]]);
                return (if hit { Read::Hit } else { Read::Fill }, false);
            }
            if self.capacity == 0 {
                return (Read::Bypass, false);
            }
            let seen = self.refused.iter().position(|r| r.0 == key);
            let seen = seen.map(|at| self.refused.remove(at).1);
            let full = self.resident.len() >= self.capacity;
            let victim = self.resident.iter().map(|r| r.1).min().filter(|_| full);
            if victim.is_some_and(|victim| seen.is_none_or(|seen| seen < victim)) {
                self.refused.push((key, self.tick));
                self.trim();
                return (Read::Bypass, false);
            }
            self.resident.retain(|r| Some(r.1) != victim);
            self.resident.push((key, self.tick, set));
            (Read::Fill, victim.is_some())
        }

        /// Oldest out, down to the bounds; how many entries were evicted.
        fn trim(&mut self) -> usize {
            self.resident.sort_by_key(|r| r.1);
            self.refused.sort_by_key(|r| r.1);
            let evicted = self.resident.len().saturating_sub(self.capacity);
            let forgotten = self
                .refused
                .len()
                .saturating_sub(self.capacity * HISTORY_PER_SLOT);
            self.resident.drain(..evicted);
            self.refused.drain(..forgotten);
            evicted
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random lookups, fills and capacity changes: the cache and the
        /// longhand model agree on every outcome and every counter, the
        /// cache never holds more than its capacity, and an entry handed
        /// out is always the one filed under the key asked for.
        #[test]
        fn cache_follows_the_reference_model(
            capacity in 0usize..4,
            ops in prop::collection::vec((0u8..12, 0usize..40, 0usize..3, 0usize..4), 1..400),
        ) {
            // The model's two columns, as the cache and as the model name them.
            const A: ColumnSet = ColumnSet::EMPTY.with(2);
            const SETS: [(ColumnSet, [bool; 2]); 3] = [
                (A, [true, false]),
                (ColumnSet::EMPTY.with(7), [false, true]),
                (A.with(7), [true, true]),
            ];
            let cache = ColumnCache::new(capacity);
            let mut model = Model { capacity, ..Model::default() };
            let (mut hits, mut misses, mut bypassed, mut evictions) = (0, 0, 0, 0);
            for (op, key, set, resize) in ops {
                let file = format!("shard-{key}");
                let (columns, want) = SETS[set];
                // A shard's chunk length tells its key.
                let handed = match op {
                    0 => {
                        model.capacity = resize;
                        evictions += model.trim() as u64;
                        cache.set_capacity(resize);
                        None
                    }
                    1..=3 => {
                        let hit = cache.lookup(&file, 1, columns);
                        prop_assert_eq!(hit.is_some(), model.peek(key, want));
                        hits += u64::from(hit.is_some());
                        hit
                    }
                    _ => {
                        let (outcome, evicted) = model.read(key, want);
                        let new = || ShardColumns::new(vec![key]);
                        let found = cache.lookup_or_admit(&file, 1, columns, new);
                        hits += u64::from(outcome == Read::Hit);
                        misses += u64::from(outcome != Read::Hit);
                        bypassed += u64::from(outcome == Read::Bypass);
                        evictions += u64::from(evicted);
                        match (found, outcome) {
                            (Found::Hit(shard), Read::Hit) => Some(shard),
                            (Found::Fill(shard), Read::Fill) => {
                                // As the catalog does: decode what lacks.
                                let missing = columns.minus(shard.present());
                                shard.fill(missing, std::array::from_fn(|_| vec![vec![0; key]]));
                                Some(shard)
                            }
                            (Found::Bypass, Read::Bypass) => None,
                            (_, outcome) => {
                                prop_assert!(false, "the model says {:?} for {}", outcome, file);
                                None
                            }
                        }
                    }
                };
                if let Some(shard) = handed {
                    prop_assert_eq!(shard.chunk(0).len(), key);
                }
                let stats = cache.stats();
                prop_assert_eq!(
                    (stats.hits, stats.misses, stats.bypassed, stats.evictions),
                    (hits, misses, bypassed, evictions)
                );
                prop_assert_eq!(stats.entries, model.resident.len());
                prop_assert!(stats.entries <= stats.capacity);
                prop_assert!(stats.evictions <= stats.misses - stats.bypassed);
            }
        }
    }
}
