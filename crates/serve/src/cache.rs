//! The per-generation result cache: rendered response bodies.
//!
//! An entry is **what is sent**: the body bytes of an `ok` query
//! response (rendered table/markdown/JSON plus the summary line),
//! shared as an `Arc<[u8]>`. A miss executes and renders once and
//! inserts the bytes; a hit copies them behind a response header —
//! nothing is executed, and nothing is rendered twice.
//!
//! One LRU holds two kinds of key ([`KeyKind`]) for those bodies:
//!
//! * `(generation, Canonical(format), canonical-query)` — the canonical
//!   form is the deterministic `Debug` rendering of the typed
//!   [`swim_query::Query`], so two request lines that parse to the same
//!   plan share an entry; the output format is part of the key because
//!   it is part of the bytes.
//! * `(generation, Line, trimmed-request-line)` — added by the server
//!   the second time a line is seen (when it is answered by a canonical
//!   hit), pointing at the same bytes, so a third sending is answered
//!   before the line is even tokenized. Lines that never repeat never
//!   get one.
//!
//! Both kinds share the one map, the one capacity and the one eviction
//! order; [`CacheStats::entries`] counts keys.
//!
//! The generation in the key is what makes the cache *trivially* correct
//! under concurrent `ingest`/`compact`: a mutation publishes a new
//! generation, new requests look up under the new key and miss, and old
//! entries are never served for it. Stale entries need no invalidation
//! protocol; they stop being looked up and age out of the LRU.
//!
//! Same shape as the catalog's decoded-column LRU
//! (`crates/catalog/src/cache.rs`): a mutex around the map plus
//! lifetime atomic hit/miss/eviction counters, mirrored into `swim-obs`
//! counters (`serve.cache_hits`, `serve.cache_misses`,
//! `serve.cache_evictions`, and `serve.cache_line_hits` for the hits a
//! line key answered).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use swim_obs::Counter;
use swim_query::cli::OutputFormat;

static CACHE_HITS: Counter = Counter::new("serve.cache_hits");
static CACHE_LINE_HITS: Counter = Counter::new("serve.cache_line_hits");
static CACHE_MISSES: Counter = Counter::new("serve.cache_misses");
static CACHE_EVICTIONS: Counter = Counter::new("serve.cache_evictions");

/// Lifetime counters plus current occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache, under either kind of key.
    pub hits: u64,
    /// Canonical lookups that missed (including all of them while
    /// disabled). A line-key miss is not counted: the request goes on to
    /// its canonical lookup, so `hits + misses` is one per query request.
    pub misses: u64,
    /// Keys evicted to stay within capacity.
    pub evictions: u64,
    /// Keys currently resident. This counts keys, not bodies: a result
    /// reached by its canonical form and by a repeated request line
    /// holds two.
    pub entries: usize,
    /// Maximum resident keys (0 disables caching).
    pub capacity: usize,
}

/// Which kind of text a key carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyKind {
    /// The canonical form of a parsed query, rendered in this format.
    Canonical(OutputFormat),
    /// A trimmed request line, verbatim.
    Line,
}

struct Slot {
    body: Arc<[u8]>,
    last_used: u64,
}

struct Inner {
    /// `(generation, kind)`, then the key text: two levels, so that a
    /// lookup borrows its text instead of building an owned key.
    slots: HashMap<(u64, KeyKind), HashMap<Arc<str>, Slot>>,
    /// Every resident key under the tick of its last use. Ticks are
    /// unique, so the first entry is the least recently used.
    by_tick: BTreeMap<u64, (u64, KeyKind, Arc<str>)>,
    tick: u64,
    capacity: usize,
}

/// A bounded LRU of rendered query responses (see the module docs for
/// the two kinds of key).
pub struct ResultCache {
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ResultCache {
    /// A cache holding at most `capacity` keys; 0 disables caching
    /// (every lookup misses, inserts are dropped).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            inner: Mutex::new(Inner {
                slots: HashMap::new(),
                by_tick: BTreeMap::new(),
                tick: 0,
                capacity,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The keys and ticks, locked; a poisoned lock is used as is.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look up the body filed under `(generation, kind, text)`.
    pub fn lookup(&self, generation: u64, kind: KeyKind, text: &str) -> Option<Arc<[u8]>> {
        let hit = {
            let mut guard = self.lock();
            let inner = &mut *guard;
            let slot = inner
                .slots
                .get_mut(&(generation, kind))
                .and_then(|texts| texts.get_mut(text));
            slot.map(|slot| {
                inner.tick += 1;
                if let Some(key) = inner.by_tick.remove(&slot.last_used) {
                    inner.by_tick.insert(inner.tick, key);
                }
                slot.last_used = inner.tick;
                Arc::clone(&slot.body)
            })
        };
        match (&hit, kind) {
            (Some(_), _) => {
                // lint: ordering: statistics counter; no data is published through it
                self.hits.fetch_add(1, Ordering::Relaxed);
                CACHE_HITS.incr();
                if kind == KeyKind::Line {
                    CACHE_LINE_HITS.incr();
                }
            }
            (None, KeyKind::Canonical(_)) => {
                // lint: ordering: statistics counter; no data is published through it
                self.misses.fetch_add(1, Ordering::Relaxed);
                CACHE_MISSES.incr();
            }
            (None, KeyKind::Line) => {}
        }
        hit
    }

    /// File `body` under `(generation, kind, text)`, evicting the
    /// least-recently-used keys past capacity. A no-op when caching is
    /// disabled.
    pub fn insert(&self, generation: u64, kind: KeyKind, text: &str, body: Arc<[u8]>) {
        let mut guard = self.lock();
        let inner = &mut *guard;
        if inner.capacity == 0 {
            return;
        }
        inner.tick += 1;
        let text: Arc<str> = Arc::from(text);
        let slot = Slot {
            body,
            last_used: inner.tick,
        };
        let texts = inner.slots.entry((generation, kind)).or_default();
        if let Some(replaced) = texts.insert(Arc::clone(&text), slot) {
            inner.by_tick.remove(&replaced.last_used);
        }
        inner.by_tick.insert(inner.tick, (generation, kind, text));
        let mut evicted = 0u64;
        while inner.by_tick.len() > inner.capacity {
            let Some((_, (generation, kind, text))) = inner.by_tick.pop_first() else {
                break;
            };
            if let Some(texts) = inner.slots.get_mut(&(generation, kind)) {
                texts.remove(&text);
                if texts.is_empty() {
                    inner.slots.remove(&(generation, kind));
                }
            }
            evicted += 1;
        }
        drop(guard);
        if evicted > 0 {
            // lint: ordering: statistics counter; no data is published through it
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            CACHE_EVICTIONS.add(evicted);
        }
    }

    /// Drop all resident keys; lifetime counters survive.
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.slots.clear();
        inner.by_tick.clear();
    }

    /// Lifetime counters plus current occupancy.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            // lint: ordering: statistics counter; no data is published through it
            hits: self.hits.load(Ordering::Relaxed),
            // lint: ordering: statistics counter; no data is published through it
            misses: self.misses.load(Ordering::Relaxed),
            // lint: ordering: statistics counter; no data is published through it
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: inner.by_tick.len(),
            capacity: inner.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: KeyKind = KeyKind::Canonical(OutputFormat::Table);

    fn body(tag: &str) -> Arc<[u8]> {
        Arc::from(tag.as_bytes())
    }

    #[test]
    fn hit_iff_generation_and_query_match() {
        let cache = ResultCache::new(8);
        cache.insert(1, TABLE, "q1", body("a"));
        assert_eq!(&*cache.lookup(1, TABLE, "q1").unwrap(), b"a");
        assert!(
            cache.lookup(2, TABLE, "q1").is_none(),
            "generation bump must miss"
        );
        assert!(
            cache.lookup(1, TABLE, "q2").is_none(),
            "different query must miss"
        );
        let json = KeyKind::Canonical(OutputFormat::Json);
        assert!(
            cache.lookup(1, json, "q1").is_none(),
            "another format is another body"
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 3));
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn line_keys_share_the_lru_and_count_only_their_hits() {
        let cache = ResultCache::new(2);
        cache.insert(1, TABLE, "q", body("a"));
        assert!(
            cache.lookup(1, KeyKind::Line, "q").is_none(),
            "kinds differ"
        );
        assert_eq!(cache.stats().misses, 0, "a line miss is not a miss");
        cache.insert(1, KeyKind::Line, "q", body("a"));
        assert_eq!(cache.stats().entries, 2, "entries counts keys");
        assert!(cache.lookup(1, KeyKind::Line, "q").is_some());
        assert_eq!(cache.stats().hits, 1);
        // One capacity, one eviction order: the canonical key is now the
        // colder of the two.
        cache.insert(1, TABLE, "r", body("b"));
        assert!(cache.lookup(1, TABLE, "q").is_none());
        assert!(cache.lookup(1, KeyKind::Line, "q").is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ResultCache::new(2);
        cache.insert(1, TABLE, "a", body("a"));
        cache.insert(1, TABLE, "b", body("b"));
        assert!(cache.lookup(1, TABLE, "a").is_some()); // a is now hotter than b
        cache.insert(1, TABLE, "c", body("c"));
        assert!(
            cache.lookup(1, TABLE, "b").is_none(),
            "b was the LRU victim"
        );
        assert!(cache.lookup(1, TABLE, "a").is_some());
        assert!(cache.lookup(1, TABLE, "c").is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn reinserting_a_key_replaces_it_without_growing() {
        let cache = ResultCache::new(2);
        cache.insert(1, TABLE, "a", body("old"));
        cache.insert(1, TABLE, "b", body("b"));
        cache.insert(1, TABLE, "a", body("new"));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (2, 0));
        // The re-insert made `a` the hotter key, so `b` goes first.
        cache.insert(1, TABLE, "c", body("c"));
        assert!(cache.lookup(1, TABLE, "b").is_none());
        assert_eq!(&*cache.lookup(1, TABLE, "a").unwrap(), b"new");
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = ResultCache::new(0);
        cache.insert(1, TABLE, "a", body("a"));
        assert!(cache.lookup(1, TABLE, "a").is_none());
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn clear_keeps_lifetime_counters() {
        let cache = ResultCache::new(4);
        cache.insert(1, TABLE, "a", body("a"));
        assert!(cache.lookup(1, TABLE, "a").is_some());
        cache.clear();
        assert!(cache.lookup(1, TABLE, "a").is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 0));
    }
}
