//! The result-cache contract, under random interleavings: a hit is
//! returned iff `(generation, key kind, text)` matches an insert, a
//! generation bump never serves a stale entry, and cached responses are
//! bit-for-bit equal to freshly executed ones.

mod support;

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use swim_query::cli::OutputFormat;
use swim_serve::{serve, KeyKind, ResultCache, ServeOptions};

/// A distinguishable body: the tag round-trips through the cache.
fn tagged(tag: u64) -> Arc<[u8]> {
    Arc::from(format!("result {tag}\n").into_bytes())
}

/// The kinds of key one text can be filed under.
const KINDS: [KeyKind; 3] = [
    KeyKind::Canonical(OutputFormat::Table),
    KeyKind::Canonical(OutputFormat::Json),
    KeyKind::Line,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// With capacity beyond the working set (no evictions), the cache
    /// behaves exactly like a map keyed `(generation, kind, text)`:
    /// every lookup returns precisely what the latest matching insert
    /// put in, and nothing across generations, formats or key kinds.
    #[test]
    fn cache_is_a_per_generation_map(
        ops in prop::collection::vec((any::<bool>(), 0u64..4, 0usize..3, 0u8..6), 1..120)
    ) {
        let cache = ResultCache::new(1024);
        let mut model: HashMap<(u64, usize, String), u64> = HashMap::new();
        let mut tag = 0u64;
        for (is_insert, generation, kind, key) in ops {
            let text = format!("query-{key}");
            if is_insert {
                tag += 1;
                cache.insert(generation, KINDS[kind], &text, tagged(tag));
                model.insert((generation, kind, text), tag);
            } else {
                let got = cache.lookup(generation, KINDS[kind], &text);
                match (got, model.get(&(generation, kind, text))) {
                    (None, None) => {}
                    (Some(hit), Some(&expect)) => {
                        // Bit-for-bit: the cached bytes ARE the inserted
                        // bytes.
                        prop_assert_eq!(hit, tagged(expect));
                    }
                    (got, want) => prop_assert!(
                        false,
                        "lookup/model disagree: got {:?}, want tag {:?}",
                        got,
                        want
                    ),
                }
            }
        }
        // Totals reconcile: every op was either an insert or a counted
        // lookup.
        let stats = cache.stats();
        prop_assert_eq!(stats.entries, model.len());
        prop_assert_eq!(stats.evictions, 0);
    }

    /// Entries from one generation are invisible to every other, no
    /// matter the interleaving of inserts.
    #[test]
    fn generations_never_alias(
        inserts in prop::collection::vec((0u64..5, 0u8..4), 1..60),
        probe_gen in 0u64..5,
        probe_key in 0u8..4,
    ) {
        let cache = ResultCache::new(1024);
        let mut last_for_probe = None;
        for (i, (generation, key)) in inserts.iter().enumerate() {
            let tag = i as u64 + 1;
            cache.insert(*generation, KINDS[0], &format!("query-{key}"), tagged(tag));
            if (*generation, *key) == (probe_gen, probe_key) {
                last_for_probe = Some(tag);
            }
        }
        let got = cache.lookup(probe_gen, KINDS[0], &format!("query-{probe_key}"));
        match (got, last_for_probe) {
            (None, None) => {}
            (Some(hit), Some(tag)) => prop_assert_eq!(hit, tagged(tag)),
            (got, want) => prop_assert!(false, "probe disagreed: got {:?}, want {:?}", got, want),
        }
    }
}

/// End to end through the server: a generation bump must miss the cache
/// (never serving the old generation's rows), and a warm hit must be
/// byte-identical to the cold execution it cached.
#[test]
fn server_cache_is_generation_correct_and_bitwise_stable() {
    let dir = support::temp_dir("cachegen");
    let cat_dir = dir.join("cat.d");
    drop(support::init_catalog(&cat_dir, 300));
    let extra = dir.join("extra.swim");
    support::write_trace_file(&extra, 9, 140);

    let handle = serve(
        &cat_dir,
        ServeOptions {
            workers: 2,
            allow_admin: true,
            cache_capacity: 32,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = handle.addr();
    let line = "query --select \"count,sum(total_io)\"";

    let cold = support::request(addr, line);
    assert!(cold.ok && !cold.cached);
    assert_eq!(cold.generation, 1);
    let warm = support::request(addr, line);
    assert!(
        warm.ok && warm.cached,
        "repeat of an identical query must hit"
    );
    assert_eq!(warm.generation, 1);
    assert_eq!(warm.body, cold.body, "cached bytes must equal fresh bytes");

    let ingest = support::request(addr, &format!("ingest {}", extra.display()));
    assert!(ingest.ok, "{}", ingest.body_text());
    assert_eq!(ingest.generation, 2);

    let bumped = support::request(addr, line);
    assert!(bumped.ok);
    assert_eq!(
        bumped.generation, 2,
        "request after ingest must see the new generation"
    );
    assert!(
        !bumped.cached,
        "a generation bump must never serve the old entry"
    );
    assert_ne!(
        bumped.body, cold.body,
        "new generation has more jobs, bytes must differ"
    );
    let warm2 = support::request(addr, line);
    assert!(warm2.ok && warm2.cached);
    assert_eq!(warm2.body, bumped.body);

    let stats = handle.stats();
    assert_eq!(stats.cache.hits, 2);
    assert!(stats.cache.misses >= 2);
    handle.shutdown_join();
    std::fs::remove_dir_all(&dir).ok();
}
