//! Projection at decode, counted: what `store.columns_decoded` and
//! `store.columns_skipped` say a read kept and skipped. The counters
//! are process-wide, so this file is a test binary of its own and its
//! tests take turns.

use std::sync::{Arc, Barrier, Mutex};
use swim_catalog::{Catalog, CatalogOptions};
use swim_query::{AggValue, Aggregate, CatalogQuery, Query};
use swim_store::format::columns::ColumnSet;
use swim_store::{StoreOptions, ZoneMap, ZONE_COLUMNS};
use swim_trace::trace::WorkloadKind;
use swim_trace::{DataSize, Dur, JobBuilder, Timestamp, Trace};

static COUNTERS: Mutex<()> = Mutex::new(());

const JOBS: u64 = 1_000;
const JOBS_PER_CHUNK: u32 = 64;

/// A one-shard catalog of `JOBS` jobs in 16 chunks.
fn catalog(tag: &str) -> (Catalog, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("swim-projection-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let jobs = (0..JOBS)
        .map(|i| {
            JobBuilder::new(i)
                .submit(Timestamp::from_secs(i * 30))
                .duration(Dur::from_secs(1 + i % 700))
                .input(DataSize::from_bytes(i * 1_000_003))
                .output(DataSize::from_bytes(i * 77))
                .map_task_time(Dur::from_secs(3 + i % 60))
                .tasks(1 + (i % 20) as u32, 0)
                .build()
                .unwrap()
        })
        .collect();
    let trace = Trace::new(WorkloadKind::Custom("projection".into()), 9, jobs).unwrap();
    let mut catalog = Catalog::init(&dir).unwrap();
    let options = CatalogOptions {
        store: StoreOptions {
            jobs_per_chunk: JOBS_PER_CHUNK,
        },
        ..CatalogOptions::default()
    };
    catalog.ingest_trace(&trace, &options).unwrap();
    assert_eq!(catalog.shard_count(), 1);
    (catalog, dir)
}

/// Run `work` with the counters on and zeroed; returns what it counted as
/// `(chunks_decoded, columns_decoded, columns_skipped)`.
fn counted(work: impl FnOnce()) -> (u64, u64, u64) {
    swim_obs::set_enabled(swim_obs::METRICS);
    swim_obs::reset();
    work();
    let snapshot = swim_obs::snapshot();
    swim_obs::set_enabled(0);
    let counter = |name| snapshot.counter(name).unwrap_or(0);
    (
        counter("store.chunks_decoded"),
        counter("store.columns_decoded"),
        counter("store.columns_skipped"),
    )
}

#[test]
fn a_bare_count_decodes_no_column_and_still_counts_every_row() {
    let _turn = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let (catalog, dir) = catalog("count");
    let chunks = JOBS.div_ceil(u64::from(JOBS_PER_CHUNK));
    let query = Query::new().select(Aggregate::Count);
    for capacity in [0, 8] {
        catalog.set_cache_capacity(capacity);
        let mut rows = Vec::new();
        let counts = counted(|| rows = catalog.execute_serial(&query).unwrap().output.rows);
        assert_eq!(rows[0].values, vec![AggValue::Int(JOBS)]);
        // Every chunk was read (its framing checked) and all ten of its
        // columns skipped, none decoded.
        assert_eq!(counts, (chunks, 0, chunks * ZONE_COLUMNS as u64));
    }
    // The cache entry the second run made holds no column, and is a hit
    // for the same question: nothing is decoded, or even read, again.
    let stats = catalog.cache_stats();
    assert_eq!((stats.misses, stats.entries), (1, 1));
    let counts = counted(|| {
        let again = catalog.execute(&query).unwrap();
        assert_eq!(again.output.rows[0].values, vec![AggValue::Int(JOBS)]);
    });
    assert_eq!(counts, (0, 0, 0));
    assert_eq!(catalog.cache_stats().hits, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn two_threads_filling_disjoint_columns_of_one_shard_decode_each_column_once() {
    let _turn = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let (catalog, dir) = catalog("race");
    let store = catalog.open_shard(0).unwrap();
    let chunks = store.chunk_count() as u64;
    let all: Vec<usize> = (0..store.chunk_count()).collect();
    let expected = store
        .fold_columns(&all, Vec::new(), |mut acc, _, cols| {
            acc.push(cols.clone());
            acc
        })
        .unwrap();

    let io = ZoneMap::IO
        .iter()
        .fold(ColumnSet::EMPTY, |set, &c| set.with(c));
    let times = ColumnSet::EMPTY.with(ZoneMap::SUBMIT).with(2);
    let start = Barrier::new(2);
    let mut entries = Vec::new();
    let counts = counted(|| {
        entries = std::thread::scope(|s| {
            let fill = |set: ColumnSet| {
                let (catalog, store, start) = (&catalog, &store, &start);
                s.spawn(move || {
                    start.wait();
                    let shard = catalog.shard_columns(0, set, Some(store)).unwrap();
                    shard.expect("a fill returns the entry")
                })
            };
            let handles = [fill(io), fill(times)];
            handles.map(|h| h.join().unwrap()).to_vec()
        });
    });
    // One pass over the shard per thread, each keeping only its own
    // columns: five chunk-columns decoded in all, never one twice.
    assert_eq!(
        counts,
        (
            2 * chunks,
            5 * chunks,
            (2 * ZONE_COLUMNS as u64 - 5) * chunks
        )
    );
    assert!(Arc::ptr_eq(&entries[0], &entries[1]), "one entry per shard");
    let entry = &entries[0];
    let union = ZoneMap::IO.iter().fold(times, |set, &c| set.with(c));
    assert_eq!(entry.present(), union);
    for (ci, full) in expected.iter().enumerate() {
        let (held, full) = (entry.chunk(ci), full.view());
        assert_eq!(held.len(), full.len());
        for c in 0..ZONE_COLUMNS {
            if union.contains(c) {
                assert_eq!(held.column(c), full.column(c), "chunk {ci}, column {c}");
            } else {
                assert!(held.column(c).is_empty());
            }
        }
    }
    let stats = catalog.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 1));
    // The union is now a hit for either set, for both, and for less.
    for set in [io, times, union, ColumnSet::EMPTY] {
        let counts = counted(|| {
            let hit = catalog.shard_columns(0, set, None).unwrap();
            assert!(Arc::ptr_eq(&hit.expect("held"), entry));
        });
        assert_eq!(counts, (0, 0, 0));
    }
    assert!(catalog
        .shard_columns(0, ColumnSet::ALL, None)
        .unwrap()
        .is_none());
    std::fs::remove_dir_all(&dir).unwrap();
}
