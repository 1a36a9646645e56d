//! # swim-catalog
//!
//! A sharded trace-dataset catalog: a directory of immutable `.swim`
//! shard files behind one versioned `MANIFEST`, so fleets of cluster
//! traces — the paper studies seven, operators accumulate hundreds —
//! are managed, pruned, and scanned as one dataset.
//!
//! Three ideas carry the design:
//!
//! 1. **A manifest that answers planner questions without I/O.** Every
//!    shard entry carries its job count, byte size, and a *shard-level
//!    zone map* — `[min, max]` over all ten numeric columns for the
//!    whole shard. Dataset summaries are O(shards), and `swim-query`'s
//!    interval analysis runs against shard zones first, so shards that
//!    cannot match a predicate are **never opened** (two-level pruning:
//!    shard zones, then the store's per-chunk zone maps).
//! 2. **Atomic, append-only mutation.** Shard files are immutable once
//!    renamed into place; ingest writes temp files, renames them, and
//!    rewrites the manifest *last* (also temp + rename) under a bumped
//!    generation. Readers of an older generation keep a consistent view;
//!    [`Catalog::compact`] merges undersized shards without touching
//!    the files old readers hold.
//! 3. **A decoded-column LRU.** Repeated queries skip the column
//!    decode: the catalog caches each shard's decoded columns
//!    ([`ShardColumns`]) one column at a time — only those some query
//!    has read — keyed by `(shard file, creation generation)` so
//!    compaction can never serve stale data. Eviction is LRU; a full
//!    cache admits a shard only if its previous lookup is more recent
//!    than the victim's last use, and reads the rest through, so a scan
//!    looping over more shards than slots keeps hitting the residents.
//!
//! The federated query execution itself (`catalog.execute(&query)`)
//! lives in `swim-query`, which layers its planner on top of this
//! crate; `swim-report`'s cross-trace battery accepts catalog
//! directories through the same storage surface.
//!
//! ```
//! use swim_catalog::{read_stores, Catalog, CatalogOptions};
//! use swim_trace::trace::WorkloadKind;
//! use swim_trace::{DataSize, Dur, JobBuilder, Timestamp, Trace};
//!
//! let jobs = (0..1000u64)
//!     .map(|i| {
//!         JobBuilder::new(i)
//!             .submit(Timestamp::from_secs(i * 60))
//!             .duration(Dur::from_secs(30))
//!             .input(DataSize::from_mb(64))
//!             .map_task_time(Dur::from_secs(90))
//!             .tasks(2, 0)
//!             .build()
//!             .unwrap()
//!     })
//!     .collect();
//! let trace = Trace::new(WorkloadKind::Custom("demo".into()), 25, jobs).unwrap();
//!
//! let dir = std::env::temp_dir().join(format!("swim-catalog-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let mut catalog = Catalog::init(&dir).unwrap();
//! let options = CatalogOptions { jobs_per_shard: 256, ..Default::default() };
//! let stats = catalog.ingest_trace(&trace, &options).unwrap();
//! assert_eq!(stats.shards, 4); // 1000 jobs at ≤256 per shard
//! assert_eq!(catalog.job_count(), 1000);
//! assert_eq!(catalog.summary(), trace.summary());
//! let stored = read_stores(&catalog.open_shards().unwrap(), |_, e| e).unwrap();
//! assert_eq!(stored, trace);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cache;
pub mod catalog;
pub mod error;
pub mod manifest;

pub use cache::{CacheStats, ShardColumns};
pub use catalog::{
    kind_and_machines, merge_stores, merge_stores_with_text, read_stores, Catalog, CatalogOptions,
    CompactStats, IngestStats, StoreMerge, DEFAULT_JOBS_PER_SHARD, MAX_JOBS_PER_SHARD,
};
pub use error::CatalogError;
pub use manifest::{Manifest, ShardEntry, MANIFEST_FILE};

#[cfg(test)]
mod tests {
    use super::*;
    use swim_store::StoreOptions;
    use swim_trace::trace::WorkloadKind;
    use swim_trace::{DataSize, Dur, JobBuilder, PathId, Timestamp, Trace};

    /// The catalog read back as one trace: [`read_stores`] over its
    /// shards, a read error named by the shard it came from.
    fn read_back(catalog: &Catalog) -> Result<Trace, CatalogError> {
        let shard = |idx: usize, e| CatalogError::shard(catalog.shards()[idx].file.clone(), e);
        read_stores(&catalog.open_shards()?, shard)
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "swim-catalog-test-{tag}-{}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn varied_trace(kind: WorkloadKind, n: u64, id_base: u64) -> Trace {
        let jobs = (0..n)
            .map(|i| {
                let id = id_base + i;
                let mut b = JobBuilder::new(id)
                    .name(format!("job_{id}"))
                    .submit(Timestamp::from_secs(i * 97 % 50_000))
                    .duration(Dur::from_secs(1 + i % 399))
                    .input(DataSize::from_bytes(
                        id.wrapping_mul(0x9E3779B9) % (1 << 40),
                    ))
                    .output(DataSize::from_bytes(i * 1000))
                    .map_task_time(Dur::from_secs(5 + i % 100))
                    .tasks(1 + (i % 30) as u32, (i % 3) as u32)
                    .input_paths(vec![PathId(i % 50)]);
                if i % 3 > 0 {
                    b = b
                        .shuffle(DataSize::from_bytes(i * 13))
                        .reduce_task_time(Dur::from_secs(2 + i % 55));
                }
                b.build().unwrap()
            })
            .collect();
        Trace::new(kind, 42, jobs).unwrap()
    }

    fn small_options(jobs_per_shard: u32) -> CatalogOptions {
        CatalogOptions {
            jobs_per_shard,
            store: StoreOptions { jobs_per_chunk: 64 },
        }
    }

    #[test]
    fn init_open_and_double_init() {
        let dir = temp_dir("init");
        let catalog = Catalog::init(&dir).unwrap();
        assert_eq!(catalog.generation(), 0);
        assert_eq!(catalog.shard_count(), 0);
        assert!(matches!(
            Catalog::init(&dir),
            Err(CatalogError::AlreadyInitialized(_))
        ));
        let reopened = Catalog::open(&dir).unwrap();
        assert_eq!(reopened.generation(), 0);
        assert!(matches!(
            Catalog::open(temp_dir("missing")),
            Err(CatalogError::NotACatalog(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ingest_splits_into_bounded_shards_and_round_trips() {
        let dir = temp_dir("ingest");
        let trace = varied_trace(WorkloadKind::Custom("t".into()), 1000, 0);
        let mut catalog = Catalog::init(&dir).unwrap();
        let stats = catalog.ingest_trace(&trace, &small_options(300)).unwrap();
        assert_eq!(stats.shards, 4); // 300+300+300+100
        assert_eq!(stats.jobs, 1000);
        assert_eq!(catalog.generation(), 1);
        assert_eq!(catalog.job_count(), 1000);
        for entry in catalog.shards() {
            assert!(entry.jobs <= 300);
            assert_eq!(entry.store_version, swim_store::format::VERSION);
            assert_eq!(entry.kind_label, "t");
        }
        // Bit-exact materialization (new_unchecked re-sorts (submit, id)
        // exactly as Trace::new did for the source).
        assert_eq!(read_back(&catalog).unwrap(), trace);
        // Summary is O(manifest) and matches the in-memory path.
        assert_eq!(catalog.summary(), trace.summary());
        // Reopen from disk: identical manifest view.
        let reopened = Catalog::open(&dir).unwrap();
        assert_eq!(reopened.shards(), catalog.shards());
        assert_eq!(reopened.generation(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_zone_maps_bracket_every_column() {
        let dir = temp_dir("zones");
        let trace = varied_trace(WorkloadKind::CcB, 500, 0);
        let mut catalog = Catalog::init(&dir).unwrap();
        catalog.ingest_trace(&trace, &small_options(200)).unwrap();
        for (idx, entry) in catalog.shards().iter().enumerate() {
            let store = catalog.open_shard(idx).unwrap();
            let shard_zone = entry.zone;
            for chunk_zone in store.zone_maps() {
                for c in 0..chunk_zone.min.len() {
                    assert!(shard_zone.min[c] <= chunk_zone.min[c]);
                    assert!(shard_zone.max[c] >= chunk_zone.max[c]);
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn multiple_ingests_append_and_mix_kinds() {
        let dir = temp_dir("append");
        let a = varied_trace(WorkloadKind::CcA, 300, 0);
        let b = varied_trace(WorkloadKind::CcB, 200, 10_000);
        let mut catalog = Catalog::init(&dir).unwrap();
        catalog.ingest_trace(&a, &small_options(1000)).unwrap();
        let gen_after_a = catalog.generation();
        catalog.ingest_trace(&b, &small_options(1000)).unwrap();
        assert_eq!(catalog.generation(), gen_after_a + 1);
        assert_eq!(catalog.shard_count(), 2);
        assert_eq!(catalog.job_count(), 500);
        let summary = catalog.summary();
        assert_eq!(summary.workload, "mixed(2)");
        assert_eq!(summary.jobs, 500);
        let trace = read_back(&catalog).unwrap();
        assert_eq!(trace.kind, WorkloadKind::Custom("mixed".into()));
        assert_eq!(trace.len(), 500);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ingest_of_empty_trace_is_a_noop() {
        let dir = temp_dir("empty");
        let mut catalog = Catalog::init(&dir).unwrap();
        let empty = Trace::new(WorkloadKind::CcA, 5, vec![]).unwrap();
        let stats = catalog
            .ingest_trace(&empty, &CatalogOptions::default())
            .unwrap();
        assert_eq!(stats, IngestStats::default());
        assert_eq!(catalog.generation(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ingest_path_streams_store_files() {
        let dir = temp_dir("path");
        let trace = varied_trace(WorkloadKind::CcE, 700, 0);
        let source = temp_dir("path-src");
        std::fs::create_dir_all(&source).unwrap();
        let swim = source.join("big.swim");
        swim_store::write_store_path(&trace, &swim, &StoreOptions { jobs_per_chunk: 50 }).unwrap();
        let mut catalog = Catalog::init(&dir).unwrap();
        let stats = catalog.ingest_path(&swim, 1, &small_options(250)).unwrap();
        assert_eq!(stats.shards, 3); // 250+250+200
        assert_eq!(read_back(&catalog).unwrap(), trace);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&source).unwrap();
    }

    #[test]
    fn column_cache_hits_on_repeat_and_respects_generation() {
        let dir = temp_dir("cache");
        let trace = varied_trace(WorkloadKind::CcA, 400, 0);
        let mut catalog = Catalog::init(&dir).unwrap();
        catalog.ingest_trace(&trace, &small_options(200)).unwrap();
        let all = swim_store::format::columns::ColumnSet::ALL;
        assert!(catalog.shard_columns(0, all, None).unwrap().is_none());
        let store = catalog.open_shard(0).unwrap();
        let cols = catalog.load_columns(0, &store).unwrap();
        let total: usize = (0..cols.chunk_count()).map(|c| cols.chunk(c).len()).sum();
        assert_eq!(total as u64, catalog.shards()[0].jobs);
        // Second access is served from memory.
        let again = catalog
            .shard_columns(0, all, None)
            .unwrap()
            .expect("cached");
        assert!(std::sync::Arc::ptr_eq(&cols, &again));
        let stats = catalog.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_merges_undersized_shards_and_preserves_data() {
        let dir = temp_dir("compact");
        let mut catalog = Catalog::init(&dir).unwrap();
        // Ingest five tiny slices of the same workload — five undersized
        // shards.
        for i in 0..5u64 {
            let slice = varied_trace(WorkloadKind::CcD, 40, i * 1000);
            catalog.ingest_trace(&slice, &small_options(1000)).unwrap();
        }
        assert_eq!(catalog.shard_count(), 5);
        let before = read_back(&catalog).unwrap();
        let gen_before = catalog.generation();
        let old_files: Vec<String> = catalog.shards().iter().map(|s| s.file.clone()).collect();

        let stats = catalog.compact(&small_options(1000)).unwrap();
        assert_eq!(stats.rewritten, 5);
        assert_eq!(stats.created, 1, "five 40-job shards merge into one");
        assert_eq!(stats.jobs, 200);
        assert_eq!(catalog.generation(), gen_before + 1);
        assert_eq!(catalog.shard_count(), 1);
        assert_eq!(catalog.shards()[0].kind_label, "CC-d");
        // Data is preserved bit for bit.
        assert_eq!(read_back(&catalog).unwrap(), before);
        // Old shard files survive for old readers …
        for file in &old_files {
            assert!(dir.join(file).exists(), "{file} must survive compaction");
        }
        // … until vacuum reclaims them.
        let removed = catalog.vacuum().unwrap();
        assert_eq!(removed, old_files.len());
        for file in &old_files {
            assert!(!dir.join(file).exists());
        }
        // Compaction converges: the merged shard is still undersized
        // relative to 1000/2, but it has no merge partner, so a second
        // compact with the *same* options is a no-op — no generation
        // churn, no rewrite.
        let gen = catalog.generation();
        let stats = catalog.compact(&small_options(1000)).unwrap();
        assert_eq!(stats, CompactStats::default());
        assert_eq!(catalog.generation(), gen);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_catalog_listing_an_old_shard_opens_but_refuses_to_read_it() {
        let dir = temp_dir("old-shard");
        let mut catalog = Catalog::init(&dir).unwrap();
        let trace = varied_trace(WorkloadKind::CcA, 100, 0);
        catalog.ingest_trace(&trace, &small_options(1000)).unwrap();
        // The one shard, and its manifest line, as a version-4 file.
        let file = catalog.shards()[0].file.clone();
        let mut image = std::fs::read(dir.join(&file)).unwrap();
        image[8..10].copy_from_slice(&4u16.to_le_bytes());
        std::fs::write(dir.join(&file), image).unwrap();
        let manifest = dir.join(crate::manifest::MANIFEST_FILE);
        let text = std::fs::read_to_string(&manifest).unwrap();
        std::fs::write(&manifest, text.replace("\tv=5\t", "\tv=4\t")).unwrap();

        let catalog = Catalog::open(&dir).unwrap();
        assert_eq!(catalog.shards()[0].store_version, 4);
        assert_eq!(catalog.summary(), trace.summary());
        match catalog.open_shard(0) {
            Err(CatalogError::Shard {
                file: named,
                source: swim_store::StoreError::UnsupportedVersion(4),
            }) => assert_eq!(named, file),
            other => panic!("{other:?}"),
        }
        assert!(read_back(&catalog).is_err());
        assert_eq!(catalog.vacuum().unwrap(), 0, "a listed shard is kept");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_is_rewritten_atomically() {
        let dir = temp_dir("atomic");
        let mut catalog = Catalog::init(&dir).unwrap();
        catalog
            .ingest_trace(
                &varied_trace(WorkloadKind::CcA, 100, 0),
                &small_options(1000),
            )
            .unwrap();
        // No temp litter after a successful ingest.
        let tmp_files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(tmp_files.is_empty(), "temp files must be renamed away");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn options_validate_rejects_zero_and_caps() {
        assert!(small_options(0).validate().is_err());
        assert_eq!(
            CatalogOptions {
                jobs_per_shard: u32::MAX,
                ..Default::default()
            }
            .validate()
            .unwrap(),
            MAX_JOBS_PER_SHARD
        );
        assert!(CatalogOptions {
            jobs_per_shard: 10,
            store: StoreOptions { jobs_per_chunk: 0 },
        }
        .validate()
        .is_err());
    }

    #[test]
    fn concurrent_mutation_fails_loudly_not_silently() {
        let dir = temp_dir("race");
        let mut writer_a = Catalog::init(&dir).unwrap();
        let mut writer_b = Catalog::open(&dir).unwrap();
        // A publishes generation 1; B still believes generation 0.
        writer_a
            .ingest_trace(
                &varied_trace(WorkloadKind::CcA, 50, 0),
                &small_options(1000),
            )
            .unwrap();
        // B's publish must be refused — either at the shard no-clobber
        // check (same computed file name) or at the generation re-check
        // — never silently overwrite A's shard or manifest.
        let err = writer_b
            .ingest_trace(
                &varied_trace(WorkloadKind::CcB, 60, 5000),
                &small_options(1000),
            )
            .expect_err("stale writer must be rejected");
        assert!(matches!(err, CatalogError::Invalid(_)), "{err}");
        // A's data is intact and the catalog reopens cleanly.
        let reopened = Catalog::open(&dir).unwrap();
        assert_eq!(reopened.generation(), 1);
        assert_eq!(reopened.job_count(), 50);
        assert_eq!(read_back(&reopened).unwrap().len(), 50);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ingest_stream_matches_ingest_trace() {
        let trace = varied_trace(WorkloadKind::Custom("s".into()), 1000, 0);

        let dir_a = temp_dir("stream-a");
        let mut whole = Catalog::init(&dir_a).unwrap();
        whole.ingest_trace(&trace, &small_options(300)).unwrap();

        // Same jobs, streamed in ragged blocks that straddle shard
        // boundaries every which way.
        let dir_b = temp_dir("stream-b");
        let mut streamed = Catalog::init(&dir_b).unwrap();
        let blocks: Vec<Vec<swim_trace::Job>> =
            trace.jobs().chunks(37).map(|c| c.to_vec()).collect();
        let stats = streamed
            .ingest_stream(
                trace.kind.clone(),
                trace.machines,
                blocks,
                &small_options(300),
            )
            .unwrap();

        assert_eq!(stats.shards, 4); // 300+300+300+100
        assert_eq!(stats.jobs, 1000);
        assert_eq!(streamed.summary(), whole.summary());
        assert_eq!(read_back(&streamed).unwrap(), read_back(&whole).unwrap());
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn ingest_stream_publishes_shards_before_the_stream_ends() {
        // O(store chunk + block) accounting, read *while the stream is
        // still being consumed*: whenever the next block is asked for,
        // every full shard is on disk under its final name — the catalog
        // holds no shard of jobs, only the block in hand (and the open
        // writer's last partial store chunk: see the `ShardSink` test in
        // `catalog.rs`).
        let dir = temp_dir("stream-bounded");
        let trace = varied_trace(WorkloadKind::CcA, 900, 0);
        let mut catalog = Catalog::init(&dir).unwrap();

        let shard_files = {
            let dir = dir.clone();
            move || {
                std::fs::read_dir(&dir)
                    .unwrap()
                    .filter(|e| {
                        e.as_ref()
                            .unwrap()
                            .file_name()
                            .to_string_lossy()
                            .starts_with("shard-")
                            && e.as_ref().unwrap().path().extension().unwrap() == "swim"
                    })
                    .count()
            }
        };

        let counter = shard_files.clone();
        let blocks: Vec<Vec<swim_trace::Job>> =
            trace.jobs().chunks(100).map(|c| c.to_vec()).collect();
        let blocks = blocks.into_iter().enumerate().map(move |(i, block)| {
            // 100 i jobs pushed into 200-job shards.
            assert_eq!(counter(), i / 2, "shards on disk before block {i}");
            block
        });
        let stats = catalog
            .ingest_stream(
                trace.kind.clone(),
                trace.machines,
                blocks,
                &small_options(200),
            )
            .unwrap();
        assert_eq!(stats.shards, 5);
        assert_eq!(stats.jobs, 900);
        assert_eq!(shard_files(), 5);
        assert_eq!(read_back(&catalog).unwrap(), trace);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ingest_stream_hands_each_block_back_and_leaves_the_stash_empty() {
        let dir = temp_dir("stream-spent");
        let trace = varied_trace(WorkloadKind::CcA, 300, 0);
        let mut catalog = Catalog::init(&dir).unwrap();
        let blocks: Vec<Vec<swim_trace::Job>> =
            trace.jobs().chunks(100).map(<[_]>::to_vec).collect();
        let expected = blocks.clone();
        drop(swim_trace::spent::take());
        let blocks = blocks.into_iter().enumerate().map(|(i, block)| {
            // Asked for block i, the catalog has handed block i - 1 back.
            let spent = swim_trace::spent::take();
            assert_eq!(
                spent,
                i.checked_sub(1).map_or(vec![], |j| expected[j].clone())
            );
            block
        });
        let stats = catalog
            .ingest_stream(
                trace.kind.clone(),
                trace.machines,
                blocks,
                &small_options(200),
            )
            .unwrap();
        assert_eq!(stats.jobs, 300);
        assert!(swim_trace::spent::take().is_empty());
        assert_eq!(read_back(&catalog).unwrap(), trace);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ingest_stream_of_nothing_is_a_noop() {
        let dir = temp_dir("stream-empty");
        let mut catalog = Catalog::init(&dir).unwrap();
        let stats = catalog
            .ingest_stream(
                WorkloadKind::CcA,
                5,
                std::iter::empty::<Vec<swim_trace::Job>>(),
                &CatalogOptions::default(),
            )
            .unwrap();
        assert_eq!(stats, IngestStats::default());
        assert_eq!(catalog.generation(), 0);
        // Empty blocks inside a stream are tolerated too.
        let stats = catalog
            .ingest_stream(
                WorkloadKind::CcA,
                5,
                vec![Vec::new(), Vec::new()],
                &CatalogOptions::default(),
            )
            .unwrap();
        assert_eq!(stats, IngestStats::default());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
