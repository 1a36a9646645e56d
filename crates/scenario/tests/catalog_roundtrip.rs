//! Acceptance: streaming a scenario into a catalog leaves the catalog
//! reporting *exactly* the statistics the generator declared, shards
//! appear incrementally (O(chunk) memory, not O(trace)), and the
//! round-tripped jobs are the stream's jobs.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use swim_catalog::{Catalog, CatalogOptions};
use swim_scenario::{generate_into_catalog, presets, ScenarioStream};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// Fresh per-test scratch directory (parallel-test and rerun safe).
fn temp_dir(tag: &str) -> PathBuf {
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("swim-scenario-{tag}-{}-{n}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clean stale temp dir");
    }
    dir
}

fn small_options(jobs_per_shard: u32) -> CatalogOptions {
    CatalogOptions {
        jobs_per_shard,
        ..CatalogOptions::default()
    }
}

/// The headline acceptance check, over at least four presets: catalog
/// `summary()` must agree with the stream's declared [`ScenarioStats`]
/// on job count, bytes moved, submit span, and workload label.
#[test]
fn catalog_summary_matches_declared_statistics() {
    let scenarios = [
        presets::steady_retail(),
        presets::bursty_telecom(),
        presets::heavytail_adtech(),
        presets::multitenant_saas(),
        presets::retrystorm_fintech(),
    ];
    for scenario in &scenarios {
        let dir = temp_dir(&scenario.name);
        let mut catalog = Catalog::init(&dir).expect("init catalog");
        let outcome =
            generate_into_catalog(scenario, 42, 1_500, 256, &mut catalog, &small_options(250))
                .expect("generation succeeds");
        let summary = catalog.summary();
        let declared = &outcome.stats.generation;
        assert_eq!(
            summary.jobs as u64, declared.jobs,
            "{}: job count mismatch",
            scenario.name
        );
        assert_eq!(
            summary.bytes_moved, declared.bytes_moved,
            "{}: bytes-moved mismatch",
            scenario.name
        );
        assert_eq!(
            summary.length,
            declared.span(),
            "{}: submit-span mismatch",
            scenario.name
        );
        assert_eq!(
            summary.workload,
            scenario.workload_label(),
            "{}: workload label mismatch",
            scenario.name
        );
        assert_eq!(summary.machines, scenario.machines());
        assert_eq!(outcome.ingest.jobs, declared.jobs);
        assert!(
            outcome.ingest.shards >= 2,
            "{}: {} jobs over 250-job shards must split",
            scenario.name,
            declared.jobs
        );
        std::fs::remove_dir_all(&dir).expect("clean temp dir");
    }
}

/// The catalog's round-tripped jobs are bit-identical to a fresh run of
/// the same stream — ingestion neither reorders nor rewrites anything.
#[test]
fn catalog_round_trips_the_stream() {
    let scenario = presets::multitenant_saas();
    let dir = temp_dir("roundtrip");
    let mut catalog = Catalog::init(&dir).expect("init catalog");
    generate_into_catalog(&scenario, 7, 1_200, 128, &mut catalog, &small_options(500))
        .expect("generation succeeds");
    let stored = swim_catalog::read_stores(&catalog.open_shards().unwrap(), |_, e| e)
        .expect("read catalog back");
    let direct: Vec<_> = ScenarioStream::new(&scenario, 7, 1_200)
        .expect("valid scenario")
        .flatten()
        .collect();
    assert_eq!(stored.jobs(), &direct[..]);
    std::fs::remove_dir_all(&dir).expect("clean temp dir");
}

/// Shard accounting for the bounded-memory claim: with a 128-job chunk
/// and 250-job shards, shards must be on disk well before the stream
/// ends — the trace is never materialized in one buffer.
#[test]
fn shards_publish_while_the_stream_is_still_running() {
    let scenario = presets::bursty_telecom();
    let dir = temp_dir("incremental");
    let mut catalog = Catalog::init(&dir).expect("init catalog");
    let shard_files = {
        let dir = dir.clone();
        move || {
            std::fs::read_dir(&dir)
                .map(|entries| {
                    entries
                        .filter_map(|e| e.ok())
                        .filter(|e| e.file_name().to_string_lossy().starts_with("shard-"))
                        .count()
                })
                .unwrap_or(0)
        }
    };
    let mut stream = ScenarioStream::new(&scenario, 3, 4_000)
        .expect("valid scenario")
        .chunk_size(128);
    let mut mid_stream_shards = 0usize;
    let mut blocks = 0usize;
    let counted = std::iter::from_fn(|| {
        let chunk = stream.next_chunk()?;
        blocks += 1;
        if blocks == 6 {
            mid_stream_shards = shard_files();
        }
        Some(chunk)
    });
    catalog
        .ingest_stream(
            swim_trace::trace::WorkloadKind::Custom(scenario.workload_label()),
            scenario.machines(),
            counted,
            &small_options(250),
        )
        .expect("ingest succeeds");
    assert!(blocks >= 7, "stream must span several chunks, got {blocks}");
    assert!(
        mid_stream_shards >= 2,
        "shards must publish mid-stream, saw {mid_stream_shards}"
    );
    assert!(shard_files() > mid_stream_shards);
    std::fs::remove_dir_all(&dir).expect("clean temp dir");
}
