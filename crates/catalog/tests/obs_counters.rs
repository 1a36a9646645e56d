//! The `swim-obs` instruments of the write side. They are process-wide,
//! so this file holds one test and reads them as deltas.

use swim_catalog::{Catalog, CatalogOptions};
use swim_store::StoreOptions;
use swim_trace::trace::WorkloadKind;
use swim_trace::{DataSize, Dur, JobBuilder, Timestamp, Trace};

/// A known ingest — 1000 jobs into 300-job shards of 64-job chunks — has
/// exact counts: 4 shards (300 + 300 + 300 + 100), 5 + 5 + 5 + 2 chunks,
/// and as many bytes through the store writers as the shard files hold.
/// The `catalog.sync` span (fsync + link) closes once per shard inside
/// `catalog.write_shard`, so publish wait is a measured number.
#[test]
fn write_side_counters_count_what_they_name() {
    swim_obs::set_enabled(swim_obs::ALL);
    let jobs = (0..1000u64)
        .map(|i| {
            JobBuilder::new(i)
                .name(format!("job_{i}"))
                .submit(Timestamp::from_secs(i * 30))
                .duration(Dur::from_secs(1 + i % 90))
                .input(DataSize::from_kb(i))
                .map_task_time(Dur::from_secs(5))
                .tasks(1, 0)
                .build()
                .unwrap()
        })
        .collect();
    let trace = Trace::new(WorkloadKind::CcB, 10, jobs).unwrap();
    let options = CatalogOptions {
        jobs_per_shard: 300,
        store: StoreOptions { jobs_per_chunk: 64 },
    };
    let dir = std::env::temp_dir().join(format!("swim-catalog-obs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut catalog = Catalog::init(&dir).unwrap();

    let before = swim_obs::snapshot();
    let blocks: Vec<_> = trace.jobs().chunks(128).map(<[_]>::to_vec).collect();
    let stats = catalog
        .ingest_stream(trace.kind.clone(), trace.machines, blocks, &options)
        .unwrap();
    let delta = swim_obs::snapshot().delta(&before);

    assert_eq!(stats.shards, 4);
    assert_eq!(delta.counter("catalog.shards_published"), Some(4));
    assert_eq!(delta.counter("store.chunks_encoded"), Some(17));
    assert_eq!(delta.counter("store.bytes_written"), Some(stats.bytes));
    let on_disk: u64 = catalog.shards().iter().map(|s| s.bytes).sum();
    assert_eq!(stats.bytes, on_disk);
    let write_shard = "catalog.ingest/catalog.write_shard";
    assert_eq!(delta.span(write_shard).map(|s| s.count), Some(4));
    let sync = delta
        .span(&format!("{write_shard}/catalog.sync"))
        .expect("the sync span nests in write_shard");
    assert_eq!(sync.count, 4);
    assert!(sync.total_ns <= delta.span(write_shard).unwrap().total_ns);

    swim_obs::set_enabled(0);
    std::fs::remove_dir_all(&dir).unwrap();
}
