//! Federated catalog queries at fleet scale: a 4M-job dataset across 16
//! shards (one simulated day per shard). The headline — asserted here,
//! so the CI bench smoke enforces it — is two-level pruning: a selective
//! predicate must rule out at least half the shards via *manifest* zone
//! maps alone (they are never opened) and beat the full federated scan
//! by ≥2x wall-clock. A warm-cache pass measures what the decoded-column
//! LRU saves on repeated queries.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;
use swim_catalog::{Catalog, CatalogOptions};
use swim_query::{Aggregate, CatalogQuery, Expr, Pred, Query};
use swim_store::StoreOptions;
use swim_trace::trace::WorkloadKind;
use swim_trace::Trace;

const SHARDS: u64 = 16;
const JOBS_PER_SHARD: u64 = 250_000;
/// Each shard covers one simulated day of submissions.
const DAY: u64 = 86_400;

fn shard_trace(shard: u64) -> Trace {
    let jobs = swim_bench::fixture::lcg_jobs(
        0x5EED_CAFE_u64 ^ (shard << 32),
        shard * JOBS_PER_SHARD..(shard + 1) * JOBS_PER_SHARD,
        shard * DAY..(shard + 1) * DAY,
    );
    Trace::new_unchecked(WorkloadKind::Custom("bench-fleet".into()), 600, jobs)
}

fn build_catalog(dir: &std::path::Path) -> Catalog {
    let _ = std::fs::remove_dir_all(dir);
    let mut catalog = Catalog::init(dir).expect("init");
    let options = CatalogOptions {
        jobs_per_shard: JOBS_PER_SHARD as u32,
        store: StoreOptions::default(),
    };
    for shard in 0..SHARDS {
        catalog
            .ingest_trace(&shard_trace(shard), &options)
            .expect("ingest");
    }
    catalog
}

/// One day of sixteen: count + I/O sum, prunable at the shard level.
fn selective_query() -> Query {
    Query::new()
        .filter(Pred::submit_range(5 * DAY, 6 * DAY))
        .select(Aggregate::Count)
        .select(Aggregate::Sum(Expr::total_io()))
}

/// The same aggregates over everything: every shard must be scanned.
fn full_query() -> Query {
    Query::new()
        .select(Aggregate::Count)
        .select(Aggregate::Sum(Expr::total_io()))
}

fn best_of<F: FnMut() -> Duration>(runs: usize, mut f: F) -> Duration {
    (0..runs).map(|_| f()).min().expect("at least one run")
}

fn bench_catalog(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("swim-catalog-bench-{}", std::process::id()));
    let catalog = build_catalog(&dir);
    assert_eq!(catalog.shard_count(), SHARDS as usize);
    assert_eq!(catalog.job_count(), SHARDS * JOBS_PER_SHARD);

    // Two-level pruning accounting: the selective day touches one shard
    // (plus at most a boundary neighbour); everything else is ruled out
    // by the manifest alone.
    let selective = catalog.execute(&selective_query()).expect("executes");
    assert!(
        selective.shards_pruned * 2 >= catalog.shard_count(),
        "selective query must prune at least half the shards via the \
         manifest: pruned {} of {}",
        selective.shards_pruned,
        selective.shards_total
    );
    assert_eq!(
        selective.output.rows[0].values[0],
        swim_query::AggValue::Int(JOBS_PER_SHARD),
        "day 5 holds exactly one shard's jobs"
    );
    eprintln!(
        "4M-job catalog: selective query opened {} of {} shards ({} pruned via shard zone maps)",
        selective.shards_scanned, selective.shards_total, selective.shards_pruned
    );

    // Headline (cache disabled so both sides pay the decode): the
    // shard-pruned selective query must beat the full federated scan by
    // at least 2x wall-clock. In practice it opens 1–2 shards of 16 and
    // wins by ~10x.
    catalog.set_cache_capacity(0);
    let full_time = best_of(3, || {
        swim_obs::timed("bench.catalog_full_scan", || {
            black_box(catalog.execute(&full_query()).expect("executes"))
        })
        .1
    });
    let sel_time = best_of(3, || {
        swim_obs::timed("bench.catalog_selective", || {
            black_box(catalog.execute(&selective_query()).expect("executes"))
        })
        .1
    });
    eprintln!(
        "headline: full federated scan {full_time:?} vs shard-pruned selective {sel_time:?} \
         => {:.1}x faster",
        full_time.as_secs_f64() / sel_time.as_secs_f64()
    );
    assert!(
        sel_time * 2 <= full_time,
        "shard pruning must be at least a 2x win: selective {sel_time:?} vs full {full_time:?}"
    );

    catalog.set_cache_capacity(SHARDS as usize);
    let mut group = c.benchmark_group("catalog_4m_jobs_16_shards");
    group.sample_size(10);
    group.bench_function("selective_day_5_of_16", |b| {
        b.iter(|| {
            black_box(&catalog)
                .execute(&selective_query())
                .expect("executes")
        })
    });
    // Cold-ish full scan: cap the cache below the fleet size so most
    // shards are decoded again every pass (all but the two it keeps).
    catalog.set_cache_capacity(2);
    group.bench_function("full_scan_cold_cache", |b| {
        b.iter(|| {
            black_box(&catalog)
                .execute(&full_query())
                .expect("executes")
        })
    });
    // Warm full scan: every shard's decoded columns served from the LRU.
    catalog.set_cache_capacity(SHARDS as usize);
    catalog.execute(&full_query()).expect("warms the cache");
    group.bench_function("full_scan_warm_cache", |b| {
        b.iter(|| {
            black_box(&catalog)
                .execute(&full_query())
                .expect("executes")
        })
    });
    group.finish();

    let warm = catalog.cache_stats();
    eprintln!(
        "decoded-column cache: {} hits, {} misses, {} entries",
        warm.hits, warm.misses, warm.entries
    );

    // What `full_scan_cold_cache` ran on, checked by count: with 2 slots
    // for 16 shards a looping scan keeps its two residents — each pass
    // hits them and reads the other 14 through, evicting nothing (an
    // always-admit LRU took 0 hits and 16 evictions a pass).
    catalog.set_cache_capacity(0);
    catalog.set_cache_capacity(2);
    catalog
        .execute_serial(&full_query())
        .expect("fills both slots");
    for pass in 1..=3 {
        let before = catalog.cache_stats();
        catalog.execute_serial(&full_query()).expect("executes");
        let after = catalog.cache_stats();
        assert_eq!(
            (
                after.hits - before.hits,
                after.bypassed - before.bypassed,
                after.evictions - before.evictions
            ),
            (2, SHARDS - 2, 0),
            "pass {pass} over {SHARDS} shards at capacity 2: (hits, bypassed, evictions)"
        );
    }

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

criterion_group!(benches, bench_catalog);
criterion_main!(benches);
