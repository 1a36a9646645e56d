//! Property tests for federated catalog execution: for random job sets
//! split arbitrarily across 1..=8 shards, `catalog.execute` (parallel),
//! `catalog.execute_serial`, `execute_stores_serial` over the opened
//! shards, and a single-store query over the concatenated trace must
//! agree bit for bit — rows, columns, and (for
//! the two catalog paths) stats included, at a column-cache capacity
//! drawn from none, one, half the shards, all but one, and room for all.
//! A second property holds the projected decode and the per-column cache
//! to the same standard: what the cache happens to hold — nothing, other
//! columns, more columns, or nothing ever (capacity 0) — and whether a
//! read is chunk-pruned never show in a result.

use proptest::prelude::*;
use swim_catalog::{Catalog, CatalogOptions};
use swim_query::{
    execute, execute_serial, execute_stores_serial, Aggregate, CatalogQuery, CmpOp, Col, Expr,
    Pred, Query,
};
use swim_store::{store_to_vec, Store, StoreOptions};
use swim_trace::trace::WorkloadKind;
use swim_trace::{DataSize, Dur, Job, JobBuilder, Timestamp, Trace};

fn arb_job(id: u64) -> impl Strategy<Value = Job> {
    (
        0u64..50_000,   // submit
        1u64..10_000,   // duration
        0u64..u64::MAX, // input (full range: saturation must agree too)
        0u64..1 << 40,  // output
        1u32..50,       // map tasks
        0u32..5,        // reduce tasks
    )
        .prop_map(move |(s, d, i, o, mt, rt)| {
            let mut b = JobBuilder::new(id)
                .submit(Timestamp::from_secs(s))
                .duration(Dur::from_secs(d))
                .input(DataSize::from_bytes(i))
                .output(DataSize::from_bytes(o))
                .map_task_time(Dur::from_secs(1 + d % 900))
                .tasks(mt, rt);
            if rt > 0 {
                b = b
                    .shuffle(DataSize::from_bytes(i / 3))
                    .reduce_task_time(Dur::from_secs(1 + d % 70));
            }
            b.build().expect("constructed consistently")
        })
}

/// Jobs plus, per job, the shard (0..n_shards) it is assigned to — an
/// arbitrary partition, so shard submit windows overlap freely.
fn arb_jobs_and_split() -> impl Strategy<Value = (Vec<Job>, Vec<u8>, u8)> {
    (1u8..=8).prop_flat_map(|n_shards| {
        prop::collection::vec(0u8..n_shards, 0..120).prop_flat_map(move |assignment| {
            let jobs: Vec<_> = (0..assignment.len() as u64).map(arb_job).collect();
            jobs.prop_map(move |jobs| (jobs, assignment.clone(), n_shards))
        })
    })
}

/// `submit in [from, to)`, as a query's `--where` spells it.
fn submit_range(from: u64, to: u64) -> Pred {
    Pred::cmp(Col::Submit, CmpOp::Ge, from).and(Pred::cmp(Col::Submit, CmpOp::Lt, to))
}

fn pick_pred(kind: u8, threshold: u64) -> Pred {
    match kind % 8 {
        0 => Pred::True,
        1 => Pred::cmp(Col::Duration, CmpOp::Lt, 1), // always false
        2 => Pred::cmp(Col::Submit, CmpOp::Lt, threshold % 50_000),
        3 => Pred::cmp(Col::Input, CmpOp::Ge, threshold.rotate_left(31)),
        4 => Pred::Cmp(Expr::total_io(), CmpOp::Gt, Expr::Lit(threshold)),
        5 => Pred::cmp(Col::Duration, CmpOp::Ge, threshold % 10_000).and(Pred::cmp(
            Col::Submit,
            CmpOp::Lt,
            threshold % 60_000,
        )),
        6 => submit_range(threshold % 25_000, 25_000 + threshold % 25_000),
        _ => Pred::Cmp(Expr::col(Col::Input), CmpOp::Ge, Expr::col(Col::Submit)),
    }
}

fn pick_group(kind: u8) -> Vec<Expr> {
    match kind % 3 {
        0 => vec![],
        1 => vec![Expr::submit_hour()],
        _ => vec![Expr::col(Col::ReduceTasks)],
    }
}

fn aggregates() -> Vec<Aggregate> {
    vec![
        Aggregate::Count,
        Aggregate::Sum(Expr::total_io()),
        Aggregate::Min(Expr::col(Col::Duration)),
        Aggregate::Max(Expr::col(Col::Input)),
        Aggregate::Avg(Expr::col(Col::Duration)),
        Aggregate::Percentile(Expr::col(Col::Duration), 0.5),
        // Shares p50's samples of `duration`; `input`'s are its own.
        Aggregate::Percentile(Expr::col(Col::Duration), 0.9),
        Aggregate::Percentile(Expr::col(Col::Input), 0.5),
    ]
}

fn temp_dir() -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("swim-fed-prop-{}-{n}", std::process::id()))
}

/// A fresh catalog holding one shard per non-empty slice of the
/// assignment, and its directory.
fn sharded_catalog(
    jobs: &[Job],
    assignment: &[u8],
    n_shards: u8,
    jobs_per_chunk: u32,
) -> (Catalog, std::path::PathBuf) {
    let dir = temp_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let mut catalog = Catalog::init(&dir).expect("init");
    let options = CatalogOptions {
        jobs_per_shard: 1 << 16, // one shard per ingest
        store: StoreOptions { jobs_per_chunk },
    };
    for shard in 0..n_shards {
        let shard_jobs: Vec<Job> = jobs
            .iter()
            .zip(assignment)
            .filter(|(_, &a)| a == shard)
            .map(|(j, _)| j.clone())
            .collect();
        if shard_jobs.is_empty() {
            continue; // empty slices add no shard
        }
        let trace =
            Trace::new(WorkloadKind::Custom("prop".into()), 3, shard_jobs).expect("unique ids");
        catalog.ingest_trace(&trace, &options).expect("ingest");
    }
    (catalog, dir)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn catalog_execution_matches_single_store_bit_for_bit(
        (jobs, assignment, n_shards) in arb_jobs_and_split(),
        jobs_per_chunk in 1u32..24,
        pred_kind in any::<u8>(),
        threshold in any::<u64>(),
        group_kind in any::<u8>(),
        capacity_kind in 0usize..5,
    ) {
        let (catalog, dir) = sharded_catalog(&jobs, &assignment, n_shards, jobs_per_chunk);
        // Fewer slots than shards: from its second pass on a scan finds
        // the cache full and refuses some shards, which are read through.
        let shards = catalog.shard_count();
        let capacities = [0, 1, shards / 2, shards.saturating_sub(1), catalog.cache_capacity()];
        catalog.set_cache_capacity(capacities[capacity_kind]);

        let trace = Trace::new(WorkloadKind::Custom("prop".into()), 3, jobs)
            .expect("unique ids");
        let store = Store::from_vec(store_to_vec(&trace, &StoreOptions { jobs_per_chunk }))
            .expect("fresh store opens");

        let mut query = Query::new().filter(pick_pred(pred_kind, threshold));
        for key in pick_group(group_kind) {
            query = query.group(key);
        }
        for agg in aggregates() {
            query = query.select(agg);
        }

        let single = execute_serial(&store, &query).expect("single-store executes");
        let serial = catalog.execute_serial(&query).expect("federated serial executes");
        // Rows and columns are bit-identical to a single store over the
        // concatenated trace (stats differ by construction: chunking and
        // shard pruning are different physical plans).
        prop_assert_eq!(&serial.output.columns, &single.columns);
        prop_assert_eq!(&serial.output.rows, &single.rows);
        // So are they over the catalog's shards as a slice of stores.
        let shards = catalog.open_shards().expect("shards open");
        let sliced = execute_stores_serial(&shards, &query).expect("slice executes");
        prop_assert_eq!(&sliced.columns, &single.columns);
        prop_assert_eq!(&sliced.rows, &single.rows);
        // Parallel federated execution is bit-identical, stats included —
        // and again with the decoded-column cache warm, whichever shards
        // it admitted — and so is a scan that caches nothing.
        for _ in 0..3 {
            let parallel = catalog.execute(&query).expect("federated parallel executes");
            prop_assert_eq!(&parallel, &serial);
        }
        let cache = catalog.cache_stats();
        prop_assert!(cache.entries <= cache.capacity);
        prop_assert!(cache.evictions <= cache.misses - cache.bypassed);
        catalog.set_cache_capacity(0);
        let uncached = catalog.execute_serial(&query).expect("federated uncached executes");
        prop_assert_eq!(&uncached, &serial);
        // Shard accounting balances.
        prop_assert_eq!(
            serial.shards_scanned + serial.shards_pruned,
            serial.shards_total
        );
        prop_assert_eq!(serial.shards_total, catalog.shard_count());
        // Nothing the predicate matches may hide in a pruned shard.
        prop_assert_eq!(serial.output.stats.rows_matched, single.stats.rows_matched);

        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// The generated queries read columns out of {submit, duration, input,
    /// shuffle, output, reduce_tasks} only — a different subset per case —
    /// so a query over the other four warms the cache with a disjoint set,
    /// and one over all ten with a superset.
    #[test]
    fn cache_contents_and_projection_never_show_in_a_result(
        (jobs, assignment, n_shards) in arb_jobs_and_split(),
        jobs_per_chunk in 1u32..24,
        pred_kind in any::<u8>(),
        threshold in any::<u64>(),
        group_kind in any::<u8>(),
        agg_mask in 1u8..64,
    ) {
        let (catalog, dir) = sharded_catalog(&jobs, &assignment, n_shards, jobs_per_chunk);
        drop(catalog);
        let trace = Trace::new(WorkloadKind::Custom("prop".into()), 3, jobs)
            .expect("unique ids");
        let store = Store::from_vec(store_to_vec(&trace, &StoreOptions { jobs_per_chunk }))
            .expect("fresh store opens");

        let mut query = Query::new().filter(pick_pred(pred_kind, threshold));
        for key in pick_group(group_kind) {
            query = query.group(key);
        }
        for (bit, agg) in aggregates().into_iter().enumerate() {
            if agg_mask >> bit & 1 == 1 {
                query = query.select(agg);
            }
        }
        // The same query behind a submit window: shards it cuts through
        // are read chunk-pruned, which takes a cache hit but never fills.
        let lo = threshold % 30_000;
        let pruned = query
            .clone()
            .filter(query.predicate.clone().and(submit_range(lo, lo + 9_000)));
        let over = |cols: &[Col]| {
            cols.iter()
                .fold(Query::new(), |q, &c| q.select(Aggregate::Max(Expr::col(c))))
        };
        let disjoint = over(&[Col::Id, Col::MapTime, Col::ReduceTime, Col::MapTasks]);
        let superset = over(&Col::ALL);

        for query in [&query, &pruned] {
            let single = execute_serial(&store, query).expect("single-store executes");
            prop_assert_eq!(&execute(&store, query).expect("executes").rows, &single.rows);
            for warm_up in [None, Some(&disjoint), Some(&superset)] {
                let catalog = Catalog::open(&dir).expect("opens");
                if let Some(warm_up) = warm_up {
                    catalog.execute(warm_up).expect("warm-up executes");
                }
                let before = catalog.cache_stats();
                let serial = catalog.execute_serial(query).expect("executes");
                prop_assert_eq!(&serial.output.rows, &single.rows);
                prop_assert_eq!(&catalog.execute(query).expect("executes"), &serial);
                if warm_up == Some(&superset) {
                    // Every column was there: nothing went back to a shard
                    // the warm-up read.
                    prop_assert_eq!(catalog.cache_stats().misses, before.misses);
                }
            }
            let catalog = Catalog::open(&dir).expect("opens");
            catalog.set_cache_capacity(0);
            let uncached = catalog.execute_serial(query).expect("executes");
            prop_assert_eq!(&uncached.output.rows, &single.rows);
            prop_assert_eq!(&catalog.execute(query).expect("executes"), &uncached);
            prop_assert_eq!(catalog.cache_stats().entries, 0);
        }

        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
