//! Federated query execution over a [`swim_catalog::Catalog`]: the same
//! typed [`Query`] surface, with **two-level pruning**.
//!
//! Planning runs the predicate's interval analysis
//! ([`crate::Pred::zone_verdict`]) twice:
//!
//! 1. against each shard's *manifest-level* zone map — a `Never` shard
//!    is never opened (no file I/O at all, not even its footer);
//! 2. for surviving shards, against the store's per-chunk zone maps,
//!    exactly as single-store execution does.
//!
//! Execution fans surviving shards out over [`swim_obs::par_claim`]:
//! one body, run on every core by [`CatalogQuery::execute`] and on one
//! thread — the caller, claiming in manifest order — by
//! [`CatalogQuery::execute_serial`]. Each worker folds every chunk of
//! every shard it claims into *one* kernel worker (`crate::kernel`) —
//! the same one single-store execution runs — so a query merges once per
//! thread, not once per shard; merges are exact and order-insensitive
//! and finalization is shared, so [`CatalogQuery::execute`],
//! [`CatalogQuery::execute_serial`], and a single-store query over the
//! concatenated trace all produce bit-identical rows (property-tested).
//!
//! Every decode keeps only the columns the compiled query reads
//! (the kernel interns one node per column). Decoded shards are
//! served from the catalog's `(shard, generation)` cache, which holds
//! each shard column by column: a full-shard read is a hit iff every
//! column it reads is there and otherwise decodes just the missing ones
//! into the entry — unless the cache does not admit the shard, and then
//! it is read through, chunk by chunk off the store, like a chunk-pruned
//! read, which takes a hit but never fills rather than decode chunks the
//! planner ruled out.

use crate::exec::{add_chunk_stats, stats_for, ExecStats, QueryOutput};
use crate::kernel::{Program, Worker};
use crate::plan::{plan, Query};
use crate::{QueryError, Tri};
use swim_catalog::Catalog;
use swim_store::format::columns::ColumnSet;

/// A finished federated query: the ordinary [`QueryOutput`] plus
/// shard-level pruning counters.
///
/// `output.stats` aggregates the chunk-level counters of the shards that
/// were actually opened; shards pruned at the manifest level contribute
/// nothing there (their chunk counts are unknown by design — pruning
/// them means never reading their footers).
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogOutput {
    /// Columns, rows, and chunk-level stats over the scanned shards.
    pub output: QueryOutput,
    /// Shards in the catalog.
    pub shards_total: usize,
    /// Shards opened and scanned.
    pub shards_scanned: usize,
    /// Shards pruned via manifest zone maps (never opened).
    pub shards_pruned: usize,
}

impl CatalogOutput {
    /// The one-line shard/chunk pruning summary shown on stderr by the
    /// CLIs.
    pub fn stats_line(&self) -> String {
        format!(
            "shards: scanned {} of {} ({} pruned via shard zone maps); {}",
            self.shards_scanned,
            self.shards_total,
            self.shards_pruned,
            crate::render::stats_line(&self.output)
        )
    }
}

/// Federated execution over a catalog — implemented for
/// [`swim_catalog::Catalog`], so call sites read `catalog.execute(&query)`.
pub trait CatalogQuery {
    /// Execute on every core: workers claim surviving shard indices off
    /// [`swim_obs::par_claim`]'s shared counter. Bit-identical to
    /// [`CatalogQuery::execute_serial`].
    fn execute(&self, query: &Query) -> Result<CatalogOutput, QueryError>;

    /// Execute on the calling thread, shards in manifest order: the same
    /// body with one worker — the reference path for determinism tests
    /// and tiny catalogs.
    fn execute_serial(&self, query: &Query) -> Result<CatalogOutput, QueryError>;
}

/// Shard indices that survive manifest-level pruning.
fn prune_shards(catalog: &Catalog, query: &Query) -> Vec<usize> {
    let selected: Vec<usize> = catalog
        .shards()
        .iter()
        .enumerate()
        .filter(|(_, entry)| query.predicate.zone_verdict(&entry.zone) != Tri::Never)
        .map(|(idx, _)| idx)
        .collect();
    crate::obs::SHARDS_SCANNED.add(selected.len() as u64);
    crate::obs::SHARDS_PRUNED.add((catalog.shard_count() - selected.len()) as u64);
    selected
}

/// Open and chunk-plan one shard and fold its planned chunks into
/// `worker`, decoding only `columns`; returns the shard's chunk-level
/// counters.
fn fold_shard(
    catalog: &Catalog,
    idx: usize,
    query: &Query,
    columns: ColumnSet,
    worker: &mut Worker<'_>,
) -> Result<ExecStats, QueryError> {
    let store = catalog.open_shard(idx)?;
    let p = plan(&store, query);
    // A full-shard read with caching enabled fills the cache with the
    // columns it lacks, so the next query reading them reads and decodes
    // no chunk at all — if the cache admits the shard; a chunk-pruned
    // read only takes a hit.
    let full_read = p.selected.len() == store.chunk_count() && catalog.cache_capacity() > 0;
    if let Some(shard) = catalog.shard_columns(idx, columns, full_read.then_some(&store))? {
        debug_assert_eq!(
            shard.chunk_count(),
            store.chunk_count(),
            "immutable shard files"
        );
        for &ci in &p.selected {
            worker.fold_chunk(shard.chunk(ci), p.full_match[ci]);
        }
    } else {
        // Chunk-pruned read, caching disabled, or a shard the cache will
        // not keep: decode only what the planner selected, straight off
        // the store, materialising nothing.
        let mut reader = store.reader()?;
        for &ci in &p.selected {
            worker.fold_chunk(reader.columns(ci, columns)?.view(), p.full_match[ci]);
        }
    }
    Ok(stats_for(&p))
}

/// Prune shards, fold the survivors, merge, finalize — on `threads`
/// workers; one is the caller alone, claiming in manifest order.
fn run(catalog: &Catalog, query: &Query, threads: usize) -> Result<CatalogOutput, QueryError> {
    query.validate()?;
    let selected = prune_shards(catalog, query);
    let program = Program::compile(query);
    let columns = program.columns();
    let claimed = swim_obs::par_claim(selected.len(), threads, |claims| {
        let mut worker = Worker::new(&program);
        let mut stats = ExecStats::default();
        for slot in claims {
            add_chunk_stats(
                &mut stats,
                fold_shard(catalog, selected[slot], query, columns, &mut worker)?,
            );
        }
        Ok::<_, QueryError>((worker, stats))
    });
    // The first worker absorbs the rest, as in `exec::run`.
    let mut claimed = claimed.into_iter();
    let (mut worker, mut stats) =
        (claimed.next()).unwrap_or_else(|| Ok((Worker::new(&program), ExecStats::default())))?;
    for result in claimed {
        let (theirs, chunk_stats) = result?;
        worker.merge(theirs);
        add_chunk_stats(&mut stats, chunk_stats);
    }
    Ok(CatalogOutput {
        output: crate::exec::finalize(query, worker, stats),
        shards_total: catalog.shard_count(),
        shards_scanned: selected.len(),
        shards_pruned: catalog.shard_count() - selected.len(),
    })
}

impl CatalogQuery for Catalog {
    fn execute(&self, query: &Query) -> Result<CatalogOutput, QueryError> {
        let _span = swim_obs::span("query.federated");
        run(self, query, swim_obs::cores())
    }

    fn execute_serial(&self, query: &Query) -> Result<CatalogOutput, QueryError> {
        let _span = swim_obs::span("query.federated_serial");
        run(self, query, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{AggValue, Aggregate};
    use crate::expr::{CmpOp, Col, Expr, Pred};
    use swim_catalog::{Catalog, CatalogOptions};
    use swim_store::{store_to_vec, Store, StoreOptions};
    use swim_trace::trace::WorkloadKind;
    use swim_trace::{DataSize, Dur, Job, JobBuilder, Timestamp, Trace};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "swim-federated-test-{tag}-{}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn jobs(range: std::ops::Range<u64>, submit_base: u64) -> Vec<Job> {
        let start = range.start;
        range
            .map(|i| {
                let mut b = JobBuilder::new(i)
                    .submit(Timestamp::from_secs(submit_base + (i - start) * 60))
                    .duration(Dur::from_secs(1 + i % 500))
                    .input(DataSize::from_bytes(i * 1_000_003 % (1 << 33)))
                    .output(DataSize::from_bytes(i * 77))
                    .map_task_time(Dur::from_secs(3 + i % 60))
                    .tasks(1 + (i % 20) as u32, (i % 4) as u32);
                if i % 4 > 0 {
                    b = b
                        .shuffle(DataSize::from_bytes(i * 13))
                        .reduce_task_time(Dur::from_secs(1 + i % 30));
                }
                b.build().unwrap()
            })
            .collect()
    }

    /// A three-shard catalog with disjoint submit windows, plus the
    /// single store holding the same concatenated jobs.
    fn catalog_and_store(tag: &str) -> (Catalog, Store, std::path::PathBuf) {
        let dir = temp_dir(tag);
        let mut catalog = Catalog::init(&dir).unwrap();
        let options = CatalogOptions {
            jobs_per_shard: 10_000,
            store: StoreOptions { jobs_per_chunk: 37 },
        };
        let mut all = Vec::new();
        for (shard, base) in [(0u64, 0u64), (1, 500_000), (2, 1_000_000)] {
            let shard_jobs = jobs(shard * 1000..shard * 1000 + 1000, base);
            all.extend(shard_jobs.clone());
            let trace = Trace::new(WorkloadKind::Custom("fed".into()), 9, shard_jobs).unwrap();
            catalog.ingest_trace(&trace, &options).unwrap();
        }
        let trace = Trace::new(WorkloadKind::Custom("fed".into()), 9, all).unwrap();
        let store =
            Store::from_vec(store_to_vec(&trace, &StoreOptions { jobs_per_chunk: 37 })).unwrap();
        (catalog, store, dir)
    }

    fn queries() -> Vec<Query> {
        vec![
            Query::new().select(Aggregate::Count),
            Query::new()
                .filter(Pred::cmp(Col::Duration, CmpOp::Ge, 250))
                .group(Expr::submit_hour())
                .select(Aggregate::Count)
                .select(Aggregate::Sum(Expr::total_io()))
                .select(Aggregate::Avg(Expr::col(Col::Duration)))
                .select(Aggregate::Percentile(Expr::col(Col::Duration), 0.9)),
            // Selective on submit: two of three shards are prunable at
            // the manifest level.
            Query::new()
                .filter(Pred::submit_range(500_000, 560_000))
                .group(Expr::col(Col::ReduceTasks))
                .select(Aggregate::Count)
                .select(Aggregate::Min(Expr::col(Col::Submit)))
                .select(Aggregate::Max(Expr::col(Col::Submit))),
            Query::new()
                .filter(Pred::cmp(Col::Input, CmpOp::Gt, 1 << 30))
                .group(Expr::col(Col::MapTasks))
                .select(Aggregate::Count)
                .order_by(1, true)
                .limit(4),
        ]
    }

    #[test]
    fn federated_matches_single_store_and_serial_matches_parallel() {
        let (catalog, store, dir) = catalog_and_store("parity");
        for query in &queries() {
            let single = crate::execute_serial(&store, query).unwrap();
            let serial = catalog.execute_serial(query).unwrap();
            assert_eq!(serial.output.columns, single.columns);
            assert_eq!(serial.output.rows, single.rows, "query {query:?}");
            for _ in 0..3 {
                let parallel = catalog.execute(query).unwrap();
                assert_eq!(parallel, serial, "parallel ≡ serial, stats included");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_level_pruning_never_opens_disjoint_shards() {
        let (catalog, _store, dir) = catalog_and_store("prune");
        let query = Query::new()
            .filter(Pred::submit_range(500_000, 560_000))
            .select(Aggregate::Count);
        let out = catalog.execute(&query).unwrap();
        assert_eq!(out.shards_total, 3);
        assert_eq!(out.shards_pruned, 2, "two shards ruled out by manifest");
        assert_eq!(out.shards_scanned, 1);
        // Chunk totals cover only the opened shard.
        assert!(out.output.stats.chunks_total < 3 * 28);
        // Count matches the per-shard submit windows: 1000 jobs starting
        // at 500_000, spaced 60s → first 1000 of them fall in the hour.
        assert_eq!(out.output.rows[0].values[0], AggValue::Int(1000));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn impossible_predicate_prunes_everything_and_still_yields_global_row() {
        let (catalog, _store, dir) = catalog_and_store("never");
        // Satellite regression: Avg/Percentile over a catalog whose every
        // shard is skipped must finalize to Null, not panic or zero.
        let query = Query::new()
            .filter(Pred::cmp(Col::Duration, CmpOp::Gt, u64::MAX - 1))
            .select(Aggregate::Count)
            .select(Aggregate::Avg(Expr::col(Col::Duration)))
            .select(Aggregate::Percentile(Expr::col(Col::Duration), 0.5));
        let out = catalog.execute(&query).unwrap();
        assert_eq!(out.shards_pruned, 3);
        assert_eq!(out.shards_scanned, 0);
        assert_eq!(out.output.rows.len(), 1);
        assert_eq!(
            out.output.rows[0].values,
            vec![AggValue::Int(0), AggValue::Null, AggValue::Null]
        );
        assert_eq!(out, catalog.execute_serial(&query).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_matching_shard_merges_into_populated_group_state() {
        // Satellite regression: one shard contributes zero matching rows
        // (opened, scanned, nothing passes the filter) while another
        // carries the groups — the merge of its empty accumulator must
        // not disturb the populated one, in either merge direction.
        let dir = temp_dir("empty-merge");
        let mut catalog = Catalog::init(&dir).unwrap();
        let options = CatalogOptions {
            jobs_per_shard: 10_000,
            store: StoreOptions { jobs_per_chunk: 16 },
        };
        // Predicate `input >= submit`: a two-column comparison whose
        // interval analysis cannot rule shard B out (its input and
        // submit ranges overlap), yet no B row actually matches.
        // Shard A: input ≫ submit, every row matches.
        let a: Vec<Job> = (0..200u64)
            .map(|i| {
                JobBuilder::new(i)
                    .submit(Timestamp::from_secs(i))
                    .duration(Dur::from_secs(100 + i % 7))
                    .input(DataSize::from_bytes(1_000_000 + i))
                    .map_task_time(Dur::from_secs(10))
                    .tasks(2, 0)
                    .build()
                    .unwrap()
            })
            .collect();
        // Shard B: input = k, submit = k + 10 — always input < submit.
        let b: Vec<Job> = (1000..1200u64)
            .map(|i| {
                let k = i - 1000;
                JobBuilder::new(i)
                    .submit(Timestamp::from_secs(k + 10))
                    .duration(Dur::from_secs(5))
                    .input(DataSize::from_bytes(k))
                    .map_task_time(Dur::from_secs(1))
                    .tasks(1, 0)
                    .build()
                    .unwrap()
            })
            .collect();
        for shard in [a.clone(), b.clone()] {
            let trace = Trace::new(WorkloadKind::Custom("m".into()), 3, shard).unwrap();
            catalog.ingest_trace(&trace, &options).unwrap();
        }
        let query = Query::new()
            .filter(Pred::Cmp(
                Expr::col(Col::Input),
                CmpOp::Ge,
                Expr::col(Col::Submit),
            ))
            .group(Expr::col(Col::Duration))
            .select(Aggregate::Count)
            .select(Aggregate::Avg(Expr::col(Col::Input)))
            .select(Aggregate::Percentile(Expr::col(Col::Input), 0.5));
        let out = catalog.execute(&query).unwrap();
        let serial = catalog.execute_serial(&query).unwrap();
        assert_eq!(out, serial);
        assert_eq!(out.shards_scanned, 2, "both shards open (zone Maybe)");
        assert_eq!(out.output.stats.rows_matched, 200, "only shard A rows");
        assert_eq!(out.output.rows.len(), 7, "durations 100..=106");
        // Oracle: single store over the concatenation.
        let mut all = a;
        all.extend(b);
        let trace = Trace::new(WorkloadKind::Custom("m".into()), 3, all).unwrap();
        let store =
            Store::from_vec(store_to_vec(&trace, &StoreOptions { jobs_per_chunk: 16 })).unwrap();
        let single = crate::execute_serial(&store, &query).unwrap();
        assert_eq!(out.output.rows, single.rows);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn order_by_tells_integer_sums_apart_past_2_pow_53() {
        // Regression: `order_by` used to compare cells as `f64`, where
        // 2^60 and 2^60 + 1 are the same number, so the tie fell back to
        // key order and `--desc --limit 1` kept the smaller sum.
        let dir = temp_dir("order-exact");
        let half = 1u64 << 59;
        let jobs: Vec<Job> = [(1u32, half), (1, half), (2, half), (2, half + 1)]
            .into_iter()
            .enumerate()
            .map(|(i, (map_tasks, input))| {
                JobBuilder::new(i as u64)
                    .submit(Timestamp::from_secs(i as u64))
                    .duration(Dur::from_secs(10))
                    .input(DataSize::from_bytes(input))
                    .map_task_time(Dur::from_secs(10))
                    .tasks(map_tasks, 0)
                    .build()
                    .unwrap()
            })
            .collect();
        let trace = Trace::new(WorkloadKind::Custom("big".into()), 3, jobs).unwrap();
        let query = Query::new()
            .group(Expr::col(Col::MapTasks))
            .select(Aggregate::Sum(Expr::col(Col::Input)))
            .order_by(1, true)
            .limit(1);
        let largest = vec![crate::Row {
            key: vec![2],
            values: vec![AggValue::Int((1 << 60) + 1)],
        }];
        let store = Store::from_vec(store_to_vec(&trace, &StoreOptions::default())).unwrap();
        assert_eq!(crate::execute(&store, &query).unwrap().rows, largest);
        assert_eq!(crate::execute_serial(&store, &query).unwrap().rows, largest);
        let mut catalog = Catalog::init(&dir).unwrap();
        catalog
            .ingest_trace(&trace, &CatalogOptions::default())
            .unwrap();
        assert_eq!(catalog.execute(&query).unwrap().output.rows, largest);
        assert_eq!(catalog.execute_serial(&query).unwrap().output.rows, largest);
        // Ascending, the smaller sum leads.
        let smallest = catalog.execute(&query.clone().order_by(1, false)).unwrap();
        assert_eq!(smallest.output.rows[0].key, vec![1]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repeated_queries_hit_the_column_cache_with_identical_results() {
        let (catalog, _store, dir) = catalog_and_store("cache");
        let query = Query::new()
            .group(Expr::col(Col::ReduceTasks))
            .select(Aggregate::Count)
            .select(Aggregate::Sum(Expr::total_io()));
        let first = catalog.execute(&query).unwrap();
        let warm = catalog.cache_stats();
        assert_eq!(warm.misses, 3, "full scan decodes and caches every shard");
        assert_eq!(warm.entries, 3);
        let second = catalog.execute(&query).unwrap();
        let stats = catalog.cache_stats();
        assert_eq!(stats.misses, 3, "no re-decode on the warm run");
        assert_eq!(stats.hits, 3);
        assert_eq!(second, first);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_queries_fail_before_touching_shards() {
        let (catalog, _store, dir) = catalog_and_store("invalid");
        assert!(matches!(
            catalog.execute(&Query::new()),
            Err(QueryError::Invalid(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_line_mentions_both_levels() {
        let (catalog, _store, dir) = catalog_and_store("line");
        let out = catalog
            .execute(
                &Query::new()
                    .filter(Pred::submit_range(0, 1))
                    .select(Aggregate::Count),
            )
            .unwrap();
        let line = out.stats_line();
        assert!(line.contains("shards: scanned"), "{line}");
        assert!(line.contains("chunks"), "{line}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
