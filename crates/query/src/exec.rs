//! Query execution: plan, fold every planned chunk through the chunk
//! kernel, finalize deterministically.
//!
//! Every entry point is one body over [`swim_obs::par_claim`], run on an
//! ordered slice of stores: [`execute`] runs it on every core over one
//! store, [`execute_serial`] on one thread — which is the caller
//! claiming the planned chunks in file order — and
//! [`execute_stores_serial`] on one thread over several stores, in
//! order. Workers claim planned `(store, chunk)` slots, decode only the
//! columns the compiled query reads through a
//! [`swim_store::ChunkReader`] of their own on the store at hand and run
//! the *same* kernel (`crate::kernel`); every worker merge is exact and
//! order-insensitive and finalization is shared, so all of them produce
//! bit-identical [`QueryOutput`]s (pinned by tests and proptests), and a
//! slice of stores gives the rows one store over their concatenated
//! trace would. They differ only in who claims chunks.

use crate::agg::AggValue;
use crate::kernel::{Program, Worker};
use crate::plan::{plan, Query};
use crate::QueryError;
use swim_store::{ChunkReader, Store};

/// What execution did, beyond the result rows: the observability side of
/// zone-map pruning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Chunks in the store (or stores).
    pub chunks_total: usize,
    /// Chunks actually read and decoded.
    pub chunks_scanned: usize,
    /// Chunks the planner skipped via zone maps (never read).
    pub chunks_skipped: usize,
    /// Scanned chunks whose zone verdict was "every row matches" (the
    /// row filter was skipped for them).
    pub chunks_full_match: usize,
    /// Rows decoded across scanned chunks.
    pub rows_scanned: u64,
    /// Rows that passed the predicate.
    pub rows_matched: u64,
}

/// One output row: the group key plus one value per aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Group-key values, in `group_by` order (empty for global queries).
    pub key: Vec<u64>,
    /// Aggregate values, in `aggregates` order.
    pub values: Vec<AggValue>,
}

impl Row {
    /// All output cells: key columns (as [`AggValue::Int`]) then
    /// aggregate columns.
    pub fn cells(&self) -> Vec<AggValue> {
        self.key
            .iter()
            .map(|&k| AggValue::Int(k))
            .chain(self.values.iter().copied())
            .collect()
    }
}

/// A finished query: labeled columns, ordered rows, execution stats.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutput {
    /// Output column labels: group keys first, then aggregates.
    pub columns: Vec<String>,
    /// Result rows, ordered (group-key ascending unless the query says
    /// otherwise) and limited.
    pub rows: Vec<Row>,
    /// Pruning and scan counters.
    pub stats: ExecStats,
}

/// Canonical finalization: groups sorted by key, explicit ordering and
/// limit applied, the worker's row totals recorded. This is where any
/// difference in accumulation order is erased, so serial ≡ parallel bit
/// for bit.
pub(crate) fn finalize(query: &Query, worker: Worker<'_>, mut stats: ExecStats) -> QueryOutput {
    stats.rows_scanned = worker.rows_scanned;
    stats.rows_matched = worker.rows_matched;
    crate::obs::record_rows(&worker);
    let mut rows = worker.into_rows();
    rows.sort_by(|a, b| a.key.cmp(&b.key));
    if let Some(order) = query.order_by {
        let key_cols = query.group_by.len();
        let cell = |r: &Row| match r.key.get(order.column) {
            Some(&k) => AggValue::Int(k),
            None => r.values[order.column - key_cols],
        };
        // Stable, so ties stay in key order.
        rows.sort_by(|a, b| {
            let ord = cell(a).order_cmp(&cell(b));
            if order.descending {
                ord.reverse()
            } else {
                ord
            }
        });
    }
    if let Some(limit) = query.limit {
        rows.truncate(limit);
    }
    QueryOutput {
        columns: query.column_labels(),
        rows,
        stats,
    }
}

pub(crate) fn stats_for(p: &crate::plan::Plan) -> ExecStats {
    ExecStats {
        chunks_total: p.chunks_total,
        chunks_scanned: p.selected.len(),
        chunks_skipped: p.chunks_skipped(),
        chunks_full_match: p.selected.iter().filter(|&&i| p.full_match[i]).count(),
        rows_scanned: 0,
        rows_matched: 0,
    }
}

/// Add one store's (or one thread's) chunk-level counters to a total.
/// Row totals are the kernel worker's to report, not these.
pub(crate) fn add_chunk_stats(total: &mut ExecStats, part: ExecStats) {
    total.chunks_total += part.chunks_total;
    total.chunks_scanned += part.chunks_scanned;
    total.chunks_skipped += part.chunks_skipped;
    total.chunks_full_match += part.chunks_full_match;
}

fn run(stores: &[Store], query: &Query, threads: usize) -> Result<QueryOutput, QueryError> {
    query.validate()?;
    let plans: Vec<_> = stores.iter().map(|store| plan(store, query)).collect();
    let slots: Vec<(usize, usize)> = (plans.iter().enumerate())
        .flat_map(|(s, p)| p.selected.iter().map(move |&idx| (s, idx)))
        .collect();
    let program = Program::compile(query);
    let columns = program.columns();
    let claimed = swim_obs::par_claim(slots.len(), threads, |claims| {
        let mut worker = Worker::new(&program);
        // A worker's claims ascend, so it meets each store as one run of
        // slots: one reader at a time, never more open files than workers.
        let mut current: Option<(usize, ChunkReader<'_>)> = None;
        for slot in claims {
            let (s, idx) = slots[slot];
            if threads > 1 {
                crate::obs::CHUNK_CLAIMS.incr();
            }
            let reader = match &mut current {
                Some((at, reader)) if *at == s => reader,
                other => &mut other.insert((s, stores[s].reader()?)).1,
            };
            worker.fold_chunk(
                reader.columns(idx, columns)?.view(),
                plans[s].full_match[idx],
            );
        }
        Ok::<_, QueryError>(worker)
    });
    // The first worker absorbs the rest: merges are exact and insensitive
    // to order, and its keys and states are already built.
    let mut claimed = claimed.into_iter();
    let mut worker = claimed
        .next()
        .unwrap_or_else(|| Ok(Worker::new(&program)))?;
    for theirs in claimed {
        worker.merge(theirs?);
    }
    let mut stats = ExecStats::default();
    for p in &plans {
        add_chunk_stats(&mut stats, stats_for(p));
    }
    Ok(finalize(query, worker, stats))
}

/// Execute on every core: workers claim planned chunk indices off
/// [`swim_obs::par_claim`]'s shared counter and per-worker group tables
/// are merged exactly. Bit-identical to [`execute_serial`].
pub fn execute(store: &Store, query: &Query) -> Result<QueryOutput, QueryError> {
    let _span = swim_obs::span("query.execute");
    run(std::slice::from_ref(store), query, swim_obs::cores())
}

/// Execute on the calling thread, chunks in file order: the same body
/// with one worker. The reference implementation for determinism tests —
/// and the faster choice for tiny stores.
pub fn execute_serial(store: &Store, query: &Query) -> Result<QueryOutput, QueryError> {
    let _span = swim_obs::span("query.execute_serial");
    run(std::slice::from_ref(store), query, 1)
}

/// Execute over an ordered slice of stores on the calling thread, stores
/// in order and each one's chunks in file order: the same rows a single
/// store over their concatenated trace gives. `stats` sums the stores'
/// chunk counters.
pub fn execute_stores_serial(stores: &[Store], query: &Query) -> Result<QueryOutput, QueryError> {
    let _span = swim_obs::span("query.execute_stores_serial");
    run(stores, query, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::Aggregate;
    use crate::expr::{CmpOp, Col, Expr, Pred};
    use swim_store::{store_to_vec, StoreOptions};
    use swim_trace::trace::WorkloadKind;
    use swim_trace::{DataSize, Dur, JobBuilder, Timestamp, Trace};

    fn trace(n: u64) -> Trace {
        let jobs = (0..n)
            .map(|i| {
                let mut b = JobBuilder::new(i)
                    .submit(Timestamp::from_secs(i * 97 % 40_000))
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
            .collect();
        Trace::new(WorkloadKind::Custom("exec".into()), 9, jobs).unwrap()
    }

    fn store(n: u64, jobs_per_chunk: u32) -> Store {
        Store::from_vec(store_to_vec(&trace(n), &StoreOptions { jobs_per_chunk })).unwrap()
    }

    #[test]
    fn global_count_matches_store_job_count() {
        let store = store(1_000, 64);
        let q = Query::new().select(Aggregate::Count);
        let out = execute(&store, &q).unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].values, vec![AggValue::Int(1_000)]);
        assert_eq!(out.stats.chunks_skipped, 0);
        assert_eq!(out.stats.rows_matched, 1_000);
    }

    #[test]
    fn serial_and_parallel_are_bit_identical() {
        let store = store(5_000, 37);
        let queries = [
            Query::new().select(Aggregate::Count),
            Query::new()
                .filter(Pred::cmp(Col::Duration, CmpOp::Ge, 250))
                .group(Expr::submit_hour())
                .select(Aggregate::Count)
                .select(Aggregate::Sum(Expr::total_io()))
                .select(Aggregate::Avg(Expr::col(Col::Duration)))
                .select(Aggregate::Percentile(Expr::col(Col::Duration), 0.9)),
            Query::new()
                .filter(Pred::cmp(Col::Input, CmpOp::Gt, 1 << 30))
                .group(Expr::col(Col::ReduceTasks))
                .select(Aggregate::Min(Expr::col(Col::Submit)))
                .select(Aggregate::Max(Expr::col(Col::Submit)))
                .order_by(1, true)
                .limit(3),
        ];
        for q in &queries {
            let serial = execute_serial(&store, q).unwrap();
            for _ in 0..3 {
                // Parallel scheduling varies run to run; results may not.
                assert_eq!(execute(&store, q).unwrap(), serial);
            }
        }
    }

    #[test]
    fn repeated_percentiles_answer_alike_on_pooled_samples() {
        // Sample buffers past the pool's floor come from the pool and go
        // back to it: each run grows into buffers an earlier one filled
        // and returned, on one worker or several, global or grouped.
        use crate::agg::pool;
        use swim_store::format::columns::ColumnSet;
        let store = store(30_000, 4096);
        let percentiles = Query::new()
            .filter(Pred::cmp(Col::Duration, CmpOp::Ge, 100))
            .select(Aggregate::Count)
            .select(Aggregate::Percentile(Expr::col(Col::Duration), 0.5))
            .select(Aggregate::Percentile(Expr::col(Col::Input), 0.9))
            .select(Aggregate::Percentile(Expr::col(Col::Duration), 0.99));
        let halves = Expr::Div(
            Box::new(Expr::col(Col::ReduceTasks)),
            Box::new(Expr::Lit(2)),
        );
        let grouped = percentiles.clone().group(halves);
        let stores = std::slice::from_ref(&store);
        let mut reader = store.reader().unwrap();
        let chunks: Vec<_> = (0..store.chunk_count())
            .map(|idx| (reader.columns(idx, ColumnSet::ALL).unwrap(), false))
            .collect();
        for query in [percentiles, grouped] {
            let first = run(stores, &query, 1).unwrap().rows;
            let cells = (first.iter()).map(|r| (r.key.clone(), r.values.clone()));
            assert_eq!(
                cells.collect::<Vec<_>>(),
                crate::oracle::run(&query, &chunks)
            );
            for threads in [1, 4, 2, 1, 3, 4] {
                for _ in 0..3 {
                    assert_eq!(run(stores, &query, threads).unwrap().rows, first);
                    let (buffers, bytes) = pool::retained();
                    assert!(buffers <= pool::MAX_BUFFERS && bytes <= pool::MAX_BYTES);
                }
            }
        }
    }

    #[test]
    fn zone_pruning_skips_chunks_and_preserves_results() {
        let store = store(10_000, 50);
        // Submit range predicate: only a slice of chunks overlaps.
        let q = Query::new()
            .filter(Pred::submit_range(10_000, 12_000))
            .select(Aggregate::Count);
        let out = execute(&store, &q).unwrap();
        assert!(
            out.stats.chunks_skipped > 0,
            "expected skips: {:?}",
            out.stats
        );
        // Oracle: the in-memory trace's own range selection.
        let expected = trace(10_000)
            .select_range(Timestamp::from_secs(10_000), Timestamp::from_secs(12_000))
            .len();
        assert_eq!(out.rows[0].values, vec![AggValue::Int(expected as u64)]);
    }

    #[test]
    fn submit_ranges_include_from_and_exclude_to() {
        // Jobs at t = 0, 100, 200, …; one job a chunk, so the zone maps,
        // not luck, decide which chunks are read.
        let jobs = (0..10u64)
            .map(|i| {
                JobBuilder::new(i)
                    .submit(Timestamp::from_secs(i * 100))
                    .map_task_time(Dur::from_secs(1))
                    .tasks(1, 0)
                    .build()
                    .unwrap()
            })
            .collect();
        let trace = Trace::new(WorkloadKind::Custom("bounds".into()), 1, jobs).unwrap();
        let store =
            Store::from_vec(store_to_vec(&trace, &StoreOptions { jobs_per_chunk: 1 })).unwrap();
        let ids = |from: u64, to: u64| -> Vec<u64> {
            let q = Query::new()
                .filter(Pred::submit_range(from, to))
                .group(Expr::col(Col::Id))
                .select(Aggregate::Count);
            let out = execute(&store, &q).unwrap();
            assert_eq!(out.stats.chunks_skipped, 10 - out.rows.len());
            out.rows.iter().map(|r| r.key[0]).collect()
        };
        // A job exactly at `from` is included; exactly at `to` is not.
        assert_eq!(ids(200, 400), vec![2, 3]);
        // Adjacent ranges partition: no job seen twice or dropped.
        let mut both = ids(0, 300);
        both.extend(ids(300, 1000));
        assert_eq!(both, (0..10).collect::<Vec<_>>());
        // Degenerate ranges select nothing.
        assert_eq!(ids(200, 200), Vec::<u64>::new());
        assert_eq!(ids(400, 200), Vec::<u64>::new());
    }

    #[test]
    fn empty_match_yields_single_null_row_globally_and_no_rows_grouped() {
        let store = store(500, 64);
        let never = Pred::cmp(Col::Duration, CmpOp::Gt, u64::MAX - 1);
        let global = Query::new()
            .filter(never.clone())
            .select(Aggregate::Count)
            .select(Aggregate::Min(Expr::col(Col::Input)))
            .select(Aggregate::Avg(Expr::col(Col::Input)));
        let out = execute(&store, &global).unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(
            out.rows[0].values,
            vec![AggValue::Int(0), AggValue::Null, AggValue::Null]
        );
        assert_eq!(out.stats.chunks_scanned, 0, "all chunks skippable");

        let grouped = Query::new()
            .filter(never)
            .group(Expr::col(Col::MapTasks))
            .select(Aggregate::Count);
        assert!(execute(&store, &grouped).unwrap().rows.is_empty());
    }

    #[test]
    fn group_rows_are_sorted_by_key_and_orderable_by_aggregate() {
        let store = store(2_000, 100);
        let q = Query::new()
            .group(Expr::col(Col::ReduceTasks))
            .select(Aggregate::Count);
        let out = execute(&store, &q).unwrap();
        let keys: Vec<u64> = out.rows.iter().map(|r| r.key[0]).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert_eq!(keys, vec![0, 1, 2, 3]);
        // Descending by count.
        let q = q.order_by(1, true).limit(2);
        let out = execute(&store, &q).unwrap();
        assert_eq!(out.rows.len(), 2);
        let counts: Vec<_> = out.rows.iter().map(|r| r.values[0]).collect();
        assert!(counts[0].order_cmp(&counts[1]).is_ge());
    }

    #[test]
    fn full_match_chunks_skip_the_row_filter_but_count_rows() {
        let store = store(1_000, 100);
        let q = Query::new()
            .filter(Pred::cmp(Col::Duration, CmpOp::Ge, 1)) // true for all
            .select(Aggregate::Count);
        let out = execute(&store, &q).unwrap();
        assert_eq!(out.stats.chunks_full_match, out.stats.chunks_scanned);
        assert_eq!(out.rows[0].values, vec![AggValue::Int(1_000)]);
    }

    #[test]
    fn empty_store_global_query_yields_zero_row() {
        let trace = Trace::new(WorkloadKind::Custom("empty".into()), 1, vec![]).unwrap();
        let store = Store::from_vec(store_to_vec(&trace, &StoreOptions::default())).unwrap();
        let out = execute(&store, &Query::new().select(Aggregate::Count)).unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].values, vec![AggValue::Int(0)]);
    }
}
