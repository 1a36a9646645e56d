//! swim-obs instruments for the query layer. Counter names are part of
//! the observable surface (`swim-query --profile`, the JSONL sink), so
//! treat them as API.
//!
//! The planner verdict counters are the profile-side half of the
//! `--explain` acceptance check: for one profiled query,
//! `query.verdict_always + query.verdict_maybe` equals the number of
//! planned chunks, which equals `store.chunks_decoded`.

use swim_obs::Counter;

/// Chunks the planner proved can contain no matching row (never read).
pub(crate) static VERDICT_NEVER: Counter = Counter::new("query.verdict_never");
/// Chunks the planner proved match entirely (read, row filter skipped).
pub(crate) static VERDICT_ALWAYS: Counter = Counter::new("query.verdict_always");
/// Chunks the planner could not decide (read and row-filtered).
pub(crate) static VERDICT_MAYBE: Counter = Counter::new("query.verdict_maybe");
/// Rows decoded across scanned chunks.
pub(crate) static ROWS_SCANNED: Counter = Counter::new("query.rows_scanned");
/// Rows that passed the predicate.
pub(crate) static ROWS_MATCHED: Counter = Counter::new("query.rows_matched");
/// Rows the predicate rejected (`rows_scanned - rows_matched`).
pub(crate) static ROWS_FILTERED: Counter = Counter::new("query.rows_filtered");
/// Chunk indices claimed off the shared cursor by a store-level
/// execution asked for more than one thread (stays zero on the serial
/// path, which is the same body with one).
pub(crate) static CHUNK_CLAIMS: Counter = Counter::new("query.chunk_claims");
/// Shards a federated query's manifest zone maps eliminated.
pub(crate) static SHARDS_PRUNED: Counter = Counter::new("catalog.shards_pruned");
/// Shards a federated query actually opened and scanned.
pub(crate) static SHARDS_SCANNED: Counter = Counter::new("catalog.shards_scanned");

/// Key-table lookups the kernel made while assigning group ids: rows
/// its memo of recently met ids did not answer. Against
/// `query.rows_matched` (the lookups a memo-less kernel would make) it is
/// useful work over attempts; each worker pays its own first probe per
/// key, so how chunks fall to workers moves it by a few.
pub(crate) static GROUP_PROBES: Counter = Counter::new("query.group_probes");

/// Record an executed query's row totals (shared by the store-level and
/// federated executors).
pub(crate) fn record_rows(worker: &crate::kernel::Worker<'_>) {
    ROWS_SCANNED.add(worker.rows_scanned);
    ROWS_MATCHED.add(worker.rows_matched);
    ROWS_FILTERED.add(worker.rows_scanned.saturating_sub(worker.rows_matched));
    GROUP_PROBES.add(worker.group_probes);
}
