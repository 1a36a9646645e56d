//! # swim-query
//!
//! A vectorized, columnar query engine over the `swim-store` trace
//! format — the paper's whole analysis battery (per-bin job counts, I/O
//! sums, duration percentiles) expressed as one typed surface:
//!
//! ```text
//! Query { predicate, group_by, aggregates, order_by, limit }
//! ```
//!
//! compiled against a store's footer into a physical plan and executed
//! over chunk-at-a-time numeric column projections. Three properties do
//! the heavy lifting:
//!
//! 1. **Zone-map pruning** — the store keeps per-chunk `[min, max]`
//!    bounds for *all ten* numeric columns, and the planner interval-
//!    evaluates the predicate against them
//!    ([`Pred::zone_verdict`]), so chunks that cannot match
//!    are never read and chunks that match entirely skip the row filter.
//! 2. **Vectorized execution** — chunks decode to a
//!    [`swim_store::format::columns::ChunkView`] of just the columns the
//!    query reads (the rest are not decoded) and one chunk
//!    kernel folds them: expressions column-at-a-time into reused
//!    scratch, one selection vector, dense group ids, one state vector
//!    per aggregate. Names/paths are never decoded (they are not
//!    addressable from a query at all).
//! 3. **Deterministic parallelism** — workers claim chunk indices off
//!    [`swim_obs::par_claim`]'s shared counter and decode through a
//!    [`swim_store::ChunkReader`] each (one thread is the serial path);
//!    every worker merge is exact and order-insensitive (counts, saturating
//!    `u64` sums, extrema, rank-selected percentile samples), and
//!    finalization sorts groups canonically, so [`execute`] and
//!    [`execute_serial`] return bit-identical results.
//!
//! ```
//! use swim_query::{execute, execute_serial, parse, Query};
//! use swim_store::{store_to_vec, Store, StoreOptions};
//! use swim_trace::trace::WorkloadKind;
//! use swim_trace::{DataSize, Dur, JobBuilder, Timestamp, Trace};
//!
//! // A day of jobs, one per minute, 64 MB in each.
//! let jobs = (0..1440u64)
//!     .map(|i| {
//!         JobBuilder::new(i)
//!             .submit(Timestamp::from_secs(i * 60))
//!             .duration(Dur::from_secs(30 + i % 240))
//!             .input(DataSize::from_mb(64))
//!             .map_task_time(Dur::from_secs(90))
//!             .tasks(2, 0)
//!             .build()
//!             .unwrap()
//!     })
//!     .collect();
//! let trace = Trace::new(WorkloadKind::Custom("demo".into()), 25, jobs).unwrap();
//! let store = Store::from_vec(store_to_vec(
//!     &trace,
//!     &StoreOptions { jobs_per_chunk: 60 },
//! ))
//! .unwrap();
//!
//! // Hourly job counts and I/O for the first six hours — Fig. 7's shape.
//! let mut query = Query::new()
//!     .filter(parse::parse_predicate("submit < 6h").unwrap())
//!     .group(swim_query::Expr::submit_hour());
//! for agg in parse::parse_aggregates("count, sum(total_io)").unwrap() {
//!     query = query.select(agg);
//! }
//! let out = execute(&store, &query).unwrap();
//! assert_eq!(out.rows.len(), 6);
//! assert_eq!(out.rows[0].values[0], swim_query::AggValue::Int(60));
//! // Chunks after hour six were never read …
//! assert!(out.stats.chunks_skipped > 0);
//! // … and the parallel result is bit-identical to the serial one.
//! assert_eq!(execute_serial(&store, &query).unwrap(), out);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod agg;
pub mod cli;
pub mod exec;
pub mod explain;
pub mod expr;
pub mod federated;
mod kernel;
mod obs;
pub mod parse;
pub mod plan;
pub mod render;
pub mod session;

// The row-at-a-time oracle lives with the integration tests, which
// cannot see `cfg(test)` items of this crate; the unit tests include the
// same file, and the alias lets its `swim_query::` paths resolve here.
#[cfg(test)]
extern crate self as swim_query;
#[cfg(test)]
#[path = "../tests/support/mod.rs"]
mod oracle;

pub use agg::{AggValue, Aggregate};
pub use exec::{execute, execute_serial, execute_stores_serial, ExecStats, QueryOutput, Row};
pub use explain::{explain_catalog, explain_store, Explain, StoreExplain, VerdictCounts};
pub use expr::{CmpOp, Col, Expr, Pred, Tri};
pub use federated::{CatalogOutput, CatalogQuery};
pub use plan::{plan, OrderBy, Plan, Query};
pub use render::{render_json, render_markdown, render_text};
pub use session::{Session, SessionResult};

use std::fmt;
use swim_catalog::CatalogError;
use swim_store::StoreError;

/// Errors from planning or executing a query.
#[derive(Debug)]
#[non_exhaustive]
pub enum QueryError {
    /// The underlying store failed (I/O, corruption).
    Store(StoreError),
    /// The underlying catalog failed (manifest, shard I/O) during
    /// federated execution.
    Catalog(CatalogError),
    /// The query itself is malformed (empty select, bad percentile rank,
    /// order-by out of range, unparseable text).
    Invalid(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Store(e) => write!(f, "query store error: {e}"),
            QueryError::Catalog(e) => write!(f, "query catalog error: {e}"),
            QueryError::Invalid(msg) => write!(f, "invalid query: {msg}"),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Store(e) => Some(e),
            QueryError::Catalog(e) => Some(e),
            QueryError::Invalid(_) => None,
        }
    }
}

impl From<StoreError> for QueryError {
    fn from(e: StoreError) -> Self {
        QueryError::Store(e)
    }
}

impl From<CatalogError> for QueryError {
    fn from(e: CatalogError) -> Self {
        QueryError::Catalog(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        use std::error::Error as _;
        let e = QueryError::Invalid("nope".into());
        assert!(e.to_string().contains("nope"));
        assert!(e.source().is_none());
        let e = QueryError::from(StoreError::Truncated { context: "x" });
        assert!(e.to_string().contains("x"));
        assert!(e.source().is_some());
        let e = QueryError::from(CatalogError::Invalid("zero shards".into()));
        assert!(e.to_string().contains("zero shards"));
        assert!(e.source().is_some());
    }
}
