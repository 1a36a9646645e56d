//! A reusable query session: one open data source (a `.swim` store file
//! or a `swim-catalog` directory) plus the execution path the
//! `swim-query` CLI, `swim-catalog query`, and the `swim-serve` server
//! all share.
//!
//! The CLI used to own this glue — open the source, dispatch
//! serial/parallel execution, format the stderr scan summary. Splitting
//! it into [`Session`] means a resident server process answers requests
//! through *exactly* the byte-for-byte code path the one-shot binaries
//! use, so goldens pinned against the CLI also pin the server.
//!
//! A [`SessionResult`] carries the typed [`QueryOutput`] (render it in
//! any format), the human scan/pruning summary line, and the catalog
//! generation the result was computed against (`None` for plain store
//! files). Results are plain data — `Clone + PartialEq` — so they can be
//! cached and compared bit-for-bit against re-executions.

use crate::federated::CatalogQuery as _;
use crate::{execute, execute_serial, explain_catalog, explain_store, render};
use crate::{Explain, Query, QueryError, QueryOutput};
use swim_catalog::{Catalog, CatalogError};
use swim_store::{Store, StoreError};

/// The open data source behind a session.
enum Source {
    /// A single `.swim` store file.
    Store {
        /// Path the store was opened from (used by explain).
        path: String,
        /// The open store.
        store: Store,
    },
    /// A `swim-catalog` dataset directory (federated execution).
    Catalog(Catalog),
}

/// One open data source and the shared execution path over it.
///
/// Sessions are read-only: every method takes `&self`, and both the
/// store and catalog engines execute with interior synchronization, so
/// a `Session` can be shared across server worker threads behind an
/// `Arc`.
pub struct Session {
    source: Source,
}

/// The result of executing a query through a [`Session`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionResult {
    /// The query output (rows, stats) — render with [`crate::cli`] or
    /// [`crate::render`].
    pub output: QueryOutput,
    /// The scan/pruning summary line the CLIs print to stderr,
    /// byte-identical to the pre-session binaries:
    /// `… (catalog generation G, N jobs)` or `… (store vV, N jobs)`.
    pub summary: String,
    /// Catalog generation the result was computed against; `None` for
    /// plain store files.
    pub generation: Option<u64>,
}

impl Session {
    /// Open a `.swim` store file. The raw [`StoreError`] is returned so
    /// callers can keep printing `error: open {path}: {e}` unchanged.
    pub fn open_store(path: &str) -> Result<Session, StoreError> {
        let store = Store::open(path)?;
        Ok(Session {
            source: Source::Store {
                path: path.to_owned(),
                store,
            },
        })
    }

    /// Open a `swim-catalog` dataset directory. The raw
    /// [`CatalogError`] is returned so callers can keep printing
    /// `error: open {dir}: {e}` unchanged.
    pub fn open_catalog(dir: &str) -> Result<Session, CatalogError> {
        Ok(Session {
            source: Source::Catalog(Catalog::open(dir)?),
        })
    }

    /// Wrap an already-open catalog (the server opens catalogs itself
    /// to control generation refresh).
    pub fn from_catalog(catalog: Catalog) -> Session {
        Session {
            source: Source::Catalog(catalog),
        }
    }

    /// The open catalog, if this session is backed by one.
    pub fn catalog(&self) -> Option<&Catalog> {
        match &self.source {
            Source::Catalog(c) => Some(c),
            Source::Store { .. } => None,
        }
    }

    /// Catalog generation this session reads at (`None` for stores).
    pub fn generation(&self) -> Option<u64> {
        self.catalog().map(Catalog::generation)
    }

    /// Execute `query`, serially when `serial` is set. Parallel and
    /// serial execution are bit-identical; the flag exists for
    /// benchmarking and debugging.
    pub fn execute(&self, query: &Query, serial: bool) -> Result<SessionResult, QueryError> {
        match &self.source {
            Source::Store { store, .. } => {
                let output = if serial {
                    execute_serial(store, query)?
                } else {
                    execute(store, query)?
                };
                let summary = format!(
                    "{} (store v{}, {} jobs)",
                    render::stats_line(&output),
                    store.format_version(),
                    store.job_count()
                );
                Ok(SessionResult {
                    output,
                    summary,
                    generation: None,
                })
            }
            Source::Catalog(catalog) => {
                let out = if serial {
                    catalog.execute_serial(query)?
                } else {
                    catalog.execute(query)?
                };
                let summary = format!(
                    "{} (catalog generation {}, {} jobs)",
                    out.stats_line(),
                    catalog.generation(),
                    catalog.job_count()
                );
                Ok(SessionResult {
                    output: out.output,
                    summary,
                    generation: Some(catalog.generation()),
                })
            }
        }
    }

    /// Explain `query` against this source without executing it.
    pub fn explain(&self, query: &Query) -> Result<Explain, QueryError> {
        match &self.source {
            Source::Store { path, store } => explain_store(store, path, query),
            Source::Catalog(catalog) => explain_catalog(catalog, query),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use std::sync::atomic::{AtomicU64, Ordering};
    use swim_store::{store_to_vec, StoreOptions};
    use swim_trace::trace::WorkloadKind;
    use swim_trace::{DataSize, Dur, JobBuilder, Timestamp, Trace};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("swim-session-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn demo_trace(n: u64) -> Trace {
        let jobs = (0..n)
            .map(|i| {
                JobBuilder::new(i)
                    .submit(Timestamp::from_secs(i * 60))
                    .duration(Dur::from_secs(30 + i % 240))
                    .input(DataSize::from_mb(64))
                    .map_task_time(Dur::from_secs(90))
                    .tasks(2, 0)
                    .build()
                    .unwrap()
            })
            .collect();
        Trace::new(WorkloadKind::Custom("demo".into()), 25, jobs).unwrap()
    }

    fn count_query() -> Query {
        let mut q = Query::new();
        for agg in parse::parse_aggregates("count,sum(total_io)").unwrap() {
            q = q.select(agg);
        }
        q
    }

    #[test]
    fn store_session_matches_direct_execution() {
        let dir = temp_dir("store");
        let path = dir.join("demo.swim");
        let bytes = store_to_vec(&demo_trace(120), &StoreOptions { jobs_per_chunk: 32 });
        std::fs::write(&path, &bytes).unwrap();
        let path = path.to_string_lossy().into_owned();

        let session = Session::open_store(&path).unwrap();
        let q = count_query();
        let got = session.execute(&q, false).unwrap();
        let serial = session.execute(&q, true).unwrap();
        assert_eq!(got, serial, "parallel and serial must be bit-identical");
        assert_eq!(got.generation, None);
        assert_eq!(session.generation(), None);

        let store = Store::open(&path).unwrap();
        assert_eq!(store.job_count(), 120);
        let direct = execute(&store, &q).unwrap();
        assert_eq!(got.output, direct);
        assert_eq!(
            got.summary,
            format!(
                "{} (store v{}, {} jobs)",
                render::stats_line(&direct),
                store.format_version(),
                store.job_count()
            )
        );
        assert!(session.explain(&q).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn catalog_session_reports_generation() {
        let dir = temp_dir("catalog");
        let cat_dir = dir.join("cat.d");
        let mut catalog = Catalog::init(&cat_dir).unwrap();
        catalog
            .ingest_trace(&demo_trace(90), &swim_catalog::CatalogOptions::default())
            .unwrap();
        let session = Session::open_catalog(&cat_dir.to_string_lossy()).unwrap();
        let q = count_query();
        let got = session.execute(&q, false).unwrap();
        assert_eq!(got.generation, Some(1));
        assert!(got.summary.contains("(catalog generation 1, 90 jobs)"));
        assert!(session.catalog().is_some());
        assert_eq!(session.generation(), Some(1));

        let wrapped = Session::from_catalog(Catalog::open(&cat_dir).unwrap());
        assert_eq!(wrapped.execute(&q, true).unwrap(), got);
        assert!(wrapped.explain(&q).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_errors_are_raw() {
        assert!(Session::open_store("/no/such/file.swim").is_err());
        assert!(Session::open_catalog("/no/such/dir.d").is_err());
    }
}
