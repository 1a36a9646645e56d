//! `swim-query --explain`: the physical plan and its zone-map verdicts,
//! **without executing** the query.
//!
//! An [`Explain`] is pure planner output: the logical plan tree
//! (top-down: limit → order by → aggregate → group by → filter → columns
//! read → scan)
//! and, per target store, the chunk verdict counts —
//! how many chunks the predicate's interval analysis classified
//! [`Never`](crate::Tri::Never) (never read),
//! [`Always`](crate::Tri::Always) (read, row filter skipped), and
//! [`Maybe`](crate::Tri::Maybe) (read and filtered). Over a catalog the
//! same three-way split is first reported at the shard level (manifest
//! zone maps); only non-`Never` shards have their footers opened for
//! chunk-level planning — no chunk payload is ever read either way.
//!
//! The counts are *checkable* against execution: for the same query,
//! `always + maybe` here equals `chunks_scanned` in
//! [`crate::ExecStats`] and the `store.chunks_decoded` counter observed
//! under `--profile` — pinned by `tests/explain_golden.rs` and CI.

use crate::expr::Col;
use crate::kernel::Program;
use crate::plan::{plan, Plan, Query};
use crate::QueryError;
use swim_catalog::Catalog;
use swim_obs::json::quote;
use swim_report::doc::KeyValueBlock;
use swim_report::render::Table;
use swim_report::{markdown, Block, Report, Section};
use swim_store::Store;

/// Three-valued zone-map verdict counts over one pruning level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VerdictCounts {
    /// Proven empty of matches: never read.
    pub never: usize,
    /// Proven to match entirely: read with the row filter skipped.
    pub always: usize,
    /// Undecided: read and row-filtered.
    pub maybe: usize,
}

impl VerdictCounts {
    /// Verdicts of a chunk-level [`Plan`].
    pub fn of_plan(p: &Plan) -> VerdictCounts {
        let always = p.selected.iter().filter(|&&i| p.full_match[i]).count();
        VerdictCounts {
            never: p.chunks_skipped(),
            always,
            maybe: p.selected.len() - always,
        }
    }

    /// Everything the planner looked at.
    pub fn total(&self) -> usize {
        self.never + self.always + self.maybe
    }

    /// What execution would read (`always + maybe`) — the number that
    /// must match `--profile`'s decode counters.
    pub fn scanned(&self) -> usize {
        self.always + self.maybe
    }

    fn add(&mut self, other: VerdictCounts) {
        self.never += other.never;
        self.always += other.always;
        self.maybe += other.maybe;
    }
}

/// Chunk-level verdicts for one store (the single `--trace` target, or
/// one opened catalog shard).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreExplain {
    /// Display label (file name for catalog shards).
    pub label: String,
    /// Store format version (v1 prunes on submit only).
    pub version: u16,
    /// Jobs in the store.
    pub jobs: u64,
    /// Chunk verdict counts.
    pub verdicts: VerdictCounts,
}

/// A planned-but-not-executed query: plan tree plus verdict counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Explain {
    /// Plan tree as `(step, detail)` pairs, top-down.
    pub steps: Vec<(String, String)>,
    /// Shard-level verdicts (federated targets only). `never` shards
    /// were not even opened; their chunks appear nowhere below.
    pub shards: Option<VerdictCounts>,
    /// Per-store chunk verdicts, in target order.
    pub stores: Vec<StoreExplain>,
}

impl Explain {
    /// Chunk verdicts summed over every (opened) store.
    pub fn chunk_verdicts(&self) -> VerdictCounts {
        let mut total = VerdictCounts::default();
        for store in &self.stores {
            total.add(store.verdicts);
        }
        total
    }

    /// Build the report [`Section`] shared by the text and Markdown
    /// renderers.
    pub fn to_section(&self, title: impl Into<String>) -> Section {
        let mut section = Section::new(title);
        let key_width = self
            .steps
            .iter()
            .map(|(step, _)| step.len())
            .max()
            .unwrap_or(0);
        section.push(Block::KeyValue(KeyValueBlock::new(
            self.steps
                .iter()
                .map(|(step, detail)| (step.clone(), detail.clone()))
                .collect(),
            key_width,
        )));
        if let Some(shards) = &self.shards {
            let mut table = Table::new(vec!["never", "always", "maybe", "opened"]);
            table.row(vec![
                shards.never.to_string(),
                shards.always.to_string(),
                shards.maybe.to_string(),
                shards.scanned().to_string(),
            ]);
            section.captioned_table("\nshard verdicts (manifest zone maps)", table);
        }
        let mut table = Table::new(vec![
            "store", "version", "jobs", "never", "always", "maybe", "scanned",
        ]);
        for store in &self.stores {
            table.row(vec![
                store.label.clone(),
                format!("v{}", store.version),
                store.jobs.to_string(),
                store.verdicts.never.to_string(),
                store.verdicts.always.to_string(),
                store.verdicts.maybe.to_string(),
                store.verdicts.scanned().to_string(),
            ]);
        }
        if self.stores.len() > 1 {
            let total = self.chunk_verdicts();
            table.row(vec![
                "(total)".to_owned(),
                String::new(),
                self.stores.iter().map(|s| s.jobs).sum::<u64>().to_string(),
                total.never.to_string(),
                total.always.to_string(),
                total.maybe.to_string(),
                total.scanned().to_string(),
            ]);
        }
        section.captioned_table(
            "\nchunk verdicts (zone maps; scanned = always + maybe)",
            table,
        );
        let total = self.chunk_verdicts();
        section.prose(format!(
            "\nexecution would decode {} of {} chunks ({} skipped, {} full-match); \
             nothing was executed\n",
            total.scanned(),
            total.total(),
            total.never,
            total.always,
        ));
        section
    }

    /// Aligned-text rendering (the CLI default; golden-pinned).
    pub fn render_text(&self, title: &str) -> String {
        self.to_section(title).render_text()
    }

    /// Markdown rendering through the report document model.
    pub fn render_markdown(&self, title: &str) -> String {
        let mut report = Report::new(title);
        report.push(self.to_section(title));
        markdown::render_report(&report)
    }

    /// One JSON object with fixed key order (byte-deterministic).
    pub fn render_json(&self) -> String {
        fn verdicts(v: &VerdictCounts) -> String {
            format!(
                "{{\"never\":{},\"always\":{},\"maybe\":{},\"scanned\":{}}}",
                v.never,
                v.always,
                v.maybe,
                v.scanned()
            )
        }
        let mut out = String::from("{\"steps\":[");
        for (i, (step, detail)) in self.steps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{},{}]", quote(step), quote(detail)));
        }
        out.push_str("],\"shards\":");
        match &self.shards {
            Some(shards) => out.push_str(&verdicts(shards)),
            None => out.push_str("null"),
        }
        out.push_str(",\"stores\":[");
        for (i, store) in self.stores.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"label\":{},\"version\":{},\"jobs\":{},\"verdicts\":{}}}",
                quote(&store.label),
                store.version,
                store.jobs,
                verdicts(&store.verdicts)
            ));
        }
        out.push_str(&format!(
            "],\"chunks\":{}}}",
            verdicts(&self.chunk_verdicts())
        ));
        out
    }
}

/// The plan-tree steps shared by both targets; the caller appends its
/// own `scan` step.
fn plan_steps(query: &Query) -> Vec<(String, String)> {
    let mut steps = Vec::new();
    if let Some(limit) = query.limit {
        steps.push(("limit".to_owned(), format!("{limit} rows")));
    }
    if let Some(order) = query.order_by {
        steps.push((
            "order by".to_owned(),
            format!(
                "output column {}{}",
                order.column + 1,
                if order.descending {
                    ", descending"
                } else {
                    ", ascending"
                }
            ),
        ));
    }
    steps.push((
        "aggregate".to_owned(),
        query
            .aggregates
            .iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .join(", "),
    ));
    steps.push((
        "group by".to_owned(),
        if query.group_by.is_empty() {
            "(one global group)".to_owned()
        } else {
            query
                .group_by
                .iter()
                .map(|e| e.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        },
    ));
    steps.push((
        "filter".to_owned(),
        if query.predicate == crate::Pred::True {
            "(none - every row matches)".to_owned()
        } else {
            query.predicate.to_string()
        },
    ));
    // What the scan decodes: the other columns of a chunk are not read
    // (or, from the column cache, never asked for).
    let read = Program::compile(query).columns();
    let names: Vec<&str> = Col::ALL
        .into_iter()
        .filter(|c| read.contains(c.zone_index()))
        .map(Col::name)
        .collect();
    steps.push((
        "columns".to_owned(),
        if names.is_empty() {
            "(none - rows are counted, no column is decoded)".to_owned()
        } else {
            format!(
                "{} ({} of {})",
                names.join(", "),
                names.len(),
                Col::ALL.len()
            )
        },
    ));
    steps
}

/// Explain a query against one store. Validates and plans; reads only
/// the footer the store was opened with — never a chunk.
pub fn explain_store(store: &Store, label: &str, query: &Query) -> Result<Explain, QueryError> {
    query.validate()?;
    let p = plan(store, query);
    let mut steps = plan_steps(query);
    steps.push((
        "scan".to_owned(),
        format!(
            "store {} (format v{}, {} jobs, {} chunks)",
            label,
            store.format_version(),
            store.job_count(),
            store.chunk_count()
        ),
    ));
    Ok(Explain {
        steps,
        shards: None,
        stores: vec![StoreExplain {
            label: label.to_owned(),
            version: store.format_version(),
            jobs: store.job_count(),
            verdicts: VerdictCounts::of_plan(&p),
        }],
    })
}

/// Explain a federated query against a catalog: shard verdicts from the
/// manifest zone maps, then chunk verdicts for each non-`Never` shard
/// (whose footer is opened, but no chunk decoded).
pub fn explain_catalog(catalog: &Catalog, query: &Query) -> Result<Explain, QueryError> {
    use crate::Tri;
    query.validate()?;
    let mut shard_counts = VerdictCounts::default();
    let mut stores = Vec::new();
    for (idx, entry) in catalog.shards().iter().enumerate() {
        match query.predicate.zone_verdict(&entry.zone) {
            Tri::Never => {
                shard_counts.never += 1;
                continue;
            }
            Tri::Always => shard_counts.always += 1,
            Tri::Maybe => shard_counts.maybe += 1,
        }
        let store = catalog.open_shard(idx)?;
        let p = plan(&store, query);
        stores.push(StoreExplain {
            label: entry.file.clone(),
            version: entry.store_version,
            jobs: entry.jobs,
            verdicts: VerdictCounts::of_plan(&p),
        });
    }
    let mut steps = plan_steps(query);
    steps.push((
        "scan".to_owned(),
        format!(
            "catalog generation {} ({} shards, {} jobs)",
            catalog.generation(),
            catalog.shard_count(),
            catalog.job_count()
        ),
    ));
    Ok(Explain {
        steps,
        shards: Some(shard_counts),
        stores,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::Aggregate;
    use crate::expr::{CmpOp, Col, Expr, Pred};
    use swim_store::{store_to_vec, StoreOptions};
    use swim_trace::trace::WorkloadKind;
    use swim_trace::{DataSize, Dur, JobBuilder, Timestamp, Trace};

    fn store() -> Store {
        // As in plan.rs: 100 jobs, 10 per chunk, submit = 100·i, input = i.
        let jobs = (0..100u64)
            .map(|i| {
                JobBuilder::new(i)
                    .submit(Timestamp::from_secs(i * 100))
                    .duration(Dur::from_secs(60))
                    .input(DataSize::from_bytes(i))
                    .map_task_time(Dur::from_secs(10))
                    .tasks(1, 0)
                    .build()
                    .unwrap()
            })
            .collect();
        let trace = Trace::new(WorkloadKind::Custom("explain".into()), 5, jobs).unwrap();
        Store::from_vec(store_to_vec(&trace, &StoreOptions { jobs_per_chunk: 10 })).unwrap()
    }

    fn query() -> Query {
        Query::new()
            .filter(Pred::cmp(Col::Input, CmpOp::Ge, 73))
            .group(Expr::col(Col::ReduceTasks))
            .select(Aggregate::Count)
            .order_by(1, true)
            .limit(5)
    }

    #[test]
    fn verdict_counts_match_the_plan() {
        let store = store();
        let explain = explain_store(&store, "mem", &query()).unwrap();
        let v = explain.chunk_verdicts();
        // input >= 73 → chunks 7 (maybe), 8, 9 (always); 0–6 never.
        assert_eq!(
            v,
            VerdictCounts {
                never: 7,
                always: 2,
                maybe: 1
            }
        );
        assert_eq!(v.scanned(), 3);
        assert_eq!(v.total(), 10);
        // Cross-check against actual execution.
        let out = crate::execute_serial(&store, &query()).unwrap();
        assert_eq!(v.scanned(), out.stats.chunks_scanned);
        assert_eq!(v.never, out.stats.chunks_skipped);
        assert_eq!(v.always, out.stats.chunks_full_match);
    }

    #[test]
    fn plan_tree_is_top_down_and_complete() {
        let explain = explain_store(&store(), "mem", &query()).unwrap();
        let steps: Vec<&str> = explain.steps.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(
            steps,
            vec![
                "limit",
                "order by",
                "aggregate",
                "group by",
                "filter",
                "columns",
                "scan"
            ]
        );
        let text = explain.render_text("explain: demo");
        assert!(text.contains("limit    : 5 rows"), "{text}");
        assert!(text.contains("filter   : input >= 73"), "{text}");
        assert!(
            text.contains("columns  : input, reduce_tasks (2 of 10)"),
            "{text}"
        );
        assert!(text.contains("scanned = always + maybe"), "{text}");
        assert!(text.contains("nothing was executed"), "{text}");
    }

    #[test]
    fn trivial_query_omits_optional_steps() {
        let explain =
            explain_store(&store(), "mem", &Query::new().select(Aggregate::Count)).unwrap();
        let steps: Vec<&str> = explain.steps.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(
            steps,
            vec!["aggregate", "group by", "filter", "columns", "scan"]
        );
        assert!(
            explain.steps[3].1.starts_with("(none"),
            "a bare count reads no column"
        );
        assert_eq!(
            explain.chunk_verdicts(),
            VerdictCounts {
                never: 0,
                always: 10,
                maybe: 0
            }
        );
    }

    #[test]
    fn json_has_fixed_shape() {
        let json = explain_store(&store(), "mem", &query())
            .unwrap()
            .render_json();
        assert!(
            json.starts_with("{\"steps\":[[\"limit\",\"5 rows\"]"),
            "{json}"
        );
        assert!(json.contains("\"shards\":null"), "{json}");
        assert!(
            json.contains("\"verdicts\":{\"never\":7,\"always\":2,\"maybe\":1,\"scanned\":3}"),
            "{json}"
        );
        assert!(
            json.ends_with("\"chunks\":{\"never\":7,\"always\":2,\"maybe\":1,\"scanned\":3}}"),
            "{json}"
        );
    }

    #[test]
    fn json_escapes_control_characters_in_labels() {
        let json = explain_store(&store(), "tab\there.swim", &query())
            .unwrap()
            .render_json();
        assert!(json.contains(r#""label":"tab\there.swim""#), "{json}");
        let parsed = swim_obs::json::parse_value(&json).unwrap();
        let stores = parsed.get("stores").and_then(|s| s.as_array()).unwrap();
        let label = stores[0].get("label").and_then(|l| l.as_str());
        assert_eq!(label, Some("tab\there.swim"));
    }

    #[test]
    fn invalid_queries_fail_before_planning() {
        assert!(matches!(
            explain_store(&store(), "mem", &Query::new()),
            Err(QueryError::Invalid(_))
        ));
    }
}
