//! The per-trace experiment battery: every `fig*`/`table*` analysis of
//! the paper, reduced to typed per-trace measurements. This module is the
//! one implementation of the paper's characterization: a battery cell is
//! the only code that computes a figure's per-trace values.
//!
//! Two front ends read the cells. The [`crate::compare`] pipeline fans
//! the battery across any N traces in parallel and assembles one
//! trace×metric table per experiment (`swim-report`). Each
//! [`crate::experiments`] module runs its cell on the seven-workload
//! corpus and lays the cells' [`Value`]s out beside the paper's
//! reference values and the cross-workload aggregates (`swim-repro`).
//! So a cell reports every per-trace value its repro section prints, and
//! every analysis parameter (the constants below) has one owner.
//! Each battery entry maps one trace to an [`ExperimentResult`] — named
//! scalar metrics, optionally with hourly series for sparklines.
//!
//! Traces are wrapped in a [`TraceContext`], which reads every input the
//! same way — as an ordered list of `swim-store` stores: a `.swim` file,
//! a catalog's shards, or the in-memory store a CSV, JSON-lines or
//! generated trace is encoded into once — so cheap questions stay cheap
//! and no cell depends on where its trace came from. The numeric cells
//! (table1, fig1, fig7, fig8, fig9) are `swim-query` plans over the
//! stores, which read only the numeric columns they name. The path, name
//! and job-type cells (fig2–6, fig10, table2) share one ordered pass over
//! every job, made at most once, lazily, when the first of them asks;
//! the swim cell makes one pass of its own. No cell holds the trace's
//! jobs: a pass streams the stores' chunks, merged in `(submit, id)`
//! order, and keeps only what its cells read.

use std::path::Path;
use std::sync::OnceLock;
use swim_core::access::{AccessFold, FileAccessStats, PathStage};
use swim_core::burstiness::Burstiness;
use swim_core::fourier::detect_diurnal;
use swim_core::locality::{LocalityFold, LocalityStats};
use swim_core::names::{NameAnalysis, NameFold, Weighting};
use swim_core::timeseries::HourlySeries;
use swim_core::KMeans;
use swim_query::{AggValue, Aggregate, Col, Expr, Query, QueryError, Row};
use swim_sim::{SimConfig, Simulator};
use swim_store::{ChunkMeta, Store, StoreError, StoreOptions};
use swim_trace::time::WEEK;
use swim_trace::trace::WorkloadKind;
use swim_trace::{DataSize, Dur, Job, Timestamp, Trace, TraceSummary};

use crate::analyze::{synthesize_bundle, EXPORT_QUANTILES};
use crate::render::{bytes, pct, ratio};

/// Table 2's elbow search: the largest k tried.
pub const ELBOW_MAX_K: usize = 12;

/// Table 2's elbow threshold. Raw-space inertia is dominated by the heavy
/// right tails of the byte dimensions, where even splits of a single
/// log-normal blob keep paying ≈40 % per extra centroid; 0.5 stops once a
/// split no longer halves the residual. Raw distance is what isolates
/// the tiny huge-data clusters that matter.
pub const ELBOW_THRESHOLD: f64 = 0.5;

/// Ranks in Fig. 2's Zipf fit: the head of the rank distribution (the
/// published log-log lines are visually dominated by the first couple of
/// decades of ranks).
pub const ZIPF_FIT_RANKS: usize = 300;

/// The paper's temporal-locality window (§4.3: ≈75 % of re-accesses fall
/// within six hours), in seconds.
pub const LOCALITY_WINDOW_SECS: u64 = 6 * 3_600;

/// SNR above which Fig. 7's 24-hour bin counts as a daily cycle.
pub const DIURNAL_MIN_SNR: f64 = 3.0;

/// Seed of the `swim` cell's one-day window sample.
pub const SWIM_SAMPLE_SEED: u64 = 7;

/// Target cluster size for the `swim` cell's replay (the §7 default).
pub const SWIM_TARGET_NODES: u32 = 20;

/// Fig. 1's stages, in a job's feature-vector order.
pub const SIZE_STAGES: [&str; 3] = ["input", "shuffle", "output"];

/// Fig. 1's per-job size percentiles: column `input p10` holds the input
/// sizes' 10th percentile.
pub const SIZE_PERCENTILES: [u32; 5] = [10, 25, 50, 75, 90];

/// Fig. 2's stages, each with the prefix of its `distinct files`,
/// `accesses`, `zipf slope` and `fit R²` columns.
pub const ZIPF_STAGES: [(PathStage, &str); 2] =
    [(PathStage::Input, ""), (PathStage::Output, "output ")];

/// Figs. 3–4's file-size thresholds in GB: columns `jobs < N GB` and
/// `bytes < N GB` each.
pub const SIZE_THRESHOLDS_GB: [u64; 4] = [1, 4, 16, 64];

/// Fig. 5's panels: inputs re-read, and outputs re-read as inputs. Each
/// has a `<panel> re-accesses` count column.
pub const REACCESS_PANELS: [&str; 2] = ["input→input", "output→input"];

/// Fig. 5's re-access interval thresholds in seconds, each with its
/// column suffix (column `input→input ≤1 hr` holds a fraction).
pub const REACCESS_THRESHOLDS: [(u64, &str); 4] = [
    (60, "1 min"),
    (3_600, "1 hr"),
    (LOCALITY_WINDOW_SECS, "6 hrs"),
    (60 * 3_600, "60 hrs"),
];

/// Fig. 8's signals: hourly task-time, then hourly submissions. Each has
/// a `<signal> pN` column per [`BURSTINESS_PERCENTILES`] entry and a
/// `<signal> peak:median` one.
pub const BURSTINESS_SIGNALS: [&str; 2] = ["task-time", "submissions"];

/// Fig. 8's percentiles of an hourly signal, as ratios to its median.
pub const BURSTINESS_PERCENTILES: [f64; 6] = [5.0, 25.0, 50.0, 75.0, 90.0, 99.0];

/// How many top words Fig. 10 reports per weighting.
pub const TOP_WORDS: usize = 5;

/// Fig. 10's weightings, each with its top-words column.
pub const TOP_WORDS_COLUMNS: [(Weighting, &str); 3] = [
    (Weighting::Jobs, "by jobs"),
    (Weighting::Bytes, "by bytes"),
    (Weighting::TaskTime, "by task-time"),
];

/// The `swim` cell's validated dimensions, in
/// [`swim_sim::SynthesisReport`] field order: one
/// `<dimension> KS` column each.
pub const KS_DIMENSIONS: [&str; 6] = [
    "input",
    "shuffle",
    "output",
    "duration",
    "task-time",
    "inter-arrival",
];

/// One measured value, tagged with how it should render.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An integer count.
    Count(u64),
    /// A byte quantity (rendered in the paper's decimal units).
    Bytes(f64),
    /// A duration in seconds (rendered `{:.0} s`).
    Seconds(f64),
    /// A span of time (rendered like `2 days 3 hrs`).
    Span(Dur),
    /// A fraction in `[0, 1]` (rendered as a percentage).
    Fraction(f64),
    /// A peak-to-median style ratio (rendered `N:1`).
    Ratio(f64),
    /// A dimensionless number (rendered `{:.2}`).
    Number(f64),
    /// Free-form text.
    Text(String),
}

impl Value {
    /// The numeric value (a count as `f64`, a span in seconds); `None`
    /// for text.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Count(n) => Some(*n as f64),
            Value::Span(d) => Some(d.secs() as f64),
            Value::Bytes(x)
            | Value::Seconds(x)
            | Value::Fraction(x)
            | Value::Ratio(x)
            | Value::Number(x) => Some(*x),
            Value::Text(_) => None,
        }
    }

    /// Render for a comparison-table cell. Non-finite numerics render as
    /// `-` (the "not measurable" cell).
    pub fn render(&self) -> String {
        match self {
            Value::Count(n) => n.to_string(),
            Value::Bytes(b) if b.is_finite() => bytes(*b),
            Value::Seconds(s) if s.is_finite() => format!("{s:.0} s"),
            Value::Span(d) => d.to_string(),
            Value::Fraction(f) if f.is_finite() => pct(*f),
            Value::Ratio(r) if r.is_finite() => ratio(*r),
            Value::Number(x) if x.is_finite() => format!("{x:.2}"),
            Value::Text(t) => t.clone(),
            _ => "-".to_owned(),
        }
    }
}

/// One named metric of one experiment on one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Column name in the comparison table.
    pub name: String,
    /// The measured value.
    pub value: Value,
}

impl Metric {
    /// Construct a metric.
    pub fn new(name: impl Into<String>, value: Value) -> Metric {
        Metric {
            name: name.into(),
            value,
        }
    }
}

/// One named hourly series of one experiment on one trace (sparkline
/// source in the comparison report).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Row label.
    pub name: &'static str,
    /// The series values.
    pub values: Vec<f64>,
}

/// Structured result of one experiment on one trace.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentResult {
    /// Named scalar metrics (most experiments).
    Metrics(Vec<Metric>),
    /// Hourly series for sparklines, plus derived scalar metrics.
    Series {
        /// The series, in presentation order.
        series: Vec<Series>,
        /// Derived scalars.
        metrics: Vec<Metric>,
    },
    /// The experiment does not apply to this trace (with the reason —
    /// e.g. no path information, no job names).
    Skipped(&'static str),
}

impl ExperimentResult {
    /// The scalar metrics, if any.
    pub fn metrics(&self) -> &[Metric] {
        match self {
            ExperimentResult::Metrics(m) => m,
            ExperimentResult::Series { metrics, .. } => metrics,
            ExperimentResult::Skipped(_) => &[],
        }
    }

    /// The series, if any.
    pub fn series(&self) -> &[Series] {
        match self {
            ExperimentResult::Series { series, .. } => series,
            _ => &[],
        }
    }

    /// `true` iff the experiment did not apply to the trace.
    pub fn is_skipped(&self) -> bool {
        matches!(self, ExperimentResult::Skipped(_))
    }

    /// The value of metric `name`, if the result has it.
    pub fn get(&self, name: &str) -> Option<&Value> {
        let metric = self.metrics().iter().find(|m| m.name == name);
        metric.map(|m| &m.value)
    }

    /// Numeric metric `name` (see [`Value::as_f64`]). Panics if the
    /// result has no such metric or it is text.
    pub fn number(&self, name: &str) -> f64 {
        let number = self.get(name).and_then(Value::as_f64);
        number.unwrap_or_else(|| panic!("no numeric metric {name:?} in {self:?}"))
    }

    /// Metric `name` rendered as in a comparison table. Panics if the
    /// result has no such metric.
    pub fn render(&self, name: &str) -> String {
        let value = self.get(name);
        value
            .unwrap_or_else(|| panic!("no metric {name:?} in {self:?}"))
            .render()
    }
}

/// One input trace plus cached derived data, shared (immutably) by every
/// worker thread of the comparison pipeline. It holds the stores and the
/// values derived from them, never the trace's jobs.
pub struct TraceContext {
    /// Display label (file stem for loaded files).
    label: String,
    /// Where every job is read from, whatever the input's format: one
    /// store for a `.swim` file or an in-memory trace, a catalog's shards
    /// in manifest order.
    stores: Vec<Store>,
    summary: TraceSummary,
    // Full-trace derived statistics shared by several battery entries
    // (fig7+fig8+fig9, fig2–6+fig10+table2): computed once per trace,
    // not once per experiment — on a million-job trace each
    // recomputation is an O(jobs) pass.
    hourly: Cached<Hourly>,
    /// The input, shuffle and output sizes' quantiles at each rank any
    /// cell reads, ascending by rank; none for a trace of no jobs.
    sizes: Cached<Vec<(f64, [f64; 3])>>,
    jobs: Cached<JobFold>,
}

/// A value derived from the stores at most once — or the reason it
/// could not be: a store that opened can still turn out damaged when
/// its chunks are read.
type Cached<T> = OnceLock<Result<T, String>>;

fn cached<T>(cell: &Cached<T>, init: impl FnOnce() -> Result<T, String>) -> Result<&T, String> {
    cell.get_or_init(init).as_ref().map_err(String::clone)
}

/// The hourly plan's result.
#[derive(Debug, PartialEq)]
struct Hourly {
    series: HourlySeries,
    /// How many leading hours hold a job submitted within a week of the
    /// first: the last such hour + 1.
    week_hours: usize,
    /// The first submit, and the span from it to the last.
    submits: (Timestamp, Dur),
}

/// What the one ordered pass over every job keeps for the path, name and
/// job-type cells.
struct JobFold {
    /// File access statistics, input stage then output stage.
    access: [FileAccessStats; 2],
    locality: LocalityStats,
    names: NameAnalysis,
    /// Each job's k-means feature vector, in trace order.
    points: Vec<[f64; 6]>,
}

impl TraceContext {
    fn new(label: String, stores: Vec<Store>, summary: TraceSummary) -> TraceContext {
        TraceContext {
            label,
            stores,
            summary,
            hourly: OnceLock::new(),
            sizes: OnceLock::new(),
            jobs: OnceLock::new(),
        }
    }

    /// Wrap an in-memory trace: encoded once into an in-memory store, so
    /// it is read the way every other input is.
    pub fn from_trace(label: impl Into<String>, trace: Trace) -> TraceContext {
        let bytes = swim_store::store_to_vec(&trace, &StoreOptions::default());
        let store = Store::from_vec(bytes).expect("a store this build just wrote opens");
        TraceContext::new(label.into(), vec![store], trace.summary())
    }

    /// Wrap an opened store. Its Table-1 row is recomputed from the
    /// numeric columns by a query plan, `count, sum(total_io),
    /// min(submit), max(submit)`, not copied from the footer, so a
    /// damaged numeric block fails here rather than in a battery cell;
    /// kind and machines come from the header. Names and paths are not
    /// read until an experiment passes over the jobs.
    pub fn from_store(label: impl Into<String>, store: Store) -> Result<TraceContext, StoreError> {
        let query = Query::new()
            .select(Aggregate::Count)
            .select(Aggregate::Sum(Expr::total_io()))
            .select(Aggregate::Min(Expr::col(Col::Submit)))
            .select(Aggregate::Max(Expr::col(Col::Submit)));
        let out = swim_query::execute_serial(&store, &query).map_err(store_error)?;
        // No jobs: the extrema are null, and so zero, as the length is.
        let [jobs, bytes, min, max] = ints(&out.rows[0]);
        let summary = TraceSummary {
            workload: store.kind().label().to_owned(),
            machines: store.machines(),
            length: Timestamp::from_secs(max).since(Timestamp::from_secs(min)),
            jobs: jobs as usize,
            bytes_moved: DataSize::from_bytes(bytes),
        };
        Ok(TraceContext::new(label.into(), vec![store], summary))
    }

    /// Load a trace file or catalog directory. Directories open as
    /// `swim-catalog` datasets: the summary comes from the manifest and
    /// each shard's header and footer are read (a shard that does not
    /// open is an error here). `.swim`/`.store` files open through
    /// [`TraceContext::from_store`]; anything else is read by
    /// [`swim_trace::io::read_file`] (`.csv` labelled by file stem and
    /// sized by `csv_machines`, or JSON-lines).
    pub fn load(path: impl AsRef<Path>, csv_machines: u32) -> Result<TraceContext, String> {
        let path = path.as_ref();
        let label = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        let at = |what: &str, e: &dyn std::fmt::Display| format!("{what} {}: {e}", path.display());
        if path.is_dir() {
            let catalog = swim_catalog::Catalog::open(path).map_err(|e| e.to_string())?;
            let stores = catalog.open_shards().map_err(|e| e.to_string())?;
            return Ok(TraceContext::new(label, stores, catalog.summary()));
        }
        if matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("swim" | "store")
        ) {
            let store = Store::open(path).map_err(|e| at("open", &e))?;
            return TraceContext::from_store(label, store).map_err(|e| at("scan", &e));
        }
        let file = std::fs::File::open(path).map_err(|e| at("open", &e))?;
        let trace =
            swim_trace::io::read_file(path, csv_machines, file).map_err(|e| at("parse", &e))?;
        Ok(TraceContext::from_trace(label, trace))
    }

    /// Display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The Table-1 row: from the trace in hand, from a plan over the
    /// columns for a store, from the manifest for a catalog.
    pub fn summary(&self) -> &TraceSummary {
        &self.summary
    }

    /// The stores every job is read from, in order.
    pub fn stores(&self) -> &[Store] {
        &self.stores
    }

    /// The trace's kind and machine count, by the catalog's one rule
    /// ([`swim_catalog::kind_and_machines`]).
    pub(crate) fn identity(&self) -> (WorkloadKind, u32) {
        swim_catalog::kind_and_machines(&self.stores)
    }

    /// Every job, in `(submit, id)` order, ties in store order: the
    /// stores' chunks decoded one at a time and merged
    /// ([`swim_catalog::merge_stores`]). An error, if a store behind it
    /// does not decode, ends the stream.
    pub(crate) fn jobs(&self) -> impl Iterator<Item = Result<Job, String>> + '_ {
        self.jobs_with_text(|_| true)
    }

    /// [`TraceContext::jobs`], with names and paths only from the chunks
    /// `text` accepts ([`swim_catalog::merge_stores_with_text`]).
    pub(crate) fn jobs_with_text<'a>(
        &'a self,
        text: impl Fn(&ChunkMeta) -> bool + 'a,
    ) -> impl Iterator<Item = Result<Job, String>> + 'a {
        let jobs = swim_catalog::merge_stores_with_text(&self.stores, text);
        jobs.map(|job| job.map_err(|(_, e)| self.unreadable(e)))
    }

    /// The jobs submitted within a week of the first, as a trace (fig7's
    /// replay); the pass stops at the first job past the week.
    pub(crate) fn first_week(&self) -> Result<Trace, String> {
        let (kind, machines) = self.identity();
        let mut week = Vec::new();
        let mut end = None;
        for job in self.jobs() {
            let job = job?;
            if job.submit >= *end.get_or_insert(job.submit + Dur::from_secs(WEEK)) {
                break;
            }
            week.push(job);
        }
        Ok(Trace::new_unchecked(kind, machines, week))
    }

    fn unreadable(&self, e: impl std::fmt::Display) -> String {
        format!("read {}: {e}", self.label)
    }

    /// Run `query` over the stores in order, on the calling thread: the
    /// battery already fans its cells out across workers. Names and paths
    /// are never decoded.
    fn run(&self, query: &Query) -> Result<Vec<Row>, String> {
        let out = swim_query::execute_stores_serial(&self.stores, query);
        out.map(|out| out.rows)
            .map_err(|e| self.unreadable(store_error(e)))
    }

    /// Whole-trace hourly series (fig7's week, fig8's burstiness signal
    /// and fig9's correlations), computed once by one plan over the
    /// submit, size and task-time columns. Its exact integer hour sums
    /// are what `HourlySeries::of`'s `f64` sums come to while they stay
    /// below 2^53, whatever order the jobs arrive in.
    pub fn hourly(&self) -> Result<&HourlySeries, String> {
        self.hourly_plan().map(|hourly| &hourly.series)
    }

    /// The first submit, and the span from it to the last, from the same
    /// plan as [`TraceContext::hourly`].
    pub(crate) fn submits(&self) -> Result<(Timestamp, Dur), String> {
        self.hourly_plan().map(|hourly| hourly.submits)
    }

    fn hourly_plan(&self) -> Result<&Hourly, String> {
        cached(&self.hourly, || {
            let query = Query::new()
                .group(Expr::submit_hour())
                .select(Aggregate::Count)
                .select(Aggregate::Sum(Expr::total_io()))
                .select(Aggregate::Sum(Expr::total_task_time()))
                .select(Aggregate::Min(Expr::col(Col::Submit)))
                .select(Aggregate::Max(Expr::col(Col::Submit)));
            // One row per hour that holds a job, ascending by hour.
            let rows = self.run(&query)?;
            let (Some(first), Some(last)) = (rows.first(), rows.last()) else {
                let (series, submits) = (HourlySeries::default(), (Timestamp::ZERO, Dur::ZERO));
                return Ok(Hourly {
                    series,
                    week_hours: 0,
                    submits,
                });
            };
            let first_hour = first.key[0];
            let n = (last.key[0] - first_hour + 1) as usize;
            let [.., start, _] = ints::<5>(first);
            let [.., end] = ints::<5>(last);
            let week_end = start.saturating_add(WEEK);
            let mut series = HourlySeries {
                jobs: vec![0.0; n],
                bytes: vec![0.0; n],
                task_seconds: vec![0.0; n],
            };
            let mut week_hours = 0;
            for row in &rows {
                let h = (row.key[0] - first_hour) as usize;
                let [jobs, bytes, task_seconds, min_submit] = ints(row);
                series.jobs[h] = jobs as f64;
                series.bytes[h] = bytes as f64;
                series.task_seconds[h] = task_seconds as f64;
                if min_submit < week_end {
                    week_hours = h + 1;
                }
            }
            let start = Timestamp::from_secs(start);
            Ok(Hourly {
                series,
                week_hours,
                submits: (start, Timestamp::from_secs(end).since(start)),
            })
        })
    }

    /// The input, shuffle and output sizes' quantiles (nearest rank, as
    /// `Ecdf::quantile`) at every rank a cell reads — fig1's
    /// [`SIZE_PERCENTILES`] and `swim-analyze`'s exported quantiles —
    /// ascending by rank; empty for a trace of no jobs. Computed once, by
    /// one plan over the three I/O columns, and kept as these numbers
    /// alone.
    pub fn sizes(&self) -> Result<&[(f64, [f64; 3])], String> {
        let sizes = cached(&self.sizes, || {
            let percentiles = SIZE_PERCENTILES.map(|p| p as f64 / 100.0);
            let mut ranks: Vec<f64> = EXPORT_QUANTILES.into_iter().chain(percentiles).collect();
            ranks.sort_by(f64::total_cmp);
            ranks.dedup();
            let mut query = Query::new();
            for &p in &ranks {
                for col in [Col::Input, Col::Shuffle, Col::Output] {
                    query = query.select(Aggregate::Percentile(Expr::col(col), p));
                }
            }
            let rows = self.run(&query)?;
            let float = |v: &AggValue| match *v {
                AggValue::Float(x) => Some(x),
                _ => None,
            };
            // A global plan yields one row; its percentiles of no jobs are null.
            let quantiles = (ranks.iter().zip(rows[0].values.chunks_exact(3)))
                .map(|(&p, q)| Some((p, [float(&q[0])?, float(&q[1])?, float(&q[2])?])))
                .collect::<Option<Vec<_>>>();
            Ok(quantiles.unwrap_or_default())
        });
        sizes.map(Vec::as_slice)
    }

    /// The one ordered pass over every job that the path, name and
    /// job-type cells share, made at most once.
    fn job_fold(&self) -> Result<&JobFold, String> {
        cached(&self.jobs, || {
            let mut access = [PathStage::Input, PathStage::Output].map(AccessFold::new);
            let mut locality = LocalityFold::default();
            let mut names = NameFold::default();
            let mut points = Vec::new();
            for job in self.jobs() {
                let job = job?;
                access.iter_mut().for_each(|stage| stage.push(&job));
                locality.push(&job);
                names.push(&job);
                points.push(job.feature_vector());
            }
            Ok(JobFold {
                access: access.map(AccessFold::finish),
                locality: locality.finish(),
                names: names.finish(),
                points,
            })
        })
    }

    /// Re-access locality statistics (fig5, fig6).
    pub fn locality(&self) -> Result<&LocalityStats, String> {
        self.job_fold().map(|fold| &fold.locality)
    }

    /// File access statistics of one stage's paths (fig2, and fig3 for
    /// inputs, fig4 for outputs).
    pub fn access(&self, stage: PathStage) -> Result<&FileAccessStats, String> {
        let fold = self.job_fold()?;
        Ok(match stage {
            PathStage::Input => &fold.access[0],
            PathStage::Output => &fold.access[1],
        })
    }

    /// The job-name analysis (fig10).
    pub(crate) fn names(&self) -> Result<&NameAnalysis, String> {
        self.job_fold().map(|fold| &fold.names)
    }

    /// Every job's k-means feature vector, in trace order (table2).
    pub(crate) fn points(&self) -> Result<&[[f64; 6]], String> {
        self.job_fold().map(|fold| fold.points.as_slice())
    }
}

/// One battery entry: an experiment id, a section title for the
/// comparison report, and the per-trace measurement.
#[derive(Clone, Copy)]
pub struct CompareExperiment {
    /// Experiment id (`table1`, `fig1` … `fig10`, `table2`, `swim`).
    pub id: &'static str,
    /// Comparison-report section title.
    pub title: &'static str,
    /// Run the measurement on one trace; an error if the trace cannot
    /// be read.
    pub run: fn(&TraceContext) -> Result<ExperimentResult, String>,
}

/// The full battery, in paper order (one entry per `swim-repro`
/// experiment id).
pub const BATTERY: [CompareExperiment; 13] = [
    CompareExperiment {
        id: "table1",
        title: "Table 1: Trace summaries",
        run: table1,
    },
    CompareExperiment {
        id: "fig1",
        title: "Figure 1: Per-job data size distributions",
        run: fig1,
    },
    CompareExperiment {
        id: "fig2",
        title: "Figure 2: Zipf-like file access skew",
        run: fig2,
    },
    CompareExperiment {
        id: "fig3",
        title: "Figure 3: Access patterns vs input file size",
        run: fig3,
    },
    CompareExperiment {
        id: "fig4",
        title: "Figure 4: Access patterns vs output file size",
        run: fig4,
    },
    CompareExperiment {
        id: "fig5",
        title: "Figure 5: Data re-access intervals",
        run: fig5,
    },
    CompareExperiment {
        id: "fig6",
        title: "Figure 6: Jobs reading pre-existing data",
        run: fig6,
    },
    CompareExperiment {
        id: "fig7",
        title: "Figure 7: Weekly behaviour (first-week hourly series)",
        run: fig7,
    },
    CompareExperiment {
        id: "fig8",
        title: "Figure 8: Burstiness",
        run: fig8,
    },
    CompareExperiment {
        id: "fig9",
        title: "Figure 9: Correlations between hourly series",
        run: fig9,
    },
    CompareExperiment {
        id: "fig10",
        title: "Figure 10: Job names and frameworks",
        run: fig10,
    },
    CompareExperiment {
        id: "table2",
        title: "Table 2: Job types via k-means",
        run: table2,
    },
    CompareExperiment {
        id: "swim",
        title: "SWIM: synthesize one day and replay at 20 nodes",
        run: swim,
    },
];

/// The input, shuffle and output quantile at rank `p` of
/// [`TraceContext::sizes`]. Panics if `p` is not one of its ranks.
pub(crate) fn size_quantile(sizes: &[(f64, [f64; 3])], p: f64) -> [f64; 3] {
    let (_, quantiles) = sizes
        .iter()
        .find(|(rank, _)| *rank == p)
        .expect("a planned rank");
    *quantiles
}

/// A plan's error as the store error behind it. The report's plans are
/// valid and read stores alone, so a store is all that can fail; the
/// fallback keeps any other failure's message.
fn store_error(e: QueryError) -> StoreError {
    match e {
        QueryError::Store(e) => e,
        other => StoreError::Io(std::io::Error::other(other.to_string())),
    }
}

/// A row's first `N` aggregates as integers; a null (the extremum of no
/// jobs) as 0.
fn ints<const N: usize>(row: &Row) -> [u64; N] {
    std::array::from_fn(|i| match row.values[i] {
        AggValue::Int(v) => v,
        _ => 0,
    })
}

/// The battery entry with experiment id `id`.
pub fn experiment(id: &str) -> Option<CompareExperiment> {
    BATTERY.iter().find(|e| e.id == id).copied()
}

fn table1(ctx: &TraceContext) -> Result<ExperimentResult, String> {
    let s = ctx.summary();
    Ok(ExperimentResult::Metrics(vec![
        Metric::new("workload", Value::Text(s.workload.clone())),
        Metric::new("machines", Value::Count(s.machines as u64)),
        Metric::new("length", Value::Span(s.length)),
        Metric::new("jobs", Value::Count(s.jobs as u64)),
        Metric::new("bytes moved", Value::Bytes(s.bytes_moved.as_f64())),
    ]))
}

fn fig1(ctx: &TraceContext) -> Result<ExperimentResult, String> {
    let sizes = ctx.sizes()?;
    if sizes.is_empty() {
        return Ok(ExperimentResult::Skipped("trace has no jobs"));
    }
    let mut metrics = Vec::new();
    for (s, stage) in SIZE_STAGES.iter().enumerate() {
        for p in SIZE_PERCENTILES {
            let value = Value::Bytes(size_quantile(sizes, p as f64 / 100.0)[s]);
            metrics.push(Metric::new(format!("{stage} p{p}"), value));
        }
    }
    Ok(ExperimentResult::Metrics(metrics))
}

fn fig2(ctx: &TraceContext) -> Result<ExperimentResult, String> {
    let mut metrics = Vec::new();
    for (stage, prefix) in ZIPF_STAGES {
        let stats = ctx.access(stage)?;
        if let Some(fit) = stats.zipf_fit(Some(ZIPF_FIT_RANKS)) {
            let stage_metrics = [
                (
                    "distinct files",
                    Value::Count(stats.distinct_files() as u64),
                ),
                ("accesses", Value::Count(stats.total_accesses())),
                ("zipf slope", Value::Number(fit.slope)),
                ("fit R²", Value::Number(fit.r_squared)),
            ];
            let named = |(name, value)| Metric::new(format!("{prefix}{name}"), value);
            metrics.extend(stage_metrics.map(named));
        }
    }
    if metrics.is_empty() {
        return Ok(ExperimentResult::Skipped("no input path information"));
    }
    Ok(ExperimentResult::Metrics(metrics))
}

fn size_thresholds(ctx: &TraceContext, stage: PathStage) -> Result<ExperimentResult, String> {
    let stats = ctx.access(stage)?;
    if stats.distinct_files() == 0 {
        return Ok(ExperimentResult::Skipped(match stage {
            PathStage::Input => "no input path information",
            PathStage::Output => "no output path information",
        }));
    }
    let mut metrics = Vec::new();
    for gb in SIZE_THRESHOLDS_GB {
        let size = DataSize::from_gb(gb);
        let jobs = Value::Fraction(stats.access_fraction_below(size));
        metrics.push(Metric::new(format!("jobs < {gb} GB"), jobs));
        let bytes = Value::Fraction(stats.bytes_fraction_below(size));
        metrics.push(Metric::new(format!("bytes < {gb} GB"), bytes));
    }
    let x = stats.eighty_x_rule(0.8).unwrap_or(f64::NAN);
    metrics.push(Metric::new("80-X rule", Value::Number(x)));
    Ok(ExperimentResult::Metrics(metrics))
}

fn fig3(ctx: &TraceContext) -> Result<ExperimentResult, String> {
    size_thresholds(ctx, PathStage::Input)
}

fn fig4(ctx: &TraceContext) -> Result<ExperimentResult, String> {
    size_thresholds(ctx, PathStage::Output)
}

fn fig5(ctx: &TraceContext) -> Result<ExperimentResult, String> {
    let loc = ctx.locality()?;
    let panels = [&loc.input_input_intervals, &loc.output_input_intervals];
    let n: usize = panels.iter().map(|intervals| intervals.len()).sum();
    if n == 0 {
        return Ok(ExperimentResult::Skipped("no re-accesses observable"));
    }
    let window = LOCALITY_WINDOW_SECS as f64;
    let mut metrics = vec![
        Metric::new("re-accesses", Value::Count(n as u64)),
        Metric::new("within 1 hr", Value::Fraction(loc.fraction_within(3_600.0))),
        Metric::new("within 6 hrs", Value::Fraction(loc.fraction_within(window))),
    ];
    for (panel, intervals) in REACCESS_PANELS.into_iter().zip(panels) {
        let count = Value::Count(intervals.len() as u64);
        metrics.push(Metric::new(format!("{panel} re-accesses"), count));
        for (secs, column) in REACCESS_THRESHOLDS {
            let within = intervals.iter().filter(|&&x| x <= secs as f64).count();
            // An empty panel's fractions are NaN: not measurable.
            let fraction = Value::Fraction(within as f64 / intervals.len() as f64);
            metrics.push(Metric::new(format!("{panel} ≤{column}"), fraction));
        }
    }
    Ok(ExperimentResult::Metrics(metrics))
}

fn fig6(ctx: &TraceContext) -> Result<ExperimentResult, String> {
    let loc = ctx.locality()?;
    if loc.frac_jobs_reaccessing() == 0.0 {
        return Ok(ExperimentResult::Skipped("no re-accesses observable"));
    }
    Ok(ExperimentResult::Metrics(vec![
        Metric::new(
            "re-reads pre-existing input",
            Value::Fraction(loc.frac_jobs_reread_input),
        ),
        Metric::new(
            "consumes pre-existing output",
            Value::Fraction(loc.frac_jobs_consume_output),
        ),
        Metric::new(
            "total re-accessing",
            Value::Fraction(loc.frac_jobs_reaccessing()),
        ),
    ]))
}

fn fig7(ctx: &TraceContext) -> Result<ExperimentResult, String> {
    let hourly = ctx.hourly_plan()?;
    let series = hourly.series.truncate(hourly.week_hours.min(24 * 7));
    if series.is_empty() {
        return Ok(ExperimentResult::Skipped("trace has no jobs"));
    }
    let diurnal = detect_diurnal(&series.jobs, DIURNAL_MIN_SNR);
    Ok(ExperimentResult::Series {
        metrics: vec![
            Metric::new(
                "diurnal snr",
                Value::Number(diurnal.as_ref().map(|d| d.snr).unwrap_or(f64::NAN)),
            ),
            Metric::new(
                "daily cycle",
                Value::Text(match &diurnal {
                    Some(d) if d.detected => "detected".to_owned(),
                    Some(_) => "no clear cycle".to_owned(),
                    None => "series too short".to_owned(),
                }),
            ),
        ],
        series: vec![
            Series {
                name: "jobs/hr",
                values: series.jobs,
            },
            Series {
                name: "io/hr",
                values: series.bytes,
            },
            Series {
                name: "task-t/hr",
                values: series.task_seconds,
            },
        ],
    })
}

fn fig8(ctx: &TraceContext) -> Result<ExperimentResult, String> {
    let series = ctx.hourly()?;
    let mut metrics = Vec::new();
    let signals = [&series.task_seconds, &series.jobs];
    for (name, signal) in BURSTINESS_SIGNALS.into_iter().zip(signals) {
        if let Some(b) = Burstiness::of(signal, &BURSTINESS_PERCENTILES) {
            for p in &b.points {
                let column = format!("{name} p{}", p.percentile);
                metrics.push(Metric::new(column, Value::Number(p.ratio)));
            }
            let peak = Value::Ratio(b.peak_to_median);
            metrics.push(Metric::new(format!("{name} peak:median"), peak));
        }
    }
    if metrics.is_empty() {
        return Ok(ExperimentResult::Skipped(
            "hourly signal is empty or all-zero",
        ));
    }
    Ok(ExperimentResult::Metrics(metrics))
}

fn fig9(ctx: &TraceContext) -> Result<ExperimentResult, String> {
    let series = ctx.hourly()?;
    if series.is_empty() {
        return Ok(ExperimentResult::Skipped("trace has no jobs"));
    }
    let c = series.correlations();
    Ok(ExperimentResult::Metrics(vec![
        Metric::new("jobs-bytes", Value::Number(c.jobs_bytes)),
        Metric::new("jobs-task-secs", Value::Number(c.jobs_task_seconds)),
        Metric::new("bytes-task-secs", Value::Number(c.bytes_task_seconds)),
    ]))
}

fn fig10(ctx: &TraceContext) -> Result<ExperimentResult, String> {
    let analysis = ctx.names()?;
    if !analysis.has_names() {
        return Ok(ExperimentResult::Skipped("trace carries no job names"));
    }
    let top = analysis
        .sorted_by(Weighting::Jobs)
        .into_iter()
        .next()
        .expect("has_names implies at least one group");
    let shares = analysis.framework_shares();
    let top2: f64 = shares.iter().take(2).map(|s| s.jobs).sum();
    let mut metrics = vec![
        Metric::new("top word", Value::Text(top.word.clone())),
        Metric::new(
            "top word share",
            Value::Fraction(top.jobs as f64 / analysis.total_jobs.max(1) as f64),
        ),
        Metric::new(
            "top-5 words cover",
            Value::Fraction(analysis.top_k_job_share(TOP_WORDS)),
        ),
        Metric::new("top-2 frameworks", Value::Fraction(top2)),
    ];
    // Each weighting's top words, as `word share` items.
    for (weighting, column) in TOP_WORDS_COLUMNS {
        let weight = |jobs: u64, bytes: f64, task_seconds: f64| match weighting {
            Weighting::Jobs => jobs as f64,
            Weighting::Bytes => bytes,
            Weighting::TaskTime => task_seconds,
        };
        let a = analysis;
        let total = weight(a.total_jobs, a.total_bytes, a.total_task_seconds).max(1.0);
        let groups = analysis.sorted_by(weighting);
        let words = groups.iter().take(TOP_WORDS).map(|g| {
            let share = weight(g.jobs, g.bytes, g.task_seconds) / total;
            format!("{} {}", g.word, pct(share))
        });
        let words = Value::Text(words.collect::<Vec<_>>().join(", "));
        metrics.push(Metric::new(column, words));
    }
    let frameworks = shares
        .iter()
        .map(|s| format!("{} {}", s.framework, pct(s.jobs)));
    let frameworks = Value::Text(frameworks.collect::<Vec<_>>().join(", "));
    metrics.push(Metric::new("frameworks", frameworks));
    Ok(ExperimentResult::Metrics(metrics))
}

fn table2(ctx: &TraceContext) -> Result<ExperimentResult, String> {
    let points = ctx.points()?;
    if points.len() < 10 {
        return Ok(ExperimentResult::Skipped("too few jobs to cluster"));
    }
    let model = KMeans::fit_with_elbow(points, ELBOW_MAX_K, ELBOW_THRESHOLD);
    let total: u64 = model.clusters.iter().map(|c| c.count).sum();
    let dominant = &model.clusters[0];
    Ok(ExperimentResult::Metrics(vec![
        Metric::new("job types (elbow k)", Value::Count(model.k as u64)),
        Metric::new(
            "dominant share",
            Value::Fraction(dominant.count as f64 / total.max(1) as f64),
        ),
        Metric::new("dominant label", Value::Text(dominant.label.clone())),
        Metric::new("dominant input", Value::Bytes(dominant.input.as_f64())),
    ]))
}

fn swim(ctx: &TraceContext) -> Result<ExperimentResult, String> {
    if ctx.summary().jobs < 24 {
        return Ok(ExperimentResult::Skipped(
            "too few jobs to sample a synthetic day",
        ));
    }
    let Some(bundle) = synthesize_bundle(ctx, SWIM_TARGET_NODES, SWIM_SAMPLE_SEED)? else {
        return Ok(ExperimentResult::Skipped("sampled day is empty"));
    };
    let (plan, datagen, ks) = (&bundle.replay, &bundle.datagen, &bundle.validation);
    let result = Simulator::new(SimConfig::new(SWIM_TARGET_NODES)).run(plan);
    let mut metrics = vec![
        Metric::new("sampled jobs", Value::Count(plan.len() as u64)),
        Metric::new("sampled span", Value::Span(bundle.sampled_span)),
    ];
    for (dimension, d) in KS_DIMENSIONS.into_iter().zip(ks.distances()) {
        metrics.push(Metric::new(format!("{dimension} KS"), Value::Number(d)));
    }
    metrics.extend([
        Metric::new("worst KS", Value::Number(ks.worst())),
        Metric::new("bytes to move", Value::Bytes(plan.total_bytes().as_f64())),
        Metric::new("datagen files", Value::Count(datagen.file_count() as u64)),
        Metric::new(
            "datagen bytes",
            Value::Bytes(datagen.total_bytes().as_f64()),
        ),
        Metric::new("datagen blocks", Value::Count(datagen.total_blocks())),
        Metric::new("schedule length", Value::Span(plan.schedule_length())),
        Metric::new("makespan", Value::Text(result.makespan.to_string())),
        Metric::new("median latency", Value::Seconds(result.median_latency())),
        Metric::new(
            "mean queue delay",
            Value::Seconds(result.mean_queue_delay()),
        ),
    ]);
    Ok(ExperimentResult::Metrics(metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use swim_trace::trace::WorkloadKind;
    use swim_trace::JobBuilder;
    use swim_workloadgen::{GeneratorConfig, WorkloadGenerator};

    fn sample_trace() -> Trace {
        // Three days, not two: fig7's diurnal detection needs >= 48
        // hourly bins, and a 2-day trace's submit *span* can fall just
        // short of that (the NaN snr it then reports is not
        // PartialEq-comparable across contexts).
        WorkloadGenerator::new(
            GeneratorConfig::new(WorkloadKind::CcE)
                .scale(0.3)
                .days(3.0)
                .seed(9),
        )
        .generate()
    }

    #[test]
    fn battery_ids_match_paper_order() {
        let ids: Vec<&str> = BATTERY.iter().map(|e| e.id).collect();
        assert_eq!(
            ids,
            [
                "table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
                "fig10", "table2", "swim"
            ]
        );
    }

    #[test]
    fn battery_runs_on_an_in_memory_trace() {
        let ctx = TraceContext::from_trace("cc-e", sample_trace());
        for exp in &BATTERY {
            let result = (exp.run)(&ctx).unwrap();
            match &result {
                ExperimentResult::Skipped(reason) => {
                    panic!("{} skipped a path-bearing named trace: {reason}", exp.id)
                }
                other => assert!(
                    !other.metrics().is_empty() || !other.series().is_empty(),
                    "{} produced nothing",
                    exp.id
                ),
            }
        }
    }

    #[test]
    fn store_context_matches_memory_context() {
        let trace = sample_trace();
        let dir = std::env::temp_dir().join(format!("swim-report-ctx-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cc-e.swim");
        swim_store::write_store_path(&trace, &path, &swim_store::StoreOptions::default()).unwrap();

        let mem = TraceContext::from_trace("cc-e", trace.clone());
        let store = TraceContext::load(&path, 100).unwrap();
        assert_eq!(store.label(), "cc-e");
        assert_eq!(store.summary(), &trace.summary(), "column plan path");
        // The hourly fold over the file's columns ≡ the in-memory trace's.
        assert_eq!(store.hourly(), Ok(&HourlySeries::of(&trace)));
        assert_eq!(store.hourly_plan(), mem.hourly_plan());
        assert_eq!(store.submits(), Ok((trace.start().unwrap(), trace.span())));
        // Every battery entry must agree bit-for-bit across sources.
        for exp in &BATTERY {
            assert_eq!((exp.run)(&store), (exp.run)(&mem), "{}", exp.id);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A catalog of `trace` in shards of about a third of it, ingested
    /// as `parts` in turn.
    fn catalog_of(dir: &Path, trace: &Trace, parts: &[Trace]) {
        let _ = std::fs::remove_dir_all(dir);
        let mut catalog = swim_catalog::Catalog::init(dir).unwrap();
        let options = swim_catalog::CatalogOptions {
            jobs_per_shard: (trace.len() as u32 / 3).max(1),
            ..Default::default()
        };
        for part in parts {
            catalog.ingest_trace(part, &options).unwrap();
        }
        assert!(catalog.shard_count() >= 3, "want a multi-shard catalog");
    }

    /// Every battery entry, and the hourly plan under it, agree bit for
    /// bit between the catalog in `dir` and the in-memory `trace`.
    fn assert_catalog_matches_memory(dir: &Path, trace: &Trace) {
        let mem = TraceContext::from_trace("cc-e", trace.clone());
        let cat = TraceContext::load(dir, 100).unwrap();
        // O(manifest) summary equals the in-memory Table-1 row.
        assert_eq!(cat.summary(), &trace.summary(), "manifest summary path");
        // The hourly fold over the shards' columns ≡ the in-memory trace's.
        assert_eq!(cat.hourly(), Ok(&HourlySeries::of(trace)));
        assert_eq!(cat.hourly_plan(), mem.hourly_plan());
        assert_eq!(cat.first_week(), Ok(trace.first_week()));
        for exp in &BATTERY {
            assert_eq!((exp.run)(&cat), (exp.run)(&mem), "{}", exp.id);
        }
    }

    #[test]
    fn catalog_context_matches_memory_context() {
        let trace = sample_trace();
        let dir = std::env::temp_dir().join(format!("swim-report-cat-{}", std::process::id()));
        // Several small shards, so the battery runs truly federated.
        catalog_of(&dir, &trace, std::slice::from_ref(&trace));
        assert_catalog_matches_memory(&dir, &trace);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_catalog_of_interleaved_ingests_matches_memory_context() {
        // The even jobs, then the odd ones: every shard of the second
        // ingest overlaps shards of the first in time, so each pass over
        // the jobs must merge the shards, not read them one after another.
        let trace = sample_trace();
        let (even, odd): (Vec<Job>, Vec<Job>) =
            (trace.jobs().iter().cloned()).partition(|job| job.id.0 % 2 == 0);
        let parts = [even, odd].map(|jobs| Trace::new(trace.kind.clone(), trace.machines, jobs));
        let parts = parts.map(Result::unwrap);
        let dir = std::env::temp_dir().join(format!("swim-report-inter-{}", std::process::id()));
        catalog_of(&dir, &trace, &parts);
        let windows = |shard: &swim_catalog::ShardEntry| shard.submit_window();
        let catalog = swim_catalog::Catalog::open(&dir).unwrap();
        let shards: Vec<_> = catalog.shards().iter().map(windows).collect();
        let overlap = |(a, b): &(u64, u64), (c, d): &(u64, u64)| a < d && c < b;
        let crossed = shards.iter().enumerate().any(|(i, x)| {
            let later = &shards[i + 1..];
            later.iter().any(|y| overlap(x, y))
        });
        assert!(crossed, "want shards whose windows overlap: {shards:?}");
        assert_catalog_matches_memory(&dir, &trace);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_empty_input_skips_every_cell_but_table1_alike() {
        let dir = std::env::temp_dir().join(format!("swim-report-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let empty = Trace::new(WorkloadKind::CcE, 100, Vec::new()).unwrap();
        let path = dir.join("empty.swim");
        swim_store::write_store_path(&empty, &path, &StoreOptions::default()).unwrap();
        let catalog = dir.join("empty.d");
        swim_catalog::Catalog::init(&catalog).unwrap();

        let contexts = [
            TraceContext::from_trace("empty", empty),
            TraceContext::load(&path, 100).unwrap(),
            TraceContext::load(&catalog, 100).unwrap(),
        ];
        // The store's Table-1 row, from a plan over no jobs, is the trace's.
        assert_eq!(contexts[1].summary(), contexts[0].summary());
        for exp in BATTERY.iter().filter(|e| e.id != "table1") {
            let results: Vec<_> = contexts.iter().map(|ctx| (exp.run)(ctx)).collect();
            assert!(
                matches!(results[0], Ok(ExperimentResult::Skipped(_))),
                "{}: {results:?}",
                exp.id
            );
            assert!(
                results.iter().all(|r| r == &results[0]),
                "{}: {results:?}",
                exp.id
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_catalog_of_two_kinds_reads_as_catalog_read_trace_does() {
        let dir = std::env::temp_dir().join(format!("swim-report-mixed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cc_e = sample_trace();
        let cc_b = WorkloadGenerator::new(
            GeneratorConfig::new(WorkloadKind::CcB)
                .scale(0.2)
                .days(2.0)
                .seed(4),
        )
        .generate();
        assert_ne!(cc_e.machines, cc_b.machines);
        // Both start on day 0: the two ingests' submit windows overlap.
        assert!(cc_b.start() < cc_e.end() && cc_e.start() < cc_b.end());
        let mut catalog = swim_catalog::Catalog::init(&dir).unwrap();
        for trace in [&cc_e, &cc_b] {
            let options = swim_catalog::CatalogOptions {
                jobs_per_shard: (trace.len() as u32 / 2).max(1),
                ..Default::default()
            };
            catalog.ingest_trace(trace, &options).unwrap();
        }
        assert!(catalog.shard_count() >= 3, "want a multi-shard catalog");

        let ctx = TraceContext::load(&dir, 100).unwrap();
        let trace = swim_catalog::read_stores(&catalog.open_shards().unwrap(), |_, e| e).unwrap();
        let jobs: Result<Vec<Job>, String> = ctx.jobs().collect();
        assert_eq!(jobs.unwrap(), trace.jobs());
        assert_eq!(ctx.identity(), (trace.kind.clone(), trace.machines));
        assert_eq!(trace.kind, WorkloadKind::Custom("mixed".into()));
        assert_eq!(trace.machines, cc_e.machines.max(cc_b.machines));
        assert_eq!(trace.len(), cc_e.len() + cc_b.len());
        // The shards' windows overlap, so the fold visits jobs out of
        // trace order: its integer hour sums are exact all the same.
        assert_eq!(ctx.hourly(), Ok(&HourlySeries::of(&trace)));
        assert_eq!(fig7_series(&ctx), HourlySeries::of(&trace.first_week()));
        assert_eq!(ctx.first_week(), Ok(trace.first_week()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// fig7's series, as an [`HourlySeries`].
    fn fig7_series(ctx: &TraceContext) -> HourlySeries {
        let result = fig7(ctx).unwrap();
        let [jobs, bytes, task_seconds] = [0, 1, 2].map(|i| result.series()[i].values.clone());
        HourlySeries {
            jobs,
            bytes,
            task_seconds,
        }
    }

    #[test]
    fn fig7_ends_with_the_last_hour_that_holds_a_first_week_job() {
        // Jobs in hours 0–160, then from hour 200: the week has 161 hours,
        // not the 168 a plain truncation of the whole series would give.
        let hours = (0..=160u64).chain(200..260);
        let jobs = hours
            .enumerate()
            .map(|(id, hour)| {
                JobBuilder::new(id as u64)
                    .submit(Timestamp::from_secs(hour * 3_600 + 60))
                    .input(DataSize::from_mb(1 + hour))
                    .map_task_time(Dur::from_secs(30))
                    .tasks(1, 0)
                    .build()
                    .unwrap()
            })
            .collect();
        let trace = Trace::new(WorkloadKind::Custom("gap".into()), 10, jobs).unwrap();
        let ctx = TraceContext::from_trace("gap", trace.clone());
        assert_eq!(ctx.hourly().unwrap().len(), 260);
        let week = fig7_series(&ctx);
        assert_eq!(week.len(), 161);
        assert_eq!(week, HourlySeries::of(&trace.first_week()));
    }

    #[test]
    fn a_forged_footer_window_changes_no_hourly_bin() {
        use swim_store::format::{self, Footer, Header};
        // Re-seal the footer over a summary whose submit window ends at
        // its first job: the series is indexed from the data, so nothing
        // in it moves.
        let trace = sample_trace();
        let image = swim_store::store_to_vec(&trace, &StoreOptions::default());
        let header = &image[..Header::decode(&image).unwrap().encode().len()];
        let tail = image.len() - format::CHECKSUM_LEN - format::TRAILER_LEN;
        let at = format::decode_trailer(&image[tail + format::CHECKSUM_LEN..]).unwrap();
        let mut footer = Footer::decode(&image[at as usize..tail]).unwrap();
        footer.summary.max_submit = footer.summary.min_submit;
        let footer = footer.encode();
        let seal = format::encode_tail(header, &footer, at);
        let forged = [&image[..at as usize], &footer, &seal].concat();
        let ctx = TraceContext::from_store("forged", Store::from_vec(forged).unwrap()).unwrap();
        assert_eq!(ctx.hourly(), Ok(&HourlySeries::of(&trace)));
    }

    #[test]
    fn numeric_cells_never_materialize_the_trace() {
        let trace = sample_trace();
        let dir = std::env::temp_dir().join(format!("swim-report-numeric-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cc-e.swim");
        swim_store::write_store_path(&trace, &path, &StoreOptions::default()).unwrap();
        let catalog = dir.join("cc-e.d");
        let options = swim_catalog::CatalogOptions {
            jobs_per_shard: (trace.len() as u32 / 3).max(1),
            ..Default::default()
        };
        let mut cat = swim_catalog::Catalog::init(&catalog).unwrap();
        cat.ingest_trace(&trace, &options).unwrap();
        drop(cat);

        for input in [&path, &catalog] {
            let ctx = TraceContext::load(input, 100).unwrap();
            for id in ["table1", "fig1", "fig7", "fig8", "fig9"] {
                let result = (experiment(id).unwrap().run)(&ctx).unwrap();
                assert!(!result.is_skipped(), "{id} on {}", input.display());
            }
            // No pass over the jobs: no name or path was decoded.
            assert!(ctx.jobs.get().is_none(), "{}", input.display());
            assert!((experiment("fig2").unwrap().run)(&ctx).is_ok());
            assert!(ctx.jobs.get().is_some(), "{}", input.display());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn value_rendering_covers_all_variants() {
        assert_eq!(Value::Count(42).render(), "42");
        assert_eq!(Value::Bytes(1.2e12).render(), "1.20 TB");
        assert_eq!(Value::Seconds(61.4).render(), "61 s");
        assert_eq!(Value::Fraction(0.805).render(), "80%");
        assert_eq!(Value::Ratio(31.2).render(), "31:1");
        assert_eq!(Value::Number(0.527).render(), "0.53");
        assert_eq!(Value::Text("x".into()).render(), "x");
        assert_eq!(Value::Number(f64::NAN).render(), "-");
        assert_eq!(Value::Bytes(f64::INFINITY).render(), "-");
    }

    #[test]
    fn pathless_nameless_trace_skips_path_and_name_experiments() {
        let jobs = (0..200u64)
            .map(|i| {
                JobBuilder::new(i)
                    .submit(Timestamp::from_secs(i * 120))
                    .duration(Dur::from_secs(60))
                    .input(DataSize::from_mb(64 + i))
                    .map_task_time(Dur::from_secs(100))
                    .tasks(2, 0)
                    .build()
                    .unwrap()
            })
            .collect();
        let trace = Trace::new(WorkloadKind::Custom("bare".into()), 10, jobs).unwrap();
        let ctx = TraceContext::from_trace("bare", trace);
        for id in ["fig2", "fig3", "fig4", "fig5", "fig6", "fig10"] {
            let exp = BATTERY.iter().find(|e| e.id == id).unwrap();
            assert!(
                matches!((exp.run)(&ctx), Ok(ExperimentResult::Skipped(_))),
                "{id} should skip a pathless/nameless trace"
            );
        }
        // The data-only experiments still run.
        for id in ["table1", "fig1", "fig7", "fig8", "fig9", "table2"] {
            let exp = BATTERY.iter().find(|e| e.id == id).unwrap();
            assert!(
                !matches!((exp.run)(&ctx), Ok(ExperimentResult::Skipped(_))),
                "{id} should run on a pathless trace"
            );
        }
    }
}
