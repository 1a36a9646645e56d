//! # swim-report
//!
//! The reporting layer of the `swim` workspace: a typed document model,
//! three renderers, and the parallel cross-trace comparison pipeline that
//! is the paper's actual deliverable — the same analysis battery run over
//! N workloads side by side (the VLDB'12 study is a *cross-industry
//! comparison*, not any single figure).
//!
//! Three layers:
//!
//! 1. **Document model** ([`doc`]) — [`Report`] → [`Section`] →
//!    [`Block`]`::{Table, Sparkline, Prose, KeyValue}`. Experiments build
//!    block trees instead of pushing strings.
//! 2. **Renderers** — [`Section::render_text`] reproduces the historical
//!    terminal format byte for byte (golden-pinned by `tests/golden.rs`);
//!    [`markdown`] and [`html`] render the same tree for documents.
//! 3. **Comparison pipeline** ([`battery`], [`compare`]) — load N traces
//!    (CSV, JSON-lines, or `swim-store`), run every figure/table
//!    experiment per trace in parallel (workers claim trace × experiment
//!    cells from a shared counter, so results are deterministic and
//!    bit-identical to serial runs), and emit one trace×metric comparison
//!    table per experiment with per-trace sparklines.
//!
//! Beside the battery, the crate holds the paper's own deliverables: one
//! [`experiments`] module per table/figure of the VLDB'12 study over a
//! shared synthetic [`Corpus`], and the SWIM user path ([`analyze`]:
//! characterize a job history, export shareable metrics, synthesize a
//! replay bundle; §7–8).
//!
//! Three binaries are the CLI:
//!
//! ```text
//! swim-report --traces a.swim b.csv c.jsonl --out report.md --format md
//! swim-repro --quick table1 fig7        # regenerate the paper's tables/figures
//! swim-analyze --input trace.swim       # the user path over one trace
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analyze;
pub mod battery;
pub mod compare;
pub mod corpus;
pub mod doc;
pub mod experiments;
pub mod html;
pub mod markdown;
pub mod render;

pub use battery::{
    CompareExperiment, ExperimentResult, Metric, Series, TraceContext, Value, BATTERY,
};
pub use compare::Comparison;
pub use corpus::{Corpus, CorpusScale};
pub use doc::{Block, KeyValueBlock, Report, Section, SparklineBlock, TableBlock};
pub use render::{bytes, pct, ratio, sparkline, Table};
