//! # swim-report
//!
//! The reporting layer of the `swim` workspace: the parallel
//! cross-trace comparison pipeline that is the paper's actual
//! deliverable — the same analysis battery run over N workloads side by
//! side (the VLDB'12 study is a *cross-industry comparison*, not any
//! single figure).
//!
//! Its output is the document model of [`swim_obs::doc`]
//! ([`Report`](swim_obs::doc::Report) → [`Section`](swim_obs::doc::Section)
//! → [`Block`](swim_obs::doc::Block)): experiments build block trees
//! instead of pushing strings, `Section::render_text` reproduces the
//! historical terminal format byte for byte (golden-pinned by
//! `tests/golden.rs`), and [`swim_obs::markdown`] and [`swim_obs::html`]
//! render the same tree for documents. This crate adds the paper's
//! number formats ([`render`]) and the comparison pipeline ([`battery`],
//! [`compare`]): load N traces (CSV, JSON-lines, or `swim-store`), run
//! every figure/table experiment per trace in parallel (workers claim
//! trace × experiment cells from a shared counter, so results are
//! deterministic and bit-identical to serial runs), and emit one
//! trace×metric comparison table per experiment with per-trace
//! sparklines.
//!
//! The battery's cells are the crate's one implementation of the paper:
//! the only code that computes a table's or figure's per-trace values.
//! The paper's own deliverables are layouts of the same cells: one
//! [`experiments`] module per table/figure of the VLDB'12 study runs its
//! cell on a shared synthetic [`Corpus`] and sets the values beside the
//! paper's, so `swim-repro` and `swim-report` differ only in their input
//! and their renderer. Beside them sits the SWIM user path ([`analyze`]:
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
//!
//! ## Quick start
//!
//! ```
//! use swim_report::{Comparison, TraceContext, BATTERY};
//! use swim_sim::{sample_windows, ReplayPlan, SimConfig, Simulator};
//! use swim_trace::trace::WorkloadKind;
//! use swim_workloadgen::{GeneratorConfig, WorkloadGenerator};
//!
//! // Generate a small slice of the FB-2009-like workload ...
//! let trace = WorkloadGenerator::new(
//!     GeneratorConfig::new(WorkloadKind::Fb2009).scale(0.01).days(2.0).seed(7),
//! )
//! .generate();
//!
//! // ... sample a one-day replayable benchmark from its hours (seed 1) ...
//! let sampled = sample_windows(&trace, 1);
//! let plan = ReplayPlan::from_trace(&sampled);
//! let result = Simulator::new(SimConfig::new(20)).run(&plan);
//! assert_eq!(result.outcomes.len(), plan.len());
//!
//! // ... and run the paper's full analysis battery over it.
//! let report = Comparison::new(vec![TraceContext::from_trace("FB-2009", trace)]).run();
//! assert_eq!(report.unwrap().sections.len(), BATTERY.len());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analyze;
pub mod battery;
pub mod compare;
pub mod corpus;
pub mod experiments;
pub mod render;

pub use battery::{
    CompareExperiment, ExperimentResult, Metric, Series, TraceContext, Value, BATTERY,
};
pub use compare::Comparison;
pub use corpus::{Corpus, CorpusScale};
