//! # swim
//!
//! A from-scratch Rust reproduction of *"Interactive Analytical Processing
//! in Big Data Systems: A Cross-Industry Study of MapReduce Workloads"*
//! (Chen, Alspaugh & Katz, VLDB 2012) and its companion tool **SWIM**,
//! the Statistical Workload Injector for MapReduce.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`trace`] — the per-job MapReduce trace data model (§3 schema);
//! * [`workloadgen`] — calibrated synthetic generators for the seven
//!   studied workloads (CC-a … CC-e, FB-2009, FB-2010);
//! * [`core`] — the characterization methodology: data access patterns
//!   (§4), temporal patterns (§5), computation patterns (§6);
//! * [`synth`] — the SWIM pipeline: sampling, scale-down, data
//!   generation, replay plans, and KS validation (§7);
//! * [`sim`] — a discrete-event MapReduce cluster simulator for replays;
//! * [`store`] — a columnar, chunked binary trace store with parallel
//!   chunked scans, for million-job histories that should not be
//!   re-parsed from text (or held in RAM) on every analysis;
//! * [`catalog`] — a sharded trace-dataset catalog: a directory of
//!   immutable `.swim` shards behind one versioned manifest, with atomic
//!   ingest, shard-level zone maps, a decoded-column LRU cache, and
//!   compaction;
//! * [`query`] — a vectorized filter/group/aggregate query engine over
//!   the store, with per-chunk zone maps that let the
//!   planner skip chunks on any numeric-column predicate — and, over a
//!   catalog, federated execution with two-level (shard, then chunk)
//!   pruning;
//! * [`report`] — the paper's analysis battery and experiments, and the
//!   parallel cross-trace comparison pipeline behind the `swim-report`
//!   binary;
//! * [`obs`] — the zero-dependency floor every other crate builds on:
//!   the observability layer (counters, gauges, hierarchical timed
//!   spans, windowed nearest-rank histograms) surfaced through
//!   `swim-query --explain` / `--profile` and a JSONL sink, the document
//!   model (report → section → block) with its Markdown/HTML renderers,
//!   and the one command-line runtime every binary runs on;
//! * [`serve`] — a resident threaded TCP query server over a catalog
//!   directory: snapshot-isolated concurrent reads across
//!   `ingest`/`compact`/`vacuum`, bounded admission control, and a
//!   per-generation result cache (the `swim-serve` binary).
//!
//! ## Quick start
//!
//! ```
//! use swim::prelude::*;
//!
//! // Generate a small slice of the FB-2009-like workload ...
//! let trace = WorkloadGenerator::new(
//!     GeneratorConfig::new(WorkloadKind::Fb2009).scale(0.01).days(2.0).seed(7),
//! )
//! .generate();
//!
//! // ... sample a scaled-down replayable benchmark from it ...
//! let sampled = sample_windows(&trace, SampleConfig::one_day_from_hours(1));
//! let plan = ReplayPlan::from_trace(&sampled);
//! let result = Simulator::new(SimConfig::new(20)).run(&plan);
//! assert_eq!(result.outcomes.len(), plan.len());
//!
//! // ... and run the paper's full analysis battery over it.
//! let report = Comparison::new(vec![TraceContext::from_trace("FB-2009", trace)]).run();
//! assert_eq!(report.unwrap().sections.len(), swim::report::BATTERY.len());
//! ```

#![warn(missing_docs)]

pub use swim_catalog as catalog;
pub use swim_core as core;
pub use swim_obs as obs;
pub use swim_query as query;
pub use swim_report as report;
pub use swim_serve as serve;
pub use swim_sim as sim;
pub use swim_store as store;
pub use swim_synth as synth;
pub use swim_trace as trace;
pub use swim_workloadgen as workloadgen;

/// The most common imports in one place.
pub mod prelude {
    pub use swim_catalog::{Catalog, CatalogOptions};
    pub use swim_query::{CatalogQuery, Query};
    pub use swim_report::{Comparison, TraceContext};
    pub use swim_sim::{CachePolicy, SimConfig, Simulator};
    pub use swim_store::{Store, StoreOptions};
    pub use swim_synth::sample::{sample_windows, SampleConfig};
    pub use swim_synth::ReplayPlan;
    pub use swim_trace::trace::WorkloadKind;
    pub use swim_trace::{DataSize, Dur, Job, JobBuilder, Timestamp, Trace};
    pub use swim_workloadgen::{GeneratorConfig, WorkloadGenerator};
}
