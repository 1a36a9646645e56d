//! # swim-workloadgen
//!
//! Calibrated synthetic generators for the seven cross-industry MapReduce
//! workloads studied in Chen, Alspaugh & Katz (VLDB 2012): five Cloudera
//! customer workloads (`CC-a` … `CC-e`) and two Facebook snapshots
//! (`FB-2009`, `FB-2010`).
//!
//! The original traces are proprietary; this crate substitutes them with
//! generators parameterized **directly from the published statistics**:
//!
//! * Table 1 — trace scale (machines, length, job count, bytes moved);
//! * Table 2 — every k-means job-type cluster centroid (input / shuffle /
//!   output bytes, duration, map/reduce task-time) and its population share;
//! * Figure 2 — Zipf-like file popularity with log-log slope ≈ 5/6;
//! * Figures 5–6 — temporal locality of re-accesses and the fraction of
//!   jobs that re-read pre-existing inputs/outputs;
//! * Figure 8 — per-workload burstiness bands (peak-to-median ratios);
//! * Figure 10 — job-name first-word vocabularies and framework mixes.
//!
//! The generated traces carry the same per-job schema as the originals and
//! reproduce the paper's *data availability matrix*: `CC-a`/`FB-2009` ship
//! no file paths, `FB-2010` ships input paths only and no job names.
//!
//! ## Quick start
//!
//! ```
//! use swim_workloadgen::{GeneratorConfig, WorkloadGenerator};
//! use swim_trace::trace::WorkloadKind;
//!
//! let config = GeneratorConfig::new(WorkloadKind::CcB).scale(0.05).seed(42);
//! let trace = WorkloadGenerator::new(config).generate();
//! assert!(!trace.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arrival;
pub mod dist;
pub mod draft;
pub mod files;
pub mod generator;
pub mod jobtypes;
pub mod naming;
pub mod profiles;
pub mod streaming;

pub use draft::{DraftPrefix, JobDraft};
pub use generator::{GeneratorConfig, GeneratorError, WorkloadGenerator};
pub use jobtypes::JobTypeProfile;
pub use profiles::WorkloadProfile;
pub use streaming::{GenerationStats, StreamingGenerator};
