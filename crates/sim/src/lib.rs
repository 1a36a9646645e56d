//! # swim-sim
//!
//! The SWIM tool of §7 — *Statistical Workload Injector for MapReduce* —
//! end to end: synthesize a replayable workload from a trace, then replay
//! it on a discrete-event MapReduce cluster simulator, the execution
//! substrate the paper's replay experiments ran on a real Hadoop
//! deployment.
//!
//! The synthesis pipeline:
//!
//! 1. [`sample`]: continuous window sampling condenses a long trace into a
//!    short synthetic one that preserves per-window distributions;
//! 2. [`scaledown`]: rescale data sizes from the production cluster to a
//!    target cluster size;
//! 3. [`datagen`]: emit an HDFS pre-population plan (the synthetic input
//!    data SWIM writes before replay);
//! 4. [`replay`]: emit a [`ReplayPlan`] — inter-arrival gaps plus per-job
//!    input/shuffle/output byte targets — which the simulator (or a real
//!    cluster driver) executes;
//! 5. [`validate`]: Kolmogorov–Smirnov checks that the synthesis preserved
//!    the original distributions.
//!
//! The simulator provides the replay's observable signals at laptop
//! scale:
//!
//! * a cluster of nodes exposing map and reduce **slots** ([`cluster`]);
//! * pluggable job **schedulers** — FIFO and Hadoop-fair-scheduler-style
//!   — backed by a runnable-with-demand index for incremental dispatch
//!   ([`scheduler`]);
//! * a **cache tier** in front of each job's input read — LRU, LFU, the
//!   paper's §4.2 size-threshold policy, and an unbounded reference tier
//!   ([`cache`]). A job reads the file its plan names
//!   ([`ReplayJob::input_file`]), at the size that file had when first
//!   read;
//! * a **wave-scheduled** replay engine that executes a [`ReplayPlan`]
//!   with one heap event per *wave* of same-duration tasks (not per task)
//!   and exact, remainder-distributed slot-second accounting, reporting
//!   per-hour slot utilization (Fig. 7 column 4), per-job latencies,
//!   queueing delays, and cache hit rates ([`engine`], [`metrics`]);
//! * a parallel **scenario sweep** driver for what-if grids over
//!   scheduler × cache × cluster size ([`sweep`]).
//!
//! The retired per-task engine survives in test builds only
//! (`src/reference.rs`), as the wave engine's parity oracle.
//!
//! The task model is deliberately the paper's own abstraction: a job is
//! its task-time vector; each task occupies one slot for
//! `task_time / task_count` seconds (remainder seconds spread one per
//! task, so totals are preserved bit-for-bit). This keeps the simulator
//! faithful to what the traces can actually parameterize.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

// `tests/support/seeded.rs` names this crate `swim_sim`, as an
// integration test must; `src/reference.rs` includes that file too.
#[cfg(test)]
extern crate self as swim_sim;

pub mod cache;
pub mod cluster;
pub mod datagen;
pub mod engine;
pub mod event;
pub mod metrics;
mod reference;
pub mod replay;
pub mod sample;
pub mod scaledown;
pub mod scheduler;
pub mod sweep;
pub mod validate;

pub use cache::{CachePolicy, CacheStats};
pub use engine::{SimConfig, SimResult, Simulator};
pub use replay::{ReplayJob, ReplayPlan};
pub use sample::{sample_windows, WindowSampler};
pub use scaledown::scale_trace;
pub use scheduler::SchedulerKind;
pub use sweep::{ScenarioGrid, SweepCell};
pub use validate::{ks_distance, KsColumns, SynthesisReport};
