//! # swim-sim
//!
//! A discrete-event MapReduce cluster simulator: the execution substrate
//! the paper's replay experiments ran on a real Hadoop deployment. With
//! no Hadoop ecosystem available, this simulator provides the same
//! observable signals at laptop scale:
//!
//! * a cluster of nodes exposing map and reduce **slots** ([`cluster`]);
//! * pluggable job **schedulers** — FIFO and Hadoop-fair-scheduler-style
//!   — backed by a runnable-with-demand index for incremental dispatch
//!   ([`scheduler`]);
//! * a **cache tier** in front of each job's input read — LRU, LFU, the
//!   paper's §4.2 size-threshold policy, and an unbounded reference tier
//!   ([`cache`]). A job reads the file its plan names
//!   ([`swim_synth::ReplayJob::input_file`]), at the size that file had
//!   when first read;
//! * a **wave-scheduled** replay engine that executes a `swim-synth`
//!   [`swim_synth::ReplayPlan`] with one heap event per *wave* of
//!   same-duration tasks (not per task) and exact, remainder-distributed
//!   slot-second accounting, reporting per-hour slot utilization
//!   (Fig. 7 column 4), per-job latencies, queueing delays, and cache
//!   hit rates ([`engine`], [`metrics`]);
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

pub mod cache;
pub mod cluster;
pub mod engine;
pub mod event;
pub mod metrics;
mod reference;
pub mod scheduler;
pub mod sweep;

pub use cache::{CachePolicy, CacheStats};
pub use engine::{SimConfig, SimResult, Simulator};
pub use scheduler::SchedulerKind;
pub use sweep::{ScenarioGrid, SweepCell};
