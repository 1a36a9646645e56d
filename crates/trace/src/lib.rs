//! # swim-trace
//!
//! The per-job MapReduce trace data model underlying the whole `swim`
//! workspace. This is the schema described in §3 of Chen, Alspaugh & Katz
//! (VLDB 2012): each trace record is a *per-job summary* with
//!
//! * a numerical job id and a free-form job name,
//! * input / shuffle / output data sizes in bytes,
//! * submit time and duration,
//! * map and reduce task-time (slot-seconds) and task counts,
//! * optional input and output file paths (hashed in the original traces).
//!
//! The crate provides:
//!
//! * strongly-typed newtypes for sizes ([`DataSize`]) and times
//!   ([`Timestamp`], [`Dur`]) so byte counts and seconds cannot be mixed up,
//! * an opaque file identity ([`PathId`]) matching the paper's use of
//!   hashed path names,
//! * the [`Job`] record and [`Trace`] container with time-range selection,
//!   boundary trimming, and summary statistics ([`summary::TraceSummary`],
//!   the Table 1 row type),
//! * CSV and JSON-lines codecs ([`io`]) for interchange with external tools.
//!
//! Everything here is deliberately independent of *how* traces are obtained:
//! `swim-workloadgen` synthesizes them, `swim-core` analyzes them, and
//! `swim-sim` replays them.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod io;
pub mod job;
pub mod path;
pub mod size;
pub mod summary;
pub mod time;
pub mod trace;

pub use error::TraceError;
pub use job::{Framework, Job, JobBuilder, JobId};
pub use path::PathId;
pub use size::DataSize;
pub use summary::TraceSummary;
pub use time::{Dur, Timestamp};
pub use trace::Trace;
