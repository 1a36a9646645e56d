//! # swim-synth
//!
//! The SWIM tool of §7 — *Statistical Workload Injector for MapReduce* —
//! reimplemented over the `swim` trace model. The pipeline:
//!
//! 1. [`sample`]: continuous window sampling condenses a long trace into a
//!    short synthetic one that preserves per-window distributions;
//! 2. [`scaledown`]: rescale data sizes from the production cluster to a
//!    target cluster size;
//! 3. [`datagen`]: emit an HDFS pre-population plan (the synthetic input
//!    data SWIM writes before replay);
//! 4. [`replay`]: emit a [`replay::ReplayPlan`] — inter-arrival gaps plus
//!    per-job input/shuffle/output byte targets — consumable by
//!    `swim-sim` (or a real cluster driver);
//! 5. [`validate`]: Kolmogorov–Smirnov checks that the synthesis preserved
//!    the original distributions;
//! 6. [`suite`]: bundle several workloads into a benchmark suite, the
//!    paper's answer to "no single set of behaviors are representative".

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod datagen;
pub mod replay;
pub mod sample;
pub mod scaledown;
pub mod suite;
pub mod validate;

pub use replay::{ReplayJob, ReplayPlan};
pub use sample::{sample_windows, SampleConfig, WindowSampler};
pub use scaledown::{scale_trace, ScaleConfig};
pub use validate::{ks_distance, KsColumns, SynthesisReport};
