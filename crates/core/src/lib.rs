//! # swim-core
//!
//! The workload-characterization methodology of Chen, Alspaugh & Katz
//! (VLDB 2012), implemented over the `swim-trace` schema. The paper breaks
//! each MapReduce workload into three conceptual components, and so does
//! this crate:
//!
//! * **Data patterns** (§4): per-job data size distributions ([`stats`]),
//!   Zipf-like skew in file access frequency and the 80-X rule
//!   ([`access`]), and temporal locality of re-accesses ([`locality`]).
//! * **Temporal patterns** (§5): hourly multi-dimensional time series
//!   ([`timeseries`]), the nth-percentile-to-median burstiness metric
//!   ([`burstiness`]), diurnal detection by Fourier analysis ([`fourier`]),
//!   and cross-dimension correlations ([`stats::pearson`]).
//! * **Computation patterns** (§6): job-name first-word / framework
//!   analysis ([`names`]) and 6-dimensional k-means job clustering with
//!   elbow-based `k` selection ([`kmeans`]).
//!
//! Each analysis is a plain function of a trace. The path and name
//! analyses are also job-at-a-time folds ([`access::AccessFold`],
//! [`locality::LocalityFold`], [`names::NameFold`]) and k-means takes
//! the jobs' feature vectors, so `swim_report::TraceContext` computes
//! them all in one ordered pass over a trace it never holds whole.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod access;
pub mod burstiness;
pub mod fourier;
pub mod kmeans;
pub mod locality;
pub mod names;
pub mod stats;
pub mod timeseries;

pub use kmeans::KMeans;
