//! # swim-bench
//!
//! The reproduction harness: one module per table/figure of the VLDB'12
//! study, each regenerating the published artifact from synthetic traces
//! and printing the same rows/series the paper reports (plus the paper's
//! published values for side-by-side comparison).
//!
//! The `swim-repro` binary dispatches on experiment id
//! (`table1`, `fig1` … `fig10`, `table2`, `swim`, `all`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analyze;
pub mod corpus;
pub mod experiments;
pub mod serveload;
pub mod top;

pub use corpus::{Corpus, CorpusScale};
