//! The experiment corpus: the seven synthetic workload traces, generated
//! at a laptop-friendly scale with fixed seeds so every experiment runs
//! off the same data. Facebook workloads are down-scaled in job count
//! (they have >1 M jobs at production scale); the Cloudera workloads run
//! at full published job rates. Every report prints the scale it ran at.
//!
//! Each trace sits behind a [`TraceContext`], the same per-trace analysis
//! state the comparison battery reads, and the experiments measure it by
//! running the battery's cells ([`Corpus::cells`]), so an analysis
//! several figures share (hourly series, locality, file access) is
//! computed once.

use crate::battery::{experiment, ExperimentResult};
use crate::TraceContext;
use swim_trace::trace::WorkloadKind;
use swim_workloadgen::{GeneratorConfig, WorkloadGenerator};

/// How big a corpus to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusScale {
    /// Fast CI-sized corpus (~3 days, heavier down-scaling).
    Quick,
    /// Standard experiment corpus (up to 14 days per workload).
    Standard,
}

/// Per-workload generation parameters `(scale, days)`.
pub fn scale_params(kind: &WorkloadKind, scale: CorpusScale) -> (f64, f64) {
    let (s, d) = match kind {
        WorkloadKind::CcA => (1.0, 14.0),
        WorkloadKind::CcB => (1.0, 9.0),
        WorkloadKind::CcC => (1.0, 14.0),
        WorkloadKind::CcD => (1.0, 14.0),
        WorkloadKind::CcE => (1.0, 9.0),
        WorkloadKind::Fb2009 => (0.05, 14.0),
        WorkloadKind::Fb2010 => (0.02, 14.0),
        WorkloadKind::Custom(_) => (1.0, 7.0),
    };
    match scale {
        CorpusScale::Standard => (s, d),
        CorpusScale::Quick => (s * 0.3, d.min(3.0)),
    }
}

/// The seven generated traces, in Table 1 order.
pub struct Corpus {
    /// One in-memory context per trace, labelled with its workload.
    pub contexts: Vec<TraceContext>,
    /// Scale the corpus was generated at.
    pub scale: CorpusScale,
    /// Seed used.
    pub seed: u64,
}

/// A corpus context's value: every corpus trace is held in memory, so
/// nothing computed from one can fail to read.
pub(crate) fn in_memory<T>(value: Result<T, String>) -> T {
    value.expect("corpus traces are held in memory")
}

impl Corpus {
    /// Build the corpus, generating the seven workloads in parallel.
    pub fn build(scale: CorpusScale, seed: u64) -> Corpus {
        let kinds = WorkloadKind::PAPER_SEVEN;
        let contexts = swim_obs::par_map(kinds.len(), swim_obs::cores(), |i| {
            let kind = &kinds[i];
            let (job_scale, days) = scale_params(kind, scale);
            let trace = WorkloadGenerator::new(
                GeneratorConfig::new(kind.clone())
                    .scale(job_scale)
                    .days(days)
                    .seed(seed ^ fxhash(kind.label())),
            )
            .generate();
            TraceContext::from_trace(kind.label(), trace)
        });
        Corpus {
            contexts,
            scale,
            seed,
        }
    }

    /// Context for a given workload.
    pub fn get(&self, kind: &WorkloadKind) -> &TraceContext {
        self.contexts
            .iter()
            .find(|c| c.label() == kind.label())
            .expect("paper workload present in corpus")
    }

    /// Run battery cell `id` on every trace, in Table 1 order; the traces
    /// are measured in parallel. Panics if `id` names no battery cell.
    pub fn cells(&self, id: &str) -> Vec<(&TraceContext, ExperimentResult)> {
        let run = experiment(id).expect("a battery cell").run;
        let results = swim_obs::par_map(self.contexts.len(), swim_obs::cores(), |i| {
            in_memory(run(&self.contexts[i]))
        });
        self.contexts.iter().zip(results).collect()
    }

    /// Run battery cell `id` on the trace of one workload.
    pub fn cell(&self, id: &str, kind: &WorkloadKind) -> ExperimentResult {
        let run = experiment(id).expect("a battery cell").run;
        in_memory(run(self.get(kind)))
    }
}

/// Tiny deterministic string hash for per-workload seed derivation.
fn fxhash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_corpus_builds_all_seven() {
        let c = Corpus::build(CorpusScale::Quick, 1);
        assert_eq!(c.contexts.len(), 7);
        for ctx in &c.contexts {
            assert!(ctx.summary().jobs > 0, "{} is empty", ctx.label());
        }
    }

    #[test]
    fn path_subsets_match_availability_matrix() {
        let c = Corpus::build(CorpusScale::Quick, 2);
        // Fig. 3 measures input paths and Fig. 4 output paths; each skips
        // a trace without them.
        let labels = |id| {
            let cells = c.cells(id);
            let measured = cells.into_iter().filter(|(_, r)| !r.is_skipped());
            measured.map(|(ctx, _)| ctx.label()).collect::<Vec<_>>()
        };
        assert_eq!(labels("fig4"), vec!["CC-b", "CC-c", "CC-d", "CC-e"]);
        let with_in = labels("fig3");
        assert_eq!(with_in, vec!["CC-b", "CC-c", "CC-d", "CC-e", "FB-2010"]);
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = Corpus::build(CorpusScale::Quick, 3);
        let b = Corpus::build(CorpusScale::Quick, 3);
        let read = |ctx: &TraceContext| swim_catalog::read_stores(ctx.stores(), |_, e| e);
        for (x, y) in a.contexts.iter().zip(&b.contexts) {
            assert_eq!(read(x).unwrap(), read(y).unwrap());
        }
    }

    #[test]
    fn get_returns_requested_kind() {
        let c = Corpus::build(CorpusScale::Quick, 4);
        let ctx = c.get(&WorkloadKind::CcC);
        assert_eq!(ctx.identity().0, WorkloadKind::CcC);
    }
}
