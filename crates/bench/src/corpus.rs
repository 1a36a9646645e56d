//! The experiment corpus: the seven synthetic workload traces, generated
//! at a laptop-friendly scale with fixed seeds so every experiment runs
//! off the same data. Facebook workloads are down-scaled in job count
//! (they have >1 M jobs at production scale); the Cloudera workloads run
//! at full published job rates. Every report prints the scale it ran at.

use std::path::Path;
use swim_store::{Store, StoreOptions};
use swim_trace::trace::WorkloadKind;
use swim_trace::Trace;
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
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The traces.
    pub traces: Vec<Trace>,
    /// Scale the corpus was generated at.
    pub scale: CorpusScale,
    /// Seed used.
    pub seed: u64,
}

impl Corpus {
    /// Build the corpus, generating the seven workloads in parallel.
    pub fn build(scale: CorpusScale, seed: u64) -> Corpus {
        let kinds = WorkloadKind::PAPER_SEVEN;
        let traces = swim_obs::par_map(kinds.len(), swim_obs::cores(), |i| {
            let kind = &kinds[i];
            let (job_scale, days) = scale_params(kind, scale);
            WorkloadGenerator::new(
                GeneratorConfig::new(kind.clone())
                    .scale(job_scale)
                    .days(days)
                    .seed(seed ^ fxhash(kind.label())),
            )
            .generate()
        });
        Corpus {
            traces,
            scale,
            seed,
        }
    }

    /// File name for one workload's store file inside a corpus directory.
    fn store_file_name(kind: &WorkloadKind) -> String {
        format!("{}.swim", kind.label().to_lowercase())
    }

    /// Manifest recording what a corpus directory was generated with, so
    /// a cache written at a different scale or seed is never silently
    /// loaded and misreported.
    fn manifest_line(scale: CorpusScale, seed: u64) -> String {
        let scale = match scale {
            CorpusScale::Quick => "quick",
            CorpusScale::Standard => "standard",
        };
        format!("scale={scale} seed={seed}\n")
    }

    const MANIFEST_FILE: &'static str = "corpus.meta";

    /// Persist the corpus as one `swim-store` file per workload plus a
    /// scale/seed manifest, so later runs (and `swim-repro --store-dir`)
    /// can skip generation entirely.
    pub fn save_store(&self, dir: impl AsRef<Path>) -> Result<(), swim_store::StoreError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        for trace in &self.traces {
            swim_store::write_store_path(
                trace,
                dir.join(Self::store_file_name(&trace.kind)),
                &StoreOptions::default(),
            )?;
        }
        std::fs::write(
            dir.join(Self::MANIFEST_FILE),
            Self::manifest_line(self.scale, self.seed),
        )?;
        Ok(())
    }

    /// Load a corpus previously written by [`Corpus::save_store`]. Fails
    /// (with a corrupt-store error naming the mismatch) when the
    /// directory's manifest does not record exactly this scale and seed.
    pub fn load_store(
        dir: impl AsRef<Path>,
        scale: CorpusScale,
        seed: u64,
    ) -> Result<Corpus, swim_store::StoreError> {
        let dir = dir.as_ref();
        let manifest = std::fs::read_to_string(dir.join(Self::MANIFEST_FILE))?;
        if manifest != Self::manifest_line(scale, seed) {
            return Err(swim_store::StoreError::Corrupt {
                context: "corpus directory was generated with a different scale/seed",
            });
        }
        let mut traces = Vec::with_capacity(WorkloadKind::PAPER_SEVEN.len());
        for kind in &WorkloadKind::PAPER_SEVEN {
            let store = Store::open(dir.join(Self::store_file_name(kind)))?;
            traces.push(store.read_trace()?);
        }
        Ok(Corpus {
            traces,
            scale,
            seed,
        })
    }

    /// Build the corpus, or load it from `store_dir` when it already
    /// holds a matching corpus (writing one there on first use, or after
    /// a scale/seed mismatch or corruption).
    pub fn build_or_load(scale: CorpusScale, seed: u64, store_dir: Option<&Path>) -> Corpus {
        let Some(dir) = store_dir else {
            return Self::build(scale, seed);
        };
        let complete = dir.join(Self::MANIFEST_FILE).is_file()
            && WorkloadKind::PAPER_SEVEN
                .iter()
                .all(|k| dir.join(Self::store_file_name(k)).is_file());
        if complete {
            match Self::load_store(dir, scale, seed) {
                Ok(corpus) => return corpus,
                Err(e) => {
                    eprintln!(
                        "store corpus in {} not usable ({e}); regenerating",
                        dir.display()
                    );
                }
            }
        }
        let corpus = Self::build(scale, seed);
        if let Err(e) = corpus.save_store(dir) {
            eprintln!("could not cache corpus to {}: {e}", dir.display());
        }
        corpus
    }

    /// Trace for a given workload.
    pub fn get(&self, kind: &WorkloadKind) -> &Trace {
        self.traces
            .iter()
            .find(|t| &t.kind == kind)
            .expect("paper workload present in corpus")
    }

    /// The five Cloudera traces with output paths (CC-b..CC-e) — the
    /// subset Figs. 2 (output), 4, and 6 can use.
    pub fn with_output_paths(&self) -> Vec<&Trace> {
        self.traces
            .iter()
            .filter(|t| t.jobs().iter().any(|j| !j.output_paths.is_empty()))
            .collect()
    }

    /// Traces with input paths (CC-b..CC-e, FB-2010).
    pub fn with_input_paths(&self) -> Vec<&Trace> {
        self.traces
            .iter()
            .filter(|t| t.jobs().iter().any(|j| !j.input_paths.is_empty()))
            .collect()
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
        assert_eq!(c.traces.len(), 7);
        for t in &c.traces {
            assert!(!t.is_empty(), "{} is empty", t.kind);
        }
    }

    #[test]
    fn path_subsets_match_availability_matrix() {
        let c = Corpus::build(CorpusScale::Quick, 2);
        let with_out: Vec<&str> = c
            .with_output_paths()
            .iter()
            .map(|t| t.kind.label())
            .collect();
        assert_eq!(with_out, vec!["CC-b", "CC-c", "CC-d", "CC-e"]);
        let with_in: Vec<&str> = c
            .with_input_paths()
            .iter()
            .map(|t| t.kind.label())
            .collect();
        assert_eq!(with_in, vec!["CC-b", "CC-c", "CC-d", "CC-e", "FB-2010"]);
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = Corpus::build(CorpusScale::Quick, 3);
        let b = Corpus::build(CorpusScale::Quick, 3);
        for (x, y) in a.traces.iter().zip(&b.traces) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn get_returns_requested_kind() {
        let c = Corpus::build(CorpusScale::Quick, 4);
        assert_eq!(c.get(&WorkloadKind::CcC).kind, WorkloadKind::CcC);
    }

    #[test]
    fn store_save_load_round_trips() {
        // Unique per process so concurrent test runs never share the dir.
        let dir =
            std::env::temp_dir().join(format!("swim-corpus-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = Corpus::build(CorpusScale::Quick, 5);
        a.save_store(&dir).unwrap();
        let b = Corpus::load_store(&dir, CorpusScale::Quick, 5).unwrap();
        assert_eq!(a.traces.len(), b.traces.len());
        for (x, y) in a.traces.iter().zip(&b.traces) {
            assert_eq!(x, y);
        }
        // A scale/seed mismatch must refuse to load the cache.
        assert!(Corpus::load_store(&dir, CorpusScale::Quick, 6).is_err());
        assert!(Corpus::load_store(&dir, CorpusScale::Standard, 5).is_err());
        // build_or_load takes the cached path on a match.
        let c = Corpus::build_or_load(CorpusScale::Quick, 5, Some(dir.as_path()));
        assert_eq!(c.traces[0], a.traces[0]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
