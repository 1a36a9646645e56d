//! The experiment corpus: the seven synthetic workload traces, generated
//! at a laptop-friendly scale with fixed seeds so every experiment runs
//! off the same data. Facebook workloads are down-scaled in job count
//! (they have >1 M jobs at production scale); the Cloudera workloads run
//! at full published job rates. Every report prints the scale it ran at.
//!
//! Each trace sits behind a [`TraceContext`], the same per-trace analysis
//! state the comparison battery reads, so an analysis several figures
//! share (hourly series, locality, file access) is computed once.

use crate::TraceContext;
use std::path::Path;
use swim_core::access::{FileAccessStats, PathStage};
use swim_store::{Store, StoreError, StoreOptions};
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

/// A corpus trace's file access statistics for one stage (Figs. 2–4).
pub(crate) fn access(ctx: &TraceContext, stage: PathStage) -> &FileAccessStats {
    in_memory(match stage {
        PathStage::Input => ctx.input_access(),
        PathStage::Output => ctx.output_access(),
    })
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

    /// The traces, in Table 1 order.
    pub fn traces(&self) -> impl Iterator<Item = &Trace> {
        self.contexts.iter().map(|c| in_memory(c.trace()))
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
        for trace in self.traces() {
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
    /// when the directory's manifest does not record exactly this scale
    /// and seed, or when a store does not open or decode: each trace is
    /// read whole here, so a corpus context never fails a read later.
    pub fn load_store(
        dir: impl AsRef<Path>,
        scale: CorpusScale,
        seed: u64,
    ) -> Result<Corpus, String> {
        let dir = dir.as_ref();
        let manifest_path = dir.join(Self::MANIFEST_FILE);
        let manifest = std::fs::read_to_string(&manifest_path)
            .map_err(|e| format!("read {}: {e}", manifest_path.display()))?;
        if manifest != Self::manifest_line(scale, seed) {
            return Err("corpus directory was generated with a different scale/seed".to_owned());
        }
        let mut contexts = Vec::with_capacity(WorkloadKind::PAPER_SEVEN.len());
        for kind in &WorkloadKind::PAPER_SEVEN {
            let path = dir.join(Self::store_file_name(kind));
            let at = |e: StoreError| format!("{}: {e}", path.display());
            let store = Store::open(&path).map_err(at)?;
            let ctx = TraceContext::from_store(kind.label(), store).map_err(at)?;
            ctx.trace()?;
            contexts.push(ctx);
        }
        Ok(Corpus {
            contexts,
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

    /// Context for a given workload.
    pub fn get(&self, kind: &WorkloadKind) -> &TraceContext {
        self.contexts
            .iter()
            .find(|c| c.label() == kind.label())
            .expect("paper workload present in corpus")
    }

    /// The traces with paths at `stage`, in Table 1 order: input paths on
    /// CC-b..CC-e and FB-2010, output paths on the four Cloudera traces
    /// CC-b..CC-e only (the subset Figs. 2 (output) and 4 can use).
    pub fn with_paths(&self, stage: PathStage) -> Vec<&TraceContext> {
        let has_paths = |c: &&TraceContext| access(c, stage).distinct_files() > 0;
        self.contexts.iter().filter(has_paths).collect()
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
        for t in c.traces() {
            assert!(!t.is_empty(), "{} is empty", t.kind);
        }
    }

    #[test]
    fn path_subsets_match_availability_matrix() {
        let c = Corpus::build(CorpusScale::Quick, 2);
        let labels = |stage| {
            c.with_paths(stage)
                .iter()
                .map(|t| t.label())
                .collect::<Vec<_>>()
        };
        assert_eq!(
            labels(PathStage::Output),
            vec!["CC-b", "CC-c", "CC-d", "CC-e"]
        );
        let with_in = labels(PathStage::Input);
        assert_eq!(with_in, vec!["CC-b", "CC-c", "CC-d", "CC-e", "FB-2010"]);
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = Corpus::build(CorpusScale::Quick, 3);
        let b = Corpus::build(CorpusScale::Quick, 3);
        for (x, y) in a.traces().zip(b.traces()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn get_returns_requested_kind() {
        let c = Corpus::build(CorpusScale::Quick, 4);
        let ctx = c.get(&WorkloadKind::CcC);
        assert_eq!(in_memory(ctx.trace()).kind, WorkloadKind::CcC);
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
        assert_eq!(a.contexts.len(), b.contexts.len());
        for (x, y) in a.traces().zip(b.traces()) {
            assert_eq!(x, y);
        }
        // A scale/seed mismatch must refuse to load the cache.
        assert!(Corpus::load_store(&dir, CorpusScale::Quick, 6).is_err());
        assert!(Corpus::load_store(&dir, CorpusScale::Standard, 5).is_err());
        // build_or_load takes the cached path on a match.
        let c = Corpus::build_or_load(CorpusScale::Quick, 5, Some(dir.as_path()));
        assert_eq!(c.traces().next(), a.traces().next());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_damaged_cache_is_regenerated() {
        let dir =
            std::env::temp_dir().join(format!("swim-corpus-damaged-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fresh = Corpus::build(CorpusScale::Quick, 8);
        fresh.save_store(&dir).unwrap();
        let cc_b = dir.join("cc-b.swim");
        let pristine = std::fs::read(&cc_b).unwrap();
        // A byte of the first chunk's numeric blocks, which the load's
        // `par_summary` decodes, and the chunk's last byte: its path
        // literals, which only reading the whole trace touches.
        let first = Store::from_vec(pristine.clone()).unwrap().chunk_meta()[0];
        for offset in [200, (first.offset + first.block_len) as usize - 1] {
            let mut bytes = pristine.clone();
            bytes[offset] ^= 0x04;
            std::fs::write(&cc_b, bytes).unwrap();
            let Err(err) = Corpus::load_store(&dir, CorpusScale::Quick, 8) else {
                panic!("offset {offset}: the damage went unseen");
            };
            assert!(err.contains("cc-b.swim"), "offset {offset}: {err}");
            let c = Corpus::build_or_load(CorpusScale::Quick, 8, Some(dir.as_path()));
            assert_eq!(c.contexts.len(), 7);
            for (x, y) in fresh.traces().zip(c.traces()) {
                assert_eq!(x, y, "offset {offset}");
            }
            assert_eq!(std::fs::read(&cc_b).unwrap(), pristine, "offset {offset}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
