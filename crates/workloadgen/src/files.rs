//! The synthetic HDFS file population and access model.
//!
//! §4 of the paper characterizes three properties we must reproduce:
//!
//! 1. **Zipf-like access frequency** (Fig. 2): a handful of files absorb
//!    most accesses, with a log-log rank–frequency slope ≈ 5/6 on every
//!    workload. Global re-reads mix a small long-lived *reference set*
//!    (dimension/lookup tables, drawn via Zipf), *preferential
//!    attachment* over the access history, and a bounded-Zipf floor;
//!    outputs gain their Fig. 2 skew through popularity-weighted
//!    *overwrites* (periodic jobs refreshing the same tables).
//! 2. **Temporal locality** (Fig. 5): ~75 % of re-accesses fall within six
//!    hours — popularity draws are mixed with a recency-biased draw over
//!    the most recently touched files.
//! 3. **Output→input chaining** (Figs. 5–6): jobs frequently read what an
//!    earlier job wrote — the model tracks written outputs and lets a
//!    configurable fraction of jobs consume them, biased towards the most
//!    recently produced (pipeline stages run right after their producers).
//!
//! File *sizes* follow the job's data sizes, which makes Figs. 3/4
//! (jobs-vs-file-size and stored-bytes-vs-file-size CDFs) emergent rather
//! than imposed.

use crate::dist::Zipf;
use rand::Rng;
use std::collections::VecDeque;
use swim_trace::{DataSize, PathId};

/// Locality/popularity parameters for one workload's file accesses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessModel {
    /// Probability that a job's input re-reads a pre-existing *input* file
    /// (Fig. 6 light bars).
    pub p_reread_input: f64,
    /// Probability that a job's input consumes a pre-existing *output*
    /// file (Fig. 6 dark bars). Remaining probability creates fresh files.
    pub p_consume_output: f64,
    /// Given a re-read, probability of drawing from the recency window
    /// rather than the global Zipf — tunes Fig. 5's "75 % within 6 hours".
    pub p_recent: f64,
    /// Size of the recency window (most recently accessed distinct files).
    pub recency_window: usize,
    /// Zipf exponent for global popularity (the paper's ≈ 5/6).
    pub zipf_exponent: f64,
    /// Probability that a job's output *overwrites* an existing output
    /// path (periodic jobs refresh the same tables) rather than creating
    /// a fresh file. This is what gives output paths the Zipf-like access
    /// frequencies of Fig. 2's bottom panel.
    pub p_overwrite_output: f64,
}

impl AccessModel {
    /// Defaults matching the cross-workload constants the paper reports.
    pub fn paper_defaults(p_reread_input: f64, p_consume_output: f64) -> Self {
        AccessModel {
            p_reread_input,
            p_consume_output,
            p_recent: 0.75,
            recency_window: 64,
            zipf_exponent: 5.0 / 6.0,
            p_overwrite_output: 0.45,
        }
    }

    /// A model that never re-accesses anything (ablation baseline).
    pub fn no_reaccess() -> Self {
        AccessModel {
            p_reread_input: 0.0,
            p_consume_output: 0.0,
            p_recent: 0.0,
            recency_window: 1,
            zipf_exponent: 5.0 / 6.0,
            p_overwrite_output: 0.0,
        }
    }
}

/// One file in the synthetic population.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FileRecord {
    id: PathId,
    size: DataSize,
}

/// How a job's input was chosen — reported so the generator can label
/// accesses and tests can assert mix fractions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputChoice {
    /// A brand-new file was created (external data landing on the cluster).
    Fresh,
    /// An existing input file was re-read.
    RereadInput,
    /// A previous job's output was consumed.
    ConsumedOutput,
}

/// Memory bounds on the resident population state, so a streaming
/// generator can emit traces of unbounded length in O(1) memory. Every
/// structure behaves exactly like its unbounded predecessor until its cap
/// is reached (all of this crate's statistical tests run far below the
/// default caps); past the cap, the oldest state is recycled: the access
/// log and output list become rings over the recent history, and new files
/// reuse slots beyond a protected head of `reserved_files` (which keeps
/// the long-lived Fig. 2 reference set alive forever).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PopulationBounds {
    /// Maximum resident file records (slots are recycled past this).
    pub max_files: usize,
    /// Head of the file table that is never recycled — the earliest files
    /// form the Zipf reference set and the oldest chained outputs.
    pub reserved_files: usize,
    /// Maximum remembered output files (chaining candidates).
    pub max_outputs: usize,
    /// Maximum access-log entries (preferential-attachment memory).
    pub max_access_log: usize,
}

impl Default for PopulationBounds {
    fn default() -> Self {
        PopulationBounds {
            max_files: 1 << 18,
            reserved_files: 4096,
            max_outputs: 1 << 16,
            max_access_log: 1 << 16,
        }
    }
}

impl PopulationBounds {
    /// Clamp degenerate values so the population math stays well-defined
    /// (at least one recyclable slot, non-empty rings).
    fn sanitized(self) -> Self {
        let max_files = self.max_files.max(2);
        PopulationBounds {
            max_files,
            reserved_files: self.reserved_files.min(max_files - 1),
            max_outputs: self.max_outputs.max(1),
            max_access_log: self.max_access_log.max(1),
        }
    }
}

/// Mutable file population evolving as the generator emits jobs.
#[derive(Debug, Clone)]
pub struct FilePopulation {
    model: AccessModel,
    bounds: PopulationBounds,
    files: Vec<FileRecord>,
    /// Indices into `files` of output files (chaining candidates), oldest
    /// first; bounded by `bounds.max_outputs` (oldest dropped).
    outputs: VecDeque<usize>,
    /// Ring of recently accessed file indices (most recent last).
    recent: Vec<usize>,
    /// One entry per past access (file index): sampling uniformly from
    /// this log draws a file with probability proportional to its access
    /// count — preferential attachment, the generative process behind the
    /// Zipf-like rank–frequency lines of Fig. 2. Bounded as a ring of the
    /// most recent `bounds.max_access_log` accesses.
    access_log: Vec<usize>,
    /// Write cursor into `access_log` once it is saturated.
    log_cursor: usize,
    /// Next slot (relative to `bounds.reserved_files`) to recycle once the
    /// file table is saturated.
    recycle_cursor: usize,
    next_id: u64,
}

impl FilePopulation {
    /// Empty population under the given access model and default bounds.
    pub fn new(model: AccessModel) -> Self {
        FilePopulation::with_bounds(model, PopulationBounds::default())
    }

    /// Empty population with explicit memory bounds (tests use tiny caps
    /// to exercise recycling cheaply).
    pub fn with_bounds(model: AccessModel, bounds: PopulationBounds) -> Self {
        FilePopulation {
            model,
            bounds: bounds.sanitized(),
            files: Vec::new(),
            outputs: VecDeque::new(),
            recent: Vec::new(),
            access_log: Vec::new(),
            log_cursor: 0,
            recycle_cursor: 0,
            next_id: 0,
        }
    }

    /// Number of *resident* files (distinct files until `max_files`, the
    /// cap thereafter — see [`FilePopulation::created`]).
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Total number of distinct files ever created (monotonic; unlike
    /// [`FilePopulation::len`] this keeps counting past the resident cap).
    pub fn created(&self) -> u64 {
        self.next_id
    }

    /// Approximate resident heap footprint of the population state. This
    /// is what the streaming generator's bounded-memory tests assert on:
    /// it plateaus at the [`PopulationBounds`] caps no matter how many
    /// jobs have been emitted.
    pub fn resident_bytes(&self) -> usize {
        self.files.capacity() * std::mem::size_of::<FileRecord>()
            + self.outputs.capacity() * std::mem::size_of::<usize>()
            + self.recent.capacity() * std::mem::size_of::<usize>()
            + self.access_log.capacity() * std::mem::size_of::<usize>()
    }

    /// `true` iff no files exist yet.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Total bytes stored across all files.
    pub fn bytes_stored(&self) -> DataSize {
        self.files.iter().map(|f| f.size).sum()
    }

    /// Choose (and record) the input file for a job with the given input
    /// size. Returns the path and how it was chosen.
    ///
    /// Fresh files take the job's input size; re-read files keep their
    /// original size (the job reads what is there).
    pub fn choose_input<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        input_size: DataSize,
    ) -> (PathId, InputChoice) {
        let u: f64 = rng.random();
        if !self.files.is_empty() && u < self.model.p_reread_input {
            let idx = self.pick_existing(rng);
            self.touch(idx);
            (self.files[idx].id, InputChoice::RereadInput)
        } else if !self.outputs.is_empty()
            && u < self.model.p_reread_input + self.model.p_consume_output
        {
            // Pipelines overwhelmingly consume *recently produced* outputs
            // (the next stage runs right after the previous one), so the
            // draw is recency-biased like input re-reads: with probability
            // `p_recent` pick among the last `recency_window` outputs,
            // favouring the newest; otherwise any historical output.
            let pos = if rng.random::<f64>() < self.model.p_recent {
                let window = self.outputs.len().min(self.model.recency_window.max(1));
                let base = self.outputs.len() - window;
                let a = rng.random_range(0..window);
                let b = rng.random_range(0..window);
                base + a.max(b)
            } else {
                rng.random_range(0..self.outputs.len())
            };
            let idx = self.outputs[pos];
            self.touch(idx);
            (self.files[idx].id, InputChoice::ConsumedOutput)
        } else {
            let id = self.create(input_size, false);
            (id, InputChoice::Fresh)
        }
    }

    /// Record a job's output file of the given size.
    ///
    /// With probability [`AccessModel::p_overwrite_output`] the write
    /// refreshes an existing output path (Zipf-popular outputs get
    /// refreshed most — nightly tables), otherwise a fresh file is created.
    pub fn record_output<R: Rng + ?Sized>(&mut self, rng: &mut R, output_size: DataSize) -> PathId {
        if !self.outputs.is_empty() && rng.random::<f64>() < self.model.p_overwrite_output {
            let zipf = Zipf::new(self.outputs.len() as u64, self.model.zipf_exponent);
            let idx = self.outputs[(zipf.sample(rng) - 1) as usize];
            self.files[idx].size = output_size;
            self.touch(idx);
            return self.files[idx].id;
        }
        self.create(output_size, true)
    }

    /// Add a file; outputs become eligible for output→input chaining.
    fn create(&mut self, size: DataSize, is_output: bool) -> PathId {
        let id = PathId(self.next_id);
        self.next_id += 1;
        let record = FileRecord { id, size };
        let idx = if self.files.len() < self.bounds.max_files {
            self.files.push(record);
            self.files.len() - 1
        } else {
            // Saturated: recycle a slot past the protected head. Stale
            // references from `outputs`/`recent`/`access_log` now resolve
            // to the new tenant of the slot — statistically harmless (they
            // still draw *some* live file) and what keeps the population
            // O(1) for unbounded traces.
            let span = self.bounds.max_files - self.bounds.reserved_files;
            let idx = self.bounds.reserved_files + self.recycle_cursor;
            self.recycle_cursor = (self.recycle_cursor + 1) % span;
            self.files[idx] = record;
            idx
        };
        if is_output {
            self.outputs.push_back(idx);
            if self.outputs.len() > self.bounds.max_outputs {
                self.outputs.pop_front();
            }
        }
        self.push_recent(idx);
        id
    }

    /// Pick an existing file: recency-biased with probability `p_recent`;
    /// otherwise by *preferential attachment* (probability proportional to
    /// past access count), seeded with a Zipf-by-creation-rank draw while
    /// the access log is still cold. Preferential attachment is the
    /// classic generative process behind Zipf-like rank-frequency curves,
    /// and it concentrates the head enough to reproduce the Fig. 2 slopes
    /// even though most accesses are fresh-file creations.
    fn pick_existing<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        debug_assert!(!self.files.is_empty());
        if !self.recent.is_empty() && rng.random::<f64>() < self.model.p_recent {
            // Bias towards the most recent entries: draw two uniform picks
            // and keep the later (more recent) one.
            let a = rng.random_range(0..self.recent.len());
            let b = rng.random_range(0..self.recent.len());
            return self.recent[a.max(b)];
        }
        // A small set of long-lived reference files (dimension tables,
        // lookup data) absorbs a large share of global re-reads — "a few
        // files account for a very high number of accesses" (§4.2). The
        // reference set is the earliest-created files, drawn via Zipf.
        const REFERENCE_SET: usize = 32;
        if rng.random::<f64>() < 0.6 {
            let n = self.files.len().min(REFERENCE_SET) as u64;
            let zipf = Zipf::new(n, 1.0);
            return (zipf.sample(rng) - 1) as usize;
        }
        if !self.access_log.is_empty() && rng.random::<f64>() < 0.8 {
            let idx = self.access_log[rng.random_range(0..self.access_log.len())];
            return idx;
        }
        let zipf = Zipf::new(self.files.len() as u64, self.model.zipf_exponent);
        (zipf.sample(rng) - 1) as usize
    }

    fn touch(&mut self, idx: usize) {
        if self.access_log.len() < self.bounds.max_access_log {
            self.access_log.push(idx);
        } else {
            self.access_log[self.log_cursor] = idx;
            self.log_cursor = (self.log_cursor + 1) % self.bounds.max_access_log;
        }
        self.push_recent(idx);
    }

    fn push_recent(&mut self, idx: usize) {
        if let Some(pos) = self.recent.iter().position(|&i| i == idx) {
            self.recent.remove(pos);
        }
        self.recent.push(idx);
        if self.recent.len() > self.model.recency_window {
            self.recent.remove(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> AccessModel {
        AccessModel::paper_defaults(0.4, 0.3)
    }

    #[test]
    fn first_access_is_always_fresh() {
        let mut pop = FilePopulation::new(model());
        let mut rng = StdRng::seed_from_u64(1);
        let (_, choice) = pop.choose_input(&mut rng, DataSize::from_mb(1));
        assert_eq!(choice, InputChoice::Fresh);
        assert_eq!(pop.len(), 1);
    }

    #[test]
    fn reaccess_fractions_match_model() {
        let mut pop = FilePopulation::new(model());
        let mut rng = StdRng::seed_from_u64(2);
        let n = 30_000;
        let mut reread = 0;
        let mut consumed = 0;
        for _ in 0..n {
            let (_, choice) = pop.choose_input(&mut rng, DataSize::from_mb(1));
            match choice {
                InputChoice::RereadInput => reread += 1,
                InputChoice::ConsumedOutput => consumed += 1,
                InputChoice::Fresh => {}
            }
            pop.record_output(&mut rng, DataSize::from_mb(1));
        }
        let fr = reread as f64 / n as f64;
        let fc = consumed as f64 / n as f64;
        assert!((fr - 0.4).abs() < 0.02, "reread fraction {fr}");
        assert!((fc - 0.3).abs() < 0.02, "consumed fraction {fc}");
    }

    #[test]
    fn no_reaccess_model_only_creates() {
        let mut pop = FilePopulation::new(AccessModel::no_reaccess());
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..500 {
            let (_, choice) = pop.choose_input(&mut rng, DataSize::from_kb(1));
            assert_eq!(choice, InputChoice::Fresh);
        }
        assert_eq!(pop.len(), 500);
    }

    #[test]
    fn access_counts_are_skewed() {
        // With recency + Zipf, the most-accessed file must absorb far more
        // than the uniform share of accesses.
        let mut pop = FilePopulation::new(AccessModel {
            p_reread_input: 0.9,
            p_consume_output: 0.0,
            p_recent: 0.3,
            recency_window: 16,
            zipf_exponent: 5.0 / 6.0,
            p_overwrite_output: 0.0,
        });
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts: std::collections::HashMap<PathId, u64> = Default::default();
        let n = 20_000;
        for _ in 0..n {
            let (id, _) = pop.choose_input(&mut rng, DataSize::from_kb(1));
            *counts.entry(id).or_default() += 1;
        }
        let max = *counts.values().max().unwrap();
        let uniform_share = n as u64 / pop.len() as u64;
        assert!(
            max > 20 * uniform_share.max(1),
            "max count {max} vs uniform {uniform_share}"
        );
    }

    #[test]
    fn bytes_stored_accumulates() {
        let mut pop = FilePopulation::new(AccessModel::no_reaccess());
        let mut rng = StdRng::seed_from_u64(5);
        pop.choose_input(&mut rng, DataSize::from_mb(3));
        pop.record_output(&mut rng, DataSize::from_mb(7));
        assert_eq!(pop.bytes_stored(), DataSize::from_mb(10));
    }

    #[test]
    fn recency_window_is_bounded() {
        let mut pop = FilePopulation::new(AccessModel {
            recency_window: 4,
            ..AccessModel::no_reaccess()
        });
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..100 {
            pop.choose_input(&mut rng, DataSize::from_kb(1));
        }
        assert!(pop.recent.len() <= 4);
    }

    #[test]
    fn population_memory_is_bounded() {
        let bounds = PopulationBounds {
            max_files: 64,
            reserved_files: 8,
            max_outputs: 16,
            max_access_log: 32,
        };
        let mut pop = FilePopulation::with_bounds(model(), bounds);
        let mut rng = StdRng::seed_from_u64(8);
        let mut plateau = 0;
        for i in 0..10_000u64 {
            pop.choose_input(&mut rng, DataSize::from_mb(1));
            pop.record_output(&mut rng, DataSize::from_mb(2));
            if i == 1_000 {
                plateau = pop.resident_bytes();
            }
        }
        assert!(pop.len() <= 64, "resident files {}", pop.len());
        assert!(pop.outputs.len() <= 16);
        assert!(pop.access_log.len() <= 32);
        // Resident footprint stops growing once every cap is reached:
        // 10x more activity, identical memory.
        assert_eq!(pop.resident_bytes(), plateau);
        // …while distinct-file creation keeps counting.
        assert!(pop.created() > 64 * 4, "created {}", pop.created());
    }

    #[test]
    fn recycling_preserves_reference_head() {
        let bounds = PopulationBounds {
            max_files: 16,
            reserved_files: 4,
            max_outputs: 8,
            max_access_log: 8,
        };
        let mut pop = FilePopulation::with_bounds(model(), bounds);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..2_000u64 {
            pop.choose_input(&mut rng, DataSize::from_kb(1));
        }
        // The protected head keeps the very first files resident: their
        // ids are the original small ids, never recycled.
        for (slot, f) in pop.files.iter().take(4).enumerate() {
            assert!(
                f.id.0 < 4,
                "reserved slot {slot} was recycled to id {}",
                f.id.0
            );
        }
    }

    #[test]
    fn consumed_outputs_come_from_written_files() {
        let mut pop = FilePopulation::new(AccessModel {
            p_reread_input: 0.0,
            p_consume_output: 1.0,
            p_recent: 0.0,
            recency_window: 8,
            zipf_exponent: 1.0,
            p_overwrite_output: 0.0,
        });
        let mut rng = StdRng::seed_from_u64(7);
        let out = pop.record_output(&mut rng, DataSize::from_mb(1));
        let (id, choice) = pop.choose_input(&mut rng, DataSize::from_mb(1));
        assert_eq!(choice, InputChoice::ConsumedOutput);
        assert_eq!(id, out);
    }
}
