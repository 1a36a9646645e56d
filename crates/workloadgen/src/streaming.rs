//! Chunk-at-a-time trace generation in bounded memory.
//!
//! [`WorkloadGenerator::generate`](crate::WorkloadGenerator::generate)
//! materializes the whole trace — fine for the CC workloads, hopeless for
//! paper-scale FB traces (>1 M jobs full-scale, 100 M+ for corpus work).
//! [`StreamingGenerator`] produces the *same jobs* as an iterator of
//! `Vec<Job>` chunks with O(chunk) resident memory:
//!
//! * the arrival process streams hour by hour
//!   ([`ArrivalStream`]), emitting sorted
//!   within-hour offsets via the O(1) ascending order-statistics
//!   recurrence instead of a global sort;
//! * the file population is bounded
//!   ([`PopulationBounds`]) — rings over
//!   the recent access history plus a protected reference head;
//! * the name vocabulary and job-type mixture were already O(1).
//!
//! ## Determinism
//!
//! The master seed is split into two independent RNG streams with a
//! splitmix64 finalizer: one drives the arrival process, one the per-job
//! bodies (type mixture, names, file accesses). Chunk boundaries never
//! touch either stream, so the concatenation of emitted chunks is
//! **bit-identical for a given seed regardless of chunk size**, and equal
//! to the one-shot `generate()` path (which now delegates here). This is
//! pinned by proptests over chunk sizes {1, 7, 4096}.
//!
//! ## Drafts
//!
//! Sampling and building are two steps.
//! [`StreamingGenerator::next_drafts`] does all the sampling and yields
//! heap-free [`JobDraft`]s; [`JobDraft::into_job`] renders the name and
//! wraps the paths. `next_chunk` is the one composed of the other, so a
//! consumer that samples on one thread and builds on another (the
//! scenario layer) runs the same code as `generate()`.

use crate::arrival::ArrivalStream;
use crate::draft::JobDraft;
use crate::files::{FilePopulation, PopulationBounds};
use crate::generator::{GeneratorConfig, GeneratorError};
use crate::jobtypes::JobTypeMix;
use crate::naming::NameVocabulary;
use crate::profiles::WorkloadProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use swim_obs::Counter;
use swim_trace::{DataSize, Dur, Job, Timestamp, Trace};

/// Default number of jobs per emitted chunk: large enough to amortize
/// per-chunk overhead, small enough that a chunk of fat jobs stays well
/// under a megabyte.
pub const DEFAULT_CHUNK: usize = 8_192;

static JOBS_GENERATED: Counter = Counter::new("workloadgen.jobs");
static CHUNKS_EMITTED: Counter = Counter::new("workloadgen.chunks");

/// splitmix64 finalizer — derives statistically independent sub-seeds
/// from the master seed so the arrival and body streams cannot alias
/// (the classic trick for seeding multiple streams from one seed).
fn derive_seed(master: u64, stream: u64) -> u64 {
    let mut z = master
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Running totals of everything emitted so far — the generator's
/// *declared statistics*. After streaming into a catalog, the catalog's
/// `summary()` must agree with these exactly (asserted by the scenario
/// acceptance tests).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GenerationStats {
    /// Jobs emitted.
    pub jobs: u64,
    /// Σ (input + shuffle + output) over emitted jobs, saturating.
    pub bytes_moved: DataSize,
    /// Σ (map + reduce task-time) over emitted jobs, saturating.
    pub task_time: Dur,
    /// Submit time of the first emitted job.
    pub first_submit: Option<Timestamp>,
    /// Submit time of the last emitted job.
    pub last_submit: Option<Timestamp>,
}

impl GenerationStats {
    /// Fold one emitted job into the totals.
    pub fn observe(&mut self, job: &Job) {
        self.record(job.submit, job.total_io(), job.total_task_time());
    }

    fn record(&mut self, submit: Timestamp, bytes_moved: DataSize, task_time: Dur) {
        self.jobs += 1;
        self.bytes_moved += bytes_moved;
        self.task_time += task_time;
        if self.first_submit.is_none() {
            self.first_submit = Some(submit);
        }
        self.last_submit = Some(submit);
    }

    /// First-to-last submit span of the emitted jobs (zero when empty).
    pub fn span(&self) -> Dur {
        match (self.first_submit, self.last_submit) {
            (Some(a), Some(b)) => b.since(a),
            _ => Dur::ZERO,
        }
    }
}

/// Chunk-at-a-time synthetic trace generator; see the module docs.
///
/// Implements `Iterator<Item = Vec<Job>>`; every yielded chunk holds at
/// most `chunk_size` jobs in ascending submit order with sequential ids,
/// and consecutive chunks continue seamlessly (the concatenation is a
/// valid trace).
#[derive(Debug)]
pub struct StreamingGenerator {
    profile: WorkloadProfile,
    arrivals: ArrivalStream,
    body_rng: StdRng,
    mix: JobTypeMix,
    vocab: NameVocabulary,
    files: FilePopulation,
    heavy: Vec<bool>,
    small_type: usize,
    chunk_size: usize,
    max_jobs: Option<u64>,
    stats: GenerationStats,
    done: bool,
}

impl StreamingGenerator {
    /// Build a streaming generator for one of the paper's seven
    /// workloads, validating the config.
    pub fn new(config: GeneratorConfig) -> Result<StreamingGenerator, GeneratorError> {
        let profile = WorkloadProfile::for_kind(&config.kind)
            .ok_or_else(|| GeneratorError::UnknownWorkload(config.kind.label().to_owned()))?;
        StreamingGenerator::from_profile(config, profile)
    }

    /// Build a streaming generator from an explicit (custom) profile,
    /// validating the config's numeric fields.
    pub fn from_profile(
        config: GeneratorConfig,
        profile: WorkloadProfile,
    ) -> Result<StreamingGenerator, GeneratorError> {
        config.validate()?;
        let days = config.days.unwrap_or(profile.length_days);
        let hours = (days * 24.0).ceil().max(1.0) as u64;
        // When the caller shortens the trace, keep the hourly rate of the
        // full-length trace rather than squeezing all jobs into the window.
        let arrival = profile.arrival_model(config.scale);
        let arrivals = arrival.stream(StdRng::seed_from_u64(derive_seed(config.seed, 0)), hours);
        let body_rng = StdRng::seed_from_u64(derive_seed(config.seed, 1));

        let mix = JobTypeMix::with_sigma(profile.job_types.clone(), config.sigma);
        // A job type is "data heavy" (biases towards high-IO names) when
        // its centroid moves at least 1 GB in total.
        let heavy_threshold = DataSize::from_gb(1);
        let heavy: Vec<bool> = profile
            .job_types
            .iter()
            .map(|t| t.total_io() >= heavy_threshold)
            .collect();
        // Index of the dominant (small-job) type: burst excess is routed
        // here, modelling interactive query storms — analysts submit many
        // small jobs at once; the scheduled heavy pipelines keep their
        // baseline Poisson rate. This decouples jobs/hour from bytes/hour
        // exactly as Fig. 9 reports.
        let small_type = mix.dominant_type();
        let vocab = profile.vocabulary();
        let files = FilePopulation::new(profile.access);

        Ok(StreamingGenerator {
            profile,
            arrivals,
            body_rng,
            mix,
            vocab,
            files,
            heavy,
            small_type,
            chunk_size: DEFAULT_CHUNK,
            max_jobs: None,
            stats: GenerationStats::default(),
            done: false,
        })
    }

    /// Set the chunk size (jobs per yielded block; clamped to ≥ 1).
    /// Chunk size affects memory and batching only — never the jobs.
    pub fn chunk_size(mut self, n: usize) -> Self {
        self.chunk_size = n.max(1);
        self
    }

    /// Hard cap on emitted jobs: generation stops after `n` jobs even if
    /// the arrival process has more to give. The prefix emitted under a
    /// cap is bit-identical to the uncapped stream's first `n` jobs.
    pub fn max_jobs(mut self, n: u64) -> Self {
        self.max_jobs = Some(n);
        self
    }

    /// Memory bounds for the file population (defaults are generous; the
    /// scenario layer tightens them in tests to prove O(1) state).
    pub fn population_bounds(mut self, bounds: PopulationBounds) -> Self {
        // Only valid before the first job: the population must evolve
        // under one set of bounds for determinism to hold.
        debug_assert_eq!(self.stats.jobs, 0, "set bounds before generating");
        self.files = FilePopulation::with_bounds(self.profile.access, bounds);
        self
    }

    /// Running totals over everything emitted so far.
    pub fn stats(&self) -> &GenerationStats {
        &self.stats
    }

    /// Approximate resident heap footprint of the generator state
    /// *excluding* the chunk being assembled — this is the O(1) part that
    /// must not grow with trace length (bounded file population, O(1)
    /// arrival stream, fixed mixture/vocabulary).
    pub fn resident_bytes(&self) -> usize {
        self.files.resident_bytes() + std::mem::size_of::<Self>()
    }

    /// Sample the next block of at most `chunk_size` jobs as heap-free
    /// [`JobDraft`]s, or `None` when the arrival process is exhausted or
    /// the job cap is reached. This is the whole sampling step — every RNG
    /// draw and every state update; [`JobDraft::into_job`] only builds.
    pub fn next_drafts(&mut self) -> Option<Vec<JobDraft>> {
        if self.done {
            return None;
        }
        let _span = swim_obs::span("workloadgen.chunk");
        let mut drafts = Vec::with_capacity(self.chunk_size);
        while drafts.len() < self.chunk_size {
            if self.max_jobs.is_some_and(|cap| self.stats.jobs >= cap) {
                self.done = true;
                break;
            }
            let Some((submit, intensity)) = self.arrivals.next() else {
                self.done = true;
                break;
            };
            drafts.push(self.emit_draft(submit, intensity));
        }
        if drafts.is_empty() {
            return None;
        }
        JOBS_GENERATED.add(drafts.len() as u64);
        CHUNKS_EMITTED.incr();
        Some(drafts)
    }

    /// Emit the next chunk (at most `chunk_size` jobs): the next block of
    /// drafts, built into jobs under the generator's own names and paths.
    pub fn next_chunk(&mut self) -> Option<Vec<Job>> {
        let drafts = self.next_drafts()?;
        Some(drafts.into_iter().map(|d| d.into_job(None)).collect())
    }

    /// One step of the per-job state machine — identical logic to the
    /// historical one-shot generator, driven by the dedicated body stream.
    fn emit_draft(&mut self, submit: Timestamp, intensity: f64) -> JobDraft {
        let rng = &mut self.body_rng;
        let s = if intensity > 1.0 && rng.random::<f64>() < (intensity - 1.0) / intensity {
            // This arrival is burst excess: force the small-job type.
            self.mix.sample_type(rng, self.small_type)
        } else {
            self.mix.sample(rng)
        };
        let (name_word, name_seq) = if self.profile.has_names {
            let (word, seq, _framework) = self.vocab.sample_word(rng, self.heavy[s.type_index]);
            (word, seq)
        } else {
            ("", 0)
        };

        // Attach paths per the availability matrix. The file population
        // is still *updated* for path-less workloads so access dynamics
        // (and downstream caching experiments run on other workloads)
        // stay comparable; the trace just does not expose the ids.
        let (input_path, _) = self.files.choose_input(rng, s.input);
        let output_path = self.files.record_output(rng, s.output);

        let draft = JobDraft {
            id: self.stats.jobs,
            submit,
            duration: s.duration,
            input: s.input,
            shuffle: s.shuffle,
            output: s.output,
            map_task_time: s.map_time,
            reduce_task_time: s.reduce_time,
            map_tasks: s.map_tasks,
            reduce_tasks: s.reduce_tasks,
            name_word,
            name_seq,
            input_path: self.profile.paths.input.then_some(input_path),
            output_path: self.profile.paths.output.then_some(output_path),
        };
        self.stats.record(
            submit,
            s.input + s.shuffle + s.output,
            s.map_time + s.reduce_time,
        );
        draft
    }

    /// Drain the stream into a full in-memory [`Trace`] (the historical
    /// `generate()` behaviour; only sensible at non-paper scales).
    pub fn collect_trace(mut self) -> Trace {
        let mut jobs = Vec::new();
        while let Some(chunk) = self.next_chunk() {
            jobs.extend(chunk);
        }
        let kind = self.profile.kind.clone();
        let machines = self.profile.machines;
        Trace::new(kind, machines, jobs).expect("generator produces valid, unique jobs")
    }
}

impl Iterator for StreamingGenerator {
    type Item = Vec<Job>;

    fn next(&mut self) -> Option<Vec<Job>> {
        self.next_chunk()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swim_trace::trace::WorkloadKind;

    fn config() -> GeneratorConfig {
        GeneratorConfig::new(WorkloadKind::CcE)
            .scale(0.2)
            .days(1.0)
            .seed(5)
    }

    #[test]
    fn chunked_stream_equals_one_shot_generate() {
        let trace = crate::WorkloadGenerator::new(config()).generate();
        for chunk_size in [1usize, 7, 4096] {
            let jobs: Vec<Job> = StreamingGenerator::new(config())
                .expect("valid config")
                .chunk_size(chunk_size)
                .flatten()
                .collect();
            assert_eq!(trace.jobs(), &jobs[..], "chunk size {chunk_size}");
        }
    }

    #[test]
    fn chunks_respect_size_and_order() {
        let mut gen = StreamingGenerator::new(config())
            .expect("valid config")
            .chunk_size(64);
        let mut last = Timestamp::ZERO;
        let mut next_id = 0u64;
        let mut total = 0usize;
        while let Some(chunk) = gen.next_chunk() {
            assert!(chunk.len() <= 64);
            for j in &chunk {
                assert!(j.submit >= last, "submit order broke");
                assert_eq!(j.id.0, next_id, "ids must be sequential");
                last = j.submit;
                next_id += 1;
            }
            total += chunk.len();
        }
        assert!(total > 50, "got {total} jobs");
        assert_eq!(gen.stats().jobs, total as u64);
    }

    #[test]
    fn max_jobs_caps_the_stream_to_a_prefix() {
        let full: Vec<Job> = StreamingGenerator::new(config())
            .expect("valid config")
            .flatten()
            .collect();
        let capped: Vec<Job> = StreamingGenerator::new(config())
            .expect("valid config")
            .max_jobs(25)
            .chunk_size(10)
            .flatten()
            .collect();
        assert_eq!(capped.len(), 25);
        assert_eq!(&full[..25], &capped[..]);
    }

    #[test]
    fn stats_match_emitted_jobs() {
        let mut gen = StreamingGenerator::new(config()).expect("valid config");
        let mut jobs: Vec<Job> = Vec::new();
        while let Some(chunk) = gen.next_chunk() {
            jobs.extend(chunk);
        }
        let stats = gen.stats().clone();
        assert_eq!(stats.jobs, jobs.len() as u64);
        let bytes: DataSize = jobs.iter().map(|j| j.total_io()).sum();
        assert_eq!(stats.bytes_moved, bytes);
        assert_eq!(stats.first_submit, jobs.first().map(|j| j.submit));
        assert_eq!(stats.last_submit, jobs.last().map(|j| j.submit));
    }

    #[test]
    fn invalid_config_is_rejected_with_typed_error() {
        let bad = GeneratorConfig {
            scale: -2.0,
            ..GeneratorConfig::new(WorkloadKind::CcA)
        };
        match StreamingGenerator::new(bad) {
            Err(GeneratorError::InvalidConfig { field, .. }) => assert_eq!(field, "scale"),
            other => panic!("expected InvalidConfig, got {:?}", other.map(|_| ())),
        }
        match StreamingGenerator::new(GeneratorConfig::new(WorkloadKind::Custom("z".into()))) {
            Err(GeneratorError::UnknownWorkload(label)) => assert_eq!(label, "z"),
            other => panic!("expected UnknownWorkload, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn resident_state_does_not_grow_with_trace_length() {
        // Same workload, 4x the length: once the population caps are hit
        // the resident state is identical — O(1) in trace length.
        let bounds = PopulationBounds {
            max_files: 256,
            reserved_files: 32,
            max_outputs: 64,
            max_access_log: 64,
        };
        let measure = |days: f64| {
            let mut gen = StreamingGenerator::new(
                GeneratorConfig::new(WorkloadKind::CcB)
                    .scale(0.5)
                    .days(days)
                    .seed(6),
            )
            .expect("valid config")
            .population_bounds(bounds);
            let mut jobs = 0u64;
            while let Some(chunk) = gen.next_chunk() {
                jobs += chunk.len() as u64;
            }
            (jobs, gen.resident_bytes())
        };
        let (jobs_short, bytes_short) = measure(0.5);
        let (jobs_long, bytes_long) = measure(2.0);
        assert!(jobs_long > 2 * jobs_short, "{jobs_long} vs {jobs_short}");
        assert_eq!(
            bytes_short, bytes_long,
            "resident state grew with trace length"
        );
    }
}
