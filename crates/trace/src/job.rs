//! The [`Job`] record: one per-job summary line of a MapReduce trace.

use crate::path::PathId;
use crate::size::DataSize;
use crate::time::{Dur, Timestamp};
use crate::TraceError;
use std::fmt;

/// Numerical job key, unique within one trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job_{:07}", self.0)
    }
}

/// Submission framework a job originated from, recovered from job-name
/// conventions exactly as §6.1 does (Hive and Pig auto-generate names;
/// Oozie launchers are identifiable; everything else is native MapReduce
/// or unknown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Framework {
    /// Hive query (names beginning `insert`, `select`, `from`, …).
    Hive,
    /// Pig script (names beginning `piglatin`, …).
    Pig,
    /// Oozie workflow launcher.
    Oozie,
    /// Hand-written (or otherwise unattributed) native MapReduce.
    Native,
}

impl Framework {
    /// All variants, in display order (Fig. 10 legend order).
    pub const ALL: [Framework; 4] = [
        Framework::Hive,
        Framework::Pig,
        Framework::Oozie,
        Framework::Native,
    ];

    /// Short lowercase label.
    pub const fn label(self) -> &'static str {
        match self {
            Framework::Hive => "hive",
            Framework::Pig => "pig",
            Framework::Oozie => "oozie",
            Framework::Native => "native",
        }
    }
}

impl fmt::Display for Framework {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One per-job trace record (the §3 schema).
///
/// All data dimensions the paper analyzes are present; fields the original
/// traces sometimes lack (paths, names) are `Option`/empty to model exactly
/// the availability matrix in §4.2 ("FB-2009 and CC-a do not contain path
/// names; FB-2010 contains input paths only").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// Unique numerical key.
    pub id: JobId,
    /// User- or framework-supplied name ("insert", "piglatin", "ad", …).
    /// Empty when the trace lacks names (FB-2010).
    pub name: String,
    /// Submit time relative to trace epoch.
    pub submit: Timestamp,
    /// Wall-clock duration from submit to completion.
    pub duration: Dur,
    /// Map-stage input bytes.
    pub input: DataSize,
    /// Shuffle (map→reduce intermediate) bytes; zero for map-only jobs.
    pub shuffle: DataSize,
    /// Reduce-stage output bytes (or map output for map-only jobs).
    pub output: DataSize,
    /// Total map task-time in slot-seconds (sum over map tasks).
    pub map_task_time: Dur,
    /// Total reduce task-time in slot-seconds; zero for map-only jobs.
    pub reduce_task_time: Dur,
    /// Number of map tasks.
    pub map_tasks: u32,
    /// Number of reduce tasks (0 for map-only jobs).
    pub reduce_tasks: u32,
    /// Input file paths read, when the trace exposes them.
    pub input_paths: Vec<PathId>,
    /// Output file paths written, when the trace exposes them.
    pub output_paths: Vec<PathId>,
}

impl Job {
    /// Total bytes moved by this job: input + shuffle + output. This is the
    /// "bytes moved" measure of Table 1 and the I/O weight of Figs. 7/10.
    #[inline]
    pub fn total_io(&self) -> DataSize {
        self.input + self.shuffle + self.output
    }

    /// Total task-time (map + reduce slot-seconds): the compute weight of
    /// Figs. 7/8/10.
    #[inline]
    pub fn total_task_time(&self) -> Dur {
        self.map_task_time + self.reduce_task_time
    }

    /// `true` iff the job has no reduce stage (§6.2's map-only jobs).
    #[inline]
    pub fn is_map_only(&self) -> bool {
        self.reduce_tasks == 0 && self.shuffle.is_zero()
    }

    /// Completion instant (`submit + duration`).
    #[inline]
    pub fn finish(&self) -> Timestamp {
        self.submit + self.duration
    }

    /// First word of the job name, lowercased, with digits and symbols
    /// stripped — the §6.1 grouping key. `None` for unnamed jobs.
    pub fn name_first_word(&self) -> Option<String> {
        first_word(&self.name)
    }

    /// The six-dimensional feature vector the paper clusters in §6.2:
    /// `[input, shuffle, output, duration, map_task_time, reduce_task_time]`.
    #[inline]
    pub fn feature_vector(&self) -> [f64; 6] {
        [
            self.input.as_f64(),
            self.shuffle.as_f64(),
            self.output.as_f64(),
            self.duration.as_f64(),
            self.map_task_time.as_f64(),
            self.reduce_task_time.as_f64(),
        ]
    }

    /// Validate internal consistency. Generators and codecs funnel through
    /// this before a job enters a [`crate::Trace`].
    pub fn validate(&self) -> Result<(), TraceError> {
        let fail = |reason: String| {
            Err(TraceError::InvalidJob {
                job: Some(self.id.0),
                reason,
            })
        };
        if self.map_tasks == 0 && self.reduce_tasks == 0 {
            return fail("job has zero tasks".into());
        }
        if self.map_tasks == 0 && !self.map_task_time.is_zero() {
            return fail("map task-time without map tasks".into());
        }
        if self.reduce_tasks == 0 && !self.reduce_task_time.is_zero() {
            return fail("reduce task-time without reduce tasks".into());
        }
        if self.reduce_tasks == 0 && !self.shuffle.is_zero() {
            return fail("shuffle bytes without reduce tasks".into());
        }
        Ok(())
    }
}

/// Extract the §6.1 grouping key from a raw job name: the first
/// whitespace/`_`/`-`-delimited word, lowercased, with digits and
/// non-alphabetic characters removed. Returns `None` when nothing
/// alphabetic remains.
pub fn first_word(name: &str) -> Option<String> {
    let token = name
        .split(|c: char| c.is_whitespace() || c == '_' || c == '-' || c == '.' || c == ':')
        .find(|t| !t.is_empty())?;
    let word: String = token
        .chars()
        .filter(|c| c.is_ascii_alphabetic())
        .map(|c| c.to_ascii_lowercase())
        .collect();
    if word.is_empty() {
        None
    } else {
        Some(word)
    }
}

/// Builder for [`Job`], used pervasively by generators and tests.
///
/// Defaults: one map task, zero reduce tasks, everything else zero/empty.
/// [`JobBuilder::build`] runs [`Job::validate`].
#[derive(Debug, Clone)]
pub struct JobBuilder {
    job: Job,
}

impl JobBuilder {
    /// Start building a job with the given id.
    pub fn new(id: u64) -> Self {
        JobBuilder {
            job: Job {
                id: JobId(id),
                name: String::new(),
                submit: Timestamp::ZERO,
                duration: Dur::ZERO,
                input: DataSize::ZERO,
                shuffle: DataSize::ZERO,
                output: DataSize::ZERO,
                map_task_time: Dur::ZERO,
                reduce_task_time: Dur::ZERO,
                map_tasks: 1,
                reduce_tasks: 0,
                input_paths: Vec::new(),
                output_paths: Vec::new(),
            },
        }
    }

    /// Set the job name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.job.name = name.into();
        self
    }

    /// Set the submit time.
    pub fn submit(mut self, t: Timestamp) -> Self {
        self.job.submit = t;
        self
    }

    /// Set the wall-clock duration.
    pub fn duration(mut self, d: Dur) -> Self {
        self.job.duration = d;
        self
    }

    /// Set input bytes.
    pub fn input(mut self, s: DataSize) -> Self {
        self.job.input = s;
        self
    }

    /// Set shuffle bytes.
    pub fn shuffle(mut self, s: DataSize) -> Self {
        self.job.shuffle = s;
        self
    }

    /// Set output bytes.
    pub fn output(mut self, s: DataSize) -> Self {
        self.job.output = s;
        self
    }

    /// Set map task-time (slot-seconds).
    pub fn map_task_time(mut self, d: Dur) -> Self {
        self.job.map_task_time = d;
        self
    }

    /// Set reduce task-time (slot-seconds).
    pub fn reduce_task_time(mut self, d: Dur) -> Self {
        self.job.reduce_task_time = d;
        self
    }

    /// Set map/reduce task counts.
    pub fn tasks(mut self, map: u32, reduce: u32) -> Self {
        self.job.map_tasks = map;
        self.job.reduce_tasks = reduce;
        self
    }

    /// Set input paths.
    pub fn input_paths(mut self, paths: Vec<PathId>) -> Self {
        self.job.input_paths = paths;
        self
    }

    /// Set output paths.
    pub fn output_paths(mut self, paths: Vec<PathId>) -> Self {
        self.job.output_paths = paths;
        self
    }

    /// Validate and produce the job.
    pub fn build(self) -> Result<Job, TraceError> {
        self.job.validate()?;
        Ok(self.job)
    }

    /// Produce the job without validation (test/bench escape hatch for
    /// deliberately malformed records).
    pub fn build_unchecked(self) -> Job {
        self.job
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_job() -> Job {
        JobBuilder::new(1)
            .name("insert_overwrite_t1")
            .submit(Timestamp::from_secs(100))
            .duration(Dur::from_secs(39))
            .input(DataSize::from_mb(51))
            .output(DataSize::from_mb(4))
            .map_task_time(Dur::from_secs(33))
            .tasks(1, 0)
            .build()
            .unwrap()
    }

    #[test]
    fn total_io_sums_three_stages() {
        let j = JobBuilder::new(1)
            .input(DataSize::from_mb(10))
            .shuffle(DataSize::from_mb(5))
            .output(DataSize::from_mb(1))
            .tasks(2, 1)
            .build()
            .unwrap();
        assert_eq!(j.total_io(), DataSize::from_mb(16));
    }

    #[test]
    fn map_only_detection() {
        assert!(small_job().is_map_only());
        let j = JobBuilder::new(2)
            .shuffle(DataSize::from_mb(1))
            .tasks(1, 1)
            .build()
            .unwrap();
        assert!(!j.is_map_only());
    }

    #[test]
    fn finish_is_submit_plus_duration() {
        assert_eq!(small_job().finish(), Timestamp::from_secs(139));
    }

    #[test]
    fn first_word_strips_digits_and_case() {
        assert_eq!(first_word("Insert_overwrite"), Some("insert".into()));
        assert_eq!(first_word("PigLatin:job42"), Some("piglatin".into()));
        assert_eq!(first_word("ad-hoc 2011"), Some("ad".into()));
        assert_eq!(first_word("  oozie:launcher "), Some("oozie".into()));
        assert_eq!(first_word("12345"), None);
        assert_eq!(first_word(""), None);
    }

    #[test]
    fn validation_rejects_inconsistencies() {
        assert!(JobBuilder::new(1).tasks(0, 0).build().is_err());
        assert!(JobBuilder::new(2)
            .tasks(1, 0)
            .reduce_task_time(Dur::from_secs(5))
            .build()
            .is_err());
        assert!(JobBuilder::new(3)
            .tasks(1, 0)
            .shuffle(DataSize::from_kb(1))
            .build()
            .is_err());
        assert!(JobBuilder::new(4)
            .tasks(0, 1)
            .map_task_time(Dur::from_secs(5))
            .build()
            .is_err());
    }

    #[test]
    fn feature_vector_order_matches_table2() {
        let j = JobBuilder::new(1)
            .input(DataSize::from_bytes(1))
            .shuffle(DataSize::from_bytes(2))
            .output(DataSize::from_bytes(3))
            .duration(Dur::from_secs(4))
            .map_task_time(Dur::from_secs(5))
            .reduce_task_time(Dur::from_secs(6))
            .tasks(1, 1)
            .build()
            .unwrap();
        assert_eq!(j.feature_vector(), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn framework_labels() {
        assert_eq!(Framework::Hive.to_string(), "hive");
        assert_eq!(Framework::ALL.len(), 4);
    }

    #[test]
    fn job_id_display_zero_pads() {
        assert_eq!(JobId(42).to_string(), "job_0000042");
    }
}
