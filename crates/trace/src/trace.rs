//! The [`Trace`] container: an ordered collection of [`Job`] records plus
//! workload metadata, with the slicing operations the paper's methodology
//! needs (time-range selection, boundary trimming, weekly windows).

use crate::job::{Job, JobId};
use crate::size::DataSize;
use crate::summary::TraceSummary;
use crate::time::{Dur, Timestamp, WEEK};
use crate::TraceError;

/// Identifies which of the paper's seven workloads a trace models, or a
/// custom workload.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// Cloudera customer A (e-commerce; <100 machines, 1 month, 2011).
    CcA,
    /// Cloudera customer B (telecommunications; 300 machines, 9 days, 2011).
    CcB,
    /// Cloudera customer C (700 machines, 1 month, 2011).
    CcC,
    /// Cloudera customer D (400–500 machines, 2+ months, 2011).
    CcD,
    /// Cloudera customer E (100 machines, 9 days, 2011).
    CcE,
    /// Facebook, 2009 snapshot (600 machines, 6 months).
    Fb2009,
    /// Facebook, 2010 snapshot (3000 machines, 1.5 months).
    Fb2010,
    /// Anything else (external logs, synthesized suites, tests).
    Custom(String),
}

impl WorkloadKind {
    /// The five Cloudera + two Facebook workloads, in Table 1 order.
    pub const PAPER_SEVEN: [WorkloadKind; 7] = [
        WorkloadKind::CcA,
        WorkloadKind::CcB,
        WorkloadKind::CcC,
        WorkloadKind::CcD,
        WorkloadKind::CcE,
        WorkloadKind::Fb2009,
        WorkloadKind::Fb2010,
    ];

    /// Short label matching the paper's notation.
    pub fn label(&self) -> &str {
        match self {
            WorkloadKind::CcA => "CC-a",
            WorkloadKind::CcB => "CC-b",
            WorkloadKind::CcC => "CC-c",
            WorkloadKind::CcD => "CC-d",
            WorkloadKind::CcE => "CC-e",
            WorkloadKind::Fb2009 => "FB-2009",
            WorkloadKind::Fb2010 => "FB-2010",
            WorkloadKind::Custom(name) => name,
        }
    }
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// An ordered (by submit time) collection of jobs plus workload metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Which workload this trace represents.
    pub kind: WorkloadKind,
    /// Nominal cluster size in machines (Table 1 column).
    pub machines: u32,
    jobs: Vec<Job>,
}

impl Trace {
    /// Build a trace from jobs, sorting by submit time and validating each
    /// record. Duplicate job ids are rejected.
    pub fn new(kind: WorkloadKind, machines: u32, mut jobs: Vec<Job>) -> Result<Self, TraceError> {
        for job in &jobs {
            job.validate()?;
        }
        jobs.sort_by_key(|j| (j.submit, j.id));
        let mut seen = std::collections::HashSet::with_capacity(jobs.len());
        for job in &jobs {
            if !seen.insert(job.id) {
                return Err(TraceError::InvalidTrace(format!(
                    "duplicate job id {}",
                    job.id
                )));
            }
        }
        Ok(Trace {
            kind,
            machines,
            jobs,
        })
    }

    /// Build without per-job validation (codecs validate separately; tests
    /// construct edge cases). Jobs are still sorted by submit time; jobs
    /// already in order are not, so no sort buffer is allocated for them.
    pub fn new_unchecked(kind: WorkloadKind, machines: u32, mut jobs: Vec<Job>) -> Self {
        if !jobs.is_sorted_by_key(|j| (j.submit, j.id)) {
            jobs.sort_by_key(|j| (j.submit, j.id));
        }
        Trace {
            kind,
            machines,
            jobs,
        }
    }

    /// The jobs, in non-decreasing submit-time order.
    #[inline]
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// The jobs, owned, in non-decreasing submit-time order.
    pub fn into_jobs(self) -> Vec<Job> {
        self.jobs
    }

    /// Number of jobs.
    #[inline]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// `true` iff the trace holds no jobs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Look up a job by id (O(n); traces are analyzed in bulk, not point-queried).
    pub fn job(&self, id: JobId) -> Option<&Job> {
        self.jobs.iter().find(|j| j.id == id)
    }

    /// Earliest submit time, or `None` for an empty trace.
    pub fn start(&self) -> Option<Timestamp> {
        self.jobs.first().map(|j| j.submit)
    }

    /// Latest submit time, or `None` for an empty trace.
    pub fn end(&self) -> Option<Timestamp> {
        self.jobs.last().map(|j| j.submit)
    }

    /// Trace length measured submit-to-submit.
    pub fn span(&self) -> Dur {
        match (self.start(), self.end()) {
            (Some(s), Some(e)) => e.since(s),
            _ => Dur::ZERO,
        }
    }

    /// Total bytes moved: Σ (input + shuffle + output) over all jobs — the
    /// Table 1 "bytes moved" definition.
    pub fn bytes_moved(&self) -> DataSize {
        self.jobs.iter().map(|j| j.total_io()).sum()
    }

    /// Total task-time over all jobs.
    pub fn total_task_time(&self) -> Dur {
        self.jobs.iter().map(|j| j.total_task_time()).sum()
    }

    /// Jobs submitted in `[from, to)`, preserving order, as a new trace.
    ///
    /// This is the "time-range selection of per-job history logs" used to
    /// obtain the original traces (§3).
    pub fn select_range(&self, from: Timestamp, to: Timestamp) -> Trace {
        let jobs = self
            .jobs
            .iter()
            .filter(|j| j.submit >= from && j.submit < to)
            .cloned()
            .collect();
        Trace {
            kind: self.kind.clone(),
            machines: self.machines,
            jobs,
        }
    }

    /// Drop jobs straddling the trace boundaries: any job whose execution
    /// window is not fully inside `[start + margin, end - margin]`.
    ///
    /// §3 notes "inaccuracies at trace start and termination, due to partial
    /// information for jobs straddling the trace boundaries"; trimming with a
    /// margin of the longest plausible job removes them.
    #[cfg(test)]
    pub(crate) fn trim_boundaries(&self, margin: Dur) -> Trace {
        let (Some(start), Some(end)) = (self.start(), self.end()) else {
            return self.clone();
        };
        let lo = start + margin;
        let hi = end - margin;
        let jobs = self
            .jobs
            .iter()
            .filter(|j| j.submit >= lo && j.finish() <= hi)
            .cloned()
            .collect();
        Trace {
            kind: self.kind.clone(),
            machines: self.machines,
            jobs,
        }
    }

    /// The first full week of the trace (Fig. 7 analysis window), starting
    /// at the first submit. Returns the whole trace if shorter than a week.
    pub fn first_week(&self) -> Trace {
        match self.start() {
            Some(s) => self.select_range(s, s + Dur::from_secs(WEEK)),
            None => self.clone(),
        }
    }

    /// Merge another trace into this one (multiplexed-workload experiments,
    /// §5.2's "multiplexing many workloads decreases burstiness"). Job ids
    /// of `other` are offset to stay unique.
    pub fn merge(&self, other: &Trace) -> Trace {
        let offset = self
            .jobs
            .iter()
            .map(|j| j.id.0)
            .max()
            .map(|m| m + 1)
            .unwrap_or(0);
        let mut jobs = self.jobs.clone();
        jobs.extend(other.jobs.iter().cloned().map(|mut j| {
            j.id = JobId(j.id.0 + offset);
            j
        }));
        Trace::new_unchecked(
            WorkloadKind::Custom(format!("{}+{}", self.kind, other.kind)),
            self.machines + other.machines,
            jobs,
        )
    }

    /// Summarize into a Table 1 row.
    pub fn summary(&self) -> TraceSummary {
        TraceSummary::of(self)
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Job;
    type IntoIter = std::slice::Iter<'a, Job>;
    fn into_iter(self) -> Self::IntoIter {
        self.jobs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobBuilder;

    fn job(id: u64, submit: u64, dur: u64) -> Job {
        JobBuilder::new(id)
            .submit(Timestamp::from_secs(submit))
            .duration(Dur::from_secs(dur))
            .input(DataSize::from_mb(1))
            .map_task_time(Dur::from_secs(dur))
            .tasks(1, 0)
            .build()
            .unwrap()
    }

    fn trace(jobs: Vec<Job>) -> Trace {
        Trace::new(WorkloadKind::Custom("test".into()), 10, jobs).unwrap()
    }

    #[test]
    fn jobs_are_sorted_by_submit() {
        let t = trace(vec![job(2, 50, 1), job(1, 10, 1), job(3, 30, 1)]);
        let submits: Vec<u64> = t.jobs().iter().map(|j| j.submit.secs()).collect();
        assert_eq!(submits, vec![10, 30, 50]);
    }

    #[test]
    fn duplicate_ids_rejected() {
        let r = Trace::new(
            WorkloadKind::Custom("t".into()),
            1,
            vec![job(1, 0, 1), job(1, 5, 1)],
        );
        assert!(r.is_err());
    }

    #[test]
    fn span_and_bytes_moved() {
        let t = trace(vec![job(1, 0, 1), job(2, 100, 1)]);
        assert_eq!(t.span(), Dur::from_secs(100));
        assert_eq!(t.bytes_moved(), DataSize::from_mb(2));
    }

    #[test]
    fn select_range_is_half_open() {
        let t = trace(vec![job(1, 0, 1), job(2, 10, 1), job(3, 20, 1)]);
        let s = t.select_range(Timestamp::from_secs(0), Timestamp::from_secs(20));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn trim_boundaries_drops_straddlers() {
        // Job 2 finishes past end-margin; job 1 starts before start+margin.
        let t = trace(vec![
            job(1, 0, 1),
            job(2, 95, 20),
            job(3, 50, 1),
            job(4, 100, 1),
        ]);
        let trimmed = t.trim_boundaries(Dur::from_secs(10));
        let ids: Vec<u64> = trimmed.jobs().iter().map(|j| j.id.0).collect();
        assert_eq!(ids, vec![3]);
    }

    proptest::proptest! {
        #[test]
        fn trim_boundaries_never_grows(
            spans in proptest::collection::vec((0u64..1_000_000_000, 1u64..100_000), 1..30),
            margin in 0u64..10_000,
        ) {
            let jobs = spans.iter().enumerate();
            let t = trace(jobs.map(|(id, &(submit, dur))| job(id as u64, submit, dur)).collect());
            let trimmed = t.trim_boundaries(Dur::from_secs(margin));
            proptest::prop_assert!(trimmed.len() <= t.len());
        }
    }

    #[test]
    fn trim_empty_trace_is_noop() {
        let t = trace(vec![]);
        assert!(t.trim_boundaries(Dur::from_secs(10)).is_empty());
    }

    #[test]
    fn first_week_caps_at_seven_days() {
        let t = trace(vec![job(1, 0, 1), job(2, WEEK - 1, 1), job(3, WEEK + 5, 1)]);
        assert_eq!(t.first_week().len(), 2);
    }

    #[test]
    fn merge_offsets_ids_and_sums_machines() {
        let a = trace(vec![job(1, 0, 1), job(2, 10, 1)]);
        let b = trace(vec![job(1, 5, 1)]);
        let m = a.merge(&b);
        assert_eq!(m.len(), 3);
        assert_eq!(m.machines, 20);
        let mut ids: Vec<u64> = m.jobs().iter().map(|j| j.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 4]); // offset = max(1,2)+1 = 3; 1+3 = 4
    }

    #[test]
    fn workload_kind_labels_match_paper() {
        let labels: Vec<&str> = WorkloadKind::PAPER_SEVEN
            .iter()
            .map(|k| k.label())
            .collect();
        assert_eq!(
            labels,
            vec!["CC-a", "CC-b", "CC-c", "CC-d", "CC-e", "FB-2009", "FB-2010"]
        );
    }

    #[test]
    fn job_lookup_by_id() {
        let t = trace(vec![job(7, 0, 1)]);
        assert!(t.job(JobId(7)).is_some());
        assert!(t.job(JobId(8)).is_none());
    }
}
