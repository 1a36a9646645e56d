//! Hourly multi-dimensional workload time series (§5, Fig. 7).
//!
//! Each submitted job contributes to three submission-side dimensions in
//! its submit hour — job count, aggregate I/O bytes, and aggregate
//! task-time — exactly the first three columns of Fig. 7. (The fourth
//! column, cluster utilization, is an *execution-side* signal produced by
//! `swim-sim` replaying the trace.)

use crate::stats::pearson;
use swim_trace::Trace;

/// Hour-granularity submission time series for one trace.
///
/// ```
/// use swim_core::timeseries::HourlySeries;
/// use swim_trace::trace::WorkloadKind;
/// use swim_trace::{DataSize, Dur, JobBuilder, Timestamp, Trace};
///
/// // Two jobs in hour 0, one in hour 2.
/// let jobs = [0u64, 1800, 7700]
///     .iter()
///     .enumerate()
///     .map(|(id, &secs)| {
///         JobBuilder::new(id as u64)
///             .submit(Timestamp::from_secs(secs))
///             .input(DataSize::from_mb(10))
///             .map_task_time(Dur::from_secs(60))
///             .tasks(1, 0)
///             .build()
///             .unwrap()
///     })
///     .collect();
/// let trace = Trace::new(WorkloadKind::Custom("demo".into()), 4, jobs).unwrap();
///
/// let series = HourlySeries::of(&trace);
/// assert_eq!(series.jobs, vec![2.0, 0.0, 1.0]);
/// assert_eq!(series.task_seconds, vec![120.0, 0.0, 60.0]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HourlySeries {
    /// Jobs submitted per hour.
    pub jobs: Vec<f64>,
    /// Aggregate (input + shuffle + output) bytes of jobs submitted per hour.
    pub bytes: Vec<f64>,
    /// Aggregate (map + reduce) task-seconds of jobs submitted per hour.
    pub task_seconds: Vec<f64>,
}

impl HourlySeries {
    /// Bin a trace into hourly sums, in job order. The series spans from
    /// the trace's first submit hour to its last (inclusive); empty
    /// traces yield empty series.
    pub fn of(trace: &Trace) -> HourlySeries {
        let (Some(start), Some(end)) = (trace.start(), trace.end()) else {
            return HourlySeries::default();
        };
        let first = start.hour_bucket();
        let n = (end.hour_bucket() - first + 1) as usize;
        let mut jobs = vec![0.0; n];
        let mut bytes = vec![0.0; n];
        let mut task_seconds = vec![0.0; n];
        for job in trace.jobs() {
            let h = (job.submit.hour_bucket() - first) as usize;
            jobs[h] += 1.0;
            bytes[h] += job.total_io().as_f64();
            task_seconds[h] += job.total_task_time().as_f64();
        }
        HourlySeries {
            jobs,
            bytes,
            task_seconds,
        }
    }

    /// Number of hour buckets.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// `true` iff the series is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Pairwise Pearson correlations between the three dimensions — the
    /// Fig. 9 bars: `(jobs↔bytes, jobs↔task_seconds, bytes↔task_seconds)`.
    pub fn correlations(&self) -> SeriesCorrelations {
        SeriesCorrelations {
            jobs_bytes: pearson(&self.jobs, &self.bytes),
            jobs_task_seconds: pearson(&self.jobs, &self.task_seconds),
            bytes_task_seconds: pearson(&self.bytes, &self.task_seconds),
        }
    }

    /// Truncate to the first `hours` buckets (Fig. 7 plots one week).
    pub fn truncate(&self, hours: usize) -> HourlySeries {
        HourlySeries {
            jobs: self.jobs.iter().take(hours).copied().collect(),
            bytes: self.bytes.iter().take(hours).copied().collect(),
            task_seconds: self.task_seconds.iter().take(hours).copied().collect(),
        }
    }
}

/// The Fig. 9 correlation triple for one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesCorrelations {
    /// Correlation between jobs/hour and bytes/hour.
    pub jobs_bytes: f64,
    /// Correlation between jobs/hour and task-seconds/hour.
    pub jobs_task_seconds: f64,
    /// Correlation between bytes/hour and task-seconds/hour.
    pub bytes_task_seconds: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use swim_trace::trace::WorkloadKind;
    use swim_trace::{DataSize, Dur, JobBuilder, Timestamp};

    fn job(id: u64, submit_secs: u64, io_mb: u64, task_secs: u64) -> swim_trace::Job {
        JobBuilder::new(id)
            .submit(Timestamp::from_secs(submit_secs))
            .duration(Dur::from_secs(10))
            .input(DataSize::from_mb(io_mb))
            .map_task_time(Dur::from_secs(task_secs))
            .tasks(1, 0)
            .build()
            .unwrap()
    }

    fn trace(jobs: Vec<swim_trace::Job>) -> Trace {
        Trace::new(WorkloadKind::Custom("ts".into()), 1, jobs).unwrap()
    }

    #[test]
    fn bins_align_to_first_hour() {
        // Submits at hour 3 and hour 5 → 3 buckets starting at hour 3.
        let t = trace(vec![job(0, 3 * 3600, 1, 1), job(1, 5 * 3600 + 10, 1, 1)]);
        let s = HourlySeries::of(&t);
        assert_eq!(s.len(), 3);
        assert_eq!(s.jobs, vec![1.0, 0.0, 1.0]);
    }

    #[test]
    fn sums_io_and_task_time() {
        let t = trace(vec![job(0, 0, 100, 50), job(1, 30, 200, 70)]);
        let s = HourlySeries::of(&t);
        assert_eq!(s.len(), 1);
        assert!((s.bytes[0] - 300e6).abs() < 1.0);
        assert_eq!(s.task_seconds[0], 120.0);
    }

    #[test]
    fn empty_trace_yields_empty_series() {
        let s = HourlySeries::of(&trace(vec![]));
        assert!(s.is_empty());
    }

    #[test]
    fn correlations_reflect_construction() {
        // bytes ∝ task_seconds exactly; jobs constant → 0 correlation.
        let s = HourlySeries {
            jobs: vec![1.0, 1.0, 1.0, 1.0],
            bytes: vec![1.0, 2.0, 3.0, 4.0],
            task_seconds: vec![10.0, 20.0, 30.0, 40.0],
        };
        let c = s.correlations();
        assert_eq!(c.jobs_bytes, 0.0);
        assert!((c.bytes_task_seconds - 1.0).abs() < 1e-12);
    }

    #[test]
    fn truncate_caps_length() {
        let t = trace(vec![job(0, 0, 1, 1), job(1, 10 * 3600, 1, 1)]);
        let s = HourlySeries::of(&t).truncate(4);
        assert_eq!(s.len(), 4);
        assert_eq!(s.jobs[0], 1.0);
    }
}
