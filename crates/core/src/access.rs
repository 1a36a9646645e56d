//! Data access pattern analysis (§4.2): file access frequency skew, the
//! Zipf rank–frequency fit of Fig. 2, the jobs-vs-file-size and
//! stored-bytes-vs-file-size CDFs of Figs. 3–4, and the 80-X rule.

use crate::stats::{ols, Regression};
use std::collections::HashMap;
use swim_trace::{DataSize, Job, PathId};

/// Which stage's paths to analyze.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathStage {
    /// Job input files.
    Input,
    /// Job output files.
    Output,
}

/// Per-file access statistics for one stage of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct FileAccessStats {
    /// Which stage was analyzed.
    pub stage: PathStage,
    /// Access counts sorted descending (rank 1 first) — the Fig. 2 series.
    pub frequencies: Vec<u64>,
    /// Per-file (size, access-count) pairs, used for the Figs. 3–4 CDFs.
    pub file_sizes: Vec<(DataSize, u64)>,
}

impl FileAccessStats {
    /// Number of distinct files.
    pub fn distinct_files(&self) -> usize {
        self.frequencies.len()
    }

    /// Total accesses.
    pub fn total_accesses(&self) -> u64 {
        self.frequencies.iter().sum()
    }

    /// Fit the log-log rank–frequency line (Fig. 2). The paper reports the
    /// *magnitude* of the slope ≈ 5/6 on every workload; this returns the
    /// regression of `ln(freq)` on `ln(rank)`, whose slope is negative.
    ///
    /// `max_rank` truncates the fit to the head of the distribution, where
    /// frequencies are statistically meaningful (the tail of rank-1-count
    /// files flattens any finite sample; the paper's log-log lines are
    /// likewise dominated by the head).
    pub fn zipf_fit(&self, max_rank: Option<usize>) -> Option<Regression> {
        let cap = max_rank.unwrap_or(usize::MAX).min(self.frequencies.len());
        let pts: Vec<(f64, f64)> = self
            .frequencies
            .iter()
            .take(cap)
            .enumerate()
            .filter(|(_, &f)| f > 0)
            .map(|(i, &f)| (((i + 1) as f64).ln(), (f as f64).ln()))
            .collect();
        ols(&pts)
    }

    /// The 80-X rule (§4.2): the percentage X of stored bytes reached by
    /// the bytes-CDF (Fig. 3/4 bottom) at the file size where the
    /// jobs-CDF (top) reaches `access_fraction`. The paper measures X
    /// between 1 and 8 across workloads ("80-1 to 80-8 rule").
    ///
    /// Operationally: find the smallest file size `S` such that at least
    /// `access_fraction` of accesses touch files of size ≤ `S`, then
    /// report what share of stored bytes lives in files of size ≤ `S`.
    pub fn eighty_x_rule(&self, access_fraction: f64) -> Option<f64> {
        if self.file_sizes.is_empty() {
            return None;
        }
        let total_accesses: u64 = self.file_sizes.iter().map(|&(_, c)| c).sum();
        let total_bytes: f64 = self.file_sizes.iter().map(|&(s, _)| s.as_f64()).sum();
        if total_accesses == 0 || total_bytes == 0.0 {
            return None;
        }
        let mut by_size: Vec<&(DataSize, u64)> = self.file_sizes.iter().collect();
        by_size.sort_by_key(|&&(s, _)| s);
        let target = access_fraction * total_accesses as f64;
        let mut accesses = 0.0;
        let mut bytes = 0.0;
        for &(size, count) in by_size {
            accesses += count as f64;
            bytes += size.as_f64();
            if accesses >= target {
                break;
            }
        }
        Some(100.0 * bytes / total_bytes)
    }

    /// Fraction of stored bytes held by files smaller than `threshold` —
    /// the §4.2 "90 % of jobs access files … accounting for up to only
    /// 16 % of bytes stored" viability argument for threshold caching.
    pub fn bytes_fraction_below(&self, threshold: DataSize) -> f64 {
        let total: f64 = self.file_sizes.iter().map(|&(s, _)| s.as_f64()).sum();
        if total == 0.0 {
            return 0.0;
        }
        let below: f64 = self
            .file_sizes
            .iter()
            .filter(|&&(s, _)| s < threshold)
            .map(|&(s, _)| s.as_f64())
            .sum();
        below / total
    }

    /// Fraction of accesses that touch files smaller than `threshold`.
    pub fn access_fraction_below(&self, threshold: DataSize) -> f64 {
        let total: u64 = self.file_sizes.iter().map(|&(_, c)| c).sum();
        if total == 0 {
            return 0.0;
        }
        let below: u64 = self
            .file_sizes
            .iter()
            .filter(|&&(s, _)| s < threshold)
            .map(|&(_, c)| c)
            .sum();
        below as f64 / total as f64
    }
}

/// [`FileAccessStats`] of one stage, a job at a time: push every job in
/// trace order, then [`AccessFold::finish`]. Jobs without paths for the
/// stage are skipped (matching the paper's availability matrix); a
/// file's size is the job data size at first touch. Holds one entry per
/// distinct file.
#[derive(Debug, Clone)]
pub struct AccessFold {
    stage: PathStage,
    /// Per file: the job data size at first touch, and the access count.
    files: HashMap<PathId, (DataSize, u64)>,
}

impl AccessFold {
    /// An empty fold over one stage's paths.
    pub fn new(stage: PathStage) -> AccessFold {
        AccessFold {
            stage,
            files: HashMap::new(),
        }
    }

    /// Count the next job's accesses.
    pub fn push(&mut self, job: &Job) {
        let (paths, size) = match self.stage {
            PathStage::Input => (&job.input_paths, job.input),
            PathStage::Output => (&job.output_paths, job.output),
        };
        for &p in paths {
            self.files.entry(p).or_insert((size, 0)).1 += 1;
        }
    }

    /// The statistics of every job pushed.
    pub fn finish(self) -> FileAccessStats {
        let mut frequencies: Vec<u64> = self.files.values().map(|&(_, n)| n).collect();
        frequencies.sort_unstable_by(|a, b| b.cmp(a));
        FileAccessStats {
            stage: self.stage,
            frequencies,
            file_sizes: self.files.into_values().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swim_trace::trace::WorkloadKind;
    use swim_trace::{Dur, JobBuilder, Timestamp, Trace};

    fn gather(trace: &Trace, stage: PathStage) -> FileAccessStats {
        let mut fold = AccessFold::new(stage);
        trace.jobs().iter().for_each(|job| fold.push(job));
        fold.finish()
    }

    /// Trace where file p0 is read by 8 jobs, p1 by 2, p2 by 1; p0 is tiny,
    /// p2 is huge.
    fn skewed_trace() -> Trace {
        let mut jobs = Vec::new();
        let mut id = 0u64;
        let mut push = |path: u64, size: DataSize, jobs: &mut Vec<_>, times: usize| {
            for _ in 0..times {
                jobs.push(
                    JobBuilder::new(id)
                        .submit(Timestamp::from_secs(id * 10))
                        .duration(Dur::from_secs(5))
                        .input(size)
                        .map_task_time(Dur::from_secs(1))
                        .tasks(1, 0)
                        .input_paths(vec![PathId(path)])
                        .build()
                        .unwrap(),
                );
                id += 1;
            }
        };
        push(0, DataSize::from_mb(1), &mut jobs, 8);
        push(1, DataSize::from_gb(1), &mut jobs, 2);
        push(2, DataSize::from_tb(1), &mut jobs, 1);
        Trace::new(WorkloadKind::Custom("skew".into()), 1, jobs).unwrap()
    }

    #[test]
    fn gather_counts_and_ranks() {
        let s = gather(&skewed_trace(), PathStage::Input);
        assert_eq!(s.distinct_files(), 3);
        assert_eq!(s.total_accesses(), 11);
        assert_eq!(s.frequencies, vec![8, 2, 1]);
    }

    #[test]
    fn output_stage_empty_when_no_output_paths() {
        let s = gather(&skewed_trace(), PathStage::Output);
        assert_eq!(s.distinct_files(), 0);
        assert!(s.zipf_fit(None).is_none());
    }

    #[test]
    fn zipf_fit_recovers_synthetic_exponent() {
        // Construct frequencies exactly ∝ rank^{-5/6}.
        let s_true = 5.0 / 6.0;
        let freqs: Vec<u64> = (1..=2000u64)
            .map(|r| ((1e6 / (r as f64).powf(s_true)).round()) as u64)
            .collect();
        let stats = FileAccessStats {
            stage: PathStage::Input,
            frequencies: freqs,
            file_sizes: vec![],
        };
        let fit = stats.zipf_fit(None).unwrap();
        assert!(
            (fit.slope + s_true).abs() < 0.01,
            "slope {} expected {}",
            fit.slope,
            -s_true
        );
        assert!(fit.r_squared > 0.999);
    }

    #[test]
    fn eighty_x_rule_small_for_skewed_access() {
        let s = gather(&skewed_trace(), PathStage::Input);
        // By ascending size: the 1 MB file covers 8/11 accesses (73 %),
        // adding the 1 GB file reaches 10/11 (91 %) ≥ 80 % — the bytes
        // below that size are ≈0.1 % of the ~1 TB total.
        let x = s.eighty_x_rule(0.8).unwrap();
        assert!(x < 1.0, "X = {x}%");
    }

    #[test]
    fn threshold_fractions() {
        let s = gather(&skewed_trace(), PathStage::Input);
        let thr = DataSize::from_gb(2);
        // p0 and p1 are below 2 GB: 10 of 11 accesses, ~0.1 % of bytes.
        assert!((s.access_fraction_below(thr) - 10.0 / 11.0).abs() < 1e-9);
        assert!(s.bytes_fraction_below(thr) < 0.01);
    }

    #[test]
    fn eighty_x_none_for_empty() {
        let s = FileAccessStats {
            stage: PathStage::Input,
            frequencies: vec![],
            file_sizes: vec![],
        };
        assert!(s.eighty_x_rule(0.8).is_none());
    }
}
