//! Temporal locality of data accesses (§4.3): re-access interval
//! distributions (Fig. 5) and the fraction of jobs touching pre-existing
//! data (Fig. 6).

use std::collections::HashMap;
use swim_trace::{Job, PathId};

/// Re-access analysis of one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalityStats {
    /// Seconds between successive reads of the same input file
    /// (Fig. 5 top: input→input re-access intervals).
    pub input_input_intervals: Vec<f64>,
    /// Seconds between a file being written as output and later read as
    /// input (Fig. 5 bottom: output→input re-access intervals).
    pub output_input_intervals: Vec<f64>,
    /// Fraction of jobs whose input re-reads a pre-existing input path
    /// (Fig. 6 light bars).
    pub frac_jobs_reread_input: f64,
    /// Fraction of jobs whose input consumes a pre-existing output path
    /// (Fig. 6 dark bars).
    pub frac_jobs_consume_output: f64,
}

impl LocalityStats {
    /// Fraction of all re-accesses (both kinds) within `secs` seconds —
    /// the §4.3 "75 % of re-accesses take place within 6 hours" check.
    pub fn fraction_within(&self, secs: f64) -> f64 {
        let total = self.input_input_intervals.len() + self.output_input_intervals.len();
        if total == 0 {
            return 0.0;
        }
        let within = self
            .input_input_intervals
            .iter()
            .chain(&self.output_input_intervals)
            .filter(|&&x| x <= secs)
            .count();
        within as f64 / total as f64
    }

    /// Fraction of jobs involving any data re-access (Fig. 6 bar total;
    /// "up to 78 % of jobs involve data re-accesses"). The two categories
    /// are disjoint, so the stacked total is their exact sum.
    pub fn frac_jobs_reaccessing(&self) -> f64 {
        (self.frac_jobs_reread_input + self.frac_jobs_consume_output).min(1.0)
    }
}

/// [`LocalityStats`] a job at a time: push every job in submit order,
/// then [`LocalityFold::finish`]. Jobs without input paths are excluded
/// from the denominators (path-less traces yield zeroes). Holds one
/// entry per distinct input and output file, and one interval per
/// re-access.
#[derive(Debug, Clone, Default)]
pub struct LocalityFold {
    /// Each input file's latest read; a key is a file read before.
    last_input_read: HashMap<PathId, u64>,
    /// Each output file's first write (its writer's finish).
    output_written: HashMap<PathId, u64>,
    input_input_intervals: Vec<f64>,
    output_input_intervals: Vec<f64>,
    jobs_with_paths: usize,
    jobs_reread: usize,
    jobs_consumed: usize,
}

impl LocalityFold {
    /// Account the next job's reads and writes.
    pub fn push(&mut self, job: &Job) {
        let t = job.submit.secs();
        if !job.input_paths.is_empty() {
            self.jobs_with_paths += 1;
            let mut reread = false;
            let mut consumed = false;
            for &p in &job.input_paths {
                if let Some(&prev) = self.last_input_read.get(&p) {
                    self.input_input_intervals
                        .push((t.saturating_sub(prev)) as f64);
                    reread = true;
                }
                if let Some(&wrote) = self.output_written.get(&p) {
                    if wrote <= t {
                        consumed = true;
                        self.output_input_intervals
                            .push((t.saturating_sub(wrote)) as f64);
                    }
                }
                self.last_input_read.insert(p, t);
            }
            // Fig. 6 is a stacked bar of *disjoint* categories: a job
            // counts once, with output-consumption taking precedence
            // (reading a file that some job wrote is the stronger
            // dependency signal).
            if consumed {
                self.jobs_consumed += 1;
            } else if reread {
                self.jobs_reread += 1;
            }
        }
        let finish = job.finish().secs();
        for &p in &job.output_paths {
            self.output_written.entry(p).or_insert(finish);
        }
    }

    /// The statistics of every job pushed.
    pub fn finish(self) -> LocalityStats {
        let denom = self.jobs_with_paths.max(1) as f64;
        LocalityStats {
            input_input_intervals: self.input_input_intervals,
            output_input_intervals: self.output_input_intervals,
            frac_jobs_reread_input: self.jobs_reread as f64 / denom,
            frac_jobs_consume_output: self.jobs_consumed as f64 / denom,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swim_trace::trace::WorkloadKind;
    use swim_trace::{DataSize, Dur, JobBuilder, Timestamp, Trace};

    fn gather(trace: &Trace) -> LocalityStats {
        let mut fold = LocalityFold::default();
        trace.jobs().iter().for_each(|job| fold.push(job));
        fold.finish()
    }

    fn job(id: u64, submit: u64, dur: u64, inputs: Vec<u64>, outputs: Vec<u64>) -> swim_trace::Job {
        JobBuilder::new(id)
            .submit(Timestamp::from_secs(submit))
            .duration(Dur::from_secs(dur))
            .input(DataSize::from_mb(1))
            .map_task_time(Dur::from_secs(1))
            .tasks(1, 0)
            .input_paths(inputs.into_iter().map(PathId).collect())
            .output_paths(outputs.into_iter().map(PathId).collect())
            .build()
            .unwrap()
    }

    fn trace(jobs: Vec<swim_trace::Job>) -> Trace {
        Trace::new(WorkloadKind::Custom("loc".into()), 1, jobs).unwrap()
    }

    #[test]
    fn input_reread_intervals_are_recorded() {
        // Job 0 reads p1 at t=0; job 1 re-reads p1 at t=100.
        let t = trace(vec![
            job(0, 0, 10, vec![1], vec![]),
            job(1, 100, 10, vec![1], vec![]),
        ]);
        let s = gather(&t);
        assert_eq!(s.input_input_intervals, vec![100.0]);
        assert_eq!(s.frac_jobs_reread_input, 0.5);
        assert_eq!(s.frac_jobs_consume_output, 0.0);
    }

    #[test]
    fn output_consumption_measures_write_to_read_gap() {
        // Job 0 writes p7, finishing at t=10; job 1 reads p7 at t=250.
        let t = trace(vec![
            job(0, 0, 10, vec![1], vec![7]),
            job(1, 250, 10, vec![7], vec![]),
        ]);
        let s = gather(&t);
        assert_eq!(s.output_input_intervals, vec![240.0]);
        assert_eq!(s.frac_jobs_consume_output, 0.5);
    }

    #[test]
    fn repeated_rereads_chain_intervals() {
        let t = trace(vec![
            job(0, 0, 1, vec![1], vec![]),
            job(1, 50, 1, vec![1], vec![]),
            job(2, 80, 1, vec![1], vec![]),
        ]);
        let s = gather(&t);
        assert_eq!(s.input_input_intervals, vec![50.0, 30.0]);
    }

    #[test]
    fn fraction_within_counts_both_kinds() {
        let s = LocalityStats {
            input_input_intervals: vec![100.0, 10_000.0],
            output_input_intervals: vec![200.0, 50_000.0],
            frac_jobs_reread_input: 0.0,
            frac_jobs_consume_output: 0.0,
        };
        assert!((s.fraction_within(1_000.0) - 0.5).abs() < 1e-12);
        assert_eq!(s.fraction_within(100_000.0), 1.0);
    }

    #[test]
    fn pathless_trace_yields_zeroes() {
        let t = trace(vec![job(0, 0, 1, vec![], vec![])]);
        let s = gather(&t);
        assert_eq!(s.frac_jobs_reread_input, 0.0);
        assert_eq!(s.frac_jobs_consume_output, 0.0);
        assert!(s.input_input_intervals.is_empty());
        assert_eq!(s.fraction_within(1e9), 0.0);
    }

    #[test]
    fn reaccess_total_is_capped_at_one() {
        let s = LocalityStats {
            input_input_intervals: vec![],
            output_input_intervals: vec![],
            frac_jobs_reread_input: 0.7,
            frac_jobs_consume_output: 0.6,
        };
        assert_eq!(s.frac_jobs_reaccessing(), 1.0);
    }

    #[test]
    fn future_written_outputs_do_not_count_as_consumed() {
        // Job 0 reads p7 at t=0, but p7 is only written by job 1 at t=100:
        // no output→input chain exists for job 0.
        let t = trace(vec![
            job(0, 0, 1, vec![7], vec![]),
            job(1, 100, 10, vec![], vec![7]),
        ]);
        let s = gather(&t);
        assert!(s.output_input_intervals.is_empty());
    }
}
