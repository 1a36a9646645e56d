//! Synthesis validation: two-sample Kolmogorov–Smirnov distances between
//! the original and synthesized traces on each job dimension.
//!
//! The paper's §7 warns that workload behaviour "does not fit well-known
//! statistical distributions", so SWIM must be validated empirically: the
//! synthesized workload's per-job distributions should track the
//! original's. KS distance is the natural non-parametric check.

use swim_trace::{Job, Trace};

/// Two-sample Kolmogorov–Smirnov distance: the supremum of the absolute
/// difference between the two empirical CDFs. Returns `None` when either
/// sample is empty.
// lint: surface: the KS oracle the workspace's property tests pin; production sorts its samples in place
pub fn ks_distance(a: &[f64], b: &[f64]) -> Option<f64> {
    ks_sorted(&mut a.to_vec(), &mut b.to_vec())
}

/// [`ks_distance`] that sorts its samples in place.
fn ks_sorted(sa: &mut [f64], sb: &mut [f64]) -> Option<f64> {
    if sa.is_empty() || sb.is_empty() {
        return None;
    }
    // Equal samples are interchangeable: the walk below compares values
    // only, so an unstable sort gives the same distance.
    sa.sort_unstable_by(f64::total_cmp);
    sb.sort_unstable_by(f64::total_cmp);
    let (na, nb) = (sa.len() as f64, sb.len() as f64);
    let mut i = 0usize;
    let mut j = 0usize;
    let mut d: f64 = 0.0;
    // Walk the merged value axis; at each distinct value x, advance both
    // pointers past every sample ≤ x so ties contribute to both CDFs
    // before the difference is taken.
    while i < sa.len() && j < sb.len() {
        let x = sa[i].min(sb[j]);
        while i < sa.len() && sa[i] <= x {
            i += 1;
        }
        while j < sb.len() && sb[j] <= x {
            j += 1;
        }
        let fa = i as f64 / na;
        let fb = j as f64 / nb;
        d = d.max((fa - fb).abs());
    }
    Some(d)
}

/// The six samples a [`SynthesisReport`] compares, gathered a job at a
/// time: per-job input, shuffle and output bytes, duration and total
/// task-time, and the gaps between consecutive submits. Push every job
/// in trace order.
#[derive(Debug, Clone, Default)]
pub struct KsColumns {
    columns: [Vec<f64>; 6],
    last_submit: Option<u64>,
}

impl KsColumns {
    /// The columns of every job of `trace`.
    pub fn of(trace: &Trace) -> KsColumns {
        let mut columns = KsColumns::default();
        trace.jobs().iter().for_each(|job| columns.push(job));
        columns
    }

    /// Add the next job's values.
    pub fn push(&mut self, job: &Job) {
        let [input, shuffle, output, duration, task_time, gaps] = &mut self.columns;
        input.push(job.input.as_f64());
        shuffle.push(job.shuffle.as_f64());
        output.push(job.output.as_f64());
        duration.push(job.duration.as_f64());
        task_time.push(job.total_task_time().as_f64());
        let submit = job.submit.secs();
        if let Some(last) = self.last_submit.replace(submit) {
            gaps.push((submit - last) as f64);
        }
    }
}

/// Per-dimension KS distances between an original and a synthesized trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthesisReport {
    /// KS distance on per-job input bytes.
    pub input: f64,
    /// KS distance on per-job shuffle bytes.
    pub shuffle: f64,
    /// KS distance on per-job output bytes.
    pub output: f64,
    /// KS distance on per-job duration.
    pub duration: f64,
    /// KS distance on per-job total task-time.
    pub task_time: f64,
    /// KS distance on inter-arrival gaps.
    pub interarrival: f64,
}

impl SynthesisReport {
    /// Compare `synth` against `original` on all six dimensions.
    /// Panics if either trace is empty.
    pub fn compare(original: &Trace, synth: &Trace) -> SynthesisReport {
        SynthesisReport::of_columns(KsColumns::of(original), KsColumns::of(synth))
    }

    /// Compare the columns of a synthesized trace against an original's.
    /// Panics if either holds no job.
    pub fn of_columns(original: KsColumns, synth: KsColumns) -> SynthesisReport {
        assert!(
            original.last_submit.is_some() && synth.last_submit.is_some(),
            "traces must be non-empty"
        );
        // Past the assert only the gaps of a one-job trace can be empty,
        // and those score the full distance.
        let [mut a, mut b] = [original.columns, synth.columns];
        let [input, shuffle, output, duration, task_time, interarrival] =
            std::array::from_fn(|d| ks_sorted(&mut a[d], &mut b[d]).unwrap_or(1.0));
        SynthesisReport {
            input,
            shuffle,
            output,
            duration,
            task_time,
            interarrival,
        }
    }

    /// The six distances, in field order.
    pub fn distances(&self) -> [f64; 6] {
        [
            self.input,
            self.shuffle,
            self.output,
            self.duration,
            self.task_time,
            self.interarrival,
        ]
    }

    /// Largest per-dimension distance.
    pub fn worst(&self) -> f64 {
        self.distances().into_iter().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swim_trace::trace::WorkloadKind;
    use swim_trace::{DataSize, Dur, JobBuilder, Timestamp};

    #[test]
    fn identical_samples_have_zero_distance() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(ks_distance(&a, &a), Some(0.0));
    }

    #[test]
    fn disjoint_samples_have_distance_one() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 20.0, 30.0];
        assert_eq!(ks_distance(&a, &b), Some(1.0));
    }

    #[test]
    fn shifted_samples_have_intermediate_distance() {
        let a: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..100).map(|i| i as f64 + 10.0).collect();
        let d = ks_distance(&a, &b).unwrap();
        assert!((0.05..0.3).contains(&d), "d = {d}");
    }

    #[test]
    fn empty_sample_yields_none() {
        assert_eq!(ks_distance(&[], &[1.0]), None);
        assert_eq!(ks_distance(&[1.0], &[]), None);
    }

    #[test]
    fn ks_is_symmetric() {
        let a = [1.0, 5.0, 9.0, 12.0];
        let b = [2.0, 4.0, 8.0, 16.0, 32.0];
        assert_eq!(ks_distance(&a, &b), ks_distance(&b, &a));
    }

    fn uniform_trace(n: u64, size_mb: u64, gap: u64) -> Trace {
        let jobs = (0..n)
            .map(|i| {
                JobBuilder::new(i)
                    .submit(Timestamp::from_secs(i * gap))
                    .duration(Dur::from_secs(30))
                    .input(DataSize::from_mb(size_mb))
                    .map_task_time(Dur::from_secs(10))
                    .tasks(1, 0)
                    .build()
                    .unwrap()
            })
            .collect();
        Trace::new(WorkloadKind::Custom("v".into()), 1, jobs).unwrap()
    }

    #[test]
    fn self_comparison_passes() {
        let t = uniform_trace(50, 10, 60);
        let r = SynthesisReport::compare(&t, &t);
        assert_eq!(r.worst(), 0.0);
        assert!(r.worst() <= 0.01);
    }

    #[test]
    fn different_sizes_fail_threshold() {
        let a = uniform_trace(50, 10, 60);
        let b = uniform_trace(50, 1000, 60);
        let r = SynthesisReport::compare(&a, &b);
        assert_eq!(r.input, 1.0);
        assert!(r.worst() > 0.5);
    }

    #[test]
    fn interarrival_detects_schedule_change() {
        let a = uniform_trace(50, 10, 60);
        let b = uniform_trace(50, 10, 600);
        let r = SynthesisReport::compare(&a, &b);
        assert_eq!(r.interarrival, 1.0);
        assert_eq!(r.input, 0.0);
    }
}
