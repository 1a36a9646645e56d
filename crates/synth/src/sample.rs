//! Window sampling: condense a long trace into a short synthetic one.
//!
//! Following the workload-suite methodology the paper builds on (its
//! ref. \[18\]), the trace is divided into contiguous time windows; the
//! synthesizer draws windows uniformly at random (with replacement) and
//! concatenates them until the target duration is covered. Each copied
//! job keeps its offset within its window, so both the job mix *and* the
//! sub-window arrival dynamics (bursts) survive sampling.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use swim_trace::trace::WorkloadKind;
use swim_trace::{Dur, Job, JobId, Timestamp, Trace};

/// Window-sampling parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleConfig {
    /// Width of each sampling window.
    pub window: Dur,
    /// Target length of the synthesized trace.
    pub target_length: Dur,
    /// RNG seed.
    pub seed: u64,
}

impl SampleConfig {
    /// SWIM's common setup: hour-long windows, one synthesized day.
    pub fn one_day_from_hours(seed: u64) -> SampleConfig {
        SampleConfig {
            window: Dur::from_hours(1),
            target_length: Dur::from_days(1),
            seed,
        }
    }
}

/// Sample a shorter synthetic trace out of `trace`: a [`WindowSampler`]
/// over its jobs.
///
/// Panics if the trace is empty or the window is zero-length. If the
/// trace is shorter than one window it is returned unchanged (relabelled).
pub fn sample_windows(trace: &Trace, config: SampleConfig) -> Trace {
    let start = trace.start().expect("cannot sample an empty trace");
    let mut sampler = WindowSampler::new(start, trace.span(), config);
    trace.jobs().iter().for_each(|job| sampler.push(job));
    sampler.finish(&trace.kind, trace.machines)
}

/// [`sample_windows`] a job at a time, for a trace known only by its
/// first submit and its span: the windows are drawn up front, so only
/// the jobs of drawn windows are kept. Push every job in submit order,
/// then [`WindowSampler::finish`].
#[derive(Debug, Clone)]
pub struct WindowSampler {
    window: u64,
    n_windows: u64,
    /// The window of each draw, in draw order.
    draws: Vec<u64>,
    start: Timestamp,
    /// Each drawn window's draw count, and its jobs in push order.
    kept: HashMap<u64, (usize, Vec<Job>)>,
}

impl WindowSampler {
    /// Draw the windows of a trace whose submits span `span` from
    /// `start`. Panics if the window or the target length is zero-length.
    pub fn new(start: Timestamp, span: Dur, config: SampleConfig) -> WindowSampler {
        assert!(!config.window.is_zero(), "window must be positive");
        assert!(
            !config.target_length.is_zero(),
            "target length must be positive"
        );
        let window = config.window.secs();
        let n_windows = (span.secs() / window).max(1);
        let n_draws = config.target_length.secs().div_ceil(window);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let draws: Vec<u64> = (0..n_draws)
            .map(|_| rng.random_range(0..n_windows))
            .collect();
        let mut kept = HashMap::new();
        for &w in &draws {
            kept.entry(w).or_insert((0, Vec::new())).0 += 1;
        }
        WindowSampler {
            window,
            n_windows,
            draws,
            start,
            kept,
        }
    }

    /// The window of a submit; one past the span falls in the last.
    fn window_of(&self, submit: Timestamp) -> u64 {
        (submit.since(self.start).secs() / self.window).min(self.n_windows - 1)
    }

    /// Whether a job submitted within `[from, to]` can fall in a drawn
    /// window.
    pub fn draws_any(&self, from: Timestamp, to: Timestamp) -> bool {
        let windows = self.window_of(from)..=self.window_of(to);
        self.kept.keys().any(|w| windows.contains(w))
    }

    /// Keep the next job if its window was drawn.
    pub fn push(&mut self, job: &Job) {
        if let Some((_, jobs)) = self.kept.get_mut(&self.window_of(job.submit)) {
            jobs.push(job.clone());
        }
    }

    /// The sampled trace: each draw's window copied in draw order, every
    /// job at its offset within its window and renumbered from 0. Its
    /// kind is `<kind>-synth`.
    pub fn finish(mut self, kind: &WorkloadKind, machines: u32) -> Trace {
        let start = self.start.secs();
        let mut jobs: Vec<Job> = Vec::new();
        for (draw, w) in (0u64..).zip(&self.draws) {
            let window_start = Timestamp::from_secs(start + w * self.window);
            let out_base = draw * self.window;
            // A window's last draw takes its jobs; an earlier one copies them.
            let (draws_left, kept) = self.kept.get_mut(w).expect("a drawn window");
            *draws_left -= 1;
            let window = match draws_left {
                0 => std::mem::take(kept),
                _ => kept.clone(),
            };
            for mut job in window {
                let offset = job.submit.since(window_start);
                job.id = JobId(jobs.len() as u64);
                job.submit = Timestamp::from_secs(out_base + offset.secs());
                jobs.push(job);
            }
        }
        Trace::new_unchecked(
            WorkloadKind::Custom(format!("{kind}-synth")),
            machines,
            jobs,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swim_trace::{DataSize, JobBuilder};

    fn hourly_trace(hours: u64, jobs_per_hour: u64) -> Trace {
        let mut jobs = Vec::new();
        let mut id = 0;
        for h in 0..hours {
            for j in 0..jobs_per_hour {
                jobs.push(
                    JobBuilder::new(id)
                        .submit(Timestamp::from_secs(h * 3600 + j * 60))
                        .duration(Dur::from_secs(30))
                        .input(DataSize::from_mb(h + 1)) // window-identifying size
                        .map_task_time(Dur::from_secs(10))
                        .tasks(1, 0)
                        .build()
                        .unwrap(),
                );
                id += 1;
            }
        }
        Trace::new(WorkloadKind::Custom("src".into()), 10, jobs).unwrap()
    }

    #[test]
    fn sampled_trace_has_target_length() {
        let src = hourly_trace(24 * 7, 10);
        let out = sample_windows(
            &src,
            SampleConfig {
                window: Dur::from_hours(1),
                target_length: Dur::from_hours(24),
                seed: 1,
            },
        );
        // ~24 windows × 10 jobs.
        assert_eq!(out.len(), 240);
        assert!(out.span() <= Dur::from_hours(24));
    }

    #[test]
    fn sampled_jobs_preserve_window_offsets() {
        let src = hourly_trace(48, 5);
        let out = sample_windows(
            &src,
            SampleConfig {
                window: Dur::from_hours(1),
                target_length: Dur::from_hours(6),
                seed: 2,
            },
        );
        // Within each output hour, offsets are multiples of 60 s (< 3600).
        for job in out.jobs() {
            assert_eq!(job.submit.secs() % 3600 % 60, 0);
        }
    }

    #[test]
    fn sampled_sizes_come_from_source_distribution() {
        let src = hourly_trace(24, 3);
        let out = sample_windows(&src, SampleConfig::one_day_from_hours(3));
        let src_sizes: std::collections::HashSet<u64> =
            src.jobs().iter().map(|j| j.input.bytes()).collect();
        for job in out.jobs() {
            assert!(src_sizes.contains(&job.input.bytes()));
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let src = hourly_trace(24 * 3, 4);
        let a = sample_windows(&src, SampleConfig::one_day_from_hours(9));
        let b = sample_windows(&src, SampleConfig::one_day_from_hours(9));
        assert_eq!(a, b);
    }

    #[test]
    fn ids_are_unique() {
        let src = hourly_trace(24, 10);
        let out = sample_windows(&src, SampleConfig::one_day_from_hours(5));
        let mut ids: Vec<u64> = out.jobs().iter().map(|j| j.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), out.len());
    }

    #[test]
    fn short_trace_still_samples() {
        let src = hourly_trace(1, 5); // spans < 1 window
        let out = sample_windows(
            &src,
            SampleConfig {
                window: Dur::from_hours(2),
                target_length: Dur::from_hours(2),
                seed: 0,
            },
        );
        assert_eq!(out.len(), 5);
    }

    #[test]
    #[should_panic(expected = "cannot sample an empty trace")]
    fn empty_trace_rejected() {
        let t = Trace::new(WorkloadKind::Custom("e".into()), 1, vec![]).unwrap();
        sample_windows(&t, SampleConfig::one_day_from_hours(0));
    }
}
