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

/// Width of each sampling window, seconds: SWIM samples hour-long
/// windows.
const WINDOW: u64 = Dur::from_hours(1).secs();

/// Windows drawn: enough to cover one synthesized day.
const DRAWS: u64 = Dur::from_days(1).secs().div_ceil(WINDOW);

/// Sample a one-day synthetic trace out of `trace`, hour-long windows
/// drawn under `seed`: a [`WindowSampler`] over its jobs.
///
/// Panics if the trace is empty. A trace shorter than one window is
/// its own one window, drawn every time.
pub fn sample_windows(trace: &Trace, seed: u64) -> Trace {
    let start = trace.start().expect("cannot sample an empty trace");
    let mut sampler = WindowSampler::new(start, trace.span(), seed);
    trace.jobs().iter().for_each(|job| sampler.push(job));
    sampler.finish(&trace.kind, trace.machines)
}

/// [`sample_windows`] a job at a time, for a trace known only by its
/// first submit and its span: the windows are drawn up front, so only
/// the jobs of drawn windows are kept. Push every job in submit order,
/// then [`WindowSampler::finish`].
#[derive(Debug, Clone)]
pub struct WindowSampler {
    n_windows: u64,
    /// The window of each draw, in draw order.
    draws: Vec<u64>,
    start: Timestamp,
    /// Each drawn window's draw count, and its jobs in push order.
    kept: HashMap<u64, (usize, Vec<Job>)>,
}

impl WindowSampler {
    /// Draw the windows of a trace whose submits span `span` from
    /// `start`, under `seed`.
    pub fn new(start: Timestamp, span: Dur, seed: u64) -> WindowSampler {
        let n_windows = (span.secs() / WINDOW).max(1);
        let mut rng = StdRng::seed_from_u64(seed);
        let draws: Vec<u64> = (0..DRAWS).map(|_| rng.random_range(0..n_windows)).collect();
        let mut kept = HashMap::new();
        for &w in &draws {
            kept.entry(w).or_insert((0, Vec::new())).0 += 1;
        }
        WindowSampler {
            n_windows,
            draws,
            start,
            kept,
        }
    }

    /// The window of a submit; one past the span falls in the last.
    fn window_of(&self, submit: Timestamp) -> u64 {
        (submit.since(self.start).secs() / WINDOW).min(self.n_windows - 1)
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
            let window_start = Timestamp::from_secs(start + w * WINDOW);
            let out_base = draw * WINDOW;
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
        let out = sample_windows(&src, 1);
        // 24 one-hour windows × 10 jobs.
        assert_eq!(out.len(), 240);
        assert!(out.span() <= Dur::from_days(1));
    }

    #[test]
    fn sampled_jobs_preserve_window_offsets() {
        let src = hourly_trace(48, 5);
        let out = sample_windows(&src, 2);
        // Output hour h holds one source hour's jobs at their offsets:
        // minutes 0..5 of the hour, all of one input size.
        assert_eq!(out.len(), 5 * 24);
        for (h, hour) in (0u64..).zip(out.jobs().chunks(5)) {
            for (minute, job) in (0u64..).zip(hour) {
                assert_eq!(job.submit.secs(), h * 3600 + minute * 60);
                assert_eq!(job.input, hour[0].input);
            }
        }
    }

    #[test]
    fn sampled_sizes_come_from_source_distribution() {
        let src = hourly_trace(24, 3);
        let out = sample_windows(&src, 3);
        let src_sizes: std::collections::HashSet<u64> =
            src.jobs().iter().map(|j| j.input.bytes()).collect();
        for job in out.jobs() {
            assert!(src_sizes.contains(&job.input.bytes()));
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let src = hourly_trace(24 * 3, 4);
        let a = sample_windows(&src, 9);
        let b = sample_windows(&src, 9);
        assert_eq!(a, b);
        assert_ne!(a, sample_windows(&src, 10));
    }

    #[test]
    fn ids_are_unique() {
        let src = hourly_trace(24, 10);
        let out = sample_windows(&src, 5);
        let mut ids: Vec<u64> = out.jobs().iter().map(|j| j.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), out.len());
    }

    #[test]
    fn short_trace_still_samples() {
        let src = hourly_trace(1, 5); // spans < 1 window
        let out = sample_windows(&src, 0);
        // The one window is drawn for each of the day's 24 hours.
        assert_eq!(out.len(), 5 * 24);
        for (h, copy) in (0u64..).zip(out.jobs().chunks(5)) {
            let offsets: Vec<u64> = copy.iter().map(|j| j.submit.secs() - h * 3600).collect();
            assert_eq!(offsets, [0, 60, 120, 180, 240]);
        }
    }

    #[test]
    #[should_panic(expected = "cannot sample an empty trace")]
    fn empty_trace_rejected() {
        let t = Trace::new(WorkloadKind::Custom("e".into()), 1, vec![]).unwrap();
        sample_windows(&t, 0);
    }
}
