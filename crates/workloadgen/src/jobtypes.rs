//! Job-type profiles: the Table 2 cluster centroids, plus sampling of
//! concrete jobs around them.
//!
//! Each workload is a mixture of a handful of job types. A
//! [`JobTypeProfile`] carries the published centroid (median behaviour) of
//! one type and its population count; [`JobTypeMix`] samples types with
//! probability proportional to count and jitters every dimension
//! log-normally around the centroid, preserving the published
//! within-workload dichotomy between very small and very large jobs.

use crate::dist::{Categorical, LogNormal};
use rand::Rng;
use swim_trace::{DataSize, Dur};

/// Default within-cluster ln-space spread. A sigma of 0.8 spans roughly a
/// factor of 4.9 between the 16th and 84th percentile, matching the visual
/// spread of Fig. 1 around each mode.
pub const DEFAULT_SIGMA: f64 = 0.8;

/// Nominal HDFS split size: drives map-task counts from input bytes.
pub const SPLIT_SIZE: u64 = 128 * 1_000_000;

/// Nominal per-reduce-task shuffle volume: drives reduce-task counts.
pub const REDUCE_CHUNK: u64 = 1_000_000_000;

/// One Table 2 row: a job-type cluster centroid and its population count.
// `label` is a `&'static str` into the calibrated tables, so this type is
// serialize-only (deserializing into a 'static borrow is not possible).
#[derive(Debug, Clone, PartialEq)]
pub struct JobTypeProfile {
    /// Cluster population (the `# Jobs` column).
    pub count: u64,
    /// Centroid input bytes.
    pub input: DataSize,
    /// Centroid shuffle bytes (0 for map-only types).
    pub shuffle: DataSize,
    /// Centroid output bytes.
    pub output: DataSize,
    /// Centroid wall-clock duration.
    pub duration: Dur,
    /// Centroid map task-time (slot-seconds).
    pub map_time: Dur,
    /// Centroid reduce task-time (slot-seconds; 0 for map-only types).
    pub reduce_time: Dur,
    /// The paper's human label ("Small jobs", "Map only transform, 3 days", …).
    pub label: &'static str,
}

impl JobTypeProfile {
    /// Convenience constructor mirroring Table 2 column order.
    #[allow(clippy::too_many_arguments)]
    pub const fn new(
        count: u64,
        input: DataSize,
        shuffle: DataSize,
        output: DataSize,
        duration: Dur,
        map_time: Dur,
        reduce_time: Dur,
        label: &'static str,
    ) -> Self {
        JobTypeProfile {
            count,
            input,
            shuffle,
            output,
            duration,
            map_time,
            reduce_time,
            label,
        }
    }

    /// `true` iff the centroid describes a map-only job type.
    pub fn is_map_only(&self) -> bool {
        self.shuffle.is_zero() && self.reduce_time.is_zero()
    }

    /// Total bytes moved at the centroid.
    pub fn total_io(&self) -> DataSize {
        self.input + self.shuffle + self.output
    }
}

/// One sampled job's size/shape/duration (before arrival-time and naming
/// are attached by the generator).
#[derive(Debug, Clone, PartialEq)]
pub struct SampledJob {
    /// Index of the job type it was drawn from.
    pub type_index: usize,
    /// Input bytes.
    pub input: DataSize,
    /// Shuffle bytes.
    pub shuffle: DataSize,
    /// Output bytes.
    pub output: DataSize,
    /// Wall-clock duration.
    pub duration: Dur,
    /// Map task-time.
    pub map_time: Dur,
    /// Reduce task-time.
    pub reduce_time: Dur,
    /// Derived map task count.
    pub map_tasks: u32,
    /// Derived reduce task count.
    pub reduce_tasks: u32,
}

/// A weighted mixture of job types for one workload.
#[derive(Debug, Clone)]
pub struct JobTypeMix {
    types: Vec<JobTypeProfile>,
    picker: Categorical,
    sigma: f64,
    /// Correlated jitter: one shared factor scales the whole job
    /// (bigger-than-median jobs are bigger in every dimension) …
    shared: LogNormal,
    /// … plus independent per-dimension noise. This is what keeps bytes
    /// and task-time strongly correlated (Fig. 9: r ≈ 0.62) while
    /// jobs/hour stays only weakly correlated with both.
    noise: LogNormal,
}

impl JobTypeMix {
    /// Build a mixture from Table 2 rows; selection probability is
    /// proportional to each row's `count`.
    pub fn new(types: Vec<JobTypeProfile>) -> Self {
        Self::with_sigma(types, DEFAULT_SIGMA)
    }

    /// Build with a custom within-cluster spread (0 = exact centroids,
    /// useful for deterministic tests and for k-means ground-truth checks).
    pub fn with_sigma(types: Vec<JobTypeProfile>, sigma: f64) -> Self {
        assert!(!types.is_empty(), "need at least one job type");
        let weights: Vec<f64> = types.iter().map(|t| t.count as f64).collect();
        JobTypeMix {
            picker: Categorical::new(&weights),
            types,
            sigma,
            shared: LogNormal::from_median(1.0, sigma * 0.7),
            noise: LogNormal::from_median(1.0, sigma * 0.5),
        }
    }

    /// Sample one job: pick a type by population weight, then jitter each
    /// dimension log-normally around the centroid. Zero centroid
    /// dimensions stay exactly zero (map-only stays map-only).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SampledJob {
        let idx = self.picker.sample(rng);
        self.sample_type(rng, idx)
    }

    /// Index of the most populous type (the "Small jobs" cluster in every
    /// paper workload).
    pub fn dominant_type(&self) -> usize {
        self.types
            .iter()
            .enumerate()
            .max_by_key(|(_, t)| t.count)
            .map(|(i, _)| i)
            .expect("mix is non-empty")
    }

    /// Sample one job from a *specific* type (burst-storm routing).
    pub fn sample_type<R: Rng + ?Sized>(&self, rng: &mut R, idx: usize) -> SampledJob {
        let t = &self.types[idx];
        let scale = self.shared.sample(rng);
        let mut jitter = |median: f64| -> f64 {
            if median <= 0.0 || self.sigma == 0.0 {
                median
            } else {
                median * scale * self.noise.sample(rng)
            }
        };
        let input = DataSize::from_f64(jitter(t.input.as_f64()));
        let shuffle = DataSize::from_f64(jitter(t.shuffle.as_f64()));
        let output = DataSize::from_f64(jitter(t.output.as_f64()));
        let duration = Dur::from_f64(jitter(t.duration.as_f64()).max(1.0));
        let map_time = Dur::from_f64(jitter(t.map_time.as_f64()));
        let reduce_time = Dur::from_f64(jitter(t.reduce_time.as_f64()));

        let map_tasks = derive_map_tasks(input, map_time, duration);
        let reduce_tasks = derive_reduce_tasks(shuffle, reduce_time);
        SampledJob {
            type_index: idx,
            input,
            shuffle,
            output,
            duration,
            map_time,
            reduce_time,
            map_tasks,
            reduce_tasks,
        }
    }
}

/// Derive a plausible map-task count: one task per input split, but never
/// fewer tasks than needed for the task-time to fit in the duration
/// (`map_time / duration` concurrent slots is a lower bound on tasks).
pub fn derive_map_tasks(input: DataSize, map_time: Dur, duration: Dur) -> u32 {
    let by_splits = input.bytes().div_ceil(SPLIT_SIZE).max(1);
    let by_time = if duration.is_zero() {
        1
    } else {
        (map_time.secs().div_ceil(duration.secs().max(1))).max(1)
    };
    by_splits.max(by_time).min(u32::MAX as u64) as u32
}

/// Derive a reduce-task count: zero iff there is genuinely no reduce
/// stage; otherwise one task per [`REDUCE_CHUNK`] of shuffle volume.
pub fn derive_reduce_tasks(shuffle: DataSize, reduce_time: Dur) -> u32 {
    if shuffle.is_zero() && reduce_time.is_zero() {
        return 0;
    }
    shuffle
        .bytes()
        .div_ceil(REDUCE_CHUNK)
        .max(1)
        .min(u32::MAX as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_type_mix() -> JobTypeMix {
        JobTypeMix::new(two_types())
    }

    fn two_types() -> Vec<JobTypeProfile> {
        vec![
            JobTypeProfile::new(
                9_000,
                DataSize::from_kb(21),
                DataSize::ZERO,
                DataSize::from_kb(871),
                Dur::from_secs(32),
                Dur::from_secs(20),
                Dur::ZERO,
                "Small jobs",
            ),
            JobTypeProfile::new(
                1_000,
                DataSize::from_gb(230),
                DataSize::from_gb(8),
                DataSize::from_mb(491),
                Dur::from_mins(15),
                Dur::from_secs(104_338),
                Dur::from_secs(66_760),
                "Aggregate, fast",
            ),
        ]
    }

    #[test]
    fn sampling_respects_type_weights() {
        let mix = two_type_mix();
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let small = (0..n)
            .filter(|_| mix.sample(&mut rng).type_index == 0)
            .count();
        let frac = small as f64 / n as f64;
        assert!((frac - 0.9).abs() < 0.02, "small fraction {frac}");
    }

    #[test]
    fn map_only_types_stay_map_only() {
        let mix = two_type_mix();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..2_000 {
            let s = mix.sample(&mut rng);
            if s.type_index == 0 {
                assert!(s.shuffle.is_zero());
                assert_eq!(s.reduce_tasks, 0);
                assert!(s.reduce_time.is_zero());
            } else {
                assert!(s.reduce_tasks > 0);
            }
        }
    }

    #[test]
    fn jitter_centers_on_centroid_median() {
        let mix = two_type_mix();
        let mut rng = StdRng::seed_from_u64(3);
        let mut inputs: Vec<f64> = (0..20_000)
            .map(|_| mix.sample(&mut rng))
            .filter(|s| s.type_index == 1)
            .map(|s| s.input.as_f64())
            .collect();
        inputs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = inputs[inputs.len() / 2];
        let target = DataSize::from_gb(230).as_f64();
        assert!(
            (median / target).ln().abs() < 0.15,
            "median {median:e} vs target {target:e}"
        );
    }

    #[test]
    fn zero_sigma_reproduces_centroids_exactly() {
        let types = two_types();
        let mix = JobTypeMix::with_sigma(types.clone(), 0.0);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            let s = mix.sample(&mut rng);
            let t = &types[s.type_index];
            assert_eq!(s.input, t.input);
            assert_eq!(s.duration, t.duration);
        }
    }

    #[test]
    fn task_counts_are_consistent() {
        let mix = two_type_mix();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..2_000 {
            let s = mix.sample(&mut rng);
            assert!(s.map_tasks >= 1);
            // Tiny jobs get a single map task (the §6.2 straggler discussion:
            // "sometimes a single map task and a single reduce task").
            if s.input.bytes() < SPLIT_SIZE && s.map_time.secs() <= s.duration.secs() {
                assert_eq!(s.map_tasks, 1);
            }
            if s.shuffle.is_zero() && s.reduce_time.is_zero() {
                assert_eq!(s.reduce_tasks, 0);
            }
        }
    }

    #[test]
    fn bytes_and_task_time_are_correlated_within_type() {
        // The shared jitter factor must induce positive correlation between
        // total bytes and total task-time among same-type jobs.
        let mix = two_type_mix();
        let mut rng = StdRng::seed_from_u64(6);
        let samples: Vec<SampledJob> = (0..20_000)
            .map(|_| mix.sample(&mut rng))
            .filter(|s| s.type_index == 1)
            .collect();
        let xs: Vec<f64> = samples
            .iter()
            .map(|s| (s.input + s.shuffle + s.output).as_f64().ln())
            .collect();
        let ys: Vec<f64> = samples
            .iter()
            .map(|s| (s.map_time + s.reduce_time).as_f64().max(1.0).ln())
            .collect();
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let cov: f64 = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| (x - mx) * (y - my))
            .sum::<f64>()
            / n;
        let sx = (xs.iter().map(|x| (x - mx).powi(2)).sum::<f64>() / n).sqrt();
        let sy = (ys.iter().map(|y| (y - my).powi(2)).sum::<f64>() / n).sqrt();
        let r = cov / (sx * sy);
        assert!(r > 0.4, "within-type bytes/task-time correlation {r}");
    }

    #[test]
    #[should_panic(expected = "need at least one job type")]
    fn empty_mix_rejected() {
        JobTypeMix::new(vec![]);
    }
}
