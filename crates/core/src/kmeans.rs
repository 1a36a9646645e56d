//! K-means clustering of jobs in the six-dimensional behaviour space
//! (§6.2, Table 2): input, shuffle, output bytes; duration; map and
//! reduce task-time.
//!
//! The paper's methodology (from the authors' earlier MASCOTS'11 work):
//! run k-means for increasing `k` and stop when the decrease in residual
//! (intra-cluster) variance shows diminishing returns — the elbow rule.
//! Cluster centers are then labelled with common terminology ("Small
//! jobs", "Map only transform", "Aggregate", …) from the one or two
//! dimensions that separate them.
//!
//! Jobs are clustered on their raw byte and second values
//! ([`swim_trace::Job::feature_vector`]), the paper's literal procedure,
//! so the largest dimensions dominate the distance.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use swim_trace::{DataSize, Dur};

/// Maximum Lloyd iterations of one k-means run.
const MAX_ITERS: usize = 100;

/// RNG seed for centroid initialization (k-means++).
const SEED: u64 = 0;

/// One fitted cluster, reported in original units as a Table 2 row.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    /// Number of member jobs.
    pub count: u64,
    /// Centroid input bytes.
    pub input: DataSize,
    /// Centroid shuffle bytes.
    pub shuffle: DataSize,
    /// Centroid output bytes.
    pub output: DataSize,
    /// Centroid duration.
    pub duration: Dur,
    /// Centroid map task-time.
    pub map_time: Dur,
    /// Centroid reduce task-time.
    pub reduce_time: Dur,
    /// Heuristic label in the paper's vocabulary.
    pub label: String,
}

/// A fitted k-means model.
///
/// ```
/// use swim_core::KMeans;
/// use swim_trace::trace::WorkloadKind;
/// use swim_trace::{DataSize, Dur, JobBuilder, Timestamp, Trace};
///
/// // 40 small jobs and 4 huge ones: the small/large dichotomy of Table 2.
/// let jobs = (0..44u64)
///     .map(|i| {
///         let huge = i % 11 == 10;
///         JobBuilder::new(i)
///             .submit(Timestamp::from_secs(i * 60))
///             .input(if huge { DataSize::from_tb(2) } else { DataSize::from_mb(8) })
///             .map_task_time(Dur::from_secs(if huge { 90_000 } else { 30 }))
///             .tasks(2, 0)
///             .build()
///             .unwrap()
///     })
///     .collect();
/// let trace = Trace::new(WorkloadKind::Custom("demo".into()), 10, jobs).unwrap();
/// let points: Vec<[f64; 6]> = trace.jobs().iter().map(|j| j.feature_vector()).collect();
///
/// let model = KMeans::fit(&points, 2);
/// // Clusters come back in population order; the small-job blob dominates.
/// assert_eq!(model.clusters.len(), 2);
/// assert_eq!(model.clusters[0].count, 40);
/// assert_eq!(model.clusters[0].label, "Small jobs");
/// assert_eq!(model.assignments.len(), trace.len());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KMeans {
    /// Number of clusters.
    pub k: usize,
    /// Fitted clusters, sorted by population (largest first — Table 2 order).
    pub clusters: Vec<Cluster>,
    /// Residual (total intra-cluster) variance in feature space.
    pub inertia: f64,
    /// Per-job cluster assignment, parallel to the input points.
    pub assignments: Vec<usize>,
}

fn sq_dist(a: &[f64; 6], b: &[f64; 6]) -> f64 {
    let mut s = 0.0;
    for d in 0..6 {
        let diff = a[d] - b[d];
        s += diff * diff;
    }
    s
}

impl KMeans {
    /// Fit k-means over jobs' feature vectors, one point a job. Panics if
    /// there are fewer points than clusters.
    pub fn fit(points: &[[f64; 6]], k: usize) -> KMeans {
        assert!(k >= 1, "k must be at least 1");
        assert!(
            points.len() >= k,
            "need at least k = {k} jobs, got {}",
            points.len()
        );

        // Best of a few k-means++ restarts: single-init Lloyd can land in a
        // poor local minimum, which makes the elbow criterion unstable.
        // k = 1 is seed-independent (the centroid is the global mean), so
        // one run suffices there.
        const RESTARTS: u64 = 4;
        let restarts = if k == 1 { 1 } else { RESTARTS };
        let (assignments, inertia) = (0..restarts)
            .map(|r| lloyd(points, k, SEED.wrapping_add(r.wrapping_mul(0x9E37_79B9))))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite inertia"))
            .expect("at least one restart");

        // Report centroids in original units as per-cluster medians (robust
        // against the heavy within-cluster tails), labelled heuristically.
        let mut clusters: Vec<Cluster> = (0..k)
            .map(|c| {
                let members: Vec<&[f64; 6]> = points
                    .iter()
                    .zip(&assignments)
                    .filter(|(_, &a)| a == c)
                    .map(|(p, _)| p)
                    .collect();
                cluster_from_members(&members)
            })
            .collect();

        // Table 2 orders clusters by population, largest first; remap
        // assignments to the sorted order.
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by(|&a, &b| clusters[b].count.cmp(&clusters[a].count));
        let mut remap = vec![0usize; k];
        for (new_idx, &old_idx) in order.iter().enumerate() {
            remap[old_idx] = new_idx;
        }
        clusters.sort_by_key(|c| std::cmp::Reverse(c.count));
        let assignments = assignments.into_iter().map(|a| remap[a]).collect();

        KMeans {
            k,
            clusters,
            inertia,
            assignments,
        }
    }

    /// Fit for increasing `k` and pick the elbow: the smallest `k` whose
    /// incremental inertia reduction falls below `threshold`, measured as
    /// a fraction of the total (k = 1) variance. Normalizing against the
    /// k = 1 baseline rather than the previous inertia keeps the rule
    /// stable on well-separated clusters, where every further split still
    /// halves an already-tiny residual. Returns the chosen model.
    pub fn fit_with_elbow(points: &[[f64; 6]], max_k: usize, threshold: f64) -> KMeans {
        assert!(max_k >= 1);
        let mut total: f64 = 0.0;
        let mut prev: Option<KMeans> = None;
        for k in 1..=max_k.min(points.len()) {
            let model = KMeans::fit(points, k);
            if k == 1 {
                total = model.inertia;
            }
            if let Some(p) = &prev {
                let drop = if total > 0.0 {
                    (p.inertia - model.inertia) / total
                } else {
                    0.0
                };
                if drop < threshold {
                    return prev.expect("set above");
                }
            }
            prev = Some(model);
        }
        prev.expect("max_k >= 1")
    }
}

/// One k-means++-initialized Lloyd run; returns the assignment vector and
/// its residual intra-cluster variance.
fn lloyd(points: &[[f64; 6]], k: usize, seed: u64) -> (Vec<usize>, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut centroids = kmeanspp_init(points, k, &mut rng);
    let mut assignments = vec![0usize; points.len()];

    for _ in 0..MAX_ITERS {
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let nearest = centroids
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| sq_dist(p, a).partial_cmp(&sq_dist(p, b)).expect("finite"))
                .map(|(idx, _)| idx)
                .expect("k >= 1");
            if assignments[i] != nearest {
                assignments[i] = nearest;
                changed = true;
            }
        }
        // Recompute centroids; empty clusters are re-seeded at the
        // point farthest from its centroid to keep k populated.
        let mut sums = vec![[0.0; 6]; k];
        let mut counts = vec![0u64; k];
        for (i, p) in points.iter().enumerate() {
            let c = assignments[i];
            counts[c] += 1;
            for d in 0..6 {
                sums[c][d] += p[d];
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                let far = points
                    .iter()
                    .enumerate()
                    .max_by(|(i, p), (j, q)| {
                        sq_dist(p, &centroids[assignments[*i]])
                            .partial_cmp(&sq_dist(q, &centroids[assignments[*j]]))
                            .expect("finite")
                    })
                    .map(|(i, _)| i)
                    .expect("non-empty points");
                centroids[c] = points[far];
                changed = true;
            } else {
                for d in 0..6 {
                    centroids[c][d] = sums[c][d] / counts[c] as f64;
                }
            }
        }
        if !changed {
            break;
        }
    }

    let inertia: f64 = points
        .iter()
        .zip(&assignments)
        .map(|(p, &c)| sq_dist(p, &centroids[c]))
        .sum();
    (assignments, inertia)
}

/// k-means++ initialization: first centroid uniform, subsequent ones
/// sampled with probability proportional to squared distance from the
/// nearest existing centroid.
fn kmeanspp_init<R: Rng + ?Sized>(points: &[[f64; 6]], k: usize, rng: &mut R) -> Vec<[f64; 6]> {
    let mut centroids = Vec::with_capacity(k);
    centroids.push(points[rng.random_range(0..points.len())]);
    let mut d2: Vec<f64> = points.iter().map(|p| sq_dist(p, &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            // All points coincide with existing centroids; pick uniformly.
            rng.random_range(0..points.len())
        } else {
            let mut target = rng.random::<f64>() * total;
            let mut chosen = points.len() - 1;
            for (i, &d) in d2.iter().enumerate() {
                target -= d;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centroids.push(points[next]);
        for (i, p) in points.iter().enumerate() {
            d2[i] = d2[i].min(sq_dist(p, centroids.last().expect("just pushed")));
        }
    }
    centroids
}

fn median_of(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    values[values.len() / 2]
}

/// A cluster row of its members' per-dimension medians.
fn cluster_from_members(members: &[&[f64; 6]]) -> Cluster {
    let [input, shuffle, output, duration, map_time, reduce_time] =
        std::array::from_fn(|d| median_of(members.iter().map(|p| p[d]).collect()));
    let c = Cluster {
        count: members.len() as u64,
        input: DataSize::from_f64(input),
        shuffle: DataSize::from_f64(shuffle),
        output: DataSize::from_f64(output),
        duration: Dur::from_f64(duration),
        map_time: Dur::from_f64(map_time),
        reduce_time: Dur::from_f64(reduce_time),
        label: String::new(),
    };
    Cluster {
        label: label_cluster(&c),
        ..c
    }
}

/// Heuristic cluster labelling in the paper's Table 2 vocabulary, driven
/// by the data ratios between stages:
///
/// * tiny total data → "Small jobs";
/// * no reduce stage → "Map only" + transform/aggregate/summary by
///   output:input ratio;
/// * output ≪ input → "Aggregate"; output ≫ input → "Expand";
/// * otherwise → "Transform"; very long jobs gain a duration suffix.
pub fn label_cluster(c: &Cluster) -> String {
    let total = c.input + c.shuffle + c.output;
    if total < DataSize::from_gb(10) && c.duration < Dur::from_mins(10) {
        return "Small jobs".to_owned();
    }
    let input = c.input.as_f64().max(1.0);
    let output = c.output.as_f64().max(1.0);
    let ratio = output / input;
    let map_only = c.shuffle.is_zero() && c.reduce_time.is_zero();
    let base = if map_only {
        if ratio < 0.01 {
            "Map only summary"
        } else if ratio < 0.5 {
            "Map only aggregate"
        } else {
            "Map only transform"
        }
    } else if ratio < 0.1 {
        "Aggregate"
    } else if ratio > 10.0 {
        "Expand"
    } else {
        "Transform"
    };
    if c.duration >= Dur::from_hours(12) {
        format!("{base}, long")
    } else {
        base.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swim_trace::trace::WorkloadKind;
    use swim_trace::{JobBuilder, Timestamp, Trace};

    /// Deterministic multiplicative jitter in (0.8, 1.25), independent per
    /// call — keeps within-cluster spread continuous in all six dimensions
    /// so the elbow criterion sees two blobs, not lattice sub-structure.
    struct Jitter(u64);
    impl Jitter {
        fn next(&mut self) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (self.0 >> 33) as f64 / (1u64 << 31) as f64; // [0, 1)
            0.8 * 1.5625f64.powf(u) // log-uniform in [0.8, 1.25]
        }
    }

    /// Two well-separated synthetic populations: tiny jobs and huge jobs,
    /// as the points k-means clusters.
    fn bimodal_trace(n_small: usize, n_big: usize) -> Vec<[f64; 6]> {
        let mut jobs = Vec::new();
        let mut jit = Jitter(0x5EED);
        for i in 0..n_small {
            let mut j = |v: f64| (v * jit.next()) as u64;
            jobs.push(
                JobBuilder::new(i as u64)
                    .submit(Timestamp::from_secs(i as u64))
                    .duration(Dur::from_secs(j(30.0).max(1)))
                    .input(DataSize::from_bytes(j(20_000.0)))
                    .output(DataSize::from_bytes(j(800_000.0)))
                    .map_task_time(Dur::from_secs(j(20.0).max(1)))
                    .tasks(1, 0)
                    .build()
                    .unwrap(),
            );
        }
        for i in 0..n_big {
            let id = (n_small + i) as u64;
            let mut j = |v: f64| (v * jit.next()) as u64;
            jobs.push(
                JobBuilder::new(id)
                    .submit(Timestamp::from_secs(id))
                    .duration(Dur::from_secs(j(5400.0)))
                    .input(DataSize::from_bytes(j(400e9)))
                    .shuffle(DataSize::from_bytes(j(2e12)))
                    .output(DataSize::from_bytes(j(45e9)))
                    .map_task_time(Dur::from_secs(j(1_000_000.0)))
                    .reduce_task_time(Dur::from_secs(j(900_000.0)))
                    .tasks(1000, 100)
                    .build()
                    .unwrap(),
            );
        }
        let trace = Trace::new(WorkloadKind::Custom("bimodal".into()), 1, jobs).unwrap();
        trace.jobs().iter().map(|j| j.feature_vector()).collect()
    }

    #[test]
    fn separates_bimodal_population() {
        let t = bimodal_trace(900, 100);
        let m = KMeans::fit(&t, 2);
        assert_eq!(m.clusters.len(), 2);
        assert_eq!(m.clusters[0].count, 900);
        assert_eq!(m.clusters[1].count, 100);
        assert_eq!(m.clusters[0].label, "Small jobs");
        assert!(m.clusters[1].input > DataSize::from_gb(100));
    }

    #[test]
    fn assignments_match_cluster_sizes() {
        let t = bimodal_trace(50, 50);
        let m = KMeans::fit(&t, 2);
        for (c_idx, cluster) in m.clusters.iter().enumerate() {
            let assigned = m.assignments.iter().filter(|&&a| a == c_idx).count() as u64;
            assert_eq!(assigned, cluster.count);
        }
    }

    #[test]
    fn inertia_non_increasing_in_k() {
        let t = bimodal_trace(300, 60);
        let mut last = f64::INFINITY;
        for k in 1..=5 {
            let m = KMeans::fit(&t, k);
            assert!(
                m.inertia <= last + 1e-6,
                "inertia increased at k={k}: {} > {last}",
                m.inertia
            );
            last = m.inertia;
        }
    }

    #[test]
    fn elbow_picks_two_for_bimodal() {
        let t = bimodal_trace(500, 100);
        let m = KMeans::fit_with_elbow(&t, 8, 0.25);
        assert_eq!(m.k, 2, "elbow chose k = {}", m.k);
    }

    #[test]
    fn raw_scaling_is_dominated_by_biggest_dimension() {
        // With raw features the shuffle-TB dimension dwarfs everything;
        // the fit still separates bimodal data but inertia is huge.
        let t = bimodal_trace(100, 100);
        let m = KMeans::fit(&t, 2);
        assert_eq!(m.clusters.len(), 2);
        assert_eq!(m.clusters[0].count, 100);
    }

    #[test]
    fn deterministic_under_seed() {
        let t = bimodal_trace(200, 40);
        let a = KMeans::fit(&t, 4);
        let b = KMeans::fit(&t, 4);
        assert_eq!(a.clusters, b.clusters);
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    fn labels_cover_paper_vocabulary() {
        let mk =
            |input: DataSize, shuffle: DataSize, output: DataSize, dur: Dur, rt: Dur| Cluster {
                count: 1,
                input,
                shuffle,
                output,
                duration: dur,
                map_time: Dur::from_secs(100),
                reduce_time: rt,
                label: String::new(),
            };
        // Small.
        assert_eq!(
            label_cluster(&mk(
                DataSize::from_kb(21),
                DataSize::ZERO,
                DataSize::from_kb(871),
                Dur::from_secs(32),
                Dur::ZERO
            )),
            "Small jobs"
        );
        // Map-only summary: 3 TB → 200 B.
        assert_eq!(
            label_cluster(&mk(
                DataSize::from_tb(3),
                DataSize::ZERO,
                DataSize::from_bytes(200),
                Dur::from_mins(5),
                Dur::ZERO
            )),
            "Map only summary"
        );
        // Aggregate: 4.7 TB → 24 MB with a reduce stage.
        assert_eq!(
            label_cluster(&mk(
                DataSize::from_tb(4),
                DataSize::from_mb(374),
                DataSize::from_mb(24),
                Dur::from_mins(9),
                Dur::from_secs(705)
            )),
            "Aggregate"
        );
        // Expand: output ≫ input.
        assert_eq!(
            label_cluster(&mk(
                DataSize::from_kb(400),
                DataSize::ZERO,
                DataSize::from_gb(447),
                Dur::from_hours(1),
                Dur::from_secs(10)
            )),
            "Expand"
        );
        // Long suffix.
        assert_eq!(
            label_cluster(&mk(
                DataSize::from_gb(630),
                DataSize::from_tb(1),
                DataSize::from_gb(140),
                Dur::from_hours(18),
                Dur::from_secs(10)
            )),
            "Transform, long"
        );
    }

    #[test]
    #[should_panic(expected = "need at least k")]
    fn rejects_fewer_jobs_than_k() {
        let t = bimodal_trace(2, 0);
        KMeans::fit(&t, 5);
    }
}
