//! Property-based tests (proptest) for the core invariants across crates.

use proptest::prelude::*;
use swim_core::stats::Ecdf;
use swim_sim::{ks_distance, ReplayJob, ReplayPlan, SimConfig, Simulator};
use swim_trace::trace::WorkloadKind;
use swim_trace::{DataSize, Dur, Job, JobBuilder, Timestamp, Trace};
use swim_workloadgen::{GeneratorConfig, WorkloadGenerator};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Quantile is monotone in p and bounded by min/max.
    #[test]
    fn ecdf_quantile_monotone(mut samples in prop::collection::vec(0.0f64..1e12, 1..200),
                              p1 in 0.0f64..1.0, p2 in 0.0f64..1.0) {
        samples.iter_mut().for_each(|s| *s = s.abs());
        let e = Ecdf::new(samples.clone());
        let (lo, hi) = (p1.min(p2), p1.max(p2));
        prop_assert!(e.quantile(lo) <= e.quantile(hi));
        prop_assert!(e.quantile(0.0) >= e.min() - 1e-9);
        prop_assert!(e.quantile(1.0) <= e.max() + 1e-9);
    }

    /// KS distance is a pseudo-metric: symmetric, in [0,1], zero on self.
    #[test]
    fn ks_distance_is_pseudo_metric(a in prop::collection::vec(-1e6f64..1e6, 1..80),
                                    b in prop::collection::vec(-1e6f64..1e6, 1..80)) {
        let dab = ks_distance(&a, &b).unwrap();
        let dba = ks_distance(&b, &a).unwrap();
        prop_assert!((dab - dba).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&dab));
        prop_assert_eq!(ks_distance(&a, &a).unwrap(), 0.0);
    }

    /// DataSize arithmetic: scaling by ≤1 never grows a size, and scaling
    /// by exactly 1 is the identity within f64's exact-integer range
    /// (2^53; `scale` is documented as f64-mediated).
    #[test]
    fn datasize_scale_monotone(bytes in 0u64..(1u64 << 53), f in 0.0f64..1.0) {
        let d = DataSize::from_bytes(bytes);
        prop_assert!(d.scale(f) <= d + DataSize::from_bytes(1));
        prop_assert_eq!(d.scale(1.0), d);
        prop_assert_eq!(d + DataSize::ZERO, d);
    }

    /// Trace construction sorts by submit and select_range is consistent.
    #[test]
    fn trace_ordering_invariants(submits in prop::collection::vec(0u64..1_000_000, 1..60)) {
        let jobs: Vec<Job> = submits.iter().enumerate().map(|(i, &s)| {
            JobBuilder::new(i as u64)
                .submit(Timestamp::from_secs(s))
                .duration(Dur::from_secs(10))
                .input(DataSize::from_mb(1))
                .map_task_time(Dur::from_secs(5))
                .tasks(1, 0)
                .build()
                .unwrap()
        }).collect();
        let trace = Trace::new(WorkloadKind::Custom("prop".into()), 1, jobs).unwrap();
        prop_assert!(trace.jobs().windows(2).all(|w| w[0].submit <= w[1].submit));
        let mid = Timestamp::from_secs(500_000);
        let early = trace.select_range(Timestamp::ZERO, mid);
        let late = trace.select_range(mid, Timestamp::from_secs(u32::MAX as u64));
        prop_assert_eq!(early.len() + late.len(), trace.len());
    }

    /// Burstiness ratios are monotone and ≥ peak at 100th percentile.
    #[test]
    fn burstiness_monotonicity(signal in prop::collection::vec(1.0f64..1e6, 4..200)) {
        use swim_core::burstiness::Burstiness;
        if let Some(b) = Burstiness::of(&signal, &[]) {
            prop_assert!(b.points.windows(2).all(|w| w[0].ratio <= w[1].ratio + 1e-9));
            let p100 = b.points.last().unwrap().ratio;
            prop_assert!(b.peak_to_median >= p100 - 1e-9);
        }
    }

    /// Replay plans conserve bytes and schedule length for any trace.
    #[test]
    fn replay_plan_conservation(n in 1usize..40, seed in 0u64..1000) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let jobs: Vec<Job> = (0..n).map(|i| {
            JobBuilder::new(i as u64)
                .submit(Timestamp::from_secs(rng.random_range(0..100_000)))
                .duration(Dur::from_secs(rng.random_range(1..1000)))
                .input(DataSize::from_bytes(rng.random_range(0..1_000_000_000)))
                .output(DataSize::from_bytes(rng.random_range(0..1_000_000_000)))
                .map_task_time(Dur::from_secs(rng.random_range(1..1000)))
                .tasks(rng.random_range(1..50), 0)
                .build()
                .unwrap()
        }).collect();
        let trace = Trace::new(WorkloadKind::Custom("rp".into()), 5, jobs).unwrap();
        let plan = ReplayPlan::from_trace(&trace);
        prop_assert_eq!(plan.total_bytes(), trace.bytes_moved());
        prop_assert_eq!(
            plan.schedule_length().secs(),
            trace.end().unwrap().secs()
        );
    }

    /// The simulator completes every job exactly once, in any plan.
    #[test]
    fn simulator_work_conservation(n in 1usize..25, seed in 0u64..500) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let jobs: Vec<ReplayJob> = (0..n).map(|_| {
            let reduce_tasks = rng.random_range(0..4u32);
            ReplayJob {
                gap: Dur::from_secs(rng.random_range(0..300)),
                input_file: None,
                input: DataSize::from_mb(rng.random_range(1..100)),
                shuffle: if reduce_tasks > 0 { DataSize::from_mb(1) } else { DataSize::ZERO },
                output: DataSize::from_mb(rng.random_range(1..100)),
                map_task_time: Dur::from_secs(rng.random_range(1..500)),
                reduce_task_time: if reduce_tasks > 0 {
                    Dur::from_secs(rng.random_range(1..500))
                } else {
                    Dur::ZERO
                },
                map_tasks: rng.random_range(1..20),
                reduce_tasks,
            }
        }).collect();
        let plan = ReplayPlan { name: "prop".into(), machines: 3, jobs };
        let result = Simulator::new(SimConfig::new(3)).run(&plan);
        prop_assert_eq!(result.outcomes.len(), plan.len());
        // Outcomes are keyed uniquely by job index.
        let mut ids: Vec<usize> = result.outcomes.iter().map(|o| o.job).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), plan.len());
    }

    /// Generator determinism: same seed → identical traces, any scale.
    #[test]
    fn generator_determinism(seed in 0u64..100) {
        let make = || WorkloadGenerator::new(
            GeneratorConfig::new(WorkloadKind::CcA).scale(0.2).days(1.0).seed(seed),
        ).generate();
        prop_assert_eq!(make(), make());
    }
}
