//! Property tests for the distribution and generator machinery.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use swim_workloadgen::dist::{Categorical, Exponential, LogNormal, Zipf};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn zipf_samples_stay_in_range(n in 1u64..5_000, s in 0.2f64..2.5, seed in any::<u64>()) {
        let z = Zipf::new(n, s);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let k = z.sample(&mut rng);
            prop_assert!((1..=n).contains(&k), "rank {k} outside 1..={n}");
        }
    }

    #[test]
    fn lognormal_is_positive(median in 1e-3f64..1e12, sigma in 0.0f64..3.0, seed in any::<u64>()) {
        let d = LogNormal::from_median(median, sigma);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..20 {
            prop_assert!(d.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn exponential_is_positive(lambda in 1e-6f64..1e6, seed in any::<u64>()) {
        let d = Exponential::new(lambda);
        let mut rng = StdRng::seed_from_u64(seed);
        prop_assert!(d.sample(&mut rng) >= 0.0);
    }

    #[test]
    fn categorical_only_returns_positive_weight_indices(
        weights in prop::collection::vec(0.0f64..100.0, 1..20),
        seed in any::<u64>(),
    ) {
        prop_assume!(weights.iter().any(|&w| w > 0.0));
        let c = Categorical::new(&weights);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let idx = c.sample(&mut rng);
            prop_assert!(weights[idx] > 0.0, "sampled zero-weight index {idx}");
        }
    }
}

mod generator_props {
    use super::*;
    use swim_trace::trace::WorkloadKind;
    use swim_workloadgen::{GeneratorConfig, WorkloadGenerator};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Any seed yields a valid, sorted, schema-conformant trace.
        #[test]
        fn generated_traces_are_valid(seed in any::<u64>()) {
            let trace = WorkloadGenerator::new(
                GeneratorConfig::new(WorkloadKind::CcE).scale(0.1).days(1.0).seed(seed),
            )
            .generate();
            prop_assert!(trace.jobs().windows(2).all(|w| w[0].submit <= w[1].submit));
            for job in trace.jobs() {
                prop_assert!(job.validate().is_ok());
            }
        }
    }
}

mod streaming_props {
    use super::*;
    use swim_trace::trace::WorkloadKind;
    use swim_trace::Job;
    use swim_workloadgen::{GeneratorConfig, StreamingGenerator, WorkloadGenerator};

    fn config(seed: u64) -> GeneratorConfig {
        GeneratorConfig::new(WorkloadKind::CcE)
            .scale(0.1)
            .days(1.0)
            .seed(seed)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Same seed ⇒ bit-identical jobs across the issue's pinned chunk
        /// sizes {1, 7, 4096} *and* vs. the one-shot `generate()` path —
        /// chunk boundaries must never touch either RNG stream.
        #[test]
        fn chunking_never_changes_the_jobs(seed in any::<u64>()) {
            let one_shot = WorkloadGenerator::new(config(seed)).generate();
            for chunk in [1usize, 7, 4096] {
                let streamed: Vec<Job> = StreamingGenerator::new(config(seed))
                    .expect("valid config")
                    .chunk_size(chunk)
                    .flatten()
                    .collect();
                prop_assert_eq!(one_shot.jobs(), &streamed[..]);
            }
        }

        /// An arbitrary chunk size agrees with chunk size 1 (the finest
        /// possible chunking) — not just the pinned set.
        #[test]
        fn arbitrary_chunk_sizes_agree(seed in any::<u64>(), chunk in 1usize..2_000) {
            let fine: Vec<Job> = StreamingGenerator::new(config(seed))
                .expect("valid config")
                .chunk_size(1)
                .flatten()
                .collect();
            let coarse: Vec<Job> = StreamingGenerator::new(config(seed))
                .expect("valid config")
                .chunk_size(chunk)
                .flatten()
                .collect();
            prop_assert_eq!(fine, coarse);
        }
    }
}
