//! The [`WorkloadGenerator`]: combines a profile's arrival process,
//! job-type mixture, file population, and name vocabulary into a complete
//! synthetic [`Trace`].

use crate::profiles::WorkloadProfile;
use crate::streaming::StreamingGenerator;
use std::fmt;
use swim_trace::trace::WorkloadKind;
use swim_trace::Trace;

/// Typed rejection of an invalid [`GeneratorConfig`] (the streaming
/// counterpart of `swim_store::StoreOptions::validate`): a numeric field
/// out of range, or a kind this crate has no calibrated profile for.
#[derive(Debug, Clone, PartialEq)]
pub enum GeneratorError {
    /// A numeric field is non-finite or outside its legal range.
    InvalidConfig {
        /// Which field failed (`"scale"`, `"days"`, `"sigma"`).
        field: &'static str,
        /// The offending value.
        value: f64,
        /// Human-readable constraint, e.g. `"must be positive and finite"`.
        constraint: &'static str,
    },
    /// `config.kind` is not one of the paper's seven calibrated workloads;
    /// custom kinds must supply an explicit profile via `from_profile`.
    UnknownWorkload(String),
}

impl fmt::Display for GeneratorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeneratorError::InvalidConfig {
                field,
                value,
                constraint,
            } => write!(f, "invalid GeneratorConfig.{field} = {value}: {constraint}"),
            GeneratorError::UnknownWorkload(label) => write!(
                f,
                "workload {label:?} must be one of the paper's seven workloads \
                 (custom kinds need an explicit profile)"
            ),
        }
    }
}

impl std::error::Error for GeneratorError {}

/// Configuration for one generation run.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Which workload to synthesize.
    pub kind: WorkloadKind,
    /// Scale factor on the original job count (1.0 = full Table 1 scale;
    /// the FB workloads have >1 M jobs, so experiments typically use
    /// 0.01–0.1 there and 1.0 for the CC workloads).
    pub scale: f64,
    /// Optional cap on trace length in days (defaults to the profile's
    /// full Table 1 length).
    pub days: Option<f64>,
    /// RNG seed. Same seed → identical trace.
    pub seed: u64,
    /// Within-cluster jitter in ln-space (see `jobtypes::DEFAULT_SIGMA`).
    /// 0 reproduces centroids exactly.
    pub sigma: f64,
}

impl GeneratorConfig {
    /// Default configuration for a workload: full scale, profile length,
    /// seed 0, paper-calibrated jitter.
    pub fn new(kind: WorkloadKind) -> Self {
        GeneratorConfig {
            kind,
            scale: 1.0,
            days: None,
            seed: 0,
            sigma: crate::jobtypes::DEFAULT_SIGMA,
        }
    }

    /// Set the job-count scale factor.
    pub fn scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0 && scale.is_finite(), "scale must be positive");
        self.scale = scale;
        self
    }

    /// Cap the trace length in days.
    pub fn days(mut self, days: f64) -> Self {
        assert!(days > 0.0 && days.is_finite(), "days must be positive");
        self.days = Some(days);
        self
    }

    /// Set the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the within-cluster jitter.
    pub fn sigma(mut self, sigma: f64) -> Self {
        assert!(sigma >= 0.0 && sigma.is_finite(), "sigma must be >= 0");
        self.sigma = sigma;
        self
    }

    /// Validate every numeric field, rejecting non-positive or non-finite
    /// values with a typed error. The builder setters above enforce the
    /// same constraints by panicking; `validate` is the non-panicking
    /// front door for configs assembled field-by-field (CLI flag parsing,
    /// scenario presets) and is called by [`StreamingGenerator::new`].
    pub fn validate(&self) -> Result<(), GeneratorError> {
        fn check(
            field: &'static str,
            value: f64,
            ok: bool,
            constraint: &'static str,
        ) -> Result<(), GeneratorError> {
            if ok {
                Ok(())
            } else {
                Err(GeneratorError::InvalidConfig {
                    field,
                    value,
                    constraint,
                })
            }
        }
        check(
            "scale",
            self.scale,
            self.scale > 0.0 && self.scale.is_finite(),
            "must be positive and finite",
        )?;
        if let Some(days) = self.days {
            check(
                "days",
                days,
                days > 0.0 && days.is_finite(),
                "must be positive and finite",
            )?;
        }
        check(
            "sigma",
            self.sigma,
            self.sigma >= 0.0 && self.sigma.is_finite(),
            "must be non-negative and finite",
        )
    }
}

/// Synthesizes traces from calibrated profiles.
#[derive(Debug)]
pub struct WorkloadGenerator {
    config: GeneratorConfig,
    profile: WorkloadProfile,
}

impl WorkloadGenerator {
    /// Build a generator; panics if `config.kind` is not one of the seven
    /// paper workloads (custom workloads use [`WorkloadGenerator::from_profile`]).
    pub fn new(config: GeneratorConfig) -> Self {
        let profile = WorkloadProfile::for_kind(&config.kind)
            .expect("GeneratorConfig.kind must be one of the paper's seven workloads");
        WorkloadGenerator { config, profile }
    }

    /// Build a generator from an explicit profile (custom workloads).
    pub fn from_profile(config: GeneratorConfig, profile: WorkloadProfile) -> Self {
        WorkloadGenerator { config, profile }
    }

    /// Generate the trace.
    ///
    /// Since the streaming refactor this is a thin wrapper over
    /// [`StreamingGenerator`]: the trace is assembled chunk by chunk from
    /// the same per-job state machine the bounded-memory path uses, so a
    /// one-shot `generate()` and a streamed run with *any* chunk size are
    /// bit-identical for the same seed.
    pub fn generate(&self) -> Trace {
        StreamingGenerator::from_profile(self.config.clone(), self.profile.clone())
            .expect("WorkloadGenerator carries a validated config")
            .collect_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swim_trace::DataSize;

    fn small(kind: WorkloadKind, scale: f64) -> Trace {
        WorkloadGenerator::new(GeneratorConfig::new(kind).scale(scale).days(3.0).seed(3)).generate()
    }

    #[test]
    fn generates_nonempty_sorted_trace() {
        let t = small(WorkloadKind::CcB, 0.5);
        assert!(t.len() > 1_000, "got {} jobs", t.len());
        assert!(t.jobs().windows(2).all(|w| w[0].submit <= w[1].submit));
    }

    #[test]
    fn deterministic_under_seed() {
        let a = small(WorkloadKind::CcE, 0.2);
        let b = small(WorkloadKind::CcE, 0.2);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = WorkloadGenerator::new(
            GeneratorConfig::new(WorkloadKind::CcE)
                .scale(0.2)
                .days(2.0)
                .seed(1),
        )
        .generate();
        let b = WorkloadGenerator::new(
            GeneratorConfig::new(WorkloadKind::CcE)
                .scale(0.2)
                .days(2.0)
                .seed(2),
        )
        .generate();
        assert_ne!(a, b);
    }

    #[test]
    fn job_count_tracks_scale_and_days() {
        // CC-b: 22 974 jobs over 9 days ≈ 106/hr; 3 days at scale 0.5
        // ⇒ ≈ 3 830 expected.
        let t = small(WorkloadKind::CcB, 0.5);
        let expected = 22_974.0 * 0.5 * (3.0 / 9.0);
        let ratio = t.len() as f64 / expected;
        assert!(
            (0.7..1.3).contains(&ratio),
            "len {} vs expected {expected}",
            t.len()
        );
    }

    #[test]
    fn availability_matrix_respected_in_output() {
        let b = small(WorkloadKind::CcB, 0.2);
        assert!(b.jobs().iter().all(|j| !j.input_paths.is_empty()));
        assert!(b.jobs().iter().all(|j| !j.output_paths.is_empty()));
        assert!(b.jobs().iter().all(|j| !j.name.is_empty()));

        let fb10 = small(WorkloadKind::Fb2010, 0.002);
        assert!(fb10.jobs().iter().all(|j| !j.input_paths.is_empty()));
        assert!(fb10.jobs().iter().all(|j| j.output_paths.is_empty()));
        assert!(fb10.jobs().iter().all(|j| j.name.is_empty()));

        let fb09 = small(WorkloadKind::Fb2009, 0.002);
        assert!(fb09.jobs().iter().all(|j| j.input_paths.is_empty()));
        assert!(fb09.jobs().iter().all(|j| !j.name.is_empty()));
    }

    #[test]
    fn small_jobs_dominate_generated_trace() {
        let t = small(WorkloadKind::Fb2009, 0.01);
        // >90 % of jobs should be at sub-100 MB total IO (the small-job
        // cluster centroid is ~0.9 MB with jitter).
        let small_count = t
            .jobs()
            .iter()
            .filter(|j| j.total_io() < DataSize::from_mb(100))
            .count();
        let share = small_count as f64 / t.len() as f64;
        assert!(share > 0.85, "small-job share {share}");
    }

    #[test]
    fn jobs_validate() {
        let t = small(WorkloadKind::CcC, 0.3);
        for j in t.jobs() {
            j.validate().expect("generated jobs must pass validation");
        }
    }

    #[test]
    fn zero_sigma_trace_matches_centroids() {
        let t = WorkloadGenerator::new(
            GeneratorConfig::new(WorkloadKind::CcA)
                .scale(1.0)
                .days(2.0)
                .seed(3)
                .sigma(0.0),
        )
        .generate();
        let centroid_durations: Vec<u64> = crate::profiles::cc_a()
            .job_types
            .iter()
            .map(|jt| jt.duration.secs())
            .collect();
        for j in t.jobs() {
            assert!(
                centroid_durations.contains(&j.duration.secs()),
                "duration {} not a centroid",
                j.duration
            );
        }
    }

    #[test]
    #[should_panic(expected = "must be one of the paper's seven workloads")]
    fn custom_kind_requires_profile() {
        WorkloadGenerator::new(GeneratorConfig::new(WorkloadKind::Custom("x".into())));
    }

    #[test]
    fn validate_accepts_builder_configs() {
        GeneratorConfig::new(WorkloadKind::CcA)
            .scale(0.5)
            .days(2.0)
            .sigma(0.0)
            .validate()
            .expect("builder-made configs are always valid");
    }

    #[test]
    fn validate_rejects_edge_cases() {
        let base = GeneratorConfig::new(WorkloadKind::CcA);
        let bad = [
            (
                "scale",
                GeneratorConfig {
                    scale: 0.0,
                    ..base.clone()
                },
            ),
            (
                "scale",
                GeneratorConfig {
                    scale: -1.0,
                    ..base.clone()
                },
            ),
            (
                "scale",
                GeneratorConfig {
                    scale: f64::NAN,
                    ..base.clone()
                },
            ),
            (
                "scale",
                GeneratorConfig {
                    scale: f64::INFINITY,
                    ..base.clone()
                },
            ),
            (
                "days",
                GeneratorConfig {
                    days: Some(0.0),
                    ..base.clone()
                },
            ),
            (
                "days",
                GeneratorConfig {
                    days: Some(-3.0),
                    ..base.clone()
                },
            ),
            (
                "days",
                GeneratorConfig {
                    days: Some(f64::NAN),
                    ..base.clone()
                },
            ),
            (
                "days",
                GeneratorConfig {
                    days: Some(f64::INFINITY),
                    ..base.clone()
                },
            ),
            (
                "sigma",
                GeneratorConfig {
                    sigma: -0.1,
                    ..base.clone()
                },
            ),
            (
                "sigma",
                GeneratorConfig {
                    sigma: f64::NAN,
                    ..base.clone()
                },
            ),
            (
                "sigma",
                GeneratorConfig {
                    sigma: f64::NEG_INFINITY,
                    ..base.clone()
                },
            ),
        ];
        for (want, config) in bad {
            match config.validate() {
                Err(GeneratorError::InvalidConfig { field, .. }) => {
                    assert_eq!(field, want, "wrong field blamed");
                }
                other => panic!("expected InvalidConfig({want}), got {other:?}"),
            }
        }
        // Zero sigma and missing days are legal.
        GeneratorConfig {
            sigma: 0.0,
            days: None,
            ..base
        }
        .validate()
        .expect("sigma = 0 / days = None are valid");
    }

    #[test]
    fn generator_error_displays_context() {
        let err = GeneratorConfig {
            scale: f64::NAN,
            ..GeneratorConfig::new(WorkloadKind::CcA)
        }
        .validate()
        .unwrap_err();
        let text = err.to_string();
        assert!(text.contains("scale"), "{text}");
        assert!(text.contains("NaN"), "{text}");
    }

    #[test]
    fn burst_hours_are_small_job_storms() {
        // In the busiest hours, the share of small jobs must be at least
        // the baseline share (burst excess routes to the dominant type),
        // which is what keeps jobs/hour decoupled from bytes/hour (Fig. 9).
        let t = small(WorkloadKind::CcB, 1.0);
        let mut hourly: std::collections::HashMap<u64, (u64, u64)> = Default::default();
        for j in t.jobs() {
            let e = hourly.entry(j.submit.hour_bucket()).or_default();
            e.0 += 1;
            if j.total_io() < DataSize::from_mb(100) {
                e.1 += 1;
            }
        }
        let mut hours: Vec<(u64, u64)> = hourly.into_values().collect();
        hours.sort_by_key(|h| std::cmp::Reverse(h.0));
        let busiest: Vec<(u64, u64)> = hours.iter().take(3).copied().collect();
        for (total, small) in busiest {
            let share = small as f64 / total as f64;
            assert!(
                share > 0.9,
                "busiest hour has only {share:.2} small-job share"
            );
        }
    }
}
