//! The scenario model: a named, versioned composition of the paper's
//! calibrated per-workload generators.
//!
//! A [`Scenario`] layers three orthogonal knobs on top of the Table 1/2
//! profiles in `swim-workloadgen`:
//!
//! * **arrival modulation** — per-tenant overrides of the diurnal
//!   amplitude, peak hour, and burstiness σ of the arrival process
//!   ([`ArrivalTweak`]);
//! * **heavy-tail data-size mixtures** — a lognormal boost applied to a
//!   random subset of jobs, thickening the upper tail of the per-job
//!   data-size distribution beyond the calibrated cluster centroids
//!   ([`HeavyTail`]);
//! * **failure/retry-storm overlays** — failed attempts re-enter the
//!   submission stream after a fixed backoff, bounded by a reorder
//!   buffer so memory stays O(buffer), not O(trace) ([`RetryStorm`]).
//!
//! Multi-tenancy falls out of the tenant list: each [`Tenant`] is an
//! independent streaming generator over one of the seven studied
//! workloads, and the scenario interleaves them into a single
//! submit-ordered stream.

use std::fmt;
use swim_trace::trace::WorkloadKind;
use swim_trace::Dur;
use swim_workloadgen::profiles::WorkloadProfile;
use swim_workloadgen::GeneratorError;

/// Errors from scenario validation, lookup, or generation.
#[derive(Debug)]
pub enum ScenarioError {
    /// No scenario with this name exists in the preset library.
    Unknown(String),
    /// A scenario failed its own structural validation.
    Invalid {
        /// Scenario name.
        scenario: String,
        /// What is wrong with it.
        message: String,
    },
    /// The underlying workload generator rejected a derived config.
    Generator(GeneratorError),
    /// Catalog ingestion failed while streaming a scenario to disk.
    Catalog(String),
    /// The report battery could not read one of the traces it compares.
    Report(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Unknown(name) => {
                write!(f, "unknown scenario {name:?} (see `swim-scenario list`)")
            }
            ScenarioError::Invalid { scenario, message } => {
                write!(f, "invalid scenario {scenario:?}: {message}")
            }
            ScenarioError::Generator(e) => write!(f, "generator: {e}"),
            ScenarioError::Catalog(e) => write!(f, "catalog: {e}"),
            ScenarioError::Report(e) => write!(f, "report: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<GeneratorError> for ScenarioError {
    fn from(e: GeneratorError) -> Self {
        ScenarioError::Generator(e)
    }
}

/// Per-tenant overrides of the profile's [`ArrivalParams`] — `None`
/// keeps the calibrated value.
///
/// [`ArrivalParams`]: swim_workloadgen::profiles::ArrivalParams
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ArrivalTweak {
    /// Diurnal amplitude override, `[0, 1)`.
    pub diurnal_amplitude: Option<f64>,
    /// Peak hour override, `[0, 24)`.
    pub peak_hour: Option<f64>,
    /// Burstiness σ override (ln-space σ of hourly intensity), `>= 0`.
    pub burst_sigma: Option<f64>,
}

impl ArrivalTweak {
    fn validate(&self) -> Result<(), String> {
        if let Some(a) = self.diurnal_amplitude {
            if !a.is_finite() || !(0.0..1.0).contains(&a) {
                return Err(format!("diurnal_amplitude {a} outside [0, 1)"));
            }
        }
        if let Some(p) = self.peak_hour {
            if !p.is_finite() || !(0.0..24.0).contains(&p) {
                return Err(format!("peak_hour {p} outside [0, 24)"));
            }
        }
        if let Some(s) = self.burst_sigma {
            if !s.is_finite() || s < 0.0 {
                return Err(format!("burst_sigma {s} must be finite and >= 0"));
            }
        }
        Ok(())
    }
}

/// One tenant: a share of the scenario's job budget generated from one
/// of the seven calibrated workload profiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Tenant {
    /// Display label, also used to namespace the tenant's file paths.
    pub label: String,
    /// Which calibrated workload drives this tenant.
    pub kind: WorkloadKind,
    /// Relative share of the scenario's total job budget (normalized
    /// over all tenants; must be positive and finite).
    pub weight: f64,
    /// Arrival-process overrides.
    pub tweak: ArrivalTweak,
    /// Within-cluster jitter σ override (`None` keeps the generator
    /// default).
    pub sigma: Option<f64>,
}

/// Heavy-tail data-size mixture: with probability `probability`, a
/// job's input/shuffle/output (and task-times, to keep compute
/// proportional to data) are multiplied by a lognormal factor with the
/// given median and ln-space σ, and its task counts are re-derived.
#[derive(Debug, Clone, PartialEq)]
pub struct HeavyTail {
    /// Fraction of jobs boosted, `[0, 1]`.
    pub probability: f64,
    /// Median multiplicative boost (`> 1` thickens the tail).
    pub median_boost: f64,
    /// ln-space σ of the boost factor, `>= 0`.
    pub sigma: f64,
}

/// Failure/retry-storm overlay: each emitted job's attempt fails with
/// probability `probability`; every failed attempt re-enters the stream
/// `backoff` later (up to `max_retries` resubmissions, each of which
/// can fail again). Pending retries live in a bounded reorder buffer —
/// when it is full the storm saturates and further retries are dropped
/// (and counted) rather than buffered.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryStorm {
    /// Per-attempt failure probability, `[0, 1)`.
    pub probability: f64,
    /// Maximum resubmissions per original job, `>= 1`.
    pub max_retries: u32,
    /// Delay between a failed attempt and its resubmission.
    pub backoff: Dur,
}

/// A named, versioned workload scenario: tenants plus overlays.
///
/// Scenarios are pure descriptions — [`ScenarioStream`] turns one into
/// jobs, [`describe`](Scenario::describe) renders the stable text form
/// pinned by the CLI goldens.
///
/// [`ScenarioStream`]: crate::stream::ScenarioStream
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Unique name (the CLI lookup key).
    pub name: String,
    /// Version counter; bump on any parameter change so downstream
    /// studies can tell which edition of a scenario they pinned.
    pub version: u32,
    /// Industry this scenario imitates (the paper's cross-industry
    /// framing: e-commerce, telecom, media, …).
    pub industry: String,
    /// One-line description.
    pub summary: String,
    /// Trace length in days.
    pub days: f64,
    /// Tenants interleaved into the stream (at least one).
    pub tenants: Vec<Tenant>,
    /// Optional heavy-tail data-size mixture.
    pub heavy_tail: Option<HeavyTail>,
    /// Optional failure/retry-storm overlay.
    pub retry_storm: Option<RetryStorm>,
}

impl Scenario {
    /// Structural validation: weights, day count, overlay parameters,
    /// and that every tenant maps to a calibrated profile.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let fail = |message: String| ScenarioError::Invalid {
            scenario: self.name.clone(),
            message,
        };
        if self.tenants.is_empty() {
            return Err(fail("a scenario needs at least one tenant".into()));
        }
        if !self.days.is_finite() || self.days <= 0.0 {
            return Err(fail(format!("days {} must be finite and > 0", self.days)));
        }
        for tenant in &self.tenants {
            if !tenant.weight.is_finite() || tenant.weight <= 0.0 {
                return Err(fail(format!(
                    "tenant {:?} weight {} must be finite and > 0",
                    tenant.label, tenant.weight
                )));
            }
            if WorkloadProfile::for_kind(&tenant.kind).is_none() {
                return Err(fail(format!(
                    "tenant {:?} kind {:?} has no calibrated profile",
                    tenant.label, tenant.kind
                )));
            }
            if let Some(s) = tenant.sigma {
                if !s.is_finite() || s < 0.0 {
                    return Err(fail(format!(
                        "tenant {:?} sigma {s} must be finite and >= 0",
                        tenant.label
                    )));
                }
            }
            tenant
                .tweak
                .validate()
                .map_err(|m| fail(format!("tenant {:?}: {m}", tenant.label)))?;
        }
        if let Some(ht) = &self.heavy_tail {
            if !ht.probability.is_finite() || !(0.0..=1.0).contains(&ht.probability) {
                return Err(fail(format!(
                    "heavy_tail probability {} outside [0, 1]",
                    ht.probability
                )));
            }
            if !ht.median_boost.is_finite() || ht.median_boost <= 0.0 {
                return Err(fail(format!(
                    "heavy_tail median_boost {} must be finite and > 0",
                    ht.median_boost
                )));
            }
            if !ht.sigma.is_finite() || ht.sigma < 0.0 {
                return Err(fail(format!(
                    "heavy_tail sigma {} must be finite and >= 0",
                    ht.sigma
                )));
            }
        }
        if let Some(rs) = &self.retry_storm {
            if !rs.probability.is_finite() || !(0.0..1.0).contains(&rs.probability) {
                return Err(fail(format!(
                    "retry_storm probability {} outside [0, 1)",
                    rs.probability
                )));
            }
            if rs.max_retries == 0 {
                return Err(fail("retry_storm max_retries must be >= 1".into()));
            }
        }
        Ok(())
    }

    /// Nominal cluster size: the consolidated cluster is sized by its
    /// largest tenant (the smaller tenants multiplex into its troughs).
    pub fn machines(&self) -> u32 {
        self.tenants
            .iter()
            .filter_map(|t| WorkloadProfile::for_kind(&t.kind))
            .map(|p| p.machines)
            .max()
            .unwrap_or(0)
    }

    /// The workload label stamped on traces and catalog shards
    /// generated from this scenario.
    pub fn workload_label(&self) -> String {
        format!("scenario:{}", self.name)
    }

    /// Deterministic, human-readable description — the exact text the
    /// `swim-scenario describe` golden pins. Ends with a newline.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("scenario: {} (v{})\n", self.name, self.version));
        out.push_str(&format!("industry: {}\n", self.industry));
        out.push_str(&format!("summary:  {}\n", self.summary));
        out.push_str(&format!(
            "days:     {}    machines: {}\n",
            self.days,
            self.machines()
        ));
        let total: f64 = self.tenants.iter().map(|t| t.weight).sum();
        out.push_str("tenants:\n");
        for t in &self.tenants {
            let mut line = format!(
                "  - {}  kind={}  share={:.2}",
                t.label,
                t.kind.label(),
                t.weight / total
            );
            if let Some(a) = t.tweak.diurnal_amplitude {
                line.push_str(&format!("  diurnal={a}"));
            }
            if let Some(p) = t.tweak.peak_hour {
                line.push_str(&format!("  peak_hour={p}"));
            }
            if let Some(s) = t.tweak.burst_sigma {
                line.push_str(&format!("  burst_sigma={s}"));
            }
            if let Some(s) = t.sigma {
                line.push_str(&format!("  sigma={s}"));
            }
            line.push('\n');
            out.push_str(&line);
        }
        if self.heavy_tail.is_some() || self.retry_storm.is_some() {
            out.push_str("overlays:\n");
        }
        if let Some(ht) = &self.heavy_tail {
            out.push_str(&format!(
                "  heavy-tail: probability={}  median_boost={}  sigma={}\n",
                ht.probability, ht.median_boost, ht.sigma
            ));
        }
        if let Some(rs) = &self.retry_storm {
            out.push_str(&format!(
                "  retry-storm: probability={}  max_retries={}  backoff={}\n",
                rs.probability, rs.max_retries, rs.backoff
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenant(kind: WorkloadKind, weight: f64) -> Tenant {
        Tenant {
            label: "t".into(),
            kind,
            weight,
            tweak: ArrivalTweak::default(),
            sigma: None,
        }
    }

    fn base() -> Scenario {
        Scenario {
            name: "test".into(),
            version: 1,
            industry: "test".into(),
            summary: "test scenario".into(),
            days: 1.0,
            tenants: vec![tenant(WorkloadKind::CcA, 1.0)],
            heavy_tail: None,
            retry_storm: None,
        }
    }

    #[test]
    fn valid_scenario_passes() {
        base().validate().expect("base scenario is valid");
    }

    #[test]
    fn empty_tenants_rejected() {
        let mut s = base();
        s.tenants.clear();
        assert!(matches!(s.validate(), Err(ScenarioError::Invalid { .. })));
    }

    #[test]
    fn bad_weight_and_days_rejected() {
        for w in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut s = base();
            s.tenants[0].weight = w;
            assert!(s.validate().is_err(), "weight {w} accepted");
        }
        for d in [0.0, -2.0, f64::NAN] {
            let mut s = base();
            s.days = d;
            assert!(s.validate().is_err(), "days {d} accepted");
        }
    }

    #[test]
    fn custom_kind_has_no_profile() {
        let mut s = base();
        s.tenants[0].kind = WorkloadKind::Custom("x".into());
        assert!(s.validate().is_err());
    }

    #[test]
    fn overlay_ranges_enforced() {
        let mut s = base();
        s.heavy_tail = Some(HeavyTail {
            probability: 1.5,
            median_boost: 4.0,
            sigma: 1.0,
        });
        assert!(s.validate().is_err());
        let mut s = base();
        s.retry_storm = Some(RetryStorm {
            probability: 1.0,
            max_retries: 2,
            backoff: Dur::from_secs(60),
        });
        assert!(s.validate().is_err(), "probability 1.0 would retry forever");
        let mut s = base();
        s.retry_storm = Some(RetryStorm {
            probability: 0.1,
            max_retries: 0,
            backoff: Dur::from_secs(60),
        });
        assert!(s.validate().is_err());
    }

    #[test]
    fn describe_is_stable_and_complete() {
        let mut s = base();
        s.tenants.push(Tenant {
            label: "analytics".into(),
            kind: WorkloadKind::CcE,
            weight: 3.0,
            tweak: ArrivalTweak {
                burst_sigma: Some(2.0),
                ..Default::default()
            },
            sigma: Some(0.5),
        });
        s.heavy_tail = Some(HeavyTail {
            probability: 0.05,
            median_boost: 8.0,
            sigma: 1.5,
        });
        let d = s.describe();
        assert_eq!(d, s.describe(), "describe must be deterministic");
        assert!(d.contains("scenario: test (v1)"));
        assert!(d.contains("share=0.25"));
        assert!(d.contains("burst_sigma=2"));
        assert!(d.contains("heavy-tail: probability=0.05"));
        assert!(d.ends_with('\n'));
    }
}
