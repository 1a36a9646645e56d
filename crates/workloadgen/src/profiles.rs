//! Per-workload calibration profiles for the seven traces of the study.
//!
//! Each [`WorkloadProfile`] bundles:
//!
//! * Table 1 scale: machines, trace length, total job count;
//! * Table 2 job-type mixture: every published cluster centroid with its
//!   population count and label;
//! * Figure 8-calibrated arrival parameters (burstiness band, diurnal);
//! * Figure 5/6-calibrated access model (re-access fractions, locality);
//! * Figure 10-calibrated name vocabulary;
//! * the data availability matrix of §4.2/§6.1 (which workloads ship
//!   paths and names).
//!
//! Data sizes and task-times below are transcriptions of Table 2 of the
//! paper; counts are the `# Jobs` column. Where the paper gives a range
//! (CC-d machines "400–500"), the midpoint is used.

use crate::arrival::ArrivalModel;
use crate::files::AccessModel;
use crate::jobtypes::JobTypeProfile;
use crate::naming::{self, NameVocabulary};
use swim_trace::trace::WorkloadKind;
use swim_trace::{DataSize, Dur};

/// Whether a trace exposes input/output path fields (§4.2's availability
/// matrix: "FB-2009 and CC-a do not contain path names; FB-2010 contains
/// path names for input only").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathAvailability {
    /// Input paths present.
    pub input: bool,
    /// Output paths present.
    pub output: bool,
}

/// Full calibration for one workload.
#[derive(Debug, Clone)]
pub struct WorkloadProfile {
    /// Which of the seven workloads.
    pub kind: WorkloadKind,
    /// Cluster machine count (Table 1).
    pub machines: u32,
    /// Trace length in days (Table 1).
    pub length_days: f64,
    /// Total jobs in the original trace (Table 1).
    pub total_jobs: u64,
    /// Table 2 job-type rows.
    pub job_types: Vec<JobTypeProfile>,
    /// Arrival process parameters (Fig. 7/8 calibration).
    pub arrival: ArrivalParams,
    /// File access model (Fig. 2/5/6 calibration).
    pub access: AccessModel,
    /// Path availability matrix entry.
    pub paths: PathAvailability,
    /// `true` iff job names are present (false only for FB-2010).
    pub has_names: bool,
}

/// Arrival-shape parameters; combined with trace scale to build an
/// [`ArrivalModel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalParams {
    /// Diurnal amplitude `[0,1)`.
    pub diurnal_amplitude: f64,
    /// Peak hour of day.
    pub peak_hour: f64,
    /// Burst log-sigma (Fig. 8 band: FB-2010 ≈ 9:1 → small sigma,
    /// CC-b ≈ 100:1+ → large sigma).
    pub burst_sigma: f64,
}

impl WorkloadProfile {
    /// The profile's name vocabulary (fresh sampler state).
    pub fn vocabulary(&self) -> NameVocabulary {
        match self.kind {
            WorkloadKind::CcA => naming::cc_a(),
            WorkloadKind::CcB => naming::cc_b(),
            WorkloadKind::CcC => naming::cc_c(),
            WorkloadKind::CcD => naming::cc_d(),
            WorkloadKind::CcE => naming::cc_e(),
            WorkloadKind::Fb2009 => naming::fb2009(),
            WorkloadKind::Fb2010 => naming::fb2010(),
            WorkloadKind::Custom(_) => NameVocabulary::unnamed(),
        }
    }

    /// Arrival model for a trace scaled to `scale` × the original job count.
    pub fn arrival_model(&self, scale: f64) -> ArrivalModel {
        let hours = self.length_days * 24.0;
        ArrivalModel {
            jobs_per_hour: self.total_jobs as f64 * scale / hours,
            diurnal_amplitude: self.arrival.diurnal_amplitude,
            peak_hour: self.arrival.peak_hour,
            burst_sigma: self.arrival.burst_sigma,
        }
    }

    /// Profile for any of the seven paper workloads.
    pub fn for_kind(kind: &WorkloadKind) -> Option<WorkloadProfile> {
        match kind {
            WorkloadKind::CcA => Some(cc_a()),
            WorkloadKind::CcB => Some(cc_b()),
            WorkloadKind::CcC => Some(cc_c()),
            WorkloadKind::CcD => Some(cc_d()),
            WorkloadKind::CcE => Some(cc_e()),
            WorkloadKind::Fb2009 => Some(fb2009()),
            WorkloadKind::Fb2010 => Some(fb2010()),
            WorkloadKind::Custom(_) => None,
        }
    }
}

// Shorthand constructors keeping the table rows readable.
const fn b(n: u64) -> DataSize {
    DataSize::from_bytes(n)
}
const fn kb(n: u64) -> DataSize {
    DataSize::from_kb(n)
}
const fn mb(n: u64) -> DataSize {
    DataSize::from_mb(n)
}
const fn gb(n: u64) -> DataSize {
    DataSize::from_gb(n)
}
const fn tb(n: u64) -> DataSize {
    DataSize::from_tb(n)
}
const fn secs(n: u64) -> Dur {
    Dur::from_secs(n)
}
const fn mins(n: u64) -> Dur {
    Dur::from_secs(n * 60)
}
const fn hrs(n: u64) -> Dur {
    Dur::from_secs(n * 3600)
}
const ZERO: DataSize = DataSize::ZERO;
const ZD: Dur = Dur::ZERO;
#[allow(clippy::too_many_arguments)]
const fn row(
    count: u64,
    input: DataSize,
    shuffle: DataSize,
    output: DataSize,
    duration: Dur,
    map_time: Dur,
    reduce_time: Dur,
    label: &'static str,
) -> JobTypeProfile {
    JobTypeProfile::new(
        count,
        input,
        shuffle,
        output,
        duration,
        map_time,
        reduce_time,
        label,
    )
}

/// CC-a: e-commerce customer, <100 machines, 1 month, 5 759 jobs, 80 TB.
pub fn cc_a() -> WorkloadProfile {
    WorkloadProfile {
        kind: WorkloadKind::CcA,
        machines: 60,
        length_days: 30.0,
        total_jobs: 5_759,
        job_types: vec![
            row(
                5_525,
                mb(51),
                ZERO,
                mb(4),
                secs(39),
                secs(33),
                ZD,
                "Small jobs",
            ),
            row(
                194,
                gb(14),
                gb(12),
                gb(10),
                mins(35),
                secs(65_100),
                secs(15_410),
                "Transform",
            ),
            row(
                31,
                tb(1) + gb(200),
                ZERO,
                gb(27),
                hrs(2) + mins(30),
                secs(437_615),
                ZD,
                "Map only, huge",
            ),
            row(
                9,
                gb(273),
                gb(185),
                mb(21),
                hrs(4) + mins(30),
                secs(191_351),
                secs(831_181),
                "Transform and aggregate",
            ),
        ],
        arrival: ArrivalParams {
            diurnal_amplitude: 0.3,
            peak_hour: 14.0,
            burst_sigma: 1.2,
        },
        // CC-a ships no path names.
        access: AccessModel::paper_defaults(0.25, 0.15),
        paths: PathAvailability {
            input: false,
            output: false,
        },
        has_names: true,
    }
}

/// CC-b: telecom customer, 300 machines, 9 days, 22 974 jobs, 600 TB.
pub fn cc_b() -> WorkloadProfile {
    WorkloadProfile {
        kind: WorkloadKind::CcB,
        machines: 300,
        length_days: 9.0,
        total_jobs: 22_974,
        job_types: vec![
            row(
                21_210,
                kb(4) + b(600),
                ZERO,
                kb(4) + b(700),
                secs(23),
                secs(11),
                ZD,
                "Small jobs",
            ),
            row(
                1_565,
                gb(41),
                gb(10),
                gb(2) + mb(100),
                mins(4),
                secs(15_837),
                secs(12_392),
                "Transform, small",
            ),
            row(
                165,
                gb(123),
                gb(43),
                gb(13),
                mins(6),
                secs(36_265),
                secs(31_389),
                "Transform, medium",
            ),
            row(
                31,
                tb(4) + gb(700),
                mb(374),
                mb(24),
                mins(9),
                secs(876_786),
                secs(705),
                "Aggregate and transform",
            ),
            row(
                3,
                gb(600),
                gb(1) + mb(600),
                mb(550),
                hrs(6) + mins(45),
                secs(3_092_977),
                secs(230_976),
                "Aggregate",
            ),
        ],
        arrival: ArrivalParams {
            diurnal_amplitude: 0.2,
            peak_hour: 11.0,
            burst_sigma: 1.6,
        },
        access: AccessModel::paper_defaults(0.25, 0.15),
        paths: PathAvailability {
            input: true,
            output: true,
        },
        has_names: true,
    }
}

/// CC-c: 700 machines, 1 month, 21 030 jobs, 18 PB.
pub fn cc_c() -> WorkloadProfile {
    WorkloadProfile {
        kind: WorkloadKind::CcC,
        machines: 700,
        length_days: 30.0,
        total_jobs: 21_030,
        job_types: vec![
            row(
                19_975,
                gb(5) + mb(700),
                gb(3),
                mb(200),
                mins(4),
                secs(10_933),
                secs(6_586),
                "Small jobs",
            ),
            row(
                477,
                tb(1),
                tb(4) + gb(200),
                gb(920),
                mins(47),
                secs(1_927_432),
                secs(462_070),
                "Transform, light reduce",
            ),
            row(
                246,
                gb(887),
                gb(57),
                mb(22),
                hrs(4) + mins(14),
                secs(569_391),
                secs(158_930),
                "Aggregate",
            ),
            row(
                197,
                tb(1) + gb(100),
                tb(3) + gb(700),
                tb(3) + gb(700),
                mins(53),
                secs(1_895_403),
                secs(886_347),
                "Transform, heavy reduce",
            ),
            row(
                105,
                gb(32),
                gb(37),
                gb(2) + mb(400),
                hrs(2) + mins(11),
                secs(14_865_972),
                secs(369_846),
                "Aggregate, large",
            ),
            row(
                23,
                tb(3) + gb(700),
                gb(562),
                gb(37),
                hrs(17),
                secs(9_779_062),
                secs(14_989_871),
                "Long jobs",
            ),
            row(
                7,
                tb(220),
                gb(18),
                gb(2) + mb(800),
                hrs(5) + mins(15),
                secs(66_839_710),
                secs(758_957),
                "Aggregate, huge",
            ),
        ],
        arrival: ArrivalParams {
            diurnal_amplitude: 0.25,
            peak_hour: 13.0,
            burst_sigma: 1.3,
        },
        // CC-c shows the highest re-access fraction (≈78 %, Fig. 6).
        access: AccessModel::paper_defaults(0.48, 0.30),
        paths: PathAvailability {
            input: true,
            output: true,
        },
        has_names: true,
    }
}

/// CC-d: 400–500 machines, 2+ months, 13 283 jobs, 8 PB.
pub fn cc_d() -> WorkloadProfile {
    WorkloadProfile {
        kind: WorkloadKind::CcD,
        machines: 450,
        length_days: 66.0,
        total_jobs: 13_283,
        job_types: vec![
            row(
                12_736,
                gb(3) + mb(100),
                mb(753),
                mb(231),
                secs(67),
                secs(7_376),
                secs(5_085),
                "Small jobs",
            ),
            row(
                214,
                gb(633),
                tb(2) + gb(900),
                gb(332),
                mins(11),
                secs(544_433),
                secs(352_692),
                "Expand and aggregate",
            ),
            row(
                162,
                gb(5) + mb(300),
                tb(6) + gb(100),
                gb(33),
                mins(23),
                secs(2_011_911),
                secs(910_673),
                "Transform and aggregate",
            ),
            row(
                128,
                tb(1),
                tb(6) + gb(200),
                tb(6) + gb(700),
                mins(20),
                secs(847_286),
                secs(900_395),
                "Expand and Transform",
            ),
            row(
                43,
                gb(17),
                gb(4),
                gb(1) + mb(700),
                mins(36),
                secs(6_259_747),
                secs(7_067),
                "Aggregate",
            ),
        ],
        arrival: ArrivalParams {
            diurnal_amplitude: 0.25,
            peak_hour: 10.0,
            burst_sigma: 1.4,
        },
        access: AccessModel::paper_defaults(0.45, 0.30),
        paths: PathAvailability {
            input: true,
            output: true,
        },
        has_names: true,
    }
}

/// CC-e: 100 machines, 9 days, 10 790 jobs, 590 TB.
pub fn cc_e() -> WorkloadProfile {
    WorkloadProfile {
        kind: WorkloadKind::CcE,
        machines: 100,
        length_days: 9.0,
        total_jobs: 10_790,
        job_types: vec![
            row(
                10_243,
                mb(8) + kb(100),
                ZERO,
                kb(970),
                secs(18),
                secs(15),
                ZD,
                "Small jobs",
            ),
            row(
                452,
                gb(166),
                gb(180),
                gb(118),
                mins(31),
                secs(35_606),
                secs(38_194),
                "Transform, large",
            ),
            row(
                68,
                gb(543),
                gb(502),
                gb(166),
                hrs(2),
                secs(115_077),
                secs(108_745),
                "Transform, very large",
            ),
            row(
                20,
                tb(3),
                ZERO,
                b(200),
                mins(5),
                secs(137_077),
                ZD,
                "Map only summary",
            ),
            // The published centroid shows a small shuffle with zero reduce
            // task-time; the generator models it as a reduce stage whose
            // slot-time rounds to zero.
            row(
                7,
                tb(6) + gb(700),
                gb(2) + mb(300),
                tb(6) + gb(700),
                hrs(3) + mins(47),
                secs(335_807),
                secs(60),
                "Map only transform",
            ),
        ],
        arrival: ArrivalParams {
            diurnal_amplitude: 0.5,
            peak_hour: 15.0,
            burst_sigma: 1.1,
        },
        access: AccessModel::paper_defaults(0.42, 0.28),
        paths: PathAvailability {
            input: true,
            output: true,
        },
        has_names: true,
    }
}

/// FB-2009: 600 machines, 6 months, 1 129 193 jobs, 9.4 PB.
pub fn fb2009() -> WorkloadProfile {
    WorkloadProfile {
        kind: WorkloadKind::Fb2009,
        machines: 600,
        length_days: 180.0,
        total_jobs: 1_129_193,
        job_types: vec![
            row(
                1_081_918,
                kb(21),
                ZERO,
                kb(871),
                secs(32),
                secs(20),
                ZD,
                "Small jobs",
            ),
            row(
                37_038,
                kb(381),
                ZERO,
                gb(1) + mb(900),
                mins(21),
                secs(6_079),
                ZD,
                "Load data, fast",
            ),
            row(
                2_070,
                kb(10),
                ZERO,
                gb(4) + mb(200),
                hrs(1) + mins(50),
                secs(26_321),
                ZD,
                "Load data, slow",
            ),
            row(
                602,
                kb(405),
                ZERO,
                gb(447),
                hrs(1) + mins(10),
                secs(66_657),
                ZD,
                "Load data, large",
            ),
            row(
                180,
                kb(446),
                ZERO,
                tb(1) + gb(100),
                hrs(5) + mins(5),
                secs(125_662),
                ZD,
                "Load data, huge",
            ),
            row(
                6_035,
                gb(230),
                gb(8) + mb(800),
                mb(491),
                mins(15),
                secs(104_338),
                secs(66_760),
                "Aggregate, fast",
            ),
            row(
                379,
                tb(1) + gb(900),
                mb(502),
                gb(2) + mb(600),
                mins(30),
                secs(348_942),
                secs(76_736),
                "Aggregate and expand",
            ),
            row(
                159,
                gb(418),
                tb(2) + gb(500),
                gb(45),
                hrs(1) + mins(25),
                secs(1_076_089),
                secs(974_395),
                "Expand and aggregate",
            ),
            row(
                793,
                gb(255),
                gb(788),
                gb(1) + mb(600),
                mins(35),
                secs(384_562),
                secs(338_050),
                "Data transform",
            ),
            row(
                19,
                tb(7) + gb(600),
                gb(51),
                kb(104),
                mins(55),
                secs(4_843_452),
                secs(853_911),
                "Data summary",
            ),
        ],
        // FB-2009 peak-to-median ≈ 31:1 (§5.2).
        arrival: ArrivalParams {
            diurnal_amplitude: 0.3,
            peak_hour: 15.0,
            burst_sigma: 1.25,
        },
        // FB-2009 ships no path names.
        access: AccessModel::paper_defaults(0.30, 0.20),
        paths: PathAvailability {
            input: false,
            output: false,
        },
        has_names: true,
    }
}

/// FB-2010: 3 000 machines, 45 days, 1 169 184 jobs, 1.5 EB.
pub fn fb2010() -> WorkloadProfile {
    WorkloadProfile {
        kind: WorkloadKind::Fb2010,
        machines: 3_000,
        length_days: 45.0,
        total_jobs: 1_169_184,
        job_types: vec![
            row(
                1_145_663,
                mb(6) + kb(900),
                b(600),
                kb(60),
                mins(1),
                secs(48),
                secs(34),
                "Small jobs",
            ),
            row(
                7_911,
                gb(50),
                ZERO,
                gb(61),
                hrs(8),
                secs(60_664),
                ZD,
                "Map only transform, 8 hrs",
            ),
            row(
                779,
                tb(3) + gb(600),
                ZERO,
                tb(4) + gb(400),
                mins(45),
                secs(3_081_710),
                ZD,
                "Map only transform, 45 min",
            ),
            row(
                670,
                tb(2) + gb(100),
                ZERO,
                gb(2) + mb(700),
                hrs(1) + mins(20),
                secs(9_457_592),
                ZD,
                "Map only aggregate",
            ),
            row(
                104,
                gb(35),
                ZERO,
                gb(3) + mb(500),
                hrs(72),
                secs(198_436),
                ZD,
                "Map only transform, 3 days",
            ),
            row(
                11_491,
                tb(1) + gb(500),
                gb(30),
                gb(2) + mb(200),
                mins(30),
                secs(1_112_765),
                secs(387_191),
                "Aggregate",
            ),
            row(
                1_876,
                gb(711),
                tb(2) + gb(600),
                gb(860),
                hrs(2),
                secs(1_618_792),
                secs(2_056_439),
                "Transform, 2 hrs",
            ),
            row(
                454,
                tb(9),
                tb(1) + gb(500),
                tb(1) + gb(200),
                hrs(1),
                secs(1_795_682),
                secs(818_344),
                "Aggregate and transform",
            ),
            row(
                169,
                tb(2) + gb(700),
                tb(12),
                gb(260),
                hrs(2) + mins(7),
                secs(2_862_726),
                secs(3_091_678),
                "Expand and aggregate",
            ),
            row(
                67,
                gb(630),
                tb(1) + gb(200),
                gb(140),
                hrs(18),
                secs(1_545_220),
                secs(18_144_174),
                "Transform, 18 hrs",
            ),
        ],
        // FB-2010 peak-to-median dropped to ≈ 9:1 after multiplexing more
        // organizations (§5.2); the diurnal is visually identifiable (Fig. 7).
        arrival: ArrivalParams {
            diurnal_amplitude: 0.5,
            peak_hour: 15.0,
            burst_sigma: 0.8,
        },
        // FB-2010 ships input paths only.
        access: AccessModel::paper_defaults(0.35, 0.20),
        paths: PathAvailability {
            input: true,
            output: false,
        },
        has_names: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The seven paper profiles, looked up in Table 1 order.
    fn paper_seven() -> Vec<WorkloadProfile> {
        let kinds = WorkloadKind::PAPER_SEVEN;
        kinds.iter().filter_map(WorkloadProfile::for_kind).collect()
    }

    #[test]
    fn seven_profiles_in_table1_order() {
        let profiles = paper_seven();
        let labels: Vec<&str> = profiles.iter().map(|p| p.kind.label()).collect();
        assert_eq!(
            labels,
            vec!["CC-a", "CC-b", "CC-c", "CC-d", "CC-e", "FB-2009", "FB-2010"]
        );
    }

    #[test]
    fn job_type_counts_sum_to_table1_totals() {
        for p in paper_seven() {
            let sum: u64 = p.job_types.iter().map(|t| t.count).sum();
            assert_eq!(
                sum, p.total_jobs,
                "{}: Table 2 cluster counts must sum to the Table 1 job count",
                p.kind
            );
        }
    }

    #[test]
    fn small_jobs_dominate_every_workload() {
        // §6.2: "jobs touching <10 GB of total data make up >92 % of all jobs"
        // — in every profile the `Small jobs` row must dominate.
        for p in paper_seven() {
            let total: u64 = p.job_types.iter().map(|t| t.count).sum();
            let small = p
                .job_types
                .iter()
                .find(|t| t.label == "Small jobs")
                .expect("every workload has a Small jobs cluster");
            let share = small.count as f64 / total as f64;
            assert!(share > 0.9, "{}: small-job share {share}", p.kind);
        }
    }

    #[test]
    fn availability_matrix_matches_paper() {
        assert!(!cc_a().paths.input && !cc_a().paths.output);
        assert!(!fb2009().paths.input && !fb2009().paths.output);
        assert!(fb2010().paths.input && !fb2010().paths.output);
        for p in [cc_b(), cc_c(), cc_d(), cc_e()] {
            assert!(p.paths.input && p.paths.output, "{}", p.kind);
        }
        assert!(!fb2010().has_names);
        assert!(fb2009().has_names);
    }

    #[test]
    fn map_only_types_exist_in_all_but_two_workloads() {
        // §6.2: "map-only jobs appear in all but two workloads".
        let with_map_only = paper_seven()
            .iter()
            .filter(|p| p.job_types.iter().any(|t| t.is_map_only()))
            .count();
        assert_eq!(with_map_only, 5);
    }

    #[test]
    fn arrival_model_scales_rate() {
        let p = fb2009();
        let full = p.arrival_model(1.0);
        let tenth = p.arrival_model(0.1);
        assert!((full.jobs_per_hour / tenth.jobs_per_hour - 10.0).abs() < 1e-9);
        // FB-2009: 1 129 193 jobs over 180 days ≈ 261 jobs/hour.
        assert!((full.jobs_per_hour - 261.4).abs() < 1.0);
    }

    #[test]
    fn for_kind_round_trips() {
        for kind in WorkloadKind::PAPER_SEVEN {
            let p = WorkloadProfile::for_kind(&kind).unwrap();
            assert_eq!(p.kind, kind);
        }
        assert!(WorkloadProfile::for_kind(&WorkloadKind::Custom("x".into())).is_none());
    }

    #[test]
    fn fb2010_is_less_bursty_than_fb2009() {
        // §5.2: peak-to-median dropped 31:1 → 9:1 between the snapshots.
        assert!(fb2010().arrival.burst_sigma < fb2009().arrival.burst_sigma);
    }

    #[test]
    fn bytes_moved_order_of_magnitude_sanity() {
        // Expected bytes moved per job type = count × centroid total IO.
        // The log-normal jitter preserves medians, so Σ count·centroid must
        // land within the right order of magnitude of Table 1 bytes moved.
        // (Means exceed medians under log-normal jitter, so the generated
        // totals run higher; Table 1 checks happen at shape level.)
        let expectations: &[(WorkloadProfile, f64)] = &[
            (cc_a(), 80e12),
            (cc_b(), 600e12),
            (cc_c(), 18e15),
            (cc_d(), 8e15),
            (cc_e(), 590e12),
            (fb2009(), 9.4e15),
        ];
        for (p, published) in expectations {
            let centroid_total: f64 = p
                .job_types
                .iter()
                .map(|t| t.count as f64 * t.total_io().as_f64())
                .sum();
            let ratio = centroid_total / published;
            assert!(
                (0.2..=5.0).contains(&ratio),
                "{}: centroid-implied bytes {centroid_total:.2e} vs published {published:.2e} (ratio {ratio:.2})",
                p.kind
            );
        }
    }
}
