//! The `swim-analyze` pipeline: ingest an external per-job trace, run the
//! full characterization, emit an **anonymized, aggregated** metrics
//! document, and optionally synthesize a scaled-down replay bundle.
//!
//! This is the user-facing path of the original SWIM release (§8 of the
//! paper: "retain the job history logs generated by existing Hadoop
//! tools, run the tools …, and share the results"). The exported document
//! deliberately contains only aggregates — distribution quantiles, slopes,
//! ratios, cluster centroids — never raw job names or path identifiers,
//! matching the paper's call for "anonymized and aggregated metrics for
//! workload comparisons offsite".

use crate::battery::{
    size_quantile, DIURNAL_MIN_SNR, ELBOW_MAX_K, ELBOW_THRESHOLD, LOCALITY_WINDOW_SECS,
    ZIPF_FIT_RANKS,
};
use crate::TraceContext;
use swim_core::access::PathStage;
use swim_core::burstiness::Burstiness;
use swim_core::fourier::detect_diurnal;
use swim_core::kmeans::KMeans;
use swim_obs::json::{self, Value};
use swim_sim::datagen::DataGenPlan;
use swim_sim::{scale_trace, KsColumns, ReplayPlan, SynthesisReport, WindowSampler};
use swim_store::ChunkMeta;
use swim_trace::{DataSize, Dur};

/// Quantiles exported per data dimension.
pub(crate) const EXPORT_QUANTILES: [f64; 7] = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99];

/// One anonymized job-type centroid row: `(count, input, shuffle, output,
/// duration_s, map_s, reduce_s, label)`.
pub type JobTypeRow = (u64, u64, u64, u64, u64, u64, u64, String);

/// The anonymized, aggregated metrics document for offsite sharing.
#[derive(Debug, Clone)]
pub struct SharedMetrics {
    /// Workload label (operator-chosen; not derived from job content).
    pub workload: String,
    /// Number of jobs analyzed.
    pub jobs: usize,
    /// Trace length in hours.
    pub length_hours: f64,
    /// Total bytes moved.
    pub bytes_moved: u64,
    /// Per-dimension quantiles: `(probability, input, shuffle, output)` bytes.
    pub size_quantiles: Vec<(f64, f64, f64, f64)>,
    /// Zipf rank–frequency slope of input-file accesses, if paths present.
    pub input_zipf_slope: Option<f64>,
    /// Fraction of re-accesses within the six-hour locality window.
    pub locality_within_6h: f64,
    /// Fraction of jobs re-accessing pre-existing data.
    pub frac_jobs_reaccessing: f64,
    /// Peak-to-median ratio of hourly task-time.
    pub peak_to_median: Option<f64>,
    /// Fig. 9 correlation triple `(jobs↔bytes, jobs↔task, bytes↔task)`.
    pub correlations: (f64, f64, f64),
    /// Whether a daily cycle was detected in submissions.
    pub diurnal_detected: Option<bool>,
    /// Job-type clusters: `(count, input, shuffle, output, duration_s,
    /// map_s, reduce_s, label)` — centroids only, no job identities.
    pub job_types: Vec<JobTypeRow>,
    /// Framework shares of jobs, by framework label.
    pub framework_job_shares: Vec<(String, f64)>,
}

impl SharedMetrics {
    /// Build the shareable document from a trace's analysis context; an
    /// error if the trace is empty or cannot be read.
    pub fn from_context(ctx: &TraceContext) -> Result<SharedMetrics, String> {
        let summary = ctx.summary();
        if summary.jobs == 0 {
            return Err("cannot analyze an empty trace".to_owned());
        }
        let sizes = ctx.sizes()?;
        let locality = ctx.locality()?;
        let hourly = ctx.hourly()?;
        let correlations = hourly.correlations();
        Ok(SharedMetrics {
            workload: summary.workload.clone(),
            jobs: summary.jobs,
            length_hours: summary.length.as_hours_f64(),
            bytes_moved: summary.bytes_moved.bytes(),
            size_quantiles: EXPORT_QUANTILES
                .iter()
                .map(|&p| {
                    let [input, shuffle, output] = size_quantile(sizes, p);
                    (p, input, shuffle, output)
                })
                .collect(),
            input_zipf_slope: ctx
                .access(PathStage::Input)?
                .zipf_fit(Some(ZIPF_FIT_RANKS))
                .map(|fit| fit.slope),
            locality_within_6h: locality.fraction_within(LOCALITY_WINDOW_SECS as f64),
            frac_jobs_reaccessing: locality.frac_jobs_reaccessing(),
            peak_to_median: Burstiness::of(&hourly.task_seconds, &[]).map(|b| b.peak_to_median),
            correlations: (
                correlations.jobs_bytes,
                correlations.jobs_task_seconds,
                correlations.bytes_task_seconds,
            ),
            diurnal_detected: detect_diurnal(&hourly.jobs, DIURNAL_MIN_SNR).map(|d| d.detected),
            // Table 2's elbow.
            job_types: KMeans::fit_with_elbow(ctx.points()?, ELBOW_MAX_K, ELBOW_THRESHOLD)
                .clusters
                .iter()
                .map(|c| {
                    (
                        c.count,
                        c.input.bytes(),
                        c.shuffle.bytes(),
                        c.output.bytes(),
                        c.duration.secs(),
                        c.map_time.secs(),
                        c.reduce_time.secs(),
                        c.label.clone(),
                    )
                })
                .collect(),
            framework_job_shares: ctx
                .names()?
                .framework_shares()
                .iter()
                .map(|s| (s.framework.label().to_owned(), s.jobs))
                .collect(),
        })
    }

    /// The document as pretty JSON: one key per field, in declaration
    /// order; tuples become arrays, and `None` becomes `null`.
    pub fn to_json(&self) -> String {
        let f64s = |values: &[f64]| Value::Array(values.iter().map(|&f| Value::F64(f)).collect());
        let opt = |value: Option<f64>| value.map_or(Value::Null, Value::F64);
        let (jobs_bytes, jobs_task, bytes_task) = self.correlations;
        let quantiles = self
            .size_quantiles
            .iter()
            .map(|&(p, i, s, o)| f64s(&[p, i, s, o]));
        let job_types = self
            .job_types
            .iter()
            .map(|(count, i, s, o, dur, map, reduce, label)| {
                let sizes = [count, i, s, o, dur, map, reduce].map(|&n| Value::U64(n));
                Value::Array(
                    sizes
                        .into_iter()
                        .chain([Value::Str(label.clone())])
                        .collect(),
                )
            });
        let shares = self.framework_job_shares.iter().map(|(label, share)| {
            Value::Array(vec![Value::Str(label.clone()), Value::F64(*share)])
        });
        let diurnal = self.diurnal_detected.map_or(Value::Null, Value::Bool);
        let doc = Value::object([
            ("workload", Value::Str(self.workload.clone())),
            ("jobs", Value::U64(self.jobs as u64)),
            ("length_hours", Value::F64(self.length_hours)),
            ("bytes_moved", Value::U64(self.bytes_moved)),
            ("size_quantiles", Value::Array(quantiles.collect())),
            ("input_zipf_slope", opt(self.input_zipf_slope)),
            ("locality_within_6h", Value::F64(self.locality_within_6h)),
            (
                "frac_jobs_reaccessing",
                Value::F64(self.frac_jobs_reaccessing),
            ),
            ("peak_to_median", opt(self.peak_to_median)),
            ("correlations", f64s(&[jobs_bytes, jobs_task, bytes_task])),
            ("diurnal_detected", diurnal),
            ("job_types", Value::Array(job_types.collect())),
            ("framework_job_shares", Value::Array(shares.collect())),
        ]);
        json::to_string_pretty(&doc)
    }
}

/// A synthesized, scaled-down benchmark bundle derived from a trace.
#[derive(Debug, Clone)]
pub struct SynthBundle {
    /// Replay schedule.
    pub replay: ReplayPlan,
    /// HDFS pre-population plan.
    pub datagen: DataGenPlan,
    /// KS validation of the sampled day against the source trace.
    pub validation: SynthesisReport,
    /// Submit span of the sampled day (the replay has one job per
    /// sampled job, so `replay.len()` is the sampled job count).
    pub sampled_span: Dur,
}

impl SynthBundle {
    /// The bundle as compact JSON: `replay` (`name`, `machines`, `jobs`),
    /// `datagen` (`files` of `path` and `size`, `block_size`) and
    /// `validation_worst_ks`; sizes in bytes, times in seconds. A job's
    /// [`input_file`](swim_sim::ReplayJob::input_file) is not written.
    pub fn to_json(&self) -> String {
        let replay = &self.replay;
        let jobs = replay.jobs.iter().map(|j| {
            Value::object([
                ("gap", Value::U64(j.gap.secs())),
                ("input", Value::U64(j.input.bytes())),
                ("shuffle", Value::U64(j.shuffle.bytes())),
                ("output", Value::U64(j.output.bytes())),
                ("map_task_time", Value::U64(j.map_task_time.secs())),
                ("reduce_task_time", Value::U64(j.reduce_task_time.secs())),
                ("map_tasks", Value::U64(j.map_tasks.into())),
                ("reduce_tasks", Value::U64(j.reduce_tasks.into())),
            ])
        });
        let files = self.datagen.files.iter().map(|f| {
            Value::object([
                ("path", Value::U64(f.path.0)),
                ("size", Value::U64(f.size.bytes())),
            ])
        });
        let doc = Value::object([
            (
                "replay",
                Value::object([
                    ("name", Value::Str(replay.name.clone())),
                    ("machines", Value::U64(replay.machines.into())),
                    ("jobs", Value::Array(jobs.collect())),
                ]),
            ),
            (
                "datagen",
                Value::object([
                    ("files", Value::Array(files.collect())),
                    ("block_size", Value::U64(self.datagen.block_size.bytes())),
                ]),
            ),
            ("validation_worst_ks", Value::F64(self.validation.worst())),
        ]);
        json::to_string(&doc)
    }
}

/// Run the SWIM synthesize path: sample one representative day, scale to
/// `target_machines`, emit plans, and validate. One pass over the jobs
/// keeps the sampled day's windows and the columns the validation
/// compares, and decodes names and paths only of chunks that overlap a
/// drawn window. `Ok(None)` when the sampled day holds no job; an error if
/// the trace cannot be read.
pub fn synthesize_bundle(
    ctx: &TraceContext,
    target_machines: u32,
    seed: u64,
) -> Result<Option<SynthBundle>, String> {
    let (start, span) = ctx.submits()?;
    let mut sampler = WindowSampler::new(start, span, seed);
    let mut original = KsColumns::default();
    // Names and paths are read only where a sampled job can come from.
    let drawn = sampler.clone();
    let text = move |chunk: &ChunkMeta| drawn.draws_any(chunk.min_submit, chunk.max_submit);
    for job in ctx.jobs_with_text(text) {
        let job = job?;
        sampler.push(&job);
        original.push(&job);
    }
    let (kind, machines) = ctx.identity();
    let sampled = sampler.finish(&kind, machines);
    if sampled.is_empty() {
        return Ok(None);
    }
    let validation = SynthesisReport::of_columns(original, KsColumns::of(&sampled));
    let sampled_span = sampled.span();
    let scaled = scale_trace(sampled, target_machines);
    Ok(Some(SynthBundle {
        replay: ReplayPlan::from_trace(&scaled),
        datagen: DataGenPlan::from_trace(&scaled, DataSize::from_mb(128)),
        validation,
        sampled_span,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use swim_trace::trace::WorkloadKind;
    use swim_trace::{Dur, JobBuilder, PathId, Timestamp, Trace};
    use swim_workloadgen::{GeneratorConfig, WorkloadGenerator};

    fn sample_trace() -> Trace {
        WorkloadGenerator::new(
            GeneratorConfig::new(WorkloadKind::CcE)
                .scale(0.2)
                .days(2.0)
                .seed(77),
        )
        .generate()
    }

    fn metrics_of(trace: Trace) -> Result<SharedMetrics, String> {
        SharedMetrics::from_context(&TraceContext::from_trace("t", trace))
    }

    /// 200 small named jobs every 700 s on 13 re-read inputs, then 20
    /// huge ones on a single input.
    fn mixed_trace() -> Trace {
        let small = (0..200u64).map(|i| {
            JobBuilder::new(i)
                .name(if i % 2 == 0 { "insert x" } else { "ad y" })
                .submit(Timestamp::from_secs(i * 700))
                .duration(Dur::from_secs(30))
                .input(DataSize::from_mb(10))
                .output(DataSize::from_kb(900))
                .map_task_time(Dur::from_secs(20))
                .tasks(1, 0)
                .input_paths(vec![PathId(i % 13)])
                .output_paths(vec![PathId(1000 + i)])
                .build()
                .unwrap()
        });
        let big = (200..220u64).map(|i| {
            JobBuilder::new(i)
                .name("from big")
                .submit(Timestamp::from_secs(i * 700))
                .duration(Dur::from_hours(1))
                .input(DataSize::from_gb(400))
                .shuffle(DataSize::from_tb(1))
                .output(DataSize::from_gb(40))
                .map_task_time(Dur::from_secs(500_000))
                .reduce_task_time(Dur::from_secs(400_000))
                .tasks(100, 10)
                .input_paths(vec![PathId(7)])
                .output_paths(vec![PathId(2000 + i)])
                .build()
                .unwrap()
        });
        let jobs = small.chain(big).collect();
        Trace::new(WorkloadKind::Custom("mixed".into()), 10, jobs).unwrap()
    }

    #[test]
    fn full_analysis_runs_end_to_end() {
        let m = metrics_of(mixed_trace()).unwrap();
        assert_eq!(m.jobs, 220);
        assert_eq!(m.size_quantiles.len(), EXPORT_QUANTILES.len());
        assert!(m.input_zipf_slope.is_some());
        assert!(!m.framework_job_shares.is_empty());
        assert!(m.job_types.len() >= 2);
        // Clusters come largest first: the dominant one holds > 80 %.
        assert!(m.job_types[0].0 as f64 / 220.0 > 0.8);
    }

    #[test]
    fn burstiness_present_for_active_trace() {
        // Every hour has at least one submission (jobs every 700 s), so the
        // median task-seconds is positive and burstiness is defined.
        assert!(metrics_of(mixed_trace()).unwrap().peak_to_median.is_some());
    }

    #[test]
    fn correlations_bytes_tasktime_strongest() {
        // Big jobs carry both bytes and task-time; jobs/hour is constant-ish.
        let (jobs_bytes, _, bytes_task) = metrics_of(mixed_trace()).unwrap().correlations;
        assert!(
            bytes_task > jobs_bytes.abs(),
            "bytes↔task {bytes_task} vs jobs↔bytes {jobs_bytes}"
        );
    }

    #[test]
    fn empty_trace_rejected() {
        let t = Trace::new(WorkloadKind::Custom("e".into()), 1, vec![]).unwrap();
        assert_eq!(metrics_of(t).unwrap_err(), "cannot analyze an empty trace");
    }

    #[test]
    fn shared_metrics_carry_no_identifiers() {
        let trace = sample_trace();
        let metrics = metrics_of(trace.clone()).unwrap();
        let json = metrics.to_json();
        // No raw job names (beyond framework labels / cluster labels) and
        // no path ids may appear in the export.
        for job in trace.jobs().iter().take(50) {
            if job.name.len() > 3 {
                assert!(
                    !json.contains(&job.name),
                    "job name {} leaked into shared metrics",
                    job.name
                );
            }
        }
        assert!(!json.contains("path:"));
        assert_eq!(metrics.jobs, trace.len());
    }

    #[test]
    fn quantiles_are_monotone_per_dimension() {
        let m = metrics_of(sample_trace()).unwrap();
        for dim in 1..=3 {
            let series: Vec<f64> = m
                .size_quantiles
                .iter()
                .map(|q| match dim {
                    1 => q.1,
                    2 => q.2,
                    _ => q.3,
                })
                .collect();
            assert!(series.windows(2).all(|w| w[0] <= w[1] + 1e-9));
        }
    }

    #[test]
    fn json_round_trips() {
        let m = metrics_of(sample_trace()).unwrap();
        let back = json::parse_value(&m.to_json()).unwrap();
        assert_eq!(
            back.get("jobs").and_then(Value::as_u64),
            Some(m.jobs as u64)
        );
        let job_types = back.get("job_types").and_then(Value::as_array).unwrap();
        assert_eq!(job_types.len(), m.job_types.len());
    }

    #[test]
    fn bundle_synthesis_validates() {
        let ctx = TraceContext::from_trace("t", sample_trace());
        let bundle = synthesize_bundle(&ctx, 10, 5)
            .unwrap()
            .expect("a non-empty day");
        assert!(!bundle.replay.is_empty());
        assert!(bundle.datagen.file_count() > 0);
        assert!(bundle.validation.worst() <= 1.0);
    }

    #[test]
    fn the_streamed_bundle_is_the_bundle_of_the_whole_trace() {
        // 64-job chunks over two days: most chunks lie outside the drawn
        // windows, so the pass reads their numeric columns alone.
        let trace = sample_trace();
        let options = swim_store::StoreOptions { jobs_per_chunk: 64 };
        let store = swim_store::Store::from_vec(swim_store::store_to_vec(&trace, &options));
        let ctx = TraceContext::from_store("t", store.unwrap()).unwrap();
        let bundle = synthesize_bundle(&ctx, 10, 5).unwrap().unwrap();

        let sampled = swim_sim::sample_windows(&trace, 5);
        let scaled = scale_trace(sampled.clone(), 10);
        assert_eq!(bundle.replay, ReplayPlan::from_trace(&scaled));
        let datagen = DataGenPlan::from_trace(&scaled, DataSize::from_mb(128));
        assert_eq!(bundle.datagen, datagen);
        let validation = SynthesisReport::compare(&trace, &sampled);
        assert_eq!(bundle.validation, validation);
        assert_eq!(bundle.sampled_span, sampled.span());
        // Every sampled job's input path reaches the plan.
        assert!(bundle.replay.jobs.iter().all(|j| j.input_file.is_some()));
    }
}
