//! Cross-crate integration tests: generator → analysis → synthesizer →
//! simulator, asserting the calibration targets the paper publishes.

use swim::prelude::*;
use swim_core::access::{AccessFold, PathStage};
use swim_core::burstiness::Burstiness;
use swim_core::locality::LocalityFold;
use swim_core::timeseries::HourlySeries;
use swim_synth::scaledown::scale_trace;
use swim_synth::validate::SynthesisReport;
use swim_trace::trace::WorkloadKind;

fn gen(kind: WorkloadKind, scale: f64, days: f64, seed: u64) -> Trace {
    WorkloadGenerator::new(
        GeneratorConfig::new(kind)
            .scale(scale)
            .days(days)
            .seed(seed),
    )
    .generate()
}

#[test]
fn generated_zipf_slope_is_near_five_sixths() {
    // §4.2 / Fig. 2: rank–frequency slope magnitude ≈ 5/6 across workloads.
    let trace = gen(WorkloadKind::CcC, 1.0, 10.0, 101);
    let mut fold = AccessFold::new(PathStage::Input);
    trace.jobs().iter().for_each(|job| fold.push(job));
    let stats = fold.finish();
    let fit = stats.zipf_fit(Some(300)).expect("enough files to fit");
    let magnitude = -fit.slope;
    assert!(
        (0.4..1.4).contains(&magnitude),
        "slope magnitude {magnitude:.3} too far from 5/6"
    );
    assert!(
        fit.r_squared > 0.7,
        "poor linear fit: R² {:.3}",
        fit.r_squared
    );
}

#[test]
fn generated_traces_show_temporal_locality() {
    // §4.3 / Fig. 5: ~75 % of re-accesses land within six hours. The
    // published number aggregates all workloads' re-accesses, so the
    // check does too (high-rate clusters dominate, as in the paper);
    // low-rate workloads individually still show meaningful locality.
    let mut within = 0.0;
    let mut total = 0.0;
    for kind in [
        WorkloadKind::CcB,
        WorkloadKind::CcC,
        WorkloadKind::CcD,
        WorkloadKind::CcE,
    ] {
        let trace = gen(kind, 1.0, 10.0, 102);
        let mut fold = LocalityFold::default();
        trace.jobs().iter().for_each(|job| fold.push(job));
        let loc = fold.finish();
        let n = (loc.input_input_intervals.len() + loc.output_input_intervals.len()) as f64;
        within += loc.fraction_within(6.0 * 3600.0) * n;
        total += n;
        assert!(
            loc.fraction_within(6.0 * 3600.0) > 0.35,
            "{}: within-6h locality collapsed",
            trace.kind
        );
    }
    let aggregate = within / total;
    assert!(
        aggregate > 0.55,
        "aggregate within-6h locality {aggregate:.2} (paper ≈ 0.75)"
    );
}

#[test]
fn generated_burstiness_in_published_band() {
    // §5.2 / Fig. 8: peak-to-median of hourly task-time between ~5:1 and
    // a few hundred to one.
    let trace = gen(WorkloadKind::CcB, 1.0, 9.0, 103);
    let series = HourlySeries::of(&trace);
    let b = Burstiness::of(&series.task_seconds, &[]).expect("busy trace");
    assert!(
        (3.0..2000.0).contains(&b.peak_to_median),
        "peak-to-median {:.1}",
        b.peak_to_median
    );
}

#[test]
fn bytes_tasktime_correlation_dominates() {
    // §5.3 / Fig. 9.
    let trace = gen(WorkloadKind::Fb2009, 0.03, 10.0, 104);
    let c = HourlySeries::of(&trace).correlations();
    assert!(
        c.bytes_task_seconds > c.jobs_bytes && c.bytes_task_seconds > c.jobs_task_seconds,
        "jobs-bytes {:.2} jobs-task {:.2} bytes-task {:.2}",
        c.jobs_bytes,
        c.jobs_task_seconds,
        c.bytes_task_seconds
    );
}

#[test]
fn full_analysis_of_every_workload_succeeds() {
    for kind in WorkloadKind::PAPER_SEVEN {
        let scale = match kind {
            WorkloadKind::Fb2009 => 0.01,
            WorkloadKind::Fb2010 => 0.005,
            _ => 0.3,
        };
        let trace = gen(kind.clone(), scale, 3.0, 105);
        // Raw features and the 0.5 elbow, as Table 2 and swim-analyze cluster.
        let points: Vec<[f64; 6]> = trace.jobs().iter().map(|j| j.feature_vector()).collect();
        let clusters = swim_core::KMeans::fit_with_elbow(&points, 12, 0.5).clusters;
        let ctx = TraceContext::from_trace(kind.label(), trace);
        let report = Comparison::new(vec![ctx])
            .run()
            .expect("every analysis runs");
        assert_eq!(report.sections.len(), swim_report::BATTERY.len(), "{kind}");
        // Clusters come largest first.
        let share = clusters[0].count as f64 / clusters.iter().map(|c| c.count).sum::<u64>() as f64;
        assert!(share > 0.5, "{kind}: dominant share {share:.2}");
    }
}

#[test]
fn synthesis_pipeline_preserves_distributions_and_replays() {
    let source = gen(WorkloadKind::Fb2009, 0.02, 10.0, 106);
    let sampled = sample_windows(&source, 9);
    let report = SynthesisReport::compare(&source, &sampled);
    assert!(
        report.worst() <= 0.25,
        "KS distances too large: worst {:.3}",
        report.worst()
    );

    let scaled = scale_trace(sampled, 30);
    let plan = ReplayPlan::from_trace(&scaled);
    assert_eq!(plan.len(), scaled.len());

    let result = Simulator::new(SimConfig::new(30)).run(&plan);
    assert_eq!(result.outcomes.len(), plan.len(), "work conservation");
    // Every job finishes at or after its submission.
    for o in &result.outcomes {
        assert!(o.finish >= o.submit);
        assert!(o.first_start >= o.submit);
    }
}

#[test]
fn simulator_utilization_bounded_by_cluster_slots() {
    let trace = gen(WorkloadKind::CcE, 0.5, 3.0, 107);
    let plan = ReplayPlan::from_trace(&trace);
    let nodes = 50;
    let result = Simulator::new(SimConfig::new(nodes)).run(&plan);
    let slot_cap = (nodes * 4) as f64;
    for (h, &u) in result.hourly_utilization.iter().enumerate() {
        assert!(u <= slot_cap + 1e-9, "hour {h}: {u} > {slot_cap}");
        assert!(u >= 0.0);
    }
}

#[test]
fn cache_policies_ordered_by_generosity() {
    // Unlimited ≥ threshold/LRU on hit rate, for the same access stream.
    use swim_sim::CachePolicy;
    let trace = gen(WorkloadKind::CcC, 0.3, 3.0, 108);
    let plan = ReplayPlan::from_trace(&trace);
    assert!(plan.jobs.iter().all(|j| j.input_file.is_some()));
    let hit_rate = |policy: CachePolicy| {
        let cfg = SimConfig::new(100).with_cache(policy, DataSize::from_gb(100));
        Simulator::new(cfg).run(&plan).cache.unwrap().hit_rate()
    };
    let unlimited = hit_rate(CachePolicy::Unlimited);
    let lru = hit_rate(CachePolicy::Lru);
    let threshold = hit_rate(CachePolicy::SizeThreshold {
        threshold: DataSize::from_gb(1),
    });
    assert!(
        unlimited > 0.2,
        "even unbounded cache shows no re-access hits"
    );
    assert!(unlimited + 1e-9 >= lru, "unlimited {unlimited} < lru {lru}");
    assert!(unlimited + 1e-9 >= threshold);
}

#[test]
fn trace_codecs_round_trip_generated_traces() {
    let trace = gen(WorkloadKind::CcB, 0.1, 2.0, 109);
    let mut buf = Vec::new();
    swim_trace::io::write_jsonl(&trace, &mut buf).unwrap();
    let back = swim_trace::io::read_jsonl(&buf[..]).unwrap();
    assert_eq!(back, trace);

    let mut csv = Vec::new();
    swim_trace::io::write_csv(&trace, &mut csv).unwrap();
    let back = swim_trace::io::read_csv(trace.kind.clone(), trace.machines, &csv[..]).unwrap();
    assert_eq!(back.len(), trace.len());
    assert_eq!(back.bytes_moved(), trace.bytes_moved());
}

#[test]
fn merged_workloads_are_less_bursty() {
    // §5.2: multiplexing workloads decreases burstiness. Merge several
    // phase-shifted copies and compare peak-to-median.
    let a = gen(WorkloadKind::CcB, 0.5, 5.0, 110);
    let b = gen(WorkloadKind::CcB, 0.5, 5.0, 111);
    let c = gen(WorkloadKind::CcB, 0.5, 5.0, 112);
    let merged = a.merge(&b).merge(&c);
    let p2m = |t: &Trace| {
        let s = HourlySeries::of(t);
        Burstiness::of(&s.task_seconds, &[]).map(|b| b.peak_to_median)
    };
    let (Some(single), Some(multi)) = (p2m(&a), p2m(&merged)) else {
        panic!("burstiness undefined");
    };
    assert!(
        multi < single * 1.05,
        "merged {multi:.1}:1 not below single {single:.1}:1"
    );
}
