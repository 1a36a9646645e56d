//! §7's SWIM pipeline, end to end: take the FB-2009 trace, sample it down
//! to one synthetic day, scale it to a 20-node cluster, build the HDFS
//! pre-population and replay plans, replay on the simulator, and validate
//! with Kolmogorov–Smirnov distances that the synthesis preserved the
//! original per-job distributions.

use crate::corpus::in_memory;
use crate::render::Table;
use crate::Corpus;
use crate::{Block, KeyValueBlock, Section};
use swim_sim::{CachePolicy, ScenarioGrid, SchedulerKind, SimConfig, Simulator};
use swim_synth::datagen::DataGenPlan;
use swim_synth::sample::{sample_windows, SampleConfig};
use swim_synth::scaledown::{scale_trace, ScaleConfig, ScaleMode};
use swim_synth::validate::SynthesisReport;
use swim_synth::ReplayPlan;
use swim_trace::trace::WorkloadKind;
use swim_trace::DataSize;

/// Target cluster for the scaled-down replay.
pub const TARGET_NODES: u32 = 20;

/// KS acceptance threshold for the per-dimension distribution checks.
/// Window sampling preserves distributions statistically, not exactly;
/// 0.25 rejects gross distortion while tolerating sampling noise.
pub const KS_THRESHOLD: f64 = 0.25;

/// The what-if grid swept after the baseline replay: scheduler × cache
/// policy × cluster size (12 scenarios), answering §7's "experiment with
/// configurations before deploying them" use case on the same plan.
pub fn whatif_grid() -> ScenarioGrid {
    ScenarioGrid::new(vec![TARGET_NODES, 2 * TARGET_NODES])
        .schedulers(vec![SchedulerKind::Fifo, SchedulerKind::Fair])
        .caches(vec![
            None,
            Some((CachePolicy::Lru, DataSize::from_gb(2))),
            Some((CachePolicy::Unlimited, DataSize::ZERO)),
        ])
}

/// Label a simulator cache configuration for sweep tables: `none`,
/// `lru:10.0 GB`, `lfu:10.0 GB`, `thr<500 MB:2.00 GB`, `unlimited`.
pub fn cache_label(cache: &Option<(CachePolicy, DataSize)>) -> String {
    match cache {
        None => "none".into(),
        Some((CachePolicy::Lru, cap)) => format!("lru:{cap}"),
        Some((CachePolicy::Lfu, cap)) => format!("lfu:{cap}"),
        Some((CachePolicy::SizeThreshold { threshold }, cap)) => format!("thr<{threshold}:{cap}"),
        Some((CachePolicy::Unlimited, _)) => "unlimited".into(),
    }
}

/// Build the SWIM pipeline document, reporting each stage.
pub fn doc(corpus: &Corpus) -> Section {
    let source = in_memory(corpus.get(&WorkloadKind::Fb2009).trace());
    let mut section =
        Section::new("SWIM (§7): synthesize a scaled-down, replayable FB-2009 workload");
    let mut stages: Vec<(String, String)> = Vec::new();
    stages.push((
        "source trace".into(),
        format!(
            "{} jobs over {}, {} moved",
            source.len(),
            source.span(),
            source.bytes_moved()
        ),
    ));

    // 1. Sample one synthetic day out of the trace.
    let sampled = sample_windows(source, SampleConfig::one_day_from_hours(7));
    stages.push((
        "sampled".into(),
        format!(
            "{} jobs over {} (hour windows → 1 day)",
            sampled.len(),
            sampled.span()
        ),
    ));

    // 2. Scale data sizes to the target cluster.
    let scaled = scale_trace(
        &sampled,
        ScaleConfig {
            target_machines: TARGET_NODES,
            mode: ScaleMode::DataSize,
            seed: 0,
        },
    );
    stages.push((
        "scaled".into(),
        format!("{} nodes, {} to move", TARGET_NODES, scaled.bytes_moved()),
    ));

    // 3. Pre-population + replay plans.
    let datagen = DataGenPlan::from_trace(&scaled, DataSize::from_mb(128));
    let plan = ReplayPlan::from_trace(&scaled);
    stages.push((
        "datagen".into(),
        format!(
            "{} files, {} ({} blocks) to pre-populate",
            datagen.file_count(),
            datagen.total_bytes(),
            datagen.total_blocks()
        ),
    ));
    stages.push((
        "replay plan".into(),
        format!(
            "{} jobs, schedule length {}",
            plan.len(),
            plan.schedule_length()
        ),
    ));

    // 4. Replay on the simulator.
    let sim = Simulator::new(SimConfig::new(TARGET_NODES));
    let result = sim.run(&plan, None);
    stages.push((
        "replayed".into(),
        format!(
            "makespan {}, median latency {:.0} s, mean queue delay {:.1} s",
            result.makespan,
            result.median_latency(),
            result.mean_queue_delay()
        ),
    ));
    section.push(Block::KeyValue(KeyValueBlock {
        pairs: stages,
        key_width: 12,
        indent: 0,
    }));
    section.prose("\n");

    // 5. What-if sweep: the same plan across a scheduler × cache ×
    //    cluster-size grid, fanned out in parallel (deterministic,
    //    order-independent results).
    let grid = whatif_grid();
    // Jobs without trace-level path information fall back to a *unique*
    // private file (the engine's null model for absent paths) — a shared
    // placeholder would fabricate cache hits.
    let paths: Vec<swim_trace::PathId> = scaled
        .jobs()
        .iter()
        .enumerate()
        .map(|(i, j)| {
            j.input_paths
                .first()
                .copied()
                .unwrap_or(swim_trace::PathId(1_000_000_000 + i as u64))
        })
        .collect();
    let cells = Simulator::sweep(&grid, &plan, Some(&paths));
    section.prose(format!(
        "what-if sweep : {} scenarios (scheduler × cache × cluster size), in parallel\n",
        cells.len()
    ));
    let mut sweep_table = Table::new(vec![
        "Nodes",
        "Scheduler",
        "Cache",
        "Median lat",
        "p99 lat",
        "Mean queue",
        "Hit rate",
    ]);
    for cell in &cells {
        sweep_table.row(vec![
            cell.config.cluster.nodes.to_string(),
            format!("{:?}", cell.config.scheduler).to_lowercase(),
            cache_label(&cell.config.cache),
            format!("{:.0} s", cell.result.median_latency()),
            format!("{:.0} s", cell.result.latency_percentile(0.99)),
            format!("{:.1} s", cell.result.mean_queue_delay()),
            cell.result
                .cache
                .map(|c| format!("{:.0}%", 100.0 * c.hit_rate()))
                .unwrap_or_else(|| "-".to_owned()),
        ]);
    }
    section.table(sweep_table);
    section.prose(
        "  (cache rows stay cold here: the scaled trace carries no input-path \
         information, so every job reads a private file — the null model. \
         `swim-sim --workload cc-e` sweeps a workload with shared paths.)\n\n",
    );

    // 6. Validate distributions (scale-invariant dims: duration, task-time,
    //    interarrival; byte dims compared pre-scaling).
    let report = SynthesisReport::compare(source, &sampled);
    let mut table = Table::new(vec!["Dimension", "KS distance", "within threshold"]);
    for (name, d) in [
        ("input bytes", report.input),
        ("shuffle bytes", report.shuffle),
        ("output bytes", report.output),
        ("duration", report.duration),
        ("task-time", report.task_time),
        ("inter-arrival", report.interarrival),
    ] {
        table.row(vec![
            name.to_owned(),
            format!("{d:.3}"),
            if d <= KS_THRESHOLD { "yes" } else { "NO" }.to_owned(),
        ]);
    }
    section.table(table);
    section.prose(format!(
        "\nworst dimension: {:.3} (threshold {KS_THRESHOLD}).\n\
         Shape check (paper): SWIM's replay preserves per-job data-size and \
         arrival distributions while compressing months to a day and \
         thousands of nodes to {TARGET_NODES}.\n",
        report.worst()
    ));
    section
}

/// Run the SWIM pipeline and report each stage in the historical
/// terminal format.
pub fn run(corpus: &Corpus) -> String {
    doc(corpus).render_text()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tests::test_corpus;

    #[test]
    fn pipeline_preserves_distributions() {
        let corpus = test_corpus();
        let source = in_memory(corpus.get(&WorkloadKind::Fb2009).trace());
        let sampled = sample_windows(source, SampleConfig::one_day_from_hours(7));
        let report = SynthesisReport::compare(source, &sampled);
        assert!(
            report.passes(KS_THRESHOLD),
            "KS worst {:.3} exceeds {KS_THRESHOLD}",
            report.worst()
        );
    }

    #[test]
    fn scaled_replay_completes() {
        let corpus = test_corpus();
        let source = in_memory(corpus.get(&WorkloadKind::Fb2009).trace());
        let sampled = sample_windows(source, SampleConfig::one_day_from_hours(3));
        let scaled = scale_trace(
            &sampled,
            ScaleConfig {
                target_machines: TARGET_NODES,
                mode: ScaleMode::DataSize,
                seed: 0,
            },
        );
        let plan = ReplayPlan::from_trace(&scaled);
        let result = Simulator::new(SimConfig::new(TARGET_NODES)).run(&plan, None);
        assert_eq!(result.outcomes.len(), plan.len());
    }

    #[test]
    fn whatif_sweep_covers_twelve_scenarios_and_matches_serial_runs() {
        let corpus = test_corpus();
        let source = in_memory(corpus.get(&WorkloadKind::Fb2009).trace());
        let sampled = sample_windows(source, SampleConfig::one_day_from_hours(3));
        let scaled = scale_trace(
            &sampled,
            ScaleConfig {
                target_machines: TARGET_NODES,
                mode: ScaleMode::DataSize,
                seed: 0,
            },
        );
        let plan = ReplayPlan::from_trace(&scaled);
        let grid = whatif_grid();
        assert!(grid.len() >= 12, "grid has {} cells", grid.len());
        let cells = Simulator::sweep(&grid, &plan, None);
        assert_eq!(cells.len(), grid.len());
        // Parallel fan-out must be bit-identical to serial execution and
        // independent of scheduling order.
        for (cell, config) in cells.iter().zip(grid.configs()) {
            assert_eq!(cell.config, config);
            assert_eq!(cell.result, Simulator::new(config).run(&plan, None));
        }
        assert_eq!(cells, Simulator::sweep(&grid, &plan, None));
    }

    #[test]
    fn scaling_shrinks_bytes_by_node_ratio() {
        let corpus = test_corpus();
        let source = in_memory(corpus.get(&WorkloadKind::Fb2009).trace());
        let scaled = scale_trace(
            source,
            ScaleConfig {
                target_machines: TARGET_NODES,
                mode: ScaleMode::DataSize,
                seed: 0,
            },
        );
        let expected = TARGET_NODES as f64 / source.machines as f64;
        let actual = scaled.bytes_moved().as_f64() / source.bytes_moved().as_f64();
        assert!((actual / expected - 1.0).abs() < 0.01, "ratio {actual:.4}");
    }

    #[test]
    fn cache_labels() {
        assert_eq!(cache_label(&None), "none");
        assert_eq!(
            cache_label(&Some((CachePolicy::Lru, DataSize::from_gb(10)))),
            "lru:10.0 GB"
        );
        assert_eq!(
            cache_label(&Some((CachePolicy::Unlimited, DataSize::ZERO))),
            "unlimited"
        );
    }
}
