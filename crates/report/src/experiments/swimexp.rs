//! §7's SWIM pipeline, end to end: take the FB-2009 trace, sample it down
//! to one synthetic day, scale it to a 20-node cluster, build the HDFS
//! pre-population and replay plans, replay on the simulator, and validate
//! with Kolmogorov–Smirnov distances that the synthesis preserved the
//! original per-job distributions.

use crate::analyze::{synthesize_bundle, SynthBundle};
use crate::battery::{KS_DIMENSIONS, SWIM_SAMPLE_SEED, SWIM_TARGET_NODES};
use crate::corpus::in_memory;
use crate::Corpus;
use swim_obs::doc::{Block, KeyValueBlock, Section};
use swim_obs::render::Table;
use swim_sim::{CachePolicy, ScenarioGrid, SchedulerKind, Simulator};
use swim_trace::trace::WorkloadKind;
use swim_trace::DataSize;

/// KS acceptance threshold for the per-dimension distribution checks.
/// Window sampling preserves distributions statistically, not exactly;
/// 0.25 rejects gross distortion while tolerating sampling noise.
pub const KS_THRESHOLD: f64 = 0.25;

/// The what-if grid swept after the baseline replay: scheduler × cache
/// policy × cluster size (12 scenarios), answering §7's "experiment with
/// configurations before deploying them" use case on the same plan.
pub fn whatif_grid() -> ScenarioGrid {
    ScenarioGrid::new(vec![SWIM_TARGET_NODES, 2 * SWIM_TARGET_NODES])
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

/// The `swim` cell's FB-2009 bundle, scaled to `nodes` machines: the
/// plan the what-if sweep replays.
fn fb2009_bundle(corpus: &Corpus, nodes: u32) -> SynthBundle {
    let source = corpus.get(&WorkloadKind::Fb2009);
    let bundle = in_memory(synthesize_bundle(source, nodes, SWIM_SAMPLE_SEED));
    bundle.expect("FB-2009 samples a non-empty day")
}

/// Build the SWIM pipeline document, reporting each stage.
pub fn doc(corpus: &Corpus) -> Section {
    let source = corpus.cell("table1", &WorkloadKind::Fb2009);
    let swim = corpus.cell("swim", &WorkloadKind::Fb2009);
    let mut section =
        Section::new("SWIM (§7): synthesize a scaled-down, replayable FB-2009 workload");
    // The pipeline's stages: sample one synthetic day out of the trace,
    // scale its data sizes to the target cluster, plan the HDFS
    // pre-population and the replay, and replay on the simulator.
    let stages = [
        (
            "source trace",
            format!(
                "{} jobs over {}, {} moved",
                source.render("jobs"),
                source.render("length"),
                source.render("bytes moved")
            ),
        ),
        (
            "sampled",
            format!(
                "{} jobs over {} (hour windows → 1 day)",
                swim.render("sampled jobs"),
                swim.render("sampled span")
            ),
        ),
        (
            "scaled",
            format!(
                "{SWIM_TARGET_NODES} nodes, {} to move",
                swim.render("bytes to move")
            ),
        ),
        (
            "datagen",
            format!(
                "{} files, {} ({} blocks) to pre-populate",
                swim.render("datagen files"),
                swim.render("datagen bytes"),
                swim.render("datagen blocks")
            ),
        ),
        (
            "replay plan",
            format!(
                "{} jobs, schedule length {}",
                swim.render("sampled jobs"),
                swim.render("schedule length")
            ),
        ),
        (
            "replayed",
            format!(
                "makespan {}, median latency {:.0} s, mean queue delay {:.1} s",
                swim.render("makespan"),
                swim.number("median latency"),
                swim.number("mean queue delay")
            ),
        ),
    ];
    section.push(Block::KeyValue(KeyValueBlock::new(stages.to_vec())));
    section.prose("\n");

    // What-if sweep: the same plan across a scheduler × cache ×
    // cluster-size grid, fanned out in parallel (deterministic,
    // order-independent results).
    let grid = whatif_grid();
    let bundle = fb2009_bundle(corpus, SWIM_TARGET_NODES);
    let cells = Simulator::sweep(&grid, &bundle.replay);
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
            cell.config.nodes.to_string(),
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

    // Validated distributions (scale-invariant dims: duration, task-time,
    // interarrival; byte dims compared pre-scaling).
    let mut table = Table::new(vec!["Dimension", "KS distance", "within threshold"]);
    let dimensions = [
        "input bytes",
        "shuffle bytes",
        "output bytes",
        "duration",
        "task-time",
        "inter-arrival",
    ];
    for (name, dimension) in dimensions.into_iter().zip(KS_DIMENSIONS) {
        let d = swim.number(&format!("{dimension} KS"));
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
         thousands of nodes to {SWIM_TARGET_NODES}.\n",
        swim.number("worst KS")
    ));
    section
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tests::test_corpus;
    use swim_sim::SimConfig;

    #[test]
    fn pipeline_preserves_distributions() {
        let swim = test_corpus().cell("swim", &WorkloadKind::Fb2009);
        let worst = swim.number("worst KS");
        assert!(
            worst <= KS_THRESHOLD,
            "KS worst {worst:.3} exceeds {KS_THRESHOLD}"
        );
    }

    #[test]
    fn scaled_replay_completes() {
        let plan = fb2009_bundle(test_corpus(), SWIM_TARGET_NODES).replay;
        let result = Simulator::new(SimConfig::new(SWIM_TARGET_NODES)).run(&plan);
        assert_eq!(result.outcomes.len(), plan.len());
    }

    #[test]
    fn whatif_sweep_covers_twelve_scenarios_and_matches_serial_runs() {
        let plan = fb2009_bundle(test_corpus(), SWIM_TARGET_NODES).replay;
        let grid = whatif_grid();
        assert!(grid.len() >= 12, "grid has {} cells", grid.len());
        let cells = Simulator::sweep(&grid, &plan);
        assert_eq!(cells.len(), grid.len());
        // Parallel fan-out must be bit-identical to serial execution and
        // independent of scheduling order.
        for (cell, config) in cells.iter().zip(grid.configs()) {
            assert_eq!(cell.config, config);
            assert_eq!(cell.result, Simulator::new(config).run(&plan));
        }
        assert_eq!(cells, Simulator::sweep(&grid, &plan));
    }

    #[test]
    fn scaling_shrinks_bytes_by_node_ratio() {
        let corpus = test_corpus();
        let machines = corpus
            .cell("table1", &WorkloadKind::Fb2009)
            .number("machines") as u32;
        // The same sampled day at full size and scaled down.
        let full = fb2009_bundle(corpus, machines).replay.total_bytes();
        let scaled = fb2009_bundle(corpus, SWIM_TARGET_NODES)
            .replay
            .total_bytes();
        let expected = SWIM_TARGET_NODES as f64 / machines as f64;
        let actual = scaled.as_f64() / full.as_f64();
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
