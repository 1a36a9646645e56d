//! The cross-scenario study: fan a scenario set through the
//! `swim-report` comparison battery and a `Simulator::sweep` what-if
//! grid, and assemble one golden-pinnable report.
//!
//! The study is fully deterministic: scenario streams are seeded, the
//! battery is deterministic in its input traces, and the sweep grid is
//! fixed — so the rendered markdown can be byte-diffed in CI.

use swim_obs::doc::{Report, Section};
use swim_obs::render::Table;
use swim_report::{Comparison, TraceContext};
use swim_sim::{ScenarioGrid, SchedulerKind, Simulator};
use swim_synth::ReplayPlan;
use swim_trace::Trace;

use crate::model::{Scenario, ScenarioError};
use crate::stream::{ScenarioStats, ScenarioStream};

/// Cluster sizes of the what-if sweep.
const NODES: [u32; 2] = [50, 200];

/// Knobs for [`compare`].
#[derive(Debug, Clone)]
pub struct StudyOptions {
    /// Seed for every scenario stream (each scenario derives its own
    /// tenant/overlay streams from it).
    pub seed: u64,
    /// Job budget per scenario.
    pub jobs_per_scenario: u64,
    /// Worker threads for the battery (`None` = all cores). The study's
    /// *output* is thread-count-independent; this only affects latency.
    pub threads: Option<usize>,
}

impl Default for StudyOptions {
    fn default() -> Self {
        StudyOptions {
            seed: 42,
            jobs_per_scenario: 2_000,
            threads: None,
        }
    }
}

/// Generate every scenario and assemble the cross-scenario study:
/// declared-statistics table, the full comparison battery, and a
/// scheduler × cluster-size sweep per scenario.
pub fn compare(scenarios: &[Scenario], options: &StudyOptions) -> Result<Report, ScenarioError> {
    let _span = swim_obs::span("scenario.study");
    let mut generated: Vec<(Scenario, Trace, ScenarioStats)> = Vec::new();
    for scenario in scenarios {
        let stream = ScenarioStream::new(scenario, options.seed, options.jobs_per_scenario)?;
        let (trace, stats) = stream.collect_trace()?;
        generated.push((scenario.clone(), trace, stats));
    }

    let contexts: Vec<TraceContext> = generated
        .iter()
        .map(|(s, trace, _)| TraceContext::from_trace(s.name.clone(), trace.clone()))
        .collect();
    let comparison = Comparison::new(contexts);
    let mut report = match options.threads {
        Some(n) => comparison.run_with_threads(n),
        None => comparison.run(),
    }
    .map_err(ScenarioError::Report)?;
    report.title = format!("Cross-scenario study ({} scenarios)", generated.len());

    report.push(declared_section(&generated));
    report.push(sweep_section(&generated));
    Ok(report)
}

/// The scenarios' declared statistics — what each stream reported about
/// itself. The acceptance tests pin catalog `summary()` to these.
fn declared_section(generated: &[(Scenario, Trace, ScenarioStats)]) -> Section {
    let mut table = Table::new(vec![
        "scenario",
        "version",
        "industry",
        "jobs",
        "retries",
        "boosted",
        "bytes moved",
        "span",
    ]);
    for (scenario, _, stats) in generated {
        table.row(vec![
            scenario.name.clone(),
            format!("v{}", scenario.version),
            scenario.industry.clone(),
            stats.generation.jobs.to_string(),
            stats.retries.to_string(),
            stats.boosted.to_string(),
            stats.generation.bytes_moved.to_string(),
            stats.generation.span().to_string(),
        ]);
    }
    let mut section = Section::new("Scenario declarations");
    section.prose(
        "Per-scenario statistics declared by the generator itself while \
         streaming. A catalog built from the same scenario and seed must \
         report an identical summary — the acceptance tests assert it.",
    );
    section.table(table);
    section
}

/// What-if sweep: replay each scenario's trace over a scheduler ×
/// cluster-size grid and tabulate makespan, queueing, and utilization.
fn sweep_section(generated: &[(Scenario, Trace, ScenarioStats)]) -> Section {
    let grid = ScenarioGrid::new(NODES.to_vec())
        .schedulers(vec![SchedulerKind::Fifo, SchedulerKind::Fair]);
    let mut table = Table::new(vec![
        "scenario",
        "nodes",
        "scheduler",
        "makespan",
        "mean queue delay (s)",
        "peak util (slots)",
    ]);
    for (scenario, trace, _) in generated {
        let plan = ReplayPlan::from_trace(trace);
        for cell in Simulator::sweep(&grid, &plan) {
            let peak = cell
                .result
                .hourly_utilization
                .iter()
                .cloned()
                .fold(0.0f64, f64::max);
            table.row(vec![
                scenario.name.clone(),
                cell.config.nodes.to_string(),
                match cell.config.scheduler {
                    SchedulerKind::Fifo => "fifo".to_owned(),
                    SchedulerKind::Fair => "fair".to_owned(),
                },
                cell.result.makespan.to_string(),
                format!("{:.1}", cell.result.mean_queue_delay()),
                format!("{peak:.1}"),
            ]);
        }
    }
    let mut section = Section::new("What-if sweep");
    section.prose(format!(
        "Each scenario replayed over a FIFO/fair × {:?}-node grid \
         (wave-scheduled simulator, no cache tier).",
        NODES
    ));
    section.table(table);
    section
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn small_options() -> StudyOptions {
        StudyOptions {
            seed: 7,
            jobs_per_scenario: 300,
            threads: Some(2),
        }
    }

    #[test]
    fn study_covers_every_scenario_and_is_deterministic() {
        let scenarios = vec![presets::steady_retail(), presets::retrystorm_fintech()];
        let options = small_options();
        let report = compare(&scenarios, &options).expect("study runs");
        let text = swim_obs::markdown::render_report(&report);
        for s in &scenarios {
            assert!(text.contains(&s.name), "report must mention {}", s.name);
        }
        assert!(text.contains("Scenario declarations"));
        assert!(text.contains("What-if sweep"));
        let again = compare(&scenarios, &options).expect("study runs twice");
        assert_eq!(
            text,
            swim_obs::markdown::render_report(&again),
            "study must be deterministic"
        );
    }

    #[test]
    fn invalid_scenario_fails_the_study() {
        let mut bad = presets::steady_retail();
        bad.days = -1.0;
        assert!(compare(&[bad], &small_options()).is_err());
    }
}
