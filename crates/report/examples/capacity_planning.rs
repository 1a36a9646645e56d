//! Provisioning study (§5 of the paper): replay one bursty workload under
//! varying cluster sizes and both schedulers, reporting queueing delay and
//! latency percentiles — the decision data a capacity planner needs when
//! the peak-to-median load ratio is 10:1 or worse.
//!
//! ```text
//! cargo run --release --example capacity_planning
//! ```

use swim_core::burstiness::Burstiness;
use swim_core::timeseries::HourlySeries;
use swim_sim::{ReplayPlan, SimConfig, Simulator};
use swim_trace::trace::WorkloadKind;
use swim_workloadgen::{GeneratorConfig, WorkloadGenerator};

fn main() {
    let trace = WorkloadGenerator::new(
        GeneratorConfig::new(WorkloadKind::CcB)
            .scale(0.5)
            .days(4.0)
            .seed(29),
    )
    .generate();
    let plan = ReplayPlan::from_trace(&trace);

    let series = HourlySeries::of(&trace);
    let burst = Burstiness::of(&series.task_seconds, &[]);
    println!(
        "workload: {} ({} jobs; peak-to-median load {})",
        trace.kind,
        trace.len(),
        burst
            .map(|b| format!("{:.1}:1", b.peak_to_median))
            .unwrap_or_else(|| "n/a".into())
    );
    println!();
    println!(
        "{:>6} {:>6} {:>14} {:>14} {:>14} {:>12}",
        "nodes", "sched", "mean queue(s)", "median lat(s)", "p99 lat(s)", "makespan"
    );

    for nodes in [75u32, 150, 300, 600] {
        for fair in [false, true] {
            let mut config = SimConfig::new(nodes);
            if fair {
                config = config.fair();
            }
            let result = Simulator::new(config).run(&plan);
            println!(
                "{:>6} {:>6} {:>14.1} {:>14.0} {:>14.0} {:>12}",
                nodes,
                if fair { "fair" } else { "fifo" },
                result.mean_queue_delay(),
                result.median_latency(),
                result.latency_percentile(0.99),
                result.makespan
            );
        }
    }

    println!(
        "\nReading (paper §5–§6): under-provisioned clusters punish the \
         dominant small jobs with queueing delay far above their own \
         runtimes; the fair scheduler protects small-job latency against \
         head-of-line blocking by the rare huge jobs, at some cost to the \
         big jobs — the performance-tier / capacity-tier argument of §6.2."
    );
}
