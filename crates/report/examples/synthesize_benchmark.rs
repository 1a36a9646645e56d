//! The full SWIM pipeline (§7 of the paper), end to end: synthesize a
//! scaled-down, replayable benchmark from a long workload trace, validate
//! it, and execute it on the simulator.
//!
//! ```text
//! cargo run --release --example synthesize_benchmark
//! ```

use swim_sim::datagen::DataGenPlan;
use swim_sim::{sample_windows, scale_trace, ReplayPlan, SimConfig, Simulator, SynthesisReport};
use swim_trace::trace::WorkloadKind;
use swim_trace::DataSize;
use swim_workloadgen::{GeneratorConfig, WorkloadGenerator};

fn main() {
    // 1. The "production" trace: two weeks of FB-2009-like load.
    let source = WorkloadGenerator::new(
        GeneratorConfig::new(WorkloadKind::Fb2009)
            .scale(0.03)
            .days(14.0)
            .seed(3),
    )
    .generate();
    println!(
        "source    : {} jobs over {}, {}",
        source.len(),
        source.span(),
        source.bytes_moved()
    );

    // 2. Sample a representative synthetic day (hour windows).
    let sampled = sample_windows(&source, 17);
    println!(
        "sampled   : {} jobs over {} (hour windows)",
        sampled.len(),
        sampled.span()
    );

    // 3. Validate the synthesis with per-dimension KS distances.
    let report = SynthesisReport::compare(&source, &sampled);
    println!(
        "validation: KS input {:.3} shuffle {:.3} output {:.3} duration {:.3} \
         task-time {:.3} inter-arrival {:.3} → worst {:.3}",
        report.input,
        report.shuffle,
        report.output,
        report.duration,
        report.task_time,
        report.interarrival,
        report.worst()
    );

    // 4. Scale the data down from 600 production nodes to a 20-node test rig.
    let scaled = scale_trace(sampled, 20);
    println!("scaled    : 20 nodes, {} to move", scaled.bytes_moved());

    // 5. Emit the HDFS pre-population and replay plans.
    let datagen = DataGenPlan::from_trace(&scaled, DataSize::from_mb(128));
    let replay = ReplayPlan::from_trace(&scaled);
    println!(
        "datagen   : {} files / {} ({} blocks)",
        datagen.file_count(),
        datagen.total_bytes(),
        datagen.total_blocks()
    );
    println!(
        "replay    : {} jobs, schedule {}",
        replay.len(),
        replay.schedule_length()
    );

    // 6. Execute on the simulated cluster (stand-in for the Hadoop rig).
    let result = Simulator::new(SimConfig::new(20)).run(&replay);
    println!(
        "executed  : makespan {}, median latency {:.0} s, mean queue delay {:.1} s",
        result.makespan,
        result.median_latency(),
        result.mean_queue_delay()
    );

    // 7. Stress variant: same mix at 2× submission intensity.
    let stressed = replay.accelerate(2.0);
    let stress_result = Simulator::new(SimConfig::new(20)).run(&stressed);
    println!(
        "2x stress : makespan {}, median latency {:.0} s, mean queue delay {:.1} s",
        stress_result.makespan,
        stress_result.median_latency(),
        stress_result.mean_queue_delay()
    );
}
