//! The full SWIM pipeline (§7 of the paper), end to end: synthesize a
//! scaled-down, replayable benchmark from a long workload trace, validate
//! it, and execute it on the simulator.
//!
//! ```text
//! cargo run --release --example synthesize_benchmark
//! ```

use swim::prelude::*;
use swim_sim::Simulator;
use swim_synth::scaledown::{scale_trace, ScaleConfig, ScaleMode};
use swim_synth::suite::WorkloadSuite;
use swim_synth::validate::SynthesisReport;

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
    let sampled = sample_windows(&source, SampleConfig::one_day_from_hours(17));
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
    let scaled = scale_trace(
        sampled,
        ScaleConfig {
            target_machines: 20,
            mode: ScaleMode::DataSize,
            seed: 0,
        },
    );
    println!("scaled    : 20 nodes, {} to move", scaled.bytes_moved());

    // 5. Emit the HDFS pre-population and replay plans, bundled as a suite.
    let mut suite = WorkloadSuite::new();
    suite.add_trace("fb2009-1day-20nodes", &scaled, DataSize::from_mb(128));
    let entry = suite.get("fb2009-1day-20nodes").expect("just added");
    println!(
        "datagen   : {} files / {} ({} blocks)",
        entry.datagen.file_count(),
        entry.datagen.total_bytes(),
        entry.datagen.total_blocks()
    );
    println!(
        "replay    : {} jobs, schedule {}",
        entry.replay.len(),
        entry.replay.schedule_length()
    );

    // 6. Execute on the simulated cluster (stand-in for the Hadoop rig).
    let result = Simulator::new(SimConfig::new(20)).run(&entry.replay);
    println!(
        "executed  : makespan {}, median latency {:.0} s, mean queue delay {:.1} s",
        result.makespan,
        result.median_latency(),
        result.mean_queue_delay()
    );

    // 7. Stress variant: same mix at 2× submission intensity.
    let stressed = entry.replay.accelerate(2.0);
    let stress_result = Simulator::new(SimConfig::new(20)).run(&stressed);
    println!(
        "2x stress : makespan {}, median latency {:.0} s, mean queue delay {:.1} s",
        stress_result.makespan,
        stress_result.median_latency(),
        stress_result.mean_queue_delay()
    );
}
