//! Figure 7 — workload behaviour over a week: hourly jobs submitted,
//! aggregate I/O, aggregate task-time, and (via replay simulation)
//! cluster utilization in active slots.
//!
//! Published shape: high noise in every dimension, visually identifiable
//! diurnal cycles on some workloads (FB-2010 submissions), and large
//! variation both across dimensions of one workload and across workloads.

use crate::corpus::in_memory;
use crate::Corpus;
use swim_core::fourier::detect_diurnal;
use swim_report::{Block, Section};
use swim_sim::{SimConfig, Simulator};
use swim_synth::ReplayPlan;
use swim_trace::trace::WorkloadKind;

/// Workloads whose utilization column is produced by replaying on the
/// simulator (kept to the smaller clusters so `fig7` stays fast; the
/// paper likewise lacks utilization for CC-c, CC-d, FB-2009).
pub const REPLAYED: [WorkloadKind; 3] = [WorkloadKind::CcA, WorkloadKind::CcB, WorkloadKind::CcE];

/// Build the Figure 7 document.
pub fn doc(corpus: &Corpus) -> Section {
    let mut section = Section::new("Figure 7: Workload behaviour over one week (hourly series)");
    section.prose(
        "Columns: jobs/hr, I/O bytes/hr, task-time/hr — rendered as \
         7-day sparklines; utilization (avg active slots) from simulator \
         replay where marked.\n\n",
    );
    for ctx in &corpus.contexts {
        let trace = in_memory(ctx.trace());
        let series = in_memory(ctx.weekly()).truncate(24 * 7);
        section.prose(format!("{}:\n", trace.kind));
        section.push(Block::spark("jobs/hr", series.jobs.clone(), ""));
        section.push(Block::spark("io/hr", series.bytes.clone(), ""));
        section.push(Block::spark("task-t/hr", series.task_seconds.clone(), ""));
        if REPLAYED.contains(&trace.kind) {
            // Replay still materializes the week: the simulator consumes a
            // schedule, not a statistic.
            let plan = ReplayPlan::from_trace(&trace.first_week());
            let sim = Simulator::new(SimConfig::new(trace.machines));
            let result = sim.run(&plan, None);
            let util: Vec<f64> = result
                .hourly_utilization
                .iter()
                .take(24 * 7)
                .copied()
                .collect();
            section.push(Block::spark("util", util, " (replayed)"));
        } else {
            section.push(Block::spark(
                "util",
                Vec::new(),
                "(not replayed — as in the paper, not all traces have utilization)",
            ));
        }
        if let Some(d) = detect_diurnal(&series.jobs, 3.0) {
            section.push(Block::spark(
                "diurnal",
                Vec::new(),
                format!(
                    "snr={:.1} → {}",
                    d.snr,
                    if d.detected {
                        "daily cycle detected"
                    } else {
                        "no clear daily cycle"
                    }
                ),
            ));
        }
        section.prose("\n");
    }
    section.prose(
        "Shape check (paper): all series are noisy; some workloads show \
         Fourier-detectable daily cycles; dimension shapes differ within \
         and across workloads.\n",
    );
    section
}

/// Regenerate the Figure 7 report in the historical terminal format.
pub fn run(corpus: &Corpus) -> String {
    doc(corpus).render_text()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tests::test_corpus;

    #[test]
    fn series_are_nonempty_for_all_workloads() {
        let corpus = test_corpus();
        for ctx in &corpus.contexts {
            let s = in_memory(ctx.weekly());
            assert!(!s.is_empty(), "{}", ctx.label());
            assert!(s.jobs.iter().sum::<f64>() > 0.0);
        }
    }

    #[test]
    fn replay_produces_utilization_within_slot_bounds() {
        let corpus = test_corpus();
        let trace = in_memory(corpus.get(&WorkloadKind::CcE).trace());
        let week = trace.first_week();
        let plan = ReplayPlan::from_trace(&week);
        let sim = Simulator::new(SimConfig::new(trace.machines));
        let result = sim.run(&plan, None);
        let max_slots = (trace.machines * 4) as f64;
        for (h, &u) in result.hourly_utilization.iter().enumerate() {
            assert!(
                u <= max_slots + 1e-6,
                "hour {h}: utilization {u} exceeds {max_slots} slots"
            );
        }
    }

    #[test]
    fn fb2010_shows_diurnal_cycle() {
        // FB-2010 is calibrated with amplitude 0.5; over a week of hourly
        // data the daily bin should stand out.
        let corpus = test_corpus();
        let series = in_memory(corpus.get(&WorkloadKind::Fb2010).hourly());
        let d = detect_diurnal(&series.jobs, 2.0).expect("long enough");
        assert!(d.snr > 1.0, "snr {}", d.snr);
    }
}
