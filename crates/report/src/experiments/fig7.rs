//! Figure 7 — workload behaviour over a week: hourly jobs submitted,
//! aggregate I/O, aggregate task-time, and (via replay simulation)
//! cluster utilization in active slots.
//!
//! Published shape: high noise in every dimension, visually identifiable
//! diurnal cycles on some workloads (FB-2010 submissions), and large
//! variation both across dimensions of one workload and across workloads.

use crate::corpus::in_memory;
use crate::Corpus;
use swim_obs::doc::{Block, Section};
use swim_sim::{ReplayPlan, SimConfig, Simulator};
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
    for (ctx, r) in corpus.cells("fig7") {
        section.prose(format!("{}:\n", ctx.label()));
        for series in r.series() {
            section.push(Block::spark(series.name, series.values.clone(), ""));
        }
        if REPLAYED.iter().any(|kind| kind.label() == ctx.label()) {
            // Replay materializes the week: the simulator consumes a
            // schedule, not a statistic.
            let week = in_memory(ctx.first_week());
            let plan = ReplayPlan::from_trace(&week);
            let sim = Simulator::new(SimConfig::new(week.machines));
            let result = sim.run(&plan);
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
        let verdict = match r.render("daily cycle").as_str() {
            "detected" => Some("daily cycle detected"),
            "no clear cycle" => Some("no clear daily cycle"),
            _ => None, // too short a series to test
        };
        if let Some(verdict) = verdict {
            let snr = r.number("diurnal snr");
            section.push(Block::spark(
                "diurnal",
                Vec::new(),
                format!("snr={snr:.1} → {verdict}"),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tests::test_corpus;

    #[test]
    fn series_are_nonempty_for_all_workloads() {
        for (ctx, r) in test_corpus().cells("fig7") {
            let series = r.series();
            assert_eq!(series.len(), 3, "{}", ctx.label());
            assert!(series[0].values.iter().sum::<f64>() > 0.0);
        }
    }

    #[test]
    fn replay_produces_utilization_within_slot_bounds() {
        let corpus = test_corpus();
        let week = in_memory(corpus.get(&WorkloadKind::CcE).first_week());
        let plan = ReplayPlan::from_trace(&week);
        let sim = Simulator::new(SimConfig::new(week.machines));
        let result = sim.run(&plan);
        let max_slots = (week.machines * 4) as f64;
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
        let fb2010 = test_corpus().cell("fig7", &WorkloadKind::Fb2010);
        let snr = fb2010.number("diurnal snr");
        assert!(snr > 1.0, "snr {snr}");
    }
}
