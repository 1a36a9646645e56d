//! Figure 5 — data re-access interval CDFs: time between re-reads of an
//! input file (top panel) and between an output being written and re-used
//! as an input (bottom panel).
//!
//! Published shape: strong temporal locality — ≈75 % of re-accesses fall
//! within six hours, motivating LRU-like eviction.

use crate::corpus::in_memory;
use crate::Corpus;
use swim_core::access::PathStage;
use swim_report::render::{pct, Table};
use swim_report::Section;

/// Interval thresholds reported (seconds): 1 min, 1 h, 6 h, 60 h.
pub const THRESHOLDS: [(u64, &str); 4] = [
    (60, "1 min"),
    (3_600, "1 hr"),
    (6 * 3_600, "6 hrs"),
    (60 * 3_600, "60 hrs"),
];

/// Build the Figure 5 document.
pub fn doc(corpus: &Corpus) -> Section {
    let mut section = Section::new("Figure 5: Data re-access interval CDFs");
    for (panel, pick) in [("input→input", 0usize), ("output→input", 1)] {
        let mut table = Table::new(vec![
            "Workload",
            "re-accesses",
            "≤1 min",
            "≤1 hr",
            "≤6 hrs",
            "≤60 hrs",
        ]);
        for ctx in corpus.with_paths(PathStage::Input) {
            let loc = in_memory(ctx.locality());
            let intervals = if pick == 0 {
                &loc.input_input_intervals
            } else {
                &loc.output_input_intervals
            };
            if intervals.is_empty() {
                continue;
            }
            let n = intervals.len() as f64;
            let mut cells = vec![ctx.label().to_owned(), intervals.len().to_string()];
            for (secs, _) in THRESHOLDS {
                let within = intervals.iter().filter(|&&x| x <= secs as f64).count() as f64;
                cells.push(pct(within / n));
            }
            table.row(cells);
        }
        section.captioned_table(format!("{panel} re-access intervals:"), table);
        section.prose("\n");
    }
    // Cross-workload six-hour fraction.
    let mut fracs = Vec::new();
    for ctx in corpus.with_paths(PathStage::Input) {
        let f = in_memory(ctx.locality()).fraction_within(6.0 * 3600.0);
        if f > 0.0 {
            fracs.push(f);
        }
    }
    let mean = fracs.iter().sum::<f64>() / fracs.len().max(1) as f64;
    section.prose(format!(
        "Mean fraction of re-accesses within 6 hours: {} \
         (paper: ≈75 %).\n\
         Shape check: most re-accesses land within minutes-to-hours — \
         LRU-like eviction with a workload-specific threshold is sensible.\n",
        pct(mean)
    ));
    section
}

/// Regenerate the Figure 5 report in the historical terminal format.
pub fn run(corpus: &Corpus) -> String {
    doc(corpus).render_text()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tests::test_corpus;

    #[test]
    fn reaccesses_exist_for_path_bearing_workloads() {
        let corpus = test_corpus();
        for ctx in corpus.with_paths(PathStage::Input) {
            assert!(
                !in_memory(ctx.locality()).input_input_intervals.is_empty(),
                "{}: no input re-accesses",
                ctx.label()
            );
        }
    }

    #[test]
    fn temporal_locality_holds() {
        // The access model targets ~75 % of re-reads through the recency
        // window; within-6-hours should be well above a uniform spread.
        let corpus = test_corpus();
        let mut any_strong = false;
        for ctx in corpus.with_paths(PathStage::Input) {
            if in_memory(ctx.locality()).fraction_within(6.0 * 3600.0) > 0.5 {
                any_strong = true;
            }
        }
        assert!(any_strong, "no workload shows 6-hour locality above 50 %");
    }

    #[test]
    fn report_has_both_panels() {
        let r = run(test_corpus());
        assert!(r.contains("input→input"));
        assert!(r.contains("output→input"));
    }
}
