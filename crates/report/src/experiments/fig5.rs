//! Figure 5 — data re-access interval CDFs: time between re-reads of an
//! input file (top panel) and between an output being written and re-used
//! as an input (bottom panel).
//!
//! Published shape: strong temporal locality — ≈75 % of re-accesses fall
//! within six hours, motivating LRU-like eviction.

use crate::battery::{REACCESS_PANELS, REACCESS_THRESHOLDS};
use crate::render::pct;
use crate::Corpus;
use swim_obs::doc::Section;
use swim_obs::render::Table;

/// Build the Figure 5 document.
pub fn doc(corpus: &Corpus) -> Section {
    let mut section = Section::new("Figure 5: Data re-access interval CDFs");
    let cells = corpus.cells("fig5");
    let measured = || cells.iter().filter(|(_, r)| !r.is_skipped());
    for panel in REACCESS_PANELS {
        let mut header = vec!["Workload".to_owned(), "re-accesses".to_owned()];
        header.extend(REACCESS_THRESHOLDS.map(|(_, column)| format!("≤{column}")));
        let mut table = Table::new(header);
        for (ctx, r) in measured() {
            let count = format!("{panel} re-accesses");
            if r.number(&count) == 0.0 {
                continue;
            }
            let mut row = vec![ctx.label().to_owned(), r.render(&count)];
            for (_, column) in REACCESS_THRESHOLDS {
                row.push(pct(r.number(&format!("{panel} ≤{column}"))));
            }
            table.row(row);
        }
        section.captioned_table(format!("{panel} re-access intervals:"), table);
        section.prose("\n");
    }
    // Cross-workload six-hour fraction.
    let fracs: Vec<f64> = measured()
        .map(|(_, r)| r.number("within 6 hrs"))
        .filter(|&f| f > 0.0)
        .collect();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tests::test_corpus;

    #[test]
    fn reaccesses_exist_for_path_bearing_workloads() {
        // Fig. 3's cell measures exactly the traces with input paths.
        let corpus = test_corpus();
        for ((_, paths), (ctx, r)) in corpus.cells("fig3").iter().zip(corpus.cells("fig5")) {
            if paths.is_skipped() {
                continue;
            }
            assert!(
                r.number("input→input re-accesses") > 0.0,
                "{}: no input re-accesses",
                ctx.label()
            );
        }
    }

    #[test]
    fn temporal_locality_holds() {
        // The access model targets ~75 % of re-reads through the recency
        // window; within-6-hours should be well above a uniform spread.
        let cells = test_corpus().cells("fig5");
        let measured = cells.iter().filter(|(_, r)| !r.is_skipped());
        let any_strong = measured
            .map(|(_, r)| r.number("within 6 hrs"))
            .any(|f| f > 0.5);
        assert!(any_strong, "no workload shows 6-hour locality above 50 %");
    }

    #[test]
    fn report_has_both_panels() {
        let r = doc(test_corpus()).render_text();
        assert!(r.contains("input→input"));
        assert!(r.contains("output→input"));
    }
}
