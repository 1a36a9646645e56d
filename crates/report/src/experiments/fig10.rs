//! Figure 10 — the first word of job names per workload, weighted by job
//! count, by total I/O, and by task-time; framework breakdown.
//!
//! Published shape: a handful of words cover most jobs; at most two
//! frameworks dominate each workload; Hive activity is led by `insert`
//! and `select` with `from` prominent only in FB-2009; data-centric words
//! rise under the I/O and task-time weightings. FB-2010 ships no names.

use crate::battery::TOP_WORDS_COLUMNS;
use crate::render::pct;
use crate::Corpus;
use swim_obs::doc::{Block, KeyValueBlock, Section};
use swim_obs::render::Table;

/// Build the Figure 10 document.
pub fn doc(corpus: &Corpus) -> Section {
    let mut section =
        Section::new("Figure 10: First word of job names (by jobs / I/O / task-time)");
    let mut table = Table::new(vec!["Workload", "top-2 framework share of jobs"]);
    for (ctx, r) in corpus.cells("fig10") {
        section.prose(format!("{}:\n", ctx.label()));
        if r.is_skipped() {
            section.prose("  (trace has no job names — as published for FB-2010)\n\n");
            continue;
        }
        let pairs = TOP_WORDS_COLUMNS
            .iter()
            .map(|&(_, column)| (column.to_owned(), r.render(column)))
            .collect();
        section.push(Block::KeyValue(KeyValueBlock { pairs, indent: 2 }));
        section.prose(format!(
            "  frameworks : {} | top-5 words cover {} of jobs\n\n",
            r.render("frameworks"),
            pct(r.number("top-5 words cover"))
        ));
        table.row(vec![
            ctx.label().to_owned(),
            pct(r.number("top-2 frameworks")),
        ]);
    }
    section.table(table);
    section.prose(
        "\nShape check (paper): top words dominate; two frameworks cover a \
         dominant majority per workload; `from` carries an outsized I/O and \
         task-time share only in FB-2009.\n",
    );
    section
}

#[cfg(test)]
mod tests {
    use crate::experiments::tests::test_corpus;
    use swim_trace::trace::WorkloadKind;

    #[test]
    fn top_words_cover_dominant_majority() {
        for (ctx, r) in test_corpus().cells("fig10") {
            if r.is_skipped() {
                continue;
            }
            let share = r.number("top-5 words cover");
            assert!(share > 0.6, "{}: top-5 share {share:.2}", ctx.label());
        }
    }

    #[test]
    fn two_frameworks_dominate() {
        for (ctx, r) in test_corpus().cells("fig10") {
            if r.is_skipped() {
                continue;
            }
            let top2 = r.number("top-2 frameworks");
            assert!(top2 > 0.55, "{}: top-2 frameworks {top2:.2}", ctx.label());
        }
    }

    #[test]
    fn from_is_io_heavy_in_fb2009() {
        let fb2009 = test_corpus().cell("fig10", &WorkloadKind::Fb2009);
        // Each weighting's top words read `word share, …`, largest first.
        let top = |column| -> Vec<(String, f64)> {
            let words = fb2009.render(column);
            words
                .split(", ")
                .map(|w| {
                    let (word, share) = w.rsplit_once(' ').unwrap();
                    let share: f64 = share.trim_end_matches('%').parse().unwrap();
                    (word.to_owned(), share / 100.0)
                })
                .collect()
        };
        let share_of_from =
            |words: &[(String, f64)]| words.iter().find(|(w, _)| w == "from").map(|&(_, s)| s);
        let (by_jobs, by_bytes) = (top("by jobs"), top("by bytes"));
        let io_share = share_of_from(&by_bytes).expect("`from` is a top I/O word");
        // Outside the top words, `from`'s job share is at most the last one's.
        let job_share = share_of_from(&by_jobs).unwrap_or(by_jobs.last().unwrap().1);
        assert!(
            io_share > 2.0 * job_share,
            "from: io share {io_share:.3} vs job share {job_share:.3}"
        );
    }

    #[test]
    fn fb2010_is_nameless() {
        assert!(test_corpus()
            .cell("fig10", &WorkloadKind::Fb2010)
            .is_skipped());
    }
}
