//! Figure 10 — the first word of job names per workload, weighted by job
//! count, by total I/O, and by task-time; framework breakdown.
//!
//! Published shape: a handful of words cover most jobs; at most two
//! frameworks dominate each workload; Hive activity is led by `insert`
//! and `select` with `from` prominent only in FB-2009; data-centric words
//! rise under the I/O and task-time weightings. FB-2010 ships no names.

use crate::render::{pct, Table};
use crate::Corpus;
use crate::{Block, KeyValueBlock, Section};
use swim_core::names::{NameAnalysis, Weighting};

/// How many top words to print per weighting.
pub const TOP_N: usize = 5;

/// Build the Figure 10 document.
pub fn doc(corpus: &Corpus) -> Section {
    let mut section =
        Section::new("Figure 10: First word of job names (by jobs / I/O / task-time)");
    let mut table = Table::new(vec!["Workload", "top-2 framework share of jobs"]);
    for trace in corpus.traces() {
        let analysis = NameAnalysis::of(trace);
        section.prose(format!("{}:\n", trace.kind));
        if !analysis.has_names() {
            section.prose("  (trace has no job names — as published for FB-2010)\n\n");
            continue;
        }
        let mut pairs: Vec<(String, String)> = Vec::new();
        for (weighting, label, total) in [
            (Weighting::Jobs, "jobs", analysis.total_jobs as f64),
            (Weighting::Bytes, "bytes", analysis.total_bytes),
            (
                Weighting::TaskTime,
                "task-time",
                analysis.total_task_seconds,
            ),
        ] {
            let groups = analysis.sorted_by(weighting);
            let parts: Vec<String> = groups
                .iter()
                .take(TOP_N)
                .map(|g| {
                    let w = match weighting {
                        Weighting::Jobs => g.jobs as f64,
                        Weighting::Bytes => g.bytes,
                        Weighting::TaskTime => g.task_seconds,
                    };
                    format!("{} {}", g.word, pct(w / total.max(1.0)))
                })
                .collect();
            pairs.push((format!("by {label}"), parts.join(", ")));
        }
        section.push(Block::KeyValue(KeyValueBlock {
            pairs,
            key_width: 12,
            indent: 2,
        }));
        let shares = analysis.framework_shares();
        let fw: Vec<String> = shares
            .iter()
            .map(|s| format!("{} {}", s.framework, pct(s.jobs)))
            .collect();
        section.prose(format!(
            "  frameworks : {} | top-5 words cover {} of jobs\n\n",
            fw.join(", "),
            pct(analysis.top_k_job_share(TOP_N))
        ));
        let top2: f64 = shares.iter().take(2).map(|s| s.jobs).sum();
        table.row(vec![trace.kind.label().to_owned(), pct(top2)]);
    }
    section.table(table);
    section.prose(
        "\nShape check (paper): top words dominate; two frameworks cover a \
         dominant majority per workload; `from` carries an outsized I/O and \
         task-time share only in FB-2009.\n",
    );
    section
}

/// Regenerate the Figure 10 report in the historical terminal format.
pub fn run(corpus: &Corpus) -> String {
    doc(corpus).render_text()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::in_memory;
    use crate::experiments::tests::test_corpus;
    use swim_trace::trace::WorkloadKind;

    #[test]
    fn top_words_cover_dominant_majority() {
        let corpus = test_corpus();
        for trace in corpus.traces() {
            let analysis = NameAnalysis::of(trace);
            if !analysis.has_names() {
                continue;
            }
            let share = analysis.top_k_job_share(TOP_N);
            assert!(share > 0.6, "{}: top-{TOP_N} share {share:.2}", trace.kind);
        }
    }

    #[test]
    fn two_frameworks_dominate() {
        let corpus = test_corpus();
        for trace in corpus.traces() {
            let analysis = NameAnalysis::of(trace);
            if !analysis.has_names() {
                continue;
            }
            let shares = analysis.framework_shares();
            let top2: f64 = shares.iter().take(2).map(|s| s.jobs).sum();
            assert!(top2 > 0.55, "{}: top-2 frameworks {top2:.2}", trace.kind);
        }
    }

    #[test]
    fn from_is_io_heavy_in_fb2009() {
        let corpus = test_corpus();
        let analysis = NameAnalysis::of(in_memory(corpus.get(&WorkloadKind::Fb2009).trace()));
        let from = analysis
            .groups
            .iter()
            .find(|g| g.word == "from")
            .expect("fb2009 has `from` jobs");
        let job_share = from.jobs as f64 / analysis.total_jobs as f64;
        let io_share = from.bytes / analysis.total_bytes;
        assert!(
            io_share > 2.0 * job_share,
            "from: io share {io_share:.3} vs job share {job_share:.3}"
        );
    }

    #[test]
    fn fb2010_is_nameless() {
        let corpus = test_corpus();
        let analysis = NameAnalysis::of(in_memory(corpus.get(&WorkloadKind::Fb2010).trace()));
        assert!(!analysis.has_names());
    }
}
