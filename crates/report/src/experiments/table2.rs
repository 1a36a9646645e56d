//! Table 2 — job types per workload identified by k-means clustering in
//! the six-dimensional (input, shuffle, output, duration, map-time,
//! reduce-time) space, with elbow-chosen k and heuristic labels.
//!
//! Published shape: every workload is dominated (>90 %) by a "Small jobs"
//! cluster; the remaining clusters span transform/aggregate/expand/map-only
//! behaviours with wildly varying scales; FB's job types changed
//! substantially between 2009 and 2010.

use crate::corpus::in_memory;
use crate::Corpus;
use swim_core::KMeans;
use swim_obs::doc::Section;
use swim_obs::render::Table;

/// Published cluster counts per workload (number of Table 2 rows).
pub const PAPER_K: [(&str, usize); 7] = [
    ("CC-a", 4),
    ("CC-b", 5),
    ("CC-c", 7),
    ("CC-d", 5),
    ("CC-e", 5),
    ("FB-2009", 10),
    ("FB-2010", 10),
];

/// Fit Table 2 for one trace: k-means at the paper's published k (the
/// cluster-count column of Table 2). The paper clusters *raw* feature
/// vectors, as [`KMeans`] does: in raw space the byte dimensions of the
/// largest jobs dominate distance, which is precisely what isolates the
/// tiny-population/huge-data clusters of Table 2 (and collapses every
/// small job into one cluster). At the corpus's
/// reduced scale some tiny clusters (single-digit populations in the
/// original) may have no members; k is capped at the job count.
/// `workload` is the trace's label, `points` its jobs' feature vectors.
pub fn fit_paper_k(workload: &str, points: &[[f64; 6]]) -> KMeans {
    let paper_k = PAPER_K
        .iter()
        .find(|(w, _)| *w == workload)
        .map(|(_, k)| *k)
        .unwrap_or(4);
    // Sample-size guard: the published k values come from traces with
    // 10⁴–10⁶ jobs, where even 10 clusters keep tens of members each. A
    // heavily scaled-down corpus cannot support that many clusters, so k
    // is capped at one cluster per ~150 jobs (minimum 2: the small/large
    // dichotomy must always be visible). At the standard corpus scale the
    // cap is inactive and the paper's k is used as-is.
    let k = paper_k.min((points.len() / 150).max(2));
    KMeans::fit(points, k)
}

/// Build the Table 2 document.
pub fn doc(corpus: &Corpus) -> Section {
    let mut section = Section::new("Table 2: Job types per workload via 6-dimensional k-means");
    section.prose(
        "Fitted at the paper's published k per workload; the elbow rule's \n\
         own choice is reported alongside (the paper picked k by judging \n\
         diminishing returns in residual variance, which at our reduced \n\
         corpus scale saturates earlier).\n\n",
    );
    for (ctx, r) in corpus.cells("table2") {
        let model = fit_paper_k(&ctx.summary().workload, in_memory(ctx.points()));
        section.prose(format!(
            "{} — paper k = {} (elbow would choose k = {}):\n",
            ctx.label(),
            model.k,
            r.render("job types (elbow k)")
        ));
        let mut table = Table::new(vec![
            "# Jobs",
            "Input",
            "Shuffle",
            "Output",
            "Duration",
            "Map time",
            "Reduce time",
            "Label",
        ]);
        for c in &model.clusters {
            table.row(vec![
                c.count.to_string(),
                c.input.to_string(),
                c.shuffle.to_string(),
                c.output.to_string(),
                c.duration.to_string(),
                c.map_time.secs().to_string(),
                c.reduce_time.secs().to_string(),
                c.label.clone(),
            ]);
        }
        section.table(table);
        let total: u64 = model.clusters.iter().map(|c| c.count).sum();
        let small_share = model.clusters[0].count as f64 / total.max(1) as f64;
        section.prose(format!(
            "  dominant cluster holds {:.1}% of jobs\n\n",
            small_share * 100.0
        ));
    }
    section.prose(
        "Shape check (paper): small jobs dominate every workload (>90 %); \
         other clusters are orders of magnitude larger in data and \
         task-time; map-only clusters appear in most workloads; labels \
         cover transform / aggregate / expand behaviours.\n",
    );
    section
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tests::test_corpus;

    /// Every corpus trace's Table 2 fit at the paper's k.
    fn paper_k_fits() -> Vec<(String, KMeans)> {
        let fit = |c: &crate::TraceContext| {
            let model = fit_paper_k(&c.summary().workload, in_memory(c.points()));
            (c.label().to_owned(), model)
        };
        test_corpus().contexts.iter().map(fit).collect()
    }

    #[test]
    fn dominant_cluster_exceeds_ninety_percent() {
        for (label, model) in paper_k_fits() {
            let total: u64 = model.clusters.iter().map(|c| c.count).sum();
            let share = model.clusters[0].count as f64 / total as f64;
            // The paper's dominant share exceeds 90 % at production scale;
            // the quick test corpus has only a few hundred jobs per
            // workload, where raw k-means sheds a little more of the blob.
            assert!(share > 0.7, "{label}: dominant cluster share {share:.3}");
        }
    }

    #[test]
    fn dominant_cluster_is_labelled_small_jobs() {
        let fits = paper_k_fits();
        let small = fits
            .iter()
            .filter(|(_, model)| model.clusters[0].label == "Small jobs")
            .count();
        assert!(
            small >= 6,
            "only {small}/7 dominant clusters labelled Small jobs"
        );
    }

    #[test]
    fn elbow_finds_multiple_types() {
        for (label, model) in paper_k_fits() {
            assert!(
                model.k >= 2,
                "{label}: k = {} — the small/large dichotomy must appear",
                model.k
            );
        }
    }
}
