//! Job-name vocabularies per workload, calibrated to Figure 10.
//!
//! §6.1 groups jobs by the first word of their names, which reveals the
//! framework mix (Hive / Pig / Oozie / native) and the dominant query
//! operators (`insert`, `select`; `from` appears heavily only in FB-2009).
//! Weights below are digitized approximations of the Fig. 10 bar charts —
//! exact per-word fractions are not published, but the qualitative facts
//! we reproduce and test are:
//!
//! * the top handful of words cover a dominant majority of jobs;
//! * at most two frameworks dominate each workload;
//! * Hive activity is led by `insert`/`select`, with `from` only in FB-2009;
//! * FB-2010 carries **no** job names at all.

use crate::dist::Categorical;
use rand::Rng;
use swim_trace::Framework;

/// One vocabulary entry: a first word, its framework, and its share of jobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NameEntry {
    /// First word of the generated job name.
    pub word: &'static str,
    /// Framework the word implies.
    pub framework: Framework,
    /// Relative weight (share of jobs).
    pub weight: f64,
    /// Relative per-job data-size multiplier: words like `insert` or
    /// `etl` mark data-heavy jobs (Fig. 10 middle/bottom panels show the
    /// by-bytes ordering differs from by-jobs). The generator uses this to
    /// bias large job types towards data-heavy words.
    pub io_bias: f64,
}

const fn entry(word: &'static str, framework: Framework, weight: f64, io_bias: f64) -> NameEntry {
    NameEntry {
        word,
        framework,
        weight,
        io_bias,
    }
}

/// A per-workload name vocabulary.
#[derive(Debug, Clone)]
pub struct NameVocabulary {
    entries: Vec<NameEntry>,
    /// Sampler over entries, weighted by job share.
    by_jobs: Categorical,
    /// Sampler over entries, weighted by job share × io_bias (used for
    /// data-heavy job types).
    by_io: Categorical,
    seq: u64,
}

impl NameVocabulary {
    /// Build from entries (weights need not sum to 1).
    pub fn new(entries: Vec<NameEntry>) -> Self {
        assert!(!entries.is_empty(), "vocabulary must not be empty");
        let w_jobs: Vec<f64> = entries.iter().map(|e| e.weight).collect();
        let w_io: Vec<f64> = entries.iter().map(|e| e.weight * e.io_bias).collect();
        NameVocabulary {
            by_jobs: Categorical::new(&w_jobs),
            by_io: Categorical::new(&w_io),
            entries,
            seq: 0,
        }
    }

    /// An empty-name vocabulary modelling FB-2010's missing name field.
    pub fn unnamed() -> Self {
        NameVocabulary::new(vec![entry("", Framework::Native, 1.0, 1.0)])
    }

    /// The vocabulary entries.
    pub fn entries(&self) -> &[NameEntry] {
        &self.entries
    }

    /// Sample a name as plain data — `(first word, sequence number,
    /// framework)` — so a job can cross threads before its name is
    /// rendered. `data_heavy` selects the io-weighted sampler, used for
    /// job types whose centroid moves ≥ 1 GB. An unnamed vocabulary
    /// yields the empty word (and consumes no sequence number).
    pub fn sample_word<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        data_heavy: bool,
    ) -> (&'static str, u64, Framework) {
        let idx = if data_heavy {
            self.by_io.sample(rng)
        } else {
            self.by_jobs.sample(rng)
        };
        let e = self.entries[idx];
        if e.word.is_empty() {
            return ("", 0, e.framework);
        }
        self.seq += 1;
        (e.word, self.seq, e.framework)
    }

    /// Sample a rendered (name, framework) pair: [`Self::sample_word`]
    /// through [`push_name`].
    pub fn sample<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        data_heavy: bool,
    ) -> (String, Framework) {
        let (word, seq, framework) = self.sample_word(rng, data_heavy);
        let mut name = String::new();
        push_name(&mut name, word, seq);
        (name, framework)
    }
}

/// Rendered length of a sampled name (0 for the empty word).
pub fn name_len(word: &str, seq: u64) -> usize {
    if word.is_empty() {
        return 0;
    }
    let digits = seq.checked_ilog10().map_or(1, |d| d as usize + 1);
    word.len() + 1 + digits
}

/// Append the rendered name `"{word}_{seq}"` — the suffix mimics
/// framework-generated names ("insert_2041", staged ids). The empty word
/// renders as nothing.
pub fn push_name(out: &mut String, word: &str, seq: u64) {
    if word.is_empty() {
        return;
    }
    out.push_str(word);
    out.push('_');
    // The decimal digits, written back to front into a 20-byte buffer
    // (u64::MAX has 20): no formatting machinery on the per-job path.
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = seq;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// FB-2009 vocabulary: native `ad` pipeline dominates by jobs (≈44 %),
/// Hive `insert` ≈12 %; `from` is rare by jobs but carries ≈27 % of I/O
/// and ≈34 % of task-time (encoded through a large `io_bias`).
pub fn fb2009() -> NameVocabulary {
    NameVocabulary::new(vec![
        entry("ad", Framework::Native, 0.44, 0.2),
        entry("insert", Framework::Hive, 0.12, 1.5),
        entry("from", Framework::Hive, 0.04, 12.0),
        entry("select", Framework::Hive, 0.08, 0.5),
        entry("etl", Framework::Native, 0.05, 3.0),
        entry("stage", Framework::Native, 0.05, 1.0),
        entry("click", Framework::Native, 0.06, 1.0),
        entry("hourly", Framework::Native, 0.06, 0.8),
        entry("pipeline", Framework::Oozie, 0.04, 0.6),
        entry("report", Framework::Native, 0.06, 0.4),
    ])
}

/// CC-a vocabulary: Pig-dominated with Oozie launchers.
pub fn cc_a() -> NameVocabulary {
    NameVocabulary::new(vec![
        entry("piglatin", Framework::Pig, 0.42, 1.0),
        entry("oozie", Framework::Oozie, 0.20, 0.3),
        entry("insert", Framework::Hive, 0.12, 2.5),
        entry("select", Framework::Hive, 0.10, 0.6),
        entry("metrodataextractor", Framework::Native, 0.06, 4.0),
        entry("hyperlocaldataextractor", Framework::Native, 0.04, 3.0),
        entry("snapshot", Framework::Native, 0.06, 1.0),
    ])
}

/// CC-b vocabulary: Pig + Hive, with the `sywr`/`flow` native pipelines.
pub fn cc_b() -> NameVocabulary {
    NameVocabulary::new(vec![
        entry("piglatin", Framework::Pig, 0.38, 1.2),
        entry("insert", Framework::Hive, 0.18, 2.0),
        entry("select", Framework::Hive, 0.14, 0.5),
        entry("flow", Framework::Native, 0.12, 1.0),
        entry("sywr", Framework::Native, 0.08, 0.8),
        entry("tr", Framework::Native, 0.06, 2.0),
        entry("distcp", Framework::Native, 0.04, 4.0),
    ])
}

/// CC-c vocabulary: Oozie + Hive EDW migration (`edwsequence`, `etl`).
pub fn cc_c() -> NameVocabulary {
    NameVocabulary::new(vec![
        entry("oozie", Framework::Oozie, 0.30, 0.3),
        entry("insert", Framework::Hive, 0.22, 2.0),
        entry("select", Framework::Hive, 0.16, 0.6),
        entry("edwsequence", Framework::Native, 0.12, 2.5),
        entry("queryresult", Framework::Native, 0.08, 0.5),
        entry("ajax", Framework::Native, 0.05, 0.3),
        entry("etl", Framework::Native, 0.07, 3.5),
    ])
}

/// CC-d vocabulary: Pig with retail-flavoured natives (`twitch`,
/// `snapshot`, `importjob`, `edw`).
pub fn cc_d() -> NameVocabulary {
    NameVocabulary::new(vec![
        entry("piglatin", Framework::Pig, 0.34, 1.0),
        entry("select", Framework::Hive, 0.18, 0.5),
        entry("twitch", Framework::Native, 0.12, 1.2),
        entry("snapshot", Framework::Native, 0.10, 1.5),
        entry("importjob", Framework::Native, 0.08, 3.0),
        entry("edw", Framework::Native, 0.08, 2.5),
        entry("si", Framework::Native, 0.05, 0.8),
        entry("tr", Framework::Native, 0.05, 1.5),
    ])
}

/// CC-e vocabulary: Hive-led with retail item/search pipelines.
pub fn cc_e() -> NameVocabulary {
    NameVocabulary::new(vec![
        entry("insert", Framework::Hive, 0.30, 1.8),
        entry("select", Framework::Hive, 0.20, 0.5),
        entry("piglatin", Framework::Pig, 0.14, 1.0),
        entry("iteminquiry", Framework::Native, 0.10, 0.6),
        entry("search", Framework::Native, 0.08, 0.5),
        entry("item", Framework::Native, 0.06, 0.8),
        entry("esb", Framework::Native, 0.06, 1.0),
        entry("edw", Framework::Native, 0.06, 2.5),
    ])
}

/// FB-2010: the trace carries no job names (§6.1, Fig. 10 caption).
pub fn fb2010() -> NameVocabulary {
    NameVocabulary::unnamed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    #[test]
    fn names_render_as_their_format_and_length() {
        for seq in [0, 1, 9, 10, 99, 100, 2041, 1 << 32, u64::MAX] {
            let mut name = String::from("x");
            push_name(&mut name, "insert", seq);
            assert_eq!(name, format!("xinsert_{seq}"));
            assert_eq!(name_len("insert", seq), name.len() - 1);
        }
        let mut empty = String::new();
        push_name(&mut empty, "", 7);
        assert!(empty.is_empty());
    }

    #[test]
    fn fb2009_word_shares_match_calibration() {
        let mut v = fb2009();
        let mut rng = StdRng::seed_from_u64(20);
        let n = 40_000;
        let mut counts: HashMap<String, u64> = HashMap::new();
        for _ in 0..n {
            let (name, _) = v.sample(&mut rng, false);
            let word = name.split('_').next().unwrap().to_owned();
            *counts.entry(word).or_default() += 1;
        }
        let ad = counts["ad"] as f64 / n as f64;
        let insert = counts["insert"] as f64 / n as f64;
        assert!((ad - 0.44).abs() < 0.02, "ad share {ad}");
        assert!((insert - 0.12).abs() < 0.02, "insert share {insert}");
    }

    #[test]
    fn data_heavy_sampling_prefers_high_io_bias_words() {
        let mut v = fb2009();
        let mut rng = StdRng::seed_from_u64(21);
        let n = 40_000;
        let mut from_heavy = 0u64;
        let mut from_light = 0u64;
        for _ in 0..n {
            if v.sample(&mut rng, true).0.starts_with("from") {
                from_heavy += 1;
            }
            if v.sample(&mut rng, false).0.starts_with("from") {
                from_light += 1;
            }
        }
        assert!(
            from_heavy > 3 * from_light.max(1),
            "heavy {from_heavy} vs light {from_light}"
        );
    }

    #[test]
    fn two_frameworks_dominate_each_workload() {
        // §6.1: "for all workloads, two frameworks account for a dominant
        // majority of jobs".
        for (label, vocab) in [
            ("FB-2009", fb2009()),
            ("CC-a", cc_a()),
            ("CC-b", cc_b()),
            ("CC-c", cc_c()),
            ("CC-d", cc_d()),
            ("CC-e", cc_e()),
        ] {
            let mut shares: HashMap<Framework, f64> = HashMap::new();
            let total: f64 = vocab.entries().iter().map(|e| e.weight).sum();
            for e in vocab.entries() {
                *shares.entry(e.framework).or_default() += e.weight / total;
            }
            let mut sorted: Vec<f64> = shares.values().copied().collect();
            sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
            let top2: f64 = sorted.iter().take(2).sum();
            assert!(top2 > 0.55, "{label}: top-2 framework share {top2}");
        }
    }

    #[test]
    fn from_appears_only_in_fb2009() {
        for (label, vocab) in [
            ("CC-a", cc_a()),
            ("CC-b", cc_b()),
            ("CC-c", cc_c()),
            ("CC-d", cc_d()),
            ("CC-e", cc_e()),
        ] {
            assert!(
                vocab.entries().iter().all(|e| e.word != "from"),
                "{label} must not contain 'from'"
            );
        }
        assert!(fb2009().entries().iter().any(|e| e.word == "from"));
    }

    #[test]
    fn fb2010_is_unnamed() {
        let mut v = fb2010();
        let mut rng = StdRng::seed_from_u64(22);
        let (name, fw) = v.sample(&mut rng, false);
        assert!(name.is_empty());
        assert_eq!(fw, Framework::Native);
    }

    #[test]
    fn names_are_unique_via_sequence_suffix() {
        let mut v = cc_b();
        let mut rng = StdRng::seed_from_u64(23);
        let a = v.sample(&mut rng, false).0;
        let b = v.sample(&mut rng, false).0;
        assert_ne!(a, b);
    }

    #[test]
    fn first_word_survives_trace_normalization() {
        // Generated names must group correctly under Job::name_first_word.
        let mut v = cc_c();
        let mut rng = StdRng::seed_from_u64(24);
        for _ in 0..100 {
            let (name, _) = v.sample(&mut rng, false);
            let word = swim_trace::job::first_word(&name).unwrap();
            assert!(v.entries().iter().any(|e| e.word == word), "word {word}");
        }
    }
}
