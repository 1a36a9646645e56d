//! `swim-repro`: regenerate the tables and figures of the VLDB'12
//! cross-industry MapReduce workload study from synthetic traces.
//!
//! Usage:
//!
//! ```text
//! swim-repro [--quick] [--seed N] [--format text|md|html] <experiment>...
//! swim-repro all              # every table and figure
//! swim-repro table1 fig8      # a subset
//! swim-repro --list           # list experiment ids
//! ```
//!
//! Every format renders the same document model: `text` (the default) is
//! the historical terminal output, `md`/`html` reuse `swim-report`'s
//! renderers over the identical section trees.

use std::process::ExitCode;
use swim_report::{experiments, Corpus, CorpusScale, Report};

#[derive(Clone, Copy, PartialEq, Eq)]
enum OutputFormat {
    Text,
    Markdown,
    Html,
}

fn main() -> ExitCode {
    // SWIM_OBS turns recording on; SWIM_OBS_JSONL=FILE appends the
    // snapshot on exit.
    swim_obs::init_from_env();
    let code = run();
    if let Err(e) = swim_obs::jsonl::append_env(&swim_obs::snapshot()) {
        eprintln!("warning: SWIM_OBS_JSONL: {e}");
    }
    code
}

fn run() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = CorpusScale::Standard;
    let mut seed: u64 = 42;
    let mut store_dir: Option<String> = None;
    let mut format = OutputFormat::Text;
    let mut ids: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => scale = CorpusScale::Quick,
            "--format" => match iter.next().as_deref() {
                Some("text") => format = OutputFormat::Text,
                Some("md") | Some("markdown") => format = OutputFormat::Markdown,
                Some("html") => format = OutputFormat::Html,
                _ => {
                    eprintln!("--format requires text|md|html");
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match iter.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("--seed requires an integer argument");
                    return ExitCode::FAILURE;
                }
            },
            "--store-dir" => match iter.next() {
                Some(dir) => store_dir = Some(dir),
                None => {
                    eprintln!("--store-dir requires a directory argument");
                    return ExitCode::FAILURE;
                }
            },
            "--list" => {
                for id in experiments::ALL {
                    println!("{id}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}");
                print_help();
                return ExitCode::FAILURE;
            }
            other => ids.push(other.to_owned()),
        }
    }
    if ids.is_empty() {
        print_help();
        return ExitCode::FAILURE;
    }
    if ids.iter().any(|i| i == "all") {
        ids = experiments::ALL.iter().map(|s| s.to_string()).collect();
    }
    for id in &ids {
        if !experiments::ALL.contains(&id.as_str()) {
            eprintln!("unknown experiment {id}; use --list");
            return ExitCode::FAILURE;
        }
    }

    eprintln!(
        "building corpus ({}, seed {seed}{}) ...",
        match scale {
            CorpusScale::Quick => "quick",
            CorpusScale::Standard => "standard",
        },
        store_dir
            .as_deref()
            .map(|d| format!(", store cache {d}"))
            .unwrap_or_default()
    );
    let corpus = Corpus::build_or_load(scale, seed, store_dir.as_deref().map(std::path::Path::new));
    match format {
        OutputFormat::Text => {
            for (i, id) in ids.iter().enumerate() {
                if i > 0 {
                    println!("\n{}\n", "=".repeat(72));
                }
                match experiments::run(id, &corpus) {
                    Some(report) => println!("{report}"),
                    None => unreachable!("ids validated above"),
                }
            }
        }
        OutputFormat::Markdown | OutputFormat::Html => {
            let mut report = Report::new(
                "swim-repro — VLDB'12 cross-industry MapReduce workload study, reproduced",
            );
            for id in &ids {
                match experiments::doc(id, &corpus) {
                    Some(section) => {
                        report.push(section);
                    }
                    None => unreachable!("ids validated above"),
                }
            }
            let rendered = match format {
                OutputFormat::Markdown => swim_report::markdown::render_report(&report),
                _ => swim_report::html::render_report(&report),
            };
            print!("{rendered}");
        }
    }
    ExitCode::SUCCESS
}

fn print_help() {
    eprintln!(
        "swim-repro — regenerate the VLDB'12 study's tables and figures\n\n\
         usage: swim-repro [--quick] [--seed N] [--store-dir DIR] \
         [--format text|md|html] <experiment>...\n\
         experiments: {} | all\n\
         flags: --quick (small corpus), --seed N, --store-dir DIR (cache the \
         corpus as swim-store files), --format text|md|html, --list, --help",
        experiments::ALL.join(" | ")
    );
}
