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
use swim_obs::cli::{self as run, Args, Cli, Command, Error, Flag};
use swim_obs::doc::Report;
use swim_report::{experiments, Corpus, CorpusScale};

const CLI: Cli = Cli {
    name: "swim-repro",
    commands: &[Command {
        name: "",
        args: "EXPERIMENT...",
        flags: &[&[
            Flag::switch("--quick", "small corpus"),
            Flag::value("--seed", "N", "corpus seed (default 42)"),
            Flag::value("--format", "text|md|html", "output format (default text)"),
            Flag::switch("--list", "list the experiment ids"),
        ]],
    }],
    notes: "regenerates the VLDB'12 study's tables and figures; EXPERIMENT is an id \
            from --list, or all\n",
};

fn main() -> ExitCode {
    run::main(&CLI, body)
}

fn body(args: Args) -> Result<(), Error> {
    if args.has("--list") {
        run::print(&experiments::ALL.map(|id| format!("{id}\n")).concat())?;
        return Ok(());
    }
    let scale = if args.has("--quick") {
        CorpusScale::Quick
    } else {
        CorpusScale::Standard
    };
    let seed: u64 = args.parse("--seed", "an integer")?.unwrap_or(42);
    let format = args.value("--format").unwrap_or("text");
    if !matches!(format, "text" | "md" | "markdown" | "html") {
        return Err(Error::Usage(format!(
            "unknown format {format} (expected text|md|html)"
        )));
    }
    let mut ids = args.positional.clone();
    if ids.is_empty() {
        return Err(Error::Usage("an experiment id (or all) is required".into()));
    }
    if ids.iter().any(|i| i == "all") {
        ids = experiments::ALL.iter().map(|s| s.to_string()).collect();
    }
    if let Some(id) = ids
        .iter()
        .find(|id| !experiments::ALL.contains(&id.as_str()))
    {
        return Err(Error::Usage(format!("unknown experiment {id}; use --list")));
    }

    eprintln!(
        "building corpus ({}, seed {seed}) ...",
        match scale {
            CorpusScale::Quick => "quick",
            CorpusScale::Standard => "standard",
        }
    );
    let corpus = Corpus::build(scale, seed);
    // Ids were checked against `experiments::ALL` above, so every one
    // has a section.
    let sections = ids.iter().filter_map(|id| experiments::doc(id, &corpus));
    if format == "text" {
        // One experiment at a time, as each is ready; a reader that has
        // gone away ends the run.
        for (i, section) in sections.enumerate() {
            let rule = if i > 0 {
                format!("\n{}\n\n", "=".repeat(72))
            } else {
                String::new()
            };
            if !run::print(&format!("{rule}{}\n", section.render_text()))? {
                break;
            }
        }
        return Ok(());
    }
    let mut report =
        Report::new("swim-repro — VLDB'12 cross-industry MapReduce workload study, reproduced");
    for section in sections {
        report.push(section);
    }
    let rendered = match format {
        "html" => swim_obs::html::render_report(&report),
        _ => swim_obs::markdown::render_report(&report),
    };
    run::print(&rendered)?;
    Ok(())
}
