//! `swim-report`: run the full analysis battery over N traces in
//! parallel and emit one cross-trace comparison document.
//!
//! ```text
//! swim-report --traces a.swim b.csv c.jsonl [--out report.md]
//!             [--format md|html] [--machines N] [--threads N]
//! ```
//!
//! Trace formats are inferred from extensions (`.csv`, `.swim`/`.store`,
//! anything else JSON-lines). `--machines` sets the cluster size recorded
//! for CSV inputs (CSV carries no metadata; stores and JSON-lines do).
//! Output is deterministic: the same inputs produce byte-identical
//! documents regardless of `--threads`.

use std::process::ExitCode;
use swim_obs::cli::{self as run, Args, Cli, Command, Error, Flag};
use swim_obs::{html, markdown};
use swim_report::{Comparison, TraceContext};

const CLI: Cli = Cli {
    name: "swim-report",
    commands: &[Command {
        name: "",
        args: "TRACE...",
        flags: &[&[
            Flag::switch("--traces", "the traces follow (optional)"),
            Flag::value("--out", "FILE", "write the report to FILE"),
            Flag::value("--format", "md|html", "default: --out's extension, else md"),
            Flag::value("--machines", "N", "CSV cluster size (default 100)"),
            Flag::value("--threads", "N", "battery workers (same bytes)"),
        ]],
    }],
    notes: "formats by extension: .csv (needs --machines), .swim/.store, \
            a catalog directory, .jsonl (default)\n",
};

fn main() -> ExitCode {
    run::main(&CLI, body)
}

fn body(args: Args) -> Result<(), Error> {
    // The explicit flag, else the `--out` extension, else Markdown.
    let out = args.value("--out");
    let html = match args.value("--format") {
        Some("md" | "markdown") => false,
        Some("html") => true,
        Some(other) => {
            return Err(Error::Usage(format!(
                "unknown format {other} (expected md|html)"
            )))
        }
        None => matches!(out.and_then(|o| o.rsplit('.').next()), Some("html" | "htm")),
    };
    let machines = args.parse("--machines", "an integer")?.unwrap_or(100);
    let threads: Option<usize> = args.parse("--threads", "an integer")?;
    if args.positional.is_empty() {
        return Err(Error::Usage(
            "at least one trace is required (swim-report --traces a.swim b.csv)".into(),
        ));
    }

    let mut contexts = Vec::with_capacity(args.positional.len());
    for path in &args.positional {
        let ctx = TraceContext::load(path, machines)?;
        eprintln!(
            "loaded {} — {} jobs over {}",
            ctx.label(),
            ctx.summary().jobs,
            ctx.summary().length
        );
        contexts.push(ctx);
    }

    let comparison = Comparison::new(contexts);
    let report = match threads {
        Some(n) => comparison.run_with_threads(n),
        None => comparison.run(),
    }?;
    let rendered = if html {
        html::render_report(&report)
    } else {
        markdown::render_report(&report)
    };
    match out {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("wrote {path} ({} bytes)", rendered.len());
        }
        None => {
            run::print(&rendered)?;
        }
    }
    Ok(())
}
