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
use swim_report::{html, markdown, Comparison, TraceContext};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Markdown,
    Html,
}

struct Args {
    traces: Vec<String>,
    out: Option<String>,
    format: Option<Format>,
    machines: u32,
    threads: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        traces: Vec::new(),
        out: None,
        format: None,
        machines: 100,
        threads: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut next = |flag: &str| {
            iter.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            // Marker flag: the paths that follow land in the positional
            // arm below, so `--traces a b c` and bare `a b c` both work.
            "--traces" => {}
            "--out" => args.out = Some(next("--out")?),
            "--format" => {
                args.format = Some(match next("--format")?.as_str() {
                    "md" | "markdown" => Format::Markdown,
                    "html" => Format::Html,
                    other => return Err(format!("unknown format {other} (expected md|html)")),
                })
            }
            "--machines" => {
                args.machines = next("--machines")?
                    .parse()
                    .map_err(|_| "--machines requires an integer".to_owned())?
            }
            "--threads" => {
                args.threads = Some(
                    next("--threads")?
                        .parse()
                        .map_err(|_| "--threads requires an integer".to_owned())?,
                )
            }
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => args.traces.push(other.to_owned()),
        }
    }
    if args.traces.is_empty() {
        return Err("at least one trace is required (swim-report --traces a.swim b.csv)".into());
    }
    Ok(args)
}

/// Infer the output format: explicit flag, else the `--out` extension,
/// else Markdown.
fn output_format(args: &Args) -> Format {
    if let Some(f) = args.format {
        return f;
    }
    match args.out.as_deref().and_then(|o| o.rsplit('.').next()) {
        Some("html") | Some("htm") => Format::Html,
        _ => Format::Markdown,
    }
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
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!(
                "usage: swim-report --traces TRACE... [--out report.md] \
                 [--format md|html] [--machines N] [--threads N]\n\
                 formats by extension: .csv (needs --machines), .swim/.store, \
                 .jsonl (default)"
            );
            return ExitCode::FAILURE;
        }
    };

    let mut contexts = Vec::with_capacity(args.traces.len());
    for path in &args.traces {
        match TraceContext::load(path, args.machines) {
            Ok(ctx) => {
                eprintln!(
                    "loaded {} — {} jobs over {}",
                    ctx.label(),
                    ctx.summary().jobs,
                    ctx.summary().length
                );
                contexts.push(ctx);
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let comparison = Comparison::new(contexts);
    let report = match args.threads {
        Some(n) => comparison.run_with_threads(n),
        None => comparison.run(),
    };
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rendered = match output_format(&args) {
        Format::Markdown => markdown::render_report(&report),
        Format::Html => html::render_report(&report),
    };
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &rendered) {
                eprintln!("error: write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path} ({} bytes)", rendered.len());
        }
        None => print!("{rendered}"),
    }
    ExitCode::SUCCESS
}
