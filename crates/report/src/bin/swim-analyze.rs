//! `swim-analyze`: the SWIM user path — analyze your own per-job trace
//! (CSV, JSON-lines, or `swim-store` columnar format in the `swim-trace`
//! schema), print the full characterization, export anonymized aggregate
//! metrics for sharing, convert between trace formats, and optionally
//! synthesize a scaled-down replay bundle.
//!
//! ```text
//! swim-analyze --input trace.jsonl [--format csv|jsonl|store]
//!              [--machines N] [--name LABEL] [--export metrics.json]
//!              [--convert out.swim [--to csv|jsonl|store]]
//!              [--synthesize N --bundle out.json]
//! swim-analyze --demo            # run on a generated demo trace
//! ```

use std::fs::File;
use std::process::ExitCode;
use swim_obs::cli::{self as run, Args, Cli, Command, Error, Flag};
use swim_report::analyze::{synthesize_bundle, SharedMetrics};
use swim_report::TraceContext;
use swim_trace::trace::WorkloadKind;
use swim_trace::Trace;

const CLI: Cli = Cli {
    name: "swim-analyze",
    commands: &[Command {
        name: "",
        args: "",
        flags: &[&[
            Flag::value("--input", "TRACE", "the trace to analyze"),
            Flag::value(
                "--format",
                "csv|jsonl|store",
                "its format (default: extension)",
            ),
            Flag::value("--machines", "N", "CSV cluster size (default 100)"),
            Flag::value("--name", "LABEL", "workload label of CSV/JSON input"),
            Flag::value("--export", "FILE", "write the anonymized metrics"),
            Flag::value("--convert", "OUT", "convert the trace to OUT"),
            Flag::value(
                "--to",
                "csv|jsonl|store",
                "format of OUT (default: extension)",
            ),
            Flag::value("--synthesize", "NODES", "synthesize a scaled-down replay"),
            Flag::value("--bundle", "FILE", "write the replay bundle"),
            Flag::switch("--demo", "analyze a generated demo trace"),
        ]],
    }],
    notes: "TRACE is .csv, .jsonl or .swim; the store records its own kind and machines\n",
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Csv,
    Jsonl,
    Store,
}

impl Format {
    fn parse(s: &str) -> Result<Format, Error> {
        match s {
            "csv" => Ok(Format::Csv),
            "jsonl" | "json" => Ok(Format::Jsonl),
            "store" | "swim" => Ok(Format::Store),
            other => Err(Error::Usage(format!(
                "unknown format {other} (expected csv|jsonl|store)"
            ))),
        }
    }

    /// Guess from a file extension; JSON-lines is the historical default.
    fn infer(path: &str) -> Format {
        match path.rsplit('.').next() {
            Some("csv") => Format::Csv,
            Some("swim") | Some("store") => Format::Store,
            _ => Format::Jsonl,
        }
    }
}

fn load(args: &Args, format: Option<Format>) -> Result<TraceContext, Error> {
    if args.has("--demo") {
        use swim_workloadgen::{GeneratorConfig, WorkloadGenerator};
        let trace = WorkloadGenerator::new(
            GeneratorConfig::new(WorkloadKind::CcB)
                .scale(0.3)
                .days(3.0)
                .seed(1),
        )
        .generate();
        return Ok(TraceContext::from_trace("demo", trace));
    }
    let path = args
        .value("--input")
        .ok_or_else(|| Error::Usage("--input (or --demo) is required".into()))?;
    let name = args.value("--name").unwrap_or("custom");
    let kind = WorkloadKind::Custom(name.to_owned());
    let machines = args.parse("--machines", "an integer")?.unwrap_or(100);
    let trace = match format.unwrap_or_else(|| Format::infer(path)) {
        Format::Csv => {
            let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
            swim_trace::io::read_csv(kind, machines, file)
        }
        Format::Jsonl => {
            let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
            swim_trace::io::read_jsonl(file)
        }
        Format::Store => {
            // The store carries its own kind/machines metadata.
            if args.has("--machines") || args.has("--name") {
                eprintln!(
                    "note: --machines/--name are ignored for store input; the \
                     store file records its own workload kind and machine count"
                );
            }
            let store = swim_store::Store::open(path).map_err(|e| format!("open {path}: {e}"))?;
            return Ok(
                TraceContext::from_store(path, store).map_err(|e| format!("parse {path}: {e}"))?
            );
        }
    };
    let trace = trace.map_err(|e| format!("parse {path}: {e}"))?;
    Ok(TraceContext::from_trace(path, trace))
}

fn write_converted(trace: &Trace, path: &str, format: Format) -> Result<(), String> {
    match format {
        Format::Csv => {
            let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
            swim_trace::io::write_csv(trace, file).map_err(|e| format!("write {path}: {e}"))
        }
        Format::Jsonl => {
            let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
            swim_trace::io::write_jsonl(trace, file).map_err(|e| format!("write {path}: {e}"))
        }
        Format::Store => {
            let stats =
                swim_store::write_store_path(trace, path, &swim_store::StoreOptions::default())
                    .map_err(|e| format!("write {path}: {e}"))?;
            eprintln!(
                "wrote {} jobs in {} chunks ({} bytes)",
                stats.jobs, stats.chunks, stats.bytes_written
            );
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    run::main(&CLI, body)
}

fn body(args: Args) -> Result<(), Error> {
    let positive = |value: &str| value.parse().ok().filter(|&n: &u32| n > 0);
    let synthesize = match args.value("--synthesize").map(positive) {
        Some(None) => {
            return Err(Error::Usage(
                "--synthesize requires a positive node count".into(),
            ))
        }
        nodes => nodes.flatten(),
    };
    // A flag that only qualifies another must not be dropped without a word.
    if args.has("--bundle") && synthesize.is_none() {
        return Err(Error::Usage("--bundle requires --synthesize".into()));
    }
    if args.has("--to") && !args.has("--convert") {
        return Err(Error::Usage("--to requires --convert".into()));
    }
    let format = args.value("--format").map(Format::parse).transpose()?;
    let convert_to = args.value("--to").map(Format::parse).transpose()?;
    let ctx = load(&args, format)?;
    let jobs = ctx.summary().jobs;
    if jobs == 0 {
        return Err(Error::Runtime("trace contains no jobs".into()));
    }

    if let Some(out) = args.value("--convert") {
        let to = convert_to.unwrap_or_else(|| Format::infer(out));
        let read = |_, e| format!("read {}: {e}", ctx.label());
        swim_catalog::read_stores(ctx.stores(), read)
            .and_then(|trace| write_converted(&trace, out, to))?;
        eprintln!("converted {jobs} jobs to {out}");
        // Pure format migration: don't burn minutes on an unrequested
        // characterization of a potentially million-job trace.
        if !args.has("--export") && synthesize.is_none() {
            return Ok(());
        }
    }

    eprintln!("analyzing {jobs} jobs ...");
    let metrics = SharedMetrics::from_context(&ctx)?;
    let mut out = format!(
        "workload         : {}\njobs             : {}\nlength           : {:.1} hours\n\
         bytes moved      : {}\n",
        metrics.workload,
        metrics.jobs,
        metrics.length_hours,
        swim_trace::DataSize::from_bytes(metrics.bytes_moved)
    );
    if let Some(slope) = metrics.input_zipf_slope {
        out.push_str(&format!(
            "input zipf slope : {slope:.3} (paper: ≈ -0.833)\n"
        ));
    }
    out.push_str(&format!(
        "locality (6 hrs) : {:.0}% of re-accesses\n",
        metrics.locality_within_6h * 100.0
    ));
    if let Some(p2m) = metrics.peak_to_median {
        out.push_str(&format!("burstiness       : peak-to-median {p2m:.1}:1\n"));
    }
    let (jb, jt, bt) = metrics.correlations;
    out.push_str(&format!(
        "correlations     : jobs-bytes {jb:.2}, jobs-task {jt:.2}, bytes-task {bt:.2}\n\
         job types        : {}\n",
        metrics.job_types.len()
    ));
    for (count, input, _, _, dur, ..) in metrics.job_types.iter().take(4) {
        out.push_str(&format!(
            "  {:>8} jobs  in {:>10}  dur {:>10}\n",
            count,
            swim_trace::DataSize::from_bytes(*input).to_string(),
            swim_trace::Dur::from_secs(*dur).to_string()
        ));
    }
    run::print(&out)?;

    if let Some(path) = args.value("--export") {
        std::fs::write(path, metrics.to_json()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote anonymized metrics to {path}");
    }
    if let Some(nodes) = synthesize {
        let bundle = synthesize_bundle(&ctx, nodes, 17)?
            .ok_or("the sampled day holds no job; nothing to synthesize")?;
        eprintln!(
            "synthesized bundle: {} replay jobs, {} files to pre-populate, worst KS {:.3}",
            bundle.replay.len(),
            bundle.datagen.file_count(),
            bundle.validation.worst()
        );
        if let Some(path) = args.value("--bundle") {
            std::fs::write(path, bundle.to_json()).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("wrote replay bundle to {path}");
        }
    }
    Ok(())
}
