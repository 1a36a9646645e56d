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
use swim_report::analyze::{synthesize_bundle, SharedMetrics};
use swim_report::TraceContext;
use swim_trace::trace::WorkloadKind;
use swim_trace::Trace;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Csv,
    Jsonl,
    Store,
}

impl Format {
    fn parse(s: &str) -> Result<Format, String> {
        match s {
            "csv" => Ok(Format::Csv),
            "jsonl" | "json" => Ok(Format::Jsonl),
            "store" | "swim" => Ok(Format::Store),
            other => Err(format!("unknown format {other} (expected csv|jsonl|store)")),
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

struct Args {
    input: Option<String>,
    format: Option<Format>,
    machines: Option<u32>,
    name: Option<String>,
    export: Option<String>,
    convert: Option<String>,
    convert_to: Option<Format>,
    synthesize: Option<u32>,
    bundle: Option<String>,
    demo: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        input: None,
        format: None,
        machines: None,
        name: None,
        export: None,
        convert: None,
        convert_to: None,
        synthesize: None,
        bundle: None,
        demo: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut next = |flag: &str| {
            iter.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--input" => args.input = Some(next("--input")?),
            "--format" => args.format = Some(Format::parse(&next("--format")?)?),
            "--machines" => {
                args.machines = Some(
                    next("--machines")?
                        .parse()
                        .map_err(|_| "--machines requires an integer".to_owned())?,
                )
            }
            "--name" => args.name = Some(next("--name")?),
            "--export" => args.export = Some(next("--export")?),
            "--convert" => args.convert = Some(next("--convert")?),
            "--to" => args.convert_to = Some(Format::parse(&next("--to")?)?),
            "--synthesize" => {
                let nodes = next("--synthesize")?.parse().ok().filter(|&n: &u32| n > 0);
                args.synthesize = Some(nodes.ok_or("--synthesize requires a positive node count")?)
            }
            "--bundle" => args.bundle = Some(next("--bundle")?),
            "--demo" => args.demo = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    // A flag that only qualifies another must not be dropped without a word.
    if args.bundle.is_some() && args.synthesize.is_none() {
        return Err("--bundle requires --synthesize".to_owned());
    }
    if args.convert_to.is_some() && args.convert.is_none() {
        return Err("--to requires --convert".to_owned());
    }
    Ok(args)
}

fn load(args: &Args) -> Result<TraceContext, String> {
    if args.demo {
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
        .input
        .as_ref()
        .ok_or("--input (or --demo) is required")?;
    let kind = WorkloadKind::Custom(args.name.clone().unwrap_or_else(|| "custom".to_owned()));
    let machines = args.machines.unwrap_or(100);
    let trace = match args.format.unwrap_or_else(|| Format::infer(path)) {
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
            if args.machines.is_some() || args.name.is_some() {
                eprintln!(
                    "note: --machines/--name are ignored for store input; the \
                     store file records its own workload kind and machine count"
                );
            }
            let store = swim_store::Store::open(path).map_err(|e| format!("open {path}: {e}"))?;
            return TraceContext::from_store(path.as_str(), store)
                .map_err(|e| format!("parse {path}: {e}"));
        }
    };
    let trace = trace.map_err(|e| format!("parse {path}: {e}"))?;
    Ok(TraceContext::from_trace(path.as_str(), trace))
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
                "usage: swim-analyze --input trace.{{csv,jsonl,swim}} \
                 [--format csv|jsonl|store] [--machines N] [--name LABEL] \
                 [--export metrics.json] [--convert OUT [--to csv|jsonl|store]] \
                 [--synthesize NODES --bundle out.json] | --demo"
            );
            return ExitCode::FAILURE;
        }
    };
    let ctx = match load(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let jobs = ctx.summary().jobs;
    if jobs == 0 {
        eprintln!("error: trace contains no jobs");
        return ExitCode::FAILURE;
    }

    if let Some(out) = &args.convert {
        let to = args.convert_to.unwrap_or_else(|| Format::infer(out));
        let read = |_, e| format!("read {}: {e}", ctx.label());
        let converted = swim_catalog::read_stores(ctx.stores(), read)
            .and_then(|trace| write_converted(&trace, out, to));
        if let Err(e) = converted {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("converted {jobs} jobs to {out}");
        // Pure format migration: don't burn minutes on an unrequested
        // characterization of a potentially million-job trace.
        if args.export.is_none() && args.synthesize.is_none() {
            return ExitCode::SUCCESS;
        }
    }

    eprintln!("analyzing {jobs} jobs ...");
    let metrics = match SharedMetrics::from_context(&ctx) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("workload         : {}", metrics.workload);
    println!("jobs             : {}", metrics.jobs);
    println!("length           : {:.1} hours", metrics.length_hours);
    println!(
        "bytes moved      : {}",
        swim_trace::DataSize::from_bytes(metrics.bytes_moved)
    );
    if let Some(slope) = metrics.input_zipf_slope {
        println!("input zipf slope : {slope:.3} (paper: ≈ -0.833)");
    }
    println!(
        "locality (6 hrs) : {:.0}% of re-accesses",
        metrics.locality_within_6h * 100.0
    );
    if let Some(p2m) = metrics.peak_to_median {
        println!("burstiness       : peak-to-median {p2m:.1}:1");
    }
    let (jb, jt, bt) = metrics.correlations;
    println!("correlations     : jobs-bytes {jb:.2}, jobs-task {jt:.2}, bytes-task {bt:.2}");
    println!("job types        : {}", metrics.job_types.len());
    for (count, input, _, _, dur, ..) in metrics.job_types.iter().take(4) {
        println!(
            "  {:>8} jobs  in {:>10}  dur {:>10}",
            count,
            swim_trace::DataSize::from_bytes(*input).to_string(),
            swim_trace::Dur::from_secs(*dur).to_string()
        );
    }

    if let Some(path) = &args.export {
        if let Err(e) = std::fs::write(path, metrics.to_json()) {
            eprintln!("error: write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote anonymized metrics to {path}");
    }
    if let Some(nodes) = args.synthesize {
        let bundle = match synthesize_bundle(&ctx, nodes, 17) {
            Ok(Some(bundle)) => bundle,
            Ok(None) => {
                eprintln!("error: the sampled day holds no job; nothing to synthesize");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprintln!(
            "synthesized bundle: {} replay jobs, {} files to pre-populate, worst KS {:.3}",
            bundle.replay.len(),
            bundle.datagen.file_count(),
            bundle.validation.worst()
        );
        if let Some(path) = &args.bundle {
            if let Err(e) = std::fs::write(path, bundle.to_json()) {
                eprintln!("error: write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote replay bundle to {path}");
        }
    }
    ExitCode::SUCCESS
}
