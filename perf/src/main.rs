//! `swim-perf`: the repo's benchmark.
//!
//! ```text
//! swim-perf run   [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!                 [--smoke] [--out DIR] [--corrupt-expected]
//! swim-perf trace [same flags]            (alias of run --trace 1)
//! swim-perf selfcheck [--runs N] [--seconds S] [--workload W] [--out DIR]
//! swim-perf benchmark-json                (prints BENCHMARK.json)
//! ```
//!
//! `run` measures one workload (every workload when none is named),
//! prints each metric by name and unit, checks the program's answers,
//! and ends with one JSON line per workload — the line the acceptance
//! driver reads. It exits nonzero on a wrong answer or a failed op.
//! See `README.md` for the workloads, the metrics and how to read them.

mod child;
mod layers;
mod metrics;
mod mix;
mod procfs;
mod run;
mod selfcheck;
mod spans;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use workload::{Config, Workload, RUN_SECONDS};

const USAGE: &str = "usage: swim-perf run|trace [--workload W] [--seed N] [--seconds S] \
 [--trace 0|1] [--smoke] [--out DIR] [--corrupt-expected]\n       \
 swim-perf selfcheck [--runs N] [--seconds S] [--workload W] [--out DIR]\n       \
 swim-perf benchmark-json\n\
 workloads: ingest-stream serve-cached serve-scan-warm serve-scan-cold (default: all)\n\
 --seconds S   measured window per run (default 20, the BENCHMARK.json run_seconds)\n\
 --trace 1     traced run: per-layer metrics and perf/out/trace-<workload>.jsonl\n               \
 (`swim-perf trace` is the same run)\n\
 --smoke       two rounds and one set-up per workload, correctness on, for CI\n\
 --out DIR     fixtures and trace files (default perf/out)\n\
 --corrupt-expected  corrupt the expected answer: the run must then fail";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
    out: PathBuf,
    corrupt_expected: bool,
    runs: usize,
}

fn parse_args(args: &[String], traced: bool) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: RUN_SECONDS,
        traced,
        smoke: false,
        out: PathBuf::from("perf/out"),
        corrupt_expected: false,
        runs: 5,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed
                    .workloads
                    .push(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a whole number")?;
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            "--runs" => parsed.runs = value()?.parse().map_err(|_| "--runs takes an integer")?,
            "--out" => parsed.out = PathBuf::from(value()?),
            "--smoke" => parsed.smoke = true,
            "--corrupt-expected" => parsed.corrupt_expected = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if parsed.workloads.is_empty() {
        parsed.workloads = Workload::ALL.to_vec();
    }
    Ok(parsed)
}

fn config(args: &Args, workload: Workload) -> Config {
    Config {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        smoke: args.smoke,
        out: args.out.clone(),
        corrupt_expected: args.corrupt_expected,
    }
}

/// `run` / `trace`: returns whether every workload was correct.
fn run_command(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    for &workload in &args.workloads {
        let output = run::run(&config(args, workload))?;
        println!("{}: {}", workload.name(), workload.why());
        println!(
            "{} ({}, seed {}): attempted {} failed {}",
            workload.name(),
            if args.traced { "traced" } else { "end to end" },
            args.seed,
            output.attempted,
            output.failed
        );
        print!("{}", output.to_table());
        println!("{}", output.to_json_line());
        all_correct &= output.correct;
    }
    Ok(all_correct)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let Some((command, rest)) = args.split_first() else {
        return Err("missing command".into());
    };
    match command.as_str() {
        "run" => run_command(&parse_args(rest, false)?),
        "trace" => run_command(&parse_args(rest, true)?),
        "selfcheck" => {
            let args = parse_args(rest, false)?;
            selfcheck::selfcheck(&args.workloads, args.runs, |workload, seed| {
                let mut cfg = config(&args, workload);
                cfg.seed = seed;
                run::run(&cfg)
            })
        }
        "child" => {
            let outcome = match rest.split_first() {
                Some((mode, rest)) if mode == "ingest" => child::ingest_main(rest),
                Some((mode, rest)) if mode == "serve" => child::serve_main(rest),
                _ => Err("child ingest|serve …".into()),
            };
            outcome.map(|()| true)
        }
        "benchmark-json" => {
            println!("{}", metrics::benchmark_json());
            Ok(true)
        }
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(true)
        }
        other => Err(format!("unknown command {other}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("swim-perf: FAILED: a wrong answer, a failed op, or sets that disagree");
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("swim-perf: error: {msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
