//! `swim-scenario`: the scenario library CLI.
//!
//! ```text
//! swim-scenario list
//! swim-scenario describe NAME
//! swim-scenario generate --scenario NAME --jobs N --out CATALOG
//!                        [--seed S] [--chunk C] [--jobs-per-shard N]
//! swim-scenario compare [--scenarios A,B,...] [--jobs N] [--seed S]
//!                       [--out FILE] [--format md|html]
//! ```
//!
//! `generate` streams the scenario chunk-at-a-time into a sharded
//! catalog (created if the directory holds none) — memory stays
//! O(chunk) no matter how many jobs are requested. `--jobs` is a
//! budget: very bursty scenarios emit somewhat fewer (the cap
//! truncates their peak hours); the printed stats report what actually
//! landed. `compare` runs the
//! cross-scenario study (report battery + what-if sweep) over the named
//! scenarios (default: every preset) and renders one report.
//!
//! Environment: `SWIM_SCENARIO_CHUNK` overrides the default generate
//! chunk size; `SWIM_SCENARIO_THREADS` pins the compare battery's
//! worker count (output is identical either way).

use std::process::ExitCode;
use swim_catalog::{Catalog, CatalogOptions};
use swim_scenario::{presets, StudyOptions};

const USAGE: &str = "usage:\n\
 swim-scenario list\n\
 swim-scenario describe NAME\n\
 swim-scenario generate --scenario NAME --jobs N --out CATALOG \
 [--seed S] [--chunk C] [--jobs-per-shard N]\n\
 swim-scenario compare [--scenarios A,B,...] [--jobs N] [--seed S] \
 [--out FILE] [--format md|html]\n\
 scenarios are named presets: see `swim-scenario list`";

/// CLI failures carry their exit class: malformed invocations are usage
/// errors and exit 2 with the usage text; failures of well-formed
/// commands (I/O, catalog, generation) are runtime errors and exit 1
/// without it. Both start stderr with `error: …`.
enum CliError {
    Usage(String),
    Runtime(String),
}

impl CliError {
    fn exit(self) -> ExitCode {
        match self {
            CliError::Usage(msg) => {
                eprintln!("error: {msg}\n\n{USAGE}");
                ExitCode::from(2)
            }
            CliError::Runtime(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        }
    }
}

/// Shorthand for `map_err` on scenario/catalog/I-O operations.
fn runtime(e: impl std::fmt::Display) -> CliError {
    CliError::Runtime(e.to_string())
}

#[derive(Default)]
struct Flags {
    scenario: Option<String>,
    scenarios: Option<String>,
    jobs: Option<u64>,
    seed: Option<u64>,
    chunk: Option<usize>,
    jobs_per_shard: Option<u32>,
    out: Option<String>,
    format: Option<String>,
}

/// Split option flags out of an argument stream; everything else
/// (subcommand positionals) is returned in order. Each subcommand
/// passes the flags it actually honours — anything else (misplaced or
/// unknown) is an error, never silently ignored.
fn split_flags(args: &[String], allowed: &[&'static str]) -> Result<(Vec<String>, Flags), String> {
    let mut flags = Flags::default();
    let mut positional = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut next = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        if arg.starts_with('-') && !allowed.contains(&arg.as_str()) {
            return Err(format!("{arg} does not apply to this subcommand"));
        }
        match arg.as_str() {
            "--scenario" => flags.scenario = Some(next("--scenario")?),
            "--scenarios" => flags.scenarios = Some(next("--scenarios")?),
            "--jobs" => flags.jobs = Some(parse("--jobs", &next("--jobs")?)?),
            "--seed" => flags.seed = Some(parse("--seed", &next("--seed")?)?),
            "--chunk" => flags.chunk = Some(parse("--chunk", &next("--chunk")?)?),
            "--jobs-per-shard" => {
                flags.jobs_per_shard = Some(parse("--jobs-per-shard", &next("--jobs-per-shard")?)?)
            }
            "--out" => flags.out = Some(next("--out")?),
            "--format" => flags.format = Some(next("--format")?),
            other => positional.push(other.to_owned()),
        }
    }
    Ok((positional, flags))
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} requires an integer, got {value:?}"))
}

/// Read a positive-integer environment override; unset is `None`,
/// unparsable is an error (misconfiguration should be loud, not
/// silently defaulted).
fn env_usize(name: &str) -> Result<Option<usize>, CliError> {
    match std::env::var(name) {
        Ok(v) => {
            let n: usize = v
                .parse()
                .map_err(|_| CliError::Runtime(format!("{name} must be an integer, got {v:?}")))?;
            if n == 0 {
                return Err(CliError::Runtime(format!("{name} must be >= 1")));
            }
            Ok(Some(n))
        }
        Err(_) => Ok(None),
    }
}

fn cmd_list(args: &[String]) -> Result<(), CliError> {
    let (positional, _) = split_flags(args, &[]).map_err(CliError::Usage)?;
    if !positional.is_empty() {
        return Err(CliError::Usage("list takes no arguments".into()));
    }
    let mut table = swim_obs::render::Table::new(vec![
        "name", "version", "industry", "tenants", "overlays", "summary",
    ]);
    for s in presets::presets() {
        let mut overlays = Vec::new();
        if s.heavy_tail.is_some() {
            overlays.push("heavy-tail");
        }
        if s.retry_storm.is_some() {
            overlays.push("retry-storm");
        }
        table.row(vec![
            s.name.clone(),
            format!("v{}", s.version),
            s.industry.clone(),
            s.tenants.len().to_string(),
            if overlays.is_empty() {
                "-".to_owned()
            } else {
                overlays.join(",")
            },
            s.summary.clone(),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

fn cmd_describe(args: &[String]) -> Result<(), CliError> {
    let (positional, _) = split_flags(args, &[]).map_err(CliError::Usage)?;
    let [name] = positional.as_slice() else {
        return Err(CliError::Usage(
            "describe takes exactly one scenario name".into(),
        ));
    };
    let scenario = presets::find(name).map_err(runtime)?;
    print!("{}", scenario.describe());
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), CliError> {
    let (positional, flags) = split_flags(
        args,
        &[
            "--scenario",
            "--jobs",
            "--out",
            "--seed",
            "--chunk",
            "--jobs-per-shard",
        ],
    )
    .map_err(CliError::Usage)?;
    if !positional.is_empty() {
        return Err(CliError::Usage(format!(
            "generate takes no positional arguments, got {positional:?}"
        )));
    }
    let name = flags
        .scenario
        .ok_or_else(|| CliError::Usage("generate requires --scenario NAME".into()))?;
    let jobs = flags
        .jobs
        .ok_or_else(|| CliError::Usage("generate requires --jobs N".into()))?;
    let dir = flags
        .out
        .ok_or_else(|| CliError::Usage("generate requires --out CATALOG".into()))?;
    let scenario = presets::find(&name).map_err(runtime)?;
    let chunk = match flags.chunk {
        Some(c) => c.max(1),
        None => env_usize("SWIM_SCENARIO_CHUNK")?.unwrap_or(swim_scenario::DEFAULT_CHUNK),
    };
    let mut options = CatalogOptions::default();
    if let Some(per_shard) = flags.jobs_per_shard {
        options.jobs_per_shard = per_shard;
    }
    // Open an existing catalog or initialize a fresh one in place.
    let mut catalog = match Catalog::open(&dir) {
        Ok(c) => c,
        Err(_) => Catalog::init(&dir).map_err(runtime)?,
    };
    let outcome = swim_scenario::generate_into_catalog(
        &scenario,
        flags.seed.unwrap_or(42),
        jobs,
        chunk,
        &mut catalog,
        &options,
    )
    .map_err(runtime)?;
    let stats = &outcome.stats;
    eprintln!(
        "generated scenario {} (v{}): {} jobs ({} retries, {} boosted) into {} shard{} at {}, generation {}",
        scenario.name,
        scenario.version,
        stats.generation.jobs,
        stats.retries,
        stats.boosted,
        outcome.ingest.shards,
        if outcome.ingest.shards == 1 { "" } else { "s" },
        catalog.dir().display(),
        catalog.generation(),
    );
    for (label, n) in &stats.per_tenant {
        eprintln!("  tenant {label}: {n} jobs");
    }
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), CliError> {
    let (positional, flags) = split_flags(
        args,
        &["--scenarios", "--jobs", "--seed", "--out", "--format"],
    )
    .map_err(CliError::Usage)?;
    if !positional.is_empty() {
        return Err(CliError::Usage(format!(
            "compare takes no positional arguments, got {positional:?}"
        )));
    }
    let scenarios = match &flags.scenarios {
        Some(list) => list
            .split(',')
            .map(|name| presets::find(name.trim()).map_err(runtime))
            .collect::<Result<Vec<_>, _>>()?,
        None => presets::presets(),
    };
    let mut options = StudyOptions {
        seed: flags.seed.unwrap_or(42),
        jobs_per_scenario: flags.jobs.unwrap_or(2_000),
        ..Default::default()
    };
    options.threads = env_usize("SWIM_SCENARIO_THREADS")?;
    let report = swim_scenario::compare(&scenarios, &options).map_err(runtime)?;
    let rendered = match flags.format.as_deref().unwrap_or("md") {
        "md" | "markdown" => swim_obs::markdown::render_report(&report),
        "html" => swim_obs::html::render_report(&report),
        other => {
            return Err(CliError::Usage(format!(
                "--format must be md or html, got {other:?}"
            )))
        }
    };
    match flags.out {
        Some(path) => {
            std::fs::write(&path, &rendered).map_err(runtime)?;
            eprintln!(
                "wrote cross-scenario study over {} scenario(s) to {path}",
                scenarios.len()
            );
        }
        None => print!("{rendered}"),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return CliError::Usage("a subcommand is required".into()).exit();
    };
    // SWIM_OBS enables instrumentation (generation spans and counters).
    swim_obs::init_from_env();
    let rest = &args[1..];
    let result = match command.as_str() {
        "list" => cmd_list(rest),
        "describe" => cmd_describe(rest),
        "generate" => cmd_generate(rest),
        "compare" => cmd_compare(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => return CliError::Usage(format!("unknown subcommand {other}")).exit(),
    };
    let snap = swim_obs::snapshot();
    if let Err(e) = swim_obs::jsonl::append_env(&snap) {
        eprintln!("warning: SWIM_OBS_JSONL: {e}");
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => err.exit(),
    }
}
