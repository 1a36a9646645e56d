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
//! Environment: `SWIM_SCENARIO_THREADS` pins the compare battery's
//! worker count (output is identical either way).

use std::process::ExitCode;
use swim_catalog::{Catalog, CatalogOptions};
use swim_obs::cli::{self as run, Args, Cli, Command, Error, Flag};
use swim_scenario::{presets, StudyOptions};

const JOBS: Flag = Flag::value("--jobs", "N", "job budget per scenario");
const SEED: Flag = Flag::value("--seed", "S", "generator seed (default 42)");

const CLI: Cli = Cli {
    name: "swim-scenario",
    commands: &[
        Command {
            name: "list",
            args: "",
            flags: &[],
        },
        Command {
            name: "describe",
            args: "NAME",
            flags: &[],
        },
        Command {
            name: "generate",
            args: "",
            flags: &[&[
                Flag::value("--scenario", "NAME", "the preset to generate (required)"),
                JOBS,
                Flag::value("--out", "CATALOG", "catalog directory (required)"),
                SEED,
                Flag::value("--chunk", "C", "jobs per generated chunk (default 8192)"),
                Flag::value("--jobs-per-shard", "N", "jobs per shard file"),
            ]],
        },
        Command {
            name: "compare",
            args: "",
            flags: &[&[
                Flag::value("--scenarios", "A,B,...", "presets (default: every one)"),
                JOBS,
                SEED,
                Flag::value("--out", "FILE", "write the study to FILE"),
                Flag::value("--format", "md|html", "output format (default md)"),
            ]],
        },
        Command {
            name: "help",
            args: "",
            flags: &[],
        },
    ],
    notes: "scenarios are named presets: see `swim-scenario list`\n\
            SWIM_SCENARIO_THREADS pins the compare battery's worker count\n",
};

fn main() -> ExitCode {
    run::main(&CLI, |args| match args.command {
        "list" => cmd_list(),
        "describe" => cmd_describe(&args),
        "generate" => cmd_generate(&args),
        "compare" => cmd_compare(&args),
        _ => run::print(&run::usage(&CLI)).map(drop),
    })
}

/// Read a positive-integer environment override; unset is `None`,
/// unparsable is an error (misconfiguration should be loud, not
/// silently defaulted).
fn env_usize(name: &str) -> Result<Option<usize>, Error> {
    match std::env::var(name) {
        Ok(v) => {
            let n: usize = v
                .parse()
                .map_err(|_| format!("{name} must be an integer, got {v:?}"))?;
            if n == 0 {
                return Err(Error::Runtime(format!("{name} must be >= 1")));
            }
            Ok(Some(n))
        }
        Err(_) => Ok(None),
    }
}

fn cmd_list() -> Result<(), Error> {
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
    run::print(&table.render())?;
    Ok(())
}

fn cmd_describe(args: &Args) -> Result<(), Error> {
    let [name] = args.positional.as_slice() else {
        return Err(Error::Usage(
            "describe takes exactly one scenario name".into(),
        ));
    };
    let scenario = presets::find(name)?;
    run::print(&scenario.describe())?;
    Ok(())
}

fn cmd_generate(args: &Args) -> Result<(), Error> {
    let required = |flag: &str, what: &str| {
        args.value(flag)
            .ok_or_else(|| Error::Usage(format!("generate requires {flag} {what}")))
    };
    let name = required("--scenario", "NAME")?;
    let jobs = args
        .parse("--jobs", "an integer")?
        .ok_or_else(|| Error::Usage("generate requires --jobs N".into()))?;
    let dir = required("--out", "CATALOG")?;
    let chunk = args
        .parse("--chunk", "an integer")?
        .map_or(swim_scenario::DEFAULT_CHUNK, |c: usize| c.max(1));
    let per_shard = args.parse("--jobs-per-shard", "an integer")?;
    let seed = args.parse("--seed", "an integer")?.unwrap_or(42);
    let scenario = presets::find(name)?;
    let mut options = CatalogOptions::default();
    if let Some(per_shard) = per_shard {
        options.jobs_per_shard = per_shard;
    }
    // Open an existing catalog or initialize a fresh one in place.
    let mut catalog = match Catalog::open(dir) {
        Ok(c) => c,
        Err(_) => Catalog::init(dir)?,
    };
    let outcome =
        swim_scenario::generate_into_catalog(&scenario, seed, jobs, chunk, &mut catalog, &options)?;
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

fn cmd_compare(args: &Args) -> Result<(), Error> {
    let html = match args.value("--format").unwrap_or("md") {
        "md" | "markdown" => false,
        "html" => true,
        other => {
            return Err(Error::Usage(format!(
                "--format must be md or html, got {other:?}"
            )))
        }
    };
    let mut options = StudyOptions {
        seed: args.parse("--seed", "an integer")?.unwrap_or(42),
        jobs_per_scenario: args.parse("--jobs", "an integer")?.unwrap_or(2_000),
        ..Default::default()
    };
    let scenarios = match args.value("--scenarios") {
        Some(list) => list
            .split(',')
            .map(|name| presets::find(name.trim()))
            .collect::<Result<Vec<_>, _>>()?,
        None => presets::presets(),
    };
    options.threads = env_usize("SWIM_SCENARIO_THREADS")?;
    let report = swim_scenario::compare(&scenarios, &options)?;
    let rendered = if html {
        swim_obs::html::render_report(&report)
    } else {
        swim_obs::markdown::render_report(&report)
    };
    match args.value("--out") {
        Some(path) => {
            std::fs::write(path, &rendered)?;
            eprintln!(
                "wrote cross-scenario study over {} scenario(s) to {path}",
                scenarios.len()
            );
        }
        None => {
            run::print(&rendered)?;
        }
    }
    Ok(())
}
