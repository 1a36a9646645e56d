//! `swim-catalog`: manage and query sharded trace-dataset catalogs.
//!
//! ```text
//! swim-catalog init DIR
//! swim-catalog ingest DIR TRACE... [--machines N] [--jobs-per-shard N]
//!                                  [--jobs-per-chunk N]
//! swim-catalog stats DIR [--metrics]
//! swim-catalog compact DIR [--jobs-per-shard N] [--jobs-per-chunk N] [--vacuum]
//! swim-catalog verify DIR
//! swim-catalog query DIR --select AGGS [--where PRED] [--group-by EXPRS]
//!                        [--order-by N] [--desc] [--limit N]
//!                        [--format table|md|json] [--serial]
//!                        [--explain | --profile]
//! ```
//!
//! `ingest` accepts `.csv` (labelled by file stem, sized by
//! `--machines`), `.swim`/`.store` (streamed chunk by chunk), and
//! JSON-lines, and re-shards every input, so each `.swim` chunk is
//! checked against its checksums before it is published. `query` is
//! federated: shards are pruned by manifest-level zone maps before any
//! file is opened, then by per-chunk zone maps. Tables go to stdout,
//! pruning summaries to stderr.
//!
//! `query --explain` prints shard- and chunk-level zone-map verdicts
//! without executing; `query --profile` executes with `swim-obs`
//! instrumentation forced on and appends the metrics. `stats --metrics`
//! adds decoded-column cache counters (lifetime hits, misses, of those
//! bypassed, evictions — they survive `compact`).
//!
//! `verify` decodes every chunk of every shard, which checks every block
//! against its checksum (opening a shard checks only its header and
//! footer), prints `FILE: ok` or `FILE: error: …` per shard, and exits 1
//! if any shard failed.

use std::process::ExitCode;
use swim_catalog::{Catalog, CatalogOptions};
use swim_query::{cli, Session};
use swim_store::StoreOptions;

const USAGE: &str = "usage:\n\
 swim-catalog init DIR\n\
 swim-catalog ingest DIR TRACE... [--machines N] [--jobs-per-shard N] \
 [--jobs-per-chunk N]\n\
 swim-catalog stats DIR [--metrics]\n\
 swim-catalog compact DIR [--jobs-per-shard N] [--jobs-per-chunk N] [--vacuum]\n\
 swim-catalog verify DIR\n\
 swim-catalog query DIR --select AGGS [--where PRED] [--group-by EXPRS] \
 [--order-by N] [--desc] [--limit N] [--format table|md|json] [--serial] \
 [--explain | --profile]\n\
 trace formats by extension: .csv (needs --machines), .swim/.store \
 (streamed), anything else JSON-lines";

/// CLI failures carry their exit class: malformed invocations (bad
/// flags, wrong arity, unparsable queries) are usage errors and exit 2
/// with the usage text; failures of well-formed commands (missing
/// catalog, I/O, corrupt store, failed execution) are runtime errors
/// and exit 1 without it. Both start stderr with `error: …`.
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

/// Shorthand for `map_err` on catalog/store/query operations.
fn runtime(e: impl std::fmt::Display) -> CliError {
    CliError::Runtime(e.to_string())
}

struct OptionFlags {
    machines: u32,
    options: CatalogOptions,
    vacuum: bool,
    metrics: bool,
}

/// Split option flags out of an argument stream; everything else
/// (subcommand positionals) is returned in order. Each subcommand
/// passes the flags it actually honours — anything else (misplaced or
/// unknown) is an error, never silently ignored.
fn split_flags(
    args: &[String],
    allowed: &[&'static str],
) -> Result<(Vec<String>, OptionFlags), String> {
    let mut flags = OptionFlags {
        machines: 100,
        options: CatalogOptions::default(),
        vacuum: false,
        metrics: false,
    };
    let mut positional = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut next = |flag: &str| {
            iter.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        let parse_u32 = |flag: &str, value: &str| -> Result<u32, String> {
            value
                .parse()
                .map_err(|_| format!("{flag} requires an integer, got {value:?}"))
        };
        if arg.starts_with('-') && !allowed.contains(&arg.as_str()) {
            return Err(format!("{arg} does not apply to this subcommand"));
        }
        match arg.as_str() {
            "--machines" => flags.machines = parse_u32("--machines", next("--machines")?)?,
            "--jobs-per-shard" => {
                flags.options.jobs_per_shard =
                    parse_u32("--jobs-per-shard", next("--jobs-per-shard")?)?
            }
            "--jobs-per-chunk" => {
                flags.options.store = StoreOptions {
                    jobs_per_chunk: parse_u32("--jobs-per-chunk", next("--jobs-per-chunk")?)?,
                }
            }
            "--vacuum" => flags.vacuum = true,
            "--metrics" => flags.metrics = true,
            other => positional.push(other.to_owned()),
        }
    }
    Ok((positional, flags))
}

fn cmd_init(args: &[String]) -> Result<(), CliError> {
    let (positional, _) = split_flags(args, &[]).map_err(CliError::Usage)?;
    let [dir] = positional.as_slice() else {
        return Err(CliError::Usage("init takes exactly one directory".into()));
    };
    let catalog = Catalog::init(dir).map_err(runtime)?;
    eprintln!(
        "initialized empty catalog at {} (generation {})",
        catalog.dir().display(),
        catalog.generation()
    );
    Ok(())
}

fn cmd_ingest(args: &[String]) -> Result<(), CliError> {
    let (positional, flags) = split_flags(
        args,
        &["--machines", "--jobs-per-shard", "--jobs-per-chunk"],
    )
    .map_err(CliError::Usage)?;
    let [dir, traces @ ..] = positional.as_slice() else {
        return Err(CliError::Usage(
            "ingest takes a directory and at least one trace".into(),
        ));
    };
    if traces.is_empty() {
        return Err(CliError::Usage(
            "ingest takes a directory and at least one trace".into(),
        ));
    }
    let mut catalog = Catalog::open(dir).map_err(runtime)?;
    for path in traces {
        let stats = catalog
            .ingest_path(path, flags.machines, &flags.options)
            .map_err(runtime)?;
        eprintln!(
            "ingested {path}: {} jobs into {} shard{} ({} bytes), generation {}",
            stats.jobs,
            stats.shards,
            if stats.shards == 1 { "" } else { "s" },
            stats.bytes,
            catalog.generation()
        );
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), CliError> {
    let (positional, flags) = split_flags(args, &["--metrics"]).map_err(CliError::Usage)?;
    let [dir] = positional.as_slice() else {
        return Err(CliError::Usage("stats takes exactly one directory".into()));
    };
    let catalog = Catalog::open(dir).map_err(runtime)?;
    let summary = catalog.summary();
    println!(
        "catalog generation {}: {} shard{}, {} jobs, workload {}, {} machines, length {}",
        catalog.generation(),
        catalog.shard_count(),
        if catalog.shard_count() == 1 { "" } else { "s" },
        summary.jobs,
        summary.workload,
        summary.machines,
        summary.length,
    );
    for entry in catalog.shards() {
        let (min, max) = entry.submit_window();
        println!(
            "  {}  v{}  gen {}  {} jobs  {} bytes  submit [{min}, {max}]  {}",
            entry.file,
            entry.store_version,
            entry.created_gen,
            entry.jobs,
            entry.bytes,
            entry.kind_label,
        );
    }
    if flags.metrics {
        // Lifetime counters for this catalog handle: they survive
        // clear() and compact(), so a long-lived process sees cache
        // pressure across generations.
        let cache = catalog.cache_stats();
        println!(
            "column cache: capacity {} shard{}, {} entr{}, {} hit{}, {} miss{}, {} bypassed, {} eviction{}",
            cache.capacity,
            if cache.capacity == 1 { "" } else { "s" },
            cache.entries,
            if cache.entries == 1 { "y" } else { "ies" },
            cache.hits,
            if cache.hits == 1 { "" } else { "s" },
            cache.misses,
            if cache.misses == 1 { "" } else { "es" },
            cache.bypassed,
            cache.evictions,
            if cache.evictions == 1 { "" } else { "s" },
        );
        let snap = swim_obs::snapshot();
        if !snap.counters.is_empty() {
            println!(
                "swim-obs counters (SWIM_OBS={:?}):",
                std::env::var("SWIM_OBS").unwrap_or_default()
            );
            for (name, value) in &snap.counters {
                println!("  {name}: {value}");
            }
        }
    }
    Ok(())
}

fn cmd_compact(args: &[String]) -> Result<(), CliError> {
    let (positional, flags) =
        split_flags(args, &["--jobs-per-shard", "--jobs-per-chunk", "--vacuum"])
            .map_err(CliError::Usage)?;
    let [dir] = positional.as_slice() else {
        return Err(CliError::Usage(
            "compact takes exactly one directory".into(),
        ));
    };
    let mut catalog = Catalog::open(dir).map_err(runtime)?;
    let stats = catalog.compact(&flags.options).map_err(runtime)?;
    if stats.rewritten == 0 {
        eprintln!("nothing to compact (generation {})", catalog.generation());
    } else {
        eprintln!(
            "compacted {} shard{} into {} ({} jobs), generation {}",
            stats.rewritten,
            if stats.rewritten == 1 { "" } else { "s" },
            stats.created,
            stats.jobs,
            catalog.generation()
        );
    }
    if flags.vacuum {
        let removed = catalog.vacuum().map_err(runtime)?;
        eprintln!("vacuum removed {removed} unreferenced file(s)");
    }
    Ok(())
}

fn cmd_verify(args: &[String]) -> Result<(), CliError> {
    let (positional, _) = split_flags(args, &[]).map_err(CliError::Usage)?;
    let [dir] = positional.as_slice() else {
        return Err(CliError::Usage("verify takes exactly one directory".into()));
    };
    let catalog = Catalog::open(dir).map_err(runtime)?;
    // `ChunkReader::jobs` verifies every block of the chunk it decodes.
    let verify = |idx: usize| -> Result<(u64, usize), String> {
        let store = catalog.open_shard(idx).map_err(|e| e.to_string())?;
        let mut reader = store.reader().map_err(|e| e.to_string())?;
        for chunk in 0..store.chunk_count() {
            reader.jobs(chunk).map_err(|e| e.to_string())?;
        }
        Ok((store.job_count(), store.chunk_count()))
    };
    let mut failed = 0;
    for (idx, entry) in catalog.shards().iter().enumerate() {
        match verify(idx) {
            Ok((jobs, chunks)) => println!(
                "{}: ok ({jobs} jobs in {chunks} chunk{})",
                entry.file,
                if chunks == 1 { "" } else { "s" }
            ),
            Err(e) => {
                failed += 1;
                println!("{}: error: {e}", entry.file);
            }
        }
    }
    if failed > 0 {
        return Err(CliError::Runtime(format!(
            "{failed} of {} shards failed verification",
            catalog.shard_count()
        )));
    }
    Ok(())
}

/// Parse the query subcommand's arguments: one catalog directory plus
/// the flag set shared with `swim-query` ([`swim_query::cli`]).
fn parse_query_args(args: &[String]) -> Result<(String, cli::QueryFlags), String> {
    let mut dir = String::new();
    let mut flags = cli::QueryFlags::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut next = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        if flags.accept(arg, || next(arg))? {
            continue;
        }
        if arg.starts_with('-') {
            return Err(format!("unknown flag {arg}"));
        }
        if dir.is_empty() {
            dir = arg.to_owned();
        } else {
            return Err(format!("unexpected argument {arg}"));
        }
    }
    if dir.is_empty() {
        return Err("query takes a catalog directory".into());
    }
    Ok((dir, flags))
}

fn cmd_query(args: &[String]) -> Result<(), CliError> {
    let (dir, flags) = parse_query_args(args).map_err(CliError::Usage)?;
    flags.validate().map_err(CliError::Usage)?;
    let query = flags.build_query().map_err(CliError::Usage)?;
    // The shared Session engine — the same execution path swim-query
    // and swim-serve use, so all three stay byte-identical.
    let session = Session::open_catalog(&dir).map_err(runtime)?;
    if flags.explain {
        let explain = session.explain(&query).map_err(runtime)?;
        let title = format!("explain: {dir}");
        print!("{}", cli::render_explain(&explain, flags.format, &title));
        return Ok(());
    }
    if flags.profile {
        // Start counting from zero so the printed metrics cover exactly
        // this query (including shard pruning and cache traffic).
        swim_obs::set_enabled(swim_obs::ALL);
        swim_obs::reset();
    }
    let out = session.execute(&query, flags.serial).map_err(runtime)?;
    let title = format!("swim-catalog: {dir}");
    print!("{}", cli::render_for(&out.output, flags.format, &title));
    eprintln!("{}", out.summary);
    if flags.profile {
        let sep = match flags.format {
            cli::OutputFormat::Json => "",
            _ => "\n",
        };
        print!(
            "{sep}{}",
            cli::render_profile(&swim_obs::snapshot(), flags.format)
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return CliError::Usage("a subcommand is required".into()).exit();
    };
    // SWIM_OBS enables instrumentation for any subcommand (ingest and
    // compact record spans too); `query --profile` forces it on itself.
    swim_obs::init_from_env();
    let rest = &args[1..];
    let result = match command.as_str() {
        "init" => cmd_init(rest),
        "ingest" => cmd_ingest(rest),
        "stats" => cmd_stats(rest),
        "compact" => cmd_compact(rest),
        "verify" => cmd_verify(rest),
        "query" => cmd_query(rest),
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
