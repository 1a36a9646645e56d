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
use swim_obs::cli::{self as run, Args, Cli, Command, Error, Flag};
use swim_query::{cli, Session};
use swim_store::StoreOptions;

const MACHINES: Flag = Flag::value("--machines", "N", "CSV cluster size (default 100)");
const JOBS_PER_SHARD: Flag = Flag::value("--jobs-per-shard", "N", "jobs per shard file");
const JOBS_PER_CHUNK: Flag = Flag::value("--jobs-per-chunk", "N", "jobs per store chunk");

const CLI: Cli = Cli {
    name: "swim-catalog",
    commands: &[
        Command {
            name: "init",
            args: "DIR",
            flags: &[],
        },
        Command {
            name: "ingest",
            args: "DIR TRACE...",
            flags: &[&[MACHINES, JOBS_PER_SHARD, JOBS_PER_CHUNK]],
        },
        Command {
            name: "stats",
            args: "DIR",
            flags: &[&[Flag::switch("--metrics", "add column-cache counters")]],
        },
        Command {
            name: "compact",
            args: "DIR",
            flags: &[&[
                JOBS_PER_SHARD,
                JOBS_PER_CHUNK,
                Flag::switch("--vacuum", "then remove unreferenced files"),
            ]],
        },
        Command {
            name: "verify",
            args: "DIR",
            flags: &[],
        },
        Command {
            name: "query",
            args: "DIR",
            flags: &[cli::FLAGS],
        },
        Command {
            name: "help",
            args: "",
            flags: &[],
        },
    ],
    notes: cli::CATALOG_NOTES,
};

fn main() -> ExitCode {
    run::main(&CLI, |args| match args.command {
        "init" => cmd_init(&args),
        "ingest" => cmd_ingest(&args),
        "stats" => cmd_stats(&args),
        "compact" => cmd_compact(&args),
        "verify" => cmd_verify(&args),
        "query" => cmd_query(&args),
        _ => run::print(&run::usage(&CLI)).map(drop),
    })
}

/// The one directory a subcommand other than `ingest` takes.
fn one_dir(args: &Args) -> Result<&str, Error> {
    match args.positional.as_slice() {
        [dir] => Ok(dir),
        _ => Err(Error::Usage(format!(
            "{} takes exactly one directory",
            args.command
        ))),
    }
}

/// The `--jobs-per-shard` / `--jobs-per-chunk` layout options.
fn options(args: &Args) -> Result<CatalogOptions, Error> {
    let mut options = CatalogOptions::default();
    if let Some(n) = args.parse("--jobs-per-shard", "an integer")? {
        options.jobs_per_shard = n;
    }
    if let Some(jobs_per_chunk) = args.parse("--jobs-per-chunk", "an integer")? {
        options.store = StoreOptions { jobs_per_chunk };
    }
    Ok(options)
}

fn cmd_init(args: &Args) -> Result<(), Error> {
    let catalog = Catalog::init(one_dir(args)?)?;
    eprintln!(
        "initialized empty catalog at {} (generation {})",
        catalog.dir().display(),
        catalog.generation()
    );
    Ok(())
}

fn cmd_ingest(args: &Args) -> Result<(), Error> {
    let [dir, traces @ ..] = args.positional.as_slice() else {
        return Err(Error::Usage(
            "ingest takes a directory and at least one trace".into(),
        ));
    };
    if traces.is_empty() {
        return Err(Error::Usage(
            "ingest takes a directory and at least one trace".into(),
        ));
    }
    let machines = args.parse("--machines", "an integer")?.unwrap_or(100);
    let options = options(args)?;
    let mut catalog = Catalog::open(dir)?;
    for path in traces {
        let stats = catalog.ingest_path(path, machines, &options)?;
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

fn cmd_stats(args: &Args) -> Result<(), Error> {
    let catalog = Catalog::open(one_dir(args)?)?;
    let summary = catalog.summary();
    let mut out = format!(
        "catalog generation {}: {} shard{}, {} jobs, workload {}, {} machines, length {}\n",
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
        out.push_str(&format!(
            "  {}  v{}  gen {}  {} jobs  {} bytes  submit [{min}, {max}]  {}\n",
            entry.file,
            entry.store_version,
            entry.created_gen,
            entry.jobs,
            entry.bytes,
            entry.kind_label,
        ));
    }
    if args.has("--metrics") {
        // Lifetime counters for this catalog handle: they survive
        // clear() and compact(), so a long-lived process sees cache
        // pressure across generations.
        let cache = catalog.cache_stats();
        out.push_str(&format!(
            "column cache: capacity {} shard{}, {} entr{}, {} hit{}, {} miss{}, {} bypassed, {} eviction{}\n",
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
        ));
        let snap = swim_obs::snapshot();
        if !snap.counters.is_empty() {
            out.push_str(&format!(
                "swim-obs counters (SWIM_OBS={:?}):\n",
                std::env::var("SWIM_OBS").unwrap_or_default()
            ));
            for (name, value) in &snap.counters {
                out.push_str(&format!("  {name}: {value}\n"));
            }
        }
    }
    run::print(&out)?;
    Ok(())
}

fn cmd_compact(args: &Args) -> Result<(), Error> {
    let mut catalog = Catalog::open(one_dir(args)?)?;
    let stats = catalog.compact(&options(args)?)?;
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
    if args.has("--vacuum") {
        let removed = catalog.vacuum()?;
        eprintln!("vacuum removed {removed} unreferenced file(s)");
    }
    Ok(())
}

fn cmd_verify(args: &Args) -> Result<(), Error> {
    let catalog = Catalog::open(one_dir(args)?)?;
    // `ChunkReader::jobs` verifies every block of the chunk it decodes.
    let verify = |idx: usize| -> Result<(u64, usize), String> {
        let store = catalog.open_shard(idx).map_err(|e| e.to_string())?;
        let mut reader = store.reader().map_err(|e| e.to_string())?;
        for chunk in 0..store.chunk_count() {
            reader.jobs(chunk).map_err(|e| e.to_string())?;
        }
        Ok((store.job_count(), store.chunk_count()))
    };
    // Every shard is verified, and the exit code says how it went, even
    // once the reader of the per-shard lines has gone away.
    let mut failed = 0;
    for (idx, entry) in catalog.shards().iter().enumerate() {
        let line = match verify(idx) {
            Ok((jobs, chunks)) => format!(
                "{}: ok ({jobs} jobs in {chunks} chunk{})\n",
                entry.file,
                if chunks == 1 { "" } else { "s" }
            ),
            Err(e) => {
                failed += 1;
                format!("{}: error: {e}\n", entry.file)
            }
        };
        run::print(&line)?;
    }
    if failed > 0 {
        return Err(Error::Runtime(format!(
            "{failed} of {} shards failed verification",
            catalog.shard_count()
        )));
    }
    Ok(())
}

fn cmd_query(args: &Args) -> Result<(), Error> {
    let dir = match args.positional.as_slice() {
        [dir] => dir,
        [] => return Err(Error::Usage("query takes a catalog directory".into())),
        [_, extra, ..] => return Err(Error::Usage(format!("unexpected argument {extra}"))),
    };
    let flags = cli::QueryFlags::from_args(args).map_err(Error::Usage)?;
    let query = flags.build_query().map_err(Error::Usage)?;
    // The shared Session engine — the same execution path swim-query
    // and swim-serve use, so all three stay byte-identical.
    let session = Session::open_catalog(dir)?;
    if flags.explain {
        let explain = session.explain(&query)?;
        let title = format!("explain: {dir}");
        run::print(&cli::render_explain(&explain, flags.format, &title))?;
        return Ok(());
    }
    if flags.profile {
        // Start counting from zero so the printed metrics cover exactly
        // this query (including shard pruning and cache traffic).
        swim_obs::set_enabled(swim_obs::ALL);
        swim_obs::reset();
    }
    let out = session.execute(&query, flags.serial)?;
    let title = format!("swim-catalog: {dir}");
    let mut body = cli::render_for(&out.output, flags.format, &title);
    if flags.profile {
        if flags.format != cli::OutputFormat::Json {
            body.push('\n');
        }
        body.push_str(&cli::render_profile(&swim_obs::snapshot(), flags.format));
    }
    run::print(&body)?;
    eprintln!("{}", out.summary);
    Ok(())
}
