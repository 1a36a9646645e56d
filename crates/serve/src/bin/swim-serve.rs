//! `swim-serve`: a resident TCP query server over a `swim-catalog`
//! dataset directory.
//!
//! ```text
//! swim-serve --catalog DIR [--addr HOST] [--port N] [--workers N]
//!            [--queue-depth N] [--cache N] [--admin] [--print-port]
//!            [--access-log FILE]
//! ```
//!
//! The server binds (port 0 picks an ephemeral port; `--print-port`
//! writes the chosen port to stdout for scripts), then answers
//! line-protocol requests (`query …`, `ping`, `stats`, `metrics`, and
//! — with `--admin` — `ingest`/`compact`/`vacuum`) until a `shutdown`
//! request arrives. Defaults for the pool come from the environment:
//! `SWIM_SERVE_WORKERS`, `SWIM_SERVE_QUEUE_DEPTH`, and
//! `SWIM_SERVE_CACHE` (flags override); `SWIM_SERVE_ACCESS_LOG` names
//! a JSONL access-log file, same as `--access-log`.
//!
//! Exit discipline matches the other binaries: usage errors exit 2 with
//! the usage text, runtime errors (missing catalog, port in use) exit 1;
//! both start stderr with `error: …`.

use std::process::ExitCode;
use swim_serve::{serve, ServeOptions};

const USAGE: &str = "usage: swim-serve --catalog DIR [--addr HOST] [--port N] [--workers N] \
 [--queue-depth N] [--cache N] [--admin] [--print-port] [--access-log FILE]\n\
 serves swim-query requests over a line protocol until a shutdown request arrives\n\
 --port 0 (the default) picks an ephemeral port; --print-port writes it to stdout\n\
 --workers N       worker threads (default SWIM_SERVE_WORKERS or 4)\n\
 --queue-depth N   max admitted connections before `overloaded` \
 (default SWIM_SERVE_QUEUE_DEPTH or 64)\n\
 --cache N         result-cache entries, 0 disables (default SWIM_SERVE_CACHE or 256)\n\
 --admin           allow ingest/compact/vacuum over the wire\n\
 --access-log FILE append one JSON line per request \
 (default SWIM_SERVE_ACCESS_LOG; unset disables)";

/// Usage errors exit 2 with the usage text; runtime errors exit 1
/// without it. Both start stderr with `error: …` (the PR-7 convention).
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

/// An environment default for a numeric option: unset means `default`,
/// set-but-unparsable is a usage error (silently ignoring it would hide
/// a misconfigured deployment).
fn env_usize(name: &str, default: usize) -> Result<usize, String> {
    match std::env::var(name) {
        Ok(value) => value
            .trim()
            .parse()
            .map_err(|_| format!("{name} must be an unsigned integer, got {value:?}")),
        Err(_) => Ok(default),
    }
}

struct Args {
    catalog: String,
    options: ServeOptions,
    print_port: bool,
}

/// `Ok(None)` means `--help` was requested.
fn parse_args() -> Result<Option<Args>, String> {
    let defaults = ServeOptions::default();
    let mut options = ServeOptions {
        workers: env_usize("SWIM_SERVE_WORKERS", defaults.workers)?,
        queue_depth: env_usize("SWIM_SERVE_QUEUE_DEPTH", defaults.queue_depth)?,
        cache_capacity: env_usize("SWIM_SERVE_CACHE", defaults.cache_capacity)?,
        access_log: std::env::var_os("SWIM_SERVE_ACCESS_LOG").map(std::path::PathBuf::from),
        ..defaults
    };
    let mut catalog = String::new();
    let mut print_port = false;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut next = |flag: &str| {
            iter.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        let parse_num = |flag: &str, value: String| {
            value
                .parse::<usize>()
                .map_err(|_| format!("{flag} requires an unsigned integer, got {value:?}"))
        };
        match arg.as_str() {
            "--catalog" => catalog = next("--catalog")?,
            "--addr" => options.addr = next("--addr")?,
            "--port" => {
                let value = next("--port")?;
                options.port = value
                    .parse()
                    .map_err(|_| format!("--port requires a port number, got {value:?}"))?;
            }
            "--workers" => options.workers = parse_num("--workers", next("--workers")?)?,
            "--queue-depth" => {
                options.queue_depth = parse_num("--queue-depth", next("--queue-depth")?)?;
            }
            "--cache" => options.cache_capacity = parse_num("--cache", next("--cache")?)?,
            "--access-log" => {
                options.access_log = Some(std::path::PathBuf::from(next("--access-log")?));
            }
            "--admin" => options.allow_admin = true,
            "--print-port" => print_port = true,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if catalog.is_empty() {
        return Err("--catalog is required (swim-serve --catalog DIR)".into());
    }
    if options.workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    if options.queue_depth == 0 {
        return Err("--queue-depth must be at least 1".into());
    }
    Ok(Some(Args {
        catalog,
        options,
        print_port,
    }))
}

fn run(args: Args) -> Result<(), CliError> {
    let handle =
        serve(&args.catalog, args.options.clone()).map_err(|e| CliError::Runtime(e.to_string()))?;
    eprintln!(
        "listening on {} (catalog {}, {} workers, queue depth {}, cache {})",
        handle.addr(),
        args.catalog,
        args.options.workers,
        args.options.queue_depth,
        args.options.cache_capacity,
    );
    if args.print_port {
        println!("{}", handle.port());
    }
    handle.join();
    eprintln!("shutdown complete");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Ok(Some(args)) => args,
        Err(msg) => return CliError::Usage(msg).exit(),
    };
    swim_obs::init_from_env();
    let result = run(args);
    let snap = swim_obs::snapshot();
    if let Err(e) = swim_obs::jsonl::append_env(&snap) {
        eprintln!("warning: SWIM_OBS_JSONL: {e}");
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => err.exit(),
    }
}
