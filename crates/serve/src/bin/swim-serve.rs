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
use swim_obs::cli::{self as run, Args, Cli, Command, Error, Flag};
use swim_serve::{serve, ServeOptions};

const CLI: Cli = Cli {
    name: "swim-serve",
    commands: &[Command {
        name: "",
        args: "",
        flags: &[&[
            Flag::value("--catalog", "DIR", "the catalog to serve (required)"),
            Flag::value("--addr", "HOST", "bind address (default 127.0.0.1)"),
            Flag::value("--port", "N", "port; 0 (default) picks one"),
            Flag::value("--workers", "N", "worker threads (default 4)"),
            Flag::value("--queue-depth", "N", "connections admitted (default 64)"),
            Flag::value("--cache", "N", "result-cache entries, 0 disables"),
            Flag::switch("--admin", "allow ingest/compact/vacuum"),
            Flag::switch("--print-port", "write the bound port to stdout"),
            Flag::value("--access-log", "FILE", "append one JSON line per request"),
        ]],
    }],
    notes: "serves swim-query requests over a line protocol until a shutdown request arrives\n\
            defaults come from SWIM_SERVE_WORKERS, SWIM_SERVE_QUEUE_DEPTH, SWIM_SERVE_CACHE \
            and SWIM_SERVE_ACCESS_LOG; flags override them\n",
};

/// An option: the flag, else the environment default `env`, else
/// `default`. Either one unparsable is a usage error (silently
/// ignoring it would hide a misconfigured deployment).
fn option(args: &Args, flag: &str, env: &str, default: usize) -> Result<usize, Error> {
    if let Some(n) = args.parse(flag, "an unsigned integer")? {
        return Ok(n);
    }
    match std::env::var(env) {
        Ok(value) => value
            .trim()
            .parse()
            .map_err(|_| Error::Usage(format!("{env} must be an unsigned integer, got {value:?}"))),
        Err(_) => Ok(default),
    }
}

fn main() -> ExitCode {
    run::main(&CLI, body)
}

fn body(args: Args) -> Result<(), Error> {
    let defaults = ServeOptions::default();
    let options = ServeOptions {
        workers: option(&args, "--workers", "SWIM_SERVE_WORKERS", defaults.workers)?,
        queue_depth: option(
            &args,
            "--queue-depth",
            "SWIM_SERVE_QUEUE_DEPTH",
            defaults.queue_depth,
        )?,
        cache_capacity: option(
            &args,
            "--cache",
            "SWIM_SERVE_CACHE",
            defaults.cache_capacity,
        )?,
        access_log: args
            .value("--access-log")
            .map(std::ffi::OsString::from)
            .or_else(|| std::env::var_os("SWIM_SERVE_ACCESS_LOG"))
            .map(std::path::PathBuf::from),
        addr: args
            .value("--addr")
            .map_or(defaults.addr.clone(), str::to_owned),
        port: args
            .parse("--port", "a port number")?
            .unwrap_or(defaults.port),
        allow_admin: args.has("--admin"),
        ..defaults
    };
    let catalog = args
        .value("--catalog")
        .ok_or_else(|| Error::Usage("--catalog is required (swim-serve --catalog DIR)".into()))?;
    if options.workers == 0 {
        return Err(Error::Usage("--workers must be at least 1".into()));
    }
    if options.queue_depth == 0 {
        return Err(Error::Usage("--queue-depth must be at least 1".into()));
    }
    let handle = serve(catalog, options.clone())?;
    eprintln!(
        "listening on {} (catalog {}, {} workers, queue depth {}, cache {})",
        handle.addr(),
        catalog,
        options.workers,
        options.queue_depth,
        options.cache_capacity,
    );
    if args.has("--print-port") {
        run::print(&format!("{}\n", handle.port()))?;
    }
    handle.join();
    eprintln!("shutdown complete");
    Ok(())
}
