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
//! request arrives.
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
            Flag::value("--cache", "N", "result-cache entries (default 256)"),
            Flag::switch("--admin", "allow ingest/compact/vacuum"),
            Flag::switch("--print-port", "write the bound port to stdout"),
            Flag::value("--access-log", "FILE", "append one JSON line per request"),
        ]],
    }],
    notes: "serves swim-query requests over a line protocol until a shutdown request arrives\n\
            --cache 0 disables the result cache\n",
};

fn main() -> ExitCode {
    run::main(&CLI, body)
}

fn body(args: Args) -> Result<(), Error> {
    let defaults = ServeOptions::default();
    let options = ServeOptions {
        workers: args
            .parse("--workers", "an unsigned integer")?
            .unwrap_or(defaults.workers),
        queue_depth: args
            .parse("--queue-depth", "an unsigned integer")?
            .unwrap_or(defaults.queue_depth),
        cache_capacity: args
            .parse("--cache", "an unsigned integer")?
            .unwrap_or(defaults.cache_capacity),
        access_log: args.value("--access-log").map(std::path::PathBuf::from),
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
