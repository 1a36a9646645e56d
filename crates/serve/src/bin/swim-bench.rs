//! `swim-bench`: ad-hoc load benchmarks (currently the `serve`
//! subcommand, a load generator for `swim-serve`).
//!
//! ```text
//! swim-bench serve (--catalog DIR | --addr HOST:PORT)
//!                  [--clients N] [--requests N] [--mask] [--shutdown]
//! ```
//!
//! With `--catalog` the generator spawns an in-process server on an
//! ephemeral port, drives it, and shuts it down; with `--addr` it
//! drives an already-running server (`--shutdown` sends a `shutdown`
//! request when done). The latency report prints p50/p95/p99 over every
//! request; `--mask` replaces the scheduling-dependent values so the
//! output is byte-stable for golden pinning.
//!
//! Exit discipline matches the other binaries: usage errors exit 2 with
//! the usage text, runtime errors exit 1, both with `error: …` first on
//! stderr.

use std::net::SocketAddr;
use std::process::ExitCode;

use swim_obs::cli::{self as run, Args, Cli, Command, Error, Flag};
use swim_serve::load::{self, LoadConfig};
use swim_serve::{serve, ServeOptions};

const CLI: Cli = Cli {
    name: "swim-bench",
    commands: &[Command {
        name: "serve",
        args: "",
        flags: &[&[
            Flag::value("--catalog", "DIR", "spawn an in-process server over DIR"),
            Flag::value("--addr", "HOST:PORT", "drive a running server instead"),
            Flag::value("--clients", "N", "concurrent connections (default 8)"),
            Flag::value("--requests", "N", "requests per client (default 20)"),
            Flag::switch("--mask", "mask latencies and cache hits"),
            Flag::switch("--shutdown", "send shutdown when the load ends"),
        ]],
    }],
    notes: "drives a mixed query load against swim-serve and reports latency percentiles\n",
};

/// The value of `flag` as a positive integer, else `default`.
fn positive(args: &Args, flag: &str, default: usize) -> Result<usize, Error> {
    match args.parse(flag, "a positive integer")? {
        Some(0) => Err(Error::Usage(format!(
            "{flag} requires a positive integer, got \"0\""
        ))),
        n => Ok(n.unwrap_or(default)),
    }
}

fn main() -> ExitCode {
    run::main(&CLI, body)
}

fn body(args: Args) -> Result<(), Error> {
    let clients = positive(&args, "--clients", 8)?;
    let requests = positive(&args, "--requests", 20)?;
    // In-process server when --catalog was given; its handle doubles as
    // the shutdown path.
    let (addr, handle) = match (args.value("--catalog"), args.value("--addr")) {
        (None, Some(addr)) => {
            let parsed: SocketAddr = addr
                .parse()
                .map_err(|_| Error::Usage(format!("--addr must be HOST:PORT, got {addr:?}")))?;
            (parsed, None)
        }
        (Some(catalog), None) => {
            let options = ServeOptions {
                // Admit the whole client fleet: this measures the
                // server, not the admission limiter.
                queue_depth: clients + 16,
                ..ServeOptions::default()
            };
            let handle = serve(catalog, options)?;
            (handle.addr(), Some(handle))
        }
        _ => {
            return Err(Error::Usage(
                "exactly one of --catalog or --addr is required".into(),
            ))
        }
    };
    let mut config = LoadConfig::new(addr, clients, requests);
    config.shutdown_after = args.has("--shutdown") && handle.is_none();
    let report = load::run_load(&config);
    run::print(&load::render(&report, args.has("--mask")))?;
    if let Some(handle) = handle {
        handle.shutdown_join();
    }
    if report.errors > 0 {
        return Err(Error::Runtime(format!(
            "{} of {} requests failed",
            report.errors, report.requests
        )));
    }
    Ok(())
}
