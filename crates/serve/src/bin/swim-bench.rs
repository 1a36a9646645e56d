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

use swim_serve::load::{self, LoadConfig};
use swim_serve::{serve, ServeOptions};

const USAGE: &str = "usage: swim-bench serve (--catalog DIR | --addr HOST:PORT) \
 [--clients N] [--requests N] [--mask] [--shutdown]\n\
 drives a mixed query load against swim-serve and reports latency percentiles\n\
 --catalog DIR   spawn an in-process server over DIR (ephemeral port)\n\
 --addr H:P      drive an already-running server instead\n\
 --clients N     concurrent client connections (default 8)\n\
 --requests N    requests per client (default 20)\n\
 --mask          mask latencies and cache hits (byte-stable output)\n\
 --shutdown      send a shutdown request when the load completes";

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

struct Args {
    catalog: String,
    addr: String,
    clients: usize,
    requests: usize,
    mask: bool,
    shutdown: bool,
}

/// `Ok(None)` means `--help` was requested.
fn parse_args() -> Result<Option<Args>, String> {
    let mut iter = std::env::args().skip(1);
    match iter.next().as_deref() {
        Some("serve") => {}
        Some("--help") | Some("-h") => return Ok(None),
        Some(other) => return Err(format!("unknown command {other} (expected serve)")),
        None => return Err("a command is required (swim-bench serve …)".to_owned()),
    }
    let mut args = Args {
        catalog: String::new(),
        addr: String::new(),
        clients: 8,
        requests: 20,
        mask: false,
        shutdown: false,
    };
    while let Some(arg) = iter.next() {
        let mut next = |flag: &str| {
            iter.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        let parse_num = |flag: &str, value: String| {
            value
                .parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("{flag} requires a positive integer, got {value:?}"))
        };
        match arg.as_str() {
            "--catalog" => args.catalog = next("--catalog")?,
            "--addr" => args.addr = next("--addr")?,
            "--clients" => args.clients = parse_num("--clients", next("--clients")?)?,
            "--requests" => args.requests = parse_num("--requests", next("--requests")?)?,
            "--mask" => args.mask = true,
            "--shutdown" => args.shutdown = true,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.catalog.is_empty() == args.addr.is_empty() {
        return Err("exactly one of --catalog or --addr is required".to_owned());
    }
    Ok(Some(args))
}

fn run(args: Args) -> Result<(), CliError> {
    // In-process server when --catalog was given; its handle doubles as
    // the shutdown path.
    let (addr, handle) = if args.catalog.is_empty() {
        let addr: SocketAddr = args.addr.parse().map_err(|_| {
            CliError::Usage(format!("--addr must be HOST:PORT, got {:?}", args.addr))
        })?;
        (addr, None)
    } else {
        let options = ServeOptions {
            // Admit the whole client fleet: this measures the server,
            // not the admission limiter.
            queue_depth: args.clients + 16,
            ..ServeOptions::default()
        };
        let handle = serve(&args.catalog, options).map_err(|e| CliError::Runtime(e.to_string()))?;
        (handle.addr(), Some(handle))
    };
    let mut config = LoadConfig::new(addr, args.clients, args.requests);
    config.shutdown_after = args.shutdown && handle.is_none();
    let report = load::run_load(&config);
    print!("{}", load::render(&report, args.mask));
    if let Some(handle) = handle {
        handle.shutdown_join();
    }
    if report.errors > 0 {
        return Err(CliError::Runtime(format!(
            "{} of {} requests failed",
            report.errors, report.requests
        )));
    }
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
