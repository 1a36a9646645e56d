//! `swim-top`: a live dashboard over a running `swim-serve` process.
//!
//! ```text
//! swim-top --addr HOST:PORT [--interval SECS] [--count N] [--once]
//!          [--format text|json|md] [--mask] [--raw CMD]
//! ```
//!
//! Polls the read-only `metrics` wire command, differences consecutive
//! samples for req/s, and renders generation, latency quantiles, cache
//! hit ratio, and pool occupancy each tick. `--once` prints a single
//! dashboard and exits (with `--format json|md` for CI summaries);
//! `--mask` polls `metrics --mask` so the output is golden-pinnable.
//! `--raw CMD` skips the dashboard entirely and prints one wire
//! response body verbatim — the docs job uses it as its wire client.
//!
//! Exit discipline matches the other binaries: usage errors exit 2 with
//! the usage text, runtime errors exit 1, both with `error: …` first on
//! stderr.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

use swim_serve::client;
use swim_serve::top::{self, Dashboard, Sample, HISTORY_LEN};

const USAGE: &str = "usage: swim-top --addr HOST:PORT [--interval SECS] [--count N] [--once] \
 [--format text|json|md] [--mask] [--raw CMD]\n\
 polls swim-serve metrics and renders a live dashboard\n\
 --addr H:P      the server to watch (required)\n\
 --interval SECS seconds between polls (default 2)\n\
 --count N       stop after N ticks (default: run until the server goes away)\n\
 --once          poll once, print one dashboard, exit\n\
 --format F      output format for --once: text (default), json, or md\n\
 --mask          poll `metrics --mask` (byte-stable output for goldens)\n\
 --raw CMD       send one wire request verbatim and print its body";

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

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
    Md,
}

struct Args {
    addr: SocketAddr,
    interval: u64,
    count: Option<u64>,
    once: bool,
    format: Format,
    mask: bool,
    raw: Option<String>,
}

/// `Ok(None)` means `--help` was requested.
fn parse_args() -> Result<Option<Args>, String> {
    let mut addr = String::new();
    let mut args = Args {
        addr: ([127, 0, 0, 1], 0).into(),
        interval: 2,
        count: None,
        once: false,
        format: Format::Text,
        mask: false,
        raw: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut next = |flag: &str| {
            iter.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--addr" => addr = next("--addr")?,
            "--interval" => {
                let value = next("--interval")?;
                args.interval = value.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                    format!("--interval requires a positive integer, got {value:?}")
                })?;
            }
            "--count" => {
                let value = next("--count")?;
                args.count = Some(value.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                    format!("--count requires a positive integer, got {value:?}")
                })?);
            }
            "--once" => args.once = true,
            "--format" => {
                args.format = match next("--format")?.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    "md" => Format::Md,
                    other => {
                        return Err(format!("--format must be text, json, or md, got {other:?}"))
                    }
                };
            }
            "--mask" => args.mask = true,
            "--raw" => args.raw = Some(next("--raw")?),
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if addr.is_empty() {
        return Err("--addr is required (swim-top --addr HOST:PORT)".into());
    }
    args.addr = addr
        .parse()
        .map_err(|_| format!("--addr must be HOST:PORT, got {addr:?}"))?;
    if args.format != Format::Text && !args.once && args.raw.is_none() {
        return Err("--format json|md requires --once".into());
    }
    Ok(Some(args))
}

/// `--raw CMD`: one wire request, body verbatim on stdout. Typed error
/// responses exit 1 with the server's kind and message.
fn run_raw(args: &Args, line: &str) -> Result<(), CliError> {
    let resp = client::request(args.addr, line).map_err(|e| CliError::Runtime(e.to_string()))?;
    if !resp.ok {
        let kind = resp.kind.map_or("error", |k| k.as_str());
        return Err(CliError::Runtime(format!(
            "{kind}: {}",
            resp.body_text().trim()
        )));
    }
    print!("{}", resp.body_text());
    Ok(())
}

fn run(args: Args) -> Result<(), CliError> {
    if let Some(line) = &args.raw {
        return run_raw(&args, line);
    }
    let mut prev: Option<Sample> = None;
    let mut history: Vec<f64> = Vec::new();
    let mut tick = 0u64;
    loop {
        let sample = top::poll(args.addr, args.mask)
            .map_err(|e| CliError::Runtime(format!("poll {} failed: {e}", args.addr)))?;
        let dash = Dashboard::from_samples(prev.as_ref(), &sample);
        if let Some(rate) = dash.req_per_sec {
            history.push(rate);
            if history.len() > HISTORY_LEN {
                history.remove(0);
            }
        }
        match args.format {
            Format::Text => print!("{}", dash.render_text(&history)),
            Format::Json => print!("{}", dash.render_json()),
            Format::Md => print!("{}", dash.render_md(&history)),
        }
        tick += 1;
        if args.once || args.count == Some(tick) {
            return Ok(());
        }
        prev = Some(sample);
        std::thread::sleep(Duration::from_secs(args.interval));
    }
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
    if let Err(e) = swim_obs::jsonl::append_env(&swim_obs::snapshot()) {
        eprintln!("warning: SWIM_OBS_JSONL: {e}");
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => err.exit(),
    }
}
