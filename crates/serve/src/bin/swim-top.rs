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

use swim_obs::cli::{self as run, Args, Cli, Command, Error, Flag};
use swim_serve::client;
use swim_serve::top::{self, Dashboard, Sample, HISTORY_LEN};

const CLI: Cli = Cli {
    name: "swim-top",
    commands: &[Command {
        name: "",
        args: "",
        flags: &[&[
            Flag::value("--addr", "HOST:PORT", "the server to watch (required)"),
            Flag::value("--interval", "SECS", "seconds between polls (default 2)"),
            Flag::value("--count", "N", "stop after N ticks"),
            Flag::switch("--once", "poll once, print one dashboard"),
            Flag::value(
                "--format",
                "text|json|md",
                "format for --once (default text)",
            ),
            Flag::switch("--mask", "poll `metrics --mask` (byte-stable)"),
            Flag::value("--raw", "CMD", "send one request; print its body"),
        ]],
    }],
    notes: "polls swim-serve metrics and renders a live dashboard until the server goes away\n",
};

/// The value of `flag` as a positive integer, if given.
fn positive(args: &Args, flag: &str) -> Result<Option<u64>, Error> {
    match args.parse(flag, "a positive integer")? {
        Some(0) => Err(Error::Usage(format!(
            "{flag} requires a positive integer, got \"0\""
        ))),
        n => Ok(n),
    }
}

fn main() -> ExitCode {
    run::main(&CLI, body)
}

fn body(args: Args) -> Result<(), Error> {
    let addr = args
        .value("--addr")
        .ok_or_else(|| Error::Usage("--addr is required (swim-top --addr HOST:PORT)".into()))?;
    let addr: SocketAddr = addr
        .parse()
        .map_err(|_| Error::Usage(format!("--addr must be HOST:PORT, got {addr:?}")))?;
    let interval = positive(&args, "--interval")?.unwrap_or(2);
    let count = positive(&args, "--count")?;
    let format = args.value("--format").unwrap_or("text");
    if !matches!(format, "text" | "json" | "md") {
        return Err(Error::Usage(format!(
            "--format must be text, json, or md, got {format:?}"
        )));
    }
    let raw = args.value("--raw");
    if format != "text" && !args.has("--once") && raw.is_none() {
        return Err(Error::Usage("--format json|md requires --once".into()));
    }
    if let Some(line) = raw {
        // One wire request, body verbatim on stdout. Typed error
        // responses exit 1 with the server's kind and message.
        let resp = client::request(addr, line)?;
        if !resp.ok {
            let kind = resp.kind.map_or("error", |k| k.as_str());
            return Err(Error::Runtime(format!(
                "{kind}: {}",
                resp.body_text().trim()
            )));
        }
        run::print(&resp.body_text())?;
        return Ok(());
    }
    let mut prev: Option<Sample> = None;
    let mut history: Vec<f64> = Vec::new();
    let mut tick = 0u64;
    loop {
        let sample =
            top::poll(addr, args.has("--mask")).map_err(|e| format!("poll {addr} failed: {e}"))?;
        let dash = Dashboard::from_samples(prev.as_ref(), &sample);
        if let Some(rate) = dash.req_per_sec {
            history.push(rate);
            if history.len() > HISTORY_LEN {
                history.remove(0);
            }
        }
        let text = match format {
            "json" => dash.render_json(),
            "md" => dash.render_md(&history),
            _ => dash.render_text(&history),
        };
        tick += 1;
        // A reader that has gone away ends the watch, as --count does.
        if !run::print(&text)? || args.has("--once") || count == Some(tick) {
            return Ok(());
        }
        prev = Some(sample);
        std::thread::sleep(Duration::from_secs(interval));
    }
}
