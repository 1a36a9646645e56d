//! `swim-query`: filter/group/aggregate queries over a `.swim` columnar
//! store — or, with `--catalog`, federated over every shard of a
//! `swim-catalog` dataset directory — with zone-map pruning (per-chunk
//! for stores; shard-level *then* per-chunk for catalogs).
//!
//! ```text
//! swim-query --trace x.swim --select "count,sum(total_io)" \
//!            [--where "input > 1gb and duration < 2h"] \
//!            [--group-by "submit/3600"] \
//!            [--order-by N] [--desc] [--limit N] \
//!            [--format table|md|json] [--serial] [--explain | --profile]
//! swim-query --catalog dataset.d --select count [--where …] […]
//! ```
//!
//! The query flag set is shared with `swim-catalog query`
//! ([`swim_query::cli`]). Results go to stdout; the scan/pruning summary
//! goes to stderr (so `--format json` output stays machine-parseable).
//!
//! `--explain` prints the plan tree and zone-map verdict counts without
//! executing; `--profile` executes with all `swim-obs` instrumentation
//! forced on and appends the collected metrics. Setting `SWIM_OBS`
//! (`metric`,`span`,`all`) enables instrumentation without `--profile`,
//! and `SWIM_OBS_JSONL=FILE` appends the final snapshot as JSON lines.

use std::io::Write;
use std::process::ExitCode;
use swim_query::{cli, Session};

struct Args {
    trace: String,
    catalog: String,
    flags: cli::QueryFlags,
}

const USAGE: &str = "usage: swim-query (--trace TRACE.swim | --catalog DIR) --select AGGS \
 [--where PRED] [--group-by EXPRS] [--order-by N] [--desc] [--limit N] \
 [--format table|md|json] [--serial] [--explain | --profile]\n\
 --explain prints the plan tree and zone-map verdict counts \
 (never/always/maybe) without executing; --profile executes with \
 swim-obs instrumentation forced on and appends the metrics\n\
 --catalog runs the query federated over every shard of a swim-catalog \
 directory (shard-level zone pruning, then per-chunk)\n\
 columns: id submit duration input shuffle output map_time reduce_time \
 map_tasks reduce_tasks (derived: total_io total_task_time total_tasks)\n\
 aggregates: count sum min max avg p0..p100, e.g. \
 --select \"count,sum(total_io),p50(duration)\"\n\
 predicates: comparisons over expressions with and/or/not and unit \
 suffixes, e.g. --where \"input >= 1gb and submit < 2d\"\n\
 group keys: expressions, e.g. --group-by \"submit/3600\" for hourly bins\n\
 --order-by N orders by 1-based output column (group keys first)";

/// Usage errors (malformed command line, unparsable query) exit 2 with
/// the usage text; runtime errors (missing file, corrupt store, failed
/// execution) exit 1 without it. Both start stderr with `error: …`.
fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

/// `Ok(None)` means `--help` was requested.
fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        trace: String::new(),
        catalog: String::new(),
        flags: cli::QueryFlags::new(),
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut next = |flag: &str| {
            iter.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--trace" => args.trace = next("--trace")?,
            "--catalog" => args.catalog = next("--catalog")?,
            "--help" | "-h" => return Ok(None),
            flag => {
                if args.flags.accept(flag, || next(flag))? {
                    continue;
                }
                if flag.starts_with('-') {
                    return Err(format!("unknown flag {flag}"));
                }
                if args.trace.is_empty() {
                    args.trace = flag.to_owned();
                } else {
                    return Err(format!("unexpected argument {flag}"));
                }
            }
        }
    }
    if args.trace.is_empty() && args.catalog.is_empty() {
        return Err("a store file or catalog directory is required \
             (swim-query --trace x.swim | --catalog dir)"
            .into());
    }
    if !args.trace.is_empty() && !args.catalog.is_empty() {
        return Err("--trace and --catalog are mutually exclusive".into());
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        // An explicit --help/-h is a successful run: usage on stdout.
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Ok(Some(a)) => a,
        Err(msg) => return usage_error(&msg),
    };
    if let Err(msg) = args.flags.validate() {
        return usage_error(&msg);
    }
    let query = match args.flags.build_query() {
        Ok(q) => q,
        Err(msg) => return usage_error(&msg),
    };
    swim_obs::init_from_env();
    if args.flags.profile {
        // Profiling owns the whole process: force everything on and
        // start from zero so the printed counters cover exactly this
        // query.
        swim_obs::set_enabled(swim_obs::ALL);
        swim_obs::reset();
    }
    // One shared execution path for both sources: the Session engine
    // (also what swim-catalog query and swim-serve run on). Open errors
    // keep the raw store/catalog error text.
    let (session, path) = if !args.catalog.is_empty() {
        // Federated path: every shard of a catalog directory, pruned at
        // the shard level before any file is opened.
        match Session::open_catalog(&args.catalog) {
            Ok(s) => (s, args.catalog),
            Err(e) => {
                eprintln!("error: open {}: {e}", args.catalog);
                return ExitCode::FAILURE;
            }
        }
    } else {
        match Session::open_store(&args.trace) {
            Ok(s) => (s, args.trace),
            Err(e) => {
                eprintln!("error: open {}: {e}", args.trace);
                return ExitCode::FAILURE;
            }
        }
    };
    if args.flags.explain {
        return match session.explain(&query) {
            Ok(explain) => {
                let title = format!("explain: {path}");
                write_stdout(&cli::render_explain(&explain, args.flags.format, &title))
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = match session.execute(&query, args.flags.serial) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let title = format!("swim-query: {path}");
    let mut body = cli::render_for(&result.output, args.flags.format, &title);
    let snap = swim_obs::snapshot();
    if args.flags.profile {
        // The metrics follow the result; JSON lines follow the result
        // object directly.
        if args.flags.format != cli::OutputFormat::Json {
            body.push('\n');
        }
        body.push_str(&cli::render_profile(&snap, args.flags.format));
    }
    let code = write_stdout(&body);
    eprintln!("{}", result.summary);
    if let Err(e) = swim_obs::jsonl::append_env(&snap) {
        eprintln!("warning: SWIM_OBS_JSONL: {e}");
    }
    code
}

/// Write `body` to stdout in one write. A reader that has gone away
/// (`swim-query … | head`) has all it wanted: that is a success.
fn write_stdout(body: &str) -> ExitCode {
    let mut out = std::io::stdout().lock();
    match out.write_all(body.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: write stdout: {e}");
            ExitCode::FAILURE
        }
    }
}
