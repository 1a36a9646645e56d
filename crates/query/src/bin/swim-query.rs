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
//! The query flag set and its run are shared with `swim-catalog query`
//! ([`swim_query::cli`]). Results go to stdout; the scan/pruning summary
//! goes to stderr (so `--format json` output stays machine-parseable).
//!
//! `--explain` prints the plan tree and zone-map verdict counts without
//! executing; `--profile` executes with all `swim-obs` instrumentation
//! forced on and appends the collected metrics. Setting `SWIM_OBS`
//! (`metric`,`span`,`all`) enables instrumentation without `--profile`,
//! and `SWIM_OBS_JSONL=FILE` appends the final snapshot as JSON lines.

use std::process::ExitCode;
use swim_obs::cli::{self as run, Args, Cli, Command, Error, Flag};
use swim_query::{cli, Session};

const CLI: Cli = Cli {
    name: "swim-query",
    commands: &[Command {
        name: "",
        args: "[TRACE.swim]",
        flags: &[
            &[
                Flag::value("--trace", "TRACE.swim", "the store to query"),
                Flag::value("--catalog", "DIR", "query every shard of a catalog"),
            ],
            cli::FLAGS,
        ],
    }],
    notes: cli::NOTES,
};

fn main() -> ExitCode {
    run::main(&CLI, body)
}

fn body(args: Args) -> Result<(), Error> {
    let flags = cli::QueryFlags::from_args(&args).map_err(Error::Usage)?;
    let trace = args.value("--trace").map(str::to_owned);
    let mut traces = trace.into_iter().chain(args.positional.iter().cloned());
    let (trace, catalog) = (traces.next(), args.value("--catalog"));
    if let Some(extra) = traces.next() {
        return Err(Error::Usage(format!("unexpected argument {extra}")));
    }
    match (&trace, catalog) {
        (Some(_), Some(_)) => {
            return Err(Error::Usage(
                "--trace and --catalog are mutually exclusive".into(),
            ))
        }
        (None, None) => {
            return Err(Error::Usage(
                "a store file or catalog directory is required \
                 (swim-query --trace x.swim | --catalog dir)"
                    .into(),
            ))
        }
        _ => {}
    }
    // One shared execution path for both sources: the Session engine
    // (also what swim-catalog query and swim-serve run on). Open errors
    // keep the raw store/catalog error text. A catalog is federated:
    // every shard, pruned at the shard level before any file is opened.
    let path = trace.unwrap_or_else(|| catalog.unwrap_or_default().to_owned());
    cli::run(&flags, "swim-query", &path, || {
        match catalog {
            Some(_) => Session::open_catalog(&path).map_err(|e| e.to_string()),
            None => Session::open_store(&path).map_err(|e| e.to_string()),
        }
        .map_err(|e| Error::Runtime(format!("open {path}: {e}")))
    })
}
