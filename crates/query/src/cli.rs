//! The shared command-line surface of the query-capable binaries.
//!
//! `swim-query` and `swim-catalog query` accept the same flag set
//! (`--select/--where/--group-by/--order-by/--desc/--limit/--format/
//! --serial/--explain/--profile`); this module owns the parsing,
//! validation, and renderer dispatch for it so the two CLIs cannot
//! drift apart. [`FLAGS`] is that set as a [`swim_obs::cli`] table;
//! the binaries parse argv against it, feed the result through
//! [`QueryFlags::from_args`] and run it with [`run`], and the server
//! and the benchmark feed wire tokens through [`QueryFlags::accept`].
//! Error messages are pinned by `crates/query/tests/cli_errors.rs`.

use crate::exec::QueryOutput;
use crate::explain::Explain;
use crate::plan::Query;
use crate::session::Session;
use crate::{parse, render};
use swim_obs::cli::{self as obs_cli, Args, Error, Flag};
use swim_obs::doc::{Block, KeyValueBlock, Report, Section};
use swim_obs::render::Table;

/// Output rendering selected by `--format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OutputFormat {
    /// Aligned text table (the default).
    #[default]
    Table,
    /// Markdown through the report document model.
    Markdown,
    /// One JSON object (columns, rows, stats).
    Json,
}

impl OutputFormat {
    /// Parse a `--format` value.
    pub fn parse(text: &str) -> Result<OutputFormat, String> {
        match text {
            "table" | "text" => Ok(OutputFormat::Table),
            "md" | "markdown" => Ok(OutputFormat::Markdown),
            "json" => Ok(OutputFormat::Json),
            other => Err(format!("unknown format {other} (expected table|md|json)")),
        }
    }
}

/// The shared query flags, as a `swim_obs::cli` table.
pub const FLAGS: &[Flag] = &[
    Flag::value("--select", "AGGS", "aggregates (default count)"),
    Flag::value("--where", "PRED", "row filter"),
    Flag::value("--group-by", "EXPRS", "group keys"),
    Flag::value("--order-by", "N", "1-based output column to order by"),
    Flag::switch("--desc", "order descending"),
    Flag::value("--limit", "N", "print at most N rows"),
    Flag::value("--format", "table|md|json", "output format"),
    Flag::switch("--serial", "run on one thread (same bytes)"),
    Flag::switch("--explain", "print the plan; execute nothing"),
    Flag::switch("--profile", "execute, then append the metrics"),
];

/// The text of [`NOTES`], which [`CATALOG_NOTES`] ends with too.
macro_rules! query_notes {
    () => {
        "columns: id submit duration input shuffle output map_time reduce_time \
 map_tasks reduce_tasks (derived: total_io total_task_time total_tasks)
aggregates: count sum min max avg p0..p100, e.g. --select \"count,sum(total_io),p50(duration)\"
predicates: comparisons over expressions with and/or/not and unit suffixes, \
e.g. --where \"input >= 1gb and submit < 2d\"
group keys: expressions, e.g. --group-by \"submit/3600\" for hourly bins
--explain prints the plan tree and zone-map verdict counts (never/always/maybe) \
without executing; --profile executes with swim-obs instrumentation forced on \
and appends the metrics
"
    };
}

/// What the query flags' values look like, for a usage text.
pub const NOTES: &str = query_notes!();

/// `swim-catalog`'s usage notes: its trace formats, then [`NOTES`] for
/// its `query` subcommand.
pub const CATALOG_NOTES: &str = concat!(
    "trace formats by extension: .csv (needs --machines), .swim/.store \
     (streamed), anything else JSON-lines\n",
    query_notes!()
);

/// Accumulates the common query flags while a binary walks its
/// argument stream; [`QueryFlags::build_query`] turns them into a typed
/// [`Query`] once parsing is done.
#[derive(Debug, Default)]
pub struct QueryFlags {
    select: Option<String>,
    where_: String,
    group_by: String,
    order_by: Option<usize>,
    descending: bool,
    limit: Option<usize>,
    /// Selected output rendering.
    pub format: OutputFormat,
    /// `--serial`: single-threaded execution (bit-identical output).
    pub serial: bool,
    /// `--explain`: print the plan and zone-map verdicts, execute
    /// nothing.
    pub explain: bool,
    /// `--profile`: execute with all instrumentation forced on, then
    /// print the collected metrics.
    pub profile: bool,
}

impl QueryFlags {
    /// Fresh flags (count-everything defaults).
    pub fn new() -> QueryFlags {
        QueryFlags::default()
    }

    /// Try to consume one flag; `next` supplies its value when needed.
    /// Returns `Ok(false)` for flags this module does not own.
    pub fn accept(
        &mut self,
        flag: &str,
        next: impl FnOnce() -> Result<String, String>,
    ) -> Result<bool, String> {
        match flag {
            "--select" => self.select = Some(next()?),
            "--where" => self.where_ = next()?,
            "--group-by" => self.group_by = next()?,
            "--order-by" => {
                let n: usize = next()?
                    .parse()
                    .map_err(|_| "--order-by requires a 1-based column number".to_owned())?;
                if n == 0 {
                    return Err("--order-by columns are 1-based".into());
                }
                self.order_by = Some(n - 1);
            }
            "--desc" => self.descending = true,
            "--limit" => {
                self.limit = Some(
                    next()?
                        .parse()
                        .map_err(|_| "--limit requires an integer".to_owned())?,
                )
            }
            "--format" => self.format = OutputFormat::parse(&next()?)?,
            "--serial" => self.serial = true,
            "--explain" => self.explain = true,
            "--profile" => self.profile = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The query flags among `args` (other flags are left to the
    /// caller), fed through [`QueryFlags::accept`] in order, then
    /// checked against each other.
    pub fn from_args(args: &Args) -> Result<QueryFlags, String> {
        let mut flags = QueryFlags::new();
        for (name, value) in &args.flags {
            flags.accept(name, || Ok(value.clone().unwrap_or_default()))?;
        }
        if flags.explain && flags.profile {
            return Err(
                "--explain and --profile are mutually exclusive (explain never executes)".into(),
            );
        }
        Ok(flags)
    }

    /// Build the typed query from the accumulated flag text.
    pub fn build_query(&self) -> Result<Query, String> {
        let mut query = Query::new().filter(parse::parse_predicate(&self.where_)?);
        for key in parse::parse_group_by(&self.group_by)? {
            query = query.group(key);
        }
        for agg in parse::parse_aggregates(self.select.as_deref().unwrap_or("count"))? {
            query = query.select(agg);
        }
        if let Some(column) = self.order_by {
            query = query.order_by(column, self.descending);
        }
        if let Some(limit) = self.limit {
            query = query.limit(limit);
        }
        Ok(query)
    }
}

/// Run a binary's query flags against the session `open` returns, named
/// `path` in titles: print the plan (`--explain`) or the result, under
/// `name: path`, with the profile (`--profile`) after it, and the scan
/// summary on stderr. `--profile` switches every instrument on and
/// zeroes it before the open, so the metrics cover the open too.
pub fn run(
    flags: &QueryFlags,
    name: &str,
    path: &str,
    open: impl FnOnce() -> Result<Session, Error>,
) -> Result<(), Error> {
    let query = flags.build_query().map_err(Error::Usage)?;
    if flags.profile {
        swim_obs::set_enabled(swim_obs::ALL);
        swim_obs::reset();
    }
    let session = open()?;
    if flags.explain {
        let explain = session.explain(&query)?;
        let title = format!("explain: {path}");
        obs_cli::print(&render_explain(&explain, flags.format, &title))?;
        return Ok(());
    }
    let result = session.execute(&query, flags.serial)?;
    let title = format!("{name}: {path}");
    let mut body = render_for(&result.output, flags.format, &title);
    if flags.profile {
        // The metrics follow the result; JSON lines follow the result
        // object directly.
        if flags.format != OutputFormat::Json {
            body.push('\n');
        }
        body.push_str(&render_profile(&swim_obs::snapshot(), flags.format));
    }
    obs_cli::print(&body)?;
    eprintln!("{}", result.summary);
    Ok(())
}

/// Render a finished query for the selected format. The returned string
/// is what the binary prints verbatim (JSON carries its trailing
/// newline here).
pub fn render_for(output: &QueryOutput, format: OutputFormat, title: &str) -> String {
    match format {
        OutputFormat::Table => render::render_text(output),
        OutputFormat::Markdown => render::render_markdown(output, title),
        OutputFormat::Json => {
            let mut out = render::render_json(output);
            out.push('\n');
            out
        }
    }
}

/// Render an [`Explain`] for the selected format (same dispatch as
/// [`render_for`]; JSON carries its trailing newline here).
pub fn render_explain(explain: &Explain, format: OutputFormat, title: &str) -> String {
    match format {
        OutputFormat::Table => explain.render_text(title),
        OutputFormat::Markdown => explain.render_markdown(title),
        OutputFormat::Json => {
            let mut out = explain.render_json();
            out.push('\n');
            out
        }
    }
}

/// Render a `--profile` metrics snapshot for the selected format.
///
/// Table and Markdown get a report section: counters and gauges as
/// key/value pairs (deterministic for a deterministic workload), then
/// a span table (wall-clock timings, inherently not).
/// JSON gets the snapshot as JSON lines ([`swim_obs::jsonl`]), one
/// object per instrument, appended after the result object.
pub fn render_profile(snapshot: &swim_obs::Snapshot, format: OutputFormat) -> String {
    if let OutputFormat::Json = format {
        return swim_obs::jsonl::to_jsonl(snapshot);
    }
    let mut section = Section::new("profile (swim-obs)");
    let mut pairs: Vec<(String, String)> = snapshot
        .counters
        .iter()
        .map(|(name, value)| (name.clone(), value.to_string()))
        .collect();
    pairs.extend(
        snapshot
            .gauges
            .iter()
            .map(|(name, value)| (name.clone(), value.to_string())),
    );
    if !pairs.is_empty() {
        section.push(Block::KeyValue(KeyValueBlock::new(pairs)));
    }
    if !snapshot.spans.is_empty() {
        let mut table = Table::new(vec!["span", "count", "total_us", "min_us", "max_us"]);
        for span in &snapshot.spans {
            table.row(vec![
                span.path.clone(),
                span.count.to_string(),
                (span.total_ns / 1_000).to_string(),
                (span.min_ns / 1_000).to_string(),
                (span.max_ns / 1_000).to_string(),
            ]);
        }
        section.captioned_table("\nspans", table);
    }
    if section.blocks.is_empty() {
        section.prose("(no instruments fired)\n");
    }
    match format {
        OutputFormat::Markdown => {
            let mut report = Report::new("profile");
            report.push(section);
            swim_obs::markdown::render_report(&report)
        }
        _ => section.render_text(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::Aggregate;
    use crate::expr::{CmpOp, Col, Pred};

    fn value(v: &str) -> impl FnOnce() -> Result<String, String> + '_ {
        move || Ok(v.to_owned())
    }

    fn missing() -> Result<String, String> {
        Err("flag requires a value".into())
    }

    #[test]
    fn accepts_the_shared_flag_set_and_rejects_others() {
        let mut flags = QueryFlags::new();
        assert!(flags.accept("--select", value("count")).unwrap());
        assert!(flags.accept("--where", value("input > 1gb")).unwrap());
        assert!(flags.accept("--group-by", value("map_tasks")).unwrap());
        assert!(flags.accept("--order-by", value("2")).unwrap());
        assert!(flags.accept("--desc", missing).unwrap());
        assert!(flags.accept("--limit", value("5")).unwrap());
        assert!(flags.accept("--format", value("json")).unwrap());
        assert!(flags.accept("--serial", missing).unwrap());
        assert!(!flags.accept("--trace", value("x.swim")).unwrap());
        assert!(!flags.accept("--frobnicate", missing).unwrap());

        let query = flags.build_query().unwrap();
        assert_eq!(
            query.predicate,
            Pred::cmp(Col::Input, CmpOp::Gt, 1_000_000_000)
        );
        assert_eq!(query.aggregates, vec![Aggregate::Count]);
        assert_eq!(query.limit, Some(5));
        assert_eq!(
            query.order_by.map(|o| (o.column, o.descending)),
            Some((1, true))
        );
        assert_eq!(flags.format, OutputFormat::Json);
        assert!(flags.serial);
    }

    #[test]
    fn flag_errors_are_pinned() {
        let mut flags = QueryFlags::new();
        assert_eq!(
            flags.accept("--order-by", value("0")).unwrap_err(),
            "--order-by columns are 1-based"
        );
        assert_eq!(
            flags.accept("--order-by", value("x")).unwrap_err(),
            "--order-by requires a 1-based column number"
        );
        assert_eq!(
            flags.accept("--limit", value("many")).unwrap_err(),
            "--limit requires an integer"
        );
        assert_eq!(
            flags.accept("--format", value("parquet")).unwrap_err(),
            "unknown format parquet (expected table|md|json)"
        );
    }

    #[test]
    fn default_query_counts_everything() {
        let query = QueryFlags::new().build_query().unwrap();
        assert_eq!(query.aggregates, vec![Aggregate::Count]);
        assert_eq!(query.predicate, Pred::True);
        assert!(query.group_by.is_empty());
    }
}
