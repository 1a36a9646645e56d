//! `swim-lint`: workspace-aware static analysis enforcing the SWIM
//! repo's layering, panic-policy, clock, atomics, durability, and
//! env-registry invariants.
//!
//! ```text
//! swim-lint [--root DIR] [--format text|md|json] [--deny]
//! swim-lint --print-env-table [--root DIR]
//! ```
//!
//! Exit codes: `0` clean (or findings without `--deny`), `1` findings
//! under `--deny` or a runtime failure (unreadable workspace,
//! unlexable file), `2` usage errors. `--print-env-table` renders the
//! README markdown table from `docs/env-registry.txt` and exits.

use std::process::ExitCode;
use swim_obs::cli::{self as run, Args, Cli, Command, Error, Flag};

const CLI: Cli = Cli {
    name: "swim-lint",
    commands: &[Command {
        name: "",
        args: "",
        flags: &[&[
            Flag::value("--root", "DIR", "workspace root (default .)"),
            Flag::value("--format", "text|md|json", "report format (default text)"),
            Flag::switch("--deny", "exit 1 if any finding survives (CI)"),
            Flag::switch("--print-env-table", "print README's env-var table"),
        ]],
    }],
    notes: "rules: layering panic clock ordering durability env (+ waiver hygiene)\n\
            waive a finding with `// lint: allow(rule, \"reason\")` on or above the line\n\
            --print-env-table renders the table from docs/env-registry.txt\n",
};

fn main() -> ExitCode {
    run::main(&CLI, body)
}

fn body(args: Args) -> Result<(), Error> {
    let root = std::path::Path::new(args.value("--root").unwrap_or("."));
    let render = match args.value("--format").unwrap_or("text") {
        "text" => swim_lint::report::render_text,
        "md" | "markdown" => swim_lint::report::render_markdown,
        "json" => swim_lint::report::render_json,
        other => {
            return Err(Error::Usage(format!(
                "unknown format `{other}` (text|md|json)"
            )))
        }
    };
    if args.has("--print-env-table") {
        run::print(&swim_lint::env_table(root)?)?;
        return Ok(());
    }
    let result = swim_lint::run(root)?;
    run::print(&render(&result))?;
    if args.has("--deny") && !result.is_clean() {
        return Err(Error::Runtime(format!(
            "swim-lint: {} finding(s) denied (see report above)",
            result.findings.len()
        )));
    }
    Ok(())
}
