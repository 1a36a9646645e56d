//! # swim-lint
//!
//! Workspace-aware static analysis that turns the architecture's
//! written invariants into machine-checked rules. The workspace's
//! correctness story rests on disciplines that used to live only in
//! prose — the dependency graph is strictly layered, hot-path crates
//! stay panic-free, wall-clock reads are unified in `swim-obs`, atomic
//! memory orders are justified, durable catalog mutation goes through
//! the fsynced publish helpers, every `SWIM_*` environment variable
//! is documented, and every library `pub fn` has a caller outside the
//! tests. `swim-lint` tokenizes the workspace's own sources
//! with a hand-rolled lexer ([`lex`]), scopes out `#[cfg(test)]` code
//! ([`scope`]), and runs a rule engine ([`rules`]) over
//! (file, token-stream, manifest) triples.
//!
//! Violations can carry narrowly-scoped waivers
//! (`// lint: allow(rule, "reason")` — see [`waiver`]); a waiver
//! without a reason is itself a finding. Results render through the
//! [`swim_obs::doc`] model as text/markdown and as fixed-shape JSON
//! ([`report`]), and per-rule counters are exported via `swim-obs`,
//! the crate's one dependency.
//!
//! ```
//! use std::path::Path;
//! // Lint this workspace (the repo the crate lives in).
//! let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
//! let result = swim_lint::run(&root).unwrap();
//! assert!(result.is_clean(), "{}", swim_lint::report::render_text(&result));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod lex;
pub mod manifest;
pub mod report;
pub mod rules;
pub mod scope;
pub mod spec;
pub mod waiver;
pub mod workspace;

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use swim_obs::Counter;

use rules::{Finding, RuleId, Sink, Waived};

/// Relative path of the dependency-graph spec.
pub const DEPGRAPH_SPEC: &str = "docs/depgraph.spec";
/// Relative path of the environment-variable registry.
pub const ENV_REGISTRY: &str = "docs/env-registry.txt";
/// Relative path of the README carrying the generated env table.
pub const README: &str = "README.md";

static FILES_SCANNED: Counter = Counter::new("lint.files_scanned");
static WAIVED_TOTAL: Counter = Counter::new("lint.findings_waived");
static FINDINGS_LAYERING: Counter = Counter::new("lint.findings.layering");
static FINDINGS_PANIC: Counter = Counter::new("lint.findings.panic");
static FINDINGS_CLOCK: Counter = Counter::new("lint.findings.clock");
static FINDINGS_ORDERING: Counter = Counter::new("lint.findings.ordering");
static FINDINGS_DURABILITY: Counter = Counter::new("lint.findings.durability");
static FINDINGS_ENV: Counter = Counter::new("lint.findings.env");
static FINDINGS_SURFACE: Counter = Counter::new("lint.findings.surface");
static FINDINGS_WAIVER: Counter = Counter::new("lint.findings.waiver");

fn finding_counter(rule: RuleId) -> &'static Counter {
    match rule {
        RuleId::Layering => &FINDINGS_LAYERING,
        RuleId::Panic => &FINDINGS_PANIC,
        RuleId::Clock => &FINDINGS_CLOCK,
        RuleId::Ordering => &FINDINGS_ORDERING,
        RuleId::Durability => &FINDINGS_DURABILITY,
        RuleId::Env => &FINDINGS_ENV,
        RuleId::Surface => &FINDINGS_SURFACE,
        RuleId::Waiver => &FINDINGS_WAIVER,
    }
}

/// The outcome of one lint run.
#[derive(Debug)]
pub struct LintResult {
    /// Workspace members analyzed.
    pub crates: usize,
    /// Source files lexed and checked.
    pub files: usize,
    /// Surviving findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Findings suppressed by reasoned waivers, same order.
    pub waived: Vec<Waived>,
    /// Per crate, by name: distinct lines of its library and binary
    /// files on which a non-comment token outside test scope starts.
    /// What a change adds to or takes from each crate, by one rule, in
    /// the golden's diff.
    pub code_lines: Vec<(String, usize)>,
}

impl LintResult {
    /// `true` when no findings survived (waived ones don't count).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Per-rule `(rule, findings, waived)` in reporting order.
    pub fn rule_counts(&self) -> Vec<(RuleId, usize, usize)> {
        RuleId::ALL
            .iter()
            .map(|&rule| {
                (
                    rule,
                    self.findings.iter().filter(|f| f.rule == rule).count(),
                    self.waived.iter().filter(|w| w.rule == rule).count(),
                )
            })
            .collect()
    }
}

/// Lint the workspace rooted at `root`. Fails only on structural
/// problems (unreadable workspace, unlexable file); policy violations
/// come back as findings.
pub fn run(root: &Path) -> Result<LintResult, String> {
    let ws = workspace::load(root)?;
    let mut findings: Vec<Finding> = Vec::new();
    let mut waived: Vec<Waived> = Vec::new();

    // Policy files. A missing or unparsable spec is itself a finding —
    // the invariants must stay machine-checkable.
    let spec = match std::fs::read_to_string(ws.root.join(DEPGRAPH_SPEC)) {
        Ok(text) => match spec::parse_depgraph(&text) {
            Ok(spec) => Some(spec),
            Err(e) => {
                findings.push(Finding {
                    rule: RuleId::Layering,
                    file: DEPGRAPH_SPEC.to_owned(),
                    line: 0,
                    message: e,
                });
                None
            }
        },
        Err(e) => {
            findings.push(Finding {
                rule: RuleId::Layering,
                file: DEPGRAPH_SPEC.to_owned(),
                line: 0,
                message: format!("cannot read the dependency-graph spec: {e}"),
            });
            None
        }
    };
    let registry = match std::fs::read_to_string(ws.root.join(ENV_REGISTRY)) {
        Ok(text) => match spec::parse_env_registry(&text) {
            Ok(vars) => vars,
            Err(e) => {
                findings.push(Finding {
                    rule: RuleId::Env,
                    file: ENV_REGISTRY.to_owned(),
                    line: 0,
                    message: e,
                });
                Vec::new()
            }
        },
        Err(e) => {
            findings.push(Finding {
                rule: RuleId::Env,
                file: ENV_REGISTRY.to_owned(),
                line: 0,
                message: format!("cannot read the env-var registry: {e}"),
            });
            Vec::new()
        }
    };
    let readme_text = std::fs::read_to_string(ws.root.join(README)).ok();

    let lib_to_crate: BTreeMap<String, String> = ws
        .crates
        .iter()
        .map(|c| (c.lib_name.clone(), c.name.clone()))
        .collect();

    // Every file is lexed once up front: the surface rule needs the names
    // that all non-test code calls before it can judge any one file.
    let lex_file = |file: &workspace::SourceFile| {
        let toks = lex::lex(&file.text)
            .map_err(|e| format!("{}: {e} (swim-lint lexer)", file.rel_path))?;
        let scopes = scope::analyze(&toks);
        Ok::<_, String>((toks, scopes))
    };
    let lexed = ws
        .crates
        .iter()
        .map(|krate| krate.files.iter().map(lex_file).collect())
        .collect::<Result<Vec<Vec<_>>, String>>()?;
    let mut callers: BTreeSet<String> = BTreeSet::new();
    for file in &ws.callers {
        let (toks, scopes) = lex_file(file)?;
        rules::surface_names(&toks, &scopes, &mut callers);
    }
    let members = ws.crates.iter().zip(&lexed);
    for (file, (toks, scopes)) in members.flat_map(|(krate, lexed)| krate.files.iter().zip(lexed)) {
        if !file.kind.is_test_target() {
            rules::surface_names(toks, scopes, &mut callers);
        }
    }

    let mut files = 0usize;
    let mut env_referenced: BTreeSet<String> = BTreeSet::new();
    let mut code_lines: Vec<(String, usize)> = Vec::new();

    for (krate, crate_lexed) in ws.crates.iter().zip(&lexed) {
        if let Some(spec) = &spec {
            rules::check_crate_manifest(krate, spec, &mut findings);
        }
        let mut crate_lines = 0usize;
        for (file, (toks, scopes)) in krate.files.iter().zip(crate_lexed) {
            files += 1;
            let mut waivers = waiver::collect(toks, &scopes.test_mask, file.kind.is_test_target());
            let ctx = rules::FileCtx::new(krate, file, toks, scopes);
            if matches!(
                file.kind,
                workspace::FileKind::Lib | workspace::FileKind::Bin
            ) {
                let live = ctx.code.iter().filter(|&&i| !scopes.test_mask[i]);
                crate_lines += live.map(|&i| toks[i].line).collect::<BTreeSet<_>>().len();
            }
            let mut sink = Sink {
                file: &file.rel_path,
                waivers: &mut waivers,
                findings: &mut findings,
                waived: &mut waived,
            };
            rules::check_uses(&ctx, &lib_to_crate, &mut sink);
            rules::check_panic(&ctx, &mut sink);
            rules::check_clock(&ctx, &mut sink);
            rules::check_ordering(&ctx, &mut sink);
            rules::check_durability(&ctx, &mut sink);
            rules::check_env_refs(&ctx, &registry, &mut env_referenced, &mut sink);
            rules::check_surface(&ctx, &callers, &mut sink);

            // Waiver hygiene: malformed directives, then directives that
            // matched nothing (stale waivers rot fast if tolerated).
            for (line, message) in waivers.errors.clone() {
                findings.push(Finding {
                    rule: RuleId::Waiver,
                    file: file.rel_path.clone(),
                    line,
                    message,
                });
            }
            for allow in &waivers.allows {
                if !allow.used {
                    findings.push(Finding {
                        rule: RuleId::Waiver,
                        file: file.rel_path.clone(),
                        line: allow.line,
                        message: format!(
                            "unused waiver for `{}` — no matching finding on this line \
                             (remove it, or the code it covered moved)",
                            allow.rule.id()
                        ),
                    });
                }
            }
            for justify in &waivers.justifies {
                if !justify.used {
                    findings.push(Finding {
                        rule: RuleId::Waiver,
                        file: file.rel_path.clone(),
                        line: justify.line,
                        message: "unused ordering justification — no `Ordering::…` on this line"
                            .to_owned(),
                    });
                }
            }
        }
        code_lines.push((krate.name.clone(), crate_lines));
    }

    if let Some(spec) = &spec {
        rules::check_spec(&ws, spec, DEPGRAPH_SPEC, &mut findings);
    }
    rules::check_env_registry(
        &registry,
        ENV_REGISTRY,
        &env_referenced,
        readme_text.as_deref(),
        README,
        &mut findings,
    );

    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    waived.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));

    FILES_SCANNED.add(files as u64);
    WAIVED_TOTAL.add(waived.len() as u64);
    for f in &findings {
        finding_counter(f.rule).incr();
    }

    Ok(LintResult {
        crates: ws.crates.len(),
        files,
        findings,
        waived,
        code_lines,
    })
}

/// Render the README env table from the registry at `root` (the
/// `--print-env-table` surface; keeps the generated table and checker
/// on one code path).
pub fn env_table(root: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(root.join(ENV_REGISTRY))
        .map_err(|e| format!("cannot read {ENV_REGISTRY}: {e}"))?;
    let vars = spec::parse_env_registry(&text)?;
    Ok(spec::env_readme_table(&vars))
}
