//! The workspace rule engine: rule identities, findings, and the seven
//! architecture rules.
//!
//! | id           | invariant enforced                                            |
//! |--------------|---------------------------------------------------------------|
//! | `layering`   | dependency graph matches `docs/depgraph.spec`; obs is the floor, catalog never reaches query, query/serve/lint never reach report, no cycles; every `use` resolves to a declared edge |
//! | `panic`      | no `unwrap`/`expect`/`panic!`-family/constant-subscript indexing in non-test library code of store/query/catalog/sim/obs |
//! | `clock`      | `Instant::now`/`SystemTime::now` only inside `swim-obs`       |
//! | `ordering`   | every atomic `Ordering::…` outside swim-obs/compat carries a `// lint: ordering:` justification |
//! | `durability` | `fs::rename`/`fs::write`/`fs::hard_link`/`File::create` in swim-catalog only inside the fsynced publish helpers |
//! | `env`        | every `SWIM_*` literal is declared in `docs/env-registry.txt`, nothing in the registry is stale, and the README table matches |
//! | `surface`    | every `pub fn` of non-test library code is named by some non-test code: a lib, bin or example file, or `perf/src` |
//! | `waiver`     | meta: malformed/reasonless/unknown/unused waivers             |
//!
//! Rules emit through a [`Sink`] that consults the file's waivers, so a
//! `// lint: allow(rule, "reason")` downgrade is applied uniformly.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::lex::{Tok, TokKind};
use crate::scope::Scopes;
use crate::spec::DepSpec;
use crate::waiver::Waivers;
use crate::workspace::{CrateInfo, FileKind, SourceFile, Workspace};

/// Crates whose non-test library code must be panic-free.
pub const PANIC_CRATES: [&str; 5] = [
    "swim-store",
    "swim-query",
    "swim-catalog",
    "swim-sim",
    "swim-obs",
];

/// Functions in `crates/catalog` allowed to touch the filesystem
/// publish primitives directly — everything else must call them.
pub const DURABILITY_HELPERS: [&str; 5] = [
    "write_manifest",
    "start_shard",
    "publish_no_clobber",
    "sync_file",
    "sync_dir",
];

const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Identity of a rule (or the waiver meta-rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// L1 — dependency layering.
    Layering,
    /// L2 — panic policy.
    Panic,
    /// L3 — clock discipline.
    Clock,
    /// L4 — atomics audit.
    Ordering,
    /// L5 — durability discipline.
    Durability,
    /// L6 — environment variable registry.
    Env,
    /// L7 — library surface: no `pub fn` that only tests call.
    Surface,
    /// Meta — waiver hygiene (not itself waivable).
    Waiver,
}

impl RuleId {
    /// All rules, reporting order.
    pub const ALL: [RuleId; 8] = [
        RuleId::Layering,
        RuleId::Panic,
        RuleId::Clock,
        RuleId::Ordering,
        RuleId::Durability,
        RuleId::Env,
        RuleId::Surface,
        RuleId::Waiver,
    ];

    /// The names accepted inside `lint: allow(...)`.
    pub const WAIVABLE_NAMES: [&'static str; 7] = [
        "layering",
        "panic",
        "clock",
        "ordering",
        "durability",
        "env",
        "surface",
    ];

    /// Stable string id.
    pub fn id(self) -> &'static str {
        match self {
            RuleId::Layering => "layering",
            RuleId::Panic => "panic",
            RuleId::Clock => "clock",
            RuleId::Ordering => "ordering",
            RuleId::Durability => "durability",
            RuleId::Env => "env",
            RuleId::Surface => "surface",
            RuleId::Waiver => "waiver",
        }
    }

    /// Parse a rule name as used in waivers — the meta rule is
    /// deliberately not waivable.
    pub fn waivable_from_str(s: &str) -> Option<RuleId> {
        match s {
            "layering" => Some(RuleId::Layering),
            "panic" => Some(RuleId::Panic),
            "clock" => Some(RuleId::Clock),
            "ordering" => Some(RuleId::Ordering),
            "durability" => Some(RuleId::Durability),
            "env" => Some(RuleId::Env),
            "surface" => Some(RuleId::Surface),
            _ => None,
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule that fired.
    pub rule: RuleId,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line (0 for file-level findings).
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// A finding suppressed by a reasoned waiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waived {
    /// Rule that would have fired.
    pub rule: RuleId,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The waiver's reason.
    pub reason: String,
}

/// Collects findings for one file, applying its waivers.
pub struct Sink<'a> {
    /// Workspace-relative path findings are attributed to.
    pub file: &'a str,
    /// The file's parsed waivers.
    pub waivers: &'a mut Waivers,
    /// Output: surviving findings.
    pub findings: &'a mut Vec<Finding>,
    /// Output: waived findings.
    pub waived: &'a mut Vec<Waived>,
}

impl Sink<'_> {
    /// Report a violation; a matching waiver downgrades it.
    pub fn emit(&mut self, rule: RuleId, line: u32, message: String) {
        if let Some(reason) = self.waivers.consume(rule, line) {
            self.waived.push(Waived {
                rule,
                file: self.file.to_owned(),
                line,
                reason,
            });
        } else {
            self.findings.push(Finding {
                rule,
                file: self.file.to_owned(),
                line,
                message,
            });
        }
    }
}

/// Per-file context shared by the token rules.
pub struct FileCtx<'a> {
    /// The crate the file belongs to.
    pub krate: &'a CrateInfo,
    /// The file itself.
    pub file: &'a SourceFile,
    /// Its token stream.
    pub toks: &'a [Tok],
    /// Indices of non-comment tokens, in order.
    pub code: Vec<usize>,
    /// Test/fn structure.
    pub scopes: &'a Scopes,
}

impl<'a> FileCtx<'a> {
    /// Build the context (computes the code-token index).
    pub fn new(
        krate: &'a CrateInfo,
        file: &'a SourceFile,
        toks: &'a [Tok],
        scopes: &'a Scopes,
    ) -> Self {
        let code = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
        FileCtx {
            krate,
            file,
            toks,
            code,
            scopes,
        }
    }

    fn tok(&self, w: usize) -> &Tok {
        &self.toks[self.code[w]]
    }

    fn in_test(&self, w: usize) -> bool {
        self.file.kind.is_test_target() || self.scopes.test_mask[self.code[w]]
    }
}

// ----------------------------------------------------------------------
// L2 — panic policy
// ----------------------------------------------------------------------

/// No `unwrap`/`expect` calls, `panic!`-family macros, or
/// constant-subscript indexing in non-test library code of the
/// panic-free crates.
pub fn check_panic(ctx: &FileCtx<'_>, sink: &mut Sink<'_>) {
    if !PANIC_CRATES.contains(&ctx.krate.name.as_str()) || ctx.file.kind != FileKind::Lib {
        return;
    }
    for w in 0..ctx.code.len() {
        if ctx.in_test(w) {
            continue;
        }
        let tok = ctx.tok(w);
        let prev = w.checked_sub(1).map(|p| ctx.tok(p));
        let next = ctx.code.get(w + 1).map(|_| ctx.tok(w + 1));
        match tok.kind {
            TokKind::Ident if tok.text == "unwrap" || tok.text == "expect" => {
                let is_method_call =
                    prev.is_some_and(|p| p.is_punct(".")) && next.is_some_and(|n| n.is_punct("("));
                if is_method_call {
                    sink.emit(
                        RuleId::Panic,
                        tok.line,
                        format!(
                            "`.{}()` in non-test library code of {} (panic policy): return a \
                             typed error, or waive with the invariant that makes it impossible",
                            tok.text, ctx.krate.name
                        ),
                    );
                }
            }
            TokKind::Ident
                if matches!(
                    tok.text.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                ) && next.is_some_and(|n| n.is_punct("!")) =>
            {
                sink.emit(
                    RuleId::Panic,
                    tok.line,
                    format!(
                        "`{}!` in non-test library code of {} (panic policy)",
                        tok.text, ctx.krate.name
                    ),
                );
            }
            TokKind::Punct if tok.text == "[" => {
                let postfix = prev.is_some_and(|p| {
                    matches!(p.kind, TokKind::Ident | TokKind::Num)
                        || p.is_punct(")")
                        || p.is_punct("]")
                        || p.is_punct("?")
                });
                let const_subscript = next.is_some_and(|n| n.kind == TokKind::Num);
                if postfix && const_subscript {
                    sink.emit(
                        RuleId::Panic,
                        tok.line,
                        "constant-subscript indexing in non-test library code (panic policy): \
                         use `get`/`split_first`/array patterns, or waive with the length \
                         invariant"
                            .to_owned(),
                    );
                }
            }
            _ => {}
        }
    }
}

// ----------------------------------------------------------------------
// L3 — clock discipline
// ----------------------------------------------------------------------

/// `Instant::now()` / `SystemTime::now()` may only appear inside
/// `swim-obs`; everything else routes timing through `swim_obs::timed`
/// so spans and reports share one clock.
pub fn check_clock(ctx: &FileCtx<'_>, sink: &mut Sink<'_>) {
    if ctx.krate.name == "swim-obs" {
        return;
    }
    for w in 0..ctx.code.len() {
        if ctx.file.kind == FileKind::Test || ctx.scopes.test_mask[ctx.code[w]] {
            continue;
        }
        let tok = ctx.tok(w);
        if tok.kind == TokKind::Ident && (tok.text == "Instant" || tok.text == "SystemTime") {
            let qualifies = ctx.code.get(w + 2).is_some()
                && ctx.tok(w + 1).is_punct("::")
                && ctx.tok(w + 2).is_ident("now");
            if qualifies {
                sink.emit(
                    RuleId::Clock,
                    tok.line,
                    format!(
                        "`{}::now()` outside swim-obs (clock discipline): route wall-clock \
                         reads through `swim_obs::timed`/`swim_obs::span`",
                        tok.text
                    ),
                );
            }
        }
    }
}

// ----------------------------------------------------------------------
// L4 — atomics audit
// ----------------------------------------------------------------------

/// Every atomic `Ordering::…` outside swim-obs and the compat shims
/// must carry a `// lint: ordering:` justification on its line (or the
/// line above).
pub fn check_ordering(ctx: &FileCtx<'_>, sink: &mut Sink<'_>) {
    if ctx.krate.name == "swim-obs" || ctx.krate.is_compat() {
        return;
    }
    for w in 0..ctx.code.len() {
        if ctx.in_test(w) {
            continue;
        }
        let tok = ctx.tok(w);
        if tok.is_ident("Ordering")
            && ctx.code.get(w + 2).is_some()
            && ctx.tok(w + 1).is_punct("::")
            && ATOMIC_ORDERINGS.contains(&ctx.tok(w + 2).text.as_str())
        {
            let variant = ctx.tok(w + 2).text.clone();
            if sink.waivers.consume_justify(tok.line) {
                continue;
            }
            sink.emit(
                RuleId::Ordering,
                tok.line,
                format!(
                    "`Ordering::{variant}` without a justification (atomics audit): add \
                     `// lint: ordering: <why this memory order is sufficient>`"
                ),
            );
        }
    }
}

// ----------------------------------------------------------------------
// L5 — durability discipline
// ----------------------------------------------------------------------

/// In `swim-catalog`, the filesystem publish primitives may only be
/// called from the fsynced temp+rename helpers; ad-hoc mutation can
/// tear the manifest.
pub fn check_durability(ctx: &FileCtx<'_>, sink: &mut Sink<'_>) {
    if ctx.krate.name != "swim-catalog" {
        return;
    }
    for w in 0..ctx.code.len() {
        if ctx.in_test(w) {
            continue;
        }
        let tok = ctx.tok(w);
        let site = if tok.is_ident("fs")
            && ctx.code.get(w + 2).is_some()
            && ctx.tok(w + 1).is_punct("::")
            && matches!(
                ctx.tok(w + 2).text.as_str(),
                "rename" | "write" | "hard_link"
            ) {
            Some(format!("fs::{}", ctx.tok(w + 2).text))
        } else if tok.is_ident("File")
            && ctx.code.get(w + 2).is_some()
            && ctx.tok(w + 1).is_punct("::")
            && ctx.tok(w + 2).is_ident("create")
        {
            Some("File::create".to_owned())
        } else {
            None
        };
        if let Some(site) = site {
            let enclosing = ctx.scopes.enclosing_fn(ctx.code[w]);
            if enclosing.is_some_and(|f| DURABILITY_HELPERS.contains(&f)) {
                continue;
            }
            sink.emit(
                RuleId::Durability,
                tok.line,
                format!(
                    "`{site}` outside the publish helpers ({}) — durable catalog mutation \
                     must go through the fsynced temp+rename path",
                    DURABILITY_HELPERS.join("/")
                ),
            );
        }
    }
}

// ----------------------------------------------------------------------
// L1 — layering (per-file use check)
// ----------------------------------------------------------------------

/// Every `swim_*::`/vendored-crate path reference must resolve to a
/// declared dependency edge (dev-dependencies only in test contexts).
pub fn check_uses(ctx: &FileCtx<'_>, lib_to_crate: &BTreeMap<String, String>, sink: &mut Sink<'_>) {
    for w in 0..ctx.code.len() {
        let tok = ctx.tok(w);
        if tok.kind != TokKind::Ident {
            continue;
        }
        let Some(dep_crate) = lib_to_crate.get(&tok.text) else {
            continue;
        };
        let next = ctx.code.get(w + 1).map(|_| ctx.tok(w + 1));
        let prev = w.checked_sub(1).map(|p| ctx.tok(p));
        let is_ref = next.is_some_and(|n| n.is_punct("::"))
            || (prev.is_some_and(|p| p.is_ident("use"))
                && next.is_some_and(|n| n.is_punct(";") || n.is_ident("as")));
        if !is_ref || *dep_crate == ctx.krate.name {
            continue;
        }
        let dev_ok = ctx.file.kind.uses_dev_deps() || ctx.scopes.test_mask[ctx.code[w]];
        let declared = ctx.krate.deps.contains(dep_crate)
            || (dev_ok && ctx.krate.dev_deps.contains(dep_crate));
        if !declared {
            sink.emit(
                RuleId::Layering,
                tok.line,
                format!(
                    "`{}` resolves to `{dep_crate}`, which is not a declared {}dependency of \
                     {} (docs/depgraph.spec)",
                    tok.text,
                    if dev_ok { "" } else { "non-dev " },
                    ctx.krate.name
                ),
            );
        }
    }
}

// ----------------------------------------------------------------------
// L1 — layering (workspace-level checks)
// ----------------------------------------------------------------------

/// Manifest dependency sets must match the spec exactly.
pub fn check_crate_manifest(krate: &CrateInfo, spec: &DepSpec, findings: &mut Vec<Finding>) {
    fn mismatch(
        krate: &CrateInfo,
        section: &str,
        actual: &std::collections::BTreeSet<String>,
        allowed: &std::collections::BTreeSet<String>,
        findings: &mut Vec<Finding>,
    ) {
        if actual != allowed {
            let extra: Vec<&str> = actual.difference(allowed).map(String::as_str).collect();
            let missing: Vec<&str> = allowed.difference(actual).map(String::as_str).collect();
            let mut parts = Vec::new();
            if !extra.is_empty() {
                parts.push(format!("undeclared in spec: {}", extra.join(", ")));
            }
            if !missing.is_empty() {
                parts.push(format!("in spec but not manifest: {}", missing.join(", ")));
            }
            findings.push(Finding {
                rule: RuleId::Layering,
                file: krate.manifest_rel.clone(),
                line: 0,
                message: format!(
                    "[{section}] of {} diverges from docs/depgraph.spec ({})",
                    krate.name,
                    parts.join("; ")
                ),
            });
        }
    }
    match spec.deps.get(&krate.name) {
        None => findings.push(Finding {
            rule: RuleId::Layering,
            file: krate.manifest_rel.clone(),
            line: 0,
            message: format!(
                "crate `{}` is not listed in docs/depgraph.spec — every workspace member \
                 must declare its place in the graph",
                krate.name
            ),
        }),
        Some(allowed) => mismatch(krate, "dependencies", &krate.deps, allowed, findings),
    }
    if let Some(allowed_dev) = spec.dev.get(&krate.name) {
        mismatch(
            krate,
            "dev-dependencies",
            &krate.dev_deps,
            allowed_dev,
            findings,
        );
    }
}

/// The spec itself must satisfy the architecture's hard constraints:
/// obs is the floor, catalog never reaches query, the graph is acyclic,
/// and every name resolves.
pub fn check_spec(ws: &Workspace, spec: &DepSpec, spec_rel: &str, findings: &mut Vec<Finding>) {
    let mut emit = |message: String| {
        findings.push(Finding {
            rule: RuleId::Layering,
            file: spec_rel.to_owned(),
            line: 0,
            message,
        });
    };
    let members: std::collections::BTreeSet<&str> =
        ws.crates.iter().map(|c| c.name.as_str()).collect();
    for name in spec.crates() {
        if !members.contains(name) {
            emit(format!(
                "spec names `{name}`, which is not a workspace member"
            ));
        }
    }
    for (name, deps) in spec.deps.iter().chain(spec.dev.iter()) {
        for d in deps {
            if !spec.deps.contains_key(d) {
                emit(format!(
                    "`{name}` depends on `{d}`, which has no spec entry"
                ));
            }
        }
    }
    if spec.deps.get("swim-obs").is_some_and(|d| !d.is_empty()) {
        emit(
            "swim-obs must have no dependencies — it is the floor every layer records into".into(),
        );
    }
    const CATALOG: &str = "the catalog must stay query-free (that is what lets swim-report \
                           accept catalogs without a cycle)";
    const SERVING: &str = "the serving and lint paths never compile the analysis stack (they \
                           render through swim-obs's document model)";
    // (from, to, over dev edges too, why `from` must not reach `to`)
    let forbidden = [
        ("swim-catalog", "swim-query", true, CATALOG),
        ("swim-query", "swim-report", false, SERVING),
        ("swim-serve", "swim-report", false, SERVING),
        ("swim-lint", "swim-report", false, SERVING),
    ];
    for (from, to, include_dev, why) in forbidden {
        if spec.deps.contains_key(from) && spec.reaches(from, to, include_dev) {
            emit(format!("{from} reaches {to} — {why}"));
        }
    }
    if let Some(cycle) = spec.find_cycle() {
        emit(format!("dependency cycle: {}", cycle.join(" -> ")));
    }
}

// ----------------------------------------------------------------------
// L6 — env registry (per-file + workspace-level)
// ----------------------------------------------------------------------

/// Scan one file for `SWIM_*` string literals; unregistered names are
/// findings, registered names are recorded in `referenced`.
pub fn check_env_refs(
    ctx: &FileCtx<'_>,
    registry: &[crate::spec::EnvVar],
    referenced: &mut std::collections::BTreeSet<String>,
    sink: &mut Sink<'_>,
) {
    for &i in &ctx.code {
        let tok = &ctx.toks[i];
        if tok.kind != TokKind::Str || !is_env_name(&tok.text) {
            continue;
        }
        if registry.iter().any(|v| v.name == tok.text) {
            referenced.insert(tok.text.clone());
        } else {
            sink.emit(
                RuleId::Env,
                tok.line,
                format!(
                    "`{}` is read but not declared in docs/env-registry.txt — register it \
                     (the README table is generated from the registry)",
                    tok.text
                ),
            );
        }
    }
}

/// `SWIM_` followed by at least one `[A-Z0-9_]` character, nothing else.
fn is_env_name(s: &str) -> bool {
    s.strip_prefix("SWIM_").is_some_and(|rest| {
        !rest.is_empty()
            && rest
                .bytes()
                .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == b'_')
    })
}

/// Registry entries nothing references are stale; the README table must
/// be the rendered registry.
pub fn check_env_registry(
    registry: &[crate::spec::EnvVar],
    registry_rel: &str,
    referenced: &std::collections::BTreeSet<String>,
    readme_text: Option<&str>,
    readme_rel: &str,
    findings: &mut Vec<Finding>,
) {
    for var in registry {
        if !referenced.contains(&var.name) {
            findings.push(Finding {
                rule: RuleId::Env,
                file: registry_rel.to_owned(),
                line: var.line,
                message: format!(
                    "`{}` is registered but no source file references it — remove the stale \
                     entry (or the variable lost its reader by accident)",
                    var.name
                ),
            });
        }
    }
    let Some(readme) = readme_text else {
        return;
    };
    const BEGIN: &str = "<!-- env-registry:begin -->";
    const END: &str = "<!-- env-registry:end -->";
    let expected = crate::spec::env_readme_table(registry);
    let actual = readme.find(BEGIN).and_then(|b| {
        let after = &readme[b + BEGIN.len()..];
        after.find(END).map(|e| after[..e].trim().to_owned())
    });
    match actual {
        None => findings.push(Finding {
            rule: RuleId::Env,
            file: readme_rel.to_owned(),
            line: 0,
            message: format!(
                "README has no `{BEGIN}` … `{END}` block — the env-var table is generated \
                 from docs/env-registry.txt"
            ),
        }),
        Some(actual) if actual != expected.trim() => findings.push(Finding {
            rule: RuleId::Env,
            file: readme_rel.to_owned(),
            line: 0,
            message: "README env-registry table is out of date with docs/env-registry.txt \
                      (regenerate with `swim-lint --print-env-table`)"
                .to_owned(),
        }),
        Some(_) => {}
    }
}

// ----------------------------------------------------------------------
// L7 — library surface
// ----------------------------------------------------------------------

/// Add to `out` every identifier that non-test code in `toks` names:
/// outside `#[cfg(test)]`, outside `use` items (an import calls
/// nothing), and not the name a `fn` item declares.
pub fn surface_names(toks: &[Tok], scopes: &Scopes, out: &mut BTreeSet<String>) {
    let mut in_use = false;
    let mut prev: Option<&Tok> = None;
    for (i, tok) in toks.iter().enumerate() {
        if tok.is_comment() {
            continue;
        }
        let declared = prev.is_some_and(|p| p.is_ident("fn"));
        prev = Some(tok);
        if scopes.test_mask[i] {
            continue;
        }
        if in_use {
            in_use = !tok.is_punct(";");
        } else if tok.is_ident("use") {
            in_use = true;
        } else if tok.kind == TokKind::Ident && !declared {
            out.insert(tok.text.clone());
        }
    }
}

/// Every `pub fn` of non-test library code must be named somewhere in
/// `callers` (built by [`surface_names`] over the workspace's lib, bin
/// and example files and `perf/src`). Trait definitions and trait impls
/// carry no `pub` on their methods, so they are exempt by construction;
/// `pub(crate)` and narrower are left to rustc's dead-code lint.
pub fn check_surface(ctx: &FileCtx<'_>, callers: &BTreeSet<String>, sink: &mut Sink<'_>) {
    if ctx.file.kind != FileKind::Lib {
        return;
    }
    for w in 0..ctx.code.len() {
        if !ctx.tok(w).is_ident("pub") || ctx.in_test(w) {
            continue;
        }
        let qualifiers = ["const", "async", "unsafe"];
        let k = (w + 1..ctx.code.len()).find(|&k| !qualifiers.contains(&ctx.tok(k).text.as_str()));
        let Some(name) = k
            .filter(|&k| ctx.tok(k).is_ident("fn"))
            .and_then(|k| ctx.code.get(k + 1))
        else {
            continue;
        };
        let name = &ctx.toks[*name];
        if name.kind == TokKind::Ident && !callers.contains(&name.text) {
            sink.emit(
                RuleId::Surface,
                ctx.tok(w).line,
                format!(
                    "`pub fn {}` is named by no non-test code (library surface): delete it, \
                     make it `#[cfg(test)]`, or waive with `// lint: surface: <reason>`",
                    name.text
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What `check_spec` says about a spec whose every crate is a
    /// workspace member.
    fn spec_messages(text: &str) -> Vec<String> {
        let spec = crate::spec::parse_depgraph(text).unwrap();
        let crates = spec
            .crates()
            .into_iter()
            .map(|name| CrateInfo {
                name: name.to_owned(),
                lib_name: name.replace('-', "_"),
                rel_dir: String::new(),
                manifest_rel: String::new(),
                deps: Default::default(),
                dev_deps: Default::default(),
                files: Vec::new(),
            })
            .collect();
        let ws = Workspace {
            root: Default::default(),
            crates,
            callers: Vec::new(),
        };
        let mut findings = Vec::new();
        check_spec(&ws, &spec, "docs/depgraph.spec", &mut findings);
        findings.into_iter().map(|f| f.message).collect()
    }

    #[test]
    fn swim_obs_with_a_dependency_breaks_the_floor() {
        assert!(spec_messages("swim-obs:\nswim-trace: swim-obs\n").is_empty());
        assert_eq!(
            spec_messages("swim-obs: swim-trace\nswim-trace:\n"),
            ["swim-obs must have no dependencies — it is the floor every layer records into"]
        );
    }

    #[test]
    fn swim_catalog_reaching_swim_query_is_refused() {
        let ok = "swim-obs:\nswim-catalog: swim-obs\nswim-query: swim-obs swim-catalog\n";
        assert!(spec_messages(ok).is_empty());
        let messages = spec_messages(
            "swim-obs:\nswim-query: swim-obs\nswim-catalog: swim-obs\ndev swim-catalog: swim-query\n",
        );
        assert_eq!(messages.len(), 1, "{messages:?}");
        assert!(messages[0].starts_with("swim-catalog reaches swim-query"));
    }

    #[test]
    fn serving_and_lint_crates_reaching_swim_report_are_refused() {
        let ok = "swim-obs:\nswim-report: swim-obs\nswim-query: swim-obs\n\
                  swim-serve: swim-obs swim-query\nswim-lint: swim-obs\n";
        assert!(spec_messages(ok).is_empty());
        // swim-serve reaches swim-report through swim-query.
        let bad = "swim-obs:\nswim-report: swim-obs\nswim-query: swim-obs swim-report\n\
                   swim-serve: swim-obs swim-query\nswim-lint: swim-obs swim-report\n";
        let messages = spec_messages(bad);
        assert_eq!(messages.len(), 3, "{messages:?}");
        for (message, from) in messages
            .iter()
            .zip(["swim-query", "swim-serve", "swim-lint"])
        {
            assert_eq!(
                *message,
                format!(
                    "{from} reaches swim-report — the serving and lint paths never compile \
                     the analysis stack (they render through swim-obs's document model)"
                )
            );
        }
    }

    #[test]
    fn a_dependency_cycle_is_refused() {
        let messages = spec_messages("swim-obs:\nswim-a: swim-b\nswim-b: swim-a\n");
        assert_eq!(messages.len(), 1, "{messages:?}");
        assert!(
            messages[0].starts_with("dependency cycle: "),
            "{messages:?}"
        );
    }

    #[test]
    fn env_name_shape() {
        assert!(is_env_name("SWIM_OBS"));
        assert!(is_env_name("SWIM_OBS_JSONL"));
        assert!(!is_env_name("SWIM_"));
        assert!(!is_env_name("SWIM_obs"));
        assert!(!is_env_name("SWIMMING"));
        assert!(!is_env_name("PREFIX_SWIM_OBS"));
    }
}
