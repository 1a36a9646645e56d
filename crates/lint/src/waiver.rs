//! `// lint:` directives: narrowly-scoped waivers and atomics
//! justifications.
//!
//! Two forms, both plain line comments (`//` — doc comments are prose,
//! not policy):
//!
//! * `// lint: allow(rule, "reason")` — waive one rule's findings on one
//!   line. A trailing comment waives the line it sits on; a comment
//!   alone on a line waives exactly the next line. A waiver without a
//!   reason, with an unknown rule, or that matches no finding is itself
//!   a finding — waivers never rot silently.
//! * `// lint: ordering: reason` — the justification the atomics rule
//!   (`ordering`) requires next to every `Ordering::…` outside the
//!   allowlisted modules. Same line attachment rules.
//! * `// lint: surface: reason` — shorthand for
//!   `allow(surface, "reason")`: a `pub fn` that only tests call, kept
//!   on purpose (an oracle other crates' tests compare against).
//!
//! Directives inside `#[cfg(test)]` scope are ignored entirely (rules
//! don't fire there, so a waiver would be unused by construction).

use crate::lex::{Tok, TokKind};
use crate::rules::RuleId;

/// One parsed `allow` waiver.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Rule being waived.
    pub rule: RuleId,
    /// 1-based line the waiver applies to.
    pub line: u32,
    /// The quoted reason (non-empty by construction).
    pub reason: String,
    /// Set once a finding consumed this waiver.
    pub used: bool,
}

/// One `ordering:` justification.
#[derive(Debug, Clone)]
pub struct Justify {
    /// 1-based line the justification applies to.
    pub line: u32,
    /// Set once an `Ordering::` use consumed it.
    pub used: bool,
}

/// All directives of one file, plus any malformed ones.
#[derive(Debug, Default)]
pub struct Waivers {
    /// Well-formed `allow` waivers.
    pub allows: Vec<Allow>,
    /// Well-formed `ordering:` justifications.
    pub justifies: Vec<Justify>,
    /// `(line, message)` for malformed directives — reported as findings
    /// under [`RuleId::Waiver`].
    pub errors: Vec<(u32, String)>,
}

impl Waivers {
    /// Consume a waiver for `(rule, line)` if one exists; returns the
    /// reason. Several findings on one line may share one waiver.
    pub fn consume(&mut self, rule: RuleId, line: u32) -> Option<String> {
        for a in &mut self.allows {
            if a.rule == rule && a.line == line {
                a.used = true;
                return Some(a.reason.clone());
            }
        }
        None
    }

    /// Consume an ordering justification for `line`.
    pub fn consume_justify(&mut self, line: u32) -> bool {
        for j in &mut self.justifies {
            if j.line == line {
                j.used = true;
                return true;
            }
        }
        false
    }
}

/// Extract every directive from a token stream. `test_mask` comes from
/// [`crate::scope::analyze`]; `whole_file_test` is true for files whose
/// kind is already test-only (`tests/`, `benches/`).
pub fn collect(toks: &[Tok], test_mask: &[bool], whole_file_test: bool) -> Waivers {
    let mut out = Waivers::default();
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != TokKind::LineComment {
            continue;
        }
        if whole_file_test || test_mask[i] {
            continue;
        }
        let body = &tok.text[2..]; // strip `//`
        if body.starts_with('/') || body.starts_with('!') {
            continue; // doc comment
        }
        let Some(directive) = body.trim().strip_prefix("lint:") else {
            continue;
        };
        // Trailing comment → this line; standalone comment → next line.
        let standalone = !toks[..i]
            .iter()
            .any(|t| !t.is_comment() && t.line == tok.line);
        let target = if standalone { tok.line + 1 } else { tok.line };
        parse_directive(directive.trim(), tok.line, target, &mut out);
    }
    out
}

fn parse_directive(directive: &str, comment_line: u32, target: u32, out: &mut Waivers) {
    if let Some(rest) = directive.strip_prefix("allow") {
        parse_allow(rest.trim_start(), comment_line, target, out);
    } else if let Some(reason) = directive.strip_prefix("surface:") {
        if reason.trim().is_empty() {
            out.errors.push((
                comment_line,
                "surface waiver has no reason (`// lint: surface: who calls this and why`)"
                    .to_owned(),
            ));
        } else {
            out.allows.push(Allow {
                rule: RuleId::Surface,
                line: target,
                reason: reason.trim().to_owned(),
                used: false,
            });
        }
    } else if let Some(reason) = directive.strip_prefix("ordering:") {
        if reason.trim().is_empty() {
            out.errors.push((
                comment_line,
                "ordering justification has no reason (`// lint: ordering: why this \
                 memory order is sufficient`)"
                    .to_owned(),
            ));
        } else {
            out.justifies.push(Justify {
                line: target,
                used: false,
            });
        }
    } else {
        out.errors.push((
            comment_line,
            format!(
                "unknown lint directive `{}` (expected `allow(rule, \"reason\")`, \
                 `ordering: reason` or `surface: reason`)",
                directive
            ),
        ));
    }
}

fn parse_allow(rest: &str, comment_line: u32, target: u32, out: &mut Waivers) {
    let malformed = |out: &mut Waivers| {
        out.errors.push((
            comment_line,
            "malformed waiver (expected `// lint: allow(rule, \"reason\")`)".to_owned(),
        ));
    };
    let Some(inner) = rest.strip_prefix('(') else {
        return malformed(out);
    };
    let Some(close) = inner.rfind(')') else {
        return malformed(out);
    };
    let inner = &inner[..close];
    let (rule_text, reason_part) = match inner.split_once(',') {
        Some((r, rest)) => (r.trim(), Some(rest.trim())),
        None => (inner.trim(), None),
    };
    let Some(rule) = RuleId::waivable_from_str(rule_text) else {
        out.errors.push((
            comment_line,
            format!(
                "unknown rule `{rule_text}` in waiver (one of: {})",
                RuleId::WAIVABLE_NAMES.join(", ")
            ),
        ));
        return;
    };
    let Some(reason_part) = reason_part else {
        out.errors.push((
            comment_line,
            format!(
                "waiver for `{}` has no reason — a waiver must say why",
                rule.id()
            ),
        ));
        return;
    };
    // The reason must be a non-empty quoted string.
    let reason = reason_part
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .map(str::trim)
        .unwrap_or("");
    if reason.is_empty() {
        out.errors.push((
            comment_line,
            format!(
                "waiver for `{}` has no reason — a waiver must say why",
                rule.id()
            ),
        ));
        return;
    }
    out.allows.push(Allow {
        rule,
        line: target,
        reason: reason.to_owned(),
        used: false,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;
    use crate::scope::analyze;

    fn collect_src(src: &str) -> Waivers {
        let toks = lex(src).unwrap();
        let scopes = analyze(&toks);
        collect(&toks, &scopes.test_mask, false)
    }

    #[test]
    fn trailing_waiver_targets_its_own_line() {
        let w = collect_src("let x = v[0]; // lint: allow(panic, \"len checked above\")\n");
        assert_eq!(w.allows.len(), 1);
        assert_eq!(w.allows[0].line, 1);
        assert_eq!(w.allows[0].rule, RuleId::Panic);
        assert_eq!(w.allows[0].reason, "len checked above");
    }

    #[test]
    fn standalone_waiver_targets_next_line() {
        let w = collect_src("// lint: allow(clock, \"bench harness\")\nlet t = now();\n");
        assert_eq!(w.allows.len(), 1);
        assert_eq!(w.allows[0].line, 2);
    }

    #[test]
    fn missing_reason_is_an_error() {
        let w = collect_src("// lint: allow(panic)\n");
        assert!(w.allows.is_empty());
        assert_eq!(w.errors.len(), 1);
        assert!(w.errors[0].1.contains("no reason"), "{:?}", w.errors);
    }

    #[test]
    fn empty_reason_is_an_error() {
        let w = collect_src("// lint: allow(panic, \"\")\n");
        assert!(w.allows.is_empty());
        assert_eq!(w.errors.len(), 1);
    }

    #[test]
    fn unknown_rule_is_an_error() {
        let w = collect_src("// lint: allow(frobnication, \"because\")\n");
        assert!(w.allows.is_empty());
        assert!(w.errors[0].1.contains("unknown rule `frobnication`"));
    }

    #[test]
    fn waiver_rule_cannot_be_waiver() {
        let w = collect_src("// lint: allow(waiver, \"meta\")\n");
        assert!(w.allows.is_empty());
        assert_eq!(w.errors.len(), 1);
    }

    #[test]
    fn ordering_justification_parses() {
        let w = collect_src(
            "x.store(1, Ordering::Relaxed); // lint: ordering: counter, no ordering needed\n",
        );
        assert_eq!(w.justifies.len(), 1);
        assert_eq!(w.justifies[0].line, 1);
    }

    #[test]
    fn surface_waiver_parses_with_its_reason() {
        let w = collect_src("// lint: surface: oracle for the store's tests\npub fn f() {}\n");
        assert_eq!(w.allows.len(), 1);
        assert_eq!(w.allows[0].rule, RuleId::Surface);
        assert_eq!(w.allows[0].line, 2);
        assert_eq!(w.allows[0].reason, "oracle for the store's tests");
        let w = collect_src("// lint: surface:\npub fn f() {}\n");
        assert!(w.allows.is_empty());
        assert_eq!(w.errors.len(), 1);
    }

    #[test]
    fn ordering_without_reason_is_an_error() {
        let w = collect_src("// lint: ordering:\n");
        assert!(w.justifies.is_empty());
        assert_eq!(w.errors.len(), 1);
    }

    #[test]
    fn directives_in_test_scope_are_ignored() {
        let w = collect_src(
            "#[cfg(test)]\nmod tests {\n  // lint: allow(panic, \"test\")\n  fn f() {}\n}\n",
        );
        assert!(w.allows.is_empty() && w.errors.is_empty());
    }

    #[test]
    fn doc_comments_are_not_directives() {
        let w = collect_src("/// lint: allow(panic, \"doc\")\nfn f() {}\n");
        assert!(w.allows.is_empty() && w.errors.is_empty());
    }

    #[test]
    fn unknown_directive_is_an_error() {
        let w = collect_src("// lint: deny(panic)\n");
        assert_eq!(w.errors.len(), 1);
        assert!(w.errors[0].1.contains("unknown lint directive"));
    }
}
