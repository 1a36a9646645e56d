//! Property tests for the hand-rolled lexer and the waiver parser: the
//! token stream must survive the constructs that break naive Rust
//! tokenizers (raw strings, nested block comments, lifetimes vs char
//! literals), and waiver directives must be rejected precisely.

use proptest::prelude::*;

use swim_lint::lex::{lex, TokKind};
use swim_lint::waiver;

/// Every waivable rule name, indexed by the proptest strategies below
/// (the vendored proptest has no `prop::sample::select`).
const WAIVABLE_RULES: [&str; 7] = [
    "layering",
    "panic",
    "clock",
    "ordering",
    "durability",
    "env",
    "surface",
];

/// Strings drawn from an explicit character palette — the vendored
/// proptest's regex shim only handles single-range classes, so
/// multi-class alphabets are sampled as index vectors instead.
fn palette(chars: &'static [char], min: usize, max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..chars.len(), min..max + 1)
        .prop_map(move |idxs| idxs.into_iter().map(|i| chars[i]).collect())
}

/// Arbitrary Unicode text (unpaired surrogate code points replaced).
fn arbitrary_text(max_len: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0u32..0x11_0000, 0..max_len + 1).prop_map(|cs| {
        cs.into_iter()
            .map(|c| char::from_u32(c).unwrap_or('\u{FFFD}'))
            .collect()
    })
}

/// Lex and panic the test (not the lexer) on error.
fn toks(src: &str) -> Vec<swim_lint::lex::Tok> {
    lex(src).unwrap_or_else(|e| panic!("lex failed on {src:?}: {e}"))
}

const RAW_BODY: &[char] = &[
    'a', 'b', 'c', 'x', 'y', 'z', '"', '\\', ' ', '#', 'q', 'u', 'o', 't', 'e',
];
const COMMENT_BODY: &[char] = &['a', 'b', 'c', 'x', 'y', 'z', ' ', '.', ','];
const LINE_BODY: &[char] = &['a', 'b', 'c', 'x', 'y', 'z', ' ', '=', ';'];
const REASON_BODY: &[char] = &[
    'a', 'b', 'c', 'd', 'e', 'A', 'B', 'C', '0', '1', '9', ' ', 'r', 's', 'n',
];

proptest! {
    /// The lexer is total: any input either tokenizes or reports a
    /// structured error — it never panics.
    #[test]
    fn lexer_never_panics(src in arbitrary_text(120)) {
        let _ = lex(&src);
    }

    /// A raw string hides its contents from the rule engine no matter
    /// how many quotes/escapes it holds; the next token resumes cleanly.
    #[test]
    fn raw_strings_hide_contents(body in palette(RAW_BODY, 0, 24), hashes in 1usize..4) {
        let h = "#".repeat(hashes);
        // Exclude bodies that would close the raw string early.
        prop_assume!(!body.contains(&format!("\"{h}")));
        let src = format!("let s = r{h}\"{body}\"{h}; after");
        let ts = toks(&src);
        let strs: Vec<_> = ts.iter().filter(|t| t.kind == TokKind::Str).collect();
        prop_assert_eq!(strs.len(), 1);
        prop_assert!(ts.iter().any(|t| t.kind == TokKind::Ident && t.text == "after"));
    }

    /// Block comments nest to arbitrary depth and come back out.
    #[test]
    fn nested_block_comments(depth in 1usize..6, inner in palette(COMMENT_BODY, 0, 16)) {
        let src = format!(
            "{}{}{} tail",
            "/*".repeat(depth), inner, "*/".repeat(depth)
        );
        let ts = toks(&src);
        let comments = ts.iter().filter(|t| t.kind == TokKind::BlockComment).count();
        prop_assert_eq!(comments, 1);
        prop_assert!(ts.iter().any(|t| t.kind == TokKind::Ident && t.text == "tail"));
    }

    /// `'x'` is a char literal; `'x` followed by non-quote is a
    /// lifetime — for every ASCII identifier character.
    #[test]
    fn char_vs_lifetime(c in "[a-z]{1}") {
        let ch = toks(&format!("let v = '{c}';"));
        prop_assert!(ch.iter().any(|t| t.kind == TokKind::Char), "{ch:?}");
        prop_assert!(!ch.iter().any(|t| t.kind == TokKind::Lifetime));

        let lt = toks(&format!("fn f<'{c}>(x: &'{c} u8) {{}}"));
        prop_assert!(lt.iter().any(|t| t.kind == TokKind::Lifetime), "{lt:?}");
        prop_assert!(!lt.iter().any(|t| t.kind == TokKind::Char));
    }

    /// Line numbers are monotone non-decreasing and within the file.
    #[test]
    fn line_numbers_monotone(lines in prop::collection::vec(palette(LINE_BODY, 0, 12), 1..8)) {
        let src = lines.join("\n");
        if let Ok(ts) = lex(&src) {
            let mut last = 1;
            for t in &ts {
                prop_assert!(t.line >= last);
                prop_assert!(t.line as usize <= lines.len());
                last = t.line;
            }
        }
    }

    /// A well-formed waiver parses for every waivable rule name; the
    /// reason round-trips.
    #[test]
    fn waiver_roundtrip(
        rule_idx in 0usize..WAIVABLE_RULES.len(),
        reason in palette(REASON_BODY, 1, 32),
    ) {
        let rule = WAIVABLE_RULES[rule_idx];
        prop_assume!(!reason.trim().is_empty());
        let src = format!("// lint: allow({rule}, \"{reason}\")\nlet x = 1;");
        let ts = toks(&src);
        let ws = waiver::collect(&ts, &vec![false; ts.len()], false);
        prop_assert_eq!(ws.errors.len(), 0);
        prop_assert_eq!(ws.allows.len(), 1);
        // The parser trims surrounding whitespace from the reason.
        prop_assert_eq!(ws.allows[0].reason.as_str(), reason.trim());
        prop_assert_eq!(ws.allows[0].line, 2); // standalone comment targets the next line
    }

    /// A reasonless waiver is always an error, whatever the rule.
    #[test]
    fn reasonless_waiver_is_error(rule_idx in 0usize..WAIVABLE_RULES.len()) {
        let rule = WAIVABLE_RULES[rule_idx];
        let src = format!("// lint: allow({rule})\nlet x = 1;");
        let ts = toks(&src);
        let ws = waiver::collect(&ts, &vec![false; ts.len()], false);
        prop_assert_eq!(ws.allows.len(), 0);
        prop_assert_eq!(ws.errors.len(), 1);
    }

    /// Unknown rule names are rejected with the allowed list.
    #[test]
    fn unknown_rule_is_error(rule in "[a-z]{1,10}") {
        prop_assume!(!matches!(
            rule.as_str(),
            "layering" | "panic" | "clock" | "ordering" | "durability" | "env"
        ));
        let src = format!("// lint: allow({rule}, \"some reason\")\nlet x = 1;");
        let ts = toks(&src);
        let ws = waiver::collect(&ts, &vec![false; ts.len()], false);
        prop_assert_eq!(ws.allows.len(), 0);
        prop_assert_eq!(ws.errors.len(), 1);
        prop_assert!(ws.errors[0].1.contains("panic"), "error should list valid rules");
    }

    /// Directives inside `#[cfg(test)]` scope are ignored entirely —
    /// waivers belong next to production code only.
    #[test]
    fn waivers_in_test_scope_are_ignored(reason in palette(REASON_BODY, 1, 16)) {
        prop_assume!(!reason.trim().is_empty());
        let src = format!("// lint: allow(panic, \"{reason}\")\nlet x = 1;");
        let ts = toks(&src);
        // Whole file marked as test scope.
        let ws = waiver::collect(&ts, &vec![true; ts.len()], false);
        prop_assert_eq!(ws.allows.len(), 0);
        prop_assert_eq!(ws.errors.len(), 0);
        // Whole-file test target (tests/*.rs): same outcome.
        let ws = waiver::collect(&ts, &vec![false; ts.len()], true);
        prop_assert_eq!(ws.allows.len(), 0);
        prop_assert_eq!(ws.errors.len(), 0);
    }
}

/// Doc comments are not waiver carriers: `/// lint: allow(...)` text in
/// documentation must not parse as a directive (deterministic, not a
/// property — the corpus is fixed).
#[test]
fn doc_comments_are_not_directives() {
    let src = "/// lint: allow(panic, \"doc text, not a directive\")\nfn f() {}\n";
    let ts = toks(src);
    let ws = waiver::collect(&ts, &vec![false; ts.len()], false);
    assert!(ws.allows.is_empty());
    assert!(ws.errors.is_empty());
}
