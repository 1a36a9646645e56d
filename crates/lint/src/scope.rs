//! Token-stream structure: which tokens are test-scoped, and which
//! function encloses a given token.
//!
//! Rules that say "non-test library code" need to know that a token
//! lives under `#[cfg(test)] mod tests { … }` or `#[test] fn … { … }`.
//! Rather than parse items, we walk the token stream: an attribute whose
//! contents mention `test` (`#[test]`, `#[cfg(test)]`,
//! `#[cfg(all(test, …))]`) marks the *next item* — everything up to the
//! matching close brace of the item's body, or its terminating `;` —
//! as test-scoped. A file that opens with the inner attribute
//! `#![cfg(test)]` is a test-only module: all of it is test-scoped.
//!
//! The same walk records `fn` body spans so the durability rule can ask
//! "is this `fs::rename` inside one of the publish helpers?".

use crate::lex::{Tok, TokKind};

/// Structure extracted from one file's token stream.
pub struct Scopes {
    /// `mask[i]` is `true` when token `i` is inside a `#[test]`/
    /// `#[cfg(test)]` item.
    pub test_mask: Vec<bool>,
    /// `(name, start, end)` token-index spans of every `fn` body,
    /// innermost-last for any given token.
    pub fns: Vec<(String, usize, usize)>,
}

impl Scopes {
    /// The name of the innermost function whose body contains token `i`,
    /// if any.
    pub fn enclosing_fn(&self, i: usize) -> Option<&str> {
        self.fns
            .iter()
            .filter(|(_, s, e)| *s <= i && i <= *e)
            .min_by_key(|(_, s, e)| e - s)
            .map(|(n, _, _)| n.as_str())
    }
}

/// Indices of non-comment tokens, in order — structure scanning ignores
/// comments entirely (a `{` in a comment is just text).
fn code_indices(toks: &[Tok]) -> Vec<usize> {
    (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect()
}

/// Analyze one token stream.
pub fn analyze(toks: &[Tok]) -> Scopes {
    let code = code_indices(toks);
    let mut test_mask = vec![false; toks.len()];
    let mut fns = Vec::new();

    // A leading `#![cfg(test)]` gates the whole file.
    let mut c = 0usize;
    while c + 2 < code.len() && toks[code[c]].is_punct("#") && toks[code[c + 1]].is_punct("!") {
        let Some(close) = match_open(toks, &code, c + 2, "[", "]") else {
            break;
        };
        if attr_is_test(toks, &code[c + 3..close]) {
            test_mask.iter_mut().for_each(|m| *m = true);
            break;
        }
        c = close + 1;
    }

    // Pass 1: attributes → test ranges.
    let mut c = 0usize;
    while c < code.len() {
        if toks[code[c]].is_punct("#") && c + 1 < code.len() && toks[code[c + 1]].is_punct("[") {
            let Some(attr_close) = match_open(toks, &code, c + 1, "[", "]") else {
                break; // malformed; stop attributing, rules still run
            };
            let is_test = attr_is_test(toks, &code[c + 2..attr_close]);
            if is_test {
                // Skip any further attributes on the same item.
                let mut j = attr_close + 1;
                while j + 1 < code.len()
                    && toks[code[j]].is_punct("#")
                    && toks[code[j + 1]].is_punct("[")
                {
                    match match_open(toks, &code, j + 1, "[", "]") {
                        Some(close) => j = close + 1,
                        None => break,
                    }
                }
                let end = item_end(toks, &code, j).unwrap_or(code.len() - 1);
                for &tok_idx in &code[c..=end] {
                    test_mask[tok_idx] = true;
                }
                // Comment tokens interleaved in the range count too.
                if let (Some(&first), Some(&last)) = (code.get(c), code.get(end)) {
                    for (idx, mask) in test_mask.iter_mut().enumerate() {
                        if idx >= first && idx <= last && toks[idx].is_comment() {
                            *mask = true;
                        }
                    }
                }
                c = end + 1;
                continue;
            }
            c = attr_close + 1;
            continue;
        }
        c += 1;
    }

    // Pass 2: `fn name … { body }` spans (over code tokens; bodies nest).
    let mut c = 0usize;
    while c < code.len() {
        if toks[code[c]].is_ident("fn")
            && c + 1 < code.len()
            && toks[code[c + 1]].kind == TokKind::Ident
        {
            let name = toks[code[c + 1]].text.clone();
            if let Some((open, close)) = fn_body(toks, &code, c + 2) {
                fns.push((name, code[open], code[close]));
            }
        }
        c += 1;
    }

    Scopes { test_mask, fns }
}

/// Does an attribute's token slice mark a test item? True for `test`
/// alone and for `cfg(… test …)`.
fn attr_is_test(toks: &[Tok], inner: &[usize]) -> bool {
    let idents: Vec<&str> = inner
        .iter()
        .filter(|&&i| toks[i].kind == TokKind::Ident)
        .map(|&i| toks[i].text.as_str())
        .collect();
    match idents.first() {
        Some(&"test") => true,
        Some(&"cfg") => idents[1..].contains(&"test"),
        _ => false,
    }
}

/// Given `code[open_idx]` an opening delimiter, return the code-index of
/// its matching close, tracking all three delimiter kinds.
fn match_open(
    toks: &[Tok],
    code: &[usize],
    open_idx: usize,
    open: &str,
    close: &str,
) -> Option<usize> {
    let mut depth = 0i32;
    for (k, &ti) in code.iter().enumerate().skip(open_idx) {
        if toks[ti].is_punct(open) {
            depth += 1;
        } else if toks[ti].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Where does the item starting at `code[from]` end? At the first `;` at
/// delimiter depth 0 (use/const/static/type items), or at the brace
/// matching the first `{` at depth 0 (mod/fn/impl/struct bodies).
fn item_end(toks: &[Tok], code: &[usize], from: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, &ti) in code.iter().enumerate().skip(from) {
        let t = &toks[ti];
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if depth == 0 && t.is_punct(";") {
            return Some(k);
        } else if depth == 0 && t.is_punct("{") {
            return match_open(toks, code, k, "{", "}");
        }
    }
    None
}

/// Find a fn's body braces starting after its name: the first `{` at
/// paren/bracket depth 0, unless a `;` (trait method declaration) comes
/// first. Returns code-indices of `{` and `}`.
fn fn_body(toks: &[Tok], code: &[usize], from: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    for (k, &ti) in code.iter().enumerate().skip(from) {
        let t = &toks[ti];
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if depth == 0 && t.is_punct(";") {
            return None;
        } else if depth == 0 && t.is_punct("{") {
            let close = match_open(toks, code, k, "{", "}")?;
            return Some((k, close));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn mask_for(src: &str, ident: &str) -> bool {
        let toks = lex(src).unwrap();
        let scopes = analyze(&toks);
        let idx = toks
            .iter()
            .position(|t| t.is_ident(ident))
            .unwrap_or_else(|| panic!("{ident} not found"));
        scopes.test_mask[idx]
    }

    #[test]
    fn cfg_test_mod_is_test_scoped() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n fn inner() { target(); }\n}\nfn after() {}";
        assert!(mask_for(src, "target"));
        assert!(!mask_for(src, "live"));
        assert!(!mask_for(src, "after"));
    }

    #[test]
    fn test_attr_fn_is_test_scoped() {
        let src = "#[test]\nfn check() { victim(); }\nfn real() { keeper(); }";
        assert!(mask_for(src, "victim"));
        assert!(!mask_for(src, "keeper"));
    }

    #[test]
    fn cfg_all_test_counts() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nmod m { fn t() { inside(); } }";
        assert!(mask_for(src, "inside"));
    }

    #[test]
    fn non_test_cfg_does_not_scope() {
        let src = "#[cfg(unix)]\nfn platform() { body(); }";
        assert!(!mask_for(src, "body"));
    }

    #[test]
    fn stacked_attributes_extend_to_item() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nfn t() { hidden(); }\nfn live() {}";
        assert!(mask_for(src, "hidden"));
        assert!(!mask_for(src, "live"));
    }

    #[test]
    fn semicolon_item_scope_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn live() { after(); }";
        assert!(mask_for(src, "HashMap"));
        assert!(!mask_for(src, "after"));
    }

    #[test]
    fn inner_cfg_test_gates_the_whole_file() {
        let src = "//! Oracle.\n#![allow(dead_code)]\n#![cfg(test)]\npub fn oracle() { body(); }";
        assert!(mask_for(src, "oracle"));
        assert!(mask_for(src, "body"));
        assert!(!mask_for(
            "#![warn(missing_docs)]\npub fn live() {}",
            "live"
        ));
    }

    #[test]
    fn enclosing_fn_names() {
        let toks = lex("fn outer() { helper(); } fn write_manifest() { rename(); }").unwrap();
        let scopes = analyze(&toks);
        let rename = toks.iter().position(|t| t.is_ident("rename")).unwrap();
        assert_eq!(scopes.enclosing_fn(rename), Some("write_manifest"));
        let helper = toks.iter().position(|t| t.is_ident("helper")).unwrap();
        assert_eq!(scopes.enclosing_fn(helper), Some("outer"));
    }

    #[test]
    fn nested_fn_innermost_wins() {
        let toks = lex("fn outer() { fn inner() { x(); } }").unwrap();
        let scopes = analyze(&toks);
        let x = toks.iter().position(|t| t.is_ident("x")).unwrap();
        assert_eq!(scopes.enclosing_fn(x), Some("inner"));
    }
}
