//! A deliberately tiny `Cargo.toml` reader.
//!
//! The layering rule needs three things from a manifest: the package
//! name, the `[dependencies]` key set, and the `[dev-dependencies]` key
//! set — plus the `members` array from the workspace root. The
//! workspace's manifests are plain (no target-specific tables, no
//! inline multi-line gymnastics), so a line-oriented scan with a
//! quote-aware comment stripper covers them exactly.

use std::collections::BTreeSet;

/// The subset of a manifest the lint needs.
#[derive(Debug, Default)]
pub struct Manifest {
    /// `package.name`, if the file declares a package.
    pub name: Option<String>,
    /// `[dependencies]` keys (the part before `.` or `=`).
    pub deps: BTreeSet<String>,
    /// `[dev-dependencies]` keys.
    pub dev_deps: BTreeSet<String>,
    /// `[workspace] members`, in file order.
    pub members: Vec<String>,
}

/// Strip a `#` comment, honouring double quotes.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Extract all double-quoted strings from `text`.
fn quoted_strings(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(start) = rest.find('"') {
        let after = &rest[start + 1..];
        let Some(end) = after.find('"') else { break };
        out.push(after[..end].to_owned());
        rest = &after[end + 1..];
    }
    out
}

/// Parse manifest `text`. Never fails: unknown structure is ignored,
/// which is the right behaviour for a linter that only audits known
/// tables.
pub fn parse(text: &str) -> Manifest {
    let mut m = Manifest::default();
    let mut section = String::new();
    let mut collecting_members = false;
    let mut member_buf = String::new();

    for raw in text.lines() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if collecting_members {
            member_buf.push_str(line);
            member_buf.push('\n');
            if line.contains(']') {
                collecting_members = false;
                m.members = quoted_strings(&member_buf);
            }
            continue;
        }
        if line.starts_with('[') {
            section = line.trim_matches(|c| c == '[' || c == ']').to_owned();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        let value = value.trim();
        match section.as_str() {
            "package" if key == "name" => {
                m.name = quoted_strings(value).into_iter().next();
            }
            "workspace" if key == "members" => {
                if value.contains(']') {
                    m.members = quoted_strings(value);
                } else {
                    collecting_members = true;
                    member_buf = value.to_owned();
                }
            }
            "dependencies" | "dev-dependencies" => {
                // `rand.workspace = true` and `rand = { … }` both name
                // the dependency before the first `.`.
                let dep = key.split('.').next().unwrap_or(key).trim().to_owned();
                if !dep.is_empty() {
                    if section == "dependencies" {
                        m.deps.insert(dep);
                    } else {
                        m.dev_deps.insert(dep);
                    }
                }
            }
            _ => {}
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_package_and_deps() {
        let m = parse(
            "[package]\nname = \"swim-store\"\n\n[dependencies]\nswim-obs.workspace = true\n\
             swim-trace = { path = \"../trace\" }\n\n[dev-dependencies]\nproptest.workspace = true\n",
        );
        assert_eq!(m.name.as_deref(), Some("swim-store"));
        assert_eq!(
            m.deps.iter().collect::<Vec<_>>(),
            ["swim-obs", "swim-trace"]
        );
        assert_eq!(m.dev_deps.iter().collect::<Vec<_>>(), ["proptest"]);
    }

    #[test]
    fn parses_multiline_members_with_comments() {
        let m = parse(
            "[workspace]\nresolver = \"2\"\nmembers = [\n    \"crates/a\", # trailing\n    \
             \"crates/b\",\n]\n",
        );
        assert_eq!(m.members, ["crates/a", "crates/b"]);
    }

    #[test]
    fn default_members_are_not_members() {
        let m = parse(
            "[workspace]\ndefault-members = [\".\", \"crates/a\"]\nmembers = [\"crates/a\"]\n",
        );
        assert_eq!(m.members, ["crates/a"]);
    }

    #[test]
    fn comment_hash_inside_string_survives() {
        let m = parse("[package]\nname = \"has#hash\"\n");
        assert_eq!(m.name.as_deref(), Some("has#hash"));
    }
}
