//! The two checked-in, machine-readable policy files:
//! `docs/depgraph.spec` (the dependency graph the layering rule
//! enforces) and `docs/env-registry.txt` (the `SWIM_*` environment
//! variable registry the env rule enforces and the README table is
//! generated from).

use std::collections::{BTreeMap, BTreeSet};

/// Parsed `docs/depgraph.spec`: for each crate, its exact
/// `[dependencies]` and `[dev-dependencies]` sets.
#[derive(Debug, Default)]
pub struct DepSpec {
    /// crate → allowed `[dependencies]`.
    pub deps: BTreeMap<String, BTreeSet<String>>,
    /// crate → allowed `[dev-dependencies]`.
    pub dev: BTreeMap<String, BTreeSet<String>>,
}

impl DepSpec {
    /// Every crate named anywhere in the spec (left-hand sides).
    pub fn crates(&self) -> BTreeSet<&str> {
        self.deps.keys().map(String::as_str).collect()
    }

    /// Is `to` reachable from `from` over normal dependency edges
    /// (optionally also `from`'s own dev edges)? A dev edge is only
    /// compiled for the crate that declares it, so past the first hop
    /// only normal edges are followed.
    pub fn reaches(&self, from: &str, to: &str, include_dev: bool) -> bool {
        if from == to {
            return true;
        }
        let first_dev = self.dev.get(from).filter(|_| include_dev);
        let mut stack: Vec<&String> = (self.deps.get(from).into_iter().flatten())
            .chain(first_dev.into_iter().flatten())
            .collect();
        let mut seen = BTreeSet::new();
        while let Some(cur) = stack.pop() {
            if cur == to {
                return true;
            }
            if seen.insert(cur) {
                stack.extend(self.deps.get(cur).into_iter().flatten());
            }
        }
        false
    }

    /// Find a cycle in the normal-dependency graph, if any, returned as
    /// the crates on it.
    pub fn find_cycle(&self) -> Option<Vec<String>> {
        // Iterative DFS with colors: 0 unvisited, 1 on stack, 2 done.
        let mut color: BTreeMap<&str, u8> = BTreeMap::new();
        for start in self.deps.keys() {
            if color.get(start.as_str()).copied().unwrap_or(0) != 0 {
                continue;
            }
            let mut path: Vec<&str> = Vec::new();
            let mut stack: Vec<(&str, bool)> = vec![(start, false)];
            while let Some((node, leaving)) = stack.pop() {
                if leaving {
                    color.insert(node, 2);
                    path.pop();
                    continue;
                }
                match color.get(node).copied().unwrap_or(0) {
                    1 => {
                        let pos = path.iter().position(|&n| n == node).unwrap_or(0);
                        return Some(path[pos..].iter().map(|s| (*s).to_owned()).collect());
                    }
                    2 => continue,
                    _ => {}
                }
                color.insert(node, 1);
                path.push(node);
                stack.push((node, true));
                if let Some(next) = self.deps.get(node) {
                    for n in next {
                        match color.get(n.as_str()).copied().unwrap_or(0) {
                            0 => stack.push((n, false)),
                            1 => {
                                let pos = path.iter().position(|&p| p == n).unwrap_or(0);
                                let mut cycle: Vec<String> =
                                    path[pos..].iter().map(|s| (*s).to_owned()).collect();
                                cycle.push(n.clone());
                                return Some(cycle);
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
        None
    }
}

/// Parse the depgraph spec. Lines: `crate: dep dep …` and
/// `dev crate: dep dep …`; `#` comments; blank lines ignored.
pub fn parse_depgraph(text: &str) -> Result<DepSpec, String> {
    let mut spec = DepSpec::default();
    // Which (dev, crate) pairs came from explicit lines — normal lines
    // auto-create an empty dev entry, which must not count as a
    // duplicate of a later explicit `dev crate:` line.
    let mut seen: BTreeSet<(bool, String)> = BTreeSet::new();
    for (no, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (dev, line) = match line.strip_prefix("dev ") {
            Some(rest) => (true, rest.trim()),
            None => (false, line),
        };
        let Some((name, deps)) = line.split_once(':') else {
            return Err(format!(
                "depgraph.spec line {}: expected `crate: deps…`",
                no + 1
            ));
        };
        let name = name.trim().to_owned();
        let set: BTreeSet<String> = deps.split_whitespace().map(str::to_owned).collect();
        if !seen.insert((dev, name.clone())) {
            return Err(format!(
                "depgraph.spec line {}: duplicate entry for `{name}`",
                no + 1
            ));
        }
        let table = if dev { &mut spec.dev } else { &mut spec.deps };
        table.insert(name.clone(), set);
        if !dev {
            spec.dev.entry(name).or_default();
        }
    }
    // Every `dev` line needs a normal line so `crates()` is complete.
    for name in spec.dev.keys() {
        if !spec.deps.contains_key(name) {
            return Err(format!(
                "depgraph.spec: `dev {name}:` has no matching `{name}:` line"
            ));
        }
    }
    Ok(spec)
}

/// One registered environment variable.
#[derive(Debug, Clone)]
pub struct EnvVar {
    /// Variable name (`SWIM_OBS`).
    pub name: String,
    /// Human description (used verbatim in the README table).
    pub description: String,
    /// 1-based line in the registry file.
    pub line: u32,
}

/// Parse `docs/env-registry.txt`: `NAME  description` per line, `#`
/// comments.
pub fn parse_env_registry(text: &str) -> Result<Vec<EnvVar>, String> {
    let mut out: Vec<EnvVar> = Vec::new();
    for (no, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, desc) = line
            .split_once(char::is_whitespace)
            .ok_or_else(|| format!("env-registry line {}: expected `NAME description`", no + 1))?;
        if out.iter().any(|v| v.name == name) {
            return Err(format!("env-registry line {}: duplicate `{name}`", no + 1));
        }
        out.push(EnvVar {
            name: name.to_owned(),
            description: desc.trim().to_owned(),
            line: no as u32 + 1,
        });
    }
    Ok(out)
}

/// Render the registry as the markdown table embedded in README.md
/// between the `env-registry` markers.
pub fn env_readme_table(vars: &[EnvVar]) -> String {
    let mut out = String::from("| Variable | Meaning |\n| --- | --- |\n");
    for v in vars {
        out.push_str(&format!("| `{}` | {} |\n", v.name, v.description));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_spec_lines() {
        let spec = parse_depgraph("# c\na: b\nb:\ndev a: c\nc:\n").unwrap();
        assert!(spec.deps["a"].contains("b"));
        assert!(spec.dev["a"].contains("c"));
        assert!(spec.deps["b"].is_empty());
        assert_eq!(spec.crates().len(), 3);
    }

    #[test]
    fn reachability_walks_transitively() {
        let spec = parse_depgraph("a: b\nb: c\nc:\nd:\ndev d: a\n").unwrap();
        assert!(spec.reaches("a", "c", false));
        assert!(!spec.reaches("c", "a", false));
        assert!(!spec.reaches("d", "c", false));
        assert!(spec.reaches("d", "c", true));
    }

    #[test]
    fn dev_edges_count_only_out_of_the_starting_crate() {
        // swim-store's store tests may use swim-query; swim-catalog,
        // which depends on swim-store, compiles none of them.
        let spec = parse_depgraph(
            "swim-obs:\nswim-query:\nswim-store: swim-obs\ndev swim-store: swim-query\n\
             swim-catalog: swim-obs swim-store\n",
        )
        .unwrap();
        assert!(!spec.reaches("swim-catalog", "swim-query", true));
        assert!(spec.reaches("swim-store", "swim-query", true));
        assert!(!spec.reaches("swim-store", "swim-query", false));
    }

    #[test]
    fn cycle_detection() {
        let spec = parse_depgraph("a: b\nb: c\nc: a\n").unwrap();
        let cycle = spec.find_cycle().unwrap();
        assert!(cycle.len() >= 3, "{cycle:?}");
        let acyclic = parse_depgraph("a: b\nb: c\nc:\n").unwrap();
        assert!(acyclic.find_cycle().is_none());
    }

    #[test]
    fn env_registry_roundtrip() {
        let vars = parse_env_registry("# hdr\nSWIM_OBS  mask of things\nSWIM_X  other\n").unwrap();
        assert_eq!(vars.len(), 2);
        assert_eq!(vars[0].name, "SWIM_OBS");
        let table = env_readme_table(&vars);
        assert!(table.contains("| `SWIM_OBS` | mask of things |"));
    }

    #[test]
    fn duplicate_env_is_an_error() {
        assert!(parse_env_registry("SWIM_A  x\nSWIM_A  y\n").is_err());
    }
}
