//! Workspace discovery: members from the root manifest, then each
//! crate's manifest and source files classified by cargo target kind.
//!
//! Classification mirrors cargo's auto-discovery for this workspace's
//! layout: `src/**` is library code (`src/main.rs` and `src/bin/**` are
//! binaries), `tests/*.rs` / `benches/*.rs` / `examples/*.rs` are
//! top-level-only targets. Subdirectories of `tests/` are *not*
//! collected — cargo doesn't compile them, and that is where lint test
//! fixtures (deliberately violating code) live.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use crate::manifest;

/// Which cargo target a source file belongs to. Decides rule scope:
/// `Lib` is held to the strictest policies; tests and benches get
/// dev-dependencies and are exempt from the panic rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `src/**` minus binaries.
    Lib,
    /// `src/main.rs` and `src/bin/**`.
    Bin,
    /// `tests/*.rs`.
    Test,
    /// `benches/*.rs`.
    Bench,
    /// `examples/*.rs` (compiled against dev-dependencies, like tests).
    Example,
}

impl FileKind {
    /// Target kinds that compile against `[dev-dependencies]`.
    pub fn uses_dev_deps(self) -> bool {
        matches!(self, FileKind::Test | FileKind::Bench | FileKind::Example)
    }

    /// Target kinds that are test-only end to end.
    pub fn is_test_target(self) -> bool {
        matches!(self, FileKind::Test | FileKind::Bench)
    }
}

/// One source file, loaded.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    /// Cargo target classification.
    pub kind: FileKind,
    /// File contents.
    pub text: String,
}

/// One workspace member.
#[derive(Debug)]
pub struct CrateInfo {
    /// Package name (`swim-store`).
    pub name: String,
    /// Library target name (`swim_store`).
    pub lib_name: String,
    /// Crate directory relative to the root (`crates/store`; empty for
    /// the root package).
    pub rel_dir: String,
    /// Manifest path relative to the root.
    pub manifest_rel: String,
    /// `[dependencies]` keys.
    pub deps: BTreeSet<String>,
    /// `[dev-dependencies]` keys.
    pub dev_deps: BTreeSet<String>,
    /// Sources, sorted by path.
    pub files: Vec<SourceFile>,
}

impl CrateInfo {
    /// `true` for the vendored stand-ins under `crates/compat/`.
    pub fn is_compat(&self) -> bool {
        self.rel_dir.starts_with("crates/compat/")
    }
}

/// The loaded workspace.
#[derive(Debug)]
pub struct Workspace {
    /// Absolute root directory.
    pub root: PathBuf,
    /// Members sorted by name, root package first by its name ordering.
    pub crates: Vec<CrateInfo>,
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn read(path: &Path) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Collect `dir/*.rs` (non-recursive), sorted.
fn flat_rs(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut out: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_file() && p.extension().is_some_and(|e| e == "rs"))
        .collect();
    out.sort();
    out
}

/// Collect `dir/**/*.rs` (recursive), sorted.
fn deep_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            deep_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

fn load_crate(root: &Path, dir: &Path) -> Result<CrateInfo, String> {
    let manifest_path = dir.join("Cargo.toml");
    let m = manifest::parse(&read(&manifest_path)?);
    let name = m
        .name
        .ok_or_else(|| format!("{}: no package name", manifest_path.display()))?;
    let mut files = Vec::new();

    // src/** — Lib except main.rs and bin/**.
    let src = dir.join("src");
    let bin_dir = src.join("bin");
    let mut src_files = Vec::new();
    deep_rs(&src, &mut src_files);
    for p in src_files {
        let kind = if p.starts_with(&bin_dir) || p.file_name().is_some_and(|f| f == "main.rs") {
            FileKind::Bin
        } else {
            FileKind::Lib
        };
        files.push((p, kind));
    }
    for p in flat_rs(&dir.join("tests")) {
        files.push((p, FileKind::Test));
    }
    for p in flat_rs(&dir.join("benches")) {
        files.push((p, FileKind::Bench));
    }
    for p in flat_rs(&dir.join("examples")) {
        files.push((p, FileKind::Example));
    }

    let mut sources = Vec::new();
    for (p, kind) in files {
        sources.push(SourceFile {
            rel_path: rel(root, &p),
            kind,
            text: read(&p)?,
        });
    }
    sources.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));

    Ok(CrateInfo {
        lib_name: name.replace('-', "_"),
        name,
        rel_dir: rel(root, dir),
        manifest_rel: rel(root, &manifest_path),
        deps: m.deps,
        dev_deps: m.dev_deps,
        files: sources,
    })
}

/// Load the workspace rooted at `root` (the directory holding the
/// workspace `Cargo.toml`).
pub fn load(root: &Path) -> Result<Workspace, String> {
    let root = root
        .canonicalize()
        .map_err(|e| format!("{}: {e}", root.display()))?;
    let root_manifest_path = root.join("Cargo.toml");
    let root_manifest = manifest::parse(&read(&root_manifest_path)?);
    let mut crates = Vec::new();
    if root_manifest.name.is_some() {
        crates.push(load_crate(&root, &root)?);
    }
    for member in &root_manifest.members {
        crates.push(load_crate(&root, &root.join(member))?);
    }
    crates.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(Workspace { root, crates })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_this_workspace() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let ws = load(&root).unwrap();
        let lint = ws.crates.iter().find(|c| c.name == "swim-lint").unwrap();
        assert_eq!(lint.lib_name, "swim_lint");
        assert!(lint
            .files
            .iter()
            .any(|f| f.rel_path == "crates/lint/src/lex.rs"));
        // Fixture sources under tests/fixtures/ must NOT be collected
        // (tests/fixtures_rules.rs, the flat test target, is fine).
        assert!(lint
            .files
            .iter()
            .all(|f| !f.rel_path.contains("tests/fixtures/")));
        let store = ws.crates.iter().find(|c| c.name == "swim-store").unwrap();
        assert!(store.deps.contains("swim-obs"));
        let query = ws.crates.iter().find(|c| c.name == "swim-query").unwrap();
        assert!(query
            .files
            .iter()
            .any(|f| f.kind == FileKind::Bin && f.rel_path.ends_with("swim-catalog.rs")));
    }
}
