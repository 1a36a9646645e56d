//! The catalog `MANIFEST`: a versioned, human-readable index of every
//! shard in the dataset.
//!
//! ```text
//! swim-catalog-manifest v1
//! generation 3
//! shards 2
//! shard <TAB-separated fields: file, v=, gen=, jobs=, bytes=, machines=,
//!        io=, task=, zmin=c0,…,c9, zmax=c0,…,c9, kind=label>
//! ```
//!
//! The manifest carries everything pruning and O(1) statistics need —
//! per-shard job counts, byte sizes, and a *shard-level zone map* (the
//! `[min, max]` of all ten numeric columns over the whole shard, i.e. the
//! union of the shard's chunk zone maps) — so a planner rules shards out
//! without opening a single `.swim` file. Writers always replace the
//! manifest atomically (write `MANIFEST.tmp`, then rename): readers see
//! either the old generation or the new one, never a torn mix.

use crate::CatalogError;
use std::io::Read;
use std::path::Path;
use swim_store::{ZoneMap, ZONE_COLUMNS};

/// Manifest file name within a catalog directory.
pub const MANIFEST_FILE: &str = "MANIFEST";
/// First line of every manifest this build writes and reads.
pub const MANIFEST_HEADER: &str = "swim-catalog-manifest v1";

/// Bytes of the `MANIFEST` a peek reads. The two lines it parses are at
/// most 57 (a 24-byte header, `generation ` and a 20-digit number, two
/// newlines).
const MANIFEST_HEAD: usize = 128;

/// One shard of the dataset: an immutable `.swim` store file plus the
/// statistics the planner prunes on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    /// File name within the catalog directory (never a path).
    pub file: String,
    /// Store format version the shard was written with, as its line
    /// records it. A catalog listing a shard of a version other than
    /// `swim_store::format::VERSION` still opens (and vacuums); reading
    /// that shard is refused.
    pub store_version: u16,
    /// Catalog generation in which this shard file was created. Shard
    /// files are immutable once renamed into place, so `(file,
    /// created_gen)` is a sound cache key.
    pub created_gen: u64,
    /// Number of jobs in the shard.
    pub jobs: u64,
    /// Size of the shard file in bytes.
    pub bytes: u64,
    /// Nominal cluster size recorded in the shard's header.
    pub machines: u32,
    /// Σ (input + shuffle + output) over the shard's jobs (saturating).
    pub bytes_moved: u64,
    /// Σ (map + reduce task-time) over the shard's jobs (saturating).
    pub task_time: u64,
    /// Shard-level zone map: `[min, max]` for all ten numeric columns
    /// over every job in the shard (union of the chunk zone maps).
    pub zone: ZoneMap,
    /// Workload label recorded in the shard's header.
    pub kind_label: String,
}

impl ShardEntry {
    /// The shard's submit-time window `[min, max]`, from the zone map.
    pub fn submit_window(&self) -> (u64, u64) {
        (
            self.zone.min[ZoneMap::SUBMIT],
            self.zone.max[ZoneMap::SUBMIT],
        )
    }
}

/// Parsed manifest: the dataset generation plus one entry per shard, in
/// ingest order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// Monotonic dataset generation; bumped by every ingest and compact.
    pub generation: u64,
    /// Shards in ingest order.
    pub shards: Vec<ShardEntry>,
}

/// Escape a workload label for single-line storage (`\\`, `\t`, `\n`).
fn escape(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for c in label.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

fn zone_list(values: &[u64; ZONE_COLUMNS]) -> String {
    values
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

impl Manifest {
    /// Serialize to the on-disk text form.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(MANIFEST_HEADER);
        out.push('\n');
        out.push_str(&format!("generation {}\n", self.generation));
        out.push_str(&format!("shards {}\n", self.shards.len()));
        for s in &self.shards {
            out.push_str(&format!(
                "shard\t{}\tv={}\tgen={}\tjobs={}\tbytes={}\tmachines={}\tio={}\ttask={}\t\
                 zmin={}\tzmax={}\tkind={}\n",
                s.file,
                s.store_version,
                s.created_gen,
                s.jobs,
                s.bytes,
                s.machines,
                s.bytes_moved,
                s.task_time,
                zone_list(&s.zone.min),
                zone_list(&s.zone.max),
                escape(&s.kind_label),
            ));
        }
        out
    }

    /// Parse the on-disk text form. `path` is used for error messages
    /// only.
    pub fn decode(text: &str, path: &Path) -> Result<Manifest, CatalogError> {
        let bad = |context: String| CatalogError::Manifest {
            path: path.to_path_buf(),
            context,
        };
        let mut lines = text.lines();
        match lines.next() {
            Some(MANIFEST_HEADER) => {}
            Some(other) => {
                return Err(bad(format!(
                    "unsupported header {other:?} (expected {MANIFEST_HEADER:?})"
                )))
            }
            None => return Err(bad("empty manifest".into())),
        }
        let field = |line: Option<&str>, name: &str| -> Result<u64, CatalogError> {
            let line = line.ok_or_else(|| bad(format!("missing `{name}` line")))?;
            let value = line
                .strip_prefix(name)
                .and_then(|v| v.strip_prefix(' '))
                .ok_or_else(|| bad(format!("expected `{name} N`, got {line:?}")))?;
            value
                .parse()
                .map_err(|_| bad(format!("non-numeric `{name}` value {value:?}")))
        };
        let generation = field(lines.next(), "generation")?;
        let count = field(lines.next(), "shards")? as usize;
        let mut shards = Vec::with_capacity(count.min(1 << 16));
        for (i, line) in lines.enumerate() {
            let entry = Self::decode_shard(line)
                .map_err(|context| bad(format!("shard line {}: {context}", i + 1)))?;
            shards.push(entry);
        }
        if shards.len() != count {
            return Err(bad(format!(
                "shard count {count} disagrees with {} shard lines",
                shards.len()
            )));
        }
        Ok(Manifest { generation, shards })
    }

    /// Cheap on-disk generation peek: the first two `MANIFEST` lines, from
    /// one bounded read of the file's head — no heap, and a cost that does
    /// not grow with the shard list below them. Writers replace the file
    /// atomically (fsynced temp + rename), so a read sees either the old or
    /// the new manifest, never a torn mix.
    pub fn peek_generation(manifest: &Path) -> Option<u64> {
        let mut file = std::fs::File::open(manifest).ok()?;
        let mut head = [0u8; MANIFEST_HEAD];
        let mut len = 0;
        while len < head.len() {
            match file.read(&mut head[len..]) {
                Ok(0) => break,
                Ok(n) => len += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return None,
            }
        }
        Self::parse_head(&head[..len], len < head.len())
    }

    /// The generation a manifest starting with `head` declares; `whole` says
    /// that `head` is the entire file. Anything but the header line and a
    /// `generation N` line is `None`, as is a second line that `head` cuts
    /// short — half a number is not a generation.
    fn parse_head(head: &[u8], whole: bool) -> Option<u64> {
        let text = match std::str::from_utf8(head) {
            Ok(text) => text,
            // The cut fell inside a multi-byte character further down.
            Err(e) if !whole && e.error_len().is_none() => {
                std::str::from_utf8(&head[..e.valid_up_to()]).ok()?
            }
            Err(_) => return None,
        };
        let (header, rest) = text.split_once('\n')?;
        if !header.starts_with("swim-catalog-manifest") {
            return None;
        }
        let line = match rest.split_once('\n') {
            Some((line, _)) => line.strip_suffix('\r').unwrap_or(line),
            None if whole => rest,
            None => return None,
        };
        line.strip_prefix("generation ")?.parse().ok()
    }

    fn decode_shard(line: &str) -> Result<ShardEntry, String> {
        let mut fields = line.split('\t');
        if fields.next() != Some("shard") {
            return Err(format!("expected a `shard` record, got {line:?}"));
        }
        // Entries must stay inside the catalog directory: no separators
        // on any platform, no parent/self components.
        let file = fields
            .next()
            .filter(|f| {
                !f.is_empty() && !f.contains('/') && !f.contains('\\') && *f != ".." && *f != "."
            })
            .ok_or("missing or path-like file name")?
            .to_owned();
        let mut take = |key: &str| -> Result<String, String> {
            let field = fields.next().ok_or_else(|| format!("missing `{key}=`"))?;
            field
                .strip_prefix(key)
                .and_then(|f| f.strip_prefix('='))
                .map(str::to_owned)
                .ok_or_else(|| format!("expected `{key}=…`, got {field:?}"))
        };
        // Parsed at the field's own width, so `v=65538` is an error, not
        // version 2.
        fn num<T: std::str::FromStr>(key: &str, value: String) -> Result<T, String> {
            value
                .parse()
                .map_err(|_| format!("non-numeric or out-of-range `{key}` value {value:?}"))
        }
        let store_version: u16 = num("v", take("v")?)?;
        let created_gen: u64 = num("gen", take("gen")?)?;
        let jobs: u64 = num("jobs", take("jobs")?)?;
        let bytes: u64 = num("bytes", take("bytes")?)?;
        let machines: u32 = num("machines", take("machines")?)?;
        let bytes_moved: u64 = num("io", take("io")?)?;
        let task_time: u64 = num("task", take("task")?)?;
        let zone_of = |key: &str, value: String| -> Result<[u64; ZONE_COLUMNS], String> {
            let mut out = [0u64; ZONE_COLUMNS];
            let parts: Vec<&str> = value.split(',').collect();
            if parts.len() != ZONE_COLUMNS {
                return Err(format!(
                    "`{key}` has {} columns (expected {ZONE_COLUMNS})",
                    parts.len()
                ));
            }
            for (slot, part) in out.iter_mut().zip(parts) {
                *slot = part
                    .parse()
                    .map_err(|_| format!("non-numeric `{key}` column {part:?}"))?;
            }
            Ok(out)
        };
        let min = zone_of("zmin", take("zmin")?)?;
        let max = zone_of("zmax", take("zmax")?)?;
        let kind_label = unescape(&take("kind")?);
        if fields.next().is_some() {
            return Err("trailing fields after `kind=`".into());
        }
        Ok(ShardEntry {
            file,
            store_version,
            created_gen,
            jobs,
            bytes,
            machines,
            bytes_moved,
            task_time,
            zone: ZoneMap { min, max },
            kind_label,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn entry(file: &str, kind: &str) -> ShardEntry {
        ShardEntry {
            file: file.into(),
            store_version: 2,
            created_gen: 3,
            jobs: 1200,
            bytes: 34567,
            machines: 100,
            bytes_moved: 1 << 40,
            task_time: 987654,
            zone: ZoneMap {
                min: [0, 10, 1, 0, 0, 0, 5, 0, 1, 0],
                max: [1199, 99999, 400, u64::MAX, 7, 9, 100, 55, 30, 2],
            },
            kind_label: kind.into(),
        }
    }

    #[test]
    fn round_trips_including_awkward_labels() {
        let m = Manifest {
            generation: 7,
            shards: vec![
                entry("shard-g000001-0000.swim", "CC-e"),
                entry("shard-g000007-0000.swim", "tab\tand\\slash and space"),
            ],
        };
        let text = m.encode();
        let back = Manifest::decode(&text, &PathBuf::from("MANIFEST")).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn empty_manifest_round_trips() {
        let m = Manifest::default();
        let back = Manifest::decode(&m.encode(), &PathBuf::from("MANIFEST")).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn rejects_malformed_manifests() {
        let p = PathBuf::from("MANIFEST");
        assert!(Manifest::decode("", &p).is_err());
        assert!(Manifest::decode("not-a-manifest v9\ngeneration 0\nshards 0\n", &p).is_err());
        // Count disagreement.
        let mut text = Manifest {
            generation: 1,
            shards: vec![entry("a.swim", "x")],
        }
        .encode();
        text = text.replace("shards 1", "shards 2");
        assert!(Manifest::decode(&text, &p).is_err());
        // Path-like file names are rejected (entries must stay inside the
        // catalog directory) — on every platform's separator.
        for evil_name in ["../../etc/passwd", "..\\..\\evil.swim", "..", "."] {
            let evil = Manifest {
                generation: 1,
                shards: vec![entry(evil_name, "x")],
            };
            assert!(
                Manifest::decode(&evil.encode(), &p).is_err(),
                "{evil_name:?} must be rejected"
            );
        }
        // Truncated shard line.
        let truncated = "swim-catalog-manifest v1\ngeneration 0\nshards 1\nshard\tx.swim\tv=2\n";
        assert!(Manifest::decode(truncated, &p).is_err());
    }

    /// The peek as it was before it became a bounded read — the whole
    /// file read and validated — kept as the oracle for the new one.
    fn peek_generation_whole_file(manifest: &Path) -> Option<u64> {
        let text = std::fs::read_to_string(manifest).ok()?;
        let mut lines = text.lines();
        if !lines.next()?.starts_with("swim-catalog-manifest") {
            return None;
        }
        lines.next()?.strip_prefix("generation ")?.parse().ok()
    }

    fn scratch_manifest(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("swim-catalog-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(MANIFEST_FILE)
    }

    /// Every way of putting a head together from these parts — empty,
    /// one line, no trailing newline, CRLF, a first line longer than the
    /// head, bad UTF-8 after the second line, a character cut by the end
    /// of the head, 20-digit and overflowing generations — reads the
    /// same through the bounded peek as through the whole-file one.
    #[test]
    fn bounded_peek_agrees_with_the_whole_file_peek() {
        let headers: [&[u8]; 6] = [
            b"swim-catalog-manifest v1",
            b"swim-catalog-manifest",
            b"swim-catalog-manifest v1\r",
            b"not-a-manifest v9",
            &[b'x'; 200],
            b"",
        ];
        let generations: [&[u8]; 12] = [
            b"generation 3",
            b"generation 0",
            b"generation 18446744073709551615",
            b"generation 18446744073709551616",
            b"generation 00000000000000000042",
            b"generation +7",
            b"generation -1",
            b"generation  3",
            b"generation 3 ",
            b"generation",
            b"Generation 3",
            b"",
        ];
        let long_tail = [b"\nshards 0\n".as_slice(), &[b'a'; 300]].concat();
        let wide_tail = ["\n", &"é".repeat(100), "\n"].concat();
        let tails: [&[u8]; 9] = [
            b"",
            b"\n",
            b"\r\n",
            b"\r",
            b"\nshards 1\nshard\tshard-000001.swim\tv=2\n",
            b"\r\nshards 0\r\n",
            b"\nshards 1\n\xff\xfe\n",
            &long_tail,
            wide_tail.as_bytes(),
        ];
        let manifest = scratch_manifest("peek-oracle");
        let mut agreed_on_some = 0;
        let mut check = |content: &[u8]| {
            std::fs::write(&manifest, content).unwrap();
            let want = peek_generation_whole_file(&manifest);
            assert_eq!(
                Manifest::peek_generation(&manifest),
                want,
                "manifest {:?}",
                String::from_utf8_lossy(content)
            );
            agreed_on_some += usize::from(want.is_some());
        };
        check(b"");
        for header in headers {
            check(header);
            for generation in generations {
                for tail in tails {
                    check(&[header, b"\n", generation, tail].concat());
                }
            }
        }
        assert!(agreed_on_some > 50, "the battery must reach `Some`");
        std::fs::remove_file(&manifest).unwrap();
        assert_eq!(Manifest::peek_generation(&manifest), None, "no file");
    }

    /// Where the bounded peek differs, on manifests the catalog never
    /// writes: it does not see past its head. A header line padded
    /// beyond it hides the generation (refused — the server keeps its
    /// snapshot and counts a failed peek), and damage further down is
    /// left for `Catalog::open` to find when the generation moves.
    #[test]
    fn bounded_peek_reads_only_the_head() {
        let manifest = scratch_manifest("peek-head");
        let padded = [
            b"swim-catalog-manifest v1 ".as_slice(),
            &[b' '; MANIFEST_HEAD],
            b"\ngeneration 3\n",
        ]
        .concat();
        std::fs::write(&manifest, &padded).unwrap();
        assert_eq!(peek_generation_whole_file(&manifest), Some(3));
        assert_eq!(Manifest::peek_generation(&manifest), None);
        // A number the head cuts in two is not a generation.
        let cut = [
            b"swim-catalog-manifest v1".as_slice(),
            &[b' '; MANIFEST_HEAD - 24 - 1 - 12],
            b"\ngeneration 34\n",
        ]
        .concat();
        assert!(cut[..MANIFEST_HEAD].ends_with(b"generation 3"));
        std::fs::write(&manifest, &cut).unwrap();
        assert_eq!(peek_generation_whole_file(&manifest), Some(34));
        assert_eq!(Manifest::peek_generation(&manifest), None);

        let damaged = [
            b"swim-catalog-manifest v1\ngeneration 3\nshards 0\n".as_slice(),
            &[b'a'; MANIFEST_HEAD],
            b"\xff\n",
        ]
        .concat();
        std::fs::write(&manifest, &damaged).unwrap();
        assert_eq!(peek_generation_whole_file(&manifest), None);
        assert_eq!(Manifest::peek_generation(&manifest), Some(3));
        std::fs::remove_file(&manifest).unwrap();
    }

    #[test]
    fn submit_window_reads_the_zone_map() {
        let e = entry("a.swim", "x");
        assert_eq!(e.submit_window(), (10, 99999));
    }
}
