//! Machine-readable JSONL export of a [`Snapshot`].
//!
//! One JSON object per line, one line per instrument, so the bench
//! harness can append successive snapshots to a single file and grep /
//! parse them without a streaming JSON parser. Names are the only
//! strings and are escaped by [`crate::json::quote`].
//!
//! Line shapes:
//!
//! ```json
//! {"type":"counter","name":"store.chunks_decoded","value":12}
//! {"type":"gauge","name":"catalog.cache_entries","value":3}
//! {"type":"span","path":"query.execute","count":1,"total_ns":123,"min_ns":123,"max_ns":123}
//! ```

use std::io::Write as _;

use crate::json::quote;
use crate::registry::Snapshot;

/// Environment variable naming the JSONL sink file. When set, CLIs
/// append their final snapshot to it via [`append_env`].
pub const SINK_ENV: &str = "SWIM_OBS_JSONL";

/// Render a snapshot as JSON lines (trailing newline included when
/// non-empty; an empty snapshot renders as the empty string).
pub fn to_jsonl(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        out.push_str(&format!(
            "{{\"type\":\"counter\",\"name\":{},\"value\":{}}}\n",
            quote(name),
            value
        ));
    }
    for (name, value) in &snapshot.gauges {
        out.push_str(&format!(
            "{{\"type\":\"gauge\",\"name\":{},\"value\":{}}}\n",
            quote(name),
            value
        ));
    }
    for s in &snapshot.spans {
        out.push_str(&format!(
            "{{\"type\":\"span\",\"path\":{},\"count\":{},\"total_ns\":{},\"min_ns\":{},\"max_ns\":{}}}\n",
            quote(&s.path),
            s.count,
            s.total_ns,
            s.min_ns,
            s.max_ns,
        ));
    }
    out
}

/// Append `snapshot` to the file named by `path`, creating it if
/// needed. Empty snapshots append nothing.
pub fn append(path: &str, snapshot: &Snapshot) -> std::io::Result<()> {
    let text = to_jsonl(snapshot);
    if text.is_empty() {
        return Ok(());
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(text.as_bytes())
}

/// Append `snapshot` to the file named by [`SINK_ENV`], if that
/// variable is set. Returns `Ok(false)` when it is not set.
pub fn append_env(snapshot: &Snapshot) -> std::io::Result<bool> {
    match std::env::var(SINK_ENV) {
        Ok(path) if !path.is_empty() => {
            append(&path, snapshot)?;
            Ok(true)
        }
        _ => Ok(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::SpanSample;

    #[test]
    fn jsonl_lines_have_fixed_shapes() {
        let snap = Snapshot {
            counters: vec![("a.count".to_owned(), 2)],
            gauges: vec![("b.level".to_owned(), -3)],
            spans: vec![SpanSample {
                path: "d/e".to_owned(),
                count: 1,
                total_ns: 5,
                min_ns: 5,
                max_ns: 5,
            }],
        };
        let text = to_jsonl(&snap);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                "{\"type\":\"counter\",\"name\":\"a.count\",\"value\":2}",
                "{\"type\":\"gauge\",\"name\":\"b.level\",\"value\":-3}",
                "{\"type\":\"span\",\"path\":\"d/e\",\"count\":1,\"total_ns\":5,\"min_ns\":5,\"max_ns\":5}",
            ]
        );
        assert!(text.ends_with('\n'));
        assert_eq!(to_jsonl(&Snapshot::default()), "");
    }

    #[test]
    fn json_strings_escape_specials() {
        let snap = Snapshot {
            counters: vec![("a\"b\\c\n\u{1}".to_owned(), 1)],
            ..Snapshot::default()
        };
        let line = to_jsonl(&snap);
        assert_eq!(
            line,
            "{\"type\":\"counter\",\"name\":\"a\\\"b\\\\c\\n\\u0001\",\"value\":1}\n"
        );
        let parsed = crate::json::parse_value(line.trim_end()).unwrap();
        assert_eq!(
            parsed.get("name").and_then(|v| v.as_str()),
            Some("a\"b\\c\n\u{1}")
        );
    }

    #[test]
    fn append_env_is_noop_without_var() {
        // SINK_ENV is not set in the test environment.
        if std::env::var(SINK_ENV).is_err() {
            assert!(!append_env(&Snapshot::default()).unwrap());
        }
    }
}
