//! Machine-readable JSONL export of a [`Snapshot`].
//!
//! One JSON object per line, one line per instrument, so the bench
//! harness can append successive snapshots to a single file and grep /
//! parse them without a streaming JSON parser. Serialization is
//! hand-rolled (this crate has no dependencies): names are the only
//! strings and get full JSON escaping.
//!
//! Line shapes:
//!
//! ```json
//! {"type":"counter","name":"store.chunks_decoded","value":12}
//! {"type":"gauge","name":"catalog.cache_entries","value":3}
//! {"type":"span","path":"query.execute","count":1,"total_ns":123,"min_ns":123,"max_ns":123}
//! ```

use std::io::Write as _;

use crate::registry::Snapshot;

/// Environment variable naming the JSONL sink file. When set, CLIs
/// append their final snapshot to it via [`append_env`].
pub const SINK_ENV: &str = "SWIM_OBS_JSONL";

/// Escape a string into a JSON string literal (with quotes).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render a snapshot as JSON lines (trailing newline included when
/// non-empty; an empty snapshot renders as the empty string).
pub fn to_jsonl(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        out.push_str(&format!(
            "{{\"type\":\"counter\",\"name\":{},\"value\":{}}}\n",
            json_string(name),
            value
        ));
    }
    for (name, value) in &snapshot.gauges {
        out.push_str(&format!(
            "{{\"type\":\"gauge\",\"name\":{},\"value\":{}}}\n",
            json_string(name),
            value
        ));
    }
    for s in &snapshot.spans {
        out.push_str(&format!(
            "{{\"type\":\"span\",\"path\":{},\"count\":{},\"total_ns\":{},\"min_ns\":{},\"max_ns\":{}}}\n",
            json_string(&s.path),
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
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn append_env_is_noop_without_var() {
        // SINK_ENV is not set in the test environment.
        if std::env::var(SINK_ENV).is_err() {
            assert!(!append_env(&Snapshot::default()).unwrap());
        }
    }
}
