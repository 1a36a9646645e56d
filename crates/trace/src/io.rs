//! Trace codecs: a simple CSV dialect and JSON-lines (through
//! [`swim_obs::json`]), both round-trip safe.
//!
//! The CSV dialect mirrors the per-job Hadoop history summaries the paper
//! ingests. Paths are encoded as `;`-separated raw ids (the original traces
//! ship hashed paths, so no escaping concerns arise; external string paths
//! should be interned via [`crate::PathInterner`] first).

use crate::job::{Job, JobBuilder};
use crate::path::PathId;
use crate::size::DataSize;
use crate::time::{Dur, Timestamp};
use crate::trace::{Trace, WorkloadKind};
use crate::TraceError;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use swim_obs::json::{self, Value};

/// CSV header line for the per-job schema.
pub const CSV_HEADER: &str = "job_id,name,submit_secs,duration_secs,input_bytes,\
shuffle_bytes,output_bytes,map_task_secs,reduce_task_secs,map_tasks,reduce_tasks,\
input_paths,output_paths";

/// Write a trace as CSV (header + one line per job).
pub fn write_csv<W: Write>(trace: &Trace, writer: W) -> Result<(), TraceError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "{CSV_HEADER}")?;
    for job in trace.jobs() {
        writeln!(
            w,
            "{},{},{},{},{},{},{},{},{},{},{},{},{}",
            job.id.0,
            escape_name(&job.name),
            job.submit.secs(),
            job.duration.secs(),
            job.input.bytes(),
            job.shuffle.bytes(),
            job.output.bytes(),
            job.map_task_time.secs(),
            job.reduce_task_time.secs(),
            job.map_tasks,
            job.reduce_tasks,
            encode_paths(&job.input_paths),
            encode_paths(&job.output_paths),
        )?;
    }
    w.flush()?;
    Ok(())
}

/// Read a trace from CSV produced by [`write_csv`].
pub fn read_csv<R: Read>(
    kind: WorkloadKind,
    machines: u32,
    reader: R,
) -> Result<Trace, TraceError> {
    let r = BufReader::new(reader);
    let mut jobs = Vec::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        if lineno == 0 {
            if line != CSV_HEADER {
                return Err(TraceError::Parse {
                    line: 1,
                    reason: "missing or unrecognized CSV header".into(),
                });
            }
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        jobs.push(parse_csv_line(&line, lineno + 1)?);
    }
    Trace::new(kind, machines, jobs)
}

fn parse_csv_line(line: &str, lineno: usize) -> Result<Job, TraceError> {
    let fields: Vec<&str> = line.split(',').collect();
    if fields.len() != 13 {
        return Err(TraceError::Parse {
            line: lineno,
            reason: format!("expected 13 fields, got {}", fields.len()),
        });
    }
    let perr = |what: &str, value: &str| TraceError::Parse {
        line: lineno,
        reason: format!("invalid {what} {value:?}"),
    };
    let num = |s: &str, what: &str| -> Result<u64, TraceError> {
        s.parse::<u64>().map_err(|_| perr(what, s))
    };
    // Task counts are u32 in the schema; going through `as` would silently
    // truncate oversized values into plausible-looking garbage.
    let num32 = |s: &str, what: &str| -> Result<u32, TraceError> {
        s.parse::<u32>().map_err(|_| TraceError::Parse {
            line: lineno,
            reason: format!("invalid {what} {s:?} (must fit in u32)"),
        })
    };
    let job = JobBuilder::new(num(fields[0], "job_id")?)
        .name(unescape_name(fields[1]))
        .submit(Timestamp::from_secs(num(fields[2], "submit_secs")?))
        .duration(Dur::from_secs(num(fields[3], "duration_secs")?))
        .input(DataSize::from_bytes(num(fields[4], "input_bytes")?))
        .shuffle(DataSize::from_bytes(num(fields[5], "shuffle_bytes")?))
        .output(DataSize::from_bytes(num(fields[6], "output_bytes")?))
        .map_task_time(Dur::from_secs(num(fields[7], "map_task_secs")?))
        .reduce_task_time(Dur::from_secs(num(fields[8], "reduce_task_secs")?))
        .tasks(
            num32(fields[9], "map_tasks")?,
            num32(fields[10], "reduce_tasks")?,
        )
        .input_paths(decode_paths(fields[11], lineno)?)
        .output_paths(decode_paths(fields[12], lineno)?)
        .build_unchecked();
    Ok(job)
}

/// Commas and newlines inside names would corrupt rows; replace them with
/// spaces (names are analysis keys via first-word only, so this is lossless
/// for every downstream use).
fn escape_name(name: &str) -> String {
    name.replace([',', '\n', '\r'], " ")
}

fn unescape_name(s: &str) -> String {
    s.to_owned()
}

fn encode_paths(paths: &[PathId]) -> String {
    let mut out = String::new();
    for (i, p) in paths.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        out.push_str(&p.0.to_string());
    }
    out
}

fn decode_paths(s: &str, lineno: usize) -> Result<Vec<PathId>, TraceError> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(';')
        .map(|tok| {
            tok.parse::<u64>()
                .map(PathId)
                .map_err(|_| TraceError::Parse {
                    line: lineno,
                    reason: format!("invalid path id {tok:?}"),
                })
        })
        .collect()
}

/// Write a trace as JSON-lines: a metadata object (`{"kind": …,
/// "machines": …}`), then one object per job with its fields in schema
/// order. A job's `input_paths` / `output_paths` keys are left out when
/// empty. A paper kind is written as its variant name (`"CcA"`), a
/// custom one as `{"Custom": "name"}`.
pub fn write_jsonl<W: Write>(trace: &Trace, writer: W) -> Result<(), TraceError> {
    let mut w = BufWriter::new(writer);
    let meta = Value::object([
        ("kind", kind_to_json(&trace.kind)),
        ("machines", Value::U64(trace.machines.into())),
    ]);
    writeln!(w, "{}", json::to_string(&meta))?;
    for job in trace.jobs() {
        writeln!(w, "{}", json::to_string(&job_to_json(job)))?;
    }
    w.flush()?;
    Ok(())
}

/// Read a trace from JSON-lines produced by [`write_jsonl`]. Blank job
/// lines are skipped and unknown keys ignored; every malformed line is a
/// [`TraceError::Parse`] naming the line and, for a bad record, the field.
pub fn read_jsonl<R: Read>(reader: R) -> Result<Trace, TraceError> {
    let mut lines = BufReader::new(reader).lines();
    let meta_line = lines.next().ok_or_else(|| TraceError::Parse {
        line: 1,
        reason: "empty stream".into(),
    })?;
    let (kind, machines) = decode_line(1, &line_text(1, meta_line)?, meta_from_json)?;
    let mut jobs = Vec::new();
    for (i, line) in lines.enumerate() {
        let lineno = i + 2;
        let text = line_text(lineno, line)?;
        if !text.trim().is_empty() {
            jobs.push(decode_line(lineno, &text, job_from_json)?);
        }
    }
    Trace::new(kind, machines, jobs)
}

/// A line's text; bytes that are not UTF-8 are a parse error of that line.
fn line_text(lineno: usize, line: std::io::Result<String>) -> Result<String, TraceError> {
    line.map_err(|e| match e.kind() {
        std::io::ErrorKind::InvalidData => TraceError::Parse {
            line: lineno,
            reason: e.to_string(),
        },
        _ => TraceError::Io(e),
    })
}

fn decode_line<T>(
    lineno: usize,
    text: &str,
    decode: fn(&Value) -> Result<T, String>,
) -> Result<T, TraceError> {
    let decoded = match json::parse_value(text) {
        Ok(v) if v.as_object().is_some() => decode(&v),
        Ok(_) => Err("expected a JSON object".to_owned()),
        Err(e) => Err(e.to_string()),
    };
    decoded.map_err(|reason| TraceError::Parse {
        line: lineno,
        reason,
    })
}

/// The JSONL name of one of the paper's seven kinds.
fn kind_name(kind: &WorkloadKind) -> Option<&'static str> {
    Some(match kind {
        WorkloadKind::CcA => "CcA",
        WorkloadKind::CcB => "CcB",
        WorkloadKind::CcC => "CcC",
        WorkloadKind::CcD => "CcD",
        WorkloadKind::CcE => "CcE",
        WorkloadKind::Fb2009 => "Fb2009",
        WorkloadKind::Fb2010 => "Fb2010",
        WorkloadKind::Custom(_) => return None,
    })
}

fn kind_to_json(kind: &WorkloadKind) -> Value {
    match kind_name(kind) {
        Some(name) => Value::Str(name.to_owned()),
        None => Value::object([("Custom", Value::Str(kind.label().to_owned()))]),
    }
}

fn kind_from_json(v: &Value) -> Option<WorkloadKind> {
    match v {
        Value::Str(s) => WorkloadKind::PAPER_SEVEN
            .into_iter()
            .find(|k| kind_name(k) == Some(s.as_str())),
        Value::Object(entries) => match entries.as_slice() {
            [(tag, Value::Str(name))] if tag == "Custom" => {
                Some(WorkloadKind::Custom(name.clone()))
            }
            _ => None,
        },
        _ => None,
    }
}

fn meta_from_json(v: &Value) -> Result<(WorkloadKind, u32), String> {
    let kind = kind_from_json(field(v, "kind")?).ok_or("field `kind` is not a workload kind")?;
    Ok((kind, u32_field(v, "machines")?))
}

fn job_to_json(job: &Job) -> Value {
    let mut fields = vec![
        ("id", Value::U64(job.id.0)),
        ("name", Value::Str(job.name.clone())),
        ("submit", Value::U64(job.submit.secs())),
        ("duration", Value::U64(job.duration.secs())),
        ("input", Value::U64(job.input.bytes())),
        ("shuffle", Value::U64(job.shuffle.bytes())),
        ("output", Value::U64(job.output.bytes())),
        ("map_task_time", Value::U64(job.map_task_time.secs())),
        ("reduce_task_time", Value::U64(job.reduce_task_time.secs())),
        ("map_tasks", Value::U64(job.map_tasks.into())),
        ("reduce_tasks", Value::U64(job.reduce_tasks.into())),
    ];
    for (key, paths) in [
        ("input_paths", &job.input_paths),
        ("output_paths", &job.output_paths),
    ] {
        if !paths.is_empty() {
            fields.push((
                key,
                Value::Array(paths.iter().map(|p| Value::U64(p.0)).collect()),
            ));
        }
    }
    Value::object(fields)
}

/// Fields are read in schema order, so a record missing several names
/// the first.
fn job_from_json(v: &Value) -> Result<Job, String> {
    let secs = |key: &str| u64_field(v, key).map(Dur::from_secs);
    let bytes = |key: &str| u64_field(v, key).map(DataSize::from_bytes);
    Ok(JobBuilder::new(u64_field(v, "id")?)
        .name(
            field(v, "name")?
                .as_str()
                .ok_or("field `name` is not a string")?,
        )
        .submit(Timestamp::from_secs(u64_field(v, "submit")?))
        .duration(secs("duration")?)
        .input(bytes("input")?)
        .shuffle(bytes("shuffle")?)
        .output(bytes("output")?)
        .map_task_time(secs("map_task_time")?)
        .reduce_task_time(secs("reduce_task_time")?)
        .tasks(u32_field(v, "map_tasks")?, u32_field(v, "reduce_tasks")?)
        .input_paths(paths_field(v, "input_paths")?)
        .output_paths(paths_field(v, "output_paths")?)
        .build_unchecked())
}

fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value, String> {
    v.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| format!("field `{key}` is not an unsigned integer"))
}

fn u32_field(v: &Value, key: &str) -> Result<u32, String> {
    u32::try_from(u64_field(v, key)?).map_err(|_| format!("field `{key}` does not fit in u32"))
}

/// An absent path list is empty.
fn paths_field(v: &Value, key: &str) -> Result<Vec<PathId>, String> {
    let Some(list) = v.get(key) else {
        return Ok(Vec::new());
    };
    list.as_array()
        .and_then(|items| items.iter().map(|p| p.as_u64().map(PathId)).collect())
        .ok_or_else(|| format!("field `{key}` is not an array of path ids"))
}

/// Serialize a trace to a CSV string (convenience).
pub fn to_csv_string(trace: &Trace) -> Result<String, TraceError> {
    let mut buf = Vec::new();
    write_csv(trace, &mut buf)?;
    String::from_utf8(buf).map_err(|e| TraceError::Parse {
        line: 0,
        reason: format!("non-utf8 output: {e}"),
    })
}

/// Deserialize a trace from a CSV string (convenience).
pub fn from_csv_string(kind: WorkloadKind, machines: u32, s: &str) -> Result<Trace, TraceError> {
    read_csv(kind, machines, s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobBuilder;

    fn sample_trace() -> Trace {
        let jobs = vec![
            JobBuilder::new(1)
                .name("insert overwrite, weekly")
                .submit(Timestamp::from_secs(10))
                .duration(Dur::from_secs(30))
                .input(DataSize::from_mb(5))
                .shuffle(DataSize::from_kb(10))
                .output(DataSize::from_kb(1))
                .map_task_time(Dur::from_secs(20))
                .reduce_task_time(Dur::from_secs(8))
                .tasks(2, 1)
                .input_paths(vec![PathId(3), PathId(9)])
                .output_paths(vec![PathId(12)])
                .build()
                .unwrap(),
            JobBuilder::new(2)
                .name("piglatin")
                .submit(Timestamp::from_secs(40))
                .duration(Dur::from_secs(5))
                .input(DataSize::from_kb(4))
                .map_task_time(Dur::from_secs(3))
                .tasks(1, 0)
                .build()
                .unwrap(),
        ];
        Trace::new(WorkloadKind::CcB, 300, jobs).unwrap()
    }

    #[test]
    fn csv_round_trip_preserves_everything_but_commas() {
        let t = sample_trace();
        let csv = to_csv_string(&t).unwrap();
        let back = from_csv_string(WorkloadKind::CcB, 300, &csv).unwrap();
        assert_eq!(back.len(), 2);
        // Comma in the name was replaced by a space; everything else intact.
        assert_eq!(back.jobs()[0].name, "insert overwrite  weekly");
        assert_eq!(back.jobs()[0].input_paths, vec![PathId(3), PathId(9)]);
        assert_eq!(back.jobs()[1], t.jobs()[1]);
    }

    #[test]
    fn jsonl_round_trip_is_identity() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_jsonl(&t, &mut buf).unwrap();
        let back = read_jsonl(&buf[..]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn csv_rejects_bad_header() {
        let r = from_csv_string(WorkloadKind::CcA, 1, "nope\n1,2,3\n");
        assert!(matches!(r, Err(TraceError::Parse { line: 1, .. })));
    }

    #[test]
    fn csv_rejects_wrong_field_count() {
        let csv = format!("{CSV_HEADER}\n1,2,3\n");
        let r = from_csv_string(WorkloadKind::CcA, 1, &csv);
        assert!(matches!(r, Err(TraceError::Parse { line: 2, .. })));
    }

    #[test]
    fn csv_rejects_bad_path_id() {
        let csv = format!("{CSV_HEADER}\n1,n,0,1,0,0,0,1,0,1,0,x;y,\n");
        assert!(from_csv_string(WorkloadKind::CcA, 1, &csv).is_err());
    }

    #[test]
    fn jsonl_rejects_empty_stream() {
        assert!(read_jsonl(&b""[..]).is_err());
    }

    fn jsonl_error(text: &str) -> (usize, String) {
        match read_jsonl(text.as_bytes()) {
            Err(TraceError::Parse { line, reason }) => (line, reason),
            other => panic!("expected a Parse error, got {other:?}"),
        }
    }

    #[test]
    fn jsonl_errors_name_the_line_and_field() {
        let meta = r#"{"kind":"CcA","machines":3}"#;
        let (line, reason) = jsonl_error(&format!("{meta}\n{{\"id\":1}}\n"));
        assert_eq!((line, reason.as_str()), (2, "missing field `name`"));
        let (line, reason) = jsonl_error("{\"kind\":\"Nope\",\"machines\":3}\n");
        assert_eq!(
            (line, reason.as_str()),
            (1, "field `kind` is not a workload kind")
        );
        let (line, reason) = jsonl_error(&format!("{meta}\n\n[1]\n"));
        assert_eq!((line, reason.as_str()), (3, "expected a JSON object"));
        let (line, _) = jsonl_error(&format!("{meta}\n{{\"id\":"));
        assert_eq!(line, 2);
        let (line, reason) = jsonl_error(r#"{"kind":"CcA","machines":4294967296}"#);
        assert_eq!(
            (line, reason.as_str()),
            (1, "field `machines` does not fit in u32")
        );
    }

    #[test]
    fn jsonl_non_utf8_line_is_a_parse_error() {
        let mut bytes = br#"{"kind":"CcA","machines":3}"#.to_vec();
        bytes.extend_from_slice(b"\n{\"id\":\xff}\n");
        assert!(matches!(
            read_jsonl(&bytes[..]),
            Err(TraceError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn csv_rejects_oversized_task_counts() {
        // 2^32 + 2 would truncate to 2 under a silent `as u32` cast.
        let over = (1u64 << 32) + 2;
        let csv = format!("{CSV_HEADER}\n1,n,0,1,0,0,0,1,0,{over},0,,\n");
        let err = from_csv_string(WorkloadKind::CcA, 1, &csv).unwrap_err();
        match err {
            TraceError::Parse { line, reason } => {
                assert_eq!(line, 2);
                assert!(reason.contains("map_tasks"), "{reason}");
            }
            other => panic!("expected Parse error, got {other:?}"),
        }
    }

    #[test]
    fn csv_rejects_unparseable_numerics_with_line_number() {
        for (field_idx, what) in [
            (0, "job_id"),
            (2, "submit_secs"),
            (4, "input_bytes"),
            (10, "reduce_tasks"),
        ] {
            let mut fields = vec![
                "1", "n", "0", "1", "0", "0", "0", "1", "0", "1", "0", "", "",
            ];
            fields[field_idx] = "12x";
            let csv = format!("{CSV_HEADER}\n{}\n", fields.join(","));
            let err = from_csv_string(WorkloadKind::CcA, 1, &csv).unwrap_err();
            match err {
                TraceError::Parse { line, reason } => {
                    assert_eq!(line, 2);
                    assert!(reason.contains(what), "{what}: {reason}");
                }
                other => panic!("expected Parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn csv_rejects_negative_and_float_numerics() {
        for bad in ["-1", "1.5", " 7", ""] {
            let csv = format!("{CSV_HEADER}\n1,n,{bad},1,0,0,0,1,0,1,0,,\n");
            assert!(
                from_csv_string(WorkloadKind::CcA, 1, &csv).is_err(),
                "submit_secs {bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn empty_paths_encode_as_empty_string() {
        assert_eq!(encode_paths(&[]), "");
        assert_eq!(decode_paths("", 1).unwrap(), Vec::<PathId>::new());
    }
}
