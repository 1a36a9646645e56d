//! The wire protocol: newline-delimited text requests, length-prefixed
//! responses.
//!
//! **Requests** are one line each, tokenized shell-style (whitespace
//! separated; a double-quoted token may contain spaces; there are no
//! escape sequences):
//!
//! ```text
//! ping
//! query --select "count,sum(total_io)" --where "input > 1gb" [--format table|md|json]
//! stats [--format text|json]
//! metrics [--format text|json] [--mask]
//! ingest PATH      (admin)
//! compact          (admin)
//! vacuum           (admin)
//! shutdown
//! ```
//!
//! A request line is at most [`MAX_REQUEST_LINE`] bytes; a longer one is
//! answered `error bad_request` without being read to its end, and its
//! connection is closed. So is one that takes more than five seconds
//! from its first byte to its newline.
//!
//! **Responses** are a single header line followed by an exact byte
//! count of body, so a reader never has to guess where a table ends:
//!
//! ```text
//! swim-serve ok generation=G cached=0|1 bytes=N\n<N body bytes>
//! swim-serve error kind=K bytes=N\n<N message bytes>
//! ```
//!
//! Error kinds are closed: `bad_request` (malformed line or query),
//! `overloaded` (admission control rejected the connection),
//! `internal` (execution failed or a worker panicked), `busy` (an
//! admin command timed out waiting for in-flight readers — retryable),
//! and `shutdown` (the server is draining). The framing is
//! deliberately trivial to parse from any language — or by a human in
//! `nc`.

use std::io::{self, BufRead, Write};

/// Protocol magic: the first token of every response header.
pub const PROTOCOL_NAME: &str = "swim-serve";

/// Closed set of error kinds a response can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed request line, unknown command, or unparsable query.
    BadRequest,
    /// Admission control rejected the connection (queue at capacity).
    Overloaded,
    /// The request was well-formed but execution failed (or a worker
    /// panicked mid-request).
    Internal,
    /// An admin command timed out waiting for in-flight readers on old
    /// generations; the client may retry.
    Busy,
    /// The server is shutting down and will not serve this request.
    Shutdown,
}

impl ErrorKind {
    /// Wire token for the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Internal => "internal",
            ErrorKind::Busy => "busy",
            ErrorKind::Shutdown => "shutdown",
        }
    }

    /// Parse a wire token back into a kind.
    pub fn parse(token: &str) -> Option<ErrorKind> {
        match token {
            "bad_request" => Some(ErrorKind::BadRequest),
            "overloaded" => Some(ErrorKind::Overloaded),
            "internal" => Some(ErrorKind::Internal),
            "busy" => Some(ErrorKind::Busy),
            "shutdown" => Some(ErrorKind::Shutdown),
            _ => None,
        }
    }
}

/// One parsed response, as read back by a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// `true` for `ok` responses.
    pub ok: bool,
    /// Catalog generation the response was computed against (0 on
    /// errors).
    pub generation: u64,
    /// Whether the result came from the per-generation result cache.
    pub cached: bool,
    /// Error kind for `error` responses.
    pub kind: Option<ErrorKind>,
    /// Body bytes (result table for `ok`, message for `error`).
    pub body: Vec<u8>,
}

impl Response {
    /// Body as UTF-8 text (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Tokenize a request line: whitespace-separated, with double-quoted
/// tokens allowed to contain spaces (no escapes). An unterminated quote
/// is an error.
pub fn tokenize(line: &str) -> Result<Vec<String>, String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let mut in_token = false;
    let mut chars = line.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                in_token = true;
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some(inner) => current.push(inner),
                        None => return Err("unterminated quote in request".into()),
                    }
                }
            }
            c if c.is_whitespace() => {
                if in_token {
                    tokens.push(std::mem::take(&mut current));
                    in_token = false;
                }
            }
            c => {
                in_token = true;
                current.push(c);
            }
        }
    }
    if in_token {
        tokens.push(current);
    }
    Ok(tokens)
}

/// Encode an `ok` response (header + body) into one buffer.
pub fn encode_ok(generation: u64, cached: bool, body: &[u8]) -> Vec<u8> {
    let header = format!(
        "{PROTOCOL_NAME} ok generation={generation} cached={} bytes={}\n",
        u8::from(cached),
        body.len()
    );
    let mut out = header.into_bytes();
    out.extend_from_slice(body);
    out
}

/// Encode an `error` response into one buffer. The message is
/// normalized to a single trailing newline.
pub fn encode_error(kind: ErrorKind, message: &str) -> Vec<u8> {
    let body = format!("{}\n", message.trim_end_matches('\n'));
    let header = format!(
        "{PROTOCOL_NAME} error kind={} bytes={}\n",
        kind.as_str(),
        body.len()
    );
    let mut out = header.into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// Longest request line the server reads, newline excluded: 64 KiB, a
/// hundred times the longest request the CLIs build. A longer line is
/// answered `error bad_request` and its connection closed.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Write an `error` response directly to a stream (used by the acceptor
/// for `overloaded` rejections, before any worker is involved).
pub fn write_error(w: &mut impl Write, kind: ErrorKind, message: &str) -> io::Result<()> {
    w.write_all(&encode_error(kind, message))
}

/// Write a request line (appends the newline).
pub fn write_request(w: &mut impl Write, line: &str) -> io::Result<()> {
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Read one response (header line + exact body bytes) from a buffered
/// reader.
pub fn read_response(r: &mut impl BufRead) -> io::Result<Response> {
    let mut header = String::new();
    if r.read_line(&mut header)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a response header",
        ));
    }
    let mut parts = header.split_whitespace();
    if parts.next() != Some(PROTOCOL_NAME) {
        return Err(invalid(format!("bad response header: {header:?}")));
    }
    let ok = match parts.next() {
        Some("ok") => true,
        Some("error") => false,
        other => return Err(invalid(format!("bad response status: {other:?}"))),
    };
    let mut generation = 0u64;
    let mut cached = false;
    let mut kind = None;
    let mut bytes: Option<usize> = None;
    for field in parts {
        let Some((key, value)) = field.split_once('=') else {
            return Err(invalid(format!("bad response field: {field:?}")));
        };
        match key {
            "generation" => {
                generation = value
                    .parse()
                    .map_err(|_| invalid(format!("bad generation: {value:?}")))?;
            }
            "cached" => cached = value == "1",
            "kind" => kind = ErrorKind::parse(value),
            "bytes" => {
                bytes = Some(
                    value
                        .parse()
                        .map_err(|_| invalid(format!("bad byte count: {value:?}")))?,
                );
            }
            _ => return Err(invalid(format!("unknown response field: {key:?}"))),
        }
    }
    let bytes = bytes.ok_or_else(|| invalid("response header missing bytes="))?;
    let mut body = vec![0u8; bytes];
    r.read_exact(&mut body)?;
    Ok(Response {
        ok,
        generation,
        cached,
        kind,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_plain_and_quoted() {
        assert_eq!(
            tokenize("query --select count").unwrap(),
            vec!["query", "--select", "count"]
        );
        assert_eq!(
            tokenize("query --where \"input > 1gb and submit < 2d\"").unwrap(),
            vec!["query", "--where", "input > 1gb and submit < 2d"]
        );
        // Adjacent quoted segments join into one token, like a shell.
        assert_eq!(tokenize("a\"b c\"d").unwrap(), vec!["ab cd"]);
        assert_eq!(tokenize("  \t ").unwrap(), Vec::<String>::new());
        assert_eq!(tokenize("\"\"").unwrap(), vec![""]);
        assert!(tokenize("query --where \"unterminated").is_err());
    }

    #[test]
    fn response_roundtrip() {
        let encoded = encode_ok(7, true, b"col\n1\n");
        let mut reader = std::io::Cursor::new(encoded);
        let resp = read_response(&mut reader).unwrap();
        assert!(resp.ok);
        assert_eq!(resp.generation, 7);
        assert!(resp.cached);
        assert_eq!(resp.kind, None);
        assert_eq!(resp.body, b"col\n1\n");

        let encoded = encode_error(ErrorKind::Overloaded, "busy");
        let mut reader = std::io::Cursor::new(encoded);
        let resp = read_response(&mut reader).unwrap();
        assert!(!resp.ok);
        assert_eq!(resp.kind, Some(ErrorKind::Overloaded));
        assert_eq!(resp.body_text(), "busy\n");
    }

    #[test]
    fn read_response_rejects_garbage() {
        for bad in [
            "nope\n",
            "swim-serve what\n",
            "swim-serve ok generation=x bytes=0\n",
            "swim-serve ok generation=1\n",
            "swim-serve ok generation=1 sneaky=1 bytes=0\n",
        ] {
            let mut reader = std::io::Cursor::new(bad.as_bytes().to_vec());
            assert!(read_response(&mut reader).is_err(), "accepted {bad:?}");
        }
        // Truncated body.
        let mut reader = std::io::Cursor::new(b"swim-serve ok generation=1 bytes=5\nab".to_vec());
        assert!(read_response(&mut reader).is_err());
    }

    #[test]
    fn error_kinds_roundtrip() {
        for kind in [
            ErrorKind::BadRequest,
            ErrorKind::Overloaded,
            ErrorKind::Internal,
            ErrorKind::Busy,
            ErrorKind::Shutdown,
        ] {
            assert_eq!(ErrorKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(ErrorKind::parse("nope"), None);
    }
}
