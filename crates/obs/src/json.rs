//! The workspace's one JSON codec: an owned [`Value`] tree, a compact and
//! a pretty writer ([`to_string`], [`to_string_pretty`]), one string
//! escaper ([`quote`]) that every hand-written JSON line in the
//! workspace also goes through, and a total parser
//! ([`parse_value`]).
//!
//! Numbers are kept exact for the full `u64`/`i64` range (job ids and
//! byte counts need every bit); floats print in Rust's shortest
//! round-trip form, and an integral float keeps its `.0` so the type
//! survives a round trip. Non-finite floats print as `null`.
//!
//! The parser never panics and never recurses past [`MAX_DEPTH`] nested
//! arrays or objects: deeper input is a typed [`Error`], not a stack
//! overflow.

use std::fmt;

/// Deepest nesting of arrays and objects [`parse_value`] accepts. The
/// deepest document the workspace writes (the `swim-analyze` bundle)
/// nests 4 levels.
pub const MAX_DEPTH: usize = 128;

/// An owned JSON value.
///
/// Integers keep their signedness so `u64` round-trips bit-exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Non-negative integer.
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Floating-point number.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object; insertion-ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// An object from `(key, value)` pairs, in order.
    pub fn object<'k>(pairs: impl IntoIterator<Item = (&'k str, Value)>) -> Value {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Borrow as object entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Borrow as array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Borrow as a string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// Look up an object key (the first entry, if it repeats).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// A JSON text that [`parse_value`] refused.
#[derive(Debug)]
pub struct Error {
    msg: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// Compact JSON text.
pub fn to_string(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, None);
    out
}

/// Pretty-printed JSON text (two-space indent, `": "` after keys).
pub fn to_string_pretty(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, Some(0));
    out
}

/// `s` as a JSON string literal, quotes included: `"` and `\` are
/// backslash-escaped, `\n` `\r` `\t` `\b` `\f` take their two-character
/// forms, and every other character below U+0020 is written `\u00XX`.
/// Everything else, non-ASCII included, is copied.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_string(&mut out, s);
    out
}

/// Append [`quote`]`(s)` to `out`.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `level` is the current indent level when pretty-printing, `None`
/// for compact output.
fn write_value(out: &mut String, v: &Value, level: Option<usize>) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(f) if !f.is_finite() => out.push_str("null"),
        Value::F64(f) if f.fract() == 0.0 && f.abs() < 1e15 => out.push_str(&format!("{f:.1}")),
        Value::F64(f) => out.push_str(&format!("{f}")),
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            write_container(out, ('[', ']'), items, level, |out, item, inner| {
                write_value(out, item, inner)
            })
        }
        Value::Object(entries) => {
            write_container(out, ('{', '}'), entries, level, |out, (k, val), inner| {
                write_string(out, k);
                out.push_str(if inner.is_some() { ": " } else { ":" });
                write_value(out, val, inner);
            })
        }
    }
}

fn write_container<T>(
    out: &mut String,
    (open, close): (char, char),
    items: &[T],
    level: Option<usize>,
    write_item: impl Fn(&mut String, &T, Option<usize>),
) {
    let inner = level.map(|l| l + 1);
    out.push(open);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline_indent(out, inner);
        write_item(out, item, inner);
    }
    if !items.is_empty() {
        newline_indent(out, level);
    }
    out.push(close);
}

fn newline_indent(out: &mut String, level: Option<usize>) {
    if let Some(level) = level {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', 2 * level));
    }
}

/// Parse one JSON document (surrounding whitespace allowed). Total: any
/// input, however malformed or deeply nested, gives a value or an
/// [`Error`] naming the byte offset.
pub fn parse_value(text: &str) -> Result<Value, Error> {
    let mut p = Parser { text, pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(v)
}

/// Invariant: `pos` is always on a char boundary of `text`, because it
/// only ever advances over ASCII bytes or to an ASCII `"` / `\`.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: impl fmt::Display) -> Error {
        Error {
            msg: format!("{what} at byte {}", self.pos),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consume `lit` if the input continues with it.
    fn eat(&mut self, lit: &str) -> bool {
        let found = self
            .text
            .as_bytes()
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(lit.as_bytes()));
        if found {
            self.pos += lit.len();
        }
        found
    }

    /// One value; `depth` is the number of containers it sits inside.
    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'[' | b'{') if depth >= MAX_DEPTH => {
                Err(self.error(format_args!("nesting deeper than {MAX_DEPTH}")))
            }
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ if self.eat("true") => Ok(Value::Bool(true)),
            _ if self.eat("false") => Ok(Value::Bool(false)),
            _ if self.eat("null") => Ok(Value::Null),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, Error> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat("]") {
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_ws();
            if self.eat("]") {
                return Ok(Value::Array(items));
            }
            if !self.eat(",") {
                return Err(self.error("expected `,` or `]`"));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, Error> {
        self.pos += 1;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.eat("}") {
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.error("expected a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(":") {
                return Err(self.error("expected `:`"));
            }
            entries.push((key, self.value(depth)?));
            self.skip_ws();
            if self.eat("}") {
                return Ok(Value::Object(entries));
            }
            if !self.eat(",") {
                return Err(self.error("expected `,` or `}`"));
            }
        }
    }

    /// A string literal; `pos` is on its opening quote.
    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            let run = self
                .text
                .get(start..self.pos)
                .ok_or_else(|| self.error("invalid UTF-8 boundary"))?;
            out.push_str(run);
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
            }
        }
    }

    /// The character an escape stands for; `pos` is just past its `\`.
    fn escape(&mut self) -> Result<char, Error> {
        let b = self
            .peek()
            .ok_or_else(|| self.error("unterminated escape"))?;
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{08}',
            b'f' => '\u{0C}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    if !self.eat("\\u") {
                        return Err(self.error("unpaired surrogate"));
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.error("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                char::from_u32(code).ok_or_else(|| self.error("invalid \\u escape"))?
            }
            _ => return Err(self.error("invalid escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let code = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|digits| digits.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|digits| u32::from_str_radix(digits, 16).ok())
            .ok_or_else(|| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        self.eat("-");
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => integral = false,
                _ => break,
            }
            self.pos += 1;
        }
        let text = self.text.get(start..self.pos).unwrap_or_default();
        if integral {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| self.error(format_args!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in [
            "0",
            "18446744073709551615",
            "-42",
            "1.5",
            "true",
            "false",
            "null",
            "\"hi\"",
        ] {
            let v = parse_value(text).unwrap();
            assert_eq!(to_string(&v), text, "round-trip of {text}");
        }
    }

    #[test]
    fn string_escapes() {
        let v = parse_value(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v, Value::Str("a\"b\\c\nd\u{41}".into()));
        assert_eq!(quote("tab\there"), r#""tab\there""#);
        assert_eq!(
            quote("\u{8}\u{c}\u{1}\u{1f}\r é"),
            r#""\b\f\u0001\u001f\r é""#
        );
        let every_control: String = (0u8..0x20).map(char::from).collect();
        let v = parse_value(&quote(&every_control)).unwrap();
        assert_eq!(v.as_str(), Some(every_control.as_str()));
    }

    #[test]
    fn surrogate_pairs() {
        let v = parse_value(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v, Value::Str("😀".into()));
        assert!(parse_value(r#""\ud83d""#).is_err());
        assert!(parse_value(r#""\ud83d\u0041""#).is_err());
    }

    #[test]
    fn nested_containers() {
        let v = parse_value(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
    }

    #[test]
    fn trailing_garbage_rejected() {
        for bad in [
            "1 2",
            "{",
            "",
            "[1,]",
            "{\"a\" 1}",
            "\"\\u12\"",
            "\"\\q\"",
            "tru",
        ] {
            assert!(parse_value(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn pretty_printing_indents() {
        let v = parse_value(r#"{"a":1,"b":[true,{}],"c":[]}"#).unwrap();
        assert_eq!(
            to_string_pretty(&v),
            "{\n  \"a\": 1,\n  \"b\": [\n    true,\n    {}\n  ],\n  \"c\": []\n}"
        );
    }

    #[test]
    fn json_macro_builds_objects() {
        let v = Value::object([
            ("kind", Value::Str("x".into())),
            ("machines", Value::U64(3)),
        ]);
        assert_eq!(v.get("machines").and_then(Value::as_u64), Some(3));
        assert_eq!(to_string(&v), r#"{"kind":"x","machines":3}"#);
    }

    #[test]
    fn float_display_round_trips() {
        for f in [0.1 + 0.2, 3.0, -0.5, 1e300] {
            let v = Value::F64(f);
            assert_eq!(parse_value(&to_string(&v)).unwrap(), v);
        }
        assert_eq!(to_string(&Value::F64(f64::NAN)), "null");
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_value(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse_value(&over).is_err());
        let err = parse_value(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than"), "{err}");
        let err = parse_value(&"{\"a\":".repeat(1_000_000)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn every_prefix_of_a_document_parses_or_errs() {
        let doc = r#"{"k":[1,-2,3.5e1,"s\u00e9\n",true,false,null,{"x":{}}]}"#;
        for end in 0..doc.len() {
            if let Some(prefix) = doc.get(..end) {
                assert!(parse_value(prefix).is_err(), "{prefix:?}");
            }
        }
        assert!(parse_value(doc).is_ok());
    }
}
