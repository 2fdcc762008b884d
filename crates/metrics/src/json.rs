//! A minimal JSON document model: writer and parser, no dependencies.
//!
//! The observability layer emits machine-readable reports (`lesgsc
//! --profile=json` and `bench-report`'s `BENCH_report.json`) and the
//! test suite parses them back to assert schema stability. Both
//! directions live here so the workspace stays free of third-party
//! crates.
//!
//! Objects preserve insertion order, which keeps serialized reports
//! diffable and lets golden tests compare rendered text directly.
//!
//! # Examples
//!
//! ```
//! use lesgs_metrics::json::Json;
//!
//! let doc = Json::object([
//!     ("name", Json::from("tak")),
//!     ("cycles", Json::from(1_319_881u64)),
//! ]);
//! let text = doc.pretty();
//! let back = lesgs_metrics::json::parse(&text).unwrap();
//! assert_eq!(back.get("name").unwrap().as_str(), Some("tak"));
//! ```

use std::fmt;

/// A JSON value. Objects keep their fields in insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (counters; serialized without a decimal point).
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A floating-point number. Non-finite values serialize as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered fields.
    Object(Vec<(String, Json)>),
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::UInt(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::UInt(n as u64)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Int(n)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array.
    pub fn array(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Array(items.into_iter().collect())
    }

    /// Looks up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Appends a field to an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn push_field(&mut self, key: impl Into<String>, value: Json) {
        match self {
            Json::Object(fields) => fields.push((key.into(), value)),
            other => panic!("push_field on non-object {other:?}"),
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if losslessly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            Json::Int(n) if *n >= 0 => Some(*n as u64),
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty-printed rendering with two-space indentation and a
    /// trailing newline, the format of every checked-in report.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        use fmt::Write;
        let pad = |out: &mut String, d: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * d));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(n) => {
                if n.is_finite() {
                    // `{}` on f64 is shortest-roundtrip and always a
                    // valid JSON number (e.g. `3`, `0.5`, `1e-7`).
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    pad(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                pad(out, depth);
                out.push(']');
            }
            Json::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    pad(out, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                pad(out, depth);
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    use fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure, with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset of the failure.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
///
/// Numbers are parsed into [`Json::UInt`]/[`Json::Int`] when they are
/// plain integers in range, [`Json::Num`] otherwise. The parser exists
/// for report validation and golden tests, not as a general-purpose
/// JSON library: inputs are limited to a nesting depth of 128.
///
/// # Errors
///
/// Returns [`JsonError`] with a byte offset on malformed input.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

const MAX_DEPTH: usize = 128;

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ASCII \\u escape"))?;
                            let n = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed for our
                            // reports; reject rather than mis-decode.
                            let c = char::from_u32(n)
                                .ok_or_else(|| self.err("surrogate \\u escape"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are sound).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| JsonError {
            message: format!("bad number `{text}`"),
            offset: start,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "0", "-7", "3.5", "\"hi\""] {
            let v = parse(text).unwrap();
            assert_eq!(v.compact(), text, "{text}");
        }
    }

    #[test]
    fn integers_stay_integers() {
        assert_eq!(parse("18446744073709551615").unwrap(), Json::UInt(u64::MAX));
        assert_eq!(parse("-1").unwrap(), Json::Int(-1));
        assert_eq!(parse("1e3").unwrap(), Json::Num(1000.0));
    }

    #[test]
    fn object_order_preserved() {
        let v = parse(r#"{"z":1,"a":2}"#).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a"]);
        assert_eq!(v.get("a").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn strings_escape_and_unescape() {
        let original = "line\nquote\"back\\slash\ttab\u{1}";
        let doc = Json::from(original);
        let text = doc.compact();
        assert_eq!(parse(&text).unwrap().as_str(), Some(original));
    }

    #[test]
    fn unicode_passthrough() {
        let v = parse("\"åβ≈\"").unwrap();
        assert_eq!(v.as_str(), Some("åβ≈"));
        assert_eq!(parse("\"\\u00e5\"").unwrap().as_str(), Some("å"));
    }

    #[test]
    fn pretty_parses_back() {
        let doc = Json::object([
            ("rows", Json::array([Json::from(1u64), Json::from(2u64)])),
            ("empty", Json::Array(Vec::new())),
            ("nested", Json::object([("k", Json::Null)])),
        ]);
        let text = doc.pretty();
        assert_eq!(parse(&text).unwrap(), doc);
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn nonfinite_serializes_null() {
        assert_eq!(Json::Num(f64::NAN).compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).compact(), "null");
    }

    #[test]
    fn errors_carry_offsets() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").unwrap_err().message.contains("trailing"));
        assert!(parse("\"abc").is_err());
        let deep = "[".repeat(200);
        assert!(parse(&deep).unwrap_err().message.contains("deep"));
    }
}
