//! A small, dependency-free JSON value model, parser, and writer.
//!
//! The workspace builds in fully offline environments, so the Fig-4 wire
//! format (status reports), scenario files, trace JSONL and the
//! `BENCH_*.json` trajectories are carried by this module instead of an
//! external serialization framework. The subset implemented is exactly the
//! subset the wire formats use: objects with ordered keys, arrays, finite
//! numbers, strings with standard escapes, booleans, and null.

use std::fmt;

/// A parsed JSON value. Object keys preserve insertion order so that
/// serialization is deterministic — byte-identical across runs and thread
/// counts, which the parallel experiment fabric relies on.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, stored as `f64`. Integers below 2^53 are exact;
    /// [`Json::as_u64`] refuses 2^53 and above, where distinct integers
    /// in the text can parse to the same `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in insertion order.
    Obj(Vec<(String, Json)>),
}

/// 2^53: the first integer at which `f64` stops telling neighbours apart
/// (`2^53 + 1` parses to `2^53`).
const EXACT_INT_LIMIT: f64 = 9_007_199_254_740_992.0;

/// The deepest nesting of arrays and objects [`Json::parse`] accepts
/// (serde_json's default). The parser recurses once per level, so a
/// deeper document is an [`Error`] instead of a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// A JSON parse error with a byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// Byte offset where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for Error {}

/// Compact serialization (no whitespace); `Json::to_string()` comes from
/// this impl.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        f.write_str(&out)
    }
}

impl Json {
    /// Parse a JSON document.
    pub fn parse(text: &str) -> Result<Json, Error> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }

    /// Serialize pretty-printed with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(out, *x),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_str(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    /// Look a key up in an object (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a non-negative integer below 2^53, if it is one. A
    /// larger number may have rounded when it was parsed into an `f64`
    /// (`9007199254740993` reads as `…992`), so it is refused rather
    /// than returned as a different integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x < EXACT_INT_LIMIT => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Required-field helpers for manual deserializers: a missing or
    /// mistyped field becomes an [`Error`] naming the key.
    pub fn field_f64(&self, key: &str) -> Result<f64, Error> {
        self.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| missing(key))
    }

    /// See [`Json::field_f64`].
    pub fn field_u64(&self, key: &str) -> Result<u64, Error> {
        self.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| missing(key))
    }

    /// Like [`Json::field_u64`] but 0 when the key is absent — the wire
    /// format's "optional, 0 = default" convention.
    pub fn field_u64_or_zero(&self, key: &str) -> Result<u64, Error> {
        match self.get(key) {
            None => Ok(0),
            Some(v) => v.as_u64().ok_or_else(|| missing(key)),
        }
    }

    /// See [`Json::field_f64`].
    pub fn field_str(&self, key: &str) -> Result<&str, Error> {
        self.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| missing(key))
    }

    /// See [`Json::field_f64`].
    pub fn field_array(&self, key: &str) -> Result<&[Json], Error> {
        self.get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| missing(key))
    }
}

/// The error of the required-field helpers: `key` is absent, or its value
/// has the wrong type.
pub fn missing(key: &str) -> Error {
    Error {
        at: 0,
        msg: format!("missing or mistyped field `{key}`"),
    }
}

/// Build a JSON object from `(key, value)` pairs, preserving order.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A number value. Non-finite inputs serialize as `null`, which the wire
/// formats treat as absent.
pub fn num(x: f64) -> Json {
    if x.is_finite() {
        Json::Num(x)
    } else {
        Json::Null
    }
}

/// An unsigned-integer value.
pub fn uint(x: u64) -> Json {
    Json::Num(x as f64)
}

/// A string value.
pub fn str(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

/// An array of numbers.
pub fn f64_array(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&x| num(x)).collect())
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
}

fn write_num(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() < 9.0e15 {
        // Integers print without a trailing `.0`, matching the wire format.
        let _ = fmt::Write::write_fmt(out, format_args!("{}", x as i64));
    } else {
        // Shortest round-trip representation.
        let _ = fmt::Write::write_fmt(out, format_args!("{x}"));
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error {
            at: self.pos,
            msg: msg.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, Error> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Json, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            // Exactly four ASCII hex digits: no leading
                            // `+`, which `from_str_radix` would allow.
                            let mut code = 0;
                            for &h in hex {
                                let digit = (h as char)
                                    .to_digit(16)
                                    .ok_or_else(|| self.err("bad \\u escape"))?;
                                code = code * 16 + digit;
                            }
                            // Surrogate pairs are not needed by the wire
                            // formats; map unpaired surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // A run of plain characters up to the next quote or
                    // escape. Both are ASCII, so the run ends on a char
                    // boundary of the `&str` input and copies as one slice.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_reserializes_objects() {
        let text = r#"{"a":1,"b":[true,null,"x"],"c":{"d":2.5}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
        assert_eq!(v.field_u64("a").unwrap(), 1);
        assert_eq!(v.get("c").unwrap().field_f64("d").unwrap(), 2.5);
    }

    #[test]
    fn key_order_is_preserved() {
        let v = obj(vec![("z", uint(1)), ("a", uint(2))]);
        assert_eq!(v.to_string(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(num(10_000.0).to_string(), "10000");
        assert_eq!(num(2.5).to_string(), "2.5");
        assert_eq!(num(-3.0).to_string(), "-3");
    }

    #[test]
    fn floats_round_trip() {
        for x in [0.1, 1e-9, 123_456.789, -2.0e17, f64::MAX] {
            let text = num(x).to_string();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back, x, "{text}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "line\nquote\"back\\slash\ttab\u{1}";
        let text = str(s).to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.as_str().unwrap(), s);
    }

    #[test]
    fn whitespace_tolerated_everywhere() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : { } } ").unwrap();
        assert_eq!(v.field_array("a").unwrap().len(), 2);
    }

    #[test]
    fn pretty_printing_indents() {
        let v = obj(vec![("a", Json::Arr(vec![uint(1)]))]);
        let pretty = v.to_string_pretty();
        assert!(pretty.contains("\n  \"a\""), "{pretty}");
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn errors_carry_position() {
        let e = Json::parse("{\"a\":}").unwrap_err();
        assert_eq!(e.at, 5);
        assert!(Json::parse("[1,2").is_err());
        assert!(Json::parse("01x").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn optional_fields_default_to_zero() {
        let v = Json::parse(r#"{"a":1}"#).unwrap();
        assert_eq!(v.field_u64_or_zero("missing").unwrap(), 0);
        assert_eq!(v.field_u64_or_zero("a").unwrap(), 1);
        assert!(v.field_u64("missing").is_err());
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        assert_eq!(num(f64::NAN).to_string(), "null");
        assert_eq!(num(f64::INFINITY).to_string(), "null");
    }

    /// Nesting past `MAX_DEPTH` is an error naming the limit, however
    /// deep the input goes — the parser recurses once per level, so an
    /// unbounded depth would overflow the stack and abort the process.
    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let mixed = "{\"a\":[".repeat(MAX_DEPTH / 2) + &"]}".repeat(MAX_DEPTH / 2);
        assert!(Json::parse(&mixed).is_ok());
        for text in [nested(MAX_DEPTH + 1), "[".repeat(100_000)] {
            let e = Json::parse(&text).unwrap_err();
            assert_eq!(e.at, MAX_DEPTH, "{e}");
            assert!(e.msg.contains("128"), "{e}");
        }
    }

    /// `\u` takes exactly four ASCII hex digits: a sign (which integer
    /// parsing would accept) or a non-hex byte is an error.
    #[test]
    fn unicode_escapes_need_four_hex_digits() {
        let decoded = Json::parse(r#""\u0041\u00e9\u00E9""#).unwrap();
        assert_eq!(decoded.as_str(), Some("Aéé"));
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u04g1""#,
            r#""\u041""#,
        ] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    /// String decoding is linear in the string's length: a 1 MiB value
    /// (multi-byte characters and escapes included) parses well inside a
    /// second even unoptimized.
    #[test]
    fn long_strings_parse_in_linear_time() {
        let mut value = String::new();
        while value.len() < 1 << 20 {
            value.push_str("plain ascii, é and 日本 \"quoted\"\n");
        }
        let text = str(value.as_str()).to_string();
        let start = std::time::Instant::now();
        let back = Json::parse(&text).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(back.as_str(), Some(value.as_str()));
        assert!(elapsed.as_secs_f64() < 1.0, "1 MiB string took {elapsed:?}");
    }
}
