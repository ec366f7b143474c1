//! Minimal JSON encoder/decoder, std-only like the rest of the workspace.
//!
//! Covers the full JSON grammar (objects, arrays, strings with escapes,
//! numbers, booleans, null) with two deliberate simplifications suited to a
//! scoring service: numbers are always `f64` (integers round-trip exactly
//! up to 2^53, far beyond any entity id), and object keys keep insertion
//! order in a `Vec` — requests have a handful of keys, so linear lookup
//! beats hashing.
//!
//! Float formatting uses Rust's shortest-roundtrip `Display`, so a value
//! serialised here and parsed back is **bit-identical** — the property the
//! `/eval` endpoint relies on to agree with library-level evaluation.
//!
//! Parsing recurses once per `[`/`{`, so nesting is capped at
//! [`MAX_DEPTH`]: an unbounded recursion lets a few kilobytes of brackets
//! overflow the worker's stack, an abort no `catch_unwind` survives.

use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts; deeper input is a
/// [`JsonError`] (a `400` on the request path). No request schema nests
/// beyond three levels.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum Json {
    /// `null`
    #[default]
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion-ordered key/value pairs).
    Obj(Vec<(String, Json)>),
}

/// Parse failure: byte offset plus message.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // PARITY: error text only — never part of a scored response body.
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parse a complete JSON document (rejects trailing garbage).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Build an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Field lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // PARITY: the guard admits only non-negative integers with
            // zero fraction below 2^53 — every such value converts exactly.
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// [`Json::as_u64`] narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        // PARITY: exact — `as_u64` bounds v below 2^53 and every supported
        // target has 64-bit `usize`.
        self.as_u64().map(|v| v as usize)
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience: an array of `f64` built from a slice.
    pub fn from_f64s(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
    }

    /// Convenience: an array of `f32` (widened losslessly to `f64`).
    pub fn from_f32s(values: &[f32]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::Num(v as f64)).collect())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            // PARITY: bool Display is `true`/`false` — exact.
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.is_finite() {
                    // PARITY: the one deliberate float-Display site. Rust
                    // emits the shortest decimal that reparses to the same
                    // f64 bits, so encode→parse round-trips bit-exactly;
                    // asserted by json tests and the gateway parity suite.
                    write!(f, "{n}")
                } else {
                    // JSON has no Inf/NaN; null is the conventional stand-in.
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    // PARITY: recursive Display — every leaf is audited
                    // here (Num above is the only float case).
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    // PARITY: recursive Display — every leaf is audited
                    // here (Num above is the only float case).
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            // PARITY: char→u32 is a widening, exact conversion; `{:04x}`
            // and char Display are both exact.
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            // PARITY: char Display is the character itself — exact.
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { offset: self.pos, message: message.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            // PARITY: error text only; u8→char on a byte we matched.
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        // PANIC-OK: `pos <= bytes.len()` is the parser invariant (pos only
        // advances past peeked bytes), so the range slice is in bounds.
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            // PARITY: error text only.
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => {
                Err(self.err("arrays and objects nested too deeply"))
            }
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect_byte(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect_byte(b'[')?;
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs for astral-plane characters.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                // PANIC-OK: `pos <= bytes.len()` parser
                                // invariant keeps the range slice in bounds.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 2;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid unicode escape"))?);
                            continue; // hex4 already advanced pos
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Bulk-consume up to the next quote or backslash. Both
                    // are ASCII, so splitting there cannot cut a multi-byte
                    // sequence; the input arrived as &str, so the chunk is
                    // valid UTF-8 by construction.
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    // PANIC-OK: `start <= pos <= bytes.len()` — both were
                    // cursor positions.
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        // PANIC-OK: the length check above guarantees `pos + 4 <= len`.
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid unicode escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
        // PANIC-OK: `start..pos` spans only ASCII sign/digit/dot/exponent
        // bytes just scanned, so the slice is in bounds and valid UTF-8.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            // PARITY: error text only.
            .map_err(|_| JsonError { offset: start, message: format!("invalid number '{text}'") })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-1.5e3").unwrap(), Json::Num(-1500.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        let a = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[2].get("b"), Some(&Json::Null));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = Json::Str("line\n\"quote\"\\tab\t\u{1F600}\u{0007}".into());
        let text = original.to_string();
        assert_eq!(Json::parse(&text).unwrap(), original);
    }

    #[test]
    fn nesting_past_the_bound_is_an_error_not_a_stack_overflow() {
        // A spawned thread has the default 2 MiB stack, which unbounded
        // recursion overflows at about 10 000 levels.
        let deep = std::thread::spawn(|| Json::parse(&"[".repeat(100_000)).is_err());
        assert!(deep.join().unwrap(), "100 000 open brackets must be rejected");
        let nest =
            |open: &str, close: &str, n: usize| format!("{}0{}", open.repeat(n), close.repeat(n));
        for (open, close) in [("[", "]"), (r#"{"k":"#, "}")] {
            assert!(Json::parse(&nest(open, close, MAX_DEPTH)).is_ok(), "{open} at the bound");
            let err = Json::parse(&nest(open, close, MAX_DEPTH + 1)).unwrap_err();
            assert!(err.message.contains("nested too deeply"), "{err}");
        }
    }

    #[test]
    fn surrogate_pair_parses() {
        assert_eq!(Json::parse(r#""\ud83d\ude00""#).unwrap(), Json::Str("\u{1F600}".into()));
        assert!(Json::parse(r#""\ud83d""#).is_err(), "unpaired surrogate rejected");
    }

    #[test]
    fn f64_roundtrips_bit_for_bit() {
        let cases =
            [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 123_456_789.123_456_79, -0.0, 2f64.powi(60)];
        for &v in &cases {
            let text = Json::Num(v).to_string();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} reparsed as {back}");
        }
    }

    #[test]
    fn f32_widening_roundtrips() {
        for &v in &[0.1f32, -3.75, f32::MAX, f32::MIN_POSITIVE] {
            let text = Json::Num(v as f64).to_string();
            let back = Json::parse(&text).unwrap().as_f64().unwrap() as f32;
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn long_strings_parse_in_bulk() {
        // The unescaped fast path must hold for large strings (the parser
        // previously re-validated the whole tail per character, O(n²)).
        let payload = "x".repeat(2_000_000) + "é\\n" + &"y".repeat(1_000_000);
        let doc = format!("{{\"s\":\"{payload}\"}}");
        let start = std::time::Instant::now();
        let v = Json::parse(&doc).unwrap();
        assert!(start.elapsed().as_secs_f64() < 2.0, "long-string parse too slow");
        let s = v.get("s").and_then(Json::as_str).unwrap();
        assert_eq!(s.len(), 2_000_000 + "é".len() + 1 + 1_000_000);
        assert!(s.contains("é\n"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\"}", "tru", "1 2", "{\"a\":}", "[1 2]", "\"\\x\""] {
            assert!(Json::parse(bad).is_err(), "accepted malformed {bad:?}");
        }
    }

    #[test]
    fn integer_accessors_validate() {
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
        assert_eq!(Json::Num(7.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(7.0).as_usize(), Some(7));
    }

    #[test]
    fn non_finite_serialises_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn builders_compose() {
        let v = Json::obj([("scores", Json::from_f32s(&[1.0, -2.5])), ("ok", Json::Bool(true))]);
        assert_eq!(v.to_string(), r#"{"scores":[1,-2.5],"ok":true}"#);
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Json::parse(" \t\n{ \"a\" : [ 1 , 2 ] }\r\n").unwrap();
        assert_eq!(v.get("a").and_then(Json::as_array).map(<[Json]>::len), Some(2));
    }
}
