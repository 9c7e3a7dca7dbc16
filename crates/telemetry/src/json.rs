//! The workspace's one JSON codec: a string writer and a total reader.
//!
//! Every JSON document the workspace writes (telemetry and perf
//! snapshots, span trees, event-journal lines, fleet report lines,
//! trace-lake query reports, the daemon's wire protocol and its
//! persisted cache entries) quotes every string it takes from data with
//! [`string`], and every JSON document it reads goes through [`parse`].
//!
//! The workspace is offline and dependency-free, so the reader is a
//! small recursive-descent parser instead of serde. It accepts objects,
//! arrays, strings with the common escapes (including UTF-16 surrogate
//! pairs), numbers in RFC 8259's grammar (no leading zeros, digits on
//! both sides of a dot), booleans, null and arbitrary whitespace, and, like
//! `dram_trace`'s decoder, it is **total**: every malformed input maps
//! to a [`ParseError`] carrying the byte offset where reading stopped,
//! and nesting is capped so hostile input cannot exhaust the stack.
//!
//! Numbers keep the kind of literal they came from. An integer literal
//! (digits with an optional `-`, no fraction, no exponent) is held
//! exactly: a non-negative one as [`Value::U64`], a negative one as
//! [`Value::I64`], and `-0` as `U64(0)`. Every other number (a
//! fraction, an exponent, or an integer literal outside both 64-bit
//! ranges) is a [`Value::F64`], so a valid document always parses.
//! Seeds, ids and sequence numbers therefore round-trip across all 64
//! bits, and a field that wants an integer can tell `7` from `7.0`.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed JSON value. Object keys are held in a `BTreeMap`, so
/// re-rendering a value is deterministic regardless of input key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal, exact.
    U64(u64),
    /// A negative integer literal, exact (non-negative ones are `U64`).
    I64(i64),
    /// Any other number: a fraction, an exponent, or an integer literal
    /// outside both 64-bit ranges.
    F64(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The value as an object, if it is one.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a float, if it is a number of any kind.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::U64(n) => Some(n as f64),
            Value::I64(n) => Some(n as f64),
            Value::F64(n) => Some(n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it was written as one.
    /// Never a converted float: `1e3` and `7.0` are `None`.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(n) => Some(n),
            _ => None,
        }
    }
}

/// Where and why [`parse`] stopped reading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// The caller's label for the input (a file name, `"request"`).
    pub label: String,
    /// Byte offset at which parsing stopped.
    pub offset: usize,
    /// What was wrong.
    pub what: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: invalid JSON at byte {}: {}",
            self.label, self.offset, self.what
        )
    }
}

impl std::error::Error for ParseError {}

/// Renders `s` as a JSON string literal, quotes included.
///
/// `"`, `\` and the control characters below U+0020 are escaped
/// (`\n`, `\r` and `\t` by name, the rest as `\u00xx`); everything
/// else, DEL and non-BMP characters included, passes through raw.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Parses one JSON document; trailing garbage is an error.
///
/// `label` only names the input in errors.
///
/// # Errors
///
/// Returns a [`ParseError`] with the byte offset of the first
/// malformed construct.
pub fn parse(label: &str, input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        label,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(value)
}

/// Nesting ceiling; the workspace's documents are a few levels deep,
/// and hostile input must not blow the stack.
const MAX_DEPTH: u32 = 64;

struct Parser<'a> {
    label: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: u32,
}

impl Parser<'_> {
    fn err(&self, what: &'static str) -> ParseError {
        ParseError {
            label: self.label.to_string(),
            offset: self.pos,
            what,
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

    fn skip_digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, what: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("unrecognized literal"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{', "expected '{'")?;
        self.depth += 1;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[', "expected '['")?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
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
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// Reads the four hex digits of a `\uXXXX` escape with `self.pos`
    /// on the `u`, without consuming them.
    fn u16_escape(&mut self) -> Result<u32, ParseError> {
        let hex = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let hex = std::str::from_utf8(hex).map_err(|_| self.err("non-ASCII \\u escape"))?;
        u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "expected '\"'")?;
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
                        Some(b'u') => {
                            let code = self.u16_escape()?;
                            if (0xdc00..0xe000).contains(&code) {
                                return Err(self.err("unpaired low surrogate"));
                            }
                            if (0xd800..0xdc00).contains(&code) {
                                // Reference encoders emit non-BMP
                                // characters as a \uD8xx\uDCxx pair;
                                // combine it into one scalar.
                                self.pos += 5;
                                if self.peek() != Some(b'\\')
                                    || self.bytes.get(self.pos + 1) != Some(&b'u')
                                {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                                self.pos += 1;
                                let low = self.u16_escape()?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                                let scalar = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                out.push(
                                    char::from_u32(scalar)
                                        .expect("paired surrogates form a scalar"),
                                );
                            } else {
                                out.push(
                                    char::from_u32(code).expect("non-surrogate u16 is a scalar"),
                                );
                            }
                            self.pos += 4;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control byte in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xc0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("input slice came from a &str"),
                    );
                }
            }
        }
    }

    /// Reads one or more digits.
    fn digits(&mut self) -> Result<(), ParseError> {
        let start = self.pos;
        self.skip_digits();
        if self.pos == start {
            return Err(self.err("malformed number"));
        }
        Ok(())
    }

    /// Reads a number in RFC 8259's grammar,
    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`: no leading
    /// zeros, and digits on both sides of a dot.
    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
            if matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("malformed number"));
            }
        } else {
            self.digits()?;
        }
        let mut integer = true;
        if self.peek() == Some(b'.') {
            integer = false;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integer = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if integer {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            // Only negative literals reach here in range; `-0` is zero.
            if let Ok(n) = text.parse::<i64>() {
                return Ok(if n == 0 { Value::U64(0) } else { Value::I64(n) });
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(input: &str) -> Value {
        parse("t.json", input).expect("parses")
    }

    #[test]
    fn parses_the_snapshot_shapes() {
        let v = ok(r#"{"schema":"dramscope.perf","version":1,
                       "suites":{"a":{"median_ns":12.5,"iters":3}},
                       "tags":["x","y"],"none":null,"flag":true}"#);
        let obj = v.as_object().unwrap();
        assert_eq!(obj["schema"].as_str(), Some("dramscope.perf"));
        assert_eq!(obj["version"].as_u64(), Some(1));
        let suites = obj["suites"].as_object().unwrap();
        assert_eq!(
            suites["a"].as_object().unwrap()["median_ns"].as_f64(),
            Some(12.5)
        );
        assert_eq!(
            obj["tags"],
            Value::Array(vec![Value::String("x".into()), Value::String("y".into()),])
        );
        assert_eq!(obj["none"], Value::Null);
        assert_eq!(obj["flag"], Value::Bool(true));
    }

    #[test]
    fn integer_literals_are_exact_and_other_numbers_are_floats() {
        let cases = [
            ("0", Value::U64(0)),
            ("-0", Value::U64(0)),
            ("-1", Value::I64(-1)),
            ("9007199254740993", Value::U64((1 << 53) + 1)),
            ("18446744073709551615", Value::U64(u64::MAX)),
            ("-9223372036854775808", Value::I64(i64::MIN)),
            ("1e3", Value::F64(1000.0)),
            ("7.0", Value::F64(7.0)),
            ("-3.25", Value::F64(-3.25)),
            ("2.5E-1", Value::F64(0.25)),
            ("0.5", Value::F64(0.5)),
            ("0e1", Value::F64(0.0)),
            // Integer literals outside both 64-bit ranges still parse.
            ("18446744073709551616", Value::F64(2f64.powi(64))),
            ("-9223372036854775809", Value::F64(-(2f64.powi(63)))),
        ];
        for (input, want) in cases {
            assert_eq!(ok(input), want, "{input}");
        }
        // as_u64 reads exact non-negative integers only; as_f64 any number.
        assert_eq!(ok("9007199254740993").as_u64(), Some((1 << 53) + 1));
        assert_eq!(ok("18446744073709551615").as_u64(), Some(u64::MAX));
        for input in ["-1", "1e3", "7.0", "18446744073709551616", "1.5"] {
            assert_eq!(ok(input).as_u64(), None, "{input}");
        }
        assert_eq!(ok("-1").as_f64(), Some(-1.0));
        assert_eq!(ok("1e3").as_f64(), Some(1000.0));
        assert_eq!(ok("\"7\"").as_f64(), None);
    }

    #[test]
    fn strings_unescape() {
        assert_eq!(ok(r#""a\"b\\c\n\u0041""#).as_str(), Some("a\"b\\c\nA"));
        assert_eq!(ok("\"héllo\"").as_str(), Some("héllo"));
    }

    #[test]
    fn surrogate_pairs_combine_into_one_scalar() {
        // Reference encoders write non-BMP characters as a UTF-16
        // surrogate pair; both the escaped pair and the raw character
        // decode to the same string.
        assert_eq!(ok("\"\\ud83d\\ude00\"").as_str(), Some("\u{1f600}"));
        assert_eq!(ok("\"\u{1f600}\"").as_str(), Some("\u{1f600}"));
        assert_eq!(ok("\"\\ud800\\udc00\"").as_str(), Some("\u{10000}"));
        assert_eq!(ok("\"\\udbff\\udfff\"").as_str(), Some("\u{10ffff}"));
        // A pair sits between other content without desyncing the
        // cursor, and DEL (0x7f) passes as an escape or raw.
        assert_eq!(
            ok("\"a\\ud83d\\ude00b\\u007f\"").as_str(),
            Some("a\u{1f600}b\u{7f}")
        );
        assert_eq!(ok("\"\u{7f}\"").as_str(), Some("\u{7f}"));
    }

    #[test]
    fn malformed_input_errors_with_offsets_not_panics() {
        let cases: &[(&str, &str)] = &[
            ("", "unexpected end of input"),
            ("{", "expected '\"'"),
            ("{\"a\" 1}", "expected ':'"),
            ("{\"a\":1 \"b\":2}", "expected ',' or '}'"),
            ("[1 2]", "expected ',' or ']'"),
            ("\"abc", "unterminated string"),
            ("\"\\q\"", "unknown escape"),
            ("\"\\u12", "truncated \\u escape"),
            ("\"\\ud800\"", "unpaired high surrogate"),
            ("\"\\ud800x\"", "unpaired high surrogate"),
            ("\"\\ud800\\n\"", "unpaired high surrogate"),
            ("\"\\ud800\\ud800\"", "unpaired high surrogate"),
            ("\"\\udc00\"", "unpaired low surrogate"),
            ("\"\\ud83d\\u00e9\"", "unpaired high surrogate"),
            ("tru", "unrecognized literal"),
            ("1 2", "trailing data after document"),
            ("@", "unexpected character"),
            ("-", "malformed number"),
            ("007", "malformed number"),
            ("-01", "malformed number"),
            ("[00]", "malformed number"),
            ("1.", "malformed number"),
            ("1.e2", "malformed number"),
            ("-.5", "malformed number"),
            ("1e", "malformed number"),
            ("1e+", "malformed number"),
        ];
        for (input, needle) in cases {
            let err = parse("t.json", input).expect_err(input);
            let text = err.to_string();
            assert!(text.contains(needle), "{input:?} gave {text:?}");
            assert!(text.contains("at byte"), "{text:?} names an offset");
        }
        // Daemon error responses embed this text verbatim.
        assert_eq!(
            parse("request", "{\"a\" 1}").unwrap_err().to_string(),
            "request: invalid JSON at byte 5: expected ':'"
        );
    }

    #[test]
    fn hostile_nesting_is_bounded() {
        let deep = "[".repeat(100_000);
        let err = parse("t.json", &deep).expect_err("too deep");
        assert!(err.to_string().contains("nesting too deep"), "{err}");
    }

    #[test]
    fn duplicate_keys_last_write_wins() {
        let v = ok(r#"{"a":1,"a":2}"#);
        assert_eq!(v.as_object().unwrap()["a"].as_u64(), Some(2));
    }

    #[test]
    fn string_escapes_the_awkward_cases() {
        assert_eq!(string("a\"b\\c\n"), r#""a\"b\\c\n""#);
        assert_eq!(string("\r\t"), r#""\r\t""#);
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
        assert_eq!(string("\u{1f}"), "\"\\u001f\"");
        assert_eq!(string("héllo"), "\"héllo\"");
        assert_eq!(string(""), "\"\"");
    }

    #[test]
    fn del_and_non_bmp_round_trip_through_encode_and_decode() {
        // DEL (0x7f) and astral-plane characters are legal unescaped
        // in JSON strings; the encoder passes them raw and the decoder
        // must return them unchanged.
        let cases = [
            "\u{7f}",
            "del\u{7f}del",
            "\u{1f600}",
            "a\u{1f600}b",
            "\u{10000}\u{10ffff}",
            "mixed\t\u{7f}\u{1f4a9}\"quoted\"",
        ];
        for original in cases {
            let encoded = string(original);
            let decoded = parse("roundtrip", &encoded)
                .unwrap_or_else(|e| panic!("{original:?} encoded as {encoded:?}: {e}"));
            assert_eq!(decoded.as_str(), Some(original), "{encoded:?}");
        }
    }

    #[test]
    fn reference_surrogate_pair_escapes_decode_to_the_same_string() {
        // Reference JSON encoders (serde_json, python's json, JS'
        // JSON.stringify with default settings on non-BMP input) may
        // emit astral characters as \uD8xx\uDCxx pairs. Whichever form
        // a client sends, the reader must return the same string.
        let pairs = [
            ("\"\\ud83d\\ude00\"", "\u{1f600}"),
            ("\"\\ud800\\udc00\"", "\u{10000}"),
            ("\"\\udbff\\udfff\"", "\u{10ffff}"),
            ("\"\\u007f\"", "\u{7f}"),
        ];
        for (escaped, expected) in pairs {
            let decoded = parse("reference", escaped).expect(escaped);
            assert_eq!(decoded.as_str(), Some(expected), "{escaped}");
            // And the decoded string re-encodes to something that
            // decodes back to itself (full round trip).
            let again = parse("reference", &string(expected)).expect("re-encode");
            assert_eq!(again.as_str(), Some(expected));
        }
    }
}
