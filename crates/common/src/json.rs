//! The workspace's one way to write and read JSON.
//!
//! The workspace builds offline with no crates.io dependencies, so this
//! module stands in for `serde_json`: a document [`Value`], the compact
//! writer behind every `repro --json`, `--bench`, explore and lint document
//! (`Display`, so `value.to_string()` renders it), and a strict [`parse`]r
//! for the gates and tests that read those documents back.
//!
//! Writer rules — committed documents depend on them byte for byte:
//! * no whitespace; object fields keep their insertion order;
//! * strings escape `"`, `\`, `\n`, `\r`, `\t` and the other control
//!   characters (as `\u00XX`); everything else, non-ASCII included, is
//!   written as is;
//! * integers print in decimal; floats print in Rust's shortest round-trip
//!   form (`20`, `0.1`; never an exponent), and a non-finite float (the NaN
//!   of a missing throughput) is `null` — [`Value::from`] maps it to
//!   [`Value::Null`] when the tree is built.
//!
//! The parser accepts RFC 8259 JSON only. Truncated input, trailing data,
//! bad escapes, lone surrogates, numbers out of `f64` range and nesting
//! deeper than 128 levels are errors, never panics. A number without a
//! fraction or exponent parses as [`Value::Int`], so parsing a document this
//! writer produced and writing it again gives back the same bytes.

use std::fmt::{self, Write as _};

/// The deepest nesting [`parse`] accepts. The documents this workspace
/// writes nest fewer than ten levels; the bound keeps hostile input from
/// exhausting the stack.
const MAX_DEPTH: usize = 128;

/// A JSON value. Objects keep their fields in insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without fraction or exponent. `i128` holds every
    /// `u64` and every `i64`.
    Int(i128),
    /// Any other number; written as `null` when not finite.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, fields in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// An object with the given fields, in the given order.
    pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of the given items.
    pub fn array<T: Into<Value>>(items: impl IntoIterator<Item = T>) -> Value {
        Value::Array(items.into_iter().map(Into::into).collect())
    }

    /// The first field named `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The text, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The flag, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

macro_rules! from_integer {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(i: $t) -> Self {
                Value::Int(i as i128)
            }
        }
    )*};
}
from_integer!(u32, u64, usize);

impl From<f64> for Value {
    /// Non-finite floats become [`Value::Null`].
    fn from(f: f64) -> Self {
        if f.is_finite() {
            Value::Float(f)
        } else {
            Value::Null
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<&String> for Value {
    fn from(s: &String) -> Self {
        Value::Str(s.clone())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    /// `None` becomes [`Value::Null`].
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

/// The compact writer.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) if x.is_finite() => write!(f, "{x}"),
            Value::Float(_) => f.write_str("null"),
            Value::Str(s) => write_string(f, s),
            Value::Array(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    item.fmt(f)?;
                }
                f.write_char(']')
            }
            Value::Object(fields) => {
                f.write_char('{')?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_string(f, key)?;
                    f.write_char(':')?;
                    value.fmt(f)?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Write `s` as a JSON string literal.
fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// Parse one JSON document. Whitespace may surround the value; anything
/// else after it is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut parser = Parser { text, pos: 0 };
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos != text.len() {
        return Err(parser.error("trailing data"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consume `b` after optional whitespace.
    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth >= MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                loop {
                    self.skip_ws();
                    if self.peek() != Some(b'"') {
                        return Err(self.error("expected a string key"));
                    }
                    let key = self.string()?;
                    self.expect(b':')?;
                    fields.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(fields));
                        }
                        _ => return Err(self.error("expected ',' or '}'")),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(self.error("expected ',' or ']'")),
                    }
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("invalid literal"))
        }
    }

    /// Consume a run of ASCII digits; returns how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        if self.digits() == 0 {
            return Err(self.error("expected a digit"));
        }
        if self.text.as_bytes()[int_start] == b'0' && self.pos - int_start > 1 {
            return Err(self.error("leading zero"));
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            integral = false;
            if self.digits() == 0 {
                return Err(self.error("expected a fraction digit"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            integral = false;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.error("expected an exponent digit"));
            }
        }
        let text = &self.text[start..self.pos];
        // `-0` is the float negative zero; an integer too large for i128
        // falls through to f64 like any other number.
        if integral && text != "-0" {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Value::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Value::Float(f)),
            _ => Err(self.error("number out of range")),
        }
    }

    /// Parse a string literal; `pos` is at its opening quote.
    fn string(&mut self) -> Result<String, String> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control byte
            // in one piece: each is ASCII, so the slice ends on a char
            // boundary.
            let run = self.text.as_bytes()[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .ok_or_else(|| self.error("unterminated string"))?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.error("bad escape")),
                    };
                    out.push(escaped);
                    self.pos += 1;
                }
                _ => return Err(self.error("control character in string")),
            }
        }
    }

    /// Four hex digits at `pos`.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.error("bad \\u escape"))?;
        self.pos += 4;
        u32::from_str_radix(hex, 16).map_err(|_| self.error("bad \\u escape"))
    }

    /// The character of a `\u` escape whose `u` was just consumed, joining
    /// a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let first = self.hex4()?;
        let code = match first {
            0xD800..=0xDBFF => {
                if !self.text[self.pos..].starts_with("\\u") {
                    return Err(self.error("unpaired surrogate"));
                }
                self.pos += 2;
                let second = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&second) {
                    return Err(self.error("unpaired surrogate"));
                }
                0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(self.error("unpaired surrogate")),
            code => code,
        };
        char::from_u32(code).ok_or_else(|| self.error("bad \\u escape"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{seeded, Rng, StdRng};

    #[test]
    fn writes_the_documented_rules() {
        let v = Value::object([
            ("s", Value::from("a\"b\\c\nd\te\r\u{1}\u{7f}θ")),
            ("i", Value::from(u64::MAX)),
            ("n", Value::Int(-5)),
            ("f", Value::from(12.5)),
            ("whole", Value::from(20.0)),
            ("nan", Value::from(f64::NAN)),
            ("raw_inf", Value::Float(f64::INFINITY)),
            ("none", Value::from(None::<u64>)),
            ("list", Value::array([true, false])),
            ("empty", Value::object(Vec::<(&str, Value)>::new())),
        ]);
        assert_eq!(
            v.to_string(),
            "{\"s\":\"a\\\"b\\\\c\\nd\\te\\r\\u0001\u{7f}θ\",\"i\":18446744073709551615,\
             \"n\":-5,\"f\":12.5,\"whole\":20,\"nan\":null,\"raw_inf\":null,\"none\":null,\
             \"list\":[true,false],\"empty\":{}}"
        );
    }

    #[test]
    fn parses_standard_json_with_typed_access() {
        let v = parse(
            " {\"a\": [1, -2.5e1, true, null], \"b\": \"x\\u00e9\\ud83d\\ude00\\/\", \"c\": {}} ",
        )
        .unwrap();
        let a = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(a[0], Value::Int(1));
        assert_eq!(a[1].as_f64(), Some(-25.0));
        assert_eq!(a[2].as_bool(), Some(true));
        assert_eq!(a[3], Value::Null);
        assert_eq!(v.get("b").and_then(Value::as_str), Some("xé😀/"));
        assert_eq!(v.get("c"), Some(&Value::Object(Vec::new())));
        assert_eq!(v.get("missing"), None);
        assert_eq!(parse("-0").unwrap().to_string(), "-0");
        assert_eq!(
            parse("340282366920938463463374607431768211457")
                .unwrap()
                .to_string(),
            {
                "340282366920938463463374607431768211457"
                    .parse::<f64>()
                    .unwrap()
                    .to_string()
            }
        );
    }

    #[test]
    fn malformed_input_is_an_error() {
        for bad in [
            "",
            " ",
            "{",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{1:2}",
            "[1 2]",
            "01",
            "1.",
            ".5",
            "1e",
            "-",
            "+1",
            "1e999",
            "nul",
            "truex",
            "\"abc",
            "\"a\nb\"",
            "\"\\x\"",
            "\"\\u12",
            "\"\\u12\"",
            "\"\\u12g4\"",
            "\"\\ud800\"",
            "\"\\ud800\\u0041\"",
            "\"\\udc00\"",
            "[] []",
            "NaN",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(parse(&deep).is_err());
        let shallow = "[".repeat(MAX_DEPTH - 1) + &"]".repeat(MAX_DEPTH - 1);
        assert!(parse(&shallow).is_ok());
    }

    fn random_string(rng: &mut StdRng) -> String {
        const ALPHABET: &[char] = &[
            'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é',
            'θ', '€', '😀', '\u{2028}',
        ];
        (0..rng.gen_range(0..12usize))
            .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
            .collect()
    }

    fn random_value(rng: &mut StdRng, depth: usize) -> Value {
        let leaf_only = depth >= 4;
        match rng.gen_range(0..if leaf_only { 6u32 } else { 8 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.gen()),
            2 => Value::from(rng.gen::<u64>() >> rng.gen_range(0..64u32)),
            3 => Value::Int(-i128::from(rng.gen_range(0..1_000_000u64))),
            4 => {
                let magnitude = 10f64.powi(rng.gen_range(0..600u32) as i32 - 300);
                match rng.gen_range(0..6u32) {
                    0 => Value::from(f64::NAN),
                    1 => Value::from(-0.0),
                    2 => Value::from(rng.gen_range(0..1_000u64) as f64),
                    _ => Value::from((rng.gen::<f64>() - 0.5) * magnitude),
                }
            }
            5 => Value::Str(random_string(rng)),
            6 => Value::Array(
                (0..rng.gen_range(0..5usize))
                    .map(|_| random_value(rng, depth + 1))
                    .collect(),
            ),
            _ => Value::Object(
                (0..rng.gen_range(0..5usize))
                    .map(|_| (random_string(rng), random_value(rng, depth + 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn random_trees_survive_write_parse_write() {
        let mut rng = seeded(0x4a53_4f4e);
        for _ in 0..2_000 {
            let written = random_value(&mut rng, 0).to_string();
            let reparsed = parse(&written).unwrap_or_else(|e| panic!("{e}: {written}"));
            assert_eq!(reparsed.to_string(), written);
        }
    }

    #[test]
    fn every_strict_prefix_and_random_garbage_fails_cleanly() {
        let mut rng = seeded(0x6761_7262);
        for _ in 0..200 {
            let written = Value::Array(vec![random_value(&mut rng, 1)]).to_string();
            for end in (0..written.len()).filter(|&i| written.is_char_boundary(i)) {
                assert!(parse(&written[..end]).is_err(), "{:?}", &written[..end]);
            }
        }
        // Garbage over JSON's own punctuation, so some of it gets deep into
        // the parser before failing (or, rarely, is valid JSON).
        const BYTES: &[u8] = b"{}[]\",:\\u0123456789abcdef-+.eEtrufalsn \n\x01";
        for _ in 0..20_000 {
            let garbage: String = (0..rng.gen_range(0..24usize))
                .map(|_| BYTES[rng.gen_range(0..BYTES.len())] as char)
                .collect();
            if let Ok(v) = parse(&garbage) {
                let written = v.to_string();
                assert_eq!(parse(&written).map(|w| w.to_string()), Ok(written));
            }
        }
    }
}
