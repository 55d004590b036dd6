//! A small, dependency-free JSON value type with a strict parser and a
//! canonical serializer.
//!
//! The offline build environment has no `serde`, so the job runtime
//! serialises its specs, summaries, and checkpoints through this module.
//! Objects are backed by `BTreeMap`, so serialisation is *canonical*
//! (keys sorted): equal values always produce byte-identical text, which
//! makes content hashes of specs stable.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (parsed when the token has no fraction or exponent).
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with canonically (lexicographically) ordered keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Creates an empty object.
    #[must_use]
    pub fn object() -> Self {
        Json::Obj(BTreeMap::new())
    }

    /// Inserts `key` into an object value; panics on non-objects (internal
    /// construction misuse, not input data).
    pub fn insert(&mut self, key: &str, value: Json) {
        match self {
            Json::Obj(map) => {
                map.insert(key.to_string(), value);
            }
            _ => panic!("Json::insert on a non-object"),
        }
    }

    /// Member lookup on objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The object's map, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// The array's elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// String view.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Non-negative integer view (accepts `Int` ≥ 0 only).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// Float view (integers coerce).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(v) => Some(*v),
            Json::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Bool view.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serialises to compact canonical JSON.
    #[must_use]
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serialises to human-readable indented JSON.
    #[must_use]
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => write_f64(out, *v),
            Json::Str(s) => write_escaped(out, s),
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
            Json::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` prints the shortest representation that round-trips.
        let _ = write!(out, "{v:?}");
    } else {
        // JSON has no Inf/NaN; null is the conventional fallback.
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

/// A JSON parse error with byte position context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub position: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// The deepest array/object nesting [`parse`] accepts (and the TOML
/// subset's nested arrays). Parsing recurses once per level, so the cap
/// keeps hostile input — a body of 20 000 `[` — from overflowing the
/// stack; real documents nest a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document (a single value with only trailing whitespace).
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input, including arrays and
/// objects nested deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            position: self.pos,
            message: message.to_string(),
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

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{text}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.error(&format!("unexpected character '{}'", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, ParseError> {
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
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek();
                    self.pos += 1;
                    match escape {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let code = self.hex4()?;
                            // Surrogate pairs: accept and combine when a
                            // low surrogate follows; lone surrogates map to
                            // the replacement character.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if (0xDC00..0xE000).contains(&low) {
                                        let combined =
                                            0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                        char::from_u32(combined).unwrap_or('\u{FFFD}')
                                    } else {
                                        '\u{FFFD}'
                                    }
                                } else {
                                    '\u{FFFD}'
                                }
                            } else {
                                char::from_u32(code).unwrap_or('\u{FFFD}')
                            };
                            out.push(c);
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is &str, so the
                    // byte stream is valid UTF-8).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    let c = rest
                        .chars()
                        .next()
                        .ok_or_else(|| self.error("unexpected end"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Consumes exactly four hex digits, leaving `pos` after them.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b) if b.is_ascii_hexdigit() => (b as char).to_digit(16).unwrap(),
                _ => return Err(self.error("invalid \\u escape")),
            };
            code = code * 16 + d;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        if !is_float {
            return match text.parse::<i64>() {
                Ok(v) => Ok(Json::Int(v)),
                // Silently demoting an out-of-range integer to f64 would
                // mangle u64 seeds/counts; fail loudly with the escape
                // hatch instead.
                Err(_) => Err(self.error(&format!(
                    "integer {text} exceeds the supported signed 64-bit range; \
                     encode large u64 values as decimal strings"
                ))),
            };
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `text` on a fresh thread with the default 2 MiB stack, the
    /// stack od-serve's connection threads run on.
    fn parse_on_default_stack(text: String) -> Result<Json, ParseError> {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse(&text))
            .unwrap()
            .join()
            .unwrap()
    }

    fn nested_arrays(depth: usize) -> String {
        format!("{}{}", "[".repeat(depth), "]".repeat(depth))
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        assert!(parse_on_default_stack(nested_arrays(MAX_DEPTH)).is_ok());
        let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(parse_on_default_stack(objects).is_ok());
        let err = parse_on_default_stack(nested_arrays(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.position, MAX_DEPTH, "{err}");
        assert!(err.message.contains("nesting"), "{err}");
        let err = parse_on_default_stack("[".repeat(100_000)).unwrap_err();
        assert_eq!(err.position, MAX_DEPTH, "{err}");
        let mixed = format!("{}{}", "{\"a\":[".repeat(65), "]}".repeat(65));
        assert!(parse_on_default_stack(mixed).is_err(), "130 levels");
    }

    #[test]
    fn roundtrip_compound_value() {
        let text = r#"{"b": [1, 2.5, -3], "a": {"x": null, "y": true}, "s": "hi\n\"q\""}"#;
        let value = parse(text).unwrap();
        assert_eq!(value.get("b").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(value.get("s").unwrap().as_str(), Some("hi\n\"q\""));
        let compact = value.to_string_compact();
        // Canonical order: keys sorted.
        assert!(compact.starts_with("{\"a\":"));
        assert_eq!(parse(&compact).unwrap(), value);
        let pretty = value.to_string_pretty();
        assert_eq!(parse(&pretty).unwrap(), value);
    }

    #[test]
    fn integers_and_floats_are_distinguished() {
        assert_eq!(parse("7").unwrap(), Json::Int(7));
        assert_eq!(parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(parse("7.0").unwrap(), Json::Float(7.0));
        assert_eq!(parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(Json::Int(7).as_f64(), Some(7.0));
        assert_eq!(Json::Float(7.5).as_u64(), None);
    }

    #[test]
    fn canonical_serialisation_is_deterministic() {
        let a = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let b = parse(r#"{"a": 2, "z": 1}"#).unwrap();
        assert_eq!(a.to_string_compact(), b.to_string_compact());
    }

    #[test]
    fn float_serialisation_roundtrips_bits() {
        let v = Json::Float(0.1 + 0.2);
        let text = v.to_string_compact();
        match parse(&text).unwrap() {
            Json::Float(f) => assert_eq!(f.to_bits(), (0.1f64 + 0.2).to_bits()),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(parse(r#""Aé😀""#).unwrap(), Json::Str("Aé😀".to_string()));
    }

    #[test]
    fn surrogate_pair_escapes_combine() {
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("😀".to_string())
        );
        // Lone high surrogate degrades to the replacement character.
        assert_eq!(
            parse(r#""\ud83dx""#).unwrap(),
            Json::Str("\u{FFFD}x".to_string())
        );
    }

    #[test]
    fn out_of_range_integers_fail_loudly() {
        let err = parse("18446744073709551615").unwrap_err();
        assert!(err.message.contains("decimal strings"), "{err}");
        // Still fine as an explicit float or a string.
        assert!(matches!(parse("1.8446744e19").unwrap(), Json::Float(_)));
        assert_eq!(
            parse("\"18446744073709551615\"").unwrap(),
            Json::Str("18446744073709551615".to_string())
        );
    }

    #[test]
    fn errors_carry_position() {
        let err = parse("{\"a\": }").unwrap_err();
        assert_eq!(err.position, 6);
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("01x").is_err());
        assert!(parse("").is_err());
        assert!(parse("{}extra").is_err());
    }
}
