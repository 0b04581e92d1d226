//! A minimal, dependency-free JSON value type, parser, and writer.
//!
//! The build environment for this workspace is fully offline: no crates.io
//! registry is reachable, so `serde`/`serde_json` cannot be resolved. The
//! experiment harness still needs to persist figures as JSON (EXPERIMENTS.md
//! is regenerated from those files) and the search-space types still need a
//! serialization round-trip, so this module provides the small subset of
//! JSON we actually use, hand-rolled on `std` alone.
//!
//! Enum values use the externally-tagged convention (`{"Int": 3}`), matching
//! the shape serde would have produced, so previously written result files
//! stay readable.

use std::fmt::Write as _;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// The `null` literal.
    Null,
    /// A boolean.
    Bool(bool),
    /// A number (always an `f64`, as in JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// Object as an ordered key-value list (we never need hashing, and
    /// insertion order keeps output diffs stable).
    Obj(Vec<(String, Json)>),
}

/// Parse or conversion failure, with a byte offset for parse errors.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input where parsing failed (0 for semantic
    /// errors raised on an already-parsed document).
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (at byte {})", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(message: impl Into<String>, offset: usize) -> Result<T, JsonError> {
    Err(JsonError {
        message: message.into(),
        offset,
    })
}

impl Json {
    /// Object constructor from key-value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup on objects; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64` if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as `&str` if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    // ---------------------------------------------------------------
    // Writing
    // ---------------------------------------------------------------

    /// Pretty encoding with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * level), " ".repeat(w * (level + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_number(out, *x),
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
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, level + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, level + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    // ---------------------------------------------------------------
    // Parsing
    // ---------------------------------------------------------------

    /// Parse a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return err("trailing characters after document", pos);
        }
        Ok(value)
    }
}

/// `f64` encoding: integers print without a fraction so round-trips of
/// integer-valued parameters stay exact and readable. Crate-visible so the
/// JSONL event writer ([`crate::telemetry::export`]) renders numbers as a
/// [`Json`] tree would, without building one.
pub(crate) fn write_number(out: &mut String, x: f64) {
    if !x.is_finite() {
        // JSON has no Inf/NaN; persist as null like serde_json does.
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 1e15 {
        write!(out, "{}", x as i64).unwrap();
    } else {
        // 17 significant digits guarantee f64 round-trip.
        let s = format!("{x:.17e}");
        // Prefer the shortest representation that round-trips.
        let plain = format!("{x}");
        if plain.parse::<f64>() == Ok(x) {
            out.push_str(&plain);
        } else {
            out.push_str(&s);
        }
    }
}

pub(crate) fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).unwrap();
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => err("unexpected end of input", *pos),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return err("expected ',' or ']' in array", *pos),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return err("expected ':' after object key", *pos);
                }
                *pos += 1;
                pairs.push((key, parse_value(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return err("expected ',' or '}' in object", *pos),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => err(format!("unexpected character '{}'", *c as char), *pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        err(format!("invalid literal, expected '{lit}'"), *pos)
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return err("expected string", *pos);
    }
    *pos += 1;
    let mut out = String::new();
    let start = *pos;
    loop {
        match bytes.get(*pos) {
            None => return err("unterminated string", start),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok());
                        match hex.and_then(char::from_u32) {
                            // Surrogate pairs are not needed for our data;
                            // lone surrogates become the replacement char.
                            Some(c) => out.push(c),
                            None => out.push('\u{FFFD}'),
                        }
                        *pos += 4;
                    }
                    _ => return err("invalid escape", *pos),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte safe).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|_| JsonError {
                    message: "invalid UTF-8 in string".into(),
                    offset: *pos,
                })?;
                let c = rest.chars().next().expect("nonempty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && (bytes[*pos].is_ascii_digit() || matches!(bytes[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii slice");
    match text.parse::<f64>() {
        Ok(x) => Ok(Json::Num(x)),
        Err(_) => err(format!("invalid number '{text}'"), start),
    }
}

/// Compact single-line encoding (`to_string()` comes with it for free).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        f.write_str(&out)
    }
}

/// Convert a type to its JSON representation.
pub trait ToJson {
    /// The JSON form of `self`.
    fn to_json(&self) -> Json;
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for text in ["null", "true", "false", "0", "-7", "1.5", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.to_string()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn round_trips_nested_structures() {
        let v = Json::obj(vec![
            ("id", Json::Str("fig2".into())),
            (
                "series",
                Json::Arr(vec![
                    Json::Arr(vec![Json::Str("a".into()), Json::Num(1.25)]),
                    Json::Null,
                ]),
            ),
            ("empty_obj", Json::Obj(vec![])),
            ("empty_arr", Json::Arr(vec![])),
        ]);
        for text in [v.to_string(), v.to_string_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn escapes_control_characters_and_quotes() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}".into());
        let text = v.to_string();
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        assert_eq!(Json::parse(&text).unwrap(), v, "escaped text round-trips");
    }

    #[test]
    fn parses_escape_sequences() {
        let v = Json::parse(r#""a\"b\\c\nd\teA""#).unwrap();
        assert_eq!(v, Json::Str("a\"b\\c\nd\teA".into()));
    }

    #[test]
    fn float_round_trip_is_exact() {
        for x in [0.1, 1.0 / 3.0, 6.02214076e23, -2.2250738585072014e-308] {
            let text = Json::Num(x).to_string();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back, x, "{text}");
        }
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::Num(42.0).to_string(), "42");
        assert_eq!(Json::Num(-3.0).to_string(), "-3");
    }

    #[test]
    fn get_looks_up_object_members() {
        let v = Json::obj(vec![("x", Json::Num(1.0)), ("y", Json::Str("s".into()))]);
        assert_eq!(v.get("x").and_then(Json::as_f64), Some(1.0));
        assert_eq!(v.get("y").and_then(Json::as_str), Some("s"));
        assert_eq!(v.get("z"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for text in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "{\"a\":}"] {
            assert!(Json::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn pretty_output_is_indented() {
        let v = Json::obj(vec![("a", Json::Arr(vec![Json::Num(1.0)]))]);
        let p = v.to_string_pretty();
        assert!(p.contains("\n  \"a\": [\n    1\n  ]\n"), "{p}");
    }
}
