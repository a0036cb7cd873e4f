//! A minimal, dependency-free TOML-subset parser.
//!
//! The golden-trace conformance suite pins fingerprints and expected
//! errors in human-editable registries (`tests/golden/MANIFEST.toml`,
//! `tests/golden/KNOWN_FAILURES.toml`). The workspace is deliberately
//! dependency-free, so this module implements the small TOML subset
//! those files use, rather than pulling in a full parser:
//!
//! - `#` comments and blank lines,
//! - `[table]` headers and `[[array-of-tables]]` headers,
//! - `key = value` pairs where a value is a basic `"string"` (with
//!   `\\`, `\"`, `\n`, `\t` escapes), a decimal or `0x` hex integer
//!   (underscore separators allowed), a boolean, or a flat array of
//!   those,
//! - bare keys (`[A-Za-z0-9_-]+`).
//!
//! Nested tables, dotted keys, floats, dates and multi-line strings are
//! out of scope and rejected with a line-numbered error.

use qr_common::{QrError, Result};

/// One parsed value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A basic string.
    Str(String),
    /// An integer (decimal or hex in the source).
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// A flat array of values.
    Array(Vec<Value>),
}

impl Value {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// An ordered set of `key = value` pairs (one `[section]`, one
/// `[[section]]` instance, or the document root).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Table {
    /// Pairs in source order.
    pub pairs: Vec<(String, Value)>,
}

impl Table {
    /// The value bound to `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The string bound to `key`.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::InvalidConfig`] when the key is missing or not
    /// a string.
    pub fn require_str(&self, key: &str) -> Result<&str> {
        self.get(key)
            .and_then(Value::as_str)
            .ok_or_else(|| QrError::InvalidConfig(format!("missing string key `{key}`")))
    }

    /// The integer bound to `key`.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::InvalidConfig`] when the key is missing or not
    /// an integer.
    pub fn require_int(&self, key: &str) -> Result<i64> {
        self.get(key)
            .and_then(Value::as_int)
            .ok_or_else(|| QrError::InvalidConfig(format!("missing integer key `{key}`")))
    }
}

/// A parsed document: root pairs plus every `[name]` / `[[name]]`
/// section in source order (array-of-tables sections repeat the name).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Doc {
    /// Pairs before the first section header.
    pub root: Table,
    /// `(section name, table)` in source order.
    pub sections: Vec<(String, Table)>,
}

impl Doc {
    /// Every section named `name`, in source order (the accessor for
    /// `[[name]]` arrays of tables).
    pub fn sections_named<'a>(&'a self, name: &str) -> Vec<&'a Table> {
        self.sections.iter().filter(|(n, _)| n == name).map(|(_, t)| t).collect()
    }
}

fn err(line_no: usize, detail: impl std::fmt::Display) -> QrError {
    QrError::InvalidConfig(format!("toml line {line_no}: {detail}"))
}

/// Parses a document in the supported TOML subset.
///
/// # Errors
///
/// Returns [`QrError::InvalidConfig`] naming the offending line for
/// anything outside the subset or structurally malformed.
pub fn parse(text: &str) -> Result<Doc> {
    let mut doc = Doc::default();
    let mut current: Option<usize> = None; // index into doc.sections
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("[[") {
            let name = rest
                .strip_suffix("]]")
                .map(str::trim)
                .filter(|n| is_bare_key(n))
                .ok_or_else(|| err(line_no, "malformed [[section]] header"))?;
            doc.sections.push((name.to_string(), Table::default()));
            current = Some(doc.sections.len() - 1);
        } else if let Some(rest) = line.strip_prefix('[') {
            let name = rest
                .strip_suffix(']')
                .map(str::trim)
                .filter(|n| is_bare_key(n))
                .ok_or_else(|| err(line_no, "malformed [section] header"))?;
            doc.sections.push((name.to_string(), Table::default()));
            current = Some(doc.sections.len() - 1);
        } else {
            let (key, value) = parse_pair(line, line_no)?;
            let table = match current {
                Some(i) => &mut doc.sections[i].1,
                None => &mut doc.root,
            };
            if table.get(&key).is_some() {
                return Err(err(line_no, format!("duplicate key `{key}`")));
            }
            table.pairs.push((key, value));
        }
    }
    Ok(doc)
}

/// Removes a trailing `#` comment, respecting `#` inside strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn is_bare_key(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

fn parse_pair(line: &str, line_no: usize) -> Result<(String, Value)> {
    let (key, rest) = line
        .split_once('=')
        .ok_or_else(|| err(line_no, "expected `key = value`"))?;
    let key = key.trim();
    if !is_bare_key(key) {
        return Err(err(line_no, format!("bad key `{key}` (bare keys only)")));
    }
    let (value, used) = parse_value(rest.trim(), line_no)?;
    if used != rest.trim().len() {
        return Err(err(line_no, "trailing characters after value"));
    }
    Ok((key.to_string(), value))
}

/// Parses one value from the front of `s`, returning it and the bytes
/// consumed.
fn parse_value(s: &str, line_no: usize) -> Result<(Value, usize)> {
    if let Some(rest) = s.strip_prefix('"') {
        let (string, used) = parse_string(rest, line_no)?;
        return Ok((Value::Str(string), used + 1));
    }
    if let Some(rest) = s.strip_prefix('[') {
        let (items, used) = parse_array(rest, line_no)?;
        return Ok((Value::Array(items), used + 1));
    }
    // Bare token: up to the next delimiter.
    let end = s
        .char_indices()
        .find(|&(_, c)| c == ',' || c == ']' || c.is_whitespace())
        .map_or(s.len(), |(i, _)| i);
    let token = &s[..end];
    let value = match token {
        "true" => Value::Bool(true),
        "false" => Value::Bool(false),
        _ => Value::Int(parse_int(token).ok_or_else(|| {
            err(line_no, format!("unsupported value `{token}` (strings, integers, booleans and flat arrays only)"))
        })?),
    };
    Ok((value, end))
}

fn parse_int(token: &str) -> Option<i64> {
    let (neg, token) = match token.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, token),
    };
    let cleaned: String = token.chars().filter(|&c| c != '_').collect();
    if cleaned.is_empty() || token.starts_with('_') || token.ends_with('_') {
        return None;
    }
    let magnitude = match cleaned.strip_prefix("0x") {
        Some(hex) if !hex.is_empty() => u64::from_str_radix(hex, 16).ok()?,
        Some(_) => return None,
        None => {
            if !cleaned.bytes().all(|b| b.is_ascii_digit()) {
                return None;
            }
            cleaned.parse::<u64>().ok()?
        }
    };
    if neg {
        (magnitude <= i64::MAX as u64 + 1).then(|| (magnitude as i64).wrapping_neg())
    } else {
        i64::try_from(magnitude).ok()
    }
}

/// Parses a basic string body (opening quote already consumed),
/// returning the string and bytes consumed including the closing quote.
fn parse_string(s: &str, line_no: usize) -> Result<(String, usize)> {
    let mut out = String::new();
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, i + 1)),
            '\\' => {
                let (_, esc) = chars
                    .next()
                    .ok_or_else(|| err(line_no, "dangling escape in string"))?;
                out.push(match esc {
                    '\\' => '\\',
                    '"' => '"',
                    'n' => '\n',
                    't' => '\t',
                    other => return Err(err(line_no, format!("unsupported escape `\\{other}`"))),
                });
            }
            _ => out.push(c),
        }
    }
    Err(err(line_no, "unterminated string"))
}

/// Parses a flat array body (opening bracket already consumed),
/// returning the items and bytes consumed including the closing bracket.
fn parse_array(s: &str, line_no: usize) -> Result<(Vec<Value>, usize)> {
    let mut items = Vec::new();
    let mut off = 0usize;
    loop {
        while s[off..].starts_with(|c: char| c.is_whitespace() || c == ',') {
            off += 1;
        }
        if let Some(rest) = s[off..].strip_prefix(']') {
            let _ = rest;
            return Ok((items, off + 1));
        }
        if off >= s.len() {
            return Err(err(line_no, "unterminated array"));
        }
        let (value, used) = parse_value(&s[off..], line_no)?;
        if matches!(value, Value::Array(_)) {
            return Err(err(line_no, "nested arrays are not supported"));
        }
        items.push(value);
        off += used;
    }
}

/// Escapes a string for embedding in a generated registry file (the
/// inverse of what [`parse`] accepts).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_root_sections_and_arrays_of_tables() {
        let doc = parse(
            r#"
# registry
title = "golden"   # inline comment
count = 3

[meta]
version = 0x2a
enabled = true

[[fixture]]
name = "hello-delta"
fingerprint = "00ff"

[[fixture]]
name = "fft2-raw"
files = ["meta.qrm", "chunks.qrl"]
negative = -7
"#,
        )
        .unwrap();
        assert_eq!(doc.root.require_str("title").unwrap(), "golden");
        assert_eq!(doc.root.require_int("count").unwrap(), 3);
        let meta = &doc.sections_named("meta")[0];
        assert_eq!(meta.require_int("version").unwrap(), 42);
        assert_eq!(meta.get("enabled").unwrap().as_bool(), Some(true));
        let fixtures = doc.sections_named("fixture");
        assert_eq!(fixtures.len(), 2);
        assert_eq!(fixtures[1].require_str("name").unwrap(), "fft2-raw");
        let files: Vec<&str> = fixtures[1].get("files").unwrap().as_array().unwrap()
            .iter()
            .filter_map(Value::as_str)
            .collect();
        assert_eq!(files, ["meta.qrm", "chunks.qrl"]);
        assert_eq!(fixtures[1].require_int("negative").unwrap(), -7);
    }

    #[test]
    fn strings_round_trip_through_escape() {
        for original in ["plain", "with \"quotes\"", "tab\there", "line\nbreak", "back\\slash"] {
            let text = format!("value = \"{}\"\n", escape(original));
            let doc = parse(&text).unwrap();
            assert_eq!(doc.root.require_str("value").unwrap(), original, "{text:?}");
        }
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let doc = parse("detail = \"bad-kind # not a comment\"").unwrap();
        assert_eq!(doc.root.require_str("detail").unwrap(), "bad-kind # not a comment");
    }

    #[test]
    fn malformed_lines_report_line_numbers() {
        for (text, needle) in [
            ("key", "expected `key = value`"),
            ("[unclosed", "malformed [section]"),
            ("[[half]", "malformed [[section]]"),
            ("k = \"open", "unterminated string"),
            ("k = [1, 2", "unterminated array"),
            ("k = [[1]]", "nested arrays"),
            ("k = 1.5", "unsupported value"),
            ("a = 1\na = 2", "duplicate key"),
            ("k = \"x\\q\"", "unsupported escape"),
            ("k = 1 2", "trailing characters"),
        ] {
            let e = parse(text).unwrap_err();
            assert!(
                matches!(&e, QrError::InvalidConfig(msg) if msg.contains(needle) && msg.contains("line")),
                "{text:?}: {e}"
            );
        }
    }

    #[test]
    fn integer_edge_cases() {
        assert_eq!(parse("k = 9_000_000").unwrap().root.require_int("k").unwrap(), 9_000_000);
        assert_eq!(parse("k = 0xdeadbeef").unwrap().root.require_int("k").unwrap(), 0xdead_beef);
        assert_eq!(parse("k = -1").unwrap().root.require_int("k").unwrap(), -1);
        assert!(parse("k = 0x").is_err());
        assert!(parse("k = _1").is_err());
        // u64-range hex that overflows i64 is rejected, not wrapped.
        assert!(parse("k = 0xffffffffffffffff").is_err());
    }

    #[test]
    fn missing_keys_are_structured_errors() {
        let doc = parse("present = 1").unwrap();
        assert!(doc.root.require_str("absent").is_err());
        assert!(doc.root.require_int("absent").is_err());
        // Wrong type is also a miss.
        assert!(doc.root.require_str("present").is_err());
    }
}
