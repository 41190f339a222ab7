//! # belenos-json
//!
//! Minimal JSON support for the Belenos campaign API: a [`Json`] value
//! type, a strict recursive-descent parser ([`Json::parse`]), compact
//! and pretty renderers, and the [`ToJson`] / [`FromJson`] conversion
//! traits the typed campaign/report layer implements.
//!
//! This crate exists for the same reason as the in-repo `proptest`
//! shim: the build environment has no registry access, so `serde` /
//! `serde_json` cannot be depended on. The surface is deliberately
//! small — enough for `CampaignSpec` round-trips and `Report`
//! serialization, no more.
//!
//! Objects preserve insertion order (they are association lists, not
//! hash maps), so a parse → render round-trip is deterministic and
//! diffs of serialized specs stay readable.
//!
//! Documents (machine configurations, scenarios, simulation options,
//! campaign specs, job-board documents) do not hand-write their
//! conversions: they list their fields once and [`schema`] derives JSON
//! out, JSON in, stable-digest bytes and validation from that.

use std::fmt;

pub mod schema;

/// A JSON value. Objects keep key insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as an ordered association list.
    Obj(Vec<(String, Json)>),
}

/// Error from parsing or from a [`FromJson`] conversion.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Human-readable description of what went wrong.
    pub message: String,
}

impl JsonError {
    /// Builds an error from anything displayable.
    pub fn new(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for JsonError {}

/// Serialization into a [`Json`] value.
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

/// Deserialization from a [`Json`] value.
pub trait FromJson: Sized {
    /// Reconstructs `Self`, rejecting structurally invalid input.
    ///
    /// # Errors
    ///
    /// A [`JsonError`] naming the offending field or value.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

impl Json {
    /// Convenience constructor for an object.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Object field lookup (first match; `None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer (rejects negatives,
    /// fractions, and values beyond exact `f64` integer range).
    pub fn as_usize(&self) -> Option<usize> {
        let n = self.as_f64()?;
        if n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53) {
            Some(n as usize)
        } else {
            None
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Parses a JSON document (the full input must be one value) under
    /// the default [`ParseLimits`].
    ///
    /// # Errors
    ///
    /// A [`JsonError`] with a byte offset for malformed input.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        Json::parse_with_limits(text, &ParseLimits::default())
    }

    /// Parses a JSON document under explicit [`ParseLimits`] — the
    /// untrusted-input entry point: the server feeds this network bytes,
    /// so both the total size and the nesting depth are bounded before
    /// any recursion happens.
    ///
    /// # Errors
    ///
    /// A [`JsonError`] for malformed input, input longer than
    /// `limits.max_bytes`, or nesting deeper than `limits.max_depth`.
    pub fn parse_with_limits(text: &str, limits: &ParseLimits) -> Result<Json, JsonError> {
        if limits.max_bytes > 0 && text.len() > limits.max_bytes {
            return Err(JsonError::new(format!(
                "input of {} bytes exceeds the {}-byte limit",
                text.len(),
                limits.max_bytes
            )));
        }
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            max_depth: limits.max_depth,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the JSON value"));
        }
        Ok(value)
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with 2-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        let _ = self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    /// Streams the compact rendering into an `io::Write` sink without
    /// materializing the whole document first — the server uses this to
    /// write large reports straight onto a socket.
    ///
    /// # Errors
    ///
    /// The underlying I/O error, if the sink fails.
    pub fn render_to<W: std::io::Write>(&self, sink: &mut W) -> std::io::Result<()> {
        let mut out = IoFmtAdapter { sink, error: None };
        match self.write(&mut out, None, 0) {
            Ok(()) => Ok(()),
            Err(_) => Err(out
                .error
                .unwrap_or_else(|| std::io::Error::other("formatter error"))),
        }
    }

    /// Streams the pretty rendering (2-space indent, trailing newline)
    /// into an `io::Write` sink.
    ///
    /// # Errors
    ///
    /// The underlying I/O error, if the sink fails.
    pub fn pretty_to<W: std::io::Write>(&self, sink: &mut W) -> std::io::Result<()> {
        let mut out = IoFmtAdapter { sink, error: None };
        match self.write(&mut out, Some(2), 0).and_then(|()| {
            use fmt::Write as _;
            out.write_char('\n')
        }) {
            Ok(()) => Ok(()),
            Err(_) => Err(out
                .error
                .unwrap_or_else(|| std::io::Error::other("formatter error"))),
        }
    }

    fn write(&self, out: &mut dyn fmt::Write, indent: Option<usize>, depth: usize) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.write_str(&render_number(*n)),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    newline_indent(out, indent, depth + 1)?;
                    item.write(out, indent, depth + 1)?;
                }
                if !items.is_empty() {
                    newline_indent(out, indent, depth)?;
                }
                out.write_char(']')
            }
            Json::Obj(fields) => {
                out.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    newline_indent(out, indent, depth + 1)?;
                    write_escaped(out, k)?;
                    out.write_char(':')?;
                    if indent.is_some() {
                        out.write_char(' ')?;
                    }
                    v.write(out, indent, depth + 1)?;
                }
                if !fields.is_empty() {
                    newline_indent(out, indent, depth)?;
                }
                out.write_char('}')
            }
        }
    }
}

/// Bounds on what [`Json::parse_with_limits`] accepts — the defense
/// layer for parsing bytes that arrived over a network rather than from
/// a file the operator wrote.
#[derive(Debug, Clone)]
pub struct ParseLimits {
    /// Maximum input length in bytes (0 = unlimited).
    pub max_bytes: usize,
    /// Maximum array/object nesting depth. The parser is recursive
    /// descent, so this bounds stack growth; the default (512) is far
    /// above any legitimate spec while staying well inside the smallest
    /// thread stack.
    pub max_depth: usize,
}

/// The nesting depth [`Json::parse`] allows (and the [`ParseLimits`]
/// default).
pub const DEFAULT_MAX_DEPTH: usize = 512;

impl Default for ParseLimits {
    fn default() -> Self {
        ParseLimits {
            max_bytes: 0,
            max_depth: DEFAULT_MAX_DEPTH,
        }
    }
}

/// Routes `fmt::Write` output into an `io::Write` sink, parking the
/// first I/O error so [`Json::render_to`] can surface it.
struct IoFmtAdapter<'a, W: std::io::Write> {
    sink: &'a mut W,
    error: Option<std::io::Error>,
}

impl<W: std::io::Write> fmt::Write for IoFmtAdapter<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.sink.write_all(s.as_bytes()).map_err(|e| {
            self.error = Some(e);
            fmt::Error
        })
    }
}

fn newline_indent(out: &mut dyn fmt::Write, indent: Option<usize>, depth: usize) -> fmt::Result {
    if let Some(width) = indent {
        out.write_char('\n')?;
        for _ in 0..width * depth {
            out.write_char(' ')?;
        }
    }
    Ok(())
}

/// Integers render without a decimal point; other finite numbers use the
/// shortest `f64` display form. Non-finite values have no JSON spelling
/// and render as `null`.
fn render_number(n: f64) -> String {
    if !n.is_finite() {
        return "null".to_string();
    }
    if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

fn write_escaped(out: &mut dyn fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32)?;
            }
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    max_depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError::new(format!("{message} (byte {})", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Tracks entry into a nested container; errors past the depth
    /// limit instead of letting the recursive descent overflow the stack
    /// on adversarial `[[[[...` input.
    fn descend(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > self.max_depth {
            return Err(self.err(&format!(
                "nesting exceeds the {}-level depth limit",
                self.max_depth
            )));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.descend()?;
        let value = self.array_body();
        self.depth -= 1;
        value
    }

    fn array_body(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
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
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.descend()?;
        let value = self.object_body();
        self.depth -= 1;
        value
    }

    fn object_body(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
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
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by `\u`-escaped low surrogate.
                            let c = if (0xd800..0xdc00).contains(&code) {
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                self.eat(b'u')?;
                                let low = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(code)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                b if b < 0x20 => return Err(self.err("raw control character in string")),
                _ => {
                    // Re-decode the UTF-8 sequence starting at the byte we
                    // just consumed (input is valid UTF-8: it came in as &str).
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    self.pos = start + len;
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let chunk = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid unicode escape"))?;
        let code =
            u32::from_str_radix(chunk, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` alone, or a nonzero digit followed by more
        // digits — JSON forbids leading zeros.
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    return Err(self.err("leading zeros are not valid JSON"));
                }
            }
            Some(c) if c.is_ascii_digit() => {
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected a digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected a digit after the decimal point"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected a digit in the exponent"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        // A literal past the `f64` range (`1e999`) has no value a
        // document could render back: refuse it rather than read infinity.
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(self.err("number out of range")),
        }
    }
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        b if b < 0x80 => 1,
        b if b >= 0xf0 => 4,
        b if b >= 0xe0 => 3,
        _ => 2,
    }
}

// --- blanket-ish impls for common shapes --------------------------------

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl ToJson for u32 {
    fn to_json(&self) -> Json {
        Json::Num(f64::from(*self))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

/// `None` is `null` — explicit, so a reader that fills absent keys from
/// defaults can tell "cleared" from "not mentioned".
impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, ToJson::to_json)
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::new("expected a string"))
    }
}

impl FromJson for usize {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_usize()
            .ok_or_else(|| JsonError::new("expected a non-negative integer"))
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64()
            .ok_or_else(|| JsonError::new("expected a number"))
    }
}

impl FromJson for u64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        // Strict upper bound: `u64::MAX as f64` rounds up to 2^64, which
        // `as u64` would silently saturate back to u64::MAX.
        match v.as_f64() {
            Some(n) if n >= 0.0 && n.fract() == 0.0 && n < u64::MAX as f64 => Ok(n as u64),
            _ => Err(JsonError::new("expected a non-negative integer")),
        }
    }
}

impl FromJson for u32 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        u32::try_from(usize::from_json(v)?).map_err(|_| JsonError::new("out of range"))
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool()
            .ok_or_else(|| JsonError::new("expected a boolean"))
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }
}

impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Vec::<T>::from_json(v)?
            .try_into()
            .map_err(|_| JsonError::new(format!("expected an array of {N} values")))
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_arr()
            .ok_or_else(|| JsonError::new("expected an array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-2.5e2").unwrap(), Json::Num(-250.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, {"b": "x"}, null], "c": true}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Json::Bool(true)));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].get("b").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = Json::Str("tab\t quote\" slash\\ nl\n unicode\u{00e9}\u{1F600}".into());
        let rendered = original.render();
        assert_eq!(Json::parse(&rendered).unwrap(), original);
        // Escaped-unicode input (incl. surrogate pair) parses too.
        let v = Json::parse("\"\\u00e9 \\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{00e9} \u{1F600}"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"\\x\"",
            "\"unterminated",
            "01x",
            "{\"a\":1,}",
            "1e999",
            "[-1e400]",
        ] {
            assert!(Json::parse(bad).is_err(), "must reject {bad:?}");
        }
    }

    #[test]
    fn object_order_is_preserved() {
        let text = r#"{"z": 1, "a": 2, "m": 3}"#;
        let v = Json::parse(text).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a", "m"]);
        assert_eq!(v.render(), r#"{"z":1,"a":2,"m":3}"#);
    }

    #[test]
    fn pretty_rendering_is_reparsable() {
        let v = Json::obj(vec![
            ("name", Json::Str("smoke".into())),
            ("sizes", Json::Arr(vec![Json::Num(1.0), Json::Num(2.5)])),
            ("empty", Json::Arr(vec![])),
        ]);
        let pretty = v.pretty();
        assert!(pretty.contains("  \"sizes\": [\n"));
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn numbers_render_integers_cleanly() {
        assert_eq!(Json::Num(1_000_000.0).render(), "1000000");
        assert_eq!(Json::Num(0.25).render(), "0.25");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn usize_conversion_guards() {
        assert_eq!(Json::Num(7.0).as_usize(), Some(7));
        assert_eq!(Json::Num(-1.0).as_usize(), None);
        assert_eq!(Json::Num(1.5).as_usize(), None);
        assert_eq!(Json::Str("7".into()).as_usize(), None);
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        // Far deeper than any stack could take through the recursive
        // descent; the depth guard must turn it into an error.
        let deep = "[".repeat(200_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("depth limit"), "{err}");
        let deep_obj = "{\"a\":".repeat(200_000);
        assert!(Json::parse(&deep_obj).is_err());
    }

    #[test]
    fn explicit_depth_limit_is_exact() {
        let limits = ParseLimits {
            max_bytes: 0,
            max_depth: 3,
        };
        assert!(Json::parse_with_limits("[[[1]]]", &limits).is_ok());
        let err = Json::parse_with_limits("[[[[1]]]]", &limits).unwrap_err();
        assert!(err.message.contains("3-level"), "{err}");
        // Mixed containers count the same way.
        assert!(Json::parse_with_limits(r#"{"a":[{"b":1}]}"#, &limits).is_ok());
        assert!(Json::parse_with_limits(r#"{"a":[{"b":[]}]}"#, &limits).is_err());
    }

    #[test]
    fn oversized_input_is_rejected_before_parsing() {
        let limits = ParseLimits {
            max_bytes: 16,
            max_depth: DEFAULT_MAX_DEPTH,
        };
        assert!(Json::parse_with_limits("[1,2,3]", &limits).is_ok());
        let big = format!("[{}]", "1,".repeat(100));
        let err = Json::parse_with_limits(&big, &limits).unwrap_err();
        assert!(err.message.contains("16-byte limit"), "{err}");
    }

    #[test]
    fn streaming_render_matches_string_render() {
        let v = Json::obj(vec![
            ("name", Json::Str("smoke\n".into())),
            ("xs", Json::Arr(vec![Json::Num(1.0), Json::Bool(false)])),
        ]);
        let mut compact = Vec::new();
        v.render_to(&mut compact).unwrap();
        assert_eq!(String::from_utf8(compact).unwrap(), v.render());
        let mut pretty = Vec::new();
        v.pretty_to(&mut pretty).unwrap();
        assert_eq!(String::from_utf8(pretty).unwrap(), v.pretty());
    }

    #[test]
    fn streaming_render_surfaces_io_errors() {
        struct FailingSink;
        impl std::io::Write for FailingSink {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("sink closed"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let err = Json::Num(1.0).render_to(&mut FailingSink).unwrap_err();
        assert_eq!(err.to_string(), "sink closed");
    }

    #[test]
    fn trait_impls_roundtrip() {
        let xs: Vec<usize> = vec![1, 2, 3];
        let v = xs.to_json();
        assert_eq!(Vec::<usize>::from_json(&v).unwrap(), xs);
        assert!(Vec::<usize>::from_json(&Json::Num(1.0)).is_err());
        assert_eq!(String::from_json(&"x".to_json()).unwrap(), "x");
    }
}
