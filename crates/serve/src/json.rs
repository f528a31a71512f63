//! A hand-rolled JSON encoder/decoder.
//!
//! The workspace builds offline and its vendored `serde` stub has no
//! serializer, so the daemon's wire format is implemented directly: a
//! [`Json`] value tree, a recursive-descent parser with byte-position
//! errors, and a renderer. Only what the protocol needs — no comments, no
//! trailing commas, objects keep insertion order.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered.
    Obj(Vec<(String, Json)>),
}

/// A parse error with the byte offset where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub position: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with the failing byte position.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos < p.bytes.len() {
            return Err(p.error("unexpected trailing input"));
        }
        Ok(v)
    }

    /// Renders the value as compact JSON text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => render_number(*v, out),
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Looks up a field of an object (`None` for non-objects too).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// An object's fields as a name → number map (for parameter tables).
    /// `None` if the value is not an object or any field is not a number.
    #[must_use]
    pub fn as_num_map(&self) -> Option<BTreeMap<String, f64>> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .map(|(k, v)| v.as_f64().map(|x| (k.clone(), x)))
                .collect(),
            _ => None,
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

/// Renders a number: integers without a fraction, non-finite values as
/// `null` (JSON has no NaN/inf).
fn render_number(v: f64, out: &mut String) {
    if !v.is_finite() {
        out.push_str("null");
    } else {
        // Rust's shortest-roundtrip formatting is valid JSON for finite
        // values ("1", "0.25", "1e-7", …).
        let _ = write!(out, "{v}");
    }
}

fn render_string(s: &str, out: &mut String) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            position: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", c as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.eat(b'[')?;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.error("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.eat(b'{')?;
                let mut fields = Vec::new();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    let value = self.value()?;
                    if fields.iter().any(|(k, _)| *k == key) {
                        return Err(self.error(format!("duplicate key `{key}`")));
                    }
                    fields.push((key, value));
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(self.error("expected `,` or `}`")),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates are rejected rather than paired:
                            // the protocol never emits them.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.error("bad \\u code point"))?;
                            out.push(c);
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                _ => {
                    // Re-scan the UTF-8 sequence starting at b.
                    let start = self.pos - 1;
                    let len = utf8_len(b).ok_or_else(|| self.error("bad UTF-8"))?;
                    let slice = self
                        .bytes
                        .get(start..start + len)
                        .ok_or_else(|| self.error("truncated UTF-8"))?;
                    let s = std::str::from_utf8(slice).map_err(|_| self.error("bad UTF-8"))?;
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.error("bad number"))
    }
}

fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0x00..=0x7f => Some(1),
        0xc0..=0xdf => Some(2),
        0xe0..=0xef => Some(3),
        0xf0..=0xf7 => Some(4),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let text = r#"{"model":"virus","m0":[0.8,0.15,0.05],"fast":false,"n":3,"x":null}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.render(), text);
        assert_eq!(v.get("model").unwrap().as_str(), Some("virus"));
        assert_eq!(v.get("m0").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("fast").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(3.0));
        assert_eq!(v.get("x"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn numbers_roundtrip_bitwise() {
        for x in [0.0, -0.0, 1.0, 0.1, 1e-9, 123_456_789.125, -2.5e300] {
            let rendered = Json::Num(x).render();
            let back = Json::parse(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} vs {rendered}");
        }
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn strings_escape() {
        let s = Json::Str("a\"b\\c\nd\te\u{1}π".into());
        let rendered = s.render();
        assert_eq!(rendered, "\"a\\\"b\\\\c\\nd\\te\\u0001π\"");
        assert_eq!(Json::parse(&rendered).unwrap(), s);
    }

    #[test]
    fn nested_structures() {
        let v = Json::parse(r#"[{"a":[1,2,[3]]},{"b":{"c":true}}]"#).unwrap();
        let a = v.as_arr().unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(
            a[0].get("a").unwrap().as_arr().unwrap()[2],
            Json::Arr(vec![Json::Num(3.0)])
        );
        assert_eq!(
            a[1].get("b").unwrap().get("c").unwrap().as_bool(),
            Some(true)
        );
    }

    #[test]
    fn num_map() {
        let v = Json::parse(r#"{"k1":0.9,"k2":0.1}"#).unwrap();
        let m = v.as_num_map().unwrap();
        assert_eq!(m["k1"], 0.9);
        assert_eq!(m.len(), 2);
        assert!(Json::parse(r#"{"k1":"x"}"#).unwrap().as_num_map().is_none());
    }

    #[test]
    fn parse_errors_carry_positions() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "\"abc",
            "1.2.3",
            "[1] x",
            "{\"a\":1,\"a\":2}",
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.position <= bad.len(), "{bad}: {err}");
        }
    }
}
