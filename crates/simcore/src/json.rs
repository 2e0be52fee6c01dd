//! The workspace's one text codec: flat JSON objects, one per line.
//!
//! The vendored `serde` is a no-op shim (see `vendor/README.md`), so
//! every JSON surface — the serve protocol, the `--metrics` sidecar, the
//! quarantine sidecar — is written by [`ObjWriter`] and read back by
//! [`JsonObj`]. Objects are deliberately flat (`{"key": scalar, ...}`):
//! nested objects and arrays are rejected on the way in, which keeps
//! the scanner small and every malformed shape a *typed* refusal.

use std::fmt::{Display, Write as _};

/// Append `s` to `out`, escaped for a JSON string literal.
fn escape_into(out: &mut String, s: &str) {
    // Every byte that needs escaping is ASCII, so the runs between
    // them are whole UTF-8 sequences and copy over unchanged.
    let mut clean_from = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\t' => Some("\\t"),
            b'\r' => Some("\\r"),
            0..=0x1f => None,
            _ => continue,
        };
        out.push_str(&s[clean_from..i]);
        match short {
            Some(escape) => out.push_str(escape),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        clean_from = i + 1;
    }
    out.push_str(&s[clean_from..]);
}

/// Writes one flat object straight into a `String`: `{"k": v, "k": v}`.
/// Keys are the caller's own identifiers and are written as they are;
/// only string *values* are escaped.
pub struct ObjWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> ObjWriter<'a> {
    fn begin(out: &'a mut String) -> ObjWriter<'a> {
        out.push('{');
        ObjWriter { out, empty: true }
    }

    fn key(&mut self, key: &str) {
        if !self.empty {
            self.out.push_str(", ");
        }
        self.empty = false;
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\": ");
    }

    /// A string field; the value is escaped.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.out.reserve(key.len() + value.len() + 8);
        self.key(key);
        self.out.push('"');
        escape_into(self.out, value);
        self.out.push('"');
        self
    }

    /// A bare field — a number or a boolean — as `Display` prints it.
    pub fn val(&mut self, key: &str, value: impl Display) -> &mut Self {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    /// One bare field per `(name, value)` pair, in order: the shape of
    /// `RunMetrics::fields()`.
    pub fn fields(&mut self, fields: impl IntoIterator<Item = (&'static str, u64)>) -> &mut Self {
        for (name, value) in fields {
            self.val(name, value);
        }
        self
    }

    fn end(&mut self) {
        self.out.push('}');
    }
}

/// One flat object as a line of its own (no trailing newline).
pub fn object_line(fill: impl FnOnce(&mut ObjWriter<'_>)) -> String {
    let mut out = String::with_capacity(96);
    let mut obj = ObjWriter::begin(&mut out);
    fill(&mut obj);
    obj.end();
    out
}

/// A JSON array of flat objects, one indented object per line — the
/// sidecar file shape. No items renders as `[\n]\n`.
pub fn array_lines<T>(items: &[T], mut fill: impl FnMut(&mut ObjWriter<'_>, &T)) -> String {
    let mut out = String::from("[\n");
    for (i, item) in items.iter().enumerate() {
        out.push_str("  ");
        let mut obj = ObjWriter::begin(&mut out);
        fill(&mut obj, item);
        obj.end();
        out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

/// One value in a flat object.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A (already unescaped) string.
    Str(String),
    /// A number written as plain digits that fits `u64`, kept exact:
    /// seeds use the full 64-bit range, which `f64` cannot hold.
    Int(u64),
    /// Any other JSON number (negative, fractional, exponent, too big).
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

/// A parsed flat JSON object.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JsonObj {
    fields: Vec<(String, JsonValue)>,
}

impl JsonObj {
    /// Parse one line. Errors name the first offending position's
    /// context so `malformed` responses are actionable.
    pub fn parse(line: &str) -> Result<JsonObj, String> {
        let mut p = Parser {
            bytes: line.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        p.expect(b'{')?;
        let mut fields = Vec::new();
        p.skip_ws();
        if p.peek() == Some(b'}') {
            p.pos += 1;
        } else {
            loop {
                p.skip_ws();
                let key = p.string()?;
                p.skip_ws();
                p.expect(b':')?;
                p.skip_ws();
                let value = p.value()?;
                fields.push((key, value));
                p.skip_ws();
                match p.next() {
                    Some(b',') => continue,
                    Some(b'}') => break,
                    other => {
                        return Err(format!(
                            "expected ',' or '}}' at byte {}, got {:?}",
                            p.pos,
                            other.map(char::from)
                        ))
                    }
                }
            }
        }
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes after object at byte {}", p.pos));
        }
        Ok(JsonObj { fields })
    }

    /// Look a field up.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// String field, or an error naming the key.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.opt_str(key)?
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    /// Optional string field (error only on wrong type).
    pub fn opt_str(&self, key: &str) -> Result<Option<&str>, String> {
        match self.get(key) {
            Some(JsonValue::Str(s)) => Ok(Some(s)),
            Some(_) => Err(format!("field {key:?} must be a string")),
            None => Ok(None),
        }
    }

    /// Optional unsigned-integer field over the whole `u64` range;
    /// negatives, fractions and exponent forms are refused.
    pub fn opt_u64(&self, key: &str) -> Result<Option<u64>, String> {
        match self.get(key) {
            Some(JsonValue::Int(n)) => Ok(Some(*n)),
            Some(JsonValue::Num(_)) => Err(format!("field {key:?} must be a non-negative integer")),
            Some(_) => Err(format!("field {key:?} must be a number")),
            None => Ok(None),
        }
    }

    /// Optional bool field.
    pub fn opt_bool(&self, key: &str) -> Result<Option<bool>, String> {
        match self.get(key) {
            Some(JsonValue::Bool(b)) => Ok(Some(*b)),
            Some(_) => Err(format!("field {key:?} must be a boolean")),
            None => Ok(None),
        }
    }

    /// Read one unsigned field per `(name, slot)` pair, absent fields
    /// as zero: the inverse of [`ObjWriter::fields`], over the shape of
    /// `RunMetrics::fields_mut()`.
    pub fn read_fields<'s>(
        &self,
        slots: impl IntoIterator<Item = (&'static str, &'s mut u64)>,
    ) -> Result<(), String> {
        for (name, slot) in slots {
            *slot = self.opt_u64(name)?.unwrap_or(0);
        }
        Ok(())
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!(
                "expected {:?} at byte {}, got {:?}",
                char::from(want),
                self.pos.saturating_sub(1),
                other.map(char::from)
            )),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .next()
                                .and_then(|b| char::from(b).to_digit(16))
                                .ok_or("bad \\u escape")?;
                            code = code * 16 + d;
                        }
                        // Surrogates degrade to the replacement char;
                        // protocol strings are plain ASCII in practice.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape {:?}", other.map(char::from))),
                },
                // Multi-byte UTF-8: copy the raw bytes of this char.
                Some(b) if b >= 0x80 => {
                    let start = self.pos - 1;
                    while matches!(self.peek(), Some(c) if c & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    out.push_str(chunk);
                }
                Some(b) => out.push(char::from(b)),
            }
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'{') | Some(b'[') => {
                Err("nested objects/arrays are not part of the protocol".to_string())
            }
            Some(_) => {
                let start = self.pos;
                while matches!(
                    self.peek(),
                    Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.pos += 1;
                }
                let token = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
                // Rust's integer and float parsers take a leading `+`;
                // JSON does not.
                if token.starts_with('+') {
                    return Err(format!("malformed number at byte {start}"));
                }
                if let Ok(n) = token.parse() {
                    return Ok(JsonValue::Int(n));
                }
                token
                    .parse()
                    .map(JsonValue::Num)
                    .map_err(|_| format!("malformed number at byte {start}"))
            }
            None => Err("missing value".to_string()),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("malformed literal at byte {}", self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_separates_escapes_and_closes() {
        let line = object_line(|o| {
            o.str("type", "x")
                .val("n", 7u64)
                .val("ok", true)
                .val("ms", format_args!("{:.3}", 1.5))
                .str("s", "a\"b\\c\nd\te\rf\u{1}\u{1f} café")
                .fields([("p", 1), ("q", u64::MAX)]);
        });
        assert_eq!(
            line,
            r#"{"type": "x", "n": 7, "ok": true, "ms": 1.500, "s": "a\"b\\c\nd\te\rf\u0001\u001f café", "p": 1, "q": 18446744073709551615}"#
        );
        assert_eq!(object_line(|_| {}), "{}");
        let back = JsonObj::parse(&line).unwrap();
        assert_eq!(
            back.str_field("s").unwrap(),
            "a\"b\\c\nd\te\rf\u{1}\u{1f} café"
        );
        assert_eq!(back.opt_u64("q").unwrap(), Some(u64::MAX));
    }

    #[test]
    fn array_lines_is_one_indented_object_per_line() {
        assert_eq!(array_lines(&[0u64; 0], |_, _| {}), "[\n]\n");
        assert_eq!(
            array_lines(&[1u64, 2], |o, n| {
                o.val("n", n);
            }),
            "[\n  {\"n\": 1},\n  {\"n\": 2}\n]\n"
        );
    }

    #[test]
    fn integer_tokens_are_exact_and_everything_else_is_not_an_integer() {
        let o = JsonObj::parse(
            r#"{"max": 18446744073709551615, "over": 18446744073709551616, "exp": 1e3, "dot": 5.0}"#,
        )
        .unwrap();
        assert_eq!(o.get("max"), Some(&JsonValue::Int(u64::MAX)));
        for key in ["over", "exp", "dot"] {
            assert!(matches!(o.get(key), Some(JsonValue::Num(_))), "{key}");
            assert!(o.opt_u64(key).is_err(), "{key} accepted");
        }
        let mut slots = [0u64; 2];
        let [a, b] = &mut slots;
        o.read_fields([("max", a), ("absent", b)]).unwrap();
        assert_eq!(slots, [u64::MAX, 0]);
        // A leading `+` is Rust's number grammar, not JSON's.
        for bad in [r#"{"n": +5}"#, r#"{"n": +5.0}"#] {
            assert!(JsonObj::parse(bad).is_err(), "accepted: {bad}");
        }
        let exp = JsonObj::parse(r#"{"n": 1e+3}"#).unwrap();
        assert_eq!(exp.get("n"), Some(&JsonValue::Num(1000.0)));
    }
}
