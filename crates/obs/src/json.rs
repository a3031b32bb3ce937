//! A minimal JSON value, writer and parser — the repository's one JSON
//! layer.
//!
//! `valuenet-obs` is dependency-free by design (it sits below every other
//! crate, including `valuenet-tensor`), so every crate that reads or writes
//! JSON — traces, reports, the serving protocol and the model file — goes
//! through this module. The writer emits compact single-line JSON (one
//! record per line is the JSONL contract); the parser is a recursive-descent
//! reader. Types that travel in the model file convert to and from [`Json`]
//! by hand, reading their members through [`Json::field`] so a malformed
//! file is refused with the field's name instead of defaulted.

use std::fmt::Write as _;

/// A JSON value. Integers are kept separate from floats so `u64` counters
/// (e.g. FLOP counts) render exactly instead of through an `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer (rendered without a fraction).
    Int(i64),
    /// A float (rendered with the shortest round-trippable form).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for object values.
    pub fn obj(entries: Vec<(&str, Json)>) -> Json {
        Json::Obj(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The numeric payload (integers widened), if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A `u64`, exactly: an [`Json::Int`] when it fits, otherwise its
    /// decimal digits as a string (an `f64` would round it).
    pub fn uint(v: u64) -> Json {
        i64::try_from(v).map_or_else(|_| Json::Str(v.to_string()), Json::Int)
    }

    /// The exact non-negative integer [`Json::uint`] writes. Negative
    /// numbers, floats (even integral ones) and other strings are `None`,
    /// never truncated or saturated.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            Json::Str(s) if s.bytes().all(|b| b.is_ascii_digit()) => s.parse().ok(),
            _ => None,
        }
    }

    /// [`Json::as_u64`], when it also fits in a `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// Member `key` of an object read through `read`, for readers that must
    /// refuse a malformed record rather than default a field: a missing or
    /// ill-typed member is an error naming the field, what it should be and
    /// what it is.
    pub fn field<'a, T>(
        &'a self,
        key: &str,
        expected: &str,
        read: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        let v = self.get(key).ok_or_else(|| format!("missing field `{key}`"))?;
        read(v).ok_or_else(|| {
            let found: String = v.render().chars().take(40).collect();
            format!("field `{key}`: expected {expected}, found {found}")
        })
    }

    /// Member `key` as a `usize` (see [`Json::field`]).
    pub fn usize_field(&self, key: &str) -> Result<usize, String> {
        self.field(key, "a non-negative integer", Json::as_usize)
    }

    /// Member `key` as a string (see [`Json::field`]).
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.field(key, "a string", Json::as_str)
    }

    /// Renders compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(n) => {
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null"); // JSON has no Inf/NaN
                }
            }
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn write_string(s: &str, out: &mut String) {
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

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn keyword(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid utf8 in number".to_string())?;
        if float || text == "-0" {
            // `-0` is how the writer renders a negative zero float.
            text.parse::<f64>().map(Json::Num).map_err(|e| format!("bad number {text:?}: {e}"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .or_else(|_| text.parse::<f64>().map(Json::Num))
                .map_err(|e| format!("bad number {text:?}: {e}"))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let c = self.peek().ok_or("unterminated string")?;
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our writer;
                            // map unpaired surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                _ => {
                    // Re-sync to char boundary: back up and take the full char.
                    self.pos -= 1;
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf8 in string".to_string())?;
                    let ch = rest.chars().next().ok_or("unterminated string")?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_values() {
        let v = Json::obj(vec![
            ("name", Json::Str("train.epoch \"quoted\"\n".into())),
            ("count", Json::Int(42)),
            ("big", Json::Int(i64::MAX)),
            ("ratio", Json::Num(0.125)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
        ]);
        let text = v.render();
        let back = Json::parse(&text).expect("parses");
        assert_eq!(back, v);
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let v = Json::parse(" { \"a\" : [ 1 , { \"b\" : -2.5e1 } ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0], Json::Int(1));
        let inner = &v.get("a").unwrap().as_arr().unwrap()[1];
        assert_eq!(inner.get("b").unwrap().as_f64(), Some(-25.0));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} extra").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn unsigned_integers_are_exact_over_u64() {
        for v in [0, 1 << 53, (1 << 53) + 1, i64::MAX as u64, i64::MAX as u64 + 1, u64::MAX] {
            let back = Json::parse(&Json::uint(v).render()).unwrap();
            assert_eq!(back.as_u64(), Some(v), "{v}");
        }
        for bad in ["-1", "2.7", "2.0", "\"12a\"", "\"\"", "true"] {
            assert_eq!(Json::parse(bad).unwrap().as_u64(), None, "{bad}");
        }
    }

    #[test]
    fn negative_zero_survives() {
        let back = Json::parse(&Json::Num(-0.0).render()).unwrap();
        assert_eq!(back.as_f64().map(f64::to_bits), Some((-0.0f64).to_bits()));
    }

    #[test]
    fn field_errors_name_the_field() {
        let v = Json::parse(r#"{"n":2.7,"s":"x"}"#).unwrap();
        assert_eq!(v.str_field("s"), Ok("x"));
        assert_eq!(
            v.usize_field("n"),
            Err("field `n`: expected a non-negative integer, found 2.7".to_string())
        );
        assert_eq!(v.usize_field("m"), Err("missing field `m`".to_string()));
    }

    #[test]
    fn unicode_survives() {
        let v = Json::Str("héllo → wörld ✓".into());
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }
}
