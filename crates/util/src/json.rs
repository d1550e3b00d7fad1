//! A minimal, dependency-free JSON value, parser and writer.
//!
//! The logs repository (§III.B of the paper) persists every run as a JSON
//! line so the parser/classifier can be reconfigured without re-running
//! campaigns. The build environment pins the workspace to the standard
//! library only, so the small subset of JSON the repository needs —
//! objects, arrays, strings, integers, floats, booleans and null — is
//! implemented here. Integers are kept in native 64-bit form (not `f64`)
//! because mask identifiers and cycle counts use the full `u64` range.
//!
//! Reading goes through a tree: [`parse`] builds a [`Json`] value that the
//! records decode from. Writing streams: a [`WriteJson`] value appends its
//! compact text straight to a caller's buffer, objects through [`Obj`]
//! with `&'static str` keys, so a journal line costs no tree, no `String`
//! per key or integer, and no buffer but the one the caller reuses. A
//! [`Json`] tree writes through the same escaper and integer writer, so
//! both paths render a value to the same bytes.

use crate::{Error, Result};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer (also used for values that fit in `u64`).
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A floating-point number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::I64(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::I64(v) => Some(*v),
            Json::U64(v) if *v <= i64::MAX as u64 => Some(*v as i64),
            _ => None,
        }
    }

    /// The value as `f64`, if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(v) => Some(*v),
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Required-field lookup that produces a [`Error::Parse`] on absence.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] when `key` is missing.
    pub fn req(&self, key: &str) -> Result<&Json> {
        self.get(key)
            .ok_or_else(|| Error::Parse(format!("missing field '{key}'")))
    }
}

impl WriteJson for Json {
    fn write_json(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => b.write_json(out),
            Json::U64(v) => write_u64(out, *v),
            Json::I64(v) => {
                if *v < 0 {
                    out.push('-');
                }
                write_u64(out, v.unsigned_abs());
            }
            Json::F64(v) => {
                if v.is_finite() {
                    // Keep a decimal point / exponent so the value reparses
                    // as a float.
                    let s = format!("{v}");
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => s.write_json(out),
            Json::Arr(items) => items.write_json(out),
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    k.write_json(out);
                    out.push(':');
                    v.write_json(out);
                }
                out.push('}');
            }
        }
    }
}

impl std::fmt::Display for Json {
    /// Compact (single-line) JSON serialization.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_json_string())
    }
}

/// A value that appends its compact JSON text to a buffer, without
/// building a [`Json`] tree.
pub trait WriteJson {
    /// Appends the compact JSON text of `self` to `out`.
    fn write_json(&self, out: &mut String);

    /// The compact JSON text of `self` in a fresh `String`.
    fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

impl WriteJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

macro_rules! write_unsigned {
    ($($t:ty),*) => {$(
        impl WriteJson for $t {
            fn write_json(&self, out: &mut String) {
                // Lossless: no supported target has a `usize` wider than 64 bits.
                write_u64(out, *self as u64);
            }
        }
    )*};
}

write_unsigned!(u8, u32, u64, usize);

impl WriteJson for str {
    /// A quoted string. `"` and `\` are escaped, as are the control
    /// characters below U+0020 (`\n`, `\r`, `\t` by name, the rest as
    /// `\u00xx`); everything else, non-ASCII included, is written as is.
    fn write_json(&self, out: &mut String) {
        out.push('"');
        let mut plain = 0;
        // Every byte that needs escaping is ASCII, and no byte of a
        // multi-byte UTF-8 sequence is, so each split is a char boundary.
        for (i, b) in self.bytes().enumerate() {
            let named = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            out.push_str(&self[plain..i]);
            if named.is_empty() {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            } else {
                out.push_str(named);
            }
            plain = i + 1;
        }
        out.push_str(&self[plain..]);
        out.push('"');
    }
}

impl<T: WriteJson> WriteJson for Option<T> {
    /// The value, or `null` when absent.
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: WriteJson> WriteJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

/// Appends the decimal digits of `v`.
fn write_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("decimal digits are ASCII"));
}

/// A JSON object being appended to a buffer: `{` when opened, one
/// `"key":value` member per [`Obj::field`] or [`Obj::object`] call, in call
/// order, and `}` on [`Obj::end`].
///
/// ```
/// use difi_util::json::Obj;
/// let mut line = String::new();
/// Obj::open(&mut line)
///     .field("id", &7u64)
///     .object("at", |at| at.field("Cycle", &12u64))
///     .field("tag", "a\"b")
///     .end();
/// assert_eq!(line, r#"{"id":7,"at":{"Cycle":12},"tag":"a\"b"}"#);
/// ```
#[must_use = "an object is not closed until `end`"]
pub struct Obj<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> Obj<'a> {
    /// Opens an object at the end of `out`.
    pub fn open(out: &'a mut String) -> Obj<'a> {
        out.push('{');
        Obj { out, empty: true }
    }

    /// Appends the member `key: value`.
    pub fn field<T: WriteJson + ?Sized>(mut self, key: &'static str, value: &T) -> Obj<'a> {
        self.key(key);
        value.write_json(self.out);
        self
    }

    /// Appends the member `key: {…}`, an object whose members `members`
    /// writes.
    pub fn object(
        mut self,
        key: &'static str,
        members: impl FnOnce(Obj<'_>) -> Obj<'_>,
    ) -> Obj<'a> {
        self.key(key);
        members(Obj::open(self.out)).end();
        self
    }

    /// Closes the object.
    pub fn end(self) {
        self.out.push('}');
    }

    fn key(&mut self, key: &'static str) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        key.write_json(self.out);
        self.out.push(':');
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses once
/// per level, so an unbounded depth lets one hostile line overflow the
/// stack; every document this workspace writes nests far shallower.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document.
///
/// # Errors
///
/// Returns [`Error::Parse`] on malformed input, trailing garbage, or
/// arrays/objects nested more than 128 levels deep.
pub fn parse(input: &str) -> Result<Json> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::Parse(format!(
            "trailing characters at offset {}",
            p.pos
        )));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::Parse(format!(
                "expected '{}' at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error::Parse(format!("bad literal at offset {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Json> {
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(Error::Parse(format!("unexpected input at {}", self.pos))),
        }
    }

    /// Parses one array or object with `f`, one nesting level deeper.
    fn nested(&mut self, f: fn(&mut Self) -> Result<Json>) -> Result<Json> {
        if self.depth == MAX_DEPTH {
            return Err(Error::Parse(format!(
                "nesting deeper than {MAX_DEPTH} levels at offset {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json> {
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
                _ => return Err(Error::Parse(format!("bad array at offset {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Json> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            pairs.push((k, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(Error::Parse(format!("bad object at offset {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote or
            // escape at once: both are ASCII, so in valid UTF-8 input the
            // run ends on a character boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| Error::Parse("unterminated string".into()))?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let Some(e) = self.peek() else {
                return Err(Error::Parse("unterminated escape".into()));
            };
            self.pos += 1;
            match e {
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
                        .ok_or_else(|| Error::Parse("bad \\u escape".into()))?;
                    let cp = u32::from_str_radix(hex, 16)
                        .map_err(|_| Error::Parse("bad \\u escape".into()))?;
                    self.pos += 4;
                    // Surrogate pairs are not produced by our writer;
                    // map lone surrogates to the replacement char.
                    out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                }
                _ => return Err(Error::Parse("unknown escape".into())),
            }
        }
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::Parse("invalid number".into()))?;
        if !is_float {
            if s.starts_with('-') {
                if let Ok(v) = s.parse::<i64>() {
                    return Ok(Json::I64(v));
                }
            } else if let Ok(v) = s.parse::<u64>() {
                return Ok(Json::U64(v));
            }
        }
        s.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| Error::Parse(format!("invalid number '{s}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::U64(0),
            Json::U64(u64::MAX),
            Json::I64(-42),
            Json::F64(1.5),
            Json::Str("hello \"world\"\n\t\\".into()),
            Json::Str("unicode: é λ".into()),
        ] {
            let s = v.to_string();
            assert_eq!(parse(&s).unwrap(), v, "roundtrip of {s}");
        }
    }

    #[test]
    fn a_long_string_roundtrips() {
        // 200k characters of ASCII, multi-byte characters, escapes and a
        // control character: runs of plain characters end on character
        // boundaries wherever the escapes fall.
        let unit = "plain é λ 🦀 \"quoted\" back\\slash\nnew\tline\u{1}";
        let s: String = unit.chars().cycle().take(200_000).collect();
        let v = Json::Str(s);
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        assert!(parse(&"[".repeat(100_000)).is_err());
        let at_limit = format!("{}{}", "[".repeat(128), "]".repeat(128));
        assert!(parse(&at_limit).is_ok());
        let over = format!("{{\"a\":{at_limit}}}");
        let err = parse(&over).expect_err("one level over the limit");
        assert!(
            err.to_string().contains("128 levels at offset 132"),
            "{err}"
        );
    }

    #[test]
    fn u64_max_survives_exactly() {
        let s = Json::U64(u64::MAX).to_string();
        assert_eq!(s, "18446744073709551615");
        assert_eq!(parse(&s).unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn roundtrip_nested() {
        let v = Json::obj(vec![
            ("id", Json::U64(7)),
            (
                "items",
                Json::Arr(vec![Json::U64(1), Json::Str("x".into())]),
            ),
            (
                "inner",
                Json::obj(vec![("flag", Json::Bool(false)), ("n", Json::Null)]),
            ),
        ]);
        let s = v.to_string();
        let back = parse(&s).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(
            back.get("inner")
                .and_then(|i| i.get("flag"))
                .and_then(Json::as_bool),
            Some(false)
        );
    }

    #[test]
    fn parses_whitespace_and_float_forms() {
        let v = parse(" { \"a\" : [ 1 , 2.5 , -3 ] } ").unwrap();
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_i64(), Some(-3));
    }

    #[test]
    fn float_writes_reparse_as_float() {
        let s = Json::F64(2.0).to_string();
        assert_eq!(s, "2.0");
        assert_eq!(parse(&s).unwrap(), Json::F64(2.0));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn control_chars_escape() {
        let v = Json::Str("\u{1}".into());
        assert_eq!(v.to_string(), "\"\\u0001\"");
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn req_reports_missing_field() {
        let v = parse("{\"a\":1}").unwrap();
        assert!(v.req("a").is_ok());
        let e = v.req("b").unwrap_err();
        assert!(e.to_string().contains("'b'"));
    }

    #[test]
    fn every_low_codepoint_string_roundtrips() {
        // Exhaustive over the range where escaping decisions are made
        // (controls, quotes, backslash, Latin-1, BMP samples) — every
        // single-char string must survive write → parse unchanged.
        let mut failed = Vec::new();
        for cp in 0u32..0x300 {
            let Some(c) = char::from_u32(cp) else {
                continue;
            };
            let v = Json::Str(c.to_string());
            if parse(&v.to_string()).ok() != Some(v) {
                failed.push(cp);
            }
        }
        assert!(failed.is_empty(), "lossy codepoints: {failed:x?}");
        // Non-BMP and other notorious cases.
        for s in ["\u{1f600}", "\u{2028}\u{2029}", "a\u{0}b", "\u{e000}", "𝕊"] {
            let v = Json::Str(s.into());
            assert_eq!(parse(&v.to_string()).unwrap(), v, "{s:?}");
        }
    }

    /// The escaper as it was written before streaming, one char at a time:
    /// the reference the streamed escaper must match byte for byte.
    fn reference_escape(s: &str) -> String {
        let mut out = String::from('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn streamed_strings_match_the_reference_escaper() {
        let mut every: String = (0u32..0x300).filter_map(char::from_u32).collect();
        every.push_str("\u{2028}\u{1f600}𝕊\u{e000}");
        for s in [
            every.as_str(),
            "",
            "plain",
            "\"",
            "\\\\",
            "a\u{0}b\u{1f}c\u{7f}",
        ] {
            assert_eq!(s.to_json_string(), reference_escape(s), "{s:?}");
        }
        let mut rng = crate::rng::Xoshiro256::seed_from(0xE5C);
        let pool: Vec<char> = every.chars().collect();
        for _ in 0..500 {
            let len = rng.gen_range(0, 24) as usize;
            let s: String = (0..len)
                .map(|_| pool[rng.gen_range(0, pool.len() as u64) as usize])
                .collect();
            assert_eq!(s.to_json_string(), reference_escape(&s), "{s:?}");
        }
    }

    #[test]
    fn streamed_integers_match_to_string() {
        for v in [0, 1, 9, 10, 99, 100, 1 << 32, u64::MAX - 1, u64::MAX] {
            assert_eq!(v.to_json_string(), v.to_string());
            assert_eq!(Json::U64(v).to_string(), v.to_string());
        }
        for v in [i64::MIN, -1, 0, 7, i64::MAX] {
            assert_eq!(Json::I64(v).to_string(), v.to_string());
        }
        assert_eq!(255u8.to_json_string(), "255");
        assert_eq!(u32::MAX.to_json_string(), u32::MAX.to_string());
        assert_eq!(usize::MAX.to_json_string(), usize::MAX.to_string());
    }

    #[test]
    fn streamed_objects_match_the_tree() {
        let mut line = String::from("prefix ");
        Obj::open(&mut line)
            .field("id", &7u64)
            .field("bytes", [0u8, 255].as_slice())
            .field("none", &None::<u64>)
            .field("some", &Some(3u64))
            .object("inner", |o| o.field("flag", &false).field("s", "\u{1}λ"))
            .object("empty", |o| o)
            .end();
        let tree = Json::obj(vec![
            ("id", Json::U64(7)),
            ("bytes", Json::Arr(vec![Json::U64(0), Json::U64(255)])),
            ("none", Json::Null),
            ("some", Json::U64(3)),
            (
                "inner",
                Json::obj(vec![
                    ("flag", Json::Bool(false)),
                    ("s", Json::Str("\u{1}λ".into())),
                ]),
            ),
            ("empty", Json::Obj(Vec::new())),
        ]);
        assert_eq!(line, format!("prefix {tree}"));
    }

    #[test]
    fn seeded_sweep_arbitrary_strings_roundtrip() {
        // Random strings drawn from a hostile pool: JSON syntax bytes,
        // escapes, controls, multi-byte chars.
        let pool: Vec<char> = ('\u{0}'..='\u{ff}')
            .chain(['"', '\\', '\u{2028}', '\u{fffd}', '\u{1f4a9}', '𐍈'])
            .collect();
        let mut rng = crate::rng::Xoshiro256::seed_from(0xD1F1);
        for _ in 0..500 {
            let len = rng.gen_range(0, 40) as usize;
            let s: String = (0..len)
                .map(|_| pool[rng.gen_range(0, pool.len() as u64) as usize])
                .collect();
            let v = Json::Str(s.clone());
            let text = v.to_string();
            assert_eq!(parse(&text).unwrap(), v, "string {s:?} via {text:?}");
        }
    }
}
