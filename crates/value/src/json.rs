//! JSON encoding and decoding for [`Value`].
//!
//! The workspace runs fully offline (no `serde_json`), but the benchmark
//! subsystem needs machine-readable reports (`BENCH_results.json`) and a
//! CI gate that reads them back. [`Value`] is already a JSON-shaped data
//! model, so this module provides the two missing halves:
//!
//! - [`to_json`] — deterministic text: map keys come out in [`Map`]'s
//!   (sorted) order and floats that carry no fraction are written with a
//!   trailing `.0` so integers and floats survive a round trip;
//! - [`from_json`] — a strict recursive-descent parser covering the full
//!   JSON grammar (nested containers, string escapes including `\uXXXX`
//!   with surrogate pairs, scientific notation). It parses untrusted text
//!   (the front door hands it every request body), so it bounds what the
//!   grammar leaves open: containers nest at most [`MAX_DEPTH`] deep, and
//!   a number must be finite as an `f64`.
//!
//! Lossiness: [`Value::Bytes`] has no JSON representation and is written
//! as a hex string (it does not occur in benchmark reports); non-finite
//! floats are written as `null`, as `JSON.stringify` does.

use std::fmt::Write as _;
use std::sync::Arc;

use crate::error::{ValueError, ValueResult};
use crate::map::Map;
use crate::name::Name;
use crate::value::Value;

/// Serializes a value as compact JSON with deterministic key order.
pub fn to_json(v: &Value) -> String {
    let mut out = String::new();
    write_json(&mut out, v, None);
    out
}

/// Serializes a value as indented JSON (two spaces per level).
pub fn to_json_pretty(v: &Value) -> String {
    let mut out = String::new();
    write_json(&mut out, v, Some(0));
    out.push('\n');
    out
}

fn write_json(out: &mut String, v: &Value, indent: Option<usize>) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(x) => write_float(out, *x),
        Value::Str(s) => write_string(out, s),
        Value::Bytes(b) => {
            // No JSON encoding exists for raw bytes; a hex string keeps
            // the report readable (and the value greppable).
            out.push('"');
            for byte in b {
                let _ = write!(out, "{byte:02x}");
            }
            out.push('"');
        }
        Value::List(items) => {
            write_seq(out, items.iter(), items.len(), indent, '[', ']', write_json)
        }
        Value::Map(m) => write_seq(out, m.iter(), m.len(), indent, '{', '}', |o, (k, v), i| {
            write_string(o, k);
            o.push(':');
            if i.is_some() {
                o.push(' ');
            }
            write_json(o, v, i);
        }),
    }
}

fn write_seq<T>(
    out: &mut String,
    items: impl Iterator<Item = T>,
    len: usize,
    indent: Option<usize>,
    open: char,
    close: char,
    mut write_item: impl FnMut(&mut String, T, Option<usize>),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    let inner = indent.map(|d| d + 1);
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(d) = inner {
            out.push('\n');
            out.push_str(&"  ".repeat(d));
        }
        write_item(out, item, inner);
    }
    if let Some(d) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(d));
    }
    out.push(close);
}

fn write_float(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    if x == x.trunc() {
        // Keep the float-ness through a round trip: `{:.1}` prints the
        // full decimal expansion plus `.0` (exact for any whole f64, at
        // any magnitude), so the parser reads it back as a float.
        let _ = write!(out, "{x:.1}");
    } else {
        let _ = write!(out, "{x}");
    }
}

fn write_string(out: &mut String, s: &str) {
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

/// How deep [`from_json`] lets containers nest: DynamoDB's limit on a
/// document's nesting, so whatever parses can also be stored. The bound
/// keeps the recursive descent's stack small: without it a 10 KB body of
/// `[`s overflowed a 2 MiB thread stack and aborted the process.
pub const MAX_DEPTH: usize = 32;

/// Parses a JSON document into a [`Value`].
///
/// # Errors
///
/// [`ValueError::Parse`] on any syntax error, on containers nested deeper
/// than [`MAX_DEPTH`], and on a number too large for an `f64` (`1e999`),
/// with a byte offset.
pub fn from_json(text: &str) -> ValueResult<Value> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
        buf: String::new(),
        entries: Vec::new(),
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// How many containers enclose the current position.
    depth: usize,
    /// Reused to decode each string before it becomes one `Arc<str>`.
    buf: String,
    /// Reused to collect the entries of the objects being parsed: each
    /// one's are the top of the stack until its `}` moves them out.
    entries: Vec<(Name, Value)>,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ValueError {
        ValueError::Parse(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> ValueResult<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> ValueResult<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> ValueResult<Value> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Self::list),
            Some(b'{') => self.nested(Self::map),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses a container with `parse`, one level deeper.
    fn nested(&mut self, parse: fn(&mut Self) -> ValueResult<Value>) -> ValueResult<Value> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("containers nested deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn list(&mut self) -> ValueResult<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::List(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::List(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn map(&mut self) -> ValueResult<Value> {
        self.expect(b'{')?;
        // Collected, then sorted once into a map of exactly their number:
        // an insert per key would shift the keys after it, quadratic in a
        // hostile object's width.
        let start = self.entries.len();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(Map::new()));
        }
        loop {
            self.skip_ws();
            let key = Name::from(self.string()?);
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            self.entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(self.entries.drain(start..).collect()));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> ValueResult<Arc<str>> {
        self.expect(b'"')?;
        let mut s = std::mem::take(&mut self.buf);
        s.clear();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => {
                    let decoded = Arc::from(s.as_str());
                    self.buf = s;
                    return Ok(decoded);
                }
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{0008}'),
                        b'f' => s.push('\u{000C}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => s.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                b if b < 0x20 => return Err(self.err("raw control character in string")),
                _ => {
                    // Consume the longest run of plain bytes in one step
                    // and validate just that slice as UTF-8. Stopping on
                    // `"`, `\`, and control bytes is safe mid-character:
                    // UTF-8 continuation bytes are always >= 0x80. (The
                    // obvious per-character variant — `from_utf8` on the
                    // whole remaining input each iteration — is O(n^2)
                    // and took 40+ s on a 2 MB benchmark report.)
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while let Some(&nb) = self.bytes.get(end) {
                        if nb == b'"' || nb == b'\\' || nb < 0x20 {
                            break;
                        }
                        end += 1;
                    }
                    let text = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    s.push_str(text);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> ValueResult<u32> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> ValueResult<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Float(x)),
            Ok(_) => Err(self.err("number out of range")),
            Err(_) => Err(self.err("invalid number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vmap;

    #[test]
    fn scalars_round_trip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::Float(1.5),
            Value::Float(-0.25),
            Value::Str("hello".into()),
            Value::Str("esc \" \\ \n \t ü 🎉".into()),
        ] {
            let text = to_json(&v);
            assert_eq!(from_json(&text).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn whole_floats_stay_floats() {
        for x in [3.0, 1e15, 9e18, 1e300, -2f64.powi(60)] {
            let v = Value::Float(x);
            let text = to_json(&v);
            assert_eq!(from_json(&text).unwrap(), v, "{text}");
        }
        assert_eq!(to_json(&Value::Float(3.0)), "3.0");
    }

    #[test]
    fn containers_round_trip() {
        let v = vmap! {
            "list" => Value::List(vec![Value::Int(1), Value::Null, Value::Str("x".into())]),
            "nested" => vmap! { "a" => 1i64, "b" => Value::List(vec![]) },
            "empty" => Value::Map(Map::new()),
        };
        let compact = to_json(&v);
        let pretty = to_json_pretty(&v);
        assert_eq!(from_json(&compact).unwrap(), v);
        assert_eq!(from_json(&pretty).unwrap(), v);
        assert!(pretty.contains('\n'));
    }

    #[test]
    fn map_keys_are_sorted_deterministically() {
        let v = vmap! { "b" => 2i64, "a" => 1i64, "c" => 3i64 };
        assert_eq!(to_json(&v), r#"{"a":1,"b":2,"c":3}"#);
    }

    #[test]
    fn standard_json_parses() {
        let v = from_json(r#" { "x": [1, 2.5, true, null, "s"], "y": {"z": -3e2} } "#).unwrap();
        assert_eq!(v.get_list("x").unwrap().len(), 5);
        assert_eq!(
            v.get_attr("y").unwrap().get_attr("z"),
            Some(&Value::Float(-300.0))
        );
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(
            from_json(r#""\u00fc\ud83c\udf89""#).unwrap(),
            Value::Str("ü🎉".into())
        );
    }

    #[test]
    fn syntax_errors_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\" 1}",
            "[01x]",
            "\"\\q\"",
        ] {
            assert!(from_json(bad).is_err(), "{bad:?} should fail");
        }
    }

    /// Parsing must stay linear in input size: the chaos drive's nightly
    /// reports reach tens of megabytes, and a quadratic string path once
    /// turned the report gate into a 30-minute CPU burn. A megabyte of
    /// string-heavy JSON should parse in milliseconds; the bound is
    /// generous enough to never flake, while a quadratic regression
    /// (minutes) sails past it.
    #[test]
    fn large_string_heavy_documents_parse_fast() {
        let mut doc = String::from("[");
        for i in 0..20_000 {
            if i > 0 {
                doc.push(',');
            }
            let _ = write!(doc, "{{\"key-{i}\":\"{}\"}}", "payload-ü-".repeat(5));
        }
        doc.push(']');
        #[expect(
            clippy::disallowed_methods,
            reason = "a complexity tripwire in host seconds: a linear parse takes milliseconds and the quadratic one it guards against took minutes, so the 10 s bound has three orders of margin either side; the parser keeps no work counter to assert on instead"
        )]
        let t0 = std::time::Instant::now();
        let v = from_json(&doc).unwrap();
        assert_eq!(v.as_list().unwrap().len(), 20_000);
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(10),
            "parse took {:?} — string scanning has gone super-linear",
            t0.elapsed()
        );
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let deepest = from_json(&nested(MAX_DEPTH)).unwrap();
        assert_eq!(from_json(&to_json(&deepest)).unwrap(), deepest);
        let maps = format!("{}1{}", r#"{"a":"#.repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(from_json(&maps).is_ok());
        // One level past the bound, or ten thousand: an error, not a crash.
        for depth in [MAX_DEPTH + 1, 10_000] {
            let err = from_json(&nested(depth)).unwrap_err();
            assert!(err.to_string().contains("nested deeper than 32"), "{err}");
        }
        let mixed = r#"{"a":[{"b":"#.repeat(20);
        assert!(from_json(&mixed)
            .unwrap_err()
            .to_string()
            .contains("nested"));
    }

    #[test]
    fn numbers_out_of_range_are_rejected() {
        for bad in ["1e999999", "-1e400", "[1e309]"] {
            let err = from_json(bad).unwrap_err();
            assert!(err.to_string().contains("out of range"), "{bad}: {err}");
        }
        // An integer past i64 that a float holds is still a number.
        assert_eq!(
            from_json("99999999999999999999").unwrap(),
            Value::Float(1e20)
        );
        assert_eq!(from_json("1e-999").unwrap(), Value::Float(0.0));
    }

    #[test]
    fn bytes_serialize_as_hex() {
        let v = Value::Bytes(vec![0xde, 0xad]);
        assert_eq!(to_json(&v), "\"dead\"");
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(to_json(&Value::Float(f64::NAN)), "null");
        assert_eq!(to_json(&Value::Float(f64::INFINITY)), "null");
    }
}
