//! Hand-rolled JSON emission, parsing, and a well-formedness checker.
//!
//! The workspace is dependency-free, so serialization cannot lean on
//! serde. The emitter covers exactly what [`crate::RunReport`] needs:
//! objects, arrays, strings with escapes, and finite numbers. The parser
//! ([`parse`] → [`Value`]) is the request-decoding counterpart used by
//! `parcom-serve` request bodies and `DetectorSpec::parse_json`; the
//! [`validate`] checker (report golden tests, CLI smoke test) is that
//! parser with the value dropped — it verifies *syntax* only, not schema.

/// Appends `s` as a JSON string literal (with quotes) to `out`.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` as a JSON number. JSON has no NaN/Infinity, so non-finite
/// values are emitted as `null`.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Rust's default f64 Display is the shortest round-trip form and
        // always contains enough precision; integral values print without
        // a fractional part, which is still a valid JSON number.
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

/// The decimal digits of `v` as ASCII, written at the end of `buffer` —
/// `u64::MAX` has 20 — without going through `core::fmt`: half the cost
/// per number. A partition's text pays it once per community id
/// (`parcom_io::partition_io::render_partition`).
#[inline]
pub fn u64_digits(mut v: u64, buffer: &mut [u8; 20]) -> &[u8] {
    let mut at = buffer.len();
    loop {
        at -= 1;
        buffer[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    &buffer[at..]
}

/// Appends `v` as a JSON number, exactly (no detour through `f64`).
#[inline]
pub fn write_u64(out: &mut String, v: u64) {
    // digit by digit: checking the slice as UTF-8 would cost what the
    // loop saved
    for &digit in u64_digits(v, &mut [0; 20]) {
        out.push(char::from(digit));
    }
}

/// Appends `"key":` for the next member of the object being written,
/// with the separating comma unless it is the object's first.
pub fn write_key(out: &mut String, key: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    write_str(out, key);
    out.push(':');
}

/// A parsed JSON value.
///
/// Objects are association lists in document order — the handful of keys
/// in a request body never justifies a hash map — and [`Value::get`]
/// returns the *first* occurrence of a key.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`, like JavaScript).
    Number(f64),
    /// A string, with escapes resolved.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, as `(key, value)` pairs in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup (first occurrence); `None` on non-objects and
    /// absent keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer: the number must be
    /// integral and representable (serve ids/counters come in this way).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(v) if *v >= 0.0 && *v <= 2f64.powi(53) && v.fract() == 0.0 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn entries(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// Nesting bound of [`parse`]: serve decodes untrusted request bodies, so
/// recursion depth is capped instead of trusting the input.
const MAX_DEPTH: usize = 64;

/// Parses one JSON value from `s` (surrounding whitespace allowed,
/// trailing data rejected). Returns a message with a byte offset on the
/// first syntax error.
pub fn parse(s: &str) -> Result<Value, String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos));
    }
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos, depth),
        Some(b'[') => parse_array(b, pos, depth),
        Some(b'"') => parse_string(b, pos).map(Value::String),
        Some(b't') => literal(b, pos, "true").map(|()| Value::Bool(true)),
        Some(b'f') => literal(b, pos, "false").map(|()| Value::Bool(false)),
        Some(b'n') => literal(b, pos, "null").map(|()| Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            number(b, pos)?;
            let text = std::str::from_utf8(&b[start..*pos])
                .map_err(|_| format!("non-UTF-8 number at byte {start}"))?;
            text.parse::<f64>()
                .map(Value::Number)
                .map_err(|_| format!("unrepresentable number at byte {start}"))
        }
        Some(c) => Err(format!("unexpected byte `{}` at {}", *c as char, *pos)),
        None => Err(format!("unexpected end of input at {}", *pos)),
    }
}

/// Parses a string literal at `*pos`, resolving escapes (including
/// `\uXXXX` surrogate pairs).
fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    let start = *pos;
    string(b, pos)?; // syntax check + end position
    let body = &b[start + 1..*pos - 1];
    let raw = std::str::from_utf8(body).map_err(|_| format!("non-UTF-8 string at byte {start}"))?;
    if !raw.contains('\\') {
        return Ok(raw.to_string());
    }
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('/') => out.push('/'),
            Some('b') => out.push('\u{8}'),
            Some('f') => out.push('\u{c}'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                fn unit(chars: &mut std::str::Chars<'_>, start: usize) -> Result<u32, String> {
                    let hex: String = chars.by_ref().take(4).collect();
                    u32::from_str_radix(&hex, 16)
                        .map_err(|_| format!("bad \\u escape in string at byte {start}"))
                }
                let hi = unit(&mut chars, start)?;
                let code = if (0xd800..0xdc00).contains(&hi) {
                    // high surrogate: a `\uXXXX` low surrogate must follow
                    if chars.next() != Some('\\') || chars.next() != Some('u') {
                        return Err(format!("lone surrogate in string at byte {start}"));
                    }
                    let lo = unit(&mut chars, start)?;
                    if !(0xdc00..0xe000).contains(&lo) {
                        return Err(format!("lone surrogate in string at byte {start}"));
                    }
                    0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                } else {
                    hi
                };
                match char::from_u32(code) {
                    Some(c) => out.push(c),
                    None => return Err(format!("invalid codepoint in string at byte {start}")),
                }
            }
            _ => return Err(format!("bad escape in string at byte {start}")),
        }
    }
    Ok(out)
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    *pos += 1; // '{'
    skip_ws(b, pos);
    let mut pairs = Vec::new();
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(pairs));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {}", *pos));
        }
        *pos += 1;
        skip_ws(b, pos);
        let v = parse_value(b, pos, depth + 1)?;
        pairs.push((key, v));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(pairs));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    *pos += 1; // '['
    skip_ws(b, pos);
    let mut items = Vec::new();
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        skip_ws(b, pos);
        items.push(parse_value(b, pos, depth + 1)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

/// Checks that `s` is one syntactically well-formed JSON value — exactly
/// what [`parse`] accepts.
pub fn validate(s: &str) -> Result<(), String> {
    parse(s).map(drop)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn literal(b: &[u8], pos: &mut usize, word: &str) -> Result<(), String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => match b.get(*pos + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 2,
                Some(b'u') => {
                    let hex = b.get(*pos + 2..*pos + 6).ok_or("truncated \\u escape")?;
                    if !hex.iter().all(u8::is_ascii_hexdigit) {
                        return Err(format!("bad \\u escape at byte {}", *pos));
                    }
                    *pos += 6;
                }
                _ => return Err(format!("bad escape at byte {}", *pos)),
            },
            c if c < 0x20 => return Err(format!("raw control byte in string at {}", *pos)),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| {
        let s = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > s
    };
    if !digits(b, pos) {
        return Err(format!("bad number at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(b, pos) {
            return Err(format!("bad fraction at byte {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(b, pos) {
            return Err(format!("bad exponent at byte {start}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        assert!(validate(&out).is_ok());
    }

    #[test]
    fn integers_are_written_as_core_fmt_writes_them() {
        // golden: 0, every power of ten and its neighbours, u64::MAX
        let mut values = vec![0, u64::MAX];
        let mut power = 1u64;
        loop {
            values.extend([power - 1, power, power + 1]);
            match power.checked_mul(10) {
                Some(next) => power = next,
                None => break,
            }
        }
        for v in values {
            let mut out = String::from("x");
            write_u64(&mut out, v);
            assert_eq!(out, format!("x{v}"));
        }
    }

    #[test]
    fn nonfinite_numbers_become_null() {
        let mut out = String::new();
        write_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
        out.clear();
        write_f64(&mut out, 0.25);
        assert_eq!(out, "0.25");
    }

    #[test]
    fn accepts_wellformed() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            "{\"a\": [1, 2, {\"b\": \"x\\ny\"}], \"c\": true}",
            "  {\"k\": null}  ",
        ] {
            assert!(validate(ok).is_ok(), "{ok}");
            assert!(parse(ok).is_ok(), "{ok}");
        }
    }

    #[test]
    fn parses_nested_values() {
        let v = parse("{\"a\": [1, 2.5, {\"b\": \"x\\ny\"}], \"c\": true, \"d\": null}").unwrap();
        assert_eq!(v.get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("d"), Some(&Value::Null));
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[2].get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.entries().unwrap().len(), 3);
    }

    #[test]
    fn parse_resolves_escapes_and_surrogates() {
        assert_eq!(
            parse("\"a\\u0041\\\\\\n\\u00e9\"").unwrap(),
            Value::String("aA\\\né".into())
        );
        // U+1F600 as a surrogate pair
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Value::String("😀".into())
        );
        assert!(parse("\"\\ud83d alone\"").is_err());
    }

    #[test]
    fn parse_round_trips_the_emitter() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(
            parse(&out).unwrap(),
            Value::String("a\"b\\c\nd\te\u{1}".into())
        );
    }

    #[test]
    fn nesting_is_bounded_for_parser_and_validator_alike() {
        let nested = |depth: usize| "[".repeat(depth) + "0" + &"]".repeat(depth);
        assert!(parse(&nested(64)).is_ok());
        assert!(validate(&nested(64)).is_ok());
        // a value 65 arrays deep: one past what the daemon accepts
        assert!(parse(&nested(65)).unwrap_err().contains("nesting"));
        assert!(validate(&nested(65)).unwrap_err().contains("nesting"));
    }

    #[test]
    fn integral_accessor_rejects_fractions_and_negatives() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("7.25").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("7.25").unwrap().as_f64(), Some(7.25));
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\" 1}",
            "\"unterminated",
            "01x",
            "{} extra",
            "NaN",
            "tru",
            "1e",
        ] {
            assert!(validate(bad).is_err(), "{bad}");
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
