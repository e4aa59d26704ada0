//! A minimal, strict-enough JSON reader.
//!
//! The serving layer's request bodies are tiny (`{"q": "...", "k": 5}`),
//! so a compact recursive-descent parser on `std` keeps the workspace
//! dependency-free. Depth is capped, input size is capped by the HTTP
//! layer, and every failure is a typed `Err` — never a panic (`clippy::panic`, `unwrap_used`).

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, kept as `f64` (ample for `k` and latencies).
    Num(f64),
    /// A string with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object, `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// A non-negative integral number, `None` otherwise.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // fract()==0.0 is the exact integrality test, not a tolerance check
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The array elements, `None` for non-arrays.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items.as_slice()),
            _ => None,
        }
    }
}

const MAX_DEPTH: usize = 32;

/// Parses one JSON document (surrounding whitespace allowed).
///
/// # Errors
/// A short static description of the first syntax problem.
pub fn parse(input: &str) -> Result<Json, &'static str> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err("trailing characters after JSON document");
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), &'static str> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err("unexpected character")
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, &'static str> {
    if depth > MAX_DEPTH {
        return Err("JSON nesting too deep");
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input"),
        Some(b'{') => parse_obj(bytes, pos, depth),
        Some(b'[') => parse_arr(bytes, pos, depth),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_lit(bytes, pos, "true").map(|_| Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false").map(|_| Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null").map(|_| Json::Null),
        Some(_) => parse_num(bytes, pos).map(Json::Num),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &'static str) -> Result<(), &'static str> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err("malformed literal")
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<f64, &'static str> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "invalid number bytes")?;
    text.parse::<f64>().map_err(|_| "malformed number")
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, &'static str> {
    expect(bytes, pos, b'"').map_err(|_| "expected string")?;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err("unterminated string");
        };
        *pos += 1;
        match b {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape");
                };
                *pos += 1;
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
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        *pos += 4;
                        // surrogate pairs are out of scope for this
                        // workload; map them to the replacement char
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    _ => return Err("unknown escape"),
                }
            }
            _ => {
                // re-decode the UTF-8 sequence starting at b
                let len = utf8_len(b)?;
                let chunk = bytes
                    .get(*pos - 1..*pos - 1 + len)
                    .ok_or("truncated UTF-8 sequence")?;
                let s = std::str::from_utf8(chunk).map_err(|_| "invalid UTF-8 in string")?;
                out.push_str(s);
                *pos += len - 1;
            }
        }
    }
}

fn utf8_len(first: u8) -> Result<usize, &'static str> {
    match first {
        0x00..=0x7F => Ok(1),
        0xC0..=0xDF => Ok(2),
        0xE0..=0xEF => Ok(3),
        0xF0..=0xF7 => Ok(4),
        _ => Err("invalid UTF-8 lead byte"),
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, &'static str> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err("expected ',' or ']' in array"),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, &'static str> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':').map_err(|_| "expected ':' in object")?;
        let value = parse_value(bytes, pos, depth + 1)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err("expected ',' or '}' in object"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emblookup_obs::escape_json;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn parses_lookup_request_shape() {
        let v = parse(r#"{"q": "germoney", "k": 5}"#).unwrap();
        assert_eq!(v.get("q").and_then(Json::as_str), Some("germoney"));
        assert_eq!(v.get("k").and_then(Json::as_u64), Some(5));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parses_bulk_request_shape() {
        let v = parse(r#"{"queries": ["a", "b\nc"], "k": 2}"#).unwrap();
        let qs = v.get("queries").and_then(Json::as_arr).unwrap();
        assert_eq!(qs.len(), 2);
        assert_eq!(qs[1].as_str(), Some("b\nc"));
    }

    #[test]
    fn parses_nested_values_and_unicode() {
        let v = parse(r#"{"a": [1, 2.5, -3], "b": {"c": null, "d": true}, "e": "café über"}"#)
            .unwrap();
        assert_eq!(v.get("a").and_then(Json::as_arr).map(<[Json]>::len), Some(3));
        assert_eq!(v.get("b").and_then(|b| b.get("d")), Some(&Json::Bool(true)));
        assert_eq!(v.get("e").and_then(Json::as_str), Some("café über"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{", "[1,", "\"open", "{\"k\" 1}", "tru", "{} extra", "{\"a\":01e}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_pathological_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
        // Refused at the cap, not by the stack: a megabyte of openers
        // (the body limit) costs `MAX_DEPTH` frames.
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH + 1)).is_ok());
        assert_eq!(parse(&nested(MAX_DEPTH + 2)).err(), Some("JSON nesting too deep"));
        assert_eq!(parse(&"[".repeat(1 << 20)).err(), Some("JSON nesting too deep"));
        assert_eq!(parse(&"{\"a\":".repeat(1 << 16)).err(), Some("JSON nesting too deep"));
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(parse("2.5").unwrap().as_u64(), None);
        assert_eq!(parse("-2").unwrap().as_u64(), None);
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}f über";
        let doc = format!("{{\"s\": \"{}\"}}", escape_json(nasty));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some(nasty));
    }

    /// Seeded mutations of valid request bodies (bit flips, truncations,
    /// nesting pushed past `MAX_DEPTH`, hostile number and escape tokens,
    /// strings left open): whatever arrives, `parse` returns `Ok` or
    /// `Err` — a panic here would be one `500` per hostile body, and an
    /// unbounded recursion the whole process.
    #[test]
    fn mutated_documents_never_panic() {
        const BODIES: [&str; 3] = [
            r#"{"q": "germoney", "k": 5}"#,
            r#"{"queries": ["a", "b\nc", "caf\u00e9 über \ud83d\ude00 𝄞"], "k": 2}"#,
            r#"{"a": [1, 2.5, -3e2], "b": {"c": null, "d": true}, "e": "\"\\\/\b\f"}"#,
        ];
        const HOSTILE: [&str; 16] = [
            "1e999", "-1e999", "-", "+", ".", "-.e+", "0x10", "\\u", "\\u12", "\\ud800",
            "\\udfff\\ud800", "\\uzzzz", "\\", "\"", "\u{0}", "nul",
        ];
        assert!(BODIES.iter().all(|body| parse(body).is_ok()), "the corpus must be valid");
        let mut rng = StdRng::seed_from_u64(0x4A53_4F4E);
        let (mut accepted, mut refused) = (0u32, 0u32);
        for case in 0..12_000u32 {
            let mut doc = BODIES[case as usize % 3].as_bytes().to_vec();
            for _ in 0..rng.gen_range(1..=3u32) {
                let at = rng.gen_range(0..=doc.len());
                let insert: Vec<u8> = match rng.gen_range(0..5u32) {
                    0 if at < doc.len() => {
                        doc[at] ^= 1 << rng.gen_range(0..8u32);
                        continue;
                    }
                    1 => {
                        doc.truncate(at);
                        continue;
                    }
                    2 => {
                        // A quote taken out (or one put in) leaves a
                        // string open to the end of the document.
                        match doc[at..].iter().position(|&b| b == b'"') {
                            Some(quote) => drop(doc.remove(at + quote)),
                            None => doc.push(b'"'),
                        }
                        continue;
                    }
                    3 => {
                        let opener = if rng.gen_bool(0.5) { "[" } else { "{\"a\":" };
                        opener.repeat(rng.gen_range(1..=2 * MAX_DEPTH)).into_bytes()
                    }
                    _ => HOSTILE[rng.gen_range(0..HOSTILE.len())].as_bytes().to_vec(),
                };
                drop(doc.splice(at..at, insert));
            }
            // The handler refuses a body that is not UTF-8 before it
            // parses it; lossy decoding keeps those cases in the corpus.
            match parse(&String::from_utf8_lossy(&doc)) {
                Ok(_) => accepted += 1,
                Err(_) => refused += 1,
            }
        }
        assert!(accepted > 300 && refused > 3_000, "one-sided corpus: {accepted} / {refused}");
    }

    /// A `/lookup` and a `/lookup/bulk` body cut at every byte: a cut
    /// inside a multi-byte character is not UTF-8 (the handler refuses it
    /// before parsing), every other proper prefix is an `Err` — the
    /// document is an object, so no prefix closes it — and only the whole
    /// body parses, to the request it spells.
    #[test]
    fn every_cut_of_a_request_body_is_an_err_and_the_whole_parses() {
        let bodies = [
            (r#"{"q": "café über", "k": 10}"#, Some("café über"), 10, 0),
            (r#"{"queries": ["germoney", "b
c", "😀 𝄞", ""], "k": 3}"#, None, 3, 4),
        ];
        for (body, query, k, queries) in bodies {
            let whole = parse(body).expect("the corpus is valid");
            assert_eq!(whole.get("q").and_then(Json::as_str), query);
            assert_eq!(whole.get("k").and_then(Json::as_u64), Some(k));
            assert_eq!(whole.get("queries").and_then(Json::as_arr).map_or(0, <[Json]>::len), queries);
            let bytes = body.as_bytes();
            let mut parsed_cuts = 0;
            for cut in 0..bytes.len() {
                if let Ok(prefix) = std::str::from_utf8(&bytes[..cut]) {
                    parsed_cuts += 1;
                    assert!(parse(prefix).is_err(), "cut at {cut} of {body:?} parsed");
                }
            }
            assert!(parsed_cuts + 8 >= bytes.len(), "only {parsed_cuts} cuts were UTF-8");
        }
    }

    /// `escape_json` and `parse` are inverses on every string: seeded strings
    /// of arbitrary `char`s — controls, quotes, backslashes, the top of
    /// the BMP, astral planes — come back as they went in.
    #[test]
    fn escaped_strings_of_arbitrary_chars_round_trip() {
        let mut rng = StdRng::seed_from_u64(0xE5CA);
        let pools: [std::ops::RangeInclusive<u32>; 5] =
            [0..=0x1F, 0x20..=0x7F, 0x80..=0xD7FF, 0xE000..=0xFFFF, 0x1_0000..=0x10_FFFF];
        for case in 0..10_000u32 {
            let s: String = (0..rng.gen_range(0..24u32))
                .map(|_| match rng.gen_range(0..7usize) {
                    5 => '"',
                    6 => '\\',
                    pool => {
                        let code = rng.gen_range(pools[pool].clone());
                        char::from_u32(code).expect("the pools hold no surrogate")
                    }
                })
                .collect();
            let doc = format!("\"{}\"", escape_json(&s));
            assert_eq!(parse(&doc), Ok(Json::Str(s)), "case {case}: {doc:?}");
        }
    }
}
