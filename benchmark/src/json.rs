//! The benchmark's own JSON writer and reader.
//!
//! Hand-written on purpose: the result files must not depend on python
//! or an external crate, and the reader that checks served responses
//! must not be `emblookup_serve::json` — the parser under test.

/// Escapes `s` for use inside a JSON string literal.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// A number with all its digits; `null` when it is not finite.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A quoted, escaped string.
pub fn string(s: &str) -> String {
    format!("\"{}\"", esc(s))
}

/// `[a,b,c]` from already-serialized items.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let items: Vec<String> = items.into_iter().collect();
    format!("[{}]", items.join(","))
}

/// Builds one JSON object, field by field, in insertion order.
#[derive(Default)]
pub struct Object {
    out: String,
}

impl Object {
    pub fn new() -> Self {
        Object::default()
    }

    /// Adds a field whose value is already serialized JSON.
    pub fn raw(mut self, key: &str, value: &str) -> Self {
        self.out.push(if self.out.is_empty() { '{' } else { ',' });
        self.out.push_str(&string(key));
        self.out.push(':');
        self.out.push_str(value);
        self
    }

    pub fn str(self, key: &str, value: &str) -> Self {
        let v = string(value);
        self.raw(key, &v)
    }

    pub fn num(self, key: &str, value: f64) -> Self {
        let v = num(value);
        self.raw(key, &v)
    }

    pub fn int(self, key: &str, value: u64) -> Self {
        self.raw(key, &value.to_string())
    }

    pub fn bool(self, key: &str, value: bool) -> Self {
        self.raw(key, if value { "true" } else { "false" })
    }

    pub fn finish(mut self) -> String {
        if self.out.is_empty() {
            self.out.push('{');
        }
        self.out.push('}');
        self.out
    }
}

/// A parsed JSON value borrowing from its input. Strings are kept as
/// the raw text between the quotes (escapes untouched): the checker only
/// compares keys and short ASCII tags, never labels.
#[derive(Debug, Clone, PartialEq)]
pub enum Val<'a> {
    Null,
    Bool(bool),
    Num(f64),
    Str(&'a str),
    Arr(Vec<Val<'a>>),
    Obj(Vec<(&'a str, Val<'a>)>),
}

impl<'a> Val<'a> {
    pub fn get(&self, key: &str) -> Option<&Val<'a>> {
        match self {
            Val::Obj(fields) => fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Val<'a>]> {
        match self {
            Val::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&'a str> {
        match self {
            Val::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Val::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parses one JSON document; `None` on any syntax error or trailing text.
pub fn parse(input: &str) -> Option<Val<'_>> {
    let mut p = Parser { src: input, pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    (p.pos == input.len()).then_some(v)
}

/// Nesting deeper than this is rejected rather than recursed into.
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Option<()> {
        self.skip_ws();
        (self.peek() == Some(byte)).then(|| self.pos += 1)
    }

    fn literal(&mut self, text: &str, v: Val<'a>) -> Option<Val<'a>> {
        self.src[self.pos..].starts_with(text).then(|| {
            self.pos += text.len();
            v
        })
    }

    fn string(&mut self) -> Option<&'a str> {
        self.eat(b'"')?;
        let start = self.pos;
        loop {
            match self.peek()? {
                b'"' => break,
                b'\\' => self.pos += 2,
                _ => self.pos += 1,
            }
        }
        let s = self.src.get(start..self.pos)?;
        self.pos += 1;
        Some(s)
    }

    fn value(&mut self, depth: usize) -> Option<Val<'a>> {
        if depth > MAX_DEPTH {
            return None;
        }
        self.skip_ws();
        match self.peek()? {
            b'n' => self.literal("null", Val::Null),
            b't' => self.literal("true", Val::Bool(true)),
            b'f' => self.literal("false", Val::Bool(false)),
            b'"' => self.string().map(Val::Str),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.eat(b']').is_some() {
                    return Some(Val::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    if self.eat(b',').is_none() {
                        self.eat(b']')?;
                        return Some(Val::Arr(items));
                    }
                }
            }
            b'{' => {
                self.pos += 1;
                let mut fields = Vec::new();
                if self.eat(b'}').is_some() {
                    return Some(Val::Obj(fields));
                }
                loop {
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value(depth + 1)?));
                    if self.eat(b',').is_none() {
                        self.eat(b'}')?;
                        return Some(Val::Obj(fields));
                    }
                }
            }
            _ => {
                let start = self.pos;
                while matches!(
                    self.peek(),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.pos += 1;
                }
                let text = &self.src[start..self.pos];
                // The server prints a poisoned score as `NaN`/`inf`; that is
                // a checker failure, surfaced as a non-finite number.
                for (word, v) in [("NaN", f64::NAN), ("inf", f64::INFINITY)] {
                    if matches!(text, "" | "-") && self.src[self.pos..].starts_with(word) {
                        self.pos += word.len();
                        return Some(Val::Num(if text == "-" { -v } else { v }));
                    }
                }
                text.parse().ok().map(Val::Num)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_escapes_and_orders_fields() {
        let inner = Object::new().num("value", 1.25).str("unit", "ms").finish();
        let doc = Object::new()
            .bool("correct", true)
            .int("attempted", 3)
            .str("note", "a \"quoted\"\\ line\n\ttab \u{1}")
            .raw("metrics", &Object::new().raw("latency_ms", &inner).finish())
            .raw("list", &array([num(1.0), num(f64::NAN), string("x")]))
            .finish();
        assert_eq!(
            doc,
            "{\"correct\":true,\"attempted\":3,\
             \"note\":\"a \\\"quoted\\\"\\\\ line\\n\\ttab \\u0001\",\
             \"metrics\":{\"latency_ms\":{\"value\":1.25,\"unit\":\"ms\"}},\
             \"list\":[1,null,\"x\"]}"
        );
        assert_eq!(Object::new().finish(), "{}");
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        for v in [0.1 + 0.2, 1.0 / 3.0, 123456.789012345, 2.5e-7] {
            assert_eq!(num(v).parse::<f64>().unwrap(), v);
        }
    }

    #[test]
    fn writer_output_round_trips_through_the_reader() {
        let doc = Object::new()
            .str("rung", "full")
            .bool("degraded", false)
            .raw(
                "results",
                &array([Object::new()
                    .int("id", 7)
                    .str("label", "St. \"Quote\" [x],{y}")
                    .num("score", -0.5)
                    .finish()]),
            )
            .finish();
        let v = parse(&doc).expect("valid");
        assert_eq!(v.get("rung").and_then(Val::as_str), Some("full"));
        assert_eq!(v.get("degraded"), Some(&Val::Bool(false)));
        let first = &v.get("results").and_then(Val::as_arr).unwrap()[0];
        assert_eq!(first.get("id").and_then(Val::as_f64), Some(7.0));
        assert_eq!(first.get("score").and_then(Val::as_f64), Some(-0.5));
        assert_eq!(
            first.get("label").and_then(Val::as_str),
            Some("St. \\\"Quote\\\" [x],{y}")
        );
    }

    #[test]
    fn reader_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "[1] x",
            "\"open",
            "{a:1}",
        ] {
            assert!(parse(bad).is_none(), "{bad:?} parsed");
        }
        let deep = "[".repeat(64) + &"]".repeat(64);
        assert!(parse(&deep).is_none());
        assert_eq!(parse(" [ ] "), Some(Val::Arr(vec![])));
        assert_eq!(parse("{}"), Some(Val::Obj(vec![])));
    }

    #[test]
    fn reader_surfaces_non_finite_scores() {
        let v = parse("{\"score\":NaN,\"other\":-inf}").expect("parses");
        assert!(v.get("score").and_then(Val::as_f64).unwrap().is_nan());
        assert_eq!(
            v.get("other").and_then(Val::as_f64),
            Some(f64::NEG_INFINITY)
        );
    }
}
