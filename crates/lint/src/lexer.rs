//! A minimal Rust lexer — just enough syntax awareness for the item
//! parser: it distinguishes identifiers from the inside of string/char
//! literals and comments, so `"pub fn f()"` in a string never reads as
//! an item and `'a` lifetimes never parse as unterminated chars.
//!
//! The lexer is deliberately permissive: unterminated constructs are
//! consumed to end-of-file instead of erroring, because the linter must
//! keep checking the rest of the workspace even when one file is
//! mid-edit.

/// Lexical class of a [`Token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokenKind {
    /// Identifier or keyword (`unwrap`, `fn`, `Mutex`), including raw
    /// identifiers (`r#type`, stored without the `r#` prefix).
    Ident,
    /// Lifetime such as `'a` or `'static` (without a closing quote).
    Lifetime,
    /// Character literal, including byte chars (`'x'`, `b'\n'`).
    Char,
    /// Ordinary string literal, including byte/C strings (`"…"`, `b"…"`).
    Str,
    /// Raw string literal (`r"…"`, `r#"…"#`, `br#"…"#`).
    RawStr,
    /// Numeric literal (`42`, `1_000`, `0x1F`, `1.5e-3`).
    Number,
    /// Any single punctuation character (`.`, `!`, `(`, `{`, …).
    Punct,
    /// `// …` comment (doc comments included), text without the newline.
    LineComment,
    /// `/* … */` comment, possibly nested.
    BlockComment,
}

/// One lexed token with its raw source text and 1-based start line.
#[derive(Debug, Clone)]
pub(crate) struct Token {
    /// Lexical class.
    pub(crate) kind: TokenKind,
    /// Raw source slice (quotes/comment markers included).
    pub(crate) text: String,
    /// 1-based line where the token starts.
    pub(crate) line: u32,
}

impl Token {
    /// True for both comment kinds.
    pub(crate) fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    /// Consumes while `pred` holds, appending to `buf`.
    fn take_while(&mut self, buf: &mut String, pred: impl Fn(char) -> bool) {
        while let Some(c) = self.peek(0) {
            if !pred(c) {
                break;
            }
            buf.push(c);
            self.bump();
        }
    }

    /// Consumes a double-quoted body (opening quote already consumed into
    /// `buf`), honoring backslash escapes; stops after the closing quote.
    fn quoted_body(&mut self, buf: &mut String) {
        while let Some(c) = self.bump() {
            buf.push(c);
            match c {
                '\\' => {
                    if let Some(esc) = self.bump() {
                        buf.push(esc);
                    }
                }
                '"' => return,
                _ => {}
            }
        }
    }

    /// Consumes a raw-string body: `buf` holds the prefix up to and
    /// including the opening quote; `hashes` is the `#` count.
    fn raw_body(&mut self, buf: &mut String, hashes: usize) {
        while let Some(c) = self.bump() {
            buf.push(c);
            if c == '"' {
                let mut matched = 0;
                while matched < hashes && self.peek(0) == Some('#') {
                    buf.push('#');
                    self.bump();
                    matched += 1;
                }
                if matched == hashes {
                    return;
                }
            }
        }
    }

    /// Consumes a char-literal body (opening `'` already in `buf`).
    fn char_body(&mut self, buf: &mut String) {
        while let Some(c) = self.bump() {
            buf.push(c);
            match c {
                '\\' => {
                    if let Some(esc) = self.bump() {
                        buf.push(esc);
                    }
                }
                '\'' => return,
                _ => {}
            }
        }
    }
}

/// Lexes `src` into tokens. Never fails: malformed trailing constructs are
/// consumed to end-of-file.
pub(crate) fn lex(src: &str) -> Vec<Token> {
    let mut lx = Lexer { chars: src.chars().collect(), pos: 0, line: 1 };
    let mut out = Vec::new();
    while let Some(c) = lx.peek(0) {
        let line = lx.line;
        if c.is_whitespace() {
            lx.bump();
            continue;
        }
        let mut text = String::new();
        // comments
        if c == '/' && lx.peek(1) == Some('/') {
            lx.take_while(&mut text, |c| c != '\n');
            out.push(Token { kind: TokenKind::LineComment, text, line });
            continue;
        }
        if c == '/' && lx.peek(1) == Some('*') {
            text.push('/');
            text.push('*');
            lx.bump();
            lx.bump();
            let mut depth = 1usize;
            while depth > 0 {
                match lx.bump() {
                    Some('*') if lx.peek(0) == Some('/') => {
                        text.push_str("*/");
                        lx.bump();
                        depth -= 1;
                    }
                    Some('/') if lx.peek(0) == Some('*') => {
                        text.push_str("/*");
                        lx.bump();
                        depth += 1;
                    }
                    Some(other) => text.push(other),
                    None => break,
                }
            }
            out.push(Token { kind: TokenKind::BlockComment, text, line });
            continue;
        }
        // raw strings / raw idents / byte strings, before plain idents
        if c == 'r' || c == 'b' || c == 'c' {
            if let Some(kind) = lex_string_prefix(&mut lx, &mut text) {
                out.push(Token { kind, text, line });
                continue;
            }
        }
        if is_ident_start(c) {
            lx.take_while(&mut text, is_ident_continue);
            out.push(Token { kind: TokenKind::Ident, text, line });
            continue;
        }
        if c.is_ascii_digit() {
            lx.take_while(&mut text, |c| c.is_alphanumeric() || c == '_');
            if lx.peek(0) == Some('.') && lx.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                text.push('.');
                lx.bump();
                lx.take_while(&mut text, |c| c.is_alphanumeric() || c == '_');
            }
            if text.ends_with(['e', 'E'])
                && lx.peek(0).is_some_and(|s| s == '+' || s == '-')
                && lx.peek(1).is_some_and(|d| d.is_ascii_digit())
            {
                while let Some(d) = lx.peek(0) {
                    if !(d.is_alphanumeric() || d == '_' || d == '+' || d == '-') {
                        break;
                    }
                    text.push(d);
                    lx.bump();
                }
            }
            out.push(Token { kind: TokenKind::Number, text, line });
            continue;
        }
        if c == '"' {
            text.push('"');
            lx.bump();
            lx.quoted_body(&mut text);
            out.push(Token { kind: TokenKind::Str, text, line });
            continue;
        }
        if c == '\'' {
            // lifetime vs char literal
            let next = lx.peek(1);
            let after = lx.peek(2);
            let is_char = match next {
                Some('\\') => true,
                Some(n) if is_ident_start(n) => after == Some('\''),
                Some(_) => true, // '(' , '.' etc. can only be char literals
                None => false,
            };
            text.push('\'');
            lx.bump();
            if is_char {
                lx.char_body(&mut text);
                out.push(Token { kind: TokenKind::Char, text, line });
            } else {
                lx.take_while(&mut text, is_ident_continue);
                out.push(Token { kind: TokenKind::Lifetime, text, line });
            }
            continue;
        }
        lx.bump();
        text.push(c);
        out.push(Token { kind: TokenKind::Punct, text, line });
    }
    out
}

/// Handles tokens starting with `r`/`b`/`c` that are actually string or
/// char literals or raw identifiers. Returns the token kind when it
/// consumed a literal into `text` (raw identifiers come back as
/// [`TokenKind::Ident`] with the `r#` prefix stripped), `None` when the
/// caller should lex a plain identifier instead.
fn lex_string_prefix(lx: &mut Lexer, text: &mut String) -> Option<TokenKind> {
    let c0 = lx.peek(0)?;
    let (prefix_len, raw) = match (c0, lx.peek(1)) {
        ('b', Some('r')) | ('c', Some('r')) => (2, true),
        ('r', _) => (1, true),
        ('b', _) | ('c', _) => (1, false),
        _ => return None,
    };
    let mut idx = prefix_len;
    let mut hashes = 0usize;
    if raw {
        while lx.peek(idx) == Some('#') {
            hashes += 1;
            idx += 1;
        }
    }
    match lx.peek(idx) {
        Some('"') => {
            for _ in 0..=idx {
                if let Some(c) = lx.bump() {
                    text.push(c);
                }
            }
            if raw {
                lx.raw_body(text, hashes);
                Some(TokenKind::RawStr)
            } else {
                lx.quoted_body(text);
                Some(TokenKind::Str)
            }
        }
        Some('\'') if !raw && c0 == 'b' => {
            text.push('b');
            text.push('\'');
            lx.bump();
            lx.bump();
            lx.char_body(text);
            Some(TokenKind::Char)
        }
        _ => {
            if raw && hashes > 0 && lx.peek(idx).is_some_and(is_ident_start) {
                // raw identifier r#type: consume the prefix, then report
                // the ident without it
                for _ in 0..idx {
                    lx.bump();
                }
                lx.take_while(text, is_ident_continue);
                Some(TokenKind::Ident)
            } else {
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_punct() {
        let ks = kinds("x.unwrap()");
        assert_eq!(ks[0], (TokenKind::Ident, "x".into()));
        assert_eq!(ks[1], (TokenKind::Punct, ".".into()));
        assert_eq!(ks[2], (TokenKind::Ident, "unwrap".into()));
        assert_eq!(ks[3], (TokenKind::Punct, "(".into()));
    }

    #[test]
    fn escaped_quote_stays_inside_the_string() {
        let ts = lex(r#"let s = "a\"b\n"; x"#);
        let s = ts.iter().find(|t| t.kind == TokenKind::Str).expect("str token");
        assert_eq!(s.text, r#""a\"b\n""#);
        assert_eq!(ts.last().map(|t| t.text.as_str()), Some("x"));
    }

    #[test]
    fn raw_string_with_hashes() {
        let ts = lex(r###"let s = r#"contains "quotes" and unwrap()"#;"###);
        let s = ts.iter().find(|t| t.kind == TokenKind::RawStr).expect("raw str");
        assert_eq!(s.text, r###"r#"contains "quotes" and unwrap()"#"###);
        // no ident token named unwrap leaks out of the literal
        assert!(!ts.iter().any(|t| t.kind == TokenKind::Ident && t.text == "unwrap"));
    }

    #[test]
    fn lifetime_vs_char() {
        let ts = lex("fn f<'a>(x: &'a str) { let c = 'x'; let e = '\\n'; }");
        let lifetimes: Vec<_> = ts.iter().filter(|t| t.kind == TokenKind::Lifetime).collect();
        assert_eq!(lifetimes.len(), 2);
        assert!(lifetimes.iter().all(|t| t.text == "'a"));
        let chars: Vec<_> = ts.iter().filter(|t| t.kind == TokenKind::Char).collect();
        assert_eq!(chars.len(), 2);
    }

    #[test]
    fn nested_block_comments() {
        let ts = lex("/* outer /* inner */ still comment */ ident");
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].kind, TokenKind::BlockComment);
        assert_eq!(ts[1].text, "ident");
    }

    #[test]
    fn line_numbers_track_newlines() {
        let ts = lex("a\nb\n\nc");
        let lines: Vec<u32> = ts.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn unterminated_string_consumes_to_eof() {
        let ts = lex("let s = \"never closed");
        assert_eq!(ts.last().map(|t| t.kind), Some(TokenKind::Str));
    }
}
