//! The file model both rules read from: a lexed source file with its
//! `#[cfg(test)]` / `#[test]` regions resolved, and the diagnostic type
//! every rule reports.

use crate::lexer::{lex, Token, TokenKind};

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (`L005` or `L006`).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

/// True for library code; binary, bench, integration-test and example
/// code (`main.rs`, `bin/`, `benches/`, `tests/`, `examples/`) has no
/// library surface.
pub(crate) fn is_library(path: &str) -> bool {
    let normalized = path.replace('\\', "/");
    !(normalized.ends_with("/main.rs")
        || normalized == "main.rs"
        || normalized.split('/').any(|dir| matches!(dir, "bin" | "benches" | "tests" | "examples")))
}

/// A lexed source file with its test regions resolved.
pub(crate) struct SourceFile {
    tokens: Vec<Token>,
    /// Token-index ranges (inclusive) covering `#[cfg(test)]` / `#[test]`
    /// items.
    test_ranges: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Lexes one file and finds its test regions.
    pub(crate) fn parse(src: &str) -> Self {
        let tokens = lex(src);
        let test_ranges = find_test_ranges(&tokens);
        SourceFile { tokens, test_ranges }
    }

    /// True when the token at `idx` sits inside a `#[cfg(test)]` /
    /// `#[test]` item.
    pub(crate) fn in_test(&self, idx: usize) -> bool {
        self.test_ranges.iter().any(|&(a, b)| idx >= a && idx <= b)
    }

    /// The file's token stream, comments included.
    pub(crate) fn tokens(&self) -> &[Token] {
        &self.tokens
    }
}

/// Finds token-index ranges covered by `#[cfg(test)]` / `#[test]`
/// annotated items (the whole following item, brace-matched).
fn find_test_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let sig: Vec<usize> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_comment())
        .map(|(i, _)| i)
        .collect();
    let mut ranges = Vec::new();
    let mut s = 0usize;
    while s < sig.len() {
        let i = sig[s];
        if tokens[i].text != "#" || sig.get(s + 1).map(|&j| tokens[j].text.as_str()) != Some("[") {
            s += 1;
            continue;
        }
        // collect the attribute's tokens to the matching ]
        let mut depth = 0i32;
        let mut e = s + 1;
        let mut attr_idents: Vec<&str> = Vec::new();
        while e < sig.len() {
            let t = &tokens[sig[e]];
            match t.text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {
                    if t.kind == TokenKind::Ident {
                        attr_idents.push(&t.text);
                    }
                }
            }
            e += 1;
        }
        let is_test_attr = attr_idents.contains(&"test") && !attr_idents.contains(&"not");
        if !is_test_attr {
            s = e + 1;
            continue;
        }
        // skip any further attributes, then span the item
        let mut p = e + 1;
        while p + 1 < sig.len()
            && tokens[sig[p]].text == "#"
            && tokens[sig[p + 1]].text == "["
        {
            let mut d = 0i32;
            let mut q = p + 1;
            while q < sig.len() {
                match tokens[sig[q]].text.as_str() {
                    "[" => d += 1,
                    "]" => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                q += 1;
            }
            p = q + 1;
        }
        // find the item body: first `{` at depth 0 (or a terminating `;`)
        let mut brace = 0i32;
        let mut q = p;
        let mut end = None;
        while q < sig.len() {
            match tokens[sig[q]].text.as_str() {
                "{" => {
                    brace += 1;
                }
                "}" => {
                    brace -= 1;
                    if brace == 0 {
                        end = Some(q);
                        break;
                    }
                }
                ";" if brace == 0 => {
                    end = Some(q);
                    break;
                }
                _ => {}
            }
            q += 1;
        }
        match end {
            Some(endq) => {
                ranges.push((i, sig[endq]));
                s = endq + 1;
            }
            None => {
                // unterminated item: everything to EOF is test code
                ranges.push((i, tokens.len().saturating_sub(1)));
                break;
            }
        }
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binaries_tests_and_examples_are_not_library_code() {
        assert!(is_library("crates/x/src/lib.rs"));
        assert!(is_library("crates/x/src/nested/topk.rs"));
        assert!(!is_library("crates/x/src/main.rs"));
        assert!(!is_library("src/bin/cli.rs"));
        assert!(!is_library("crates/x/tests/it.rs"));
    }

    #[test]
    fn test_items_are_ranged_and_cfg_not_test_is_not() {
        let src = "#[cfg(not(test))]\nfn live() {}\n#[cfg(test)]\nmod tests { fn t() {} }\nfn after() {}\n";
        let sf = SourceFile::parse(src);
        let at = |name: &str| sf.tokens().iter().position(|t| t.text == name).map(|i| sf.in_test(i));
        assert_eq!(at("live"), Some(false));
        assert_eq!(at("t"), Some(true));
        assert_eq!(at("after"), Some(false));
    }
}
