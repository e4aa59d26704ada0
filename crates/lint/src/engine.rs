//! The lint engine: file model (test regions, directives) and the three
//! per-file passes.
//!
//! | rule | invariant |
//! |------|-----------|
//! | L003 | metric & span names come from `emblookup_obs::names`, never string literals |
//! | L004 | task-marker comments carry an issue reference (`#123` or a URL) |
//! | L007 | float discipline: no `==`/`!=` against float operands, no panicking or inconsistent `partial_cmp` comparators (use `total_cmp`) |
//!
//! The workspace-level rules L005 (crate layering) and L006 (public-API
//! drift against `API.lock`) live in [`crate::workspace`]; their allow
//! directives share this file's machinery. What the compiler and clippy
//! check (panics, `unsafe`, atomics, hash-order iteration) is configured
//! in the workspace `Cargo.toml` and `clippy.toml`, not here.
//!
//! A site is exempted with `// lint: allow(Lxxx) reason`, which covers the
//! directive's own line and the next source line. The reason is mandatory:
//! a directive without one suppresses nothing.

use crate::lexer::{lex, Token, TokenKind};
use std::collections::{BTreeMap, HashSet};

/// All enforceable rules, in catalog order. L005 (layering) and L006
/// (API drift) are workspace-level passes run by [`crate::workspace`];
/// the rest are per-file passes on [`SourceFile`].
pub const RULES: &[&str] = &["L003", "L004", "L005", "L006", "L007"];

/// One `// lint: allow(Lxxx) reason` directive. It suppresses `rule` on
/// its own line and the next source line; the stale-allow audit reports
/// directives that never matched a diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowDecl {
    /// Rule id the directive suppresses.
    pub rule: String,
    /// 1-based line of the directive comment.
    pub line: u32,
}

impl AllowDecl {
    /// True when this directive covers `rule` at `line`.
    pub fn covers(&self, rule: &str, line: u32) -> bool {
        self.rule == rule && (line == self.line || line == self.line + 1)
    }
}

/// One diagnostic produced by a lint pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (`L003`…`L007`).
    pub rule: String,
    /// Human-readable description.
    pub message: String,
    /// For L003 literals that match a registered name: the `names::`
    /// constant to use instead.
    pub suggestion: Option<String>,
}

/// How a file participates in linting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library code: all rules apply.
    Lib,
    /// Binary, bench, integration-test and example code (`main.rs`,
    /// `bin/`, `benches/`, `tests/`, `examples/`): float discipline and
    /// the API snapshot skip it, name and task-marker hygiene still
    /// apply.
    Bin,
}

/// Classifies a workspace-relative path.
pub fn classify(path: &str) -> FileClass {
    let normalized = path.replace('\\', "/");
    if normalized.ends_with("/main.rs")
        || normalized == "main.rs"
        || normalized.split('/').any(|dir| matches!(dir, "bin" | "benches" | "tests" | "examples"))
    {
        FileClass::Bin
    } else {
        FileClass::Lib
    }
}

/// The metric-name registry the L003 pass checks against:
/// `value → constant identifier`.
pub type NameRegistry = BTreeMap<String, String>;

/// Builds the registry from `emblookup_obs::names::ALL`.
pub fn obs_name_registry() -> NameRegistry {
    emblookup_obs::names::ALL
        .iter()
        .map(|&(ident, value)| (value.to_string(), ident.to_string()))
        .collect()
}

/// A lexed source file with test regions and lint directives resolved.
pub struct SourceFile {
    /// Workspace-relative display path.
    pub path: String,
    /// Library or binary code.
    pub class: FileClass,
    tokens: Vec<Token>,
    /// Token-index ranges (inclusive) covering `#[cfg(test)]` / `#[test]`
    /// items.
    test_ranges: Vec<(usize, usize)>,
    /// Allow directives in declaration order.
    allows: Vec<AllowDecl>,
}

impl SourceFile {
    /// Lexes and analyzes one file.
    pub fn parse(path: &str, src: &str) -> Self {
        let tokens = lex(src);
        let test_ranges = find_test_ranges(&tokens);
        let mut allows: Vec<AllowDecl> = Vec::new();
        for t in tokens.iter().filter(|t| t.kind == TokenKind::LineComment) {
            let body = t.text.trim_start_matches('/').trim_start_matches('!').trim();
            let directive = body.strip_prefix("lint:").map(str::trim);
            let Some((ids, reason)) =
                directive.and_then(|d| d.strip_prefix("allow(")).and_then(|r| r.split_once(')'))
            else {
                continue;
            };
            if reason.trim().is_empty() {
                continue;
            }
            // any id is recorded: one that names no rule never matches a
            // diagnostic, so the stale-allow audit reports it
            for id in ids.split(',') {
                allows.push(AllowDecl { rule: id.trim().to_string(), line: t.line });
            }
        }
        SourceFile {
            path: path.to_string(),
            class: classify(path),
            tokens,
            test_ranges,
            allows,
        }
    }

    /// True when the token at `idx` sits inside a `#[cfg(test)]` /
    /// `#[test]` item.
    pub(crate) fn in_test(&self, idx: usize) -> bool {
        self.test_ranges.iter().any(|&(a, b)| idx >= a && idx <= b)
    }

    /// The file's token stream (comments included) — shared with the
    /// item parser and the workspace passes.
    pub(crate) fn tokens(&self) -> &[Token] {
        &self.tokens
    }

    /// True when rule `rule` is suppressed on `line` by an allow
    /// directive. The workspace-level passes consult this before
    /// reporting.
    pub(crate) fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allows.iter().any(|d| d.covers(rule, line))
    }

    /// The file's allow directives, in declaration order — the raw
    /// material of the central suppression pass and the stale-allow
    /// audit.
    pub(crate) fn allow_decls(&self) -> &[AllowDecl] {
        &self.allows
    }

    /// Previous non-comment token before `idx`.
    fn prev_sig(&self, idx: usize) -> Option<&Token> {
        self.tokens[..idx].iter().rev().find(|t| !t.is_comment())
    }

    /// Next non-comment token after `idx` (with offset: 1 = immediately
    /// following significant token).
    fn next_sig(&self, idx: usize, nth: usize) -> Option<&Token> {
        self.tokens[idx + 1..]
            .iter()
            .filter(|t| !t.is_comment())
            .nth(nth - 1)
    }

    /// Runs every pass over this file and applies the file's allow
    /// directives — the fixture-test entry point. The workspace driver
    /// uses [`SourceFile::check_raw`] instead and suppresses centrally
    /// so allow usage can be audited.
    pub fn check(&self, registry: &NameRegistry) -> Vec<Violation> {
        self.check_raw(registry)
            .into_iter()
            .filter(|v| !self.allowed(&v.rule, v.line))
            .collect()
    }

    /// Runs every per-file pass without applying allow directives.
    pub fn check_raw(&self, registry: &NameRegistry) -> Vec<Violation> {
        let mut out = Vec::new();
        self.check_l003(registry, &mut out);
        self.check_l004(&mut out);
        self.check_l007(&mut out);
        out.sort_by(|a, b| a.line.cmp(&b.line).then_with(|| a.rule.cmp(&b.rule)));
        out
    }

    fn push(
        &self,
        out: &mut Vec<Violation>,
        rule: &str,
        line: u32,
        message: String,
        suggestion: Option<String>,
    ) {
        out.push(Violation {
            file: self.path.clone(),
            line,
            rule: rule.to_string(),
            message,
            suggestion,
        });
    }

    fn check_l003(&self, registry: &NameRegistry, out: &mut Vec<Violation>) {
        // the obs crate defines the registry and its exporters; literals
        // there are the single source of truth
        if self.path.replace('\\', "/").contains("crates/obs/") {
            return;
        }
        // token indices of string literals that sit in a metric-name
        // position (argument region of counter/gauge/histogram/
        // Span::enter/Span::enter_in/static_counter!, and the trace-span
        // creators Trace::root/TraceSpan::child/child_deferred)
        let mut position_hits: HashSet<usize> = HashSet::new();
        for (i, t) in self.tokens.iter().enumerate() {
            if t.kind != TokenKind::Ident || self.in_test(i) {
                continue;
            }
            let is_method = matches!(
                t.text.as_str(),
                "counter" | "gauge" | "histogram" | "root" | "child" | "child_deferred"
            ) && self.prev_sig(i).is_some_and(|p| p.text == ".");
            let is_span = matches!(t.text.as_str(), "enter" | "enter_in")
                && self.prev_sig(i).is_some_and(|p| p.text == ":");
            let is_macro = t.text == "static_counter"
                && self.next_sig(i, 1).is_some_and(|n| n.text == "!");
            if !(is_method || is_span || is_macro) {
                continue;
            }
            // find the opening paren, then collect Str tokens to its close
            let mut j = i + 1;
            while j < self.tokens.len() {
                let tok = &self.tokens[j];
                if tok.is_comment() || tok.text == "!" {
                    j += 1;
                    continue;
                }
                break;
            }
            if self.tokens.get(j).map(|t| t.text.as_str()) != Some("(") {
                continue;
            }
            let mut depth = 0i32;
            for (k, tok) in self.tokens.iter().enumerate().skip(j) {
                match (tok.kind, tok.text.as_str()) {
                    (TokenKind::Punct, "(") => depth += 1,
                    (TokenKind::Punct, ")") => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    (TokenKind::Str | TokenKind::RawStr, _) => {
                        position_hits.insert(k);
                    }
                    _ => {}
                }
            }
        }
        for (i, t) in self.tokens.iter().enumerate() {
            if !matches!(t.kind, TokenKind::Str | TokenKind::RawStr) || self.in_test(i) {
                continue;
            }
            let Some(value) = t.str_value() else { continue };
            if let Some(ident) = registry.get(&value) {
                self.push(
                    out,
                    "L003",
                    t.line,
                    format!("metric name literal \"{value}\"; use emblookup_obs::names::{ident}"),
                    Some(ident.clone()),
                );
            } else if position_hits.contains(&i) {
                self.push(
                    out,
                    "L003",
                    t.line,
                    format!(
                        "unregistered metric/span name literal \"{value}\"; declare it in emblookup_obs::names and use the constant"
                    ),
                    None,
                );
            }
        }
    }

    /// L007 — float discipline. Three NaN hazards, all lexical
    /// heuristics (no type inference):
    ///
    /// 1. `==` / `!=` where an operand is visibly a float (float
    ///    literal, `NAN`/`INFINITY` constant, or an `as f32`/`as f64`
    ///    cast). NaN makes float equality partial; top-k ordering built
    ///    on it silently corrupts.
    /// 2. `.partial_cmp(…)` chained into `.unwrap()` / `.expect(…)` —
    ///    panics the first time a NaN distance appears.
    /// 3. Any `.partial_cmp(…)` inside a comparator passed to
    ///    `sort_by` / `sort_unstable_by` / `max_by` / `min_by` /
    ///    `binary_search_by` — `unwrap_or(Equal)` and friends return
    ///    inconsistent orderings on NaN (modern `sort_by` may even
    ///    panic on a non-total order). `f32::total_cmp` is the fix.
    fn check_l007(&self, out: &mut Vec<Violation>) {
        if self.class != FileClass::Lib {
            return;
        }
        let sig: Vec<usize> = (0..self.tokens.len())
            .filter(|&i| !self.tokens[i].is_comment())
            .collect();
        let tok = |s: usize| sig.get(s).map(|&j| &self.tokens[j]);
        let txt = |s: usize| tok(s).map(|t| t.text.as_str()).unwrap_or("");

        let float_literal = |t: &Token| match t.kind {
            TokenKind::Number => {
                let s = &t.text;
                s.contains('.')
                    || s.ends_with("f32")
                    || s.ends_with("f64")
                    || (!s.starts_with("0x")
                        && !s.starts_with("0X")
                        && !s.starts_with("0b")
                        && !s.starts_with("0o")
                        && s.contains(['e', 'E']))
            }
            TokenKind::Ident => matches!(t.text.as_str(), "NAN" | "INFINITY" | "NEG_INFINITY"),
            _ => false,
        };

        // 1. float equality
        for s in 0..sig.len() {
            let (op, lhs, rhs) = if txt(s) == "=" && txt(s + 1) == "=" && txt(s + 2) != "=" {
                ("==", s.checked_sub(1), s + 2)
            } else if txt(s) == "!" && txt(s + 1) == "=" {
                ("!=", s.checked_sub(1), s + 2)
            } else {
                continue;
            };
            let Some(op_tok) = tok(s) else { continue };
            if sig.get(s).is_some_and(|&j| self.in_test(j)) {
                continue;
            }
            let lhs_float = lhs.is_some_and(|l| {
                tok(l).is_some_and(&float_literal)
                    || (matches!(txt(l), "f32" | "f64") && l >= 1 && txt(l - 1) == "as")
            });
            let rhs_float = tok(rhs).is_some_and(&float_literal);
            if lhs_float || rhs_float {
                self.push(
                    out,
                    "L007",
                    op_tok.line,
                    format!(
                        "float `{op}` comparison is NaN-hazardous; compare with a tolerance, \
                         use total_cmp, or add `// lint: allow(L007) reason`"
                    ),
                    None,
                );
            }
        }

        // comparator argument regions (significant-index ranges) of the
        // NaN-sensitive order-taking methods, for passes 2 and 3
        let order_takers =
            ["sort_by", "sort_unstable_by", "max_by", "min_by", "binary_search_by"];
        let mut comparator_sites: Vec<(usize, &str)> = Vec::new(); // (sig idx of partial_cmp, method)
        let mut in_comparator: HashSet<usize> = HashSet::new();
        for s in 0..sig.len() {
            let Some(t) = tok(s) else { continue };
            if t.kind != TokenKind::Ident
                || !order_takers.contains(&t.text.as_str())
                || txt(s.wrapping_sub(1)) != "."
                || txt(s + 1) != "("
            {
                continue;
            }
            let method = t.text.as_str();
            let mut depth = 0i32;
            let mut k = s + 1;
            while k < sig.len() {
                match txt(k) {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    "partial_cmp" if txt(k - 1) == "." => {
                        comparator_sites.push((k, method));
                        in_comparator.insert(k);
                    }
                    _ => {}
                }
                k += 1;
            }
        }

        // 2. panicking partial_cmp chains (outside comparator regions,
        //    which pass 3 reports with the sharper message)
        for s in 0..sig.len() {
            let Some(t) = tok(s) else { continue };
            if t.kind != TokenKind::Ident
                || t.text != "partial_cmp"
                || txt(s.wrapping_sub(1)) != "."
                || txt(s + 1) != "("
                || in_comparator.contains(&s)
                || self.in_test(sig[s])
            {
                continue;
            }
            let mut depth = 0i32;
            let mut k = s + 1;
            while k < sig.len() {
                match txt(k) {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            if txt(k + 1) == "." && matches!(txt(k + 2), "unwrap" | "expect") {
                self.push(
                    out,
                    "L007",
                    t.line,
                    format!(
                        "`.partial_cmp(..).{}()` panics on NaN; use f32::total_cmp / \
                         f64::total_cmp or handle None",
                        txt(k + 2)
                    ),
                    None,
                );
            }
        }

        // 3. partial_cmp-based comparators
        for (s, method) in comparator_sites {
            let Some(t) = tok(s) else { continue };
            if self.in_test(sig[s]) {
                continue;
            }
            self.push(
                out,
                "L007",
                t.line,
                format!(
                    "partial_cmp-based comparator passed to `{method}` can order \
                     inconsistently on NaN; use f32::total_cmp / f64::total_cmp"
                ),
                None,
            );
        }
    }

    fn check_l004(&self, out: &mut Vec<Violation>) {
        for t in &self.tokens {
            if !t.is_comment() {
                continue;
            }
            // uppercase markers only: `todo!` the macro is clippy's business
            let text = &t.text;
            let marker = ["TODO", "FIXME"].iter().find(|m| {
                text.match_indices(*m)
                    .any(|(pos, _)| {
                        let before_ok = pos == 0
                            || !text.as_bytes()[pos - 1].is_ascii_alphanumeric();
                        let end = pos + m.len();
                        let after_ok = end >= text.len()
                            || !text.as_bytes()[end].is_ascii_alphanumeric();
                        before_ok && after_ok
                    })
            });
            let Some(marker) = marker else { continue };
            let has_ref = t.text.contains("://")
                || t
                    .text
                    .char_indices()
                    .any(|(pos, c)| {
                        c == '#'
                            && t.text[pos + 1..]
                                .chars()
                                .next()
                                .is_some_and(|d| d.is_ascii_digit())
                    });
            if !has_ref {
                self.push(
                    out,
                    "L004",
                    t.line,
                    format!("{marker} without an issue reference (`#123` or a URL)"),
                    None,
                );
            }
        }
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

    fn check(path: &str, src: &str) -> Vec<Violation> {
        SourceFile::parse(path, src).check(&obs_name_registry())
    }

    #[test]
    fn cfg_test_module_is_exempt_from_l007() {
        let src = r#"
            pub fn lib() -> u32 { 1 }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { assert!(super::lib() as f32 == 1.0); }
            }
        "#;
        assert!(check("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_still_linted() {
        let src = r#"
            #[cfg(not(test))]
            pub fn lib(x: f32) -> bool { x == 0.5 }
        "#;
        let v = check("crates/x/src/lib.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "L007");
    }

    #[test]
    fn bin_files_skip_l007() {
        let src = "fn main() { assert!(std::env::args().count() as f32 != 0.5); }";
        assert!(check("src/bin/cli.rs", src).is_empty());
        assert!(check("crates/x/src/main.rs", src).is_empty());
    }

    #[test]
    fn allow_without_reason_suppresses_nothing() {
        let src = "pub fn f(x: f32) -> bool {\n    // lint: allow(L007)\n    x == 0.5\n}\n";
        let v = check("crates/x/src/lib.rs", src);
        assert_eq!(v.iter().map(|v| (v.rule.as_str(), v.line)).collect::<Vec<_>>(), [("L007", 3)]);
        let src = "pub fn f(x: f32) -> bool {\n    // lint: allow(L007) fixture reason\n    x == 0.5\n}\n";
        assert!(check("crates/x/src/lib.rs", src).is_empty());
    }
}
