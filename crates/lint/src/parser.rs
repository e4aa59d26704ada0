//! Item-level parsing on top of the [`crate::lexer`] token stream:
//! [`public_items`] is a normalized snapshot of a file's `pub` surface
//! (functions, structs with their public fields, enums with variants,
//! traits with their methods, trait impls, re-exports, exported macros),
//! the raw material of the L006 `API.lock` snapshot.
//!
//! The parser is a tolerant recursive descent over *significant* tokens
//! (comments skipped): it understands item structure, visibility,
//! generics and bodies well enough to recover signatures, and degrades
//! to balanced-delimiter skipping on anything it does not model (macro
//! invocations at item position, `extern` blocks, …). `#[cfg(test)]`
//! regions are excluded via the [`crate::source::SourceFile`] test map.

use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// One public item of a file, normalized for the `API.lock` snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ApiItem {
    /// Inline-module chain inside the file (`""` at the top level,
    /// `"detail::impls"` for nested inline mods).
    pub(crate) module: String,
    /// Normalized signature, e.g.
    /// `pub fn build(encoder: E, kg: &KnowledgeGraph) -> Self`.
    pub(crate) signature: String,
    /// 1-based line where the item starts.
    pub(crate) line: u32,
}

/// Tolerant item parser: cursor over significant-token indices.
struct Parser<'a> {
    sf: &'a SourceFile,
    /// Indices into `sf.tokens()` of non-comment tokens.
    sig: Vec<usize>,
    /// Cursor into `sig`.
    i: usize,
    out: Vec<ApiItem>,
}

/// Extracts the file's public items. `module` paths are the inline-mod
/// chain only; the caller prefixes the file-level module path.
pub(crate) fn public_items(sf: &SourceFile) -> Vec<ApiItem> {
    let toks = sf.tokens();
    let sig: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    let mut p = Parser { sf, sig, i: 0, out: Vec::new() };
    let mut mods = Vec::new();
    p.scope(&mut mods, false);
    p.out
}

/// Joins normalized signature fragments with Rust-ish spacing. Only
/// determinism matters for the lockfile; the rules below just keep the
/// output readable (`fn f(x: u32) -> Vec<T>`, `&'a str`).
fn join(parts: &[String]) -> String {
    let mut s = String::new();
    for (n, p) in parts.iter().enumerate() {
        if n > 0 {
            let prev = parts[n - 1].as_str();
            let glue = matches!(
                p.as_str(),
                ")" | "]" | "," | ";" | "?" | "." | "::" | ":" | "<" | ">" | "("
            ) || matches!(prev, "(" | "[" | "::" | "." | "#" | "!" | "&" | "<");
            if !glue {
                s.push(' ');
            }
        }
        s.push_str(p);
    }
    s
}

/// Merges adjacent punctuation into compound operators (`::`, `->`,
/// `=>`) so `join` can space them as units.
fn merge_ops(raw: Vec<String>) -> Vec<String> {
    let mut out: Vec<String> = Vec::with_capacity(raw.len());
    for t in raw {
        let merged = match (out.last().map(String::as_str), t.as_str()) {
            (Some(":"), ":") => Some("::"),
            (Some("-"), ">") => Some("->"),
            (Some("="), ">") => Some("=>"),
            _ => None,
        };
        match merged {
            Some(m) => {
                out.pop();
                out.push(m.to_string());
            }
            None => out.push(t),
        }
    }
    out
}

impl<'a> Parser<'a> {
    fn tok_idx(&self) -> Option<usize> {
        self.sig.get(self.i).copied()
    }

    fn text_at(&self, n: usize) -> &str {
        match self.sig.get(self.i + n) {
            Some(&j) => &self.sf.tokens()[j].text,
            None => "",
        }
    }

    fn text(&self) -> &str {
        self.text_at(0)
    }

    fn line(&self) -> u32 {
        match self.sig.get(self.i) {
            Some(&j) => self.sf.tokens()[j].line,
            None => 0,
        }
    }

    fn at_end(&self) -> bool {
        self.i >= self.sig.len()
    }

    fn bump(&mut self) {
        self.i += 1;
    }

    /// Consumes the current token into `buf` (if given) and advances.
    fn take(&mut self, buf: Option<&mut Vec<String>>) {
        if let Some(b) = buf {
            b.push(self.text().to_string());
        }
        self.bump();
    }

    /// Skips a balanced delimiter group starting at the current `open`
    /// token, collecting into `buf` when given.
    fn skip_balanced(&mut self, open: &str, close: &str, mut buf: Option<&mut Vec<String>>) {
        let mut depth = 0i32;
        while !self.at_end() {
            let t = self.text().to_string();
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
            }
            self.take(buf.as_deref_mut());
            if depth == 0 {
                return;
            }
        }
    }

    /// Skips `#[…]` attributes, returning the idents seen inside them.
    fn skip_attrs(&mut self) -> Vec<String> {
        let mut idents = Vec::new();
        while self.text() == "#" && (self.text_at(1) == "[" || self.text_at(1) == "!") {
            self.bump(); // '#'
            if self.text() == "!" {
                self.bump(); // inner attribute '#!['
            }
            if self.text() != "[" {
                break;
            }
            let mut depth = 0i32;
            while !self.at_end() {
                let t = self.text();
                if t == "[" {
                    depth += 1;
                } else if t == "]" {
                    depth -= 1;
                } else if let Some(&j) = self.sig.get(self.i) {
                    if self.sf.tokens()[j].kind == TokenKind::Ident {
                        idents.push(t.to_string());
                    }
                }
                self.bump();
                if depth == 0 {
                    break;
                }
            }
        }
        idents
    }

    /// Generic recovery: consume to a top-level `;` or past one balanced
    /// `{…}` block, whichever comes first.
    fn skip_item(&mut self) {
        let mut paren = 0i32;
        let mut bracket = 0i32;
        while !self.at_end() {
            match self.text() {
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "{" if paren <= 0 && bracket <= 0 => {
                    self.skip_balanced("{", "}", None);
                    return;
                }
                ";" if paren <= 0 && bracket <= 0 => {
                    self.bump();
                    return;
                }
                "}" if paren <= 0 && bracket <= 0 => return, // scope end: caller handles
                _ => {}
            }
            self.bump();
        }
    }

    fn record(&mut self, mods: &[String], signature: String, line: u32) {
        self.out.push(ApiItem { module: mods.join("::"), signature, line });
    }

    /// Parses items until EOF or (when `stop_at_brace`) the scope's
    /// closing `}` (left unconsumed).
    fn scope(&mut self, mods: &mut Vec<String>, stop_at_brace: bool) {
        while !self.at_end() {
            if self.text() == "}" && stop_at_brace {
                return;
            }
            let before = self.i;
            self.item(mods);
            if self.i == before {
                self.bump(); // never stall on unmodeled input
            }
        }
    }

    /// Collects signature fragments until a top-level `{` or `;`
    /// (unconsumed), tracking `()`/`[]` depth and generic `<>` depth
    /// (`->`-arrows do not close generics).
    fn sig_until_body(&mut self, buf: &mut Vec<String>) {
        let mut paren = 0i32;
        let mut bracket = 0i32;
        let mut angle = 0i32;
        while !self.at_end() {
            let t = self.text();
            match t {
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "<" => angle += 1,
                ">" if buf.last().map(String::as_str) != Some("-")
                    && buf.last().map(String::as_str) != Some("=") =>
                {
                    angle -= 1;
                }
                "{" | ";" if paren <= 0 && bracket <= 0 && angle <= 0 => return,
                "}" if paren <= 0 && bracket <= 0 => return, // malformed: bail at scope end
                _ => {}
            }
            self.take(Some(buf));
        }
    }

    /// One item at the current position.
    fn item(&mut self, mods: &mut Vec<String>) {
        let Some(start_idx) = self.tok_idx() else { return };
        let in_test = self.sf.in_test(start_idx);
        let attrs = self.skip_attrs();
        let exported_macro = attrs.iter().any(|a| a == "macro_export");

        // visibility: `pub` is public, `pub(crate)` and friends are not
        let mut is_pub = false;
        if self.text() == "pub" {
            if self.text_at(1) == "(" {
                self.bump();
                self.skip_balanced("(", ")", None);
            } else {
                is_pub = true;
                self.bump();
            }
        }

        // leading modifiers (`unsafe fn`, `const fn`, `extern "C" fn`,
        // `unsafe trait`, …) — collected into the signature
        let mut prefix: Vec<String> = Vec::new();
        loop {
            match self.text() {
                "unsafe" | "async" => self.take(Some(&mut prefix)),
                "const" if self.text_at(1) == "fn" => self.take(Some(&mut prefix)),
                "extern" if self.text_at(1).starts_with('"') => {
                    self.take(Some(&mut prefix));
                    self.take(Some(&mut prefix));
                }
                _ => break,
            }
        }

        match self.text() {
            "mod" => self.item_mod(mods, is_pub, in_test),
            "use" => {
                let line = self.line();
                let mut buf = Vec::new();
                while !self.at_end() && self.text() != ";" {
                    self.take(Some(&mut buf));
                }
                self.bump(); // ';'
                if is_pub && !in_test {
                    let sig = format!("pub {}", join(&merge_ops(buf)));
                    self.record(mods, sig, line);
                }
            }
            "fn" => self.item_fn(mods, is_pub, in_test, prefix, None),
            "struct" => self.item_struct(mods, is_pub, in_test),
            "enum" => self.item_enum(mods, is_pub, in_test),
            "trait" => self.item_trait(mods, is_pub, in_test, prefix),
            "impl" => self.item_impl(mods, in_test),
            "type" | "static" | "const" => self.item_terse(mods, is_pub, in_test),
            "macro_rules" if self.text_at(1) == "!" => {
                let line = self.line();
                self.bump(); // macro_rules
                self.bump(); // !
                let name = self.text().to_string();
                self.bump();
                match self.text() {
                    "{" => self.skip_balanced("{", "}", None),
                    "(" => self.skip_balanced("(", ")", None),
                    "[" => self.skip_balanced("[", "]", None),
                    _ => self.skip_item(),
                }
                if exported_macro && !in_test {
                    self.record(mods, format!("#[macro_export] macro_rules! {name}"), line);
                }
            }
            "extern" if self.text_at(1) == "crate" => self.skip_item(),
            _ => self.skip_item(),
        }
    }

    fn item_mod(&mut self, mods: &mut Vec<String>, is_pub: bool, in_test: bool) {
        let line = self.line();
        self.bump(); // 'mod'
        let name = self.text().to_string();
        self.bump();
        match self.text() {
            ";" => {
                self.bump();
                if is_pub && !in_test {
                    self.record(mods, format!("pub mod {name}"), line);
                }
            }
            "{" => {
                if is_pub && !in_test {
                    self.record(mods, format!("pub mod {name}"), line);
                    self.bump(); // '{'
                    mods.push(name);
                    self.scope(mods, true);
                    mods.pop();
                    if self.text() == "}" {
                        self.bump();
                    }
                } else {
                    // private / test mod: its items are not public API
                    self.skip_balanced("{", "}", None);
                }
            }
            _ => self.skip_item(),
        }
    }

    fn item_fn(
        &mut self,
        mods: &[String],
        is_pub: bool,
        in_test: bool,
        prefix: Vec<String>,
        ctx: Option<&str>,
    ) {
        let line = self.line();
        let mut buf = prefix;
        self.sig_until_body(&mut buf);
        match self.text() {
            "{" => self.skip_balanced("{", "}", None),
            ";" => self.bump(),
            _ => {}
        }
        if is_pub && !in_test {
            let sig = join(&merge_ops(buf));
            let sig = match ctx {
                Some(c) => format!("{c} :: pub {sig}"),
                None => format!("pub {sig}"),
            };
            self.record(mods, sig, line);
        }
    }

    fn item_struct(&mut self, mods: &[String], is_pub: bool, in_test: bool) {
        let line = self.line();
        let mut head = Vec::new();
        self.take(Some(&mut head)); // 'struct'
        let name = self.text().to_string();
        self.take(Some(&mut head)); // name
        if self.text() == "<" {
            self.skip_balanced_angle(&mut head);
        }
        // optional where clause before a braced/unit body
        while !self.at_end() && !matches!(self.text(), "{" | ";" | "(") {
            self.take(Some(&mut head));
        }
        match self.text() {
            ";" => {
                self.bump();
                if is_pub && !in_test {
                    self.record(mods, format!("pub {}", join(&merge_ops(head))), line);
                }
            }
            "(" => {
                // tuple struct: private field types are elided to `_`
                let fields = self.tuple_fields();
                while !self.at_end() && self.text() != ";" {
                    self.take(Some(&mut head)); // trailing where clause
                }
                self.bump(); // ';'
                if is_pub && !in_test {
                    let sig =
                        format!("pub {}({})", join(&merge_ops(head)), fields.join(", "));
                    self.record(mods, sig, line);
                }
            }
            "{" => {
                if is_pub && !in_test {
                    self.record(mods, format!("pub {}", join(&merge_ops(head))), line);
                }
                self.bump(); // '{'
                self.struct_fields(mods, &name, is_pub && !in_test);
                if self.text() == "}" {
                    self.bump();
                }
            }
            _ => self.skip_item(),
        }
    }

    /// Consumes a balanced `<…>` generic group into `buf`.
    fn skip_balanced_angle(&mut self, buf: &mut Vec<String>) {
        let mut depth = 0i32;
        let mut prev = String::new();
        while !self.at_end() {
            let t = self.text().to_string();
            if t == "<" {
                depth += 1;
            } else if t == ">" && prev != "-" && prev != "=" {
                depth -= 1;
            }
            self.take(Some(buf));
            if depth == 0 {
                return;
            }
            prev = t;
        }
    }

    /// Tuple-struct payload: `(pub A, B)` → `["pub A", "_"]`.
    fn tuple_fields(&mut self) -> Vec<String> {
        let mut fields = Vec::new();
        self.bump(); // '('
        loop {
            if self.at_end() || self.text() == ")" {
                self.bump();
                return fields;
            }
            self.skip_attrs();
            let mut vis = false;
            if self.text() == "pub" {
                if self.text_at(1) == "(" {
                    self.bump();
                    self.skip_balanced("(", ")", None);
                } else {
                    vis = true;
                    self.bump();
                }
            }
            // field type: up to `,` or `)` at depth 0
            let mut ty = Vec::new();
            let mut paren = 0i32;
            let mut bracket = 0i32;
            let mut angle = 0i32;
            while !self.at_end() {
                match self.text() {
                    "(" => paren += 1,
                    ")" if paren == 0 => break,
                    ")" => paren -= 1,
                    "[" => bracket += 1,
                    "]" => bracket -= 1,
                    "<" => angle += 1,
                    ">" if ty.last().map(String::as_str) != Some("-") => angle -= 1,
                    "," if paren <= 0 && bracket <= 0 && angle <= 0 => break,
                    _ => {}
                }
                self.take(Some(&mut ty));
            }
            fields.push(if vis {
                format!("pub {}", join(&merge_ops(ty)))
            } else {
                "_".to_string()
            });
            if self.text() == "," {
                self.bump();
            }
        }
    }

    /// Braced-struct body: records `pub` fields as `Name.field: Type`.
    fn struct_fields(&mut self, mods: &[String], name: &str, record: bool) {
        while !self.at_end() && self.text() != "}" {
            self.skip_attrs();
            let line = self.line();
            let mut vis = false;
            if self.text() == "pub" {
                if self.text_at(1) == "(" {
                    self.bump();
                    self.skip_balanced("(", ")", None);
                } else {
                    vis = true;
                    self.bump();
                }
            }
            let fname = self.text().to_string();
            self.bump();
            if self.text() != ":" {
                self.skip_item();
                continue;
            }
            self.bump(); // ':'
            let mut ty = Vec::new();
            let mut paren = 0i32;
            let mut bracket = 0i32;
            let mut angle = 0i32;
            while !self.at_end() {
                match self.text() {
                    "(" => paren += 1,
                    ")" => paren -= 1,
                    "[" => bracket += 1,
                    "]" => bracket -= 1,
                    "<" => angle += 1,
                    ">" if ty.last().map(String::as_str) != Some("-") => angle -= 1,
                    "," if paren <= 0 && bracket <= 0 && angle <= 0 => break,
                    "}" if paren <= 0 && bracket <= 0 && angle <= 0 => break,
                    _ => {}
                }
                self.take(Some(&mut ty));
            }
            if self.text() == "," {
                self.bump();
            }
            if vis && record {
                let sig = format!("pub {name}.{fname}: {}", join(&merge_ops(ty)));
                self.record(mods, sig, line);
            }
        }
    }

    fn item_enum(&mut self, mods: &[String], is_pub: bool, in_test: bool) {
        let line = self.line();
        let mut head = Vec::new();
        self.take(Some(&mut head)); // 'enum'
        let name = self.text().to_string();
        self.take(Some(&mut head));
        while !self.at_end() && self.text() != "{" && self.text() != ";" {
            if self.text() == "<" {
                self.skip_balanced_angle(&mut head);
            } else {
                self.take(Some(&mut head));
            }
        }
        let rec = is_pub && !in_test;
        if rec {
            self.record(mods, format!("pub {}", join(&merge_ops(head))), line);
        }
        if self.text() != "{" {
            self.skip_item();
            return;
        }
        self.bump(); // '{'
        while !self.at_end() && self.text() != "}" {
            self.skip_attrs();
            if self.text() == "}" {
                break;
            }
            let vline = self.line();
            // variant name + payload/discriminant up to `,` or `}` at depth 0
            let mut body = Vec::new();
            let mut paren = 0i32;
            let mut bracket = 0i32;
            let mut brace = 0i32;
            while !self.at_end() {
                match self.text() {
                    "(" => paren += 1,
                    ")" => paren -= 1,
                    "[" => bracket += 1,
                    "]" => bracket -= 1,
                    "{" => brace += 1,
                    "}" if brace > 0 => brace -= 1,
                    "}" => break,
                    "," if paren <= 0 && bracket <= 0 && brace <= 0 => break,
                    _ => {}
                }
                self.take(Some(&mut body));
            }
            if self.text() == "," {
                self.bump();
            }
            if rec && !body.is_empty() {
                let sig = format!("pub enum {name} :: {}", join(&merge_ops(body)));
                self.record(mods, sig, vline);
            }
        }
        if self.text() == "}" {
            self.bump();
        }
    }

    fn item_trait(
        &mut self,
        mods: &[String],
        is_pub: bool,
        in_test: bool,
        prefix: Vec<String>,
    ) {
        let line = self.line();
        let mut head = prefix;
        self.sig_until_body(&mut head);
        let header = join(&merge_ops(head.clone()));
        let rec = is_pub && !in_test;
        if rec {
            self.record(mods, format!("pub {header}"), line);
        }
        if self.text() != "{" {
            if self.text() == ";" {
                self.bump();
            }
            return;
        }
        // context label: `trait Name` (header minus bounds/where)
        let ctx = {
            let mut short = Vec::new();
            for t in &head {
                if t == ":" || t == "where" {
                    break;
                }
                short.push(t.clone());
            }
            join(&merge_ops(short))
        };
        self.bump(); // '{'
        while !self.at_end() && self.text() != "}" {
            self.skip_attrs();
            let iline = self.line();
            let mut pfx = Vec::new();
            loop {
                match self.text() {
                    "unsafe" | "async" => self.take(Some(&mut pfx)),
                    "const" if self.text_at(1) == "fn" => self.take(Some(&mut pfx)),
                    "extern" if self.text_at(1).starts_with('"') => {
                        self.take(Some(&mut pfx));
                        self.take(Some(&mut pfx));
                    }
                    _ => break,
                }
            }
            match self.text() {
                "fn" => {
                    let mut buf = pfx;
                    self.sig_until_body(&mut buf);
                    match self.text() {
                        "{" => self.skip_balanced("{", "}", None), // default body
                        ";" => self.bump(),
                        _ => {}
                    }
                    if rec {
                        let sig = format!("{ctx} :: {}", join(&merge_ops(buf)));
                        self.record(mods, sig, iline);
                    }
                }
                "type" | "const" => {
                    let mut buf = Vec::new();
                    while !self.at_end() && self.text() != ";" && self.text() != "=" {
                        self.take(Some(&mut buf));
                    }
                    self.skip_item(); // to `;` (defaults included)
                    if rec {
                        let sig = format!("{ctx} :: {}", join(&merge_ops(buf)));
                        self.record(mods, sig, iline);
                    }
                }
                "}" => break,
                _ => self.skip_item(),
            }
        }
        if self.text() == "}" {
            self.bump();
        }
    }

    fn item_impl(&mut self, mods: &[String], in_test: bool) {
        let line = self.line();
        let mut head = Vec::new();
        self.sig_until_body(&mut head);
        // `impl Trait for Type` (a `for` not opening an HRTB `for<…>`)
        let is_trait_impl = head
            .iter()
            .enumerate()
            .any(|(n, t)| t == "for" && head.get(n + 1).map(String::as_str) != Some("<"));
        let header = join(&merge_ops(head.clone()));
        if self.text() != "{" {
            if self.text() == ";" {
                self.bump();
            }
            return;
        }
        if is_trait_impl {
            // the trait determines the surface; one line for the impl
            if !in_test {
                self.record(mods, header, line);
            }
            self.skip_balanced("{", "}", None);
            return;
        }
        // inherent impl: descend for pub methods / consts
        let ctx = header;
        self.bump(); // '{'
        while !self.at_end() && self.text() != "}" {
            self.skip_attrs();
            let Some(start_idx) = self.tok_idx() else { break };
            let item_in_test = in_test || self.sf.in_test(start_idx);
            let mut is_pub = false;
            if self.text() == "pub" {
                if self.text_at(1) == "(" {
                    self.bump();
                    self.skip_balanced("(", ")", None);
                } else {
                    is_pub = true;
                    self.bump();
                }
            }
            let mut pfx = Vec::new();
            loop {
                match self.text() {
                    "unsafe" | "async" => self.take(Some(&mut pfx)),
                    "const" if self.text_at(1) == "fn" => self.take(Some(&mut pfx)),
                    "extern" if self.text_at(1).starts_with('"') => {
                        self.take(Some(&mut pfx));
                        self.take(Some(&mut pfx));
                    }
                    _ => break,
                }
            }
            match self.text() {
                "fn" => self.item_fn(mods, is_pub, item_in_test, pfx, Some(&ctx)),
                "type" | "const" => {
                    let iline = self.line();
                    let mut buf = Vec::new();
                    while !self.at_end() && self.text() != ";" && self.text() != "=" {
                        self.take(Some(&mut buf));
                    }
                    self.skip_item();
                    if is_pub && !item_in_test {
                        let sig = format!("{ctx} :: pub {}", join(&merge_ops(buf)));
                        self.record(mods, sig, iline);
                    }
                }
                "}" => break,
                _ => self.skip_item(),
            }
        }
        if self.text() == "}" {
            self.bump();
        }
    }

    /// `type`/`static`/`const` items: signature up to `=` or `;`.
    fn item_terse(&mut self, mods: &[String], is_pub: bool, in_test: bool) {
        let line = self.line();
        let mut buf = Vec::new();
        while !self.at_end() && self.text() != ";" && self.text() != "=" {
            if self.text() == "<" {
                self.skip_balanced_angle(&mut buf);
            } else {
                self.take(Some(&mut buf));
            }
        }
        self.skip_item(); // consume `= value;` or `;`
        if is_pub && !in_test {
            self.record(mods, format!("pub {}", join(&merge_ops(buf))), line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(src: &str) -> Vec<String> {
        let sf = SourceFile::parse(src);
        public_items(&sf)
            .into_iter()
            .map(|i| {
                if i.module.is_empty() {
                    i.signature
                } else {
                    format!("[{}] {}", i.module, i.signature)
                }
            })
            .collect()
    }

    #[test]
    fn fn_signature_is_normalized() {
        let got = items("pub fn build(encoder: E, kg: &KnowledgeGraph) -> Self { todo!() }\n");
        assert_eq!(got, vec!["pub fn build(encoder: E, kg: &KnowledgeGraph) -> Self"]);
    }

    #[test]
    fn private_items_and_test_items_are_skipped() {
        let src = r#"
            fn private() {}
            pub(crate) fn crate_only() {}
            #[cfg(test)]
            mod tests { pub fn in_test() {} }
        "#;
        assert!(items(src).is_empty());
    }

    #[test]
    fn struct_records_pub_fields_only() {
        let src = "pub struct Candidate { pub entity: EntityId, score_cache: f32, pub score: f32 }\n";
        let got = items(src);
        assert_eq!(
            got,
            vec![
                "pub struct Candidate",
                "pub Candidate.entity: EntityId",
                "pub Candidate.score: f32",
            ]
        );
    }

    #[test]
    fn tuple_struct_elides_private_fields() {
        let got = items("pub struct Far(f32, pub u32);\n");
        assert_eq!(got, vec!["pub struct Far(_, pub u32)"]);
    }

    #[test]
    fn enum_variants_are_recorded() {
        let src = "pub enum Compression { None, Pq { m: usize }, Pca(usize) }\n";
        let got = items(src);
        assert_eq!(
            got,
            vec![
                "pub enum Compression",
                "pub enum Compression :: None",
                "pub enum Compression :: Pq { m: usize }",
                "pub enum Compression :: Pca(usize)",
            ]
        );
    }

    #[test]
    fn inherent_impl_methods_carry_context() {
        let src = "pub struct S;\nimpl S {\n    pub fn get(&self) -> u32 { 1 }\n    fn internal(&self) {}\n}\n";
        let got = items(src);
        assert_eq!(got, vec!["pub struct S", "impl S :: pub fn get(&self) -> u32"]);
    }

    #[test]
    fn trait_impls_are_one_line() {
        let src = "impl LookupService for EncoderIndex<E> {\n    fn lookup(&self) {}\n}\n";
        assert_eq!(items(src), vec!["impl LookupService for EncoderIndex<E>"]);
    }

    #[test]
    fn trait_methods_are_recorded() {
        let src = "pub trait StringEncoder: Send {\n    fn dim(&self) -> usize;\n    fn embed(&self, s: &str) -> Vec<f32> { Vec::new() }\n}\n";
        let got = items(src);
        assert_eq!(
            got,
            vec![
                "pub trait StringEncoder: Send",
                "trait StringEncoder :: fn dim(&self) -> usize",
                "trait StringEncoder :: fn embed(&self, s: &str) -> Vec<f32>",
            ]
        );
    }

    #[test]
    fn inline_pub_mod_nests_and_private_mod_hides() {
        let src = r#"
            pub mod outer {
                pub fn visible() {}
                mod hidden { pub fn invisible() {} }
            }
        "#;
        let got = items(src);
        assert_eq!(got, vec!["pub mod outer", "[outer] pub fn visible()"]);
    }

    #[test]
    fn pub_use_and_exported_macros_are_recorded() {
        let src = "pub use topk::{Neighbor, TopK};\n#[macro_export]\nmacro_rules! static_counter { () => {} }\n";
        let got = items(src);
        assert_eq!(
            got,
            vec![
                "pub use topk::{ Neighbor, TopK }",
                "#[macro_export] macro_rules! static_counter",
            ]
        );
    }

    #[test]
    fn generics_and_where_clauses_survive() {
        let src = "pub fn pick<T: Clone>(xs: &[T]) -> Option<T> where T: Default { None }\n";
        assert_eq!(
            items(src),
            vec!["pub fn pick<T: Clone>(xs: &[T]) -> Option<T> where T: Default"]
        );
    }
}
