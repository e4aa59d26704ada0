//! L006's view of a crate: its public API as rustdoc sees it.
//!
//! [`build`] runs `cargo +nightly doc` with rustdoc's JSON output over the
//! whole workspace, in a target directory of its own. [`public_items`]
//! walks one crate's JSON from its root module, through public modules
//! and `pub use`s, and renders every reachable item as one line:
//! functions, structs with their public fields, enums with their
//! variants, traits with their items, inherent methods and trait impls.
//! Blanket impls, the auto-trait impls rustdoc synthesizes and
//! `#[derive]`d impls are left out: none is written in the source. What
//! rustc does not export (private types and their impls, `#[cfg(test)]`
//! code, `#[doc(hidden)]` items) never reaches the JSON.

use emblookup_obs::json::{self, Json};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::Command;

/// The rustdoc JSON `format_version` the renderer reads.
pub(crate) const FORMAT_VERSION: u64 = 57;

/// The command [`build`] runs, as its diagnostics name it.
pub(crate) const COMMAND: &str = "RUSTDOCFLAGS='-Z unstable-options --output-format json' \
     cargo +nightly doc --offline --no-deps --workspace --lib --target-dir target/emblookup-lint";

/// One public item of a crate: the module path that defines it (`""` at
/// the root), its signature (`pub fn top(k: usize) -> usize`), and the
/// workspace-relative file and 1-based line that declare it.
pub(crate) struct ApiItem {
    pub(crate) module: String,
    pub(crate) signature: String,
    pub(crate) file: String,
    pub(crate) line: u32,
}

/// Builds every library crate's rustdoc JSON for the workspace at
/// `root`; returns the directory that holds one `<crate_name>.json` each.
pub(crate) fn build(root: &Path) -> Result<PathBuf, String> {
    let target = root.join("target").join("emblookup-lint");
    let out = Command::new("cargo")
        .args(["+nightly", "doc", "--offline", "--no-deps", "--workspace", "--lib", "--target-dir"])
        .arg(&target)
        .env("RUSTDOCFLAGS", "-Z unstable-options --output-format json")
        .env_remove("CARGO_ENCODED_RUSTDOCFLAGS")
        .current_dir(root)
        .output()
        .map_err(|e| format!("could not run `{COMMAND}`: {e}"))?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!("`{COMMAND}` failed ({}):\n{}", out.status, stderr.trim_end()));
    }
    Ok(target.join("doc"))
}

/// Renders the public items of one crate from its rustdoc JSON text.
///
/// # Errors
/// Unparseable JSON, or a `format_version` other than [`FORMAT_VERSION`].
pub(crate) fn public_items(text: &str) -> Result<Vec<ApiItem>, String> {
    let doc = json::parse(text).map_err(|e| format!("unreadable rustdoc JSON: {e}"))?;
    let version = doc.get("format_version").and_then(Json::as_u64);
    if version != Some(FORMAT_VERSION) {
        return Err(format!(
            "rustdoc JSON has format_version {}, and this renderer reads {FORMAT_VERSION}: \
             rebuild it with a nightly that emits {FORMAT_VERSION} (`{COMMAND}`) or port the \
             renderer",
            version.map_or("none".to_string(), |v| v.to_string())
        ));
    }
    let by_id = |key: &str| -> HashMap<u64, &Json> {
        let Some(Json::Obj(members)) = doc.get(key) else { return HashMap::new() };
        members.iter().filter_map(|(k, v)| Some((k.parse().ok()?, v))).collect()
    };
    let (index, paths) = (by_id("index"), by_id("paths"));
    let mut walk = Walk { index, paths, seen: HashSet::new(), out: Vec::new() };
    if let Some(root) = doc.get("root").and_then(Json::as_u64).and_then(|id| walk.index.get(&id)) {
        walk.children(root, "");
    }
    Ok(walk.out)
}

static NULL: Json = Json::Null;

/// `j[key]`, or `null`.
fn at<'j>(j: &'j Json, key: &str) -> &'j Json {
    j.get(key).unwrap_or(&NULL)
}

fn text<'j>(j: &'j Json, key: &str) -> &'j str {
    at(j, key).as_str().unwrap_or("")
}

fn list<'j>(j: &'j Json, key: &str) -> &'j [Json] {
    at(j, key).as_arr().unwrap_or(&[])
}

fn flag(j: &Json, key: &str) -> bool {
    matches!(j.get(key), Some(Json::Bool(true)))
}

/// `word` when `j[key]` is `true`, else nothing.
fn when(j: &Json, key: &str, word: &'static str) -> &'static str {
    if flag(j, key) { word } else { "" }
}

/// An externally tagged enum value: `{"tag": value}` or a bare `"tag"`.
fn tagged(j: &Json) -> (&str, &Json) {
    match j {
        Json::Obj(members) if members.len() == 1 => (members[0].0.as_str(), &members[0].1),
        Json::Str(tag) => (tag.as_str(), &NULL),
        _ => ("", &NULL),
    }
}

fn joined(items: &[Json], sep: &str, render: impl Fn(&Json) -> String) -> String {
    items.iter().map(render).collect::<Vec<_>>().join(sep)
}

fn string(j: &Json) -> String {
    j.as_str().unwrap_or("").to_string()
}

/// `<prefix><rendered>`, or nothing when `rendered` is empty.
fn unless_empty(prefix: &str, rendered: String) -> String {
    if rendered.is_empty() { rendered } else { format!("{prefix}{rendered}") }
}

/// `<list>`, or nothing for an empty list.
fn angled(list: String) -> String {
    if list.is_empty() { list } else { format!("<{list}>") }
}

fn ty(t: &Json) -> String {
    match tagged(t) {
        ("resolved_path", p) => path(p),
        ("generic" | "primitive", name) => string(name),
        ("borrowed_ref", r) => {
            let lifetime = at(r, "lifetime").as_str().map_or(String::new(), |l| format!("{l} "));
            format!("&{lifetime}{}{}", when(r, "is_mutable", "mut "), ty(at(r, "type")))
        }
        ("slice", t) => format!("[{}]", ty(t)),
        ("array", a) => format!("[{}; {}]", ty(at(a, "type")), text(a, "len")),
        ("tuple", ts) => format!("({})", joined(ts.as_arr().unwrap_or(&[]), ", ", ty)),
        ("impl_trait", bs) => format!("impl {}", bounds(bs)),
        ("dyn_trait", d) => {
            let traits = joined(list(d, "traits"), " + ", |p| hrtb(at(p, "generic_params")) + &path(at(p, "trait")));
            format!("dyn {traits}{}", unless_empty(" + ", string(at(d, "lifetime"))))
        }
        ("function_pointer", f) => {
            format!("{}{}{}", hrtb(at(f, "generic_params")), header(at(f, "header")), sig("", at(f, "sig")))
        }
        ("raw_pointer", p) => format!("*{} {}", if flag(p, "is_mutable") { "mut" } else { "const" }, ty(at(p, "type"))),
        ("qualified_path", q) => {
            let head = match (ty(at(q, "self_type")), at(q, "trait")) {
                (self_ty, Json::Null) => self_ty,
                (self_ty, tr) => format!("<{self_ty} as {}>", path(tr)),
            };
            format!("{head}::{}{}", text(q, "name"), args(at(q, "args")))
        }
        ("infer", _) => "_".to_string(),
        (other, _) => other.to_string(),
    }
}

/// A type or trait by its name, as rustdoc's own pages show it: the path
/// rustdoc records is whatever the importing `use` spelled.
fn path(p: &Json) -> String {
    let name = text(p, "path").rsplit("::").next().unwrap_or("");
    format!("{name}{}", args(at(p, "args")))
}

fn args(a: &Json) -> String {
    match tagged(a) {
        ("angle_bracketed", a) => {
            let mut parts: Vec<String> = list(a, "args")
                .iter()
                .map(|arg| match tagged(arg) {
                    ("lifetime", l) => string(l),
                    ("type", t) => ty(t),
                    ("const", c) => text(c, "expr").to_string(),
                    _ => "_".to_string(),
                })
                .collect();
            for c in list(a, "constraints") {
                let name = format!("{}{}", text(c, "name"), args(at(c, "args")));
                parts.push(match tagged(at(c, "binding")) {
                    ("equality", value) => format!("{name} = {}", term(value)),
                    (_, bs) => format!("{name}: {}", bounds(bs)),
                });
            }
            angled(parts.join(", "))
        }
        ("parenthesized", p) => {
            let output = unless_empty(" -> ", ty(at(p, "output")));
            format!("({}){output}", joined(list(p, "inputs"), ", ", ty))
        }
        ("return_type_notation", _) => "(..)".to_string(),
        _ => String::new(),
    }
}

fn term(t: &Json) -> String {
    match tagged(t) {
        ("type", t) => ty(t),
        (_, c) => text(c, "expr").to_string(),
    }
}

fn bounds(bs: &Json) -> String {
    joined(bs.as_arr().unwrap_or(&[]), " + ", |b| match tagged(b) {
        ("trait_bound", b) => {
            let modifier = match text(b, "modifier") {
                "maybe" => "?",
                "maybe_const" => "~const ",
                _ => "",
            };
            format!("{}{modifier}{}", hrtb(at(b, "generic_params")), path(at(b, "trait")))
        }
        ("outlives", l) => string(l),
        ("use", ps) => format!("use<{}>", joined(ps.as_arr().unwrap_or(&[]), ", ", |p| string(tagged(p).1))),
        (other, _) => other.to_string(),
    })
}

/// `<'a: 'b, T: Bound = Default, const N: usize>`, without the parameters
/// rustdoc synthesizes for argument-position `impl Trait`.
fn params(ps: &[Json]) -> String {
    let ps: Vec<String> = ps
        .iter()
        .filter_map(|p| {
            let name = text(p, "name");
            Some(match tagged(at(p, "kind")) {
                ("lifetime", l) => name.to_string() + &unless_empty(": ", outlives(l)),
                ("type", t) if flag(t, "is_synthetic") => return None,
                ("type", t) => {
                    let default = unless_empty(" = ", ty(at(t, "default")));
                    format!("{name}{}{default}", unless_empty(": ", bounds(at(t, "bounds"))))
                }
                (_, c) => format!("const {name}: {}", ty(at(c, "type"))),
            })
        })
        .collect();
    angled(ps.join(", "))
}

fn outlives(j: &Json) -> String {
    joined(list(j, "outlives"), " + ", string)
}

/// `for<'a> `, a higher-ranked binder.
fn hrtb(generic_params: &Json) -> String {
    match params(generic_params.as_arr().unwrap_or(&[])) {
        none if none.is_empty() => none,
        binder => format!("for{binder} "),
    }
}

fn where_clause(generics: &Json) -> String {
    let predicates = joined(list(generics, "where_predicates"), ", ", |w| match tagged(w) {
        ("bound_predicate", b) => {
            let bounded = ty(at(b, "type"));
            format!("{}{bounded}: {}", hrtb(at(b, "generic_params")), bounds(at(b, "bounds")))
        }
        ("lifetime_predicate", l) => format!("{}: {}", text(l, "lifetime"), outlives(l)),
        (_, e) => format!("{} = {}", ty(at(e, "lhs")), term(at(e, "rhs"))),
    });
    unless_empty(" where ", predicates)
}

/// `const async unsafe extern "C" `, the qualifiers before `fn`.
fn header(h: &Json) -> String {
    let abi = match tagged(at(h, "abi")) {
        ("Rust" | "", _) => String::new(),
        (abi, _) => format!("extern \"{abi}\" "),
    };
    let qualifiers = [("is_const", "const "), ("is_async", "async "), ("is_unsafe", "unsafe ")];
    qualifiers.iter().map(|&(key, word)| when(h, key, word)).collect::<String>() + &abi
}

/// `fn name(inputs) -> output`, with `self` receivers in their short form.
fn sig(name: &str, s: &Json) -> String {
    let inputs = joined(list(s, "inputs"), ", ", |input| {
        let pair = input.as_arr().unwrap_or(&[]);
        let (arg, t) = (pair.first().map_or(String::new(), string), pair.get(1).unwrap_or(&NULL));
        let rendered = ty(t);
        match tagged(t) {
            _ if arg != "self" => format!("{arg}: {rendered}"),
            ("generic", _) if rendered == "Self" => "self".to_string(),
            // `&'a mut Self` -> `&'a mut self`
            ("borrowed_ref", r) if ty(at(r, "type")) == "Self" => {
                format!("{}self", &rendered[..rendered.len() - "Self".len()])
            }
            _ => format!("self: {rendered}"),
        }
    });
    let output = unless_empty(" -> ", ty(at(s, "output")));
    format!("fn{}({inputs}){output}", unless_empty(" ", name.to_string()))
}

fn function(name: &str, f: &Json) -> String {
    let generics = at(f, "generics");
    let sig = sig(&format!("{name}{}", params(list(generics, "params"))), at(f, "sig"));
    format!("{}{sig}{}", header(at(f, "header")), where_clause(generics))
}

/// The reachability walk over one crate's `index`.
struct Walk<'a> {
    index: HashMap<u64, &'a Json>,
    paths: HashMap<u64, &'a Json>,
    /// Items and impls already rendered: one line per item, however many
    /// `pub use`s reach it.
    seen: HashSet<u64>,
    out: Vec<ApiItem>,
}

impl<'a> Walk<'a> {
    fn push(&mut self, module: &str, item: &Json, signature: String) {
        let (span, module) = (at(item, "span"), module.to_string());
        let line = list(span, "begin").first().and_then(Json::as_u64).unwrap_or(0);
        let line = u32::try_from(line).unwrap_or(u32::MAX);
        self.out.push(ApiItem { module, signature, file: text(span, "filename").to_string(), line });
    }

    /// The module that defines local item `id`; `fallback` for an item
    /// rustdoc gives no path, and for another crate's.
    fn module_of(&self, id: Option<u64>, fallback: &str) -> String {
        let path = id.and_then(|id| self.paths.get(&id));
        match path.filter(|p| at(p, "crate_id").as_u64() == Some(0)).map(|p| list(p, "path")) {
            Some([_crate, inner @ .., _item]) => joined(inner, "::", string),
            _ => fallback.to_string(),
        }
    }

    /// Renders every item of module item `m`, whose path is `module`.
    fn children(&mut self, m: &'a Json, module: &str) {
        for id in list(at(at(m, "inner"), "module"), "items").iter().filter_map(Json::as_u64) {
            self.item(id, module);
        }
    }

    /// Renders item `id`, reached from module `module`.
    fn item(&mut self, id: u64, module: &str) {
        let Some(&item) = self.index.get(&id) else { return };
        if text(item, "visibility") != "public" || !self.seen.insert(id) {
            return;
        }
        let here = self.module_of(Some(id), module);
        let name = text(item, "name");
        let (kind, inner) = tagged(at(item, "inner"));
        let generics = at(inner, "generics");
        let (params, where_) = (params(list(generics, "params")), where_clause(generics));
        let signature = match kind {
            "module" => {
                self.push(&here, item, format!("pub mod {name}"));
                let inside = if here.is_empty() { name.to_string() } else { format!("{here}::{name}") };
                return self.children(item, &inside);
            }
            "use" => {
                let (source, alias) = (text(inner, "source"), text(inner, "name"));
                let glob = flag(inner, "is_glob");
                let sig = match source.rsplit("::").next() {
                    _ if glob => format!("pub use {source}::*"),
                    Some(last) if last == alias => format!("pub use {source}"),
                    _ => format!("pub use {source} as {alias}"),
                };
                self.push(module, item, sig);
                let target = at(inner, "id").as_u64();
                match target.and_then(|t| self.index.get(&t).copied()) {
                    Some(m) if glob => self.children(m, module),
                    _ => target.into_iter().for_each(|t| self.item(t, module)),
                }
                return;
            }
            "function" => format!("pub {}", function(name, inner)),
            "struct" => {
                // a tuple struct is one line, `_` for each private field; a
                // braced one is a line per public field
                let (shape, fields) = tagged(at(inner, "kind"));
                let tuple = joined(fields.as_arr().unwrap_or(&[]), ", ", |f| {
                    self.field(f).map_or("_".to_string(), |(_, t)| format!("pub {t}"))
                });
                let body = if shape == "tuple" { format!("({tuple})") } else { String::new() };
                self.push(&here, item, format!("pub struct {name}{params}{body}{where_}"));
                for f in list(fields, "fields") {
                    if let Some((field, t)) = self.field(f) {
                        self.push(&here, field, format!("pub {name}.{}: {t}", text(field, "name")));
                    }
                }
                return self.impls(list(inner, "impls"), &here);
            }
            "enum" => {
                self.push(&here, item, format!("pub enum {name}{params}{where_}"));
                let variants: Vec<&Json> =
                    list(inner, "variants").iter().filter_map(|v| self.index.get(&v.as_u64()?).copied()).collect();
                for v in variants {
                    let variant = at(at(v, "inner"), "variant");
                    let (shape, fields) = tagged(at(variant, "kind"));
                    let body = match shape {
                        "tuple" => format!("({})", joined(fields.as_arr().unwrap_or(&[]), ", ", |f| {
                            self.field(f).map_or("_".to_string(), |(_, t)| t)
                        })),
                        "struct" => format!(" {{ {} }}", joined(list(fields, "fields"), ", ", |f| {
                            self.field(f).map_or("_".to_string(), |(f, t)| format!("{}: {t}", text(f, "name")))
                        })),
                        _ => String::new(),
                    };
                    let discriminant = unless_empty(" = ", text(at(variant, "discriminant"), "expr").to_string());
                    let line = format!("pub enum {name} :: {}{body}{discriminant}", text(v, "name"));
                    self.push(&here, v, line);
                }
                return self.impls(list(inner, "impls"), &here);
            }
            "trait" => {
                let supertraits = unless_empty(": ", bounds(at(inner, "bounds")));
                let unsafe_ = when(inner, "is_unsafe", "unsafe ");
                self.push(&here, item, format!("pub {unsafe_}trait {name}{params}{supertraits}{where_}"));
                self.members(inner, &here, &format!("trait {name}{params}"), "");
                return self.impls(list(inner, "implementations"), &here);
            }
            "constant" => format!("pub const {name}: {}", ty(at(inner, "type"))),
            "static" => format!("pub static {}{name}: {}", when(inner, "is_mutable", "mut "), ty(at(inner, "type"))),
            "type_alias" => format!("pub type {name}{params}{where_} = {}", ty(at(inner, "type"))),
            "macro" => format!("#[macro_export] macro_rules! {name}"),
            other => format!("pub {other} {name}"),
        };
        self.push(&here, item, signature);
    }

    /// A field id's item and rendered type; `None` for a stripped field.
    fn field(&self, id: &Json) -> Option<(&'a Json, String)> {
        let field = self.index.get(&id.as_u64()?).copied()?;
        let type_ = ty(at(at(field, "inner"), "struct_field"));
        matches!(text(field, "visibility"), "public" | "default").then_some((field, type_))
    }

    fn impls(&mut self, ids: &[Json], module: &str) {
        for id in ids.iter().filter_map(Json::as_u64) {
            self.impl_block(id, module);
        }
    }

    /// A trait impl is one line, its header; an inherent impl is a line
    /// per public item, behind its header.
    fn impl_block(&mut self, id: u64, fallback: &str) {
        let Some(&item) = self.index.get(&id) else { return };
        let imp = at(at(item, "inner"), "impl");
        let derived = list(item, "attrs").iter().any(|a| a.as_str() == Some("automatically_derived"));
        let blanket = !matches!(at(imp, "blanket_impl"), Json::Null);
        if derived || blanket || flag(imp, "is_synthetic") || !self.seen.insert(id) {
            return;
        }
        let self_ty = at(imp, "for");
        let here = self.module_of(at(at(self_ty, "resolved_path"), "id").as_u64(), fallback);
        let generics = at(imp, "generics");
        let (params, where_) = (params(list(generics, "params")), where_clause(generics));
        match at(imp, "trait") {
            Json::Null => {
                let context = format!("impl{params} {}{where_}", ty(self_ty));
                self.members(imp, &here, &context, "pub ");
            }
            tr => {
                let (unsafe_, negative) = (when(imp, "is_unsafe", "unsafe "), when(imp, "is_negative", "!"));
                let head = format!("{unsafe_}impl{params} {negative}{} for {}{where_}", path(tr), ty(self_ty));
                self.push(&here, item, head);
            }
        }
    }

    /// The items of a trait or an inherent impl, as `<context> :: <item>`:
    /// all of a trait's, and an inherent impl's public ones.
    fn members(&mut self, owner: &Json, module: &str, context: &str, vis: &str) {
        for id in list(owner, "items").iter().filter_map(Json::as_u64) {
            let Some(&item) = self.index.get(&id) else { continue };
            if !vis.is_empty() && text(item, "visibility") != "public" {
                continue;
            }
            let name = text(item, "name");
            let rendered = match tagged(at(item, "inner")) {
                ("function", f) => function(name, f),
                ("assoc_const", c) => format!("const {name}: {}", ty(at(c, "type"))),
                ("assoc_type", t) => {
                    let bounds = unless_empty(": ", bounds(at(t, "bounds")));
                    let assigned = unless_empty(" = ", ty(at(t, "type")));
                    format!("type {name}{}{bounds}{assigned}", params(list(at(t, "generics"), "params")))
                }
                (other, _) => format!("{other} {name}"),
            };
            self.push(module, item, format!("{context} :: {vis}{rendered}"));
        }
    }
}
