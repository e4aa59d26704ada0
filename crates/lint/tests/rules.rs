//! Fixture tests over hand-written rustdoc JSON (`format_version` 57):
//! what L006 renders for each kind of item and what it leaves out, both
//! rules' diagnostics, and a workspace read from disk. None of them runs
//! rustdoc, so none needs a nightly toolchain.

use emblookup_lint::{check_manifests, diff, find_root, parse_manifest, Snapshot, Workspace, LOCK_FILE};
use std::{fs, path::Path};

const LIB: &str = "crates/demo/src/lib.rs";

/// Crate `demo`'s rustdoc JSON: its root module (id 0) lists `top`,
/// `index` holds the other items and `paths` their definition paths.
fn doc(top: &[u32], index: &[String], paths: &str) -> String {
    let root = entry(0, "demo", 1, "public", &format!(r#"{{"module":{{"items":{top:?}}}}}"#));
    format!(r#"{{"format_version":57,"root":0,"paths":{{{paths}}},"index":{{{}}}}}"#, [vec![root], index.to_vec()].concat().join(","))
}

/// One `index` entry, declared at line `line` of [`LIB`].
fn entry(id: u32, name: &str, line: u32, visibility: &str, inner: &str) -> String {
    format!(
        r#""{id}":{{"name":"{name}","span":{{"filename":"{LIB}","begin":[{line},1]}},"visibility":"{visibility}","attrs":[],"inner":{inner}}}"#
    )
}

fn public(id: u32, name: &str, line: u32, inner: &str) -> String {
    entry(id, name, line, "public", inner)
}

/// An impl block of `items` for `for_`; `trait_` is `null` when inherent.
fn impl_block(id: u32, line: u32, generics: &str, trait_: &str, for_: &str, items: &str) -> String {
    let inner = format!(
        r#"{{"impl":{{"is_unsafe":false,"generics":{generics},"trait":{trait_},"for":{for_},"items":[{items}],"is_negative":false,"is_synthetic":false,"blanket_impl":null}}}}"#
    );
    entry(id, "", line, "default", &inner)
}

fn trait_path(name: &str) -> String {
    format!(r#"{{"path":"{name}","id":900,"args":null}}"#)
}

const NO_GENERICS: &str = r#"{"params":[],"where_predicates":[]}"#;
const HEADER: &str = r#"{"is_const":false,"is_unsafe":false,"is_async":false,"abi":"Rust"}"#;
const USIZE: &str = r#"{"primitive":"usize"}"#;
const U32: &str = r#"{"primitive":"u32"}"#;
const REF_SELF: &str = r#"{"borrowed_ref":{"lifetime":null,"is_mutable":false,"type":{"generic":"Self"}}}"#;

fn path(name: &str, id: u32) -> String {
    format!(r#"{{"resolved_path":{{"path":"{name}","id":{id},"args":null}}}}"#)
}

fn bound(trait_: &str) -> String {
    format!(r#"{{"trait_bound":{{"trait":{{"path":"{trait_}","id":901,"args":null}},"generic_params":[],"modifier":"none"}}}}"#)
}

/// `fn(<inputs>) -> <output>` with the given generics.
fn function(inputs: &str, output: &str, generics: &str) -> String {
    format!(r#"{{"function":{{"sig":{{"inputs":[{inputs}],"output":{output}}},"generics":{generics},"header":{HEADER},"has_body":true}}}}"#)
}

fn structure(kind: &str, impls: &str) -> String {
    format!(r#"{{"struct":{{"kind":{kind},"generics":{NO_GENERICS},"impls":[{impls}]}}}}"#)
}

fn field(ty: &str) -> String {
    format!(r#"{{"struct_field":{ty}}}"#)
}

/// The `API.lock` entries a crate's JSON renders to, in lockfile order.
fn lines(json: &str) -> Vec<String> {
    snapshot(json)
        .render()
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with(['#', '[']))
        .map(str::to_string)
        .collect()
}

fn snapshot(json: &str) -> Snapshot {
    let mut snap = Snapshot::default();
    assert_eq!(snap.add_crate("emblookup-demo", json), Ok(()));
    snap
}

// ------------------------------------------------------- what is rendered

#[test]
fn a_fn_keeps_its_generics_and_where_clause() {
    // pub fn pick<T: Clone>(xs: &[T], label: impl Into<String>) -> Option<T> where T: Default
    let generics = format!(
        r#"{{"params":[{{"name":"T","kind":{{"type":{{"bounds":[{}],"default":null,"is_synthetic":false}}}}}},
            {{"name":"impl Into<String>","kind":{{"type":{{"bounds":[],"default":null,"is_synthetic":true}}}}}}],
           "where_predicates":[{{"bound_predicate":{{"type":{{"generic":"T"}},"bounds":[{}],"generic_params":[]}}}}]}}"#,
        bound("Clone"),
        bound("Default")
    );
    let inputs = r#"["xs",{"borrowed_ref":{"lifetime":null,"is_mutable":false,"type":{"slice":{"generic":"T"}}}}],
        ["label",{"impl_trait":[{"trait_bound":{"trait":{"path":"Into","id":3,"args":{"angle_bracketed":{"args":[{"type":{"resolved_path":{"path":"String","id":4,"args":null}}}],"constraints":[]}}},"generic_params":[],"modifier":"none"}}]}]"#;
    let output = r#"{"resolved_path":{"path":"std::option::Option","id":5,"args":{"angle_bracketed":{"args":[{"type":{"generic":"T"}}],"constraints":[]}}}}"#;
    let json = doc(&[1], &[public(1, "pick", 3, &function(inputs, output, &generics))], "");
    assert_eq!(
        lines(&json),
        [". pub fn pick<T: Clone>(xs: &[T], label: impl Into<String>) -> Option<T> where T: Default"]
    );
}

#[test]
fn public_fields_are_lines_and_private_ones_are_not() {
    // pub struct Candidate { pub entity: EntityId, score_cache: f32 }
    // pub struct Far(f32, pub u32);
    let plain = r#"{"plain":{"fields":[2],"has_stripped_fields":true}}"#;
    let json = doc(
        &[1, 3],
        &[
            public(1, "Candidate", 1, &structure(plain, "")),
            public(2, "entity", 2, &field(&path("EntityId", 9))),
            public(3, "Far", 5, &structure(r#"{"tuple":[null,4]}"#, "")),
            public(4, "1", 5, &field(U32)),
        ],
        "",
    );
    assert_eq!(
        lines(&json),
        [". pub Candidate.entity: EntityId", ". pub struct Candidate", ". pub struct Far(_, pub u32)"]
    );
}

#[test]
fn enum_variants_are_lines() {
    // pub enum Compression { None, Pq { m: usize }, Pca(usize), Code = 7 }
    let variant = |kind: &str, discriminant: &str| {
        format!(r#"{{"variant":{{"kind":{kind},"discriminant":{discriminant}}}}}"#)
    };
    let json = doc(
        &[1],
        &[
            public(1, "Compression", 1, &format!(r#"{{"enum":{{"generics":{NO_GENERICS},"variants":[2,3,5,7],"impls":[]}}}}"#)),
            entry(2, "None", 2, "default", &variant(r#""plain""#, "null")),
            entry(3, "Pq", 3, "default", &variant(r#"{"struct":{"fields":[4],"has_stripped_fields":false}}"#, "null")),
            entry(4, "m", 3, "default", &field(USIZE)),
            entry(5, "Pca", 4, "default", &variant(r#"{"tuple":[6]}"#, "null")),
            entry(6, "0", 4, "default", &field(USIZE)),
            entry(7, "Code", 5, "default", &variant(r#""plain""#, r#"{"expr":"7","value":"7"}"#)),
        ],
        "",
    );
    assert_eq!(
        lines(&json),
        [
            ". pub enum Compression",
            ". pub enum Compression :: Code = 7",
            ". pub enum Compression :: None",
            ". pub enum Compression :: Pca(usize)",
            ". pub enum Compression :: Pq { m: usize }",
        ]
    );
}

#[test]
fn trait_items_are_lines() {
    // pub trait StringEncoder: Send { fn dim(&self) -> usize; type Out: Clone; const N: usize; }
    let json = doc(
        &[1],
        &[
            public(1, "StringEncoder", 1, &format!(
                r#"{{"trait":{{"is_auto":false,"is_unsafe":false,"items":[2,3,4],"generics":{NO_GENERICS},"bounds":[{}],"implementations":[]}}}}"#,
                bound("Send")
            )),
            entry(2, "dim", 2, "default", &function(&format!(r#"["self",{REF_SELF}]"#), USIZE, NO_GENERICS)),
            entry(3, "Out", 3, "default", &format!(r#"{{"assoc_type":{{"generics":{NO_GENERICS},"bounds":[{}],"type":null}}}}"#, bound("Clone"))),
            entry(4, "N", 4, "default", &format!(r#"{{"assoc_const":{{"type":{USIZE},"value":null}}}}"#)),
        ],
        "",
    );
    assert_eq!(
        lines(&json),
        [
            ". pub trait StringEncoder: Send",
            ". trait StringEncoder :: const N: usize",
            ". trait StringEncoder :: fn dim(&self) -> usize",
            ". trait StringEncoder :: type Out: Clone",
        ]
    );
}

#[test]
fn inherent_methods_are_lines_and_a_trait_impl_is_one() {
    // pub struct Index<E>;  impl<E> Index<E> { pub fn get(&mut self) -> u32; fn hidden(&self) }
    // impl<E: StringEncoder> LookupService for Index<E> { fn lookup(&self) }
    let index_e = r#"{"resolved_path":{"path":"Index","id":1,"args":{"angle_bracketed":{"args":[{"type":{"generic":"E"}}],"constraints":[]}}}}"#;
    let e = |bounds: &str| {
        format!(r#"{{"params":[{{"name":"E","kind":{{"type":{{"bounds":[{bounds}],"default":null,"is_synthetic":false}}}}}}],"where_predicates":[]}}"#)
    };
    let mut_self = r#"["self",{"borrowed_ref":{"lifetime":null,"is_mutable":true,"type":{"generic":"Self"}}}]"#;
    let ref_self = format!(r#"["self",{REF_SELF}]"#);
    let json = doc(
        &[1],
        &[
            public(1, "Index", 1, &format!(r#"{{"struct":{{"kind":"unit","generics":{},"impls":[2,5]}}}}"#, e(""))),
            impl_block(2, 2, &e(""), "null", index_e, "3,4"),
            public(3, "get", 3, &function(mut_self, U32, NO_GENERICS)),
            entry(4, "hidden", 4, "crate", &function(&ref_self, "null", NO_GENERICS)),
            impl_block(5, 6, &e(&bound("StringEncoder")), &trait_path("LookupService"), index_e, "6"),
            entry(6, "lookup", 7, "default", &function(&ref_self, "null", NO_GENERICS)),
        ],
        "",
    );
    assert_eq!(
        lines(&json),
        [
            ". impl<E: StringEncoder> LookupService for Index<E>",
            ". impl<E> Index<E> :: pub fn get(&mut self) -> u32",
            ". pub struct Index<E>",
        ]
    );
}

#[test]
fn derived_auto_and_blanket_impls_are_not_lines() {
    // #[derive(Clone)] pub struct S;  + rustdoc's synthetic `Send` and blanket `From<T>`
    let s = path("S", 1);
    let impl_of = |id, name| impl_block(id, 1, NO_GENERICS, &trait_path(name), &s, "");
    let json = doc(
        &[1],
        &[
            public(1, "S", 1, &structure(r#""unit""#, "2,3,4")),
            impl_of(2, "Clone").replace(r#""attrs":[]"#, r#""attrs":["automatically_derived"]"#),
            impl_of(3, "Send").replace(r#""is_synthetic":false"#, r#""is_synthetic":true"#),
            impl_of(4, "From").replace(r#""blanket_impl":null"#, r#""blanket_impl":{"generic":"T"}"#),
        ],
        "",
    );
    assert_eq!(lines(&json), [". pub struct S"]);
}

#[test]
fn a_private_types_drop_impl_is_not_a_line() {
    // pub fn f();  struct BatchQuery;  impl Drop for BatchQuery
    // Even listed by a public module, the private type and its impls stay
    // out: what rustc does not export is not API.
    let json = doc(
        &[1, 2],
        &[
            public(1, "f", 1, &function("", "null", NO_GENERICS)),
            entry(2, "BatchQuery", 2, "crate", &structure(r#""unit""#, "3")),
            impl_block(3, 3, NO_GENERICS, &trait_path("Drop"), &path("BatchQuery", 2), ""),
        ],
        "",
    );
    assert_eq!(lines(&json), [". pub fn f()"]);
}

#[test]
fn pub_use_is_a_line_and_its_target_renders_where_it_is_defined() {
    // mod topk { pub struct TopK; }  pub use topk::TopK;  pub use emblookup_core as core;
    // pub mod prelude { pub use crate::topk::TopK; pub use emblookup_kg::EntityId; }
    let use_ = |source: &str, name: &str, id: u32| {
        format!(r#"{{"use":{{"source":"{source}","name":"{name}","id":{id},"is_glob":false}}}}"#)
    };
    let json = doc(
        &[1, 2, 3],
        &[
            public(1, "", 2, &use_("topk::TopK", "TopK", 10)),
            public(10, "TopK", 1, &structure(r#""unit""#, "")),
            public(2, "", 3, &use_("emblookup_core", "core", 99)),
            public(3, "prelude", 4, r#"{"module":{"items":[4,5]}}"#),
            public(4, "", 5, &use_("crate::topk::TopK", "TopK", 10)),
            public(5, "", 6, &use_("emblookup_kg::EntityId", "EntityId", 98)),
        ],
        r#""10":{"crate_id":0,"path":["demo","topk","TopK"],"kind":"struct"},
           "3":{"crate_id":0,"path":["demo","prelude"],"kind":"module"},
           "98":{"crate_id":2,"path":["emblookup_kg","model","EntityId"],"kind":"struct"}"#,
    );
    assert_eq!(
        lines(&json),
        [
            ". pub mod prelude",
            ". pub use emblookup_core as core",
            ". pub use topk::TopK",
            "prelude pub use crate::topk::TopK",
            "prelude pub use emblookup_kg::EntityId",
            "topk pub struct TopK",
        ]
    );
}

#[test]
fn an_unknown_format_version_is_an_error_that_names_the_command() {
    let json = doc(&[], &[], "").replace(r#""format_version":57"#, r#""format_version":58"#);
    let err = Snapshot::default().add_crate("emblookup-demo", &json).expect_err("must fail");
    assert!(err.contains("format_version 58") && err.contains("cargo +nightly doc"), "{err}");
}

// ----------------------------------------------------------------- L005

#[test]
fn l005_reversed_manifest_edge_fails_with_file_and_line() {
    let tensor = "[package]\nname = \"emblookup-tensor\"\n\n[dependencies]\nemblookup-core.workspace = true\n";
    let core = "[package]\nname = \"emblookup-core\"\n\n[dependencies]\nemblookup-tensor.workspace = true\n";
    let manifests = [
        parse_manifest("crates/tensor/Cargo.toml", Path::new("crates/tensor"), tensor),
        parse_manifest("crates/core/Cargo.toml", Path::new("crates/core"), core),
    ]
    .map(|m| m.expect("manifest"));
    let vs = check_manifests(&manifests);
    assert_eq!(vs.len(), 1, "got {vs:?}");
    assert_eq!(vs[0].rule, "L005");
    assert_eq!((vs[0].file.as_str(), vs[0].line), ("crates/tensor/Cargo.toml", 5));
    assert!(vs[0].message.contains("emblookup-core"), "{}", vs[0].message);
}

// ----------------------------------------------------------------- L006

/// Crate `demo` with one pub fn per name, `name()` at line `n + 1`.
fn fns(names: &[&str]) -> String {
    let index: Vec<String> = names
        .iter()
        .zip(1..)
        .map(|(name, id)| public(id, name, id, &function("", "null", NO_GENERICS)))
        .collect();
    doc(&(1..=names.len() as u32).collect::<Vec<_>>(), &index, "")
}

#[test]
fn l006_an_added_pub_fn_points_at_its_source_line() {
    let lock = snapshot(&fns(&["kept"])).render();
    assert!(diff(&lock, &snapshot(&fns(&["kept"]))).is_empty(), "an unchanged API must not drift");
    let vs = diff(&lock, &snapshot(&fns(&["kept", "extra"])));
    assert_eq!(vs.len(), 1, "got {vs:?}");
    assert_eq!((vs[0].rule, vs[0].file.as_str(), vs[0].line), ("L006", LIB, 2));
    assert!(vs[0].message.contains("added `. pub fn extra()`"), "{}", vs[0].message);
}

#[test]
fn l006_deleting_a_pub_fn_without_bless_fails_at_the_lock_line() {
    let lock = snapshot(&fns(&["kept", "deleted"])).render();
    let vs = diff(&lock, &snapshot(&fns(&["kept"])));
    assert_eq!(vs.len(), 1, "got {vs:?}");
    // the stale lock line: 3 header lines, a blank one, the section, then
    // `deleted`, sorted before `kept`
    assert_eq!((vs[0].rule, vs[0].file.as_str(), vs[0].line), ("L006", LOCK_FILE, 6));
    assert!(vs[0].message.contains("removed `. pub fn deleted()`"), "{}", vs[0].message);
    assert!(vs[0].message.contains("--api-bless"), "{}", vs[0].message);
}

#[test]
fn l006_a_changed_signature_is_one_removal_and_one_addition() {
    let f = |ty: &str| doc(&[1], &[public(1, "f", 1, &function(&format!(r#"["x",{ty}]"#), "null", NO_GENERICS))], "");
    let vs = diff(&snapshot(&f(U32)).render(), &snapshot(&f(USIZE)));
    let got: Vec<(&str, u32)> = vs.iter().map(|v| (v.file.as_str(), v.line)).collect();
    assert_eq!(got, [(LIB, 1), (LOCK_FILE, 6)], "{vs:?}");
}

// ---------------------------------------------------------------------
// on-disk read: manifests and rustdoc JSON from the filesystem

#[test]
fn workspace_read_from_disk_reports_both_rules() {
    let root = std::env::temp_dir().join(format!("emblookup-lint-read-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    for dir in ["src", "crates/kg/src", "crates/ann/src", "doc"] {
        fs::create_dir_all(root.join(dir)).expect("mkdir");
    }
    let (ann, kg) = (fns(&["score", "unblessed"]), fns(&["up"]));
    let files = [
        // the root package is a binary: it has no JSON to read
        ("Cargo.toml", "[package]\nname = \"emblookup\"\n[workspace]\nmembers = [\"crates/*\"]\n"),
        ("src/main.rs", "fn main() {}\n"),
        ("crates/kg/Cargo.toml", "[package]\nname = \"emblookup-kg\"\n"),
        ("crates/kg/src/lib.rs", ""),
        ("doc/emblookup_kg.json", &kg),
        // a layering inversion (L005): ann sits below kg
        ("crates/ann/Cargo.toml", "[package]\nname = \"emblookup-ann\"\n[dependencies]\nemblookup-kg.workspace = true\n"),
        ("crates/ann/src/lib.rs", ""),
        // a public fn API.lock does not list (L006)
        ("doc/emblookup_ann.json", &ann),
    ];
    for (path, text) in files {
        fs::write(root.join(path), text).expect("write");
    }
    let lock = "[emblookup-ann]\n. pub fn score()\n\n[emblookup-kg]\n. pub fn up()\n";

    let ws = Workspace::read(&root, &root.join("doc")).expect("read");
    let got: Vec<(String, &str, u32)> =
        ws.check(lock).into_iter().map(|v| (v.file, v.rule, v.line)).collect();
    assert_eq!(got, [("crates/ann/Cargo.toml".to_string(), "L005", 4), (LIB.to_string(), "L006", 2)]);
    assert_eq!(ws.crates, 2);
    assert_eq!(find_root(&root.join("crates/kg/src")), Some(root.clone()));
    assert_eq!(find_root(&std::env::temp_dir()), None, "no workspace encloses the temp dir");

    fs::remove_file(root.join("doc/emblookup_kg.json")).expect("rm");
    let err = Workspace::read(&root, &root.join("doc")).err().expect("a library without JSON");
    assert!(err.contains("emblookup_kg.json"), "{err}");

    let _ = fs::remove_dir_all(&root);
}
