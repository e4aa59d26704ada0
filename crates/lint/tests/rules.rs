//! Fixture tests: one violating example per rule (L005 layering, L006
//! API drift), the lexer adversaries the API snapshot must survive, and
//! an on-disk workspace that reports both.

use emblookup_lint::{check_manifests, diff, parse_manifest, Snapshot, Workspace, LOCK_FILE};
use std::path::Path;

const LIB: &str = "crates/demo/src/lib.rs";

/// The lockfile entries a library file contributes, in lockfile order.
fn items(src: &str) -> Vec<String> {
    let mut snap = Snapshot::default();
    snap.add_file("emblookup-demo", LIB, "lib.rs", src);
    snap.render()
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with(['#', '[']))
        .map(str::to_string)
        .collect()
}

// ------------------------------------------------- lexer adversaries

#[test]
fn items_inside_strings_and_comments_are_not_surface() {
    let src = concat!(
        "// pub fn in_line_comment() {}\n",
        "/* pub fn in_block_comment() {} */\n",
        "pub fn f() -> &'static str {\n",
        "    \"pub fn in_string() {}\"\n",
        "}\n",
        "pub fn g() -> &'static str {\n",
        "    r#\"raw with \"pub fn in_raw() {}\" inside\"#\n",
        "}\n",
    );
    assert_eq!(items(src), [". pub fn f() -> &'static str", ". pub fn g() -> &'static str"]);
}

#[test]
fn lifetimes_and_char_literals_do_not_confuse_the_lexer() {
    // a lifetime read as an unterminated char would swallow `g`
    let src = "pub fn f<'a>(x: &'a [char]) -> bool {\n    x.first() == Some(&'\\'')\n}\npub fn g() {}\n";
    assert_eq!(items(src), [". pub fn f<'a>(x: &'a [char]) -> bool", ". pub fn g()"]);
}

#[test]
fn unterminated_string_does_not_hang_or_panic() {
    let src = "pub fn f() { let _ = \"never closed...\n";
    assert_eq!(items(src), [". pub fn f()"]);
}

#[test]
fn cfg_not_test_is_surface_and_cfg_test_is_not() {
    let src = "#[cfg(not(test))]\npub fn live() {}\n#[cfg(test)]\npub fn helper() {}\n";
    assert_eq!(items(src), [". pub fn live()"]);
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

#[test]
fn l006_deleting_a_pub_fn_without_bless_fails() {
    let mut old = Snapshot::default();
    old.add_file("emblookup-demo", LIB, "lib.rs", "pub fn kept() {}\npub fn deleted() {}\n");
    let mut new = Snapshot::default();
    new.add_file("emblookup-demo", LIB, "lib.rs", "pub fn kept() {}\n");
    let vs = diff(&old.render(), &new);
    assert_eq!(vs.len(), 1, "got {vs:?}");
    assert_eq!(vs[0].rule, "L006");
    assert_eq!(vs[0].file, LOCK_FILE);
    assert!(vs[0].line > 0, "removed item must point at the stale lock line");
    assert!(vs[0].message.contains("removed `. pub fn deleted()`"), "{}", vs[0].message);
    assert!(vs[0].message.contains("--api-bless"), "{}", vs[0].message);
}

// ---------------------------------------------------------------------
// on-disk load: a workspace read from the filesystem reports both rules

#[test]
fn workspace_loaded_from_disk_reports_both_rules() {
    use std::fs;

    let root = std::env::temp_dir().join(format!("emblookup-lint-load-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    for dir in ["src", "crates/kg/src", "crates/ann/src"] {
        fs::create_dir_all(root.join(dir)).expect("mkdir");
    }
    let files = [
        ("Cargo.toml", "[package]\nname = \"emblookup\"\n[workspace]\nmembers = [\"crates/*\"]\n"),
        ("src/main.rs", "pub fn not_surface() {}\n"),
        ("crates/kg/Cargo.toml", "[package]\nname = \"emblookup-kg\"\n"),
        ("crates/kg/src/lib.rs", "pub fn up() -> usize { 1 }\n"),
        // a layering inversion (L005): ann sits below kg
        ("crates/ann/Cargo.toml", "[package]\nname = \"emblookup-ann\"\n[dependencies]\nemblookup-kg.workspace = true\n"),
        // a public fn API.lock does not list (L006)
        ("crates/ann/src/lib.rs", "pub fn score() {}\n\npub fn unblessed() {}\n"),
    ];
    for (path, text) in files {
        fs::write(root.join(path), text).expect("write");
    }
    let lock = "[emblookup-ann]\n. pub fn score()\n\n[emblookup-kg]\n. pub fn up() -> usize\n";

    let ws = Workspace::load(&root).expect("load");
    let got: Vec<(String, &str, u32)> =
        ws.check(lock).into_iter().map(|v| (v.file, v.rule, v.line)).collect();
    assert_eq!(
        got,
        [
            ("crates/ann/Cargo.toml".to_string(), "L005", 4),
            ("crates/ann/src/lib.rs".to_string(), "L006", 3),
        ]
    );
    assert_eq!(ws.files, 3);

    let _ = fs::remove_dir_all(&root);
}
