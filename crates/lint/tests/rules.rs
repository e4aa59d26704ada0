//! Fixture tests: one violating snippet per rule, plus the suppression
//! and misuse paths of the `// lint: allow(Lxxx) reason` escape hatch.
//! Each fixture is linted in memory through [`emblookup_lint::lint_source`]
//! under a realistic library path so file classification applies.

use emblookup_lint::lint_source;

const LIB: &str = "crates/demo/src/lib.rs";

fn rules_at(path: &str, src: &str) -> Vec<(String, u32)> {
    lint_source(path, src)
        .into_iter()
        .map(|v| (v.rule, v.line))
        .collect()
}

// ----------------------------------------------------------------- L001

#[test]
fn l001_unwrap_in_library_code_fires() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    assert_eq!(rules_at(LIB, src), vec![("L001".to_string(), 2)]);
}

#[test]
fn l001_expect_panic_unreachable_fire() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    if x.is_none() { panic!(\"no\") }\n    x.expect(\"some\")\n}\npub fn g() { unreachable!() }\n";
    let got = rules_at(LIB, src);
    assert_eq!(
        got,
        vec![
            ("L001".to_string(), 2),
            ("L001".to_string(), 3),
            ("L001".to_string(), 5)
        ]
    );
}

#[test]
fn l001_allow_with_reason_suppresses() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    // lint: allow(L001) invariant: caller checked is_some\n    x.unwrap()\n}\n";
    assert_eq!(rules_at(LIB, src), vec![]);
}

#[test]
fn l001_allow_without_reason_is_an_error() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    // lint: allow(L001)\n    x.unwrap()\n}\n";
    let got = rules_at(LIB, src);
    // the bare allow is rejected (L000) and therefore does NOT suppress
    assert!(got.contains(&("L000".to_string(), 2)), "got {got:?}");
    assert!(got.contains(&("L001".to_string(), 3)), "got {got:?}");
}

#[test]
fn l001_test_code_is_exempt() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
    assert_eq!(rules_at(LIB, src), vec![]);
}

#[test]
fn l001_binaries_are_exempt() {
    let src = "fn main() { std::env::args().next().unwrap(); }\n";
    assert_eq!(rules_at("crates/demo/src/main.rs", src), vec![]);
}

// ----------------------------------------------------------------- L002

#[test]
fn l002_lock_in_hot_path_module_fires() {
    let src = "// lint: hot-path\nuse std::sync::Mutex;\npub struct S { m: Mutex<u32> }\n";
    let got = rules_at(LIB, src);
    assert!(
        got.iter().any(|(r, _)| r == "L002"),
        "expected L002, got {got:?}"
    );
}

#[test]
fn l002_allocation_in_hot_path_module_fires() {
    let src = "// lint: hot-path\npub fn f(n: u32) -> String {\n    format!(\"q{n}\")\n}\n";
    assert_eq!(rules_at(LIB, src), vec![("L002".to_string(), 3)]);
}

#[test]
fn l002_same_code_without_hot_path_is_clean() {
    let src = "pub fn f(n: u32) -> String {\n    format!(\"q{n}\")\n}\n";
    assert_eq!(rules_at(LIB, src), vec![]);
}

#[test]
fn l002_allow_with_reason_suppresses() {
    let src = "// lint: hot-path\npub fn f(n: u32) -> String {\n    // lint: allow(L002) error path only, never taken per lookup\n    format!(\"q{n}\")\n}\n";
    assert_eq!(rules_at(LIB, src), vec![]);
}

#[test]
fn l002_unjustified_unsafe_in_hot_path_fires() {
    let src = "// lint: hot-path\npub fn f(p: *const f32) -> f32 {\n    unsafe { *p }\n}\n";
    assert_eq!(rules_at(LIB, src), vec![("L002".to_string(), 3)]);
}

#[test]
fn l002_justified_unsafe_in_hot_path_is_clean() {
    let src = "// lint: hot-path\npub fn f(p: *const f32) -> f32 {\n    // lint: allow(L002) caller guarantees p is valid for reads\n    unsafe { *p }\n}\n";
    assert_eq!(rules_at(LIB, src), vec![]);
}

#[test]
fn l002_unsafe_off_hot_path_is_clean() {
    let src = "pub fn f(p: *const f32) -> f32 {\n    unsafe { *p }\n}\n";
    assert_eq!(rules_at(LIB, src), vec![]);
}

#[test]
fn l002_target_feature_outside_kernels_fires_even_without_hot_path() {
    let src = "#[target_feature(enable = \"avx2\")]\npub unsafe fn f() {}\n";
    let got = rules_at(LIB, src);
    assert!(
        got.contains(&("L002".to_string(), 1)),
        "expected target_feature L002, got {got:?}"
    );
}

#[test]
fn l002_target_feature_inside_kernels_module_is_exempt() {
    let src = "// lint: hot-path\n#[target_feature(enable = \"avx2\")]\n// lint: allow(L002) dispatch-gated: caller verified avx2\nunsafe fn f() {}\npub fn g() {}\n";
    assert_eq!(rules_at("crates/demo/src/kernels.rs", src), vec![]);
}

// ----------------------------------------------------------------- L003

#[test]
fn l003_raw_literal_of_registered_name_fires_with_suggestion() {
    let src = "pub fn f() {\n    emblookup_obs::global().histogram(\"lookup.latency\");\n}\n";
    let vs = lint_source(LIB, src);
    assert_eq!(vs.len(), 1, "got {vs:?}");
    assert_eq!(vs[0].rule, "L003");
    assert_eq!(vs[0].line, 2);
    let sug = vs[0].suggestion.as_deref().unwrap_or("");
    assert!(sug.contains("LOOKUP_LATENCY"), "suggestion was {sug:?}");
}

#[test]
fn l003_unregistered_name_in_metric_position_fires() {
    let src = "pub fn f() {\n    emblookup_obs::global().counter(\"my.adhoc.metric\");\n}\n";
    let got = rules_at(LIB, src);
    assert_eq!(got, vec![("L003".to_string(), 2)]);
}

#[test]
fn l003_names_constant_usage_is_clean() {
    let src = "use emblookup_obs::names;\npub fn f() {\n    emblookup_obs::global().counter(names::TRAIN_EPOCHS);\n}\n";
    assert_eq!(rules_at(LIB, src), vec![]);
}

#[test]
fn l003_span_name_literal_in_trace_position_fires() {
    let src = "pub fn f(trace: &std::sync::Arc<emblookup_obs::Trace>) {\n    let root = trace.root(\"my.adhoc.span\");\n    let child = root.child(\"another.span\");\n    child.finish();\n}\n";
    let got = rules_at(LIB, src);
    assert_eq!(got, vec![("L003".to_string(), 2), ("L003".to_string(), 3)]);
}

#[test]
fn l003_span_names_from_constants_are_clean() {
    let src = "use emblookup_obs::names;\npub fn f(trace: &std::sync::Arc<emblookup_obs::Trace>) {\n    let root = trace.root(names::SPAN_SERVE_REQUEST);\n    let shard = root.child_deferred(names::SPAN_STAGE_SHARD);\n    shard.finish();\n}\n";
    assert_eq!(rules_at(LIB, src), vec![]);
}

#[test]
fn l003_obs_crate_is_exempt() {
    let src = "pub fn f() {\n    emblookup_obs::global().counter(\"my.adhoc.metric\");\n}\n";
    assert_eq!(rules_at("crates/obs/src/registry.rs", src), vec![]);
}

// ----------------------------------------------------------------- L004

#[test]
fn l004_bare_todo_fires_even_in_binaries() {
    let src = "// TODO tighten this bound\nfn main() {}\n";
    assert_eq!(
        rules_at("crates/demo/src/main.rs", src),
        vec![("L004".to_string(), 1)]
    );
}

#[test]
fn l004_todo_with_issue_reference_is_clean() {
    let src = "// TODO(#42): tighten this bound\npub fn f() {}\n// FIXME https://github.com/x/y/issues/7 — precision loss\n";
    assert_eq!(rules_at(LIB, src), vec![]);
}

// ------------------------------------------------- lexer adversaries

#[test]
fn banned_tokens_inside_strings_and_comments_do_not_fire() {
    let src = concat!(
        "// .unwrap() discussed in a comment is fine\n",
        "/* panic!(\"in a block comment\") */\n",
        "pub fn f() -> &'static str {\n",
        "    \"calls .unwrap() and panic!()\"\n",
        "}\n",
        "pub fn g() -> &'static str {\n",
        "    r#\"raw with \".unwrap()\" inside\"#\n",
        "}\n",
    );
    assert_eq!(rules_at(LIB, src), vec![]);
}

#[test]
fn metric_literal_in_raw_string_still_detected() {
    // L003's drift check is lexical over string tokens, raw or not
    let src = "pub fn f() {\n    emblookup_obs::global().counter(r\"lookup.latency\");\n}\n";
    let got = rules_at(LIB, src);
    assert_eq!(got, vec![("L003".to_string(), 2)]);
}

#[test]
fn lifetimes_and_char_literals_do_not_confuse_the_lexer() {
    let src = "pub fn f<'a>(x: &'a [char]) -> bool {\n    x.first() == Some(&'\\'')\n}\n";
    assert_eq!(rules_at(LIB, src), vec![]);
}

#[test]
fn unterminated_string_does_not_hang_or_panic() {
    let src = "pub fn f() { let _ = \"never closed...\n";
    let _ = lint_source(LIB, src);
}

#[test]
fn cfg_not_test_is_still_linted() {
    let src = "#[cfg(not(test))]\npub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    assert_eq!(rules_at(LIB, src), vec![("L001".to_string(), 2)]);
}

// ----------------------------------------------------------------- L005

#[test]
fn l005_reversed_dep_in_tensor_fails_with_file_and_line() {
    // acceptance scenario: `use emblookup_core` inside crates/tensor
    let path = "crates/tensor/src/lib.rs";
    let src = "pub mod tensor;\nuse emblookup_core::EmbLookup;\n";
    let sf = emblookup_lint::SourceFile::parse(path, src);
    let refs = emblookup_lint::parser::crate_refs(&sf);
    let vs = emblookup_lint::layers::check_source(&sf, "emblookup-tensor", &refs);
    assert_eq!(vs.len(), 1, "got {vs:?}");
    assert_eq!(vs[0].rule, "L005");
    assert_eq!((vs[0].file.as_str(), vs[0].line), (path, 2));
    assert!(vs[0].message.contains("emblookup-core"), "{}", vs[0].message);
}

#[test]
fn l005_downward_dep_is_clean() {
    let path = "crates/core/src/service.rs";
    let src = "use emblookup_ann::FlatIndex;\nuse emblookup_embed::StringEncoder;\n";
    let sf = emblookup_lint::SourceFile::parse(path, src);
    let refs = emblookup_lint::parser::crate_refs(&sf);
    assert_eq!(
        emblookup_lint::layers::check_source(&sf, "emblookup-core", &refs),
        vec![]
    );
}

// ----------------------------------------------------------------- L006

#[test]
fn l006_deleting_a_pub_fn_without_bless_fails() {
    // acceptance scenario: a pub fn disappears but API.lock still lists it
    let before = "pub fn kept() {}\npub fn deleted() {}\n";
    let after = "pub fn kept() {}\n";
    let mut old = emblookup_lint::api::Snapshot::default();
    old.add_file(
        "emblookup-demo",
        "crates/demo/src/lib.rs",
        "lib.rs",
        &emblookup_lint::SourceFile::parse("crates/demo/src/lib.rs", before),
    );
    let lock = old.render();
    let mut new = emblookup_lint::api::Snapshot::default();
    new.add_file(
        "emblookup-demo",
        "crates/demo/src/lib.rs",
        "lib.rs",
        &emblookup_lint::SourceFile::parse("crates/demo/src/lib.rs", after),
    );
    let vs = emblookup_lint::api::diff(&lock, &new);
    assert_eq!(vs.len(), 1, "got {vs:?}");
    assert_eq!(vs[0].rule, "L006");
    assert_eq!(vs[0].file, emblookup_lint::api::LOCK_FILE);
    assert!(vs[0].line > 0, "removed item must point at the stale lock line");
    assert!(vs[0].message.contains("removed `. pub fn deleted()`"), "{}", vs[0].message);
    assert!(vs[0].message.contains("--api-bless"), "{}", vs[0].message);
}

// ----------------------------------------------------------------- L007

#[test]
fn l007_float_equality_in_ann_fires() {
    // acceptance scenario: adding `f32 ==` in crates/ann
    let src = "pub fn same(a: f32, b: f32) -> bool {\n    a == 0.0 || b != 1.5\n}\n";
    let got = rules_at("crates/ann/src/flat.rs", src);
    assert_eq!(
        got,
        vec![("L007".to_string(), 2), ("L007".to_string(), 2)]
    );
}

#[test]
fn l007_panicking_partial_cmp_chain_fires() {
    let src = "pub fn cmp(a: f32, b: f32) -> std::cmp::Ordering {\n    a.partial_cmp(&b).unwrap()\n}\n";
    // the chain is both a panic site (L001) and a NaN hazard (L007)
    assert_eq!(
        rules_at(LIB, src),
        vec![("L001".to_string(), 2), ("L007".to_string(), 2)]
    );
}

#[test]
fn l007_partial_cmp_comparator_fires_and_total_cmp_is_clean() {
    let bad = "pub fn s(v: &mut [f32]) {\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));\n}\n";
    assert_eq!(rules_at(LIB, bad), vec![("L007".to_string(), 2)]);
    let good = "pub fn s(v: &mut [f32]) {\n    v.sort_by(|a, b| a.total_cmp(b));\n}\n";
    assert_eq!(rules_at(LIB, good), vec![]);
}

#[test]
fn l007_allow_with_reason_and_test_code_are_exempt() {
    let src = "pub fn f(a: f32) -> bool {\n    // lint: allow(L007) exact-zero sparsity check\n    a == 0.0\n}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assert!(super::f(0.0) == true); let x = 1.0; let _ = x == 1.0; }\n}\n";
    assert_eq!(rules_at(LIB, src), vec![]);
}

#[test]
fn l007_integer_comparisons_are_clean() {
    let src = "pub fn f(a: usize, n: u32) -> bool {\n    a == 0 && n != 3 && a <= 4\n}\n";
    assert_eq!(rules_at(LIB, src), vec![]);
}

// ----------------------------------------------------------------- L011

#[test]
fn l011_raw_atomics_outside_obs_sync_fire_with_file_and_line() {
    // imported, fully qualified, and through a nested `use` group
    let serve = "use std::sync::atomic::AtomicU64;\n\
                 pub fn f() -> bool {\n\
                 \x20   std::sync::atomic::AtomicBool::new(false).into_inner()\n\
                 }\n\
                 use std::sync::{atomic::Ordering, Arc};\n";
    // PR 8's two real bugs (the Relaxed-published ring head, the torn
    // exemplar slots) both started as raw `AtomicU64` fields; naming
    // the type there is now the error
    let ring = "use std::sync::atomic::{AtomicU64, Ordering};\npub struct Ring { head: AtomicU64 }\n";
    let hist = "pub struct Slot { version: std::sync::atomic::AtomicU64 }\n";
    for (path, src, lines) in [
        ("crates/serve/src/x.rs", serve, vec![1, 3, 5]),
        ("crates/obs/src/ring.rs", ring, vec![1]),
        ("crates/obs/src/hist.rs", hist, vec![1]),
    ] {
        let vs = lint_source(path, src);
        let got: Vec<(&str, &str, u32)> =
            vs.iter().map(|v| (v.file.as_str(), v.rule.as_str(), v.line)).collect();
        let want: Vec<(&str, &str, u32)> = lines.iter().map(|&l| (path, "L011", l)).collect();
        assert_eq!(got, want);
        assert!(vs[0].message.contains("crates/obs/src/sync.rs"), "{}", vs[0].message);
    }
}

#[test]
fn l011_is_clean_in_obs_sync_tests_and_non_library_files() {
    let src = "use std::sync::atomic::{AtomicU64, Ordering};\npub struct S(AtomicU64);\n";
    assert_eq!(rules_at("crates/obs/src/sync.rs", src), vec![]);
    for path in [
        "crates/demo/src/main.rs",
        "crates/demo/src/bin/tool.rs",
        "crates/demo/benches/b.rs",
        "crates/demo/tests/it.rs",
        "examples/quickstart.rs",
    ] {
        assert_eq!(rules_at(path, src), vec![], "{path}");
    }
    let in_test = "#[cfg(test)]\nmod tests {\n    use std::sync::atomic::{AtomicUsize, Ordering};\n}\n";
    assert_eq!(rules_at(LIB, in_test), vec![]);
    // a variable or field that merely is called `atomic` is not a path
    let named = "pub struct S { atomic: bool }\npub fn f(s: &S) -> bool { s.atomic }\n";
    assert_eq!(rules_at(LIB, named), vec![]);
}

#[test]
fn l011_is_suppressible_only_by_an_allow_with_reason() {
    let bare = "// lint: allow(L011)\nuse std::sync::atomic::AtomicU64;\n";
    let got = rules_at(LIB, bare);
    assert!(got.contains(&("L000".to_string(), 1)), "got {got:?}");
    assert!(got.contains(&("L011".to_string(), 2)), "got {got:?}");
    let ok = "// lint: allow(L011) fixture: FFI handshake needs a raw AtomicU32\nuse std::sync::atomic::AtomicU32;\n";
    assert_eq!(rules_at(LIB, ok), vec![]);
}

// ------------------------------------------------------- JSON golden

#[test]
fn json_report_is_golden_stable() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    emblookup_obs::global().counter(\"train.epochs\");\n    x.unwrap()\n}\n";
    let violations = lint_source("crates/demo/src/a \"b.rs", src);
    let got = emblookup_lint::report::render_json(&violations, &[], 1);
    let want = concat!(
        "{\"violations\":[",
        "{\"file\":\"crates/demo/src/a \\\"b.rs\",\"line\":2,\"rule\":\"L003\",",
        "\"message\":\"metric name literal \\\"train.epochs\\\"; use emblookup_obs::names::TRAIN_EPOCHS\",",
        "\"suggestion\":\"TRAIN_EPOCHS\"},",
        "{\"file\":\"crates/demo/src/a \\\"b.rs\",\"line\":3,\"rule\":\"L001\",",
        "\"message\":\".unwrap() can panic; propagate a Result or add `// lint: allow(L001) reason`\"}",
        "],\"warnings\":[],\"files_checked\":1,",
        "\"rule_counts\":{\"L000\":0,\"L001\":1,\"L002\":0,\"L003\":1,\"L004\":0,\"L005\":0,\"L006\":0,",
        "\"L007\":0,\"L008\":0,\"L009\":0,\"L010\":0,\"L011\":0,\"L012\":0}}"
    );
    assert_eq!(got, want);
}

// ---------------------------------------------------------------------
// on-disk load: a workspace read from the filesystem reports what the
// in-memory fixtures report

#[test]
fn workspace_loaded_from_disk_reports_every_rule_family() {
    use emblookup_lint::engine::obs_name_registry;
    use emblookup_lint::workspace::Workspace;
    use std::fs;

    let root = std::env::temp_dir().join(format!("emblookup-lint-load-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(root.join("crates/kg/src")).expect("mkdir");
    fs::create_dir_all(root.join("crates/ann/src")).expect("mkdir");
    fs::write(
        root.join("Cargo.toml"),
        "[package]\nname = \"emblookup\"\n[workspace]\nmembers = [\"crates/*\"]\n",
    )
    .expect("write");
    fs::create_dir_all(root.join("src")).expect("mkdir");
    fs::write(root.join("src/lib.rs"), "pub use emblookup_kg::describe;\n").expect("write");
    fs::write(
        root.join("crates/kg/Cargo.toml"),
        "[package]\nname = \"emblookup-kg\"\n",
    )
    .expect("write");
    fs::write(
        root.join("crates/kg/src/lib.rs"),
        "pub fn describe(n: u32) -> String { format!(\"node {n}\") }\n",
    )
    .expect("write");
    fs::write(
        root.join("crates/ann/Cargo.toml"),
        "[package]\nname = \"emblookup-ann\"\n[dependencies]\nemblookup-kg.workspace = true\n",
    )
    .expect("write");
    fs::write(
        root.join("crates/ann/src/flat.rs"),
        "// lint: hot-path\nuse emblookup_kg::describe;\n\
         // lint: allow(L005) fixture: stale on purpose\n\
         pub fn score(n: u32) -> usize { describe(n).len() }\n\
         pub fn dead(x: Option<u32>) -> u32 { x.unwrap() }\n",
    )
    .expect("write");
    // a raw atomic outside obs::sync (L011) and an undeadlined
    // blocking site under a serve handler (L012)
    fs::create_dir_all(root.join("crates/serve/src")).expect("mkdir");
    fs::write(
        root.join("crates/serve/Cargo.toml"),
        "[package]\nname = \"emblookup-serve\"\n",
    )
    .expect("write");
    fs::write(
        root.join("crates/serve/src/server.rs"),
        "use std::sync::atomic::{AtomicBool, Ordering};\n\
         pub struct St {\n\
         \x20   stop: AtomicBool,\n\
         }\n\
         impl St {\n\
         \x20   pub fn raise(&self) { self.stop.store(true, Ordering::Relaxed); }\n\
         }\n\
         pub fn handle_lookup(req: u32) -> u32 { rx.recv(); req }\n",
    )
    .expect("write");

    let report = Workspace::load(&root, &obs_name_registry()).expect("load").check();

    // the fixture exercises raw per-file rules (L001), interprocedural
    // effects (L010), atomics confinement (L011), deadline propagation
    // (L012) and the stale-allow audit
    assert!(!report.warnings.is_empty(), "fixture must produce a stale-allow warning");
    for rule in ["L001", "L010", "L011", "L012"] {
        assert!(
            report.violations.iter().any(|v| v.rule == rule),
            "fixture must produce a {rule} diagnostic: {:?}",
            report.violations
        );
    }

    let _ = fs::remove_dir_all(&root);
}
