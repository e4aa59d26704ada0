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
        "// x == 0.5 discussed in a comment is fine\n",
        "/* a.partial_cmp(b).unwrap() in a block comment */\n",
        "pub fn f() -> &'static str {\n",
        "    \"compares x == 0.5\"\n",
        "}\n",
        "pub fn g() -> &'static str {\n",
        "    r#\"raw with \"x != 1.5\" inside\"#\n",
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
    let src = "#[cfg(not(test))]\npub fn f(x: f32) -> bool { x == 0.5 }\n";
    assert_eq!(rules_at(LIB, src), vec![("L007".to_string(), 2)]);
}

#[test]
fn allow_without_reason_is_no_allow() {
    let src = "pub fn f(x: f32) -> bool {\n    // lint: allow(L007)\n    x == 0.5\n}\n";
    assert_eq!(rules_at(LIB, src), vec![("L007".to_string(), 3)]);
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
    assert_eq!(rules_at(LIB, src), vec![("L007".to_string(), 2)]);
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

// ------------------------------------------------------- JSON golden

#[test]
fn json_report_is_golden_stable() {
    let src = "pub fn f(x: f32) -> bool {\n    emblookup_obs::global().counter(\"train.epochs\");\n    x == 0.5\n}\n";
    let violations = lint_source("crates/demo/src/a \"b.rs", src);
    let got = emblookup_lint::report::render_json(&violations, &[], 1);
    let want = concat!(
        "{\"violations\":[",
        "{\"file\":\"crates/demo/src/a \\\"b.rs\",\"line\":2,\"rule\":\"L003\",",
        "\"message\":\"metric name literal \\\"train.epochs\\\"; use emblookup_obs::names::TRAIN_EPOCHS\",",
        "\"suggestion\":\"TRAIN_EPOCHS\"},",
        "{\"file\":\"crates/demo/src/a \\\"b.rs\",\"line\":3,\"rule\":\"L007\",",
        "\"message\":\"float `==` comparison is NaN-hazardous; compare with a tolerance, use total_cmp, or add `// lint: allow(L007) reason`\"}",
        "],\"warnings\":[],\"files_checked\":1,",
        "\"rule_counts\":{\"L003\":1,\"L004\":0,\"L005\":0,\"L006\":0,\"L007\":1}}"
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
    for dir in ["src", "crates/kg/src", "crates/ann/src"] {
        fs::create_dir_all(root.join(dir)).expect("mkdir");
    }
    let files = [
        ("Cargo.toml", "[package]\nname = \"emblookup\"\n[workspace]\nmembers = [\"crates/*\"]\n"),
        ("src/lib.rs", "pub use emblookup_ann::score;\n"),
        ("crates/kg/Cargo.toml", "[package]\nname = \"emblookup-kg\"\n"),
        ("crates/kg/src/lib.rs", "pub fn up() -> usize { 1 }\n"),
        ("crates/ann/Cargo.toml", "[package]\nname = \"emblookup-ann\"\n"),
        // a layering inversion (L005): ann sits below kg
        ("crates/ann/src/up.rs", "pub fn up() -> usize { emblookup_kg::up() }\n"),
        // a float comparison (L007), an unanchored task marker (L004),
        // a metric literal (L003) and an allow that suppresses nothing
        (
            "crates/ann/src/lib.rs",
            "// TODO tighten\n\
             // lint: allow(L005) fixture: stale on purpose\n\
             pub fn score(n: u32) -> usize { emblookup_obs::global().counter(\"my.metric\"); n as usize }\n\
             pub fn same(x: f32) -> bool { x == 0.5 }\n",
        ),
    ];
    for (path, text) in files {
        fs::write(root.join(path), text).expect("write");
    }

    let report = Workspace::load(&root, &obs_name_registry()).expect("load").check();

    assert_eq!(report.warnings.len(), 1, "{:?}", report.warnings);
    assert!(report.warnings[0].message.contains("stale"), "{}", report.warnings[0].message);
    let got: Vec<(&str, &str, u32)> =
        report.violations.iter().map(|v| (v.file.as_str(), v.rule.as_str(), v.line)).collect();
    assert_eq!(
        got,
        [
            ("crates/ann/src/lib.rs", "L004", 1),
            ("crates/ann/src/lib.rs", "L003", 3),
            ("crates/ann/src/lib.rs", "L007", 4),
            ("crates/ann/src/up.rs", "L005", 1),
        ]
    );

    let _ = fs::remove_dir_all(&root);
}
