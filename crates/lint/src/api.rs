//! L006 — public-API drift gating against a checked-in `API.lock`.
//!
//! [`Snapshot`] is a normalized view of every library crate's `pub`
//! surface (from [`crate::parser::public_items`]): one line per item,
//! grouped into `[crate-name]` sections, sorted, deterministic. The
//! snapshot is serialized to `API.lock` at the workspace root by
//! `emblookup-lint --api-bless`; every other run re-derives it and
//! fails on any difference, so every surface change is explicit in a
//! PR's `API.lock` diff.
//!
//! Entry format: `<module-path> <signature>`, with `.` standing for the
//! crate root. The lines are treated as opaque strings for diffing —
//! nothing ever parses them back into items.

use crate::parser::public_items;
use crate::source::{is_library, SourceFile, Violation};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Name of the lockfile at the workspace root.
pub const LOCK_FILE: &str = "API.lock";

const HEADER: &str = "\
# EmbLookup public-API lockfile — maintained by `emblookup-lint` (rule L006).
# One line per public item: `<module-path> <normalized signature>`, `.` = crate root.
# CI fails on any drift; regenerate deliberately with `emblookup-lint --api-bless`.
";

/// A normalized public-API snapshot of the workspace.
#[derive(Debug, Default)]
pub struct Snapshot {
    /// crate name → sorted, deduplicated entry lines.
    sections: BTreeMap<String, BTreeSet<String>>,
    /// (crate, entry) → first source occurrence, for added-item
    /// diagnostics.
    provenance: HashMap<(String, String), (String, u32)>,
}

/// Module path of a file inside its crate's `src/`: `lib.rs` → ``,
/// `topk.rs` → `topk`, `foo/mod.rs` → `foo`, `foo/bar.rs` → `foo::bar`.
fn file_module(src_rel: &str) -> String {
    let trimmed = src_rel.strip_suffix(".rs").unwrap_or(src_rel);
    let mut parts: Vec<&str> = trimmed.split('/').collect();
    match parts.last().copied() {
        Some("lib") | Some("mod") => {
            parts.pop();
        }
        _ => {}
    }
    parts.join("::")
}

impl Snapshot {
    /// Adds the source text of one file belonging to `krate`. `rel` is
    /// the workspace-relative path; `src_rel` the path inside `src/`.
    /// Binaries, tests and examples have no library surface and add
    /// nothing.
    pub fn add_file(&mut self, krate: &str, rel: &str, src_rel: &str, src: &str) {
        if !is_library(rel) {
            return;
        }
        let base = file_module(src_rel);
        for item in public_items(&SourceFile::parse(src)) {
            let module = match (base.as_str(), item.module.as_str()) {
                ("", "") => ".".to_string(),
                ("", m) => m.to_string(),
                (b, "") => b.to_string(),
                (b, m) => format!("{b}::{m}"),
            };
            let entry = format!("{module} {}", item.signature);
            self.provenance
                .entry((krate.to_string(), entry.clone()))
                .or_insert_with(|| (rel.to_string(), item.line));
            self.sections.entry(krate.to_string()).or_default().insert(entry);
        }
    }

    /// Serializes the snapshot to the `API.lock` text format.
    pub fn render(&self) -> String {
        let mut out = String::from(HEADER);
        for (krate, entries) in &self.sections {
            out.push('\n');
            out.push_str(&format!("[{krate}]\n"));
            for e in entries {
                out.push_str(e);
                out.push('\n');
            }
        }
        out
    }
}

/// Per-crate sorted entry sets, as stored in the lockfile.
type LockSections = BTreeMap<String, BTreeSet<String>>;
/// 1-based lockfile line of each `(crate, entry)` pair, for diagnostics.
type LockLines = HashMap<(String, String), u32>;

/// Parses lockfile text back into sections, remembering each entry's
/// 1-based line for removed-item diagnostics.
fn parse_lock(text: &str) -> (LockSections, LockLines) {
    let mut sections: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut lines: HashMap<(String, String), u32> = HashMap::new();
    let mut current = String::new();
    for (n, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix('[') {
            current = name.trim_end_matches(']').to_string();
            sections.entry(current.clone()).or_default();
            continue;
        }
        if current.is_empty() {
            continue; // stray line before any section; ignore
        }
        sections.entry(current.clone()).or_default().insert(line.to_string());
        lines.insert((current.clone(), line.to_string()), n as u32 + 1);
    }
    (sections, lines)
}

/// Compares the current snapshot against lockfile text, producing one
/// L006 violation per drifted entry. Added items point at their source
/// `file:line`; removed items point at the stale `API.lock` line.
pub fn diff(lock_text: &str, current: &Snapshot) -> Vec<Violation> {
    let (locked, lock_lines) = parse_lock(lock_text);
    let empty = BTreeSet::new();
    let mut out = Vec::new();

    let all_crates: BTreeSet<&String> =
        locked.keys().chain(current.sections.keys()).collect();
    for krate in all_crates {
        let was = locked.get(krate).unwrap_or(&empty);
        let now = current.sections.get(krate).unwrap_or(&empty);
        for added in now.difference(was) {
            let (file, line) = current
                .provenance
                .get(&(krate.clone(), added.clone()))
                .cloned()
                .unwrap_or_else(|| (LOCK_FILE.to_string(), 0));
            out.push(Violation {
                file,
                line,
                rule: "L006",
                message: format!(
                    "public API of `{krate}` changed without bless: added `{added}` \
                     (run `emblookup-lint --api-bless` and commit {LOCK_FILE})"
                ),
            });
        }
        for removed in was.difference(now) {
            let line = lock_lines
                .get(&(krate.clone(), removed.clone()))
                .copied()
                .unwrap_or(0);
            out.push(Violation {
                file: LOCK_FILE.to_string(),
                line,
                rule: "L006",
                message: format!(
                    "public API of `{krate}` changed without bless: removed `{removed}` \
                     (run `emblookup-lint --api-bless` and commit {LOCK_FILE})"
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(krate: &str, src_rel: &str, src: &str) -> Snapshot {
        let mut s = Snapshot::default();
        s.add_file(krate, &format!("crates/x/src/{src_rel}"), src_rel, src);
        s
    }

    #[test]
    fn file_module_mapping() {
        assert_eq!(file_module("lib.rs"), "");
        assert_eq!(file_module("topk.rs"), "topk");
        assert_eq!(file_module("foo/mod.rs"), "foo");
        assert_eq!(file_module("foo/bar.rs"), "foo::bar");
    }

    #[test]
    fn snapshot_round_trips_through_render_and_diff() {
        let s = snap("emblookup-demo", "topk.rs", "pub fn top(k: usize) -> usize { k }\n");
        let text = s.render();
        assert!(text.contains("[emblookup-demo]"));
        assert!(text.contains("topk pub fn top(k: usize) -> usize"));
        assert!(diff(&text, &s).is_empty(), "identical snapshot must not drift");
    }

    #[test]
    fn added_item_points_at_source() {
        let old = snap("emblookup-demo", "topk.rs", "pub fn top(k: usize) -> usize { k }\n");
        let lock = old.render();
        let new = snap(
            "emblookup-demo",
            "topk.rs",
            "pub fn top(k: usize) -> usize { k }\npub fn extra() {}\n",
        );
        let v = diff(&lock, &new);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "L006");
        assert_eq!(v[0].file, "crates/x/src/topk.rs");
        assert_eq!(v[0].line, 2);
        assert!(v[0].message.contains("added"));
    }

    #[test]
    fn removed_item_points_at_lock_line() {
        let old = snap(
            "emblookup-demo",
            "topk.rs",
            "pub fn top(k: usize) -> usize { k }\npub fn extra() {}\n",
        );
        let lock = old.render();
        let new = snap("emblookup-demo", "topk.rs", "pub fn top(k: usize) -> usize { k }\n");
        let v = diff(&lock, &new);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].file, LOCK_FILE);
        assert!(v[0].line > 0, "should carry the stale lock line");
        assert!(v[0].message.contains("removed"));
    }

    #[test]
    fn changed_signature_reports_add_and_remove() {
        let old = snap("emblookup-demo", "lib.rs", "pub fn f(x: u32) {}\n");
        let lock = old.render();
        let new = snap("emblookup-demo", "lib.rs", "pub fn f(x: u64) {}\n");
        let v = diff(&lock, &new);
        assert_eq!(v.len(), 2, "{v:?}");
    }

    #[test]
    fn binaries_contribute_no_surface() {
        let s = snap("emblookup-demo", "main.rs", "pub fn exposed() {}\n");
        assert!(s.sections.is_empty());
    }
}
