//! L006 — public-API drift gating against a checked-in `API.lock`.
//!
//! [`Snapshot`] is a normalized view of every library crate's `pub`
//! surface, as rustdoc's JSON gives it (`crate::rustdoc`): one line per
//! item, grouped into `[crate-name]` sections, sorted, deterministic. The
//! snapshot is serialized to `API.lock` at the workspace root by
//! `emblookup-lint --api-bless`; every other run re-derives it and
//! fails on any difference, so every surface change is explicit in a
//! PR's `API.lock` diff.
//!
//! Entry format: `<module-path> <signature>`, with `.` standing for the
//! crate root and the module path naming where the item is defined. The
//! lines are treated as opaque strings for diffing — nothing ever parses
//! them back into items.

use crate::rustdoc::public_items;
use crate::Violation;
use std::collections::BTreeMap;

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
    /// (crate, entry) → the file and line that declare it, for
    /// added-item diagnostics; sorted as the lockfile is.
    entries: BTreeMap<(String, String), (String, u32)>,
}

impl Snapshot {
    /// Adds the public API of the library crate `krate` from its rustdoc
    /// JSON text.
    ///
    /// # Errors
    /// Unparseable JSON, or a rustdoc `format_version` the renderer does
    /// not read.
    pub fn add_crate(&mut self, krate: &str, rustdoc_json: &str) -> Result<(), String> {
        for item in public_items(rustdoc_json)? {
            let module = if item.module.is_empty() { "." } else { item.module.as_str() };
            let entry = format!("{module} {}", item.signature);
            self.entries.entry((krate.to_string(), entry)).or_insert((item.file, item.line));
        }
        Ok(())
    }

    /// Serializes the snapshot to the `API.lock` text format.
    pub fn render(&self) -> String {
        let mut out = String::from(HEADER);
        let mut section = "";
        for (krate, entry) in self.entries.keys() {
            if krate != section {
                out.push_str(&format!("\n[{krate}]\n"));
                section = krate;
            }
            out.push_str(entry);
            out.push('\n');
        }
        out
    }
}

/// Parses lockfile text back into its `(crate, entry)` pairs, each with
/// its 1-based line for removed-item diagnostics.
fn parse_lock(text: &str) -> BTreeMap<(String, String), u32> {
    let mut entries = BTreeMap::new();
    let mut krate = String::new();
    for (n, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        if let Some(name) = line.strip_prefix('[') {
            krate = name.trim_end_matches(']').to_string();
        } else if !(line.is_empty() || line.starts_with('#') || krate.is_empty()) {
            entries.insert((krate.clone(), line.to_string()), n as u32 + 1);
        }
    }
    entries
}

/// Compares the current snapshot against lockfile text, producing one
/// L006 violation per drifted entry. Added items point at their source
/// `file:line`; removed items point at the stale `API.lock` line.
pub fn diff(lock_text: &str, current: &Snapshot) -> Vec<Violation> {
    let locked = parse_lock(lock_text);
    let violation = |file: &str, line: u32, (krate, entry): &(String, String), change: &str| Violation {
        file: file.to_string(),
        line,
        rule: "L006",
        message: format!(
            "public API of `{krate}` changed without bless: {change} `{entry}` \
             (run `emblookup-lint --api-bless` and commit {LOCK_FILE})"
        ),
    };
    let added = current.entries.iter().filter(|(key, _)| !locked.contains_key(*key));
    let removed = locked.iter().filter(|(key, _)| !current.entries.contains_key(*key));
    added
        .map(|(key, (file, line))| violation(file, *line, key, "added"))
        .chain(removed.map(|(key, &line)| violation(LOCK_FILE, line, key, "removed")))
        .collect()
}
