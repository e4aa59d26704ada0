//! Workspace-level analysis: loads every manifest and lintable source
//! file once, then runs the per-file passes (L003, L004, L007), the
//! layering pass (L005) and the API snapshot (L006) over the shared
//! model. This is what the `emblookup-lint` binary drives.
//!
//! Allow-directive suppression is **central**: every pass returns raw
//! violations, and this module matches them against the owning file's
//! `// lint: allow` directives. That single choke point is what makes
//! the stale-allow audit possible — a directive that suppressed
//! nothing anywhere in the run is reported as a warning. Manifest-side
//! L005 violations bypass suppression by construction.

use crate::api::Snapshot;
use crate::cargo::{read_manifests, Manifest};
use crate::engine::{NameRegistry, Violation};
use crate::facts::FileFacts;
use crate::{layers, walk};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

/// The loaded workspace model.
pub struct Workspace {
    /// Absolute workspace root.
    pub root: PathBuf,
    /// Parsed member manifests (root package + `crates/*`).
    pub manifests: Vec<Manifest>,
    /// Extracted per-file facts, sorted by path.
    pub files: Vec<FileFacts>,
}

/// Outcome of a full check: hard errors and advisory warnings.
pub struct Report {
    /// Rule violations after central allow suppression (exit-code 1).
    pub violations: Vec<Violation>,
    /// Stale-allow audit findings (advisory; `rule` is the id the
    /// directive names).
    pub warnings: Vec<Violation>,
}

impl Workspace {
    /// Reads manifests and sources under `root`, extracting facts for
    /// each file.
    pub fn load(root: &Path, registry: &NameRegistry) -> Result<Workspace, String> {
        let manifests = read_manifests(root)
            .map_err(|e| format!("reading manifests under {}: {e}", root.display()))?;
        let rels = walk::lintable_files(root)
            .map_err(|e| format!("walking {}: {e}", root.display()))?;
        let mut files = Vec::with_capacity(rels.len());
        for rel_path in rels {
            let rel = rel_path.to_string_lossy().replace('\\', "/");
            let src = std::fs::read_to_string(root.join(&rel_path))
                .map_err(|e| format!("reading {rel}: {e}"))?;
            let (krate, src_rel) = owner(&manifests, &rel);
            files.push(FileFacts::extract(&rel, &src_rel, &krate, &src, registry));
        }
        Ok(Workspace { root: root.to_path_buf(), manifests, files })
    }

    /// In-memory constructor for fixture tests: no filesystem.
    pub fn from_parts(manifests: Vec<Manifest>, files: Vec<FileFacts>) -> Workspace {
        Workspace { root: PathBuf::new(), manifests, files }
    }

    /// Runs every pass and applies allow suppression centrally. (L006
    /// runs separately via [`Workspace::api_snapshot`] +
    /// [`crate::api::diff`] because it needs the checked-in lockfile.)
    pub fn check(&self) -> Report {
        // manifest-side L005: no source line to hang an allow on —
        // never suppressible
        let mut violations = layers::check_manifests(&self.manifests);

        // raw per-file + layering findings
        let mut raw: Vec<Violation> = Vec::new();
        for f in &self.files {
            raw.extend(f.raw.iter().cloned());
            if !f.krate.is_empty() {
                raw.extend(layers::check_refs(&f.rel, &f.krate, &f.refs));
            }
        }

        // central suppression + usage tracking
        let by_rel: HashMap<&str, &FileFacts> =
            self.files.iter().map(|f| (f.rel.as_str(), f)).collect();
        let mut used: HashSet<(String, String, u32)> = HashSet::new();
        for v in raw {
            let decl = by_rel
                .get(v.file.as_str())
                .and_then(|f| f.allows.iter().find(|d| d.covers(&v.rule, v.line)));
            match decl {
                Some(d) => {
                    used.insert((v.file.clone(), d.rule.clone(), d.line));
                }
                None => violations.push(v),
            }
        }

        // stale-allow audit: directives that suppressed nothing
        let mut warnings = Vec::new();
        for f in &self.files {
            for d in &f.allows {
                if !used.contains(&(f.rel.clone(), d.rule.clone(), d.line)) {
                    warnings.push(Violation {
                        file: f.rel.clone(),
                        line: d.line,
                        rule: d.rule.clone(),
                        message: format!(
                            "stale `// lint: allow({})`: no {} diagnostic here any more; \
                             remove the directive",
                            d.rule, d.rule
                        ),
                        suggestion: None,
                    });
                }
            }
        }

        sort(&mut violations);
        sort(&mut warnings);
        Report { violations, warnings }
    }

    /// Builds the current public-API snapshot over every library file.
    pub fn api_snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        for f in &self.files {
            if f.krate.is_empty() {
                continue;
            }
            snap.add_items(&f.krate, &f.rel, &f.src_rel, f.class, &f.api);
        }
        snap
    }
}

/// Stable report order: file, then line, then rule.
pub fn sort(violations: &mut [Violation]) {
    violations.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then_with(|| a.rule.cmp(&b.rule))
    });
}

/// Resolves a workspace-relative source path to its owning package and
/// its path inside that package's `src/`.
fn owner(manifests: &[Manifest], rel: &str) -> (String, String) {
    for m in manifests {
        let prefix = if m.dir == Path::new(".") {
            "src/".to_string()
        } else {
            format!("{}/src/", m.dir.to_string_lossy().replace('\\', "/"))
        };
        if let Some(inner) = rel.strip_prefix(&prefix) {
            return (m.name.clone(), inner.to_string());
        }
    }
    (String::new(), rel.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cargo::parse_manifest;

    fn manifest(name: &str, dir: &str) -> Manifest {
        parse_manifest(
            &format!("{dir}/Cargo.toml"),
            Path::new(dir),
            &format!("[package]\nname = \"{name}\"\n"),
        )
        .expect("manifest")
    }

    #[test]
    fn owner_maps_crates_and_root_src() {
        let ms = vec![manifest("emblookup", "."), manifest("emblookup-ann", "crates/ann")];
        assert_eq!(
            owner(&ms, "crates/ann/src/topk.rs"),
            ("emblookup-ann".to_string(), "topk.rs".to_string())
        );
        assert_eq!(
            owner(&ms, "src/lib.rs"),
            ("emblookup".to_string(), "lib.rs".to_string())
        );
        assert_eq!(owner(&ms, "crates/unknown/src/lib.rs").0, "");
    }

    #[test]
    fn central_suppression_covers_layering_and_tracks_usage() {
        let src = "// lint: allow(L005) transitional: moving to core in PR 9\n\
                   use emblookup_core::EmbLookup;\npub fn f() {}\n";
        let f = FileFacts::fixture("crates/tensor/src/lib.rs", "emblookup-tensor", src);
        let ws = Workspace::from_parts(
            vec![manifest("emblookup-tensor", "crates/tensor"), manifest("emblookup-core", "crates/core")],
            vec![f],
        );
        let report = ws.check();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.warnings.is_empty(), "used allow must not be stale: {:?}", report.warnings);
    }

    #[test]
    fn stale_allow_is_warned_not_errored() {
        let src = "// lint: allow(L007) left over from a removed comparison\npub fn f() {}\n";
        let f = FileFacts::fixture("crates/kg/src/lib.rs", "emblookup-kg", src);
        let ws = Workspace::from_parts(vec![manifest("emblookup-kg", "crates/kg")], vec![f]);
        let report = ws.check();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.warnings.len(), 1, "{:?}", report.warnings);
        assert_eq!(report.warnings[0].rule, "L007");
        assert_eq!(report.warnings[0].line, 1);
        assert!(report.warnings[0].message.contains("stale"), "{}", report.warnings[0].message);
    }
}
