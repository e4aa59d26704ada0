//! Workspace-level analysis: reads every member manifest and every
//! library source file once, then checks the manifests' edges against
//! the layer DAG (L005) and the public-API snapshot against `API.lock`
//! (L006). This is what the `emblookup-lint` binary drives.

use crate::api::{self, Snapshot};
use crate::cargo::{read_manifests, Manifest};
use crate::layers;
use crate::source::Violation;
use crate::walk;
use std::path::Path;

/// The loaded workspace model.
pub struct Workspace {
    /// Parsed member manifests (root package + `crates/*`).
    manifests: Vec<Manifest>,
    /// The public-API snapshot of every library file.
    pub api: Snapshot,
    /// Number of source files read.
    pub files: usize,
}

impl Workspace {
    /// Reads manifests and sources under `root`.
    pub fn load(root: &Path) -> Result<Workspace, String> {
        let manifests = read_manifests(root)
            .map_err(|e| format!("reading manifests under {}: {e}", root.display()))?;
        let rels = walk::lintable_files(root)
            .map_err(|e| format!("walking {}: {e}", root.display()))?;
        let mut api = Snapshot::default();
        for rel_path in &rels {
            let rel = rel_path.to_string_lossy().replace('\\', "/");
            let src = std::fs::read_to_string(root.join(rel_path))
                .map_err(|e| format!("reading {rel}: {e}"))?;
            if let Some((krate, src_rel)) = owner(&manifests, &rel) {
                api.add_file(krate, &rel, src_rel, &src);
            }
        }
        Ok(Workspace { manifests, api, files: rels.len() })
    }

    /// Runs both rules: the manifest edges against the layer DAG and the
    /// snapshot against `lock_text`, the checked-in `API.lock`. Sorted by
    /// file, then line, then rule.
    pub fn check(&self, lock_text: &str) -> Vec<Violation> {
        let mut violations = layers::check_manifests(&self.manifests);
        violations.extend(api::diff(lock_text, &self.api));
        violations.sort_by(|a, b| {
            a.file.cmp(&b.file).then(a.line.cmp(&b.line)).then_with(|| a.rule.cmp(b.rule))
        });
        violations
    }
}

/// Resolves a workspace-relative source path to its owning package and
/// its path inside that package's `src/`; `None` outside every package.
fn owner<'a>(manifests: &'a [Manifest], rel: &'a str) -> Option<(&'a str, &'a str)> {
    manifests.iter().find_map(|m| {
        let prefix = if m.dir == Path::new(".") {
            "src/".to_string()
        } else {
            format!("{}/src/", m.dir.to_string_lossy().replace('\\', "/"))
        };
        rel.strip_prefix(&prefix).map(|inner| (m.name.as_str(), inner))
    })
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
        assert_eq!(owner(&ms, "crates/ann/src/topk.rs"), Some(("emblookup-ann", "topk.rs")));
        assert_eq!(owner(&ms, "src/lib.rs"), Some(("emblookup", "lib.rs")));
        assert_eq!(owner(&ms, "crates/unknown/src/lib.rs"), None);
    }
}
