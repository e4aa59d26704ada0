//! Workspace-level analysis: reads every member manifest and every
//! library crate's rustdoc JSON once, then checks the manifests' edges
//! against the layer DAG (L005) and the public-API snapshot against
//! `API.lock` (L006). This is what the `emblookup-lint` binary drives.

use crate::api::{self, Snapshot};
use crate::cargo::{read_manifests, Manifest};
use crate::{layers, rustdoc, Violation};
use std::path::{Path, PathBuf};

/// The loaded workspace model.
pub struct Workspace {
    /// Parsed member manifests (root package + `crates/*`).
    manifests: Vec<Manifest>,
    /// The public-API snapshot of every library crate.
    pub api: Snapshot,
    /// Number of library crates read.
    pub crates: usize,
}

impl Workspace {
    /// Reads the manifests under `root` and the rustdoc JSON of its
    /// library crates, built first with `cargo +nightly doc`.
    ///
    /// # Errors
    /// An unreadable manifest, a failed rustdoc build (a missing nightly
    /// included), or JSON the renderer cannot read.
    pub fn load(root: &Path) -> Result<Workspace, String> {
        let docs = rustdoc::build(root)?;
        Workspace::read(root, &docs)
    }

    /// Reads the manifests under `root` and, for every package with a
    /// `src/lib.rs`, its `<crate_name>.json` from the rustdoc output
    /// directory `docs`.
    ///
    /// # Errors
    /// As [`Workspace::load`], without the build.
    pub fn read(root: &Path, docs: &Path) -> Result<Workspace, String> {
        let manifests = read_manifests(root)
            .map_err(|e| format!("reading manifests under {}: {e}", root.display()))?;
        let mut api = Snapshot::default();
        let mut crates = 0;
        for m in manifests.iter().filter(|m| root.join(&m.dir).join("src/lib.rs").is_file()) {
            let path = docs.join(format!("{}.json", m.name.replace('-', "_")));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            api.add_crate(&m.name, &text).map_err(|e| format!("{}: {e}", path.display()))?;
            crates += 1;
        }
        Ok(Workspace { manifests, api, crates })
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

/// Locates the workspace root: walks up from `start` until a directory
/// containing both `Cargo.toml` and `crates/` appears.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    start.ancestors().find(|d| d.join("Cargo.toml").is_file() && d.join("crates").is_dir()).map(Path::to_path_buf)
}
