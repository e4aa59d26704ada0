//! L005 — crate-layering conformance.
//!
//! The workspace architecture is a DAG of layers (see DESIGN.md):
//!
//! ```text
//!   rank 0    rand, obs              (utility leaves)
//!   rank 5    pool                   (compute pool, over obs only)
//!   rank 10   text                   (string substrate)
//!   rank 12   ann                    (index structures + the SIMD kernel layer)
//!   rank 15   tensor                 (DL substrate; its matmul inner loop
//!                                     dispatches through ann's kernels)
//!   rank 20   kg                     (domain model)
//!   rank 25   embed                  (encoders, over kg/text/tensor)
//!   rank 40   core                   (the EmbLookup pipeline)
//!   rank 45   serve                  (hardened HTTP serving layer)
//!   rank 50+  baselines, semtab, bench  (consumers)
//!   rank 100  emblookup              (root facade crate)
//!   —         lint                   (isolated: no dependencies)
//! ```
//!
//! A crate may depend only on strictly lower ranks. The manifest edges
//! (`[dependencies]` and `[dev-dependencies]`) are what is checked: an
//! `emblookup_*::` path in the source only compiles when such an edge
//! exists. `emblookup-lint` is special-cased: it depends on no
//! workspace crate, and nothing may depend on it.

use crate::cargo::Manifest;
use crate::source::Violation;

/// Declared layer rank per workspace crate. Lower ranks are closer to
/// the leaves; an edge is legal iff `rank(dep) < rank(crate)`.
const LAYERS: &[(&str, u32)] = &[
    ("rand", 0),
    ("emblookup-obs", 0),
    ("emblookup-pool", 5),
    ("emblookup-text", 10),
    ("emblookup-ann", 12),
    ("emblookup-tensor", 15),
    ("emblookup-kg", 20),
    ("emblookup-embed", 25),
    ("emblookup-core", 40),
    ("emblookup-serve", 45),
    ("emblookup-baselines", 50),
    ("emblookup-semtab", 55),
    ("emblookup-bench", 60),
    ("emblookup", 100),
];

/// The isolated crate: not in the layer DAG at all.
const ISOLATED: &str = "emblookup-lint";

/// Rank of a crate in the declared DAG, `None` for unknown crates and
/// for the isolated lint crate.
fn rank(name: &str) -> Option<u32> {
    LAYERS.iter().find(|(n, _)| *n == name).map(|&(_, r)| r)
}

/// Is `dep` a legal dependency of `krate`? Returns an explanation when
/// it is not. Unknown (non-workspace) dependency names are legal — the
/// offline-build gate already constrains those.
fn judge(krate: &str, dep: &str) -> Result<(), String> {
    if dep == krate {
        return Ok(());
    }
    if dep == ISOLATED {
        return Err(format!("`{ISOLATED}` is isolated; no crate may depend on it"));
    }
    if krate == ISOLATED {
        return Err(format!("`{ISOLATED}` is isolated and depends on no workspace crate"));
    }
    let (Some(rk), Some(rd)) = (rank(krate), rank(dep)) else {
        return Ok(()); // non-workspace crate on either side
    };
    if rd < rk {
        Ok(())
    } else {
        Err(format!(
            "layering violation: `{krate}` (rank {rk}) may not depend on `{dep}` (rank {rd}); \
             the layer DAG flows rand/obs -> text -> ann -> tensor -> kg -> embed -> core -> \
             serve -> baselines/semtab/bench"
        ))
    }
}

/// Checks every manifest's dependency edges against the DAG.
pub fn check_manifests(manifests: &[Manifest]) -> Vec<Violation> {
    let workspace: Vec<&str> = manifests.iter().map(|m| m.name.as_str()).collect();
    let mut out = Vec::new();
    for m in manifests {
        for d in &m.deps {
            if !workspace.contains(&d.name.as_str()) {
                continue;
            }
            if let Err(why) = judge(&m.name, &d.name) {
                out.push(Violation {
                    file: m.path.clone(),
                    line: d.line,
                    rule: "L005",
                    message: if d.dev { format!("{why} (dev-dependency)") } else { why },
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cargo::parse_manifest;
    use std::path::Path;

    #[test]
    fn declared_dag_covers_every_workspace_crate_once() {
        let mut names: Vec<&str> = LAYERS.iter().map(|&(n, _)| n).collect();
        names.push(ISOLATED);
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate crate in LAYERS");
    }

    #[test]
    fn reversed_manifest_edge_is_flagged() {
        let text = "[package]\nname = \"emblookup-tensor\"\n[dependencies]\nemblookup-core.workspace = true\n";
        let m = parse_manifest("crates/tensor/Cargo.toml", Path::new("crates/tensor"), text)
            .expect("manifest");
        // pretend both crates are workspace members
        let core = parse_manifest(
            "crates/core/Cargo.toml",
            Path::new("crates/core"),
            "[package]\nname = \"emblookup-core\"\n",
        )
        .expect("manifest");
        let v = check_manifests(&[m, core]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "L005");
        assert_eq!(v[0].file, "crates/tensor/Cargo.toml");
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn downward_edges_are_clean() {
        let text = "[package]\nname = \"emblookup-core\"\n[dependencies]\nemblookup-ann.workspace = true\nrand.workspace = true\n";
        let m = parse_manifest("crates/core/Cargo.toml", Path::new("crates/core"), text)
            .expect("manifest");
        let ann = parse_manifest(
            "crates/ann/Cargo.toml",
            Path::new("crates/ann"),
            "[package]\nname = \"emblookup-ann\"\n",
        )
        .expect("manifest");
        let rand = parse_manifest(
            "crates/rand/Cargo.toml",
            Path::new("crates/rand"),
            "[package]\nname = \"rand\"\n",
        )
        .expect("manifest");
        assert!(check_manifests(&[m, ann, rand]).is_empty());
    }

    #[test]
    fn depending_on_lint_is_flagged() {
        let text = "[package]\nname = \"emblookup-core\"\n[dependencies]\nemblookup-lint.workspace = true\n";
        let m = parse_manifest("crates/core/Cargo.toml", Path::new("crates/core"), text)
            .expect("manifest");
        let lint = parse_manifest(
            "crates/lint/Cargo.toml",
            Path::new("crates/lint"),
            "[package]\nname = \"emblookup-lint\"\n",
        )
        .expect("manifest");
        let v = check_manifests(&[m, lint]);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn lint_depending_on_a_workspace_crate_is_flagged() {
        let text = "[package]\nname = \"emblookup-lint\"\n[dependencies]\nemblookup-obs.workspace = true\n";
        let m = parse_manifest("crates/lint/Cargo.toml", Path::new("crates/lint"), text)
            .expect("manifest");
        let obs = parse_manifest(
            "crates/obs/Cargo.toml",
            Path::new("crates/obs"),
            "[package]\nname = \"emblookup-obs\"\n",
        )
        .expect("manifest");
        let v = check_manifests(&[m, obs]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("isolated"), "{}", v[0].message);
    }
}
