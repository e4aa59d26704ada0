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
//!   —         lint                   (off the DAG: obs only)
//! ```
//!
//! A crate may depend only on strictly lower ranks. The manifest edges
//! (`[dependencies]` and `[dev-dependencies]`) are what is checked: an
//! `emblookup_*::` path in the source only compiles when such an edge
//! exists. `emblookup-lint` is special-cased: its one workspace edge is
//! to obs (for the JSON reader), and nothing may depend on it.

use crate::cargo::Manifest;
use crate::Violation;

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

/// The linter: not in the layer DAG, and a leaf no crate may depend on.
const ISOLATED: &str = "emblookup-lint";

/// The one workspace crate the linter may depend on.
const ISOLATED_DEP: &str = "emblookup-obs";

/// Rank of a crate in the declared DAG, `None` for unknown crates and
/// for the lint crate.
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
    if krate == ISOLATED && dep != ISOLATED_DEP {
        return Err(format!(
            "`{ISOLATED}` is isolated: its one workspace dependency is `{ISOLATED_DEP}`"
        ));
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

    /// The L005 verdicts on `krate` depending on each of `deps`, all of
    /// them workspace members.
    fn check(krate: &str, deps: &[&str]) -> Vec<Violation> {
        let member = |name: &str, deps: &[&str]| {
            let lines: String = deps.iter().map(|d| format!("{d}.workspace = true\n")).collect();
            let text = format!("[package]\nname = \"{name}\"\n[dependencies]\n{lines}");
            parse_manifest("Cargo.toml", Path::new("."), &text).expect("manifest")
        };
        let mut manifests = vec![member(krate, deps)];
        manifests.extend(deps.iter().map(|d| member(d, &[])));
        check_manifests(&manifests)
    }

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
    fn downward_edges_are_clean() {
        assert!(check("emblookup-core", &["emblookup-ann", "rand"]).is_empty());
    }

    #[test]
    fn depending_on_lint_is_flagged() {
        let v = check("emblookup-core", &["emblookup-lint"]);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn lint_may_depend_on_obs_and_on_no_other_workspace_crate() {
        let v = check("emblookup-lint", &["emblookup-obs", "emblookup-kg"]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 5, "the kg edge, not the obs one");
        assert!(v[0].message.contains("isolated"), "{}", v[0].message);
    }
}
