//! The single-source rule documentation table behind `--explain` and the
//! CONTRIBUTING.md catalog check.
//!
//! The per-file rules (L003, L004, L007) live in [`crate::engine`]; the
//! workspace rules L005/L006 in [`crate::layers`] / [`crate::api`].

/// Documentation for one rule: rationale, example, escape-hatch policy.
/// The single source for `--explain` and the CONTRIBUTING.md catalog
/// check.
pub struct RuleDoc {
    /// Rule id (`L003`…).
    pub id: &'static str,
    /// One-line title.
    pub title: &'static str,
    /// What the rule enforces and why.
    pub rationale: &'static str,
    /// A minimal offending example.
    pub example: &'static str,
    /// When (and how) an allow is acceptable.
    pub escape: &'static str,
}

/// Every rule the engine can emit, in id order.
pub const RULE_DOCS: &[RuleDoc] = &[
    RuleDoc {
        id: "L003",
        title: "metric/span name provenance",
        rationale: "Metric and span names come from `emblookup_obs::names` constants, so the \
                    observable surface is greppable and typo-proof. Any literal equal to a \
                    registered name, or an unregistered literal in a metric-position call, is a \
                    violation.",
        example: "obs.counter(\"lookup_cache_hits\", 1); // literal, not names::CACHE_HITS",
        escape: "Rarely allowed; register the name in `emblookup_obs::names` instead. \
                 The diagnostic's suggestion names the constant to use.",
    },
    RuleDoc {
        id: "L004",
        title: "task-marker hygiene",
        rationale: "`TODO`/`FIXME` comments must carry an issue reference (`#123` or a URL); \
                    unanchored markers are where work goes to be forgotten.",
        example: "// TODO: handle the empty shard case",
        escape: "None; add the reference or do the work.",
    },
    RuleDoc {
        id: "L005",
        title: "crate layering",
        rationale: "Dependencies must flow down the declared layer DAG (DESIGN.md §1.1): \
                    rand/obs → pool → text → ann → tensor → kg → embed → core → serve → \
                    baselines/semtab/bench → emblookup (ann sits below tensor so the matmul \
                    inner loop can dispatch through ann's SIMD kernel layer, DESIGN.md §10). \
                    Both manifest edges and source-level `emblookup_*::` paths are checked. \
                    `emblookup-lint` is isolated (obs only, nothing depends on it).",
        example: "// in crates/tensor\nuse emblookup_core::EmbLookup;",
        escape: "Source-side escapes need `// lint: allow(L005) reason` and are intended for \
                 short-lived transitions; manifest edges have no escape.",
    },
    RuleDoc {
        id: "L006",
        title: "public-API drift",
        rationale: "The normalized `pub` surface of every library crate is snapshotted into \
                    `API.lock`; `--api-check` fails on any difference. The lockfile hunk in a PR \
                    is the reviewable record of the API change.",
        example: "pub fn new_helper() {} // not yet blessed into API.lock",
        escape: "Not an allow — run `emblookup-lint --api-bless` and commit the `API.lock` diff. \
                 Never hand-edit the lockfile.",
    },
    RuleDoc {
        id: "L007",
        title: "float discipline",
        rationale: "No `==`/`!=` on visible floats, no `.partial_cmp(..).unwrap()` chains, no \
                    `partial_cmp`-based comparators in sorts (inconsistent on NaN — and a \
                    panicking comparator aborts the pool worker mid-merge). Use `total_cmp` or \
                    an explicit tolerance.",
        example: "xs.sort_by(|a, b| a.partial_cmp(b).unwrap());",
        escape: "Allowed only where NaN is structurally impossible and the reason says why, e.g. \
                 comparing against a compile-time constant.",
    },
];

/// Looks up the documentation for `id` (case-sensitive, `L007` style).
pub fn rule_doc(id: &str) -> Option<&'static RuleDoc> {
    RULE_DOCS.iter().find(|d| d.id == id)
}

/// Renders the `--explain` text for `id`.
pub fn explain(id: &str) -> Option<String> {
    let d = rule_doc(id)?;
    Some(format!(
        "{} — {}\n\nRationale\n  {}\n\nExample (offending)\n{}\n\nEscape hatch\n  {}\n",
        d.id,
        d.title,
        d.rationale,
        d.example
            .lines()
            .map(|l| format!("  {l}"))
            .collect::<Vec<_>>()
            .join("\n"),
        d.escape,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RULES;

    #[test]
    fn every_rule_has_a_doc_and_every_doc_a_rule() {
        let doc_ids: Vec<&str> = RULE_DOCS.iter().map(|d| d.id).collect();
        for r in RULES {
            assert!(doc_ids.contains(r), "rule {r} missing from RULE_DOCS");
        }
        for id in &doc_ids {
            assert!(RULES.contains(id), "doc {id} has no corresponding rule");
        }
        let mut sorted = doc_ids.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, doc_ids, "RULE_DOCS must stay in id order");
    }

    #[test]
    fn explain_renders_all_sections() {
        let text = explain("L007").expect("L007 documented");
        for needle in ["L007", "Rationale", "Example", "Escape hatch"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
        assert!(explain("L999").is_none());
    }

    #[test]
    fn contributing_catalog_documents_every_rule() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../CONTRIBUTING.md");
        let text = std::fs::read_to_string(path).expect("CONTRIBUTING.md readable");
        for d in RULE_DOCS {
            let row = format!("| {} |", d.id);
            assert!(
                text.contains(&row),
                "CONTRIBUTING.md static-analysis catalog is missing a `{row}` row — \
                 add one (the table and RULE_DOCS must stay in sync)"
            );
        }
    }
}
