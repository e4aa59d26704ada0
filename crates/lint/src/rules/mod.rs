//! Interprocedural rule families (L008–L010, L012) and the single-source
//! rule documentation table behind `--explain` and the CONTRIBUTING.md
//! catalog check.
//!
//! The per-file rules (L001–L004, L007, L011) live in [`crate::engine`]; the
//! workspace rules L005/L006 in [`crate::layers`] / [`crate::api`].
//! This module owns the rules that need the call graph
//! ([`crate::callgraph`]) and the propagated effect lattice
//! ([`crate::effects`]). All violations returned here are **raw** — the
//! workspace driver applies `// lint: allow` directives centrally so
//! their usage feeds the stale-allow audit.

pub mod deadline;
pub mod determinism;
pub mod hotpath;
pub mod locks;

use crate::callgraph::CallGraph;
use crate::cargo::Manifest;
use crate::effects::{propagate, Effects};
use crate::engine::Violation;
use crate::facts::FileFacts;

/// Documentation for one rule: rationale, example, escape-hatch policy.
/// The single source for `--explain` and the CONTRIBUTING.md catalog
/// check.
pub struct RuleDoc {
    /// Rule id (`L001`…).
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
        id: "L000",
        title: "well-formed lint directives",
        rationale: "A `// lint: allow(Lxxx)` without a reason, or with an unknown rule id, is \
                    itself an error: silent suppressions rot. L000 findings are never \
                    suppressible.",
        example: "// lint: allow(L001)\nvalue.unwrap();",
        escape: "None. Fix the directive (add the reason) or delete it.",
    },
    RuleDoc {
        id: "L001",
        title: "panic-freedom in library code",
        rationale: "No `unwrap()`/`expect()`/`panic!`/`unreachable!`/`todo!` in non-test library \
                    code. A panic in a pool worker poisons shared state and kills the request; \
                    the serving layer must degrade, not die. Binaries and test code are exempt.",
        example: "let v = map.get(&k).unwrap(); // library code",
        escape: "Allowed with a documented invariant the type system cannot express, e.g. \
                 `// lint: allow(L001) index is in-bounds by construction`. The allow also \
                 absolves transitive callers under L010.",
    },
    RuleDoc {
        id: "L002",
        title: "hot-path hygiene (textual)",
        rationale: "Files marked `// lint: hot-path` must not take locks, sleep, or heap-allocate \
                    per call (`format!`, `.to_string()`, `.to_owned()`, `Box::new`, \
                    `String::from`), and every `unsafe` block needs an `allow(L002)` soundness \
                    argument. `#[target_feature]` is confined to `kernels.rs`, the one module \
                    whose runtime dispatch guarantees the feature is present. Allocation and \
                    lock traffic in the search inner loop is the difference between the paper's \
                    latency numbers and noise.",
        example: "// lint: hot-path\npub fn search(&self) { let s = format!(\"q{}\", n); }",
        escape: "Allowed for setup/teardown code inside a hot-path file that is provably outside \
                 the per-query loop, with the reason stating so. See L010 for the \
                 interprocedural upgrade.",
    },
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
    RuleDoc {
        id: "L008",
        title: "determinism: unordered iteration and reduction order",
        rationale: "DESIGN.md §7 promises bit-identical results at `EMBLOOKUP_THREADS=1` vs \
                    default. `HashMap`/`HashSet` iteration order escaping into returned or \
                    collected sequences, metric emission, or float reductions silently breaks \
                    that contract — the exact bug class the `GradBuffer` fixed-index-order merge \
                    exists to prevent. The analyzer flags escaping iteration sites and float \
                    accumulation through atomic bit-casts; findings in code reachable from pool \
                    fan-out are annotated as such.",
        example: "pub fn ids(counts: &HashMap<u32, u32>) -> Vec<u32> {\n    counts.keys().copied().collect() // order differs run to run\n}",
        escape: "Sort before the order escapes (`v.sort_unstable()`), collect into a BTree \
                 container, or — when order is genuinely immaterial, e.g. a diagnostic dump — \
                 `// lint: allow(L008) order immaterial: <why>`.",
    },
    RuleDoc {
        id: "L009",
        title: "lock discipline: ordering and pool interaction",
        rationale: "Two families: (a) the workspace-wide lock-acquisition-order graph must be \
                    acyclic — an A→B edge in one crate and B→A in another is a deadlock waiting \
                    for load; (b) no lock guard may be held across a pool fan-out (`parallel_map`, \
                    `parallel_map_with`, `scatter`, `scatter_grained`) or \
                    a blocking call — the caller of a fan-out helps run its chunks, so a chunk \
                    that needs the held lock deadlocks against its own submitter. Diagnostics print the \
                    acquisition chain with file:line per hop.",
        example: "let g = self.breakers.lock();\npool.scatter(n, |i| search(i)); // guard held across the fan-out",
        escape: "Restructure so the guard drops first (`drop(g)`), or \
                 `// lint: allow(L009) reason` when the callee provably never touches the pool \
                 (say why).",
    },
    RuleDoc {
        id: "L010",
        title: "interprocedural hot-path effects",
        rationale: "L001/L002 upgraded over the propagated effect lattice: `// lint: hot-path` \
                    now means *transitively* panic-, lock-, and allocation-free. A hot-path \
                    function calling an allocating helper one crate over no longer passes the \
                    gate; the diagnostic prints the offending call chain \
                    (`search → score_block → format!`) with file:line per hop.",
        example: "// lint: hot-path\npub fn search(&self) { self.stats.describe(); } // describe() → format!",
        escape: "Either fix the leaf (preferred), justify the leaf itself (`allow(L001)` / \
                 `allow(L002)` there — the justification is inherited), or \
                 `// lint: allow(L010) reason` at the call site for amortized effects, e.g. a \
                 batch fan-out that locks once per query batch.",
    },
    RuleDoc {
        id: "L011",
        title: "raw atomics confined to obs::sync",
        rationale: "`std::sync::atomic` may be named in non-test library code only inside \
                    `crates/obs/src/sync.rs`. Everywhere else an atomic is one of that module's \
                    types (`RelaxedU64`, `Flag`, `RingHead`, `RefCount`, `SeqPair`), whose methods \
                    hard-code the `Ordering` their protocol needs — so a `Relaxed`-published ring \
                    head or a torn seqlock (both real bugs, PR 8) cannot be written at a call \
                    site. Binaries, benches, tests and examples are exempt.",
        example: "use std::sync::atomic::{AtomicU64, Ordering}; // in crates/serve/src/x.rs",
        escape: "Pick the `emblookup_obs::sync` type for the protocol; if none fits, add the \
                 protocol to `sync.rs` together with a test that pins what it publishes. \
                 `// lint: allow(L011) reason` exists but the tree carries none.",
    },
    RuleDoc {
        id: "L012",
        title: "deadline propagation from serve handlers",
        rationale: "Every function reachable from a serve request handler (`handle_*` in \
                    `emblookup-serve`) that blocks — a `.recv()`/`.join()`/sleep site or a pool \
                    fan-out (`parallel_map*`, `scatter*`) — must receive a deadline-bearing \
                    parameter (`DeadlineClock`, or a param named `clock`/`deadline`) or be \
                    dominated by a deadline check along every unguarded call path. Otherwise a \
                    slow shard turns the request-deadline machinery from PR 7 into decoration: \
                    the handler has a budget but the work it fans out cannot observe it.",
        example: "pub fn handle_lookup(req: Request) { stage(req) } // stage → drain → rx.recv()\npub fn drain() { rx.recv(); } // no DeadlineClock anywhere on the chain",
        escape: "Pass the handler's `DeadlineClock` down the chain (preferred), dominate the \
                 blocking site with `clock.expired()` / `remaining_ms()`, or \
                 `// lint: allow(L012) reason` when the wait is provably bounded (say by what).",
    },
];

/// Looks up the documentation for `id` (case-sensitive, `L008` style).
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

/// Runs the interprocedural rules over extracted facts. Returns raw
/// violations (central allow suppression happens in the workspace
/// driver) sorted by (file, line, rule).
pub fn run(manifests: &[Manifest], files: &[FileFacts]) -> Vec<Violation> {
    let g = CallGraph::build(manifests, files);
    let fx = propagate(&g);
    run_on(&g, &fx)
}

/// Variant over a prebuilt graph + effects (shared with tests).
pub fn run_on(g: &CallGraph, fx: &Effects) -> Vec<Violation> {
    let mut out = determinism::check(g, fx);
    out.extend(locks::check(g, fx));
    out.extend(hotpath::check(g, fx));
    out.extend(deadline::check(g));
    out.sort_by(|a, b| {
        a.file.cmp(&b.file).then_with(|| a.line.cmp(&b.line)).then_with(|| a.rule.cmp(&b.rule))
    });
    out
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
            assert!(
                *id == "L000" || RULES.contains(id),
                "doc {id} has no corresponding rule"
            );
        }
        let mut sorted = doc_ids.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, doc_ids, "RULE_DOCS must stay in id order");
    }

    #[test]
    fn explain_renders_all_sections() {
        let text = explain("L008").expect("L008 documented");
        for needle in ["L008", "Rationale", "Example", "Escape hatch"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
        assert!(explain("L999").is_none());
    }

    #[test]
    fn contributing_catalog_documents_every_rule() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../CONTRIBUTING.md");
        let text = std::fs::read_to_string(path).expect("CONTRIBUTING.md readable");
        for d in RULE_DOCS {
            if d.id == "L000" {
                continue; // directive hygiene is documented in prose
            }
            let row = format!("| {} |", d.id);
            assert!(
                text.contains(&row),
                "CONTRIBUTING.md static-analysis catalog is missing a `{row}` row — \
                 add one (the table and RULE_DOCS must stay in sync)"
            );
        }
    }
}
