//! L008 — determinism: unordered iteration order and thread-order
//! float accumulation must not escape (DESIGN.md §7).

use crate::callgraph::CallGraph;
use crate::effects::{Effects, POOLWAIT};
use crate::engine::Violation;

/// Emits one violation per determinism site recorded by the scanner.
/// Sites inside functions reachable from pool fan-out get the
/// annotation — the contract is global, but those are the ones that
/// also vary with `EMBLOOKUP_THREADS`.
pub fn check(g: &CallGraph, fx: &Effects) -> Vec<Violation> {
    let parallel = pool_reachable(g, fx);
    let mut out = Vec::new();
    for (i, node) in g.nodes.iter().enumerate() {
        for site in &node.fact.det_sites {
            let mut message = format!("determinism: in `{}`, {}", node.fact.name, site.what);
            if parallel[i] {
                message.push_str(" [reached from pool-parallel code]");
            }
            out.push(Violation {
                file: node.file.clone(),
                line: site.line,
                rule: "L008".to_string(),
                message,
                suggestion: None,
            });
        }
    }
    out
}

/// Forward reachability from every function that waits on a pool
/// fan-out: an over-approximation of "code that may run per pool
/// task / whose output feeds a parallel merge".
fn pool_reachable(g: &CallGraph, fx: &Effects) -> Vec<bool> {
    let n = g.nodes.len();
    let mut mark = vec![false; n];
    let mut stack: Vec<usize> = (0..n)
        .filter(|&i| fx.effects[i] & POOLWAIT != 0)
        .collect();
    while let Some(i) = stack.pop() {
        if mark[i] {
            continue;
        }
        mark[i] = true;
        for cands in &g.resolved[i] {
            for &j in cands {
                if !mark[j] {
                    stack.push(j);
                }
            }
        }
    }
    mark
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effects::propagate;
    use crate::facts::FileFacts;

    fn check_src(src: &str) -> Vec<Violation> {
        let f = FileFacts::fixture("crates/kg/src/lib.rs", "emblookup-kg", src);
        let m = crate::cargo::parse_manifest(
            "crates/kg/Cargo.toml",
            std::path::Path::new("crates/kg"),
            "[package]\nname = \"emblookup-kg\"\n",
        )
        .expect("fixture manifest");
        let g = CallGraph::build(&[m], &[f]);
        let fx = propagate(&g);
        check(&g, &fx)
    }

    #[test]
    fn golden_unsorted_collect_diagnostic() {
        let src = "\
use std::collections::HashMap;
pub fn ids(counts: &HashMap<u32, u32>) -> Vec<u32> {
    counts.keys().copied().collect()
}
";
        let v = check_src(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule.as_str(), v[0].line), ("L008", 3));
        assert_eq!(
            v[0].message,
            "determinism: in `ids`, iteration order of `counts` (HashMap/HashSet) escapes \
             into a collected sequence; sort the result or use a BTree container"
        );
    }

    #[test]
    fn pool_parallel_reachability_is_annotated() {
        let src = "\
use std::collections::HashMap;
pub fn fan_out(p: &Pool) { p.parallel_map(0, 8, |i| shard(i)); }
pub fn shard(i: usize) {}
pub fn weigh(w: &HashMap<u32, f32>) -> f32 { w.values().sum::<f32>() }
pub fn run(p: &Pool, w: &HashMap<u32, f32>) -> f32 { fan_out(p); weigh(w) }
";
        let v = check_src(src);
        assert_eq!(v.len(), 1, "{v:?}");
        // `weigh` is called from `run`, which fans out — annotated?
        // reachability is *from* fan-out roots through their callees;
        // `run` is a root (transitive POOLWAIT), so `weigh` is marked.
        assert!(v[0].message.ends_with("[reached from pool-parallel code]"), "{}", v[0].message);
    }

    #[test]
    fn sorted_escape_is_clean() {
        let src = "\
use std::collections::HashMap;
pub fn ids(counts: &HashMap<u32, u32>) -> Vec<u32> {
    let mut v: Vec<u32> = counts.keys().copied().collect();
    v.sort_unstable();
    v
}
";
        // binding is type-annotated; the collector cannot tie it to the
        // later sort, so this relies on the let-binding heuristic —
        // use the un-annotated form the codebase prefers
        let src2 = "\
use std::collections::HashMap;
pub fn ids(counts: &HashMap<u32, u32>) -> Vec<u32> {
    let mut v = counts.keys().copied().collect::<Vec<u32>>();
    v.sort_unstable();
    v
}
";
        assert_eq!(check_src(src2).len(), 0, "{:?}", check_src(src2));
        // the annotated form works too: the type annotation names the
        // binding, so the later sort is tied to it
        assert_eq!(check_src(src).len(), 0, "{:?}", check_src(src));
    }

    #[test]
    fn collect_into_annotated_unordered_container_is_absorbed() {
        // re-collecting into a map/set discards iteration order, so
        // nothing escapes — with or without the turbofish
        let src = "\
use std::collections::{HashMap, HashSet};
pub fn invert(m: &HashMap<u32, u32>) -> HashMap<u32, u32> {
    let out: HashMap<u32, u32> = m.iter().map(|(k, v)| (*v, *k)).collect();
    out
}
pub fn keys(m: &HashMap<u32, u32>) -> HashSet<u32> {
    let s: HashSet<u32> = m.keys().copied().collect();
    s
}
";
        assert_eq!(check_src(src).len(), 0, "{:?}", check_src(src));
    }
}
